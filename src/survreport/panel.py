"""Panel data model for periodically self-reported event outcomes.

Subjects report a binary event status at scheduled visits.  All distinct
visit times in a dataset form the study grid tau_1 < ... < tau_J, which
partitions the time axis into J+1 intervals (with tau_0 = 0 and
tau_{J+1} = infinity).  Reports are error prone: their sensitivity,
specificity and the negative predictive value of the baseline screen are
carried by :class:`ErrorModel`.
"""

from __future__ import annotations

import contextlib
import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property
from itertools import chain, compress
from operator import attrgetter

import numpy as np


ADAPTIVE = "adaptive"
PREDETERMINED = "predetermined"
_SCHEDULES = (ADAPTIVE, PREDETERMINED)


class PanelFormatError(ValueError):
    """Raised when a panel CSV file cannot be parsed."""


class PanelValidationError(ValueError):
    """Raised when a parsed dataset violates structural invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations[:10])
        more = "" if len(self.violations) <= 10 else f" (+{len(self.violations) - 10} more)"
        super().__init__(f"dataset failed validation: {lines}{more}")


@dataclass(frozen=True)
class ErrorModel:
    """Report error rates: sensitivity, specificity, baseline NPV.

    ``phi1`` is the probability of a positive report given the event has
    occurred by the visit, ``phi0`` the probability of a negative report
    given it has not, and ``eta`` the probability that a subject with a
    negative baseline screen is truly event-free at entry.
    """

    phi1: float
    phi0: float
    eta: float = 1.0

    def __post_init__(self):
        for name in ("phi1", "phi0", "eta"):
            value = getattr(self, name)
            if not (0.0 < value <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1], got {value!r}")
        if not self.phi1 > 1.0 - self.phi0:
            raise ValueError(
                "phi1 must exceed 1 - phi0: a positive report must be more "
                "likely after the event than before it"
            )


@dataclass(frozen=True)
class SubjectPanel:
    """One subject's visit history.

    ``covariates`` holds a time-fixed covariate vector; ``covariate_path``
    holds time-varying measurements as ``((time, vector), ...)`` sorted by
    time.  At most one of the two may be set; a :class:`Dataset` checks that.
    """

    subject_id: str
    times: tuple[float, ...]
    results: tuple[int, ...]
    covariates: tuple[float, ...] | None = None
    covariate_path: tuple[tuple[float, tuple[float, ...]], ...] | None = None


@dataclass(frozen=True)
class StudyGrid:
    """Ordered distinct visit times defining the interval partition."""

    taus: tuple[float, ...]

    def __post_init__(self):
        if len(self.taus) < 1:
            raise ValueError("study grid needs at least one visit time")
        if not all(map(math.isfinite, self.taus)):
            raise ValueError(f"grid times must be finite, got {self.taus!r}")
        if self.taus[0] <= 0.0:
            raise ValueError("grid times must be strictly positive")
        if any(b <= a for a, b in zip(self.taus, self.taus[1:])):
            raise ValueError("grid times must be strictly increasing")

    @property
    def J(self) -> int:
        return len(self.taus)


@dataclass(frozen=True)
class Dataset:
    """Subjects sharing one study grid, held as arrays, each made once:

    - ``ids``, the subject ids, each appearing once;
    - ``reports``, the read-only (N, J) int8 report matrix: column k holds
      the report at tau_{k+1}, -1 a missed visit;
    - ``covariates``, the read-only (N, P) time-fixed covariate matrix, or
      None when a subject has no time-fixed vector (a path, or nothing);
    - ``covariate_paths``, every subject's covariates in long form
      ``(rows, times, values)`` in subject then time order: point k, of
      the path of subject ``rows[k]``, holds the (P,) vector ``values[k]``
      measured at ``times[k]``; a time-fixed vector is one point at time 0.

    ``Dataset(subjects, ...)`` and :func:`read_panel_csv` make them from long form in one
    step (:meth:`_fill`) on the sorted distinct visit times, :meth:`from_arrays` from the
    report matrix on its grid; each raises :class:`PanelValidationError` listing every
    broken rule of :data:`_RULES`, so a dataset that exists is valid.  No panel is kept:
    ``subjects`` is made from the arrays when first read.  Equality and the hash read the arrays.
    """

    grid: StudyGrid
    covariate_names: tuple[str, ...] = ()
    schedule: str = ADAPTIVE

    def __init__(self, subjects: Sequence[SubjectPanel], covariate_names=(), schedule: str = ADAPTIVE):
        self._fill(tuple(covariate_names), schedule, *_flatten(tuple(subjects)))

    @classmethod
    def from_arrays(cls, subject_ids, reports, grid: StudyGrid, covariates=None, covariate_names=(),
                    schedule: str = ADAPTIVE, violations=None) -> Dataset:
        """Dataset held as its (N, J) report matrix (-1 a missed visit) and
        (N, P) time-fixed covariate matrix, or ``None`` without covariates.
        ``violations``, when given, is what the caller's own checks found,
        distinct ids included (the generator passes ``()``).  The result
        equals the dataset made from the same subjects.
        """
        ids, names, reports = tuple(subject_ids), tuple(covariate_names), np.asarray(reports)
        # checked before the cast, which would wrap 257 to 1 and truncate 0.7 to 0
        if not (np.isin(reports, (-1, 0, 1)) if reports.dtype != np.int8 else (reports >= -1) & (reports <= 1)).all():
            raise ValueError("reports must be -1 (missed visit), 0 or 1")
        reports = np.array(reports, dtype=np.int8)
        z = np.empty((len(ids), 0)) if covariates is None else np.array(covariates, dtype=float)
        if reports.shape != (len(ids), grid.J) or z.shape != (len(ids), len(names)):
            raise ValueError(
                f"expected a ({len(ids)}, {grid.J}) report and a ({len(ids)}, {len(names)}) "
                f"covariate matrix, got {reports.shape} and {z.shape}"
            )
        first = np.arange(len(ids) if names else 0)  # a time-fixed vector is one point at time 0
        dataset = cls.__new__(cls)
        dataset._hold(ids, names, schedule, distinct=violations is None)
        dataset._keep(grid, reports, (first, np.zeros(first.size), z[first]), np.full(len(ids), bool(names)))
        if violations is None:  # every subject has one P-long vector at time 0
            violations = _violations(ids, dataset.visits, schedule, dataset.covariate_paths, len(names))
        if violations:
            raise PanelValidationError(violations)
        return dataset

    def _fill(self, names, schedule, ids, visits, points, fixed, lengths=None, marked=(False,) * 3, distinct=True):
        """Set this dataset from ``visits`` ``(rows, times, results)`` and covariate ``points``
        ``(rows, times, values)``, each in subject then time order, on the sorted distinct visit
        times; the rest is as :func:`_flatten` gives it.  Returns the dataset."""
        self._hold(ids, names, schedule, distinct)
        violations = _violations(ids, visits, schedule, points, len(names), lengths, marked)
        if violations:  # before a bad visit time breaks the grid, or a vector not P long is kept
            raise PanelValidationError(violations)
        (rows, times, results), (point_rows, point_times, values) = visits, points
        taus, cols = np.unique(times, return_inverse=True)  # each visit's column is its index in the grid
        reports = np.full((len(ids), taus.size), -1, dtype=np.int8)
        reports[rows, cols] = results
        points = point_rows, point_times, values.reshape(point_rows.size, len(names))
        self._keep(StudyGrid(tuple(taus.tolist())), reports, points, fixed)
        return self

    def _hold(self, ids, names, schedule, distinct=True):
        """Check the schedule, that there are ``ids`` and, if ``distinct``,
        that none repeats; set them, names and schedule."""
        if schedule not in _SCHEDULES:
            raise ValueError(f"schedule must be one of {_SCHEDULES}")
        if not ids:
            raise ValueError("dataset needs at least one subject")
        if distinct and len(set(ids)) < len(ids):
            seen = set()
            raise ValueError(f"subject {next(s for s in ids if s in seen or seen.add(s))} appears twice")
        vars(self).update(ids=tuple(ids), covariate_names=tuple(names), schedule=schedule)

    def _keep(self, grid, reports, long_form, fixed):
        """Set the grid and the arrays, read-only; the covariate matrix is the
        long form's values when every subject has one time-fixed vector."""
        for a in (reports, *long_form):
            a.flags.writeable = False
        covariates = long_form[2] if fixed.all() else None
        vars(self).update(grid=grid, reports=reports, covariate_paths=long_form, _fixed=fixed,
                          covariates=covariates if self.covariate_names else np.empty((self.n, 0)))

    @cached_property
    def subjects(self) -> tuple[SubjectPanel, ...]:
        """The :class:`SubjectPanel` of each subject, made from the arrays."""
        reports, taus, fixed = self.reports, self.grid.taus, self._fixed.tolist()
        rows, times, values = self.covariate_paths
        times, vectors = times.tolist(), list(map(tuple, values.tolist()))
        bounds = np.searchsorted(rows, np.arange(self.n + 1)).tolist()  # of each subject's points
        return tuple(
            SubjectPanel(
                sid, tuple(compress(taus, k)), tuple(compress(r, k)),
                vectors[a] if f else None, None if f or a == b else tuple(zip(times[a:b], vectors[a:b])),
            )
            for sid, r, k, f, a, b in zip(
                self.ids, reports.tolist(), (reports >= 0).tolist(), fixed, bounds, bounds[1:]
            )
        )

    def _key(self):
        head = (self.ids, self.grid, self.covariate_names, self.schedule)
        return (*head, *(a.tobytes() for a in (self._fixed, self.reports, *self.covariate_paths)))

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Dataset) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"Dataset(n={self.n}, J={self.grid.J}, covariate_names={self.covariate_names!r}, "
                f"schedule={self.schedule!r})")

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def n_covariates(self) -> int:
        return len(self.covariate_names)

    def vectorless_subject_id(self) -> str:
        """Id of the first subject with no time-fixed covariate vector."""
        return self.ids[int(np.argmin(self._fixed))]

    @property
    def visits(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every visit in long form ``(rows, times, results)``, in subject then visit order."""
        rows, cols = np.divmod(np.flatnonzero(self.reports >= 0), self.reports.shape[1])
        return rows, np.asarray(self.grid.taus)[cols], self.reports[rows, cols]


def _flatten(subjects) -> tuple:
    """What :meth:`Dataset._fill` takes of :class:`SubjectPanel` objects, in one
    walk, each covariate path iterated once; the only code that reads a panel.
    A ragged panel's visits are not read, a result not 0 or 1 is no positive, a time-fixed
    vector (read before a path) is one point at time 0, a zero-length one none."""
    fields = ("subject_id", "times", "results", "covariates", "covariate_path")  # a list each: a tuple per subject costs collections
    ids, times, results, vectors, paths = (list(map(attrgetter(f), subjects)) for f in fields)
    n = len(ids)
    counts = np.fromiter(map(len, times), np.intp, n)
    ragged = counts != np.fromiter(map(len, results), np.intp, n)
    if ragged.any():
        times, results = ([() if r else v for r, v in zip(ragged.tolist(), a)] for a in (times, results))
        counts[ragged] = 0
    bad = ~np.fromiter(map({0, 1}.issuperset, results), bool, n)  # True and 1.0 are 1; '1', 0.5 and nan are not
    if bad.any():
        results = [[r == 1 for r in rs] for rs in results]
    rows = np.repeat(np.arange(n), counts)
    times = np.fromiter(chain.from_iterable(times), float, rows.size)
    results = np.fromiter(chain.from_iterable(results), np.int8, rows.size)
    both = np.array([v is not None and path is not None for v, path in zip(vectors, paths)], dtype=bool)
    fixed = [v is not None and len(v) > 0 for v in vectors]
    paths = [((0.0, v),) if f else path or () for f, v, path in zip(fixed, vectors, paths)]
    point_rows = np.repeat(np.arange(n), np.fromiter(map(len, paths), np.intp, n))
    points = list(chain.from_iterable(paths))
    lengths = np.fromiter((len(v) for _, v in points), np.intp, len(points))
    point_times = np.fromiter((t for t, _ in points), float, len(points))
    values = np.fromiter(chain.from_iterable(v for _, v in points), float, int(lengths.sum()))  # end to end
    return ids, (rows, times, results), (point_rows, point_times, values), np.array(fixed), lengths, (ragged, bad, both)


@dataclass(frozen=True)
class Violation:
    subject_id: str
    rule: str
    detail: str = ""

    def __str__(self):
        return f"{self.subject_id}: {self.rule}" + (f" ({self.detail})" if self.detail else "")


def round_to_granularity(time: float, granularity: float) -> float:
    """Round ``time`` to the nearest multiple of ``granularity``.

    The multiple is snapped to the decimal places of ``granularity`` so
    that, e.g., 3 * 0.1 reads 0.3 rather than 0.30000000000000004.
    """
    if not 0.0 < granularity < math.inf:  # also rejects nan
        raise ValueError(f"rounding granularity must be positive, got {granularity!r}")
    decimals = max(0, -Decimal(repr(granularity)).as_tuple().exponent)
    return round(round(time / granularity) * granularity, decimals)


build_dataset = Dataset  # a name perfbench/spans.py wraps and perfbench/inputs.py calls


_RULES = (
    "times and results differ in length",
    "zero visits",
    "non-positive visit time",
    "visit times not strictly increasing",
    "non-finite visit time",
    "result not 0 or 1",
    "multiple positive results",
    "positive not terminal",
    "fixed covariates and a covariate path",
    "covariate length mismatch",
    "ragged covariate path",
    "non-finite covariate path time",
    "covariate path times not strictly increasing",
    "non-finite covariate value",
)


def validate(dataset: Dataset) -> list[Violation]:  # a name perfbench/spans.py wraps
    """The violations of a dataset: none, since making one checks them all."""
    return []


def _violations(ids, visits, schedule, points, p, lengths=None, marked=(False,) * 3) -> list[Violation]:
    """One :class:`Violation` per subject and broken rule of ``_RULES``, in subject then rule
    order; a ragged panel, or a subject with no visits, gets only that one.  ``visits`` and
    ``points`` are long form as in :attr:`Dataset.visits` and :attr:`Dataset.covariate_paths`, each
    vector ``lengths`` long (None: ``p``); ``marked`` flags, per subject (False: none), the three
    rules only a :class:`SubjectPanel` can break."""
    (rows, times, results), (path_rows, path_times, values) = visits, points
    n = len(ids)
    lengths = np.broadcast_to(p, path_rows.shape) if lengths is None else lengths

    def per_subject(flags, where=rows):  # False where no subject breaks the rule, the common case
        return np.bincount(where[flags], minlength=n) > 0 if flags.any() else False

    def unordered(where, at):  # a nan compares False, so it breaks no order
        return per_subject((where[1:] == where[:-1]) & (at[1:] <= at[:-1]), where[1:])

    counts = np.bincount(rows, minlength=n)
    broken = np.zeros((n, len(_RULES)), dtype=bool)
    broken[:, 0], broken[:, 5], broken[:, 8] = marked
    broken[:, 2] = per_subject(times <= 0.0)
    broken[:, 3] = unordered(rows, times)
    broken[:, 4] = per_subject(~np.isfinite(times))
    if schedule == ADAPTIVE:
        positives = np.bincount(rows[results == 1], minlength=n)
        last_positive = np.zeros(n, dtype=bool)
        last_positive[counts > 0] = results[np.cumsum(counts)[counts > 0] - 1] == 1
        broken[:, 6] = positives > 1
        broken[:, 7] = (positives == 1) & ~last_positive
    points = np.bincount(path_rows, minlength=n)
    width = np.zeros(n, dtype=np.intp)  # of each subject's first vector
    width[points > 0] = lengths[(np.cumsum(points) - points)[points > 0]]
    broken[:, 9] = width != p
    broken[:, 10] = per_subject(lengths != width[path_rows], path_rows)
    broken[:, 11] = per_subject(~np.isfinite(path_times), path_rows)
    broken[:, 12] = unordered(path_rows, path_times)
    broken[:, 13] = per_subject(~np.isfinite(values).ravel(), np.repeat(path_rows, lengths))
    broken[counts == 0, 2:] = False  # no visits, or none read
    broken[:, 1] = (counts == 0) & ~broken[:, 0]
    out = []
    for i, k in zip(*np.divmod(np.flatnonzero(broken), len(_RULES))):  # subject then rule order; 2-d nonzero is slow
        out.append(Violation(ids[i], _RULES[k], f"expected {p}, got {width[i]}" if k == 9 else ""))
    return out


@dataclass(frozen=True)
class LoadedPanel:
    """A parsed dataset plus bookkeeping from the reader."""

    dataset: Dataset
    n_imputed: int = 0
    n_collisions_merged: int = 0


def _read_csv(path, first_columns, what=""):
    """Header, line numbers and cells end to end of the non-blank rows of a CSV
    file whose header starts with ``first_columns``; each row must have one
    cell per column and a subject id first.  ``what`` starts the messages."""
    with open(path, newline="", encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise PanelFormatError(f"empty {what}file: header row required") from None
        if header[: len(first_columns)] != list(first_columns):
            raise PanelFormatError(f"{what}header must start with {','.join(first_columns)}; got {','.join(header)}")
        # the cells end to end: a list of row lists costs the garbage collector more than parsing
        lines, cells = [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header) or not row[0].strip():
                if all(not c.strip() for c in row):
                    continue
                if len(row) != len(header):
                    raise PanelFormatError(f"{what}line {line_no}: expected {len(header)} fields, got {len(row)}")
                raise PanelFormatError(f"{what}line {line_no}: empty subject_id")
            lines.append(line_no)
            cells += row
    return header, lines, cells


def _float_columns(cells, lines, header, columns, optional=False):
    """The given columns of a file read by :func:`_read_csv` as an (R, C)
    float matrix, an empty ``optional`` cell as nan; a malformed or
    non-finite cell is an error that names its line and column."""
    out = np.empty((len(lines), len(columns)))
    for k, j in enumerate(columns):
        column = cells[j :: len(header)]
        with contextlib.suppress(ValueError):  # then find the cell float() fails on
            out[:, k] = np.fromiter(map(float, column), dtype=float, count=len(column))
            if np.isfinite(out[:, k]).all():
                continue
        for i, token in enumerate(c.strip() for c in column):
            try:
                out[i, k] = float(token) if token or not optional else math.nan
            except ValueError:
                raise PanelFormatError(f"line {lines[i]}: column {header[j]!r} has non-numeric value {token!r}") from None
            if token and not math.isfinite(out[i, k]):
                raise PanelFormatError(f"line {lines[i]}: column {header[j]!r} has non-finite value {token!r}")
    return out


def _code(ids):
    """The distinct ``ids`` (each whole 4-byte words) in first-appearance order, as a
    list, and each row's index; neighbours compare as words, only interleaved ids sort."""
    words = np.ascontiguousarray(ids[:, None]).view(np.uint64 if ids.itemsize % 8 == 0 else np.uint32)
    new = np.ones(len(ids), dtype=bool)
    new[1:] = np.any([w[1:] != w[:-1] for w in words.T], axis=0)
    codes, distinct = np.cumsum(new) - 1, ids[new].tolist()
    if len(set(distinct)) < len(distinct):
        _, first, inverse = np.unique(ids[new], return_index=True, return_inverse=True)
        rank = np.argsort(first)  # the distinct ids in first-appearance order
        distinct, codes = [distinct[k] for k in first[rank].tolist()], np.argsort(rank)[inverse][codes]
    return distinct, codes


# the bytes of a file with no cell to strip or decode, but "\r"; a '"' fails every
# parse but that of an id, whose quotes are checked after the pass
_ARRAY_BYTES = bytes(range(33, 127)) + b"\n"


def _read_array(path, first_columns):
    """Header, subject ids, each row's index into them and the other columns
    (``result`` 0 or 1, the covariates one matrix) of a file parsed in one
    ``np.loadtxt`` pass; None for a file the cell reader might read otherwise or reject."""
    with open(path, "rb") as fh:
        data = b"\n" + fh.read().removeprefix(b"\xef\xbb\xbf") + b"\n"  # no BOM; each line lies between two newlines
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw == 10)
    lengths, cr = np.diff(ends), raw[ends[1:] - 1] == 13  # each line's length with its newline; a "\r" ends it
    if data.translate(None, _ARRAY_BYTES) != b"\r" * int(np.count_nonzero(cr)) or data.endswith(b"\r\n"):
        return None
    line = data[1 : ends[1]].rstrip(b"\r")
    header = [h.strip() for h in next(csv.reader([line.decode("ascii")]), [])]
    filled = ((lengths > 2) | (lengths == 2) & ~cr)[1:]  # non-blank lines; loadtxt would warn on none
    if header[: len(first_columns)] != list(first_columns) or line.count(b'"') % 2 or not filled.any():
        return None
    # the id fits a line less a comma and a character per other column, in whole words for _code
    width = -(-max(int(lengths.max()) - 2 * len(header) + 1, 1) // 8) * 8
    fields = [(name, "S2" if name == "result" else float) for name in first_columns[1:]]  # "10" read whole
    dtype = [("id", f"S{width}"), *fields, ("values", float, (len(header) - len(first_columns),))]
    del data, raw, ends, lengths, cr, filled  # the scan's arrays: no memory for them at the peak
    try:  # a '"' outside the ids is read as a character, so a quoted number fails
        table = np.loadtxt(path, dtype, delimiter=",", comments=None, skiprows=1, ndmin=1)
    except ValueError:  # a wrong field count, an empty cell, or a token only float() takes
        return None
    columns = [table[name] for name in table.dtype.names[1:]]
    if "result" in first_columns:  # the tokens 0 and 1 read 48 and 49, any other more
        columns[1] = np.minimum(columns[1].view("<u2") - np.uint16(48), 2).astype(np.int8)
    distinct, codes = _code(table["id"])
    ids = b" ".join(distinct)  # no id holds a space
    if b'"' in ids:  # then each id must be quoted, as write.csv quotes them: "a" "b" ...
        bare = ids[1:-1].replace(b'" "', b" ")
        if ids[:1] != b'"' or ids[-1:] != b'"' or b'"' in bare or len(ids) - len(bare) != 2 * len(distinct):
            return None
        ids = bare
    ids = ids.decode("ascii").split(" ")
    finite = all(np.isfinite(c).all() for c in columns if c.dtype.kind == "f")
    if "" in ids or not finite or "result" in first_columns and (columns[1] > 1).any():
        return None
    return header, ids, codes, *columns


def _read_baseline(path, subject_ids):
    """Covariate names and (N, P) matrix, in the order of ``subject_ids``,
    from a ``subject_id,cov1,...`` file with one row per subject."""
    read = _read_array(path, ("subject_id",))
    if read is None or len(read[1]) < len(read[2]):  # the cell reader names a repeated id's lines
        header, lines, cells = _read_csv(path, ("subject_id",), "baseline ")
        read = header, [c.strip() for c in cells[:: len(header)]], None, None
    header, ids, _, values = read
    row_of = dict(zip(ids[::-1], range(len(ids) - 1, -1, -1)))  # each id's first row
    if len(row_of) < len(ids):  # name the first row to repeat an id, and the row before it with that id
        k = next(k for k, sid in enumerate(ids) if row_of[sid] != k)
        raise PanelFormatError(f"baseline lines {lines[row_of[ids[k]]]} and {lines[k]}: subject {ids[k]} appears twice")
    try:
        rows = np.fromiter(map(row_of.__getitem__, subject_ids), np.intp, len(subject_ids))
    except KeyError as missing:
        raise PanelFormatError(f"subject {missing.args[0]}: missing baseline covariate row") from None
    if values is None:
        values = _float_columns(cells, lines, header, range(1, len(header)))
    return tuple(header[1:]), values[rows]


def read_panel_csv(path, *, baseline_csv=None, schedule: str = ADAPTIVE, rounding: float | None = None) -> LoadedPanel:
    """Read a long-format panel CSV into a validated :class:`Dataset`.

    Expected header: ``subject_id,time,result[,cov1,cov2,...]``; every row
    names its subject, and a subject's rows are taken in time order, ties in
    file order.  An empty covariate cell takes the subject's last observed
    value (an error at its first visit).  A subject whose covariates never
    change gets them as a time-fixed vector, any other a covariate path.
    With ``rounding``, visit times are rounded to its multiples and, of two
    visits that meet, the later record is kept.  A ``baseline_csv``
    (``subject_id,cov1,...``, one row per subject) gives the time-fixed
    covariates of a panel file with none.  Either file is read cell by cell
    only if :func:`_read_array` declines it, to the same dataset or error.
    A file that breaks a rule of :data:`_RULES` raises :class:`PanelValidationError`.
    """
    read = _read_array(path, ("subject_id", "time", "result"))
    if read is None:
        header, lines, cells = _read_csv(path, ("subject_id", "time", "result"))
        times = _float_columns(cells, lines, header, [1])[:, 0]
        tokens = [c.strip() for c in cells[2 :: len(header)]]
        k = next((k for k, c in enumerate(tokens) if c not in ("0", "1")), None)
        if k is not None:
            raise PanelFormatError(f"line {lines[k]}: result must be 0 or 1, got {tokens[k]!r}")
        results = np.fromiter(map("1".__eq__, tokens), dtype=bool, count=len(lines)).view(np.int8)
        values = _float_columns(cells, lines, header, range(3, len(header)), optional=True)
        subject_ids, codes = _code(np.array([c.strip() for c in cells[:: len(header)]]))
    else:
        header, subject_ids, codes, times, results, values, lines = *read, None
    names = tuple(header[3:])
    if baseline_csv is not None and names:
        raise PanelFormatError("panel file carries covariate columns; a separate baseline "
                               "covariate file is not allowed in addition")
    missing = np.isnan(values)  # empty cells, imputed below
    order, rows, step = range(codes.size), codes, np.diff(codes)
    if not ((step > 0) | (step == 0) & (np.diff(times) >= 0)).all():  # not in subject, time order
        order = np.lexsort((times, codes))
        rows, times, results, values, missing = (a[order] for a in (codes, times, results, values, missing))
    first = np.flatnonzero(np.diff(rows, prepend=-1))  # each subject's first row
    n_imputed = int(missing.sum())
    if n_imputed:  # carry the last value forward, never across subjects
        source = np.where(missing, 0, np.arange(rows.size)[:, None])
        source[first] = first[:, None]
        values = np.take_along_axis(values, np.maximum.accumulate(source, axis=0), axis=0)
        lost = np.isnan(values)
        if lost.any():
            k = int(np.argmax(lost.any(axis=1)))
            raise PanelFormatError(f"line {lines[order[k]]}: covariate {names[int(np.argmax(lost[k]))]!r} missing at "
                                   f"subject {subject_ids[rows[k]]}'s first visit with no prior value")
    covariates, varying = values[first], np.zeros(len(subject_ids), dtype=bool)
    varying[rows[(values != covariates[rows]).any(axis=1)]] = True
    del step, missing  # no memory for them at the grid's peak
    if baseline_csv is not None:  # the panel has no covariate columns, so no error above
        names, covariates = _read_baseline(baseline_csv, subject_ids)
    n_collisions = 0
    if rounding is not None:  # of visits that meet, the later record is kept
        taus, cols = np.unique(times, return_inverse=True)
        times = np.array([round_to_granularity(t, rounding) for t in taus.tolist()])[cols]
        later = (np.diff(rows, append=-1) != 0) | (np.diff(times, append=0.0) != 0)  # 0 only for equal finite times
        n_collisions = int(later.size - np.count_nonzero(later))
        rows, times, results, values = rows[later], times[later], results[later], values[later]
        first = np.flatnonzero(np.diff(rows, prepend=-1))
    keep = varying[rows]  # a point at every visit of a path, at the first of a time-fixed vector
    keep[first] = bool(names)
    keep = np.flatnonzero(keep)
    point_rows, path = rows[keep], varying[rows[keep]]
    point_values = covariates[point_rows]
    if varying.any():  # never with a baseline file, whose values are not the panel's
        point_values[path] = values[keep[path]]
    points = point_rows, np.where(path, times[keep], 0.0), point_values
    visits, fixed = (rows, times, results), ~varying & bool(names)
    dataset = Dataset.__new__(Dataset)._fill(names, schedule, subject_ids, visits, points, fixed, distinct=False)
    return LoadedPanel(dataset=dataset, n_imputed=n_imputed, n_collisions_merged=n_collisions)
