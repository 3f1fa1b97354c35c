"""Panel data model for periodically self-reported event outcomes.

Subjects report a binary event status at scheduled visits.  All distinct
visit times in a dataset form the study grid tau_1 < ... < tau_J, which
partitions the time axis into J+1 intervals (with tau_0 = 0 and
tau_{J+1} = infinity).  Reports are error prone: their sensitivity,
specificity and the negative predictive value of the baseline screen are
carried by :class:`ErrorModel`.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from decimal import Decimal
from functools import cached_property
from itertools import chain, compress, repeat

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
    time.  At most one of the two may be set.
    """

    subject_id: str
    times: tuple[float, ...]
    results: tuple[int, ...]
    covariates: tuple[float, ...] | None = None
    covariate_path: tuple[tuple[float, tuple[float, ...]], ...] | None = None

    def __post_init__(self):
        if len(self.times) != len(self.results):
            raise ValueError(
                f"subject {self.subject_id}: {len(self.times)} times but "
                f"{len(self.results)} results"
            )
        if any(r not in (0, 1) for r in self.results):
            raise ValueError(f"subject {self.subject_id}: results must be 0 or 1")
        if self.covariates is not None and self.covariate_path is not None:
            raise ValueError(
                f"subject {self.subject_id}: fixed covariates and a covariate "
                "path are mutually exclusive"
            )

    @property
    def n_visits(self) -> int:
        return len(self.times)

    @property
    def n_covariates(self) -> int:
        if self.covariates is not None:
            return len(self.covariates)
        if self.covariate_path is not None:
            return len(self.covariate_path[0][1]) if self.covariate_path else 0
        return 0


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

    def interval_index(self, time: float) -> int:
        """1-based index j with tau_j == time; raises KeyError off grid."""
        try:
            return self._index_map[time]
        except KeyError:
            raise KeyError(f"visit time {time!r} is not a grid point") from None

    @property
    def _index_map(self) -> dict[float, int]:
        # cached lazily; object is frozen so bypass __setattr__
        cached = self.__dict__.get("_index_map_cache")
        if cached is None:
            cached = {t: j + 1 for j, t in enumerate(self.taus)}
            object.__setattr__(self, "_index_map_cache", cached)
        return cached


@dataclass(frozen=True)
class Dataset:
    """Validated collection of subject panels sharing one study grid."""

    subjects: Sequence[SubjectPanel]
    grid: StudyGrid
    covariate_names: tuple[str, ...] = ()
    schedule: str = ADAPTIVE

    def __post_init__(self):
        if self.schedule not in _SCHEDULES:
            raise ValueError(f"schedule must be one of {_SCHEDULES}")
        if len(self.subjects) < 1:
            raise ValueError("dataset needs at least one subject")

    @classmethod
    def from_arrays(
        cls,
        subject_ids,
        reports,
        grid: StudyGrid,
        covariates=None,
        covariate_names=(),
        schedule: str = ADAPTIVE,
    ) -> Dataset:
        """Dataset held as its (N, J) report matrix (-1 a missed visit) and
        (N, P) time-fixed covariate matrix, or ``None`` without covariates.

        Its ``subjects`` become :class:`SubjectPanel` objects only when read;
        the result equals the same subjects passed through
        :func:`build_dataset`.
        """
        ids, names = tuple(subject_ids), tuple(covariate_names)
        reports = np.array(reports, dtype=np.int8)
        z = np.empty((len(ids), 0)) if covariates is None else np.array(covariates, dtype=float)
        if reports.shape != (len(ids), grid.J) or z.shape != (len(ids), len(names)):
            raise ValueError(
                f"expected a ({len(ids)}, {grid.J}) report and a ({len(ids)}, {len(names)}) "
                f"covariate matrix, got {reports.shape} and {z.shape}"
            )
        if ((reports < -1) | (reports > 1)).any():
            raise ValueError("reports must be -1 (missed visit), 0 or 1")
        reports.flags.writeable = z.flags.writeable = False
        subjects = _ArraySubjects(ids, reports, grid.taus, z if names else None)
        dataset = cls(subjects, grid, names, schedule)
        dataset.__dict__.update(reports=reports, covariates=z)  # fill the caches
        return dataset

    @property
    def n(self) -> int:
        return len(self.subjects)

    @property
    def n_covariates(self) -> int:
        return len(self.covariate_names)

    @cached_property
    def reports(self) -> np.ndarray:
        """Read-only (N, J) int8 report matrix: column k holds the report
        at tau_{k+1}, -1 a missed visit.  Built once per dataset."""
        reports = _report_matrix(self.subjects, self.grid)
        reports.flags.writeable = False
        return reports

    @cached_property
    def covariates(self) -> np.ndarray | None:
        """Read-only (N, P) time-fixed covariate matrix, built once per
        dataset; ``None`` when a subject has no time-fixed vector (a
        covariate path, or nothing)."""
        if self.n_covariates == 0:
            return np.empty((self.n, 0))
        if any(s.covariates is None for s in self.subjects):
            return None
        z = np.array([s.covariates for s in self.subjects], dtype=float)
        z.flags.writeable = False
        return z


class _ArraySubjects(Sequence):
    """Read-only subjects of a :meth:`Dataset.from_arrays` dataset: the
    :class:`SubjectPanel` objects are made on first access and kept."""

    def __init__(self, ids, reports, taus, covariates):
        self._arrays = (ids, reports, taus, covariates)

    @cached_property
    def _panels(self) -> tuple[SubjectPanel, ...]:
        ids, reports, taus, z = self._arrays
        kept = (reports >= 0).tolist()
        z = repeat(None) if z is None else map(tuple, z.tolist())
        return tuple(
            SubjectPanel(sid, tuple(compress(taus, k)), tuple(compress(r, k)), zi)
            for sid, r, k, zi in zip(ids, reports.tolist(), kept, z)
        )

    def __len__(self):
        return len(self._arrays[0])

    def __getitem__(self, index):
        return self._panels[index]

    def __eq__(self, other):
        if isinstance(other, (tuple, _ArraySubjects)):
            return self._panels == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._panels)


def _report_matrix(subjects, grid: StudyGrid) -> np.ndarray:
    n, J = len(subjects), grid.J
    counts = np.fromiter((len(s.times) for s in subjects), dtype=np.intp, count=n)
    total = int(counts.sum())
    times = np.fromiter(chain.from_iterable(s.times for s in subjects), dtype=float, count=total)
    results = np.fromiter(
        chain.from_iterable(s.results for s in subjects), dtype=np.int8, count=total
    )
    taus = np.asarray(grid.taus, dtype=float)
    cols = np.searchsorted(taus, times)
    off = taus[np.minimum(cols, J - 1)] != times
    if off.any():
        raise KeyError(f"visit time {float(times[np.argmax(off)])!r} is not a grid point")
    rows = np.repeat(np.arange(n), counts)
    # each cell takes one visit: a repeated or out-of-order time would
    # silently overwrite (or reorder) a subject's reports
    unordered = (rows[1:] == rows[:-1]) & (cols[1:] <= cols[:-1])
    if unordered.any():
        sid = subjects[rows[1:][np.argmax(unordered)]].subject_id
        raise ValueError(f"subject {sid}: visit times not strictly increasing")
    reports = np.full((n, J), -1, dtype=np.int8)
    reports[rows, cols] = results
    return reports


@dataclass(frozen=True)
class Violation:
    subject_id: str | None
    rule: str
    detail: str = ""

    def __str__(self):
        who = self.subject_id if self.subject_id is not None else "<dataset>"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{who}: {self.rule}{tail}"


def round_to_granularity(time: float, granularity: float) -> float:
    """Round ``time`` to the nearest multiple of ``granularity``.

    The multiple is snapped to the decimal places of ``granularity`` so
    that, e.g., 3 * 0.1 reads 0.3 rather than 0.30000000000000004.
    """
    if granularity <= 0.0:
        raise ValueError(f"rounding granularity must be positive, got {granularity!r}")
    decimals = max(0, -Decimal(repr(granularity)).as_tuple().exponent)
    return round(round(time / granularity) * granularity, decimals)


def apply_rounding(subject: SubjectPanel, granularity: float) -> SubjectPanel:
    """Round a subject's visit times; merge within-subject collisions.

    When two visits collapse onto the same rounded time the later record's
    result wins (a later self-report supersedes an earlier one within the
    same period).  Covariate-path times are rounded the same way, keeping
    the later measurement on collision.
    """
    merged: dict[float, int] = {}
    order: list[float] = []
    for t, r in zip(subject.times, subject.results):
        rt = round_to_granularity(t, granularity)
        if rt not in merged:
            order.append(rt)
        merged[rt] = r
    order.sort()
    path = subject.covariate_path
    if path is not None:
        merged_path: dict[float, tuple[float, ...]] = {}
        for t, vec in path:
            merged_path[round_to_granularity(t, granularity)] = vec
        path = tuple(sorted(merged_path.items()))
    return SubjectPanel(
        subject_id=subject.subject_id,
        times=tuple(order),
        results=tuple(merged[t] for t in order),
        covariates=subject.covariates,
        covariate_path=path,
    )


def build_grid(subjects, rounding: float | None = None) -> StudyGrid:
    """Collect the sorted distinct (optionally rounded) visit times."""
    subjects = list(subjects)
    if not subjects or all(s.n_visits == 0 for s in subjects):
        raise ValueError("cannot build a grid from subjects with no visits")
    times = set(chain.from_iterable(s.times for s in subjects))
    if rounding is not None:
        times = {round_to_granularity(t, rounding) for t in times}
    return StudyGrid(taus=tuple(sorted(times)))


def build_dataset(
    subjects,
    covariate_names=(),
    schedule: str = ADAPTIVE,
    rounding: float | None = None,
) -> Dataset:
    """Round (optionally), build the grid and assemble a Dataset.

    The result is not validated; call :func:`validate` to obtain the list
    of invariant violations.
    """
    subjects = list(subjects)
    if rounding is not None:
        subjects = [apply_rounding(s, rounding) for s in subjects]
    grid = build_grid(subjects)
    return Dataset(
        subjects=tuple(subjects),
        grid=grid,
        covariate_names=tuple(covariate_names),
        schedule=schedule,
    )


def validate(dataset: Dataset) -> list[Violation]:
    """Check every structural invariant; violations are data, not errors."""
    out: list[Violation] = []
    grid_times = set(dataset.grid.taus)
    p = dataset.n_covariates
    for s in dataset.subjects:
        sid = s.subject_id
        if s.n_visits == 0:
            out.append(Violation(sid, "zero visits"))
            continue
        if any(t <= 0.0 for t in s.times):
            out.append(Violation(sid, "non-positive visit time"))
        if any(b <= a for a, b in zip(s.times, s.times[1:])):
            out.append(Violation(sid, "visit times not strictly increasing"))
        off = [t for t in s.times if t not in grid_times]
        if off:
            out.append(Violation(sid, "off-grid visit time", f"times {off}"))
        if dataset.schedule == ADAPTIVE:
            positives = [k for k, r in enumerate(s.results) if r == 1]
            if len(positives) > 1:
                out.append(Violation(sid, "multiple positive results"))
            elif positives and positives[0] != s.n_visits - 1:
                out.append(Violation(sid, "positive not terminal"))
        if s.n_covariates != p:
            out.append(
                Violation(sid, "covariate length mismatch", f"expected {p}, got {s.n_covariates}")
            )
        if s.covariate_path is not None:
            lengths = {len(vec) for _, vec in s.covariate_path}
            if len(lengths) > 1:
                out.append(Violation(sid, "ragged covariate path"))
    return out


@dataclass(frozen=True)
class LoadedPanel:
    """A parsed dataset plus bookkeeping from the reader."""

    dataset: Dataset
    n_imputed: int = 0
    n_collisions_merged: int = 0


def _parse_float(token: str, line_no: int, column: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise PanelFormatError(
            f"line {line_no}: column {column!r} has non-numeric value {token!r}"
        ) from None
    if not math.isfinite(value):
        raise PanelFormatError(f"line {line_no}: column {column!r} has non-finite value {token!r}")
    return value


def read_panel_csv(
    path,
    *,
    baseline_csv=None,
    schedule: str = ADAPTIVE,
    rounding: float | None = None,
) -> LoadedPanel:
    """Read a long-format panel CSV into a validated :class:`Dataset`.

    Expected header: ``subject_id,time,result[,cov1,cov2,...]``.  Empty
    covariate cells are imputed by carrying the last observed value
    forward; an empty cell at a subject's first visit with no earlier
    value is an error.  When ``baseline_csv`` is given
    (``subject_id,cov1,...``) its columns become time-fixed covariates
    and any covariate columns in the panel file are rejected.
    """
    rows_by_subject: dict[str, list[tuple[int, float, int, list[str]]]] = {}
    subject_order: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelFormatError("empty file: header row required") from None
        header = [h.strip() for h in header]
        if header[:3] != ["subject_id", "time", "result"]:
            raise PanelFormatError(
                "header must start with subject_id,time,result; got " + ",".join(header)
            )
        cov_names = header[3:]
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise PanelFormatError(
                    f"line {line_no}: expected {len(header)} fields, got {len(row)}"
                )
            sid = row[0].strip()
            t = _parse_float(row[1].strip(), line_no, "time")
            result_token = row[2].strip()
            if result_token not in ("0", "1"):
                raise PanelFormatError(
                    f"line {line_no}: result must be 0 or 1, got {result_token!r}"
                )
            if sid not in rows_by_subject:
                rows_by_subject[sid] = []
                subject_order.append(sid)
            rows_by_subject[sid].append((line_no, t, int(result_token), row[3:]))

    baseline: dict[str, tuple[float, ...]] = {}
    baseline_names: tuple[str, ...] = ()
    if baseline_csv is not None:
        if cov_names:
            raise PanelFormatError(
                "panel file carries covariate columns; a separate baseline "
                "covariate file is not allowed in addition"
            )
        with open(baseline_csv, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                bheader = next(reader)
            except StopIteration:
                raise PanelFormatError("empty baseline covariate file") from None
            bheader = [h.strip() for h in bheader]
            if not bheader or bheader[0] != "subject_id":
                raise PanelFormatError("baseline header must start with subject_id")
            baseline_names = tuple(bheader[1:])
            for line_no, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != len(bheader):
                    raise PanelFormatError(
                        f"baseline line {line_no}: expected {len(bheader)} fields, got {len(row)}"
                    )
                baseline[row[0].strip()] = tuple(
                    _parse_float(c.strip(), line_no, name)
                    for c, name in zip(row[1:], baseline_names)
                )

    n_imputed = 0
    subjects: list[SubjectPanel] = []
    for sid in subject_order:
        recs = sorted(rows_by_subject[sid], key=lambda r: r[1])
        times = tuple(r[1] for r in recs)
        results = tuple(r[2] for r in recs)
        covariates = None
        path = None
        if baseline_csv is not None:
            if sid not in baseline:
                raise PanelFormatError(f"subject {sid}: missing baseline covariate row")
            covariates = baseline[sid]
        elif cov_names:
            last: list[float] | None = None
            path_entries = []
            for line_no, t, _r, cells in recs:
                values: list[float] = []
                for cell, name in zip(cells, cov_names):
                    cell = cell.strip()
                    if cell == "":
                        if last is None:
                            raise PanelFormatError(
                                f"line {line_no}: covariate {name!r} missing at "
                                f"subject {sid}'s first visit with no prior value"
                            )
                        values.append(last[len(values)])
                        n_imputed += 1
                    else:
                        values.append(_parse_float(cell, line_no, name))
                last = values
                path_entries.append((t, tuple(values)))
            vectors = {vec for _, vec in path_entries}
            if len(vectors) == 1:
                covariates = path_entries[0][1]
            else:
                path = tuple(path_entries)
        subjects.append(
            SubjectPanel(
                subject_id=sid,
                times=times,
                results=results,
                covariates=covariates,
                covariate_path=path,
            )
        )

    n_collisions = 0
    if rounding is not None:
        before = sum(s.n_visits for s in subjects)
        subjects = [apply_rounding(s, rounding) for s in subjects]
        n_collisions = before - sum(s.n_visits for s in subjects)

    names = baseline_names if baseline_csv is not None else tuple(cov_names)
    dataset = build_dataset(subjects, covariate_names=names, schedule=schedule)
    violations = validate(dataset)
    if violations:
        raise PanelValidationError(violations)
    return LoadedPanel(dataset=dataset, n_imputed=n_imputed, n_collisions_merged=n_collisions)
