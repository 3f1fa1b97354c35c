"""Seeded inputs for the benchmark workloads.

The panels here come from the benchmark's own generator rather than from
``survreport.simulate``, so a change to the program's simulator cannot
change what the cohort and grid workloads measure.  Every function is a
pure function of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

# Published benchmark design: 8 annual visits, 30 % missing, a binary
# exposure with beta = 1, S_end = 0.9 and the report error model below.
PHI1, PHI0, ETA = 0.61, 0.995, 0.96
N_VISITS = 8
MISSING = 0.3
S_END = 0.9
BETA = 1.0
# time-varying cohort: a continuous covariate drifting at every visit
TV_BETA = 0.5


@dataclass(frozen=True)
class Subject:
    """One generated subject: 1-based visit indices, reports, covariate path.

    ``path`` holds the covariate value measured at times 0, 1, ..., 7;
    a time-fixed subject has a constant path.
    """

    sid: str
    visits: tuple[int, ...]
    results: tuple[int, ...]
    path: tuple[float, ...]


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream.encode()]))


def _reports(rng, occurred_by, n):
    """Adaptive-schedule reports: drop missed visits, stop at the first positive."""
    keep = rng.random((n, N_VISITS)) >= MISSING
    draw = rng.random((n, N_VISITS))
    positive = draw < np.where(occurred_by, PHI1, 1.0 - PHI0)
    out = []
    for i in range(n):
        visits, results = [], []
        for k in np.flatnonzero(keep[i]):
            r = int(positive[i, k])
            visits.append(int(k) + 1)
            results.append(r)
            if r:
                break
        out.append((tuple(visits), tuple(results)))
    return out


def _prevalent(rng, n):
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size=int(round(n * (1.0 - ETA))), replace=False)] = True
    return mask


def fixed_cohort(seed: int, n: int, stream: str = "cohort") -> list[Subject]:
    """Subjects with a binary exposure under the published design."""
    rng = _rng(seed, stream)
    rate = -math.log(S_END) / N_VISITS
    z = (rng.random(n) < 0.5).astype(float)
    event_time = -np.log(rng.random(n)) / (rate * np.exp(BETA * z))
    event_time[_prevalent(rng, n)] = -1.0
    occurred_by = event_time[:, None] <= np.arange(1, N_VISITS + 1)[None, :]
    subjects = []
    for i, (visits, results) in enumerate(_reports(rng, occurred_by, n)):
        if visits:
            subjects.append(Subject(f"s{i}", visits, results, (float(z[i]),) * N_VISITS))
    return subjects


def drifting_cohort(seed: int, n: int, stream: str = "drift") -> list[Subject]:
    """Subjects whose continuous covariate changes at every visit.

    The hazard on interval k (between visits k-1 and k) is proportional to
    exp(TV_BETA * x(k-1)), matching the time-varying model's convention of
    using the last measurement at or before the interval's left end.
    """
    rng = _rng(seed, stream)
    rate = -math.log(S_END) / N_VISITS
    level = rng.normal(0.0, 1.0, n)
    slope = rng.normal(0.0, 0.3, n)
    noise = rng.normal(0.0, 0.1, (n, N_VISITS))
    x = np.round(level[:, None] + slope[:, None] * np.arange(N_VISITS)[None, :] + noise, 6)
    cum_hazard = np.cumsum(rate * np.exp(TV_BETA * x), axis=1)
    occurred_by = cum_hazard >= -np.log(rng.random(n))[:, None]
    occurred_by[_prevalent(rng, n)] = True
    subjects = []
    for i, (visits, results) in enumerate(_reports(rng, occurred_by, n)):
        if visits:
            subjects.append(Subject(f"s{i}", visits, results, tuple(x[i].tolist())))
    return subjects


def write_panel_csv(subjects: list[Subject], path) -> None:
    """Long-format panel CSV with the time-fixed exposure as column ``z1``."""
    lines = ["subject_id,time,result,z1"]
    for s in subjects:
        z = repr(s.path[0])
        lines.extend(f"{s.sid},{v},{r},{z}" for v, r in zip(s.visits, s.results))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def to_dataset(subjects: list[Subject]):
    """In-memory time-varying Dataset built through the program's public API."""
    from survreport import panel

    panels = [
        panel.SubjectPanel(
            subject_id=s.sid,
            times=tuple(float(v) for v in s.visits),
            results=s.results,
            covariate_path=tuple((float(k), (x,)) for k, x in enumerate(s.path)),
        )
        for s in subjects
    ]
    return panel.build_dataset(panels, covariate_names=("x",), schedule=panel.ADAPTIVE)
