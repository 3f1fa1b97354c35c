"""A fixed reference computation that measures how fast the machine is.

The benchmark runs on shared machines whose speed drifts by up to a
factor of two within minutes while the process keeps its processor:
other tenants slow it down through shared cores and caches, which CPU
time does not exclude.  The benchmark runs this computation between
operations and scales every time it reports by how long the computation
took, so the figures read as if the machine ran at a fixed speed.

The computation mixes the two kinds of work the program does: a
per-row Python loop like the panel reader's, and numpy passes over a
(5000, 9) array like the likelihood kernel's.  It is part of the
benchmark, not of the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import numpy as np

from spans import cpu_s

# CPU seconds the computation took on the machine the baseline figures in
# README.md were measured on; a reported time is CPU time * NOMINAL_S / the
# computation's CPU time during the same run.
NOMINAL_S = 0.1

_LINES = [f"s{i // 3},{i % 8 + 1},{int(i % 11 == 0)},{(i % 2) * 1.0!r}" for i in range(90000)]
_ROWS = np.random.default_rng(0).random((5000, 8))


def _python_rows() -> float:
    # every object it makes is freed within the iteration, so the Python
    # allocator reuses its memory and the loop takes no page faults, whose
    # cost varies with the host
    positives = [0] * 8
    acc = 0.0
    for line in _LINES:
        _sid, t, r, z = line.split(",")
        k = int(t) - 1
        positives[k] += int(r)
        acc += float(z) * k
    return acc + sum(positives)


def _numpy_passes() -> float:
    acc = 0.0
    for _ in range(50):
        cum = np.cumsum(_ROWS * 0.01, axis=1)
        ss = np.exp(-np.concatenate((np.zeros((_ROWS.shape[0], 1)), cum), axis=1))
        acc += float(np.log((ss[:, :-1] - ss[:, 1:]).sum(axis=1) + 1.0).sum())
    return acc


def reference_s() -> float:
    """CPU seconds of one run of the reference computation."""
    start = cpu_s()
    _python_rows()
    _numpy_passes()
    return cpu_s() - start
