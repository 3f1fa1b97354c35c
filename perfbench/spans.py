"""Span recorder that times calls into survreport from outside the package.

The recorder replaces module attributes with timing wrappers, so it sees
exactly the calls that go through a module's public names.  Each wrapper
is installed where its caller looks the name up: ``estimate.validate``,
``simulate.build_dataset`` and ``cli.read_panel_csv`` were imported by
name and are patched separately from their home modules.  Spans are kept
in memory and written out when the run ends.  Spans read ``cpu_s``, the
clock the benchmark times untraced operations with.
"""

from __future__ import annotations

import functools
import json
import resource
import time

import numpy as np

ROOT = "bench.op"


def cpu_s() -> float:
    """CPU seconds of this process and of every child it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "attrs")

    def __init__(self, id, name, parent, op):
        self.id = id
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows_of_dataset(args, kwargs, result):
    return {"rows": args[0].n}


def _loglik_args(args, kwargs, result):
    arrays = [a for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)]
    return {"rows": int(np.shape(args[0])[0]), "bytes": sum(a.nbytes for a in arrays)}


def _fit_info(args, kwargs, result):
    return {"rows": args[0].n, "converged": bool(result.converged)}


def _loaded_rows(args, kwargs, result):
    return {"rows": result.dataset.n}


def _generated_rows(args, kwargs, result):
    return {"rows": result.n}


# (module, attribute, span name, what to record about the call)
WRAPPED = (
    ("cli", "main", "cli.main", None),
    ("panel", "read_panel_csv", "panel.read_panel_csv", _loaded_rows),
    ("cli", "read_panel_csv", "panel.read_panel_csv", _loaded_rows),
    ("panel", "validate", "panel.validate", _rows_of_dataset),
    ("estimate", "validate", "panel.validate", _rows_of_dataset),
    ("panel", "build_dataset", "panel.build_dataset", None),
    ("simulate", "build_dataset", "panel.build_dataset", None),
    ("likelihood", "build_c_matrix", "likelihood.build_c_matrix", _rows_of_dataset),
    ("likelihood", "loglik_and_gradient", "likelihood.loglik_and_gradient", _loglik_args),
    ("estimate", "fit", "estimate.fit", _fit_info),
    ("estimate", "interval_covariates", "estimate.interval_covariates", _rows_of_dataset),
    ("estimate", "survival_curve", "estimate.survival_curve", None),
    ("simulate", "generate_dataset", "simulate.generate_dataset", _generated_rows),
    ("simulate", "run_scenario", "simulate.run_scenario", None),
)


class Tracer:
    """Records nested spans for calls made while it is installed."""

    def __init__(self, modules: dict):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches = []
        self.op = -1
        for module_name, attr, name, info in WRAPPED:
            module = modules[module_name]
            original = getattr(module, attr)
            self._patches.append((module, attr, original, self._wrap(original, name, info)))

    def _wrap(self, fn, name, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span.attrs = info(args, kwargs, result)
            return result

        return wrapper

    def _open(self, name) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.op)
        self.spans.append(span)
        self._stack.append(span)
        span.start = cpu_s()
        return span

    def _close(self, span: Span) -> None:
        span.end = cpu_s()
        self._stack.pop()

    def run_op(self, op_index: int, fn):
        """Call ``fn`` under a root span with every wrapper installed."""
        self.op = op_index
        for module, attr, _original, wrapper in self._patches:
            setattr(module, attr, wrapper)
        root = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(root)
            for module, attr, original, _wrapper in reversed(self._patches):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
                         "start": s.start, "end": s.end, "attrs": s.attrs}
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by child spans."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out
