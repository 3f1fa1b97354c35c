"""survreport benchmark: three seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cohort-fixed --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 0

A run generates its inputs from ``--seed``, times the program's set-up
five times, runs one untimed warm-up operation, then repeats the
workload's operation on the same inputs for ``--seconds`` and checks the
outputs outside the timed region.

Every time the benchmark reports is in reference seconds: CPU time of this
process and of the child processes it has waited for, scaled by the speed
of the machine during the run as measured by the fixed computation in
``reference.py``.  The machine is shared, and its speed drifts by more
than the bounds a benchmark can set.

With ``--trace 1`` the operations alternate between untraced and traced,
and the per-layer metrics come from the spans of the traced ones.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results,
estimates, run metadata and spans go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: on a two-processor machine a second BLAS thread competes
# with the first for the same processors and spins while it waits, which
# made fits slower and their CPU time half again as large.  Set before
# numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _keep_freed_memory() -> bool:
    """Make glibc's malloc reuse freed memory instead of returning it.

    A fit allocates and frees arrays of a few hundred kilobytes, which
    malloc would take fresh from the kernel each time, costing ~47,000
    page faults per 5,000-subject fit.  On a virtual machine a page fault's
    cost varies with the host, and made the time of identical fits vary by
    a quarter; with freed memory reused they vary by ~2 %.  Returns False
    where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return False
    trim_threshold, top_pad, mmap_threshold = -1, -2, -3
    return all(mallopt(option, value) == 1 for option, value in
               ((mmap_threshold, 1 << 30), (trim_threshold, 1 << 30), (top_pad, 64 << 20)))


KEEPS_FREED_MEMORY = _keep_freed_memory()

from reference import NOMINAL_S, reference_s  # noqa: E402  (after the BLAS setting)
from spans import cpu_s  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
# set-up is repeated and its median reported, so a single slow set-up
# (page cache, allocator) does not decide the figure
SETUP_REPEATS = 5

# The median seconds per operation is printed with its sample count and
# tail percentile, but the gated timing is throughput: it averages over the
# whole run, and its spread between runs was the smaller of the two on
# every workload.
END_TO_END = {
    "fits_per_ref_s": "1/ref-s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "panel.read_panel_csv.s": "s",
    "panel.validate.s": "s",
    "panel.build_dataset.s": "s",
    "likelihood.build_c_matrix.s": "s",
    "likelihood.build_c_matrix.calls": "count",
    "likelihood.loglik_and_gradient.s": "s",
    "likelihood.loglik_and_gradient.calls": "count",
    "likelihood.rows_per_eval": "rows",
    "likelihood.bytes_per_eval": "bytes-computed",
    "estimate.fit.s": "s",
    "estimate.fit.calls": "count",
    "estimate.fit.self_s": "s",
    "estimate.evals_per_fit": "count",
    "estimate.collapse_ratio": "ratio",
    "estimate.nonconverged": "count",
    "estimate.interval_covariates.s": "s",
    "estimate.survival_curve.s": "s",
    "simulate.generate_dataset.s": "s",
    "simulate.generate_dataset.calls": "count",
    "simulate.run_scenario.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_s": "s",
}


def _load_program():
    """Put the checkout's ``src`` and test oracles on the path and import them."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "survreport" / "__init__.py").is_file() or not (tests / "oracles.py").is_file():
        raise SystemExit(f"perfbench: {src}/survreport and {tests}/oracles.py are required")
    for entry in (str(tests), str(src), str(Path(__file__).resolve().parent)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    import numpy
    import scipy
    import workloads
    from survreport import cli, estimate, likelihood, panel, simulate

    modules = {"cli": cli, "estimate": estimate, "likelihood": likelihood,
               "panel": panel, "simulate": simulate}
    return workloads, modules, {"numpy": numpy.__version__, "scipy": scipy.__version__}


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def program_import_s() -> float:
    """CPU seconds to import survreport's own modules afresh.

    Every user of the program pays this once per process, so work moved
    to import time shows in ``setup_s``.  numpy and scipy stay imported,
    and the modules the benchmark already holds are put back afterwards.
    """
    def ours():
        return [k for k in sys.modules if k == "survreport" or k.startswith("survreport.")]

    held = {k: sys.modules.pop(k) for k in ours()}
    start = cpu_s()
    importlib.import_module("survreport.cli")
    elapsed = cpu_s() - start
    for k in ours():
        del sys.modules[k]
    sys.modules.update(held)
    return elapsed


def metadata(seed, versions) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "commit": _commit(),
        "seed": seed,
        "src_lines": src_lines,
        "keeps_freed_memory": KEEPS_FREED_MEMORY,
    }


def tail_percentile(samples):
    """Highest percentile with at least ten samples above it, or None."""
    ordered = sorted(samples)
    k = len(ordered) - 10
    if k < 1:
        return None
    return {"percentile": 100 * k // len(ordered), "value": ordered[k - 1]}


def _run_op(workload, tracer, index):
    if tracer is None:
        return workload.op()
    return tracer.run_op(index, workload.op)


def run_workload(name, seed, seconds, trace, *, scale=1.0, workdir=None):
    """One benchmark run; returns the result document (metrics, report, estimates)."""
    workloads, modules, versions = _load_program()
    from spans import Tracer

    workdir = Path(workdir or OUT_DIR / f"{name}-seed{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    meta = metadata(seed, versions)

    # setup_s is the program's set-up only: importing survreport afresh
    # plus the program calls that prepare the generated inputs
    workload = workloads.WORKLOADS[name](seed, scale, str(workdir))
    raw = workload.make_inputs()
    setup_times, setup_refs = [], []
    for _ in range(SETUP_REPEATS):
        setup_refs.append(reference_s())
        import_s = program_import_s()
        start = cpu_s()
        workload.load(raw)
        setup_times.append(import_s + cpu_s() - start)
    del raw
    # set-up runs before the timed loop, so it is scaled by the reference
    # runs made between its own repeats
    setup_times = [t * NOMINAL_S / statistics.median(setup_refs) for t in setup_times]

    try:
        fits_per_op = sum(r.attempted for r in workload.records(workload.op()))
    except Exception:  # the timed loop below records the failure
        fits_per_op = 1

    tracer = Tracer(modules) if trace else None
    durations = {False: [], True: []}
    wall = []
    per_op_records = []
    refs = []
    first_out = None
    broken = []
    began = time.perf_counter()
    index = 0
    while True:
        traced = bool(trace) and index % 2 == 1
        refs.append(reference_s())
        gc.collect()  # every operation starts from the same collector state
        start_wall, start = time.perf_counter(), cpu_s()
        try:
            out = _run_op(workload, tracer if traced else None, index)
            error = None
        except Exception as exc:  # an operation that raises is a counted failure
            out, error = None, f"{type(exc).__name__}: {exc}"
        durations[traced].append(cpu_s() - start)
        if not traced:
            wall.append(time.perf_counter() - start_wall)
        if error is None:
            records = workload.records(out)
            if first_out is None:
                first_out = out
        else:
            records = [workloads.Record("op", {"error": error}, attempted=fits_per_op,
                                        failed=fits_per_op, reason=error, broken=True)]
        per_op_records.append(records)
        index += 1
        elapsed = time.perf_counter() - began
        expected = elapsed / index
        # stop before an operation that would end past the deadline, once
        # each kind of operation (untraced, and traced with --trace 1) ran
        if elapsed + expected > seconds and all(durations[t] for t in {False, bool(trace)}):
            break
    # before the checks, which hold memory of their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check = workloads.Check()
    if first_out is not None:
        try:
            check = workload.check(first_out)
        except Exception as exc:  # a check that cannot run fails every record
            check.failures["*"] = f"check raised {type(exc).__name__}: {exc}"

    # attempted and failed count the fits of one operation: every operation
    # repeats the same inputs and must reproduce the first one's outputs, so
    # the counts depend on the seed alone, not on how many operations the
    # machine's speed let into the run
    reference = [(r.label, json.dumps(r.values, sort_keys=True)) for r in per_op_records[0]]
    for records in per_op_records:
        if [(r.label, json.dumps(r.values, sort_keys=True)) for r in records] != reference:
            broken.append("operations on identical inputs gave different outputs")
        broken.extend(f"{r.label}: {r.reason}" for r in records if r.broken)
    attempted = failed = 0
    reasons = {}
    for r in per_op_records[0]:
        attempted += r.attempted
        reason = check.failures.get(r.label) or check.failures.get("*")
        n_failed = r.attempted if reason else r.failed
        failed += n_failed
        if n_failed:
            reasons[r.label] = reason or r.reason
    broken.extend(f"{label}: {reason}" for label, reason in check.failures.items())

    # the machine's speed during the run, measured before every operation;
    # the reference runs and the operations alternate, so their sums cover
    # the same stretches of the run
    meta["reference_s"] = statistics.median(refs)
    meta["reference_range_s"] = [min(refs), max(refs)]
    scale = NOMINAL_S * len(refs) / sum(refs)
    cpu_samples = durations[False]
    durations = {k: [d * scale for d in v] for k, v in durations.items()}
    untraced = durations[False]
    metrics = {
        "fits_per_ref_s": fits_per_op * len(untraced) / sum(untraced),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    doc = {
        "workload": name,
        "trace": int(bool(trace)),
        "meta": meta,
        "correct": not broken,
        "problems": sorted(set(broken)),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failure_reasons": reasons,
        "end_to_end": metrics,
        "samples": {"op_s": untraced, "op_cpu_s": cpu_samples, "op_wall_s": wall, "setup_s": setup_times},
        "op_median_s": statistics.median(untraced),
        "op_tail": tail_percentile(untraced),
        "op_wall_median_s": statistics.median(wall),
        "fits_per_wall_s": fits_per_op * len(wall) / sum(wall),
        "fits_per_op": fits_per_op,
        "op_metric": workload.op_metric,
        "per_op": workload.per_op,
        "estimates": workload.estimates(first_out) if first_out is not None else [],
        "check": check.detail,
    }
    if trace:
        doc["per_layer"] = layer_metrics(tracer, untraced, durations[True], scale)
        doc["samples"]["traced_op_s"] = durations[True]
        tracer.write(workdir / "spans.jsonl")
    return doc


def layer_metrics(tracer, untraced, traced, scale) -> dict:
    """Per-layer metrics per traced operation, from the recorded spans.

    Span times are CPU seconds; ``scale`` turns them into reference seconds
    like the operation times ``untraced`` and ``traced``.
    """
    from spans import ROOT as ROOT_SPAN, self_times

    spans = tracer.spans
    selfs = self_times(spans)
    n_ops = len(traced)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, own in zip(spans, selfs):
        total[span.name] = total.get(span.name, 0.0) + span.duration * scale
        self_total[span.name] = self_total.get(span.name, 0.0) + own * scale
        calls[span.name] = calls.get(span.name, 0) + 1

    by_id = {s.id: s for s in spans}
    evals = [s for s in spans if s.name == "likelihood.loglik_and_gradient"]
    fits = [s for s in spans if s.name == "estimate.fit" and s.attrs is not None]
    eval_rows_in_fit: dict[int, list[int]] = {}
    for s in evals:
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != "estimate.fit":
            parent = by_id.get(parent.parent)
        if parent is not None:
            eval_rows_in_fit.setdefault(parent.id, []).append(s.attrs["rows"])
    ratios = [
        statistics.fmean(eval_rows_in_fit[f.id]) / f.attrs["rows"] for f in fits if f.id in eval_rows_in_fit
    ]

    def per_op(table, name):
        return table.get(name, 0) / n_ops

    m = {}
    for key in PER_LAYER:
        layer, _, kind = key.rpartition(".")
        if kind == "s":
            m[key] = per_op(total, layer)
        elif kind == "self_s":
            m[key] = per_op(self_total, layer)
        elif kind == "calls":
            m[key] = per_op(calls, layer)
    n_evals = len(evals)
    m["likelihood.rows_per_eval"] = sum(s.attrs["rows"] for s in evals) / n_evals if n_evals else 0.0
    m["likelihood.bytes_per_eval"] = sum(s.attrs["bytes"] for s in evals) / n_evals if n_evals else 0.0
    m["estimate.evals_per_fit"] = n_evals / len(fits) if fits else 0.0
    m["estimate.collapse_ratio"] = statistics.fmean(ratios) if ratios else 0.0
    m["estimate.nonconverged"] = sum(not f.attrs["converged"] for f in fits) / n_ops
    # operations alternate untraced, traced: comparing each traced one with
    # the untraced one just before it cancels the machine's slow drift
    m["trace.overhead_frac"] = statistics.median(t / u for u, t in zip(untraced, traced)) - 1.0
    m["trace.unattributed_s"] = per_op(self_total, ROOT_SPAN)
    layer_self = sum(v for k, v in self_total.items() if k != ROOT_SPAN) / n_ops
    return {
        "metrics": {k: m[k] for k in PER_LAYER},
        "layer_self_sum_s": layer_self,
        "untraced_op_median_s": statistics.median(untraced),
        "traced_ops": n_ops,
        "spans": len(spans),
    }


def report_lines(doc) -> list[str]:
    """Human-readable summary: every metric by name with its unit."""
    name = doc["workload"]
    e2e = doc["end_to_end"]
    n = len(doc["samples"]["op_s"])
    tail = doc["op_tail"]
    tail_text = (f"p{tail['percentile']} {tail['value']:.6g} ref-s" if tail
                 else "no percentile has 10 samples beyond it")
    lines = [
        "meta " + json.dumps(doc["meta"]),
        f"{name} op_s ({doc['op_metric']}): median {doc['op_median_s']:.6g} ref-s over n={n} ops; {tail_text}",
        f"{name} fits_per_ref_s ({doc['per_op']} per ref-s): {e2e['fits_per_ref_s']:.6g} 1/ref-s "
        f"({doc['fits_per_op']} per op)",
        f"{name} wall time (not gated): op median {doc['op_wall_median_s']:.6g} s; "
        f"{doc['fits_per_wall_s']:.6g} {doc['per_op']} per s",
        f"{name} setup_s: median {e2e['setup_s']:.6g} ref-s over n={len(doc['samples']['setup_s'])} set-ups",
        f"{name} peak_rss_mb: {e2e['peak_rss_mb']:.6g} MB",
        f"{name} fail_frac: {doc['fail_frac']:.6g} ({doc['failed']} of {doc['attempted']})"
        + (f" {doc['failure_reasons']}" if doc["failure_reasons"] else ""),
    ]
    if "per_layer" in doc:
        layers = doc["per_layer"]
        for key, value in layers["metrics"].items():
            lines.append(f"{name} {key}: {value:.6g} {PER_LAYER[key]} (per traced op)")
        lines.append(
            f"{name} trace accounting: layer self times sum to {layers['layer_self_sum_s']:.6g} s per op; "
            f"untraced op median {layers['untraced_op_median_s']:.6g} s; "
            f"overhead_frac {layers['metrics']['trace.overhead_frac']:.4g}"
        )
    if doc["problems"]:
        lines.append(f"{name} INCORRECT: " + "; ".join(doc["problems"][:5]))
    return lines


def result_line(doc) -> dict:
    if doc["trace"]:
        values, units = doc["per_layer"]["metrics"], PER_LAYER
    else:
        values, units = doc["end_to_end"], END_TO_END
    return {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def run_all(args, names) -> int:
    """Run every workload in its own process and print one table of metrics."""
    results = {}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        cells = ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"{name}: correct={res['correct']} failed={res['failed']}/{res['attempted']}: {cells}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = ("cohort-fixed", "tv-cohort", "sim-table")
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)} or all")
    doc = run_workload(args.workload, args.seed, args.seconds, args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print("\n".join(report_lines(doc)))
    print(json.dumps(result_line(doc)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
