"""Smoke test of the benchmark at a tiny size.

Checks the result schema, that every metric declared in BENCHMARK.json is
reported with its declared unit, that span self times are non-negative and
never exceed the duration of the span that contains them, and that the
benchmark refuses to run without the program next to it.

Run it by name, ``python3 -m pytest -q perfbench/smoke.py``; the file name
keeps it out of the repository's default test collection, whose wall time
is tracked on its own.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Span, self_times  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _read_spans(path):
    spans = []
    for line in path.read_text().splitlines():
        d = json.loads(line)
        span = Span(d["id"], d["name"], d["parent"], d["op"])
        span.start, span.end, span.attrs = d["start"], d["end"], d["attrs"]
        spans.append(span)
    return spans


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_reports_every_metric(workload, tmp_path):
    doc = run.run_workload(workload, 1, 0.01, 1, scale=0.05, workdir=tmp_path)
    assert doc["correct"], doc["problems"]
    assert doc["attempted"] >= 1 and 0 <= doc["failed"] <= doc["attempted"]
    # the counts are those of one operation, whatever the number of operations
    assert len(doc["samples"]["op_s"]) + len(doc["samples"].get("traced_op_s", [])) >= 2
    assert doc["attempted"] == doc["fits_per_op"]
    assert run.report_lines(doc)

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line = run.result_line({**doc, "trace": trace})
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        json.dumps(line)
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
        assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    assert all(doc["end_to_end"][m["name"]] > 0 for m in BENCHMARK["end_to_end"])

    spans = _read_spans(tmp_path / "spans.jsonl")
    assert spans and all(s.parent is None or s.parent < s.id for s in spans)
    own = self_times(spans)
    assert all(t >= 0.0 for t in own)
    subtree = list(own)
    for s in reversed(spans):  # children come after their parents
        if s.parent is not None:
            subtree[s.parent] += subtree[s.id]
    assert all(subtree[s.id] <= s.duration + 1e-9 for s in spans)


def test_self_time_subtracts_children_once():
    parent, a, b = Span(0, "p", None, 0), Span(1, "a", 0, 0), Span(2, "b", 0, 0)
    parent.start, parent.end = 0.0, 10.0
    a.start, a.end = 1.0, 4.0
    b.start, b.end = 3.0, 6.0  # overlaps a: the covered time is 1..6
    assert self_times([parent, a, b]) == [5.0, 3.0, 3.0]


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(40))) == {"percentile": 75, "value": 29}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", "tv-cohort", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
