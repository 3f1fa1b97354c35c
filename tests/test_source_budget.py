"""The package's source stays under the line cap that ROADMAP.md sets.

A fresh import compiles every source line when bytecode is not written
(``PYTHONDONTWRITEBYTECODE``), so growth anywhere in ``src/`` lengthens
the benchmark's set-up; this test reports it before the benchmark does.
"""

from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "survreport"
CAP = 2028  # lines in src/survreport/*.py


def test_source_stays_under_the_line_cap():
    counts = {path.name: len(path.read_text(encoding="utf-8").splitlines()) for path in sorted(SOURCE.glob("*.py"))}
    total = sum(counts.values())
    print(f"src/survreport: {total} lines (cap {CAP}): {counts}")
    assert total <= CAP, f"src/survreport has {total} lines, over the cap of {CAP}: {counts}"
