"""Coverage gate: the gated subsystems must stay statement-covered.

Three gates, one contract each:

* ``repro.graph`` -- the whole package, >= 90% (the ISSUE-9 gate: new
  subsystems can't land untested);
* scale-out -- the spilling capture store, the segment format it
  spills to and the bounded-LRU primitive (``repro.crawler.spill``,
  ``repro.crawler.storage``, ``repro.web.lru``), >= 90% (the
  memory-bounding layer is load-bearing for bit-identity, and every
  corrupt-file branch of the format must stay exercised);
* the toplist crawl (``repro.crawler.toplist_crawl``), >= 90%: Table 1
  comes from its compact rows and the customization audit from the
  captures it renders, so both paths stay pinned by its oracle tests.

Two measurement paths:

* with ``pytest-cov`` installed (CI, the dev extra), the whole test
  suite runs under ``--cov`` and this gate enforces the repo-wide
  baseline (:data:`REPO_FLOOR`) on top of the per-gate floors;
* without it (the hermetic toolchain image), a stdlib ``sys.settrace``
  tracer measures the gated files alone while their test modules run
  in-process -- no third-party dependency, same per-gate floors.

Executable statements come from the AST (docstrings and ``__future__``
imports excluded -- neither emits a trace event); a statement counts as
covered when any line in its span fired. Exit code 1 on a floor miss,
with a per-file table either way.

Usage: ``python scripts/coverage_gate.py`` (or ``make coverage``).
"""

from __future__ import annotations

import ast
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

#: Repo-wide baseline, enforced only on the pytest-cov path (the
#: stdlib tracer only instruments the gated files). Recorded from the
#: suite at the time the gate landed; raise it as coverage grows, never
#: lower it.
REPO_FLOOR = 80.0


@dataclass(frozen=True)
class Gate:
    """One gated file set with its own statement-coverage floor."""

    name: str
    files: Tuple[Path, ...]
    floor: float
    #: Test modules that exercise the files (the stdlib path runs the
    #: union of these; the pytest-cov path runs the whole suite).
    tests: Tuple[str, ...]


GATES: Tuple[Gate, ...] = (
    Gate(
        name="repro.graph (package)",
        files=tuple(sorted((SRC_ROOT / "repro" / "graph").glob("*.py"))),
        floor=90.0,
        tests=(
            "tests/test_graph_model.py",
            "tests/test_graph_parity.py",
            "tests/test_graph_properties.py",
            "tests/test_country_toplists.py",
        ),
    ),
    Gate(
        name="scale-out (spill + storage + lru)",
        files=(
            SRC_ROOT / "repro" / "crawler" / "spill.py",
            SRC_ROOT / "repro" / "crawler" / "storage.py",
            SRC_ROOT / "repro" / "web" / "lru.py",
        ),
        floor=90.0,
        tests=(
            "tests/test_scale.py",
            "tests/test_cache.py",
            "tests/test_worldgen.py",
            "tests/test_segments.py",
            "tests/test_storage_cli.py",
            "tests/test_chaos_invariants.py",
        ),
    ),
    Gate(
        name="repro.crawler.toplist_crawl",
        files=(SRC_ROOT / "repro" / "crawler" / "toplist_crawl.py",),
        floor=90.0,
        tests=(
            "tests/test_toplist_crawl.py",
            "tests/test_chaos_invariants.py",
            "tests/test_cache.py",
        ),
    ),
)


def executable_statements(path: Path) -> List[Tuple[int, int]]:
    """``(lineno, end_lineno)`` spans of the file's traceable statements."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                docstrings.add(id(body[0]))
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if id(node) in docstrings:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        spans.append((node.lineno, node.end_lineno or node.lineno))
    return sorted(spans)


def install_tracer(files: Set[str]) -> Dict[str, Set[int]]:
    """Trace line events for *files* only; returns the live hit map."""
    hits: Dict[str, Set[int]] = {path: set() for path in sorted(files)}
    resolved: Dict[str, str] = {}

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        target = resolved.get(filename)
        if target is None:
            absolute = os.path.abspath(filename)
            target = resolved[filename] = (
                absolute if absolute in hits else ""
            )
        if not target:
            return None
        lines = hits[target]

        def local_trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local_trace

        return local_trace

    sys.settrace(global_trace)
    return hits


def measure_with_stdlib_tracer() -> Dict[str, Tuple[int, int]]:
    """Per-file ``(covered, total)`` statement counts for all gates."""
    import pytest

    files = {str(path) for gate in GATES for path in gate.files}
    tests: List[str] = []
    for gate in GATES:
        for test in gate.tests:
            if test not in tests:
                tests.append(test)
    # The tracer must be live before pytest imports the packages during
    # collection, or module-level statements would never fire.
    for name in sorted(sys.modules):
        if name == "repro" or name.startswith("repro."):
            del sys.modules[name]
    hits = install_tracer(files)
    try:
        rc = pytest.main(["-q", "-p", "no:cacheprovider", *tests])
    finally:
        sys.settrace(None)
    if rc != 0:
        print(f"coverage gate: gated test run failed (pytest exit {rc})")
        raise SystemExit(1)

    results: Dict[str, Tuple[int, int]] = {}
    for path in sorted(files):
        spans = executable_statements(Path(path))
        fired = hits[path]
        covered = sum(
            1
            for start, end in spans
            if any(line in fired for line in range(start, end + 1))
        )
        results[os.path.relpath(path, REPO_ROOT)] = (covered, len(spans))
    return results


def measure_with_pytest_cov() -> Dict[str, Tuple[int, int]]:
    """Whole-suite run under pytest-cov; also enforces the repo floor."""
    import subprocess

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT)
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "--cov=repro",
            "--cov-report=json:coverage.json",
            f"--cov-fail-under={REPO_FLOOR}",
        ],
        cwd=REPO_ROOT,
        env=env,
    )
    if completed.returncode != 0:
        print(
            f"coverage gate: suite failed or repo-wide coverage dropped "
            f"below {REPO_FLOOR:.0f}%"
        )
        raise SystemExit(1)
    import json

    report = json.loads((REPO_ROOT / "coverage.json").read_text())
    gated = {
        str(path) for gate in GATES for path in gate.files
    }
    results: Dict[str, Tuple[int, int]] = {}
    for filename, data in sorted(report["files"].items()):
        absolute = os.path.abspath(os.path.join(REPO_ROOT, filename))
        if absolute not in gated:
            continue
        summary = data["summary"]
        results[filename] = (
            summary["covered_lines"],
            summary["num_statements"],
        )
    return results


def main() -> int:
    try:
        import pytest_cov  # noqa: F401

        results = measure_with_pytest_cov()
        mode = "pytest-cov (repo floor enforced)"
    except ImportError:
        results = measure_with_stdlib_tracer()
        mode = "stdlib tracer (gated files only)"

    print(f"\ncoverage gate [{mode}]")
    failed = False
    for gate in GATES:
        covered_total = 0
        stmt_total = 0
        for path in gate.files:
            filename = os.path.relpath(path, REPO_ROOT)
            covered, total = results.get(filename, (0, 0))
            covered_total += covered
            stmt_total += total
            pct = 100.0 if total == 0 else 100.0 * covered / total
            print(f"  {filename:<44} {covered:>4}/{total:<4} {pct:6.1f}%")
        gate_pct = (
            100.0 if stmt_total == 0 else 100.0 * covered_total / stmt_total
        )
        print(
            f"  {gate.name:<44} {covered_total:>4}/{stmt_total:<4} "
            f"{gate_pct:6.1f}%  (floor {gate.floor:.0f}%)"
        )
        if gate_pct < gate.floor:
            failed = True
    if failed:
        print("coverage gate: FAIL")
        return 1
    print("coverage gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
