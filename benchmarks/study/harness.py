"""Plumbing shared by every study-benchmark run.

* :func:`run_child` -- one measured operation in a fresh interpreter:
  its own process group, killed on timeout, always waited for. A fresh
  process per operation keeps every memo cache cold (the job users
  run) and makes ``ru_maxrss`` the peak of that operation alone;
* :func:`peak_rss_mb` / :func:`machine_stamp` -- memory readings and the
  ``cpu_count`` / python / machine annotation every record carries;
* :func:`summarize` / :func:`percentile_or_none` -- medians, quartiles
  and the percentile rule (a percentile is only reported when at least
  ten samples lie beyond it);
* :func:`digest_mismatches` -- output verification against a reference;
* :func:`regressions` -- the gate: a recorded baseline against the
  bounds declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
#: Where every run keeps its scratch files (ignored by git).
WORK_DIR = ROOT / ".bench_work"


class ChildError(RuntimeError):
    """A measured child process crashed, timed out or wrote no result."""


def load_benchmark() -> dict:
    """The benchmark declaration (workloads, metrics, bounds)."""
    return json.loads(BENCHMARK_FILE.read_text())


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def _child_env(tmpdir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # Spill segments and any other temporary files stay in the run's
    # own directory, so the benchmark writes nothing outside it.
    env["TMPDIR"] = str(tmpdir)
    # One string-hash layout for every run: per-process hash seeds add
    # dict/set layout noise to the timings and nothing else.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec: Mapping[str, object], workdir: Path, timeout: float) -> dict:
    """Run the operation *spec* names in a fresh interpreter.

    The child (``python -m benchmarks.study.workloads``) writes its
    measurements to ``workdir/result.json``; the returned dict is that
    result plus ``process_s``, the child's wall time as the parent saw
    it (interpreter start and imports included).
    """
    workdir.mkdir(parents=True, exist_ok=True)
    tmpdir = workdir / "tmp"
    tmpdir.mkdir(exist_ok=True)
    payload = json.dumps(dict(spec, workdir=str(workdir)))
    command = [sys.executable, "-m", "benchmarks.study.workloads", payload]
    label = f"{spec['kind']} of {spec['workload']}"
    start = time.perf_counter()
    proc = subprocess.Popen(
        command,
        cwd=ROOT,
        env=_child_env(tmpdir),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise ChildError(f"{label} timed out after {timeout:.0f}s") from None
    finally:
        # Pool workers the child failed to join die with their group.
        _kill_group(proc.pid)
    process_s = time.perf_counter() - start
    if proc.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-15:])
        raise ChildError(f"{label} exited with {proc.returncode}:\n{tail}")
    try:
        result = json.loads((workdir / "result.json").read_text())
    except (OSError, ValueError) as exc:
        raise ChildError(f"{label} wrote no readable result: {exc}") from exc
    result["process_s"] = process_s
    return result


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# ----------------------------------------------------------------------
# Readings
# ----------------------------------------------------------------------
def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """High-water RSS in MB of this process (or, with
    ``RUSAGE_CHILDREN``, of its largest waited-for child)."""
    peak = resource.getrusage(who).ru_maxrss
    # Kilobytes on Linux, bytes on macOS.
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def tree_mb(path: Path) -> float:
    """Bytes of every file under *path*, in MB."""
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total / (1024 * 1024)


def machine_stamp() -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles``, n=4), min and count."""
    if not values:
        raise ValueError("no samples")
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "n": len(values)}


def percentile_or_none(values: Sequence[float], q: float) -> Optional[float]:
    """The nearest-rank *q*-quantile, or ``None`` when fewer than ten
    samples lie beyond it (the tail is then too thin to report)."""
    rank = math.ceil(q * len(values))
    if rank < 1 or len(values) - rank < 10:
        return None
    return sorted(values)[rank - 1]


# ----------------------------------------------------------------------
# Verification and gating
# ----------------------------------------------------------------------
def digest_mismatches(
    digests: Mapping[str, str], expected: Optional[Mapping[str, str]]
) -> List[str]:
    """Names of the outputs whose digest differs from *expected*.

    Outputs a failed stage never produced are not counted again here:
    the stage failure already was.
    """
    if not expected:
        return []
    return sorted(
        name
        for name, value in expected.items()
        if name in digests and digests[name] != value
    )


def regressions(
    current: Mapping[str, Mapping[str, float]],
    baseline: Mapping[str, Mapping[str, float]],
    metrics: Iterable[Mapping[str, object]],
) -> List[str]:
    """One line per ``metric x workload`` worse than *baseline* by more
    than the metric's bound; metrics the baseline lacks are skipped."""
    specs = list(metrics)
    failures = []
    for workload, values in sorted(current.items()):
        for spec in specs:
            name = str(spec["name"])
            base = baseline.get(workload, {}).get(name)
            value = values.get(name)
            if base is None or value is None:
                continue
            bound = float(spec["bound"])  # type: ignore[arg-type]
            if spec["better"] == "lower":
                limit = base * (1 + bound)
                worse = value > limit
            else:
                limit = base * (1 - bound)
                worse = value < limit
            if worse:
                failures.append(
                    f"{name} x {workload}: {value:.6g} vs baseline "
                    f"{base:.6g} (limit {limit:.6g}, bound {bound:.0%})"
                )
    return failures
