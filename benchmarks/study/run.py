"""Run the study benchmark and print every metric by name and unit.

From the repository root::

    python3 benchmarks/study/run.py --workload paper --seed 7 --seconds 20 --trace 0
    PYTHONPATH=src python -m benchmarks.study [--seed N] [--workloads W ...]
        [--seconds S] [--repeat R] [--trace 0|1|DIR] [--check] [--record] [--smoke]

Per workload: set-up runs ``SETUP_REPEATS`` times (``setup_s`` is the
median), once before and the rest spread between the timed operations,
which run one per fresh process, untraced, until they have taken
``--seconds`` and at least ``--repeat`` ran. Every operation's outputs
are verified: each must agree with the first (with the set-up pass for
``warm``), and at seed 7 with the reference digests in
``reference.json``; a mismatch counts as a failed operation.

``--trace`` adds one traced operation per workload, writes
``<DIR>/<workload>.trace.jsonl`` (``--trace 1`` picks a directory under
``.bench_work``) and reports the per-layer metrics computed from that
file. ``--check`` gates the run's medians against ``baseline.json`` with
the bounds declared in ``BENCHMARK.json``; ``--record`` rewrites that
baseline (and, at seed 7, the reference digests).

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics, or with tracing
the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make the package importable
    _ROOT = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

from benchmarks.study import harness  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
BASELINE_FILE = HERE / "baseline.json"
WORKLOADS = ("paper", "scale", "warm", "follow")
SETUP_REPEATS = 3
#: Per child process; the whole run must end within 180 s.
CHILD_TIMEOUT_S = 150.0
#: Digests are pinned for this seed only; other seeds are verified by
#: agreement between runs.
REFERENCE_SEED = 7
SAMPLE_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "disk_mb": "MB"}


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def _mismatches(digests: dict, expected: dict, reference: dict) -> int:
    return len(
        set(harness.digest_mismatches(digests, expected))
        | set(harness.digest_mismatches(digests, reference))
    )


def measure(workload: str, args, trace_dir) -> dict:
    """Set up, time and verify one workload; returns its record."""
    base = harness.WORK_DIR / f"{workload}-{args.seed}-{os.getpid()}"
    spec = {"workload": workload, "seed": args.seed, "scale": args.scale}
    setups: list = []

    def set_up() -> None:
        workdir = base / f"setup-{len(setups)}"
        setups.append(harness.run_child(dict(spec, kind="setup"), workdir, CHILD_TIMEOUT_S))
        if len(setups) > 1:
            shutil.rmtree(workdir, ignore_errors=True)
        # Flush set-up writes now, not as write-back during timed runs.
        os.sync()

    try:
        set_up()
        op_spec = dict(spec, kind="op")
        if workload == "warm":
            op_spec["cache_dir"] = str(base / "setup-0" / "cache")
        ops = []
        measured = 0.0
        while len(ops) < args.repeat or measured < args.seconds:
            # The other set-ups are spread over the measuring window, so
            # one slow spell of the host cannot hit all of them.
            if len(setups) < SETUP_REPEATS and measured >= (
                len(setups) * args.seconds / SETUP_REPEATS
            ):
                set_up()
                continue
            workdir = base / f"op-{len(ops)}"
            start = time.perf_counter()
            ops.append(harness.run_child(op_spec, workdir, CHILD_TIMEOUT_S))
            measured += time.perf_counter() - start
            shutil.rmtree(workdir, ignore_errors=True)
        while len(setups) < SETUP_REPEATS:
            set_up()
        traced = None
        if trace_dir is not None:
            trace_path = trace_dir / f"{workload}.trace.jsonl"
            traced = harness.run_child(
                dict(op_spec, trace=True, trace_path=str(trace_path)),
                base / "traced",
                CHILD_TIMEOUT_S,
            )
    finally:
        shutil.rmtree(base, ignore_errors=True)

    expected = (setups[0] if workload == "warm" else ops[0])["digests"]
    reference = {}
    if args.seed == REFERENCE_SEED:
        reference = _load_json(REFERENCE_FILE).get(args.scale, {}).get(workload, {})
    checked = ops + ([traced] if traced is not None else [])
    attempted = sum(op["attempted"] for op in checked)
    failed = sum(
        op["failed"] + _mismatches(op["digests"], expected, reference)
        for op in checked
    )
    for op in checked:
        for error in op["errors"]:
            print(error, file=sys.stderr)
    record = {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "digests": expected,
        "samples": {
            "setup_s": [s["process_s"] for s in setups],
            "wall_s": [op["wall_s"] for op in ops],
            "peak_rss_mb": [op["peak_rss_mb"] for op in ops],
            "disk_mb": [op["disk_mb"] for op in ops],
        },
        "stages": {
            name: [op["stages"].get(name, 0.0) for op in ops] for name in ops[0]["stages"]
        },
        "stage_rss_mb": {
            name: [op["stage_rss_mb"].get(name, 0.0) for op in ops]
            for name in ops[0]["stage_rss_mb"]
        },
        "attrs": {
            name: [op["attrs"][name] for op in ops if op["attrs"].get(name) is not None]
            for name in ops[0]["attrs"]
        },
    }
    if traced is not None:
        with open(trace_path, "a", encoding="utf-8") as handle:
            untraced = statistics.median(record["samples"]["wall_s"])
            handle.write(json.dumps({"kind": "untraced", "wall_s": untraced}) + "\n")
        # Imported here: untraced runs never load the program in this process.
        from benchmarks.study.ledger import layer_table

        record["layers"] = layer_table(trace_path)
        record["trace_path"] = str(trace_path)
    return record


def end_to_end(record: dict) -> dict:
    """Median of each end-to-end metric's samples."""
    return {
        name: statistics.median(values)
        for name, values in record["samples"].items()
    }


def report(record: dict, declared: dict, traced: bool) -> dict:
    """Print one workload's table; returns its JSON result object."""
    workload = record["workload"]
    print(f"== {workload}: {record['attempted']} ops attempted, {record['failed']} failed "
          f"(fail_frac {record['failed'] / max(1, record['attempted']):.4f})")
    for name, values in record["samples"].items():
        summary = harness.summarize(values)
        unit = SAMPLE_UNITS[name]
        print(f"  {name:<28} {summary['median']:12.4f} {unit:<9} "
              f"q1 {summary['q1']:.4f}  q3 {summary['q3']:.4f}  min {summary['min']:.4f}  n={summary['n']}")
    for name, values in sorted(record["attrs"].items()):
        if values and isinstance(values[0], (int, float)):
            print(f"  {name:<28} {statistics.median(values):12.4f}")
    for name, values in record["stages"].items():
        rss = statistics.median(record["stage_rss_mb"][name])
        print(f"  stage {name:<34} {statistics.median(values):8.4f} s   "
              f"peak RSS after {rss:7.1f} MB")
    if traced:
        layers = record["layers"]
        units = {spec["name"]: spec["unit"] for spec in declared["per_layer"]}
        print(f"  per-layer (from {record['trace_path']}):")
        for name, value in sorted(layers.items()):
            print(f"    {name:<40} {value:14.6f} {units.get(name, '')}")
        metrics_out = {
            spec["name"]: {"value": layers[spec["name"]], "unit": spec["unit"]}
            for spec in declared["per_layer"]
        }
    else:
        values = end_to_end(record)
        metrics_out = {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in declared["end_to_end"]
        }
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics_out,
    }


def _parse(argv):
    declared = harness.load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", "--workloads", dest="workloads", nargs="+",
                        action="extend", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"],
                        help="measure each workload for this long (default %(default)s)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="minimum timed operations per workload")
    parser.add_argument("--trace", default="0",
                        help="0 = off, 1 = trace into .bench_work/traces, or a directory")
    parser.add_argument("--check", action="store_true",
                        help="fail on a regression against baseline.json")
    parser.add_argument("--record", action="store_true",
                        help="write this run as baseline.json (and reference digests at seed 7)")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    args.workloads = args.workloads or list(WORKLOADS)
    args.scale = "smoke" if args.smoke else "full"
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    return args, declared


def main(argv=None) -> int:
    if not (harness.ROOT / "src" / "repro").is_dir():
        print(f"error: the program is missing: no src/repro under {harness.ROOT}",
              file=sys.stderr)
        return 2
    args, declared = _parse(argv)
    trace_dir = None
    if args.trace not in ("0", ""):
        trace_dir = harness.WORK_DIR / "traces" if args.trace == "1" else Path(args.trace)
        trace_dir.mkdir(parents=True, exist_ok=True)
    stamp = harness.machine_stamp()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in stamp.items())
          + f"; seed={args.seed} scale={args.scale} seconds={args.seconds:g}")
    records = []
    try:
        for workload in args.workloads:
            record = measure(workload, args, trace_dir)
            records.append(record)
            result = report(record, declared, trace_dir is not None)
            print(json.dumps(result, sort_keys=True), flush=True)
    except harness.ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    medians = {record["workload"]: end_to_end(record) for record in records}
    if args.record:
        baseline = _load_json(BASELINE_FILE)
        entry = baseline.setdefault(args.scale, {"workloads": {}})
        entry.update(stamp=stamp, seed=args.seed)
        entry["workloads"].update(medians)
        BASELINE_FILE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
        if args.seed == REFERENCE_SEED:
            reference = _load_json(REFERENCE_FILE)
            for record in records:
                reference.setdefault(args.scale, {})[record["workload"]] = record["digests"]
            REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"recorded {BASELINE_FILE.name}", file=sys.stderr)
    if args.check:
        baseline = _load_json(BASELINE_FILE).get(args.scale, {}).get("workloads", {})
        failures = harness.regressions(medians, baseline, declared["end_to_end"])
        for line in failures:
            print(f"REGRESSION {line}", file=sys.stderr)
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
