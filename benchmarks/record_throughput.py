"""Record the throughput baseline to ``BENCH_throughput.json``.

Standalone companion to ``bench_throughput.py``: runs the hot-path
workloads once per configuration and writes a compact JSON record, so
the perf trajectory of the crawl substrate is tracked in-repo from PR
to PR. Run from the repository root:

    PYTHONPATH=src python benchmarks/record_throughput.py

Two guard rails keep the record honest:

* **Single-core runners.** Parallel speedup numbers measured with
  ``os.cpu_count() == 1`` are meaningless -- every worker time-slices
  one core, so "speedup" only measures fan-out overhead. On such a
  machine the script warns loudly, stamps ``single_core_warning`` into
  the record, and omits ``speedup_vs_serial`` from the parallel rows
  (pass ``--strict-multicore`` to refuse outright, for CI runners that
  are supposed to be multi-core).
* **Serial floor (``--check``).** Re-times the serial window best-of-N
  and fails if it regressed more than 20% against the committed
  baseline. ``make bench-throughput`` wires this as the non-matrix CI
  perf gate; it never writes the JSON.

The parallel rows exercise the sharded executor's process pool on the
same two-week social window as the serial row and verify the determinism contract
(identical observation sequences) while timing the fan-out. Each row
records the per-shard busy/payload breakdown plus the merge time, so a
regression is attributable to compute, pickling, or collection.
"""

import argparse
import datetime as dt
import json
import os
import platform as platform_mod
import sys
import time
from pathlib import Path

from repro.crawler.browser import crawl_url
from repro.crawler.capture import EU_UNIVERSITY
from repro.crawler.platform import NetographPlatform, PlatformConfig
from repro.crawler.seeds import SocialShareStream, StreamConfig
from repro.detect.engine import detect_cmp
from repro.net.url import URL
from repro.web.worldgen import World, WorldConfig

WINDOW = (dt.date(2020, 4, 1), dt.date(2020, 4, 15))
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"

#: ``--check`` fails when fresh serial throughput drops below this
#: fraction of the committed baseline (a >20% regression).
FLOOR_FRACTION = 0.8
#: Timing repetitions for the serial row (best-of -- shields the floor
#: guard from scheduler noise on shared runners).
SERIAL_REPS = 3


def _bench_world():
    return World(WorldConfig(seed=7, n_domains=20_000))


def _platform(world):
    return NetographPlatform(
        world,
        stream=SocialShareStream(world, StreamConfig(events_per_day=600)),
        config=PlatformConfig(),
    )


def time_crawl_and_detect(world, n_urls=300):
    urls = [
        URL.parse(f"https://www.{world.site(r).domain}/")
        for r in range(1, n_urls + 1)
    ]
    start = time.perf_counter()
    hits = 0
    for url in urls:
        capture = crawl_url(world, url, when=dt.datetime(2020, 5, 15, 12),
                            vantage=EU_UNIVERSITY)
        if detect_cmp(capture).cmp_key:
            hits += 1
    seconds = time.perf_counter() - start
    return {
        "urls": n_urls,
        "seconds": round(seconds, 4),
        "urls_per_second": round(n_urls / seconds, 1),
        "cmp_hits": hits,
    }


def time_platform_window(world, workers):
    platform = _platform(world)
    start = time.perf_counter()
    store = platform.run(*WINDOW, workers=workers)
    seconds = time.perf_counter() - start
    keys = list(store.iter_rows())
    row = {
        "workers": workers,
        "backend": "serial" if workers == 1 else "process",
        "seconds": round(seconds, 3),
        "crawls": store.n_captures,
        "crawls_per_second": round(store.n_captures / seconds, 1),
    }
    exec_stats = platform.stats.executor
    if exec_stats is not None:
        row["n_shards"] = exec_stats.n_shards
        row["busy_seconds"] = round(exec_stats.busy_seconds, 3)
        row["merge_seconds"] = round(exec_stats.merge_seconds, 4)
        row["payload_bytes"] = exec_stats.payload_bytes
        # Fan-out overhead not spent computing or merging: pool setup,
        # payload pickling, result collection.
        row["overhead_seconds"] = round(
            max(
                0.0,
                exec_stats.wall_seconds
                - exec_stats.busy_seconds / max(1, workers)
                - exec_stats.merge_seconds,
            ),
            3,
        )
        row["shards"] = [
            {
                "shard_id": s.shard_id,
                "tasks": s.tasks,
                "crawls": s.crawls,
                "busy_seconds": round(s.seconds, 4),
                "payload_bytes": s.payload_bytes,
            }
            for s in exec_stats.shards
        ]
    return row, keys


def time_serial_best(world, reps=SERIAL_REPS):
    """Best-of-*reps* serial window timing (noise-shielded)."""
    best_row, best_keys = None, None
    for _ in range(reps):
        row, keys = time_platform_window(world, 1)
        if best_row is None or row["seconds"] < best_row["seconds"]:
            best_row, best_keys = row, keys
    best_row["timing_reps"] = reps
    return best_row, best_keys


def check_floor(out_path=OUT_PATH, floor=FLOOR_FRACTION):
    """Fail (exit 1) if serial throughput regressed >20% vs *out_path*."""
    if not out_path.exists():
        print(f"no committed baseline at {out_path}; nothing to check")
        return 0
    committed = json.loads(out_path.read_text())
    committed_serial = next(
        (
            row
            for row in committed.get("parallel_crawl", [])
            if row.get("backend") == "serial"
        ),
        None,
    )
    if committed_serial is None:
        print(f"{out_path} has no serial row; nothing to check")
        return 0
    committed_rate = committed_serial["crawls_per_second"]

    world = _bench_world()
    _platform(world).run(*WINDOW)  # warm the lazy site cache
    row, _ = time_serial_best(world)
    fresh_rate = row["crawls_per_second"]
    ratio = fresh_rate / committed_rate
    verdict = "OK" if ratio >= floor else "FAIL"
    print(
        f"serial throughput floor: fresh {fresh_rate:.1f} crawls/s vs "
        f"committed {committed_rate:.1f} ({ratio:.2f}x, floor "
        f"{floor:.2f}x) -- {verdict}"
    )
    if ratio < floor:
        print(
            "serial crawl throughput regressed more than "
            f"{(1 - floor) * 100:.0f}% against BENCH_throughput.json; "
            "fix the regression or re-record the baseline with "
            "`PYTHONPATH=src python benchmarks/record_throughput.py`."
        )
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare fresh serial throughput against the committed "
        "baseline and fail on a >20%% regression (writes nothing)",
    )
    parser.add_argument(
        "--strict-multicore",
        action="store_true",
        help="refuse to record on a single-core machine instead of "
        "annotating the record with a warning",
    )
    args = parser.parse_args(argv)

    if args.check:
        return check_floor()

    cpu_count = os.cpu_count() or 1
    single_core = cpu_count <= 1
    if single_core:
        message = (
            "only one CPU core is available: parallel rows measure "
            "fan-out overhead, not speedup, and speedup_vs_serial is "
            "omitted; re-record on multi-core hardware for meaningful "
            "parallel numbers"
        )
        if args.strict_multicore:
            print(f"refusing to record baseline: {message}", file=sys.stderr)
            return 2
        print(f"WARNING: {message}", file=sys.stderr)

    world = _bench_world()
    crawl_detect = time_crawl_and_detect(world)

    # Warm the lazy site cache so every row times crawling, not world
    # generation (the serial row would otherwise pay it alone).
    _platform(world).run(*WINDOW)

    serial_row, baseline_keys = time_serial_best(world)
    serial_seconds = serial_row["seconds"]
    rows = [serial_row]
    print(f"  1xserial   {serial_row['seconds']:7.3f}s  "
          f"{serial_row['crawls_per_second']:8.1f} crawls/s")
    for workers in (2, 4):
        row, keys = time_platform_window(world, workers)
        assert keys == baseline_keys, (
            f"determinism violated: {workers}xprocess diverged"
        )
        if not single_core:
            row["speedup_vs_serial"] = round(
                serial_seconds / row["seconds"], 2
            )
        rows.append(row)
        print(f"  {workers}xprocess  {row['seconds']:7.3f}s  "
              f"{row['crawls_per_second']:8.1f} crawls/s")

    record = {
        "recorded_at": dt.datetime.now(dt.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform_mod.python_version(),
        "cpu_count": cpu_count,
        "window_days": (WINDOW[1] - WINDOW[0]).days,
        "crawl_and_detect": crawl_detect,
        "parallel_crawl": rows,
        "determinism_verified": True,
    }
    if single_core:
        record["single_core_warning"] = (
            "recorded with cpu_count == 1; parallel rows reflect "
            "fan-out overhead only and carry no speedup_vs_serial"
        )
    OUT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"baseline written to {OUT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
