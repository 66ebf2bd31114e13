"""Record retry-path overhead to ``BENCH_faults.json``.

The chaos invariant says a fault-free run with ``repro.faults`` wired in
is *bit-identical* to one without it; this benchmark pins down what the
wiring *costs*. It times the same two-week social window three ways --
no schedule (``faults=None``, today's fast path), an empty schedule
(every crawl goes through ``run_with_retries`` and a ``fault_for``
lookup that injects nothing), and a transient schedule whose faults are
all recovered -- and records the relative overhead. Also asserts the
bit-identical contract across all three modes. Run from the repository
root:

    PYTHONPATH=src python benchmarks/record_faults.py

The acceptance budget is a small single-digit-percent overhead for the
empty-schedule mode; single runs on a noisy machine jitter either way,
so the best-of-N of interleaved repetitions is recorded.
"""

import datetime as dt
import json
import os
import platform as platform_mod
import sys
import time
from pathlib import Path

from repro.crawler.platform import NetographPlatform, PlatformConfig
from repro.crawler.seeds import SocialShareStream, StreamConfig
from repro.faults import FaultSchedule, FaultSpec, RetryPolicy
from repro.web.worldgen import World, WorldConfig

WINDOW = (dt.date(2020, 4, 1), dt.date(2020, 4, 15))
REPEATS = 9
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_faults.json"

RETRY = RetryPolicy(max_retries=5, base_delay=0.01, max_delay=0.1, jitter=0.0)

MODES = {
    "no_schedule": {"faults": None, "retry": None},
    "empty_schedule": {"faults": FaultSchedule(seed=99), "retry": RETRY},
    "transient_recovered": {
        "faults": FaultSchedule(
            seed=13,
            specs=(
                FaultSpec("dns-error", rate=0.1, attempts=1),
                FaultSpec("connection-reset", rate=0.1, attempts=2),
            ),
        ),
        "retry": RETRY,
    },
}


def run_window(world, faults, retry):
    platform = NetographPlatform(
        world,
        stream=SocialShareStream(world, StreamConfig(events_per_day=600)),
        config=PlatformConfig(faults=faults, retry=retry),
    )
    start = time.perf_counter()
    store = platform.run(*WINDOW)
    seconds = time.perf_counter() - start
    keys = list(store.iter_rows())
    return seconds, keys, platform.stats.faults


def main():
    world = World(WorldConfig(seed=7, n_domains=20_000))
    # Warm the lazy site cache so no mode pays world generation.
    run_window(world, None, None)

    timings = {name: [] for name in MODES}
    tallies = {}
    baseline_keys = None
    order = list(MODES)
    for rep in range(REPEATS):
        # Rotate the mode order so per-rep machine drift (CPU contention,
        # cache state) does not bias one mode systematically.
        for name in order[rep % len(order):] + order[:rep % len(order)]:
            mode = MODES[name]
            seconds, keys, tally = run_window(
                world, mode["faults"], mode["retry"]
            )
            timings[name].append(seconds)
            tallies[name] = tally
            if baseline_keys is None:
                baseline_keys = keys
            else:
                assert keys == baseline_keys, (
                    f"bit-identical contract violated in mode {name!r}"
                )

    # Best-of-N: on a contended machine the minimum approximates the
    # true cost; best drift with background load.
    best = {name: min(values) for name, values in timings.items()}
    base = best["no_schedule"]
    recovered = tallies["transient_recovered"]
    assert recovered.injected > 0 and recovered.exhausted == 0
    record = {
        "recorded_at": dt.datetime.now(dt.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform_mod.python_version(),
        "cpu_count": os.cpu_count(),
        "window_days": (WINDOW[1] - WINDOW[0]).days,
        "repeats": REPEATS,
        "best_seconds": {k: round(v, 4) for k, v in best.items()},
        "overhead_pct_vs_no_schedule": {
            name: round((best[name] / base - 1.0) * 100, 2)
            for name in ("empty_schedule", "transient_recovered")
        },
        "transient_faults_injected": recovered.injected,
        "transient_retries": recovered.retries,
        "bit_identical_verified": True,
    }
    OUT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    for name, value in best.items():
        print(f"  {name:<20} best {value:7.3f}s")
    print(
        "  empty-schedule overhead: "
        f"{record['overhead_pct_vs_no_schedule']['empty_schedule']:+.2f}%"
    )
    print(f"baseline written to {OUT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
