"""Record observability overhead to ``BENCH_obs.json``.

Companion to ``record_throughput.py``: times the same two-week social
window three ways -- uninstrumented default (the shared null backend),
explicitly disabled (``NullObservability``), and fully enabled (metrics
+ tracing) -- and records the relative overhead next to the throughput
baseline. Also asserts the bit-identical contract: the observation
sequence must not depend on whether observability is on. Run from the
repository root:

    PYTHONPATH=src python benchmarks/record_obs_overhead.py

The acceptance budget is <5% disabled-mode overhead versus the plain
run; single runs on a noisy machine can jitter either way, so the
best-of-N of interleaved repetitions is recorded.
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
from repro.obs import NullObservability, Observability
from repro.web.worldgen import World, WorldConfig

WINDOW = (dt.date(2020, 4, 1), dt.date(2020, 4, 15))
REPEATS = 9
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"


def run_window(world, obs):
    platform = NetographPlatform(
        world,
        stream=SocialShareStream(world, StreamConfig(events_per_day=600)),
        config=PlatformConfig(),
        obs=obs,
    )
    start = time.perf_counter()
    store = platform.run(*WINDOW)
    seconds = time.perf_counter() - start
    keys = list(store.iter_rows())
    return seconds, keys


def main():
    world = World(WorldConfig(seed=7, n_domains=20_000))
    # Warm the lazy site cache so no mode pays world generation.
    run_window(world, None)

    modes = {
        "default_null": lambda: None,
        "explicit_null": NullObservability,
        "enabled": Observability,
    }
    timings = {name: [] for name in modes}
    baseline_keys = None
    order = list(modes)
    for rep in range(REPEATS):
        # Rotate the mode order so per-rep machine drift (CPU contention,
        # cache state) does not bias one mode systematically.
        for name in order[rep % len(order):] + order[:rep % len(order)]:
            seconds, keys = run_window(world, modes[name]())
            timings[name].append(seconds)
            if baseline_keys is None:
                baseline_keys = keys
            else:
                assert keys == baseline_keys, (
                    f"bit-identical contract violated in mode {name!r}"
                )

    # Best-of-N: on a contended machine the minimum approximates the
    # true cost; best drift with background load.
    best = {name: min(values) for name, values in timings.items()}
    base = best["default_null"]
    # default_null and explicit_null execute identical code; their delta
    # is the measurement noise floor on this machine.
    noise_floor = abs(best["explicit_null"] / base - 1.0) * 100
    record = {
        "recorded_at": dt.datetime.now(dt.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform_mod.python_version(),
        "cpu_count": os.cpu_count(),
        "window_days": (WINDOW[1] - WINDOW[0]).days,
        "repeats": REPEATS,
        "best_seconds": {k: round(v, 4) for k, v in best.items()},
        "overhead_pct_vs_default": {
            name: round((best[name] / base - 1.0) * 100, 2)
            for name in ("explicit_null", "enabled")
        },
        "noise_floor_pct": round(noise_floor, 2),
        "bit_identical_verified": True,
    }
    OUT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    for name, value in best.items():
        print(f"  {name:<14} best {value:7.3f}s")
    print(f"  enabled overhead: "
          f"{record['overhead_pct_vs_default']['enabled']:+.2f}%")
    print(f"baseline written to {OUT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
