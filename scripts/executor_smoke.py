"""Ten-second smoke test of the parallel crawl path.

Runs a small study window serially and on 2- and 4-worker process
pools -- plain, under a memory budget, and under a worker-crash
schedule -- and asserts the executor's determinism contract: identical
observation sequences, stats totals and final queue state for the same
seed. First prints the machine's CPU count and the process x2 / serial
wall ratio of a denser cold-world window, for information; it is not a
gate. Run by ``scripts/verify.sh`` (or ``make verify``) so regressions
in the partitioned path are caught without the full benchmark suite.
"""

import datetime as dt
import os
import sys
import time

from repro.crawler.platform import NetographPlatform, PlatformConfig
from repro.crawler.seeds import SocialShareStream, StreamConfig
from repro.faults import CrashSpec, FaultSchedule, FaultSpec
from repro.faults.retry import FAST_TEST_POLICY
from repro.web.worldgen import World, WorldConfig

WINDOW = (dt.date(2020, 4, 1), dt.date(2020, 4, 5))
#: Transient faults every retry recovers, and every partition's worker
#: crashes once: the result must still be the fault-free serial run.
CRASHING = FaultSchedule(
    seed=13,
    specs=(FaultSpec("dns-error", rate=0.15, attempts=1),),
    crash=CrashSpec(rate=1.0),
)
VARIANTS = {
    "plain": PlatformConfig(),
    "budget": PlatformConfig(memory_budget=60),
    "crash": PlatformConfig(faults=CRASHING, retry=FAST_TEST_POLICY),
}


def run(world, config, workers=1, events_per_day=150):
    platform = NetographPlatform(
        world,
        stream=SocialShareStream(
            world, StreamConfig(events_per_day=events_per_day)
        ),
        config=config,
    )
    # Smoke-run duration for the log line; not part of the results.
    start = time.perf_counter()  # repro-lint: disable=DET002
    store = platform.run(*WINDOW, workers=workers)
    seconds = time.perf_counter() - start  # repro-lint: disable=DET002
    outcome = (
        list(store.iter_rows()),
        platform.stats.crawls,
        platform.stats.failures,
        platform.queue.state_payload(),
    )
    return outcome, platform.stats, seconds


def wall_ratio():
    """process x2 / serial wall on a denser window, each run on a fresh
    (cold) world as a study starts: information only, not a gate."""
    walls = {}
    for workers in (1, 2):
        world = World(WorldConfig(seed=7, n_domains=20_000))
        _, _, walls[workers] = run(
            world, VARIANTS["plain"], workers, events_per_day=5_000
        )
    return walls[2] / walls[1]


def main():
    print(f"  cpu_count:  {os.cpu_count()}")
    print(f"  process x2 / serial wall: {wall_ratio():.2f} "
          "(cold worlds, 4 days x 5000 events; information only)")
    world = World(WorldConfig(seed=7, n_domains=3_000))
    serial, _stats, serial_s = run(world, VARIANTS["plain"])
    print(f"  serial:     {len(serial[0])} observations in {serial_s:.2f}s")
    for name, config in VARIANTS.items():
        for workers in (2, 4):
            outcome, stats, seconds = run(world, config, workers)
            label = f"{workers}xprocess {name}"
            print(f"  {label:<18} {len(outcome[0])} observations in "
                  f"{seconds:.2f}s ({stats.executor.n_shards} partitions, "
                  f"{stats.executor.resumes} resumes)")
            if outcome[0] != serial[0]:
                print(f"FAIL: {label} observations diverge from serial")
                return 1
            if outcome[1:3] != serial[1:3]:
                print(f"FAIL: {label} stats diverge from serial")
                return 1
            if outcome[3] != serial[3]:
                print(f"FAIL: {label} queue state diverges from serial")
                return 1
            if name == "crash" and not stats.executor.resumes:
                print(f"FAIL: {label} never crashed a worker")
                return 1
    print("executor smoke: serial == processes (plain, budget, crash)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
