"""Ten-second smoke test of the parallel crawl path.

Runs a small study window serially and on 2- and 4-worker process
pools, and asserts the executor's determinism contract: identical
observation sequences and stats totals for the same seed. Run by
``scripts/verify.sh`` (or ``make verify``) so regressions in the
sharded path are caught without the full benchmark suite.
"""

import datetime as dt
import sys
import time

from repro.crawler.platform import NetographPlatform, PlatformConfig
from repro.crawler.seeds import SocialShareStream, StreamConfig
from repro.web.worldgen import World, WorldConfig

WINDOW = (dt.date(2020, 4, 1), dt.date(2020, 4, 5))


def run(world, workers=1):
    platform = NetographPlatform(
        world,
        stream=SocialShareStream(world, StreamConfig(events_per_day=150)),
        config=PlatformConfig(),
    )
    # Smoke-run duration for the log line; not part of the results.
    start = time.perf_counter()  # repro-lint: disable=DET002
    store = platform.run(*WINDOW, workers=workers)
    seconds = time.perf_counter() - start  # repro-lint: disable=DET002
    keys = list(store.iter_rows())
    return keys, platform.stats, seconds


def main():
    world = World(WorldConfig(seed=7, n_domains=3_000))
    serial_keys, serial_stats, serial_s = run(world)
    print(f"  serial:     {len(serial_keys)} observations in {serial_s:.2f}s")
    for workers in (2, 4):
        keys, stats, seconds = run(world, workers)
        label = f"{workers}xprocess"
        print(f"  {label:<11} {len(keys)} observations in {seconds:.2f}s "
              f"({stats.executor.n_shards} shards)")
        if keys != serial_keys:
            print(f"FAIL: {label} observations diverge from serial")
            return 1
        if (stats.crawls, stats.failures) != (
            serial_stats.crawls, serial_stats.failures
        ):
            print(f"FAIL: {label} stats diverge from serial")
            return 1
    print("executor smoke: serial == processes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
