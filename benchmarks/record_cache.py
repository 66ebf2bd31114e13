"""Record warm-start speedup to ``BENCH_cache.json``.

Runs the *default* :class:`~repro.core.pipeline.StudyConfig` pipeline
(the full 2018-03..2020-09 study window) twice against one cache
directory: cold (populating) and warm (a fresh ``Study`` served from
disk). Asserts the tentpole contract -- byte-identical exports with the
crawl phase skipped entirely -- and records the cold/warm wall-time
ratio. The acceptance floor is a >= 5x speedup; in practice the warm
run is two orders of magnitude faster because it replays JSONL instead
of crawling ~1M pages. Run from the repository root:

    PYTHONPATH=src python benchmarks/record_cache.py   (or: make bench-cache)
"""

import datetime as dt
import json
import os
import platform as platform_mod
import sys
import tempfile
import time
from pathlib import Path

from repro.core.pipeline import Study, StudyConfig
from repro.crawler.storage import write_export
from repro.obs import Observability

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_cache.json"
MIN_RATIO = 5.0
WHEN = dt.date(2020, 5, 15)


def run_pipeline(cache_dir: str, out_dir: Path, label: str):
    obs = Observability()
    study = Study(StudyConfig(cache_dir=cache_dir), obs=obs)
    start = time.perf_counter()
    store = study.run_social_crawl()
    series = study.adoption_series(store)
    table = study.vantage_table(WHEN)
    curve = study.marketshare_curve(WHEN)
    seconds = time.perf_counter() - start

    store_path = out_dir / f"store-{label}.jsonl"
    write_export(store, store_path)
    exports = store_path.read_bytes() + json.dumps(
        [series.to_payload(), table.to_payload(), curve.to_payload()],
        sort_keys=True,
    ).encode("utf-8")
    return {
        "seconds": seconds,
        "exports": exports,
        "crawls": study.last_crawl_stats.crawls,
        "observations": store.n_rows,
        "hits": obs.metrics.counter("cache_hits_total").total,
        "misses": obs.metrics.counter("cache_misses_total").total,
    }


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        cache_dir = str(out_dir / "cache")
        cold = run_pipeline(cache_dir, out_dir, "cold")
        print(f"  cold: {cold['seconds']:7.2f}s  "
              f"({cold['crawls']:,} crawls, {cold['misses']:.0f} misses)")
        warm = run_pipeline(cache_dir, out_dir, "warm")
        print(f"  warm: {warm['seconds']:7.2f}s  "
              f"({warm['crawls']:,} crawls, {warm['hits']:.0f} hits)")

        assert warm["exports"] == cold["exports"], (
            "warm exports not byte-identical to cold"
        )
        assert warm["crawls"] == 0, "warm run did not skip the crawl phase"
        assert warm["hits"] > 0, "warm run reported no cache hits"
        ratio = cold["seconds"] / warm["seconds"]
        assert ratio >= MIN_RATIO, (
            f"warm speedup {ratio:.1f}x below the {MIN_RATIO:.0f}x floor"
        )

    record = {
        "recorded_at": dt.datetime.now(dt.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform_mod.python_version(),
        "cpu_count": os.cpu_count(),
        "study_config": "default",
        "cold_seconds": round(cold["seconds"], 3),
        "warm_seconds": round(warm["seconds"], 3),
        "speedup": round(ratio, 1),
        "min_ratio": MIN_RATIO,
        "cold_crawls": cold["crawls"],
        "warm_crawls": warm["crawls"],
        "observations": cold["observations"],
        "warm_cache_hits": warm["hits"],
        "byte_identical_verified": True,
    }
    OUT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"  speedup: {ratio:.1f}x (floor {MIN_RATIO:.0f}x)")
    print(f"baseline written to {OUT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
