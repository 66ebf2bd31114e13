"""Cache-identity smoke test: a warm rerun must be byte-identical.

Runs a small study twice against the same cache directory -- once cold,
once warm with a fresh ``Study`` and obs stack -- and asserts the
tentpole guarantees of :mod:`repro.cache`:

* the warm run's exports (persisted capture store, adoption series,
  vantage table, marketshare curve, Tranco order) are byte-equal to the
  cold run's;
* the warm run skips the crawl phase entirely (zero browser crawls) and
  loads the Tranco list from its ``toplist`` entry without computing a
  single provider ranking;
* cache hits are observable (``cache_hits_total > 0``).

Run by ``scripts/verify.sh`` (or ``make verify``) so cache regressions
are caught without the full benchmark suite.
"""

import datetime as dt
import json
import sys
import tempfile
import time
from pathlib import Path

import repro.toplist.tranco as tranco_module
from repro.core.pipeline import Study, StudyConfig
from repro.crawler.storage import write_export
from repro.obs import Observability

WINDOW = (dt.date(2020, 3, 1), dt.date(2020, 4, 15))
WHEN = dt.date(2020, 3, 15)


def count_provider_rankings(calls: list) -> None:
    """Record every provider ranking the Tranco build computes."""
    compute = tranco_module.provider_ranking

    def counted(world, provider, **kwargs):
        calls.append(provider)
        return compute(world, provider, **kwargs)

    tranco_module.provider_ranking = counted


def run_study(cache_dir: str, out_dir: Path, label: str):
    obs = Observability()
    study = Study(
        StudyConfig(
            seed=7,
            n_domains=3_000,
            toplist_size=150,
            events_per_day=120,
            study_start=WINDOW[0],
            study_end=WINDOW[1],
            cache_dir=cache_dir,
        ),
        obs=obs,
    )
    # Smoke-run duration for the log line; not part of the results.
    start = time.perf_counter()  # repro-lint: disable=DET002
    store = study.run_social_crawl()
    series = study.adoption_series(store)
    table = study.vantage_table(WHEN)
    curve = study.marketshare_curve(WHEN)
    seconds = time.perf_counter() - start  # repro-lint: disable=DET002

    store_path = out_dir / f"store-{label}.jsonl"
    write_export(store, store_path)
    exports = (
        store_path.read_bytes()
        + json.dumps(
            [series.to_payload(), table.to_payload(), curve.to_payload()],
            sort_keys=True,
        ).encode("utf-8")
        + study.tranco.order.tobytes()
    )
    hits = obs.metrics.counter("cache_hits_total")
    return (
        exports,
        study.last_crawl_stats.crawls,
        hits.total,
        hits.value(stage="toplist"),
        seconds,
    )


def main():
    rankings: list = []
    count_provider_rankings(rankings)
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        cache_dir = str(out_dir / "cache")
        cold, cold_crawls, cold_hits, _, cold_s = run_study(
            cache_dir, out_dir, "cold"
        )
        cold_rankings = len(rankings)
        print(f"  cold: {cold_crawls} crawls, {cold_hits:.0f} hits, "
              f"{cold_rankings} provider rankings, {cold_s:.2f}s")
        warm, warm_crawls, warm_hits, toplist_hits, warm_s = run_study(
            cache_dir, out_dir, "warm"
        )
        warm_rankings = len(rankings) - cold_rankings
        print(f"  warm: {warm_crawls} crawls, {warm_hits:.0f} hits, "
              f"{warm_rankings} provider rankings, {warm_s:.2f}s")
        if warm != cold:
            print("FAIL: warm exports are not byte-identical to cold")
            return 1
        if warm_crawls != 0:
            print(f"FAIL: warm run crawled {warm_crawls} pages")
            return 1
        if not warm_hits > 0:
            print("FAIL: warm run reported no cache hits")
            return 1
        if toplist_hits != 1 or warm_rankings != 0:
            print(f"FAIL: warm run recomputed the Tranco list "
                  f"({toplist_hits:.0f} toplist hits, "
                  f"{warm_rankings} provider rankings)")
            return 1
        if cold_crawls == 0 or cold_hits != 0 or cold_rankings == 0:
            print("FAIL: cold run was not actually cold")
            return 1
    print("cache smoke: warm rerun byte-identical, crawl phase and "
          "Tranco build skipped")
    return 0


if __name__ == "__main__":
    sys.exit(main())
