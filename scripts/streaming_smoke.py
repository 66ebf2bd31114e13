"""Streaming-equivalence smoke test: follow == batch, byte for byte.

Runs the same study window three ways and asserts the tentpole
guarantee of :mod:`repro.stream`:

* a **batch** crawl + analysis over days 0..N;
* a **cold follow** run ingesting the same window day by day;
* a **resumed follow** run restored from a mid-window checkpoint.

All three must produce byte-identical exports (persisted capture store,
adoption series, vantage table, marketshare curve). The checkpointed
store must also serve a *batch* run over the ingested prefix (zero
crawls), because checkpoints are written under the exact batch
``social-crawl`` fingerprint.

The check runs three times: fault-free, and twice under the
``follow`` benchmark workload's transient fault schedule, so the fault
schedule's memo is live across days and across the checkpoint resume:
once with that workload's unjittered backoff and once with jittered
backoff, whose delays are derived one retry at a time. Every injected
fault is transient and recovered, so the faulted exports must also
equal the fault-free ones.

Run by ``scripts/verify.sh`` (or ``make smoke-streaming``).
"""

import datetime as dt
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.core.marketshare import observed_marketshare
from repro.core.pipeline import Study, StudyConfig
from repro.core.vantage import VantageTable
from repro.crawler.columnar import VANTAGE_STRS
from repro.crawler.storage import write_export
from repro.faults import FaultSchedule, FaultSpec, RetryPolicy

START = dt.date(2020, 3, 1)
MID = dt.date(2020, 3, 21)
END = dt.date(2020, 4, 1)

#: The ``follow`` benchmark workload's schedule: every fault transient
#: and recovered within the retry budget.
FAULTS = FaultSchedule(
    seed=13,
    specs=(
        FaultSpec("dns-error", rate=0.1, attempts=1),
        FaultSpec("connection-reset", rate=0.1, attempts=2),
    ),
)
RETRY = RetryPolicy(max_retries=5, base_delay=0.01, max_delay=0.1, jitter=0.0)
#: The same backoff with jitter: each delay seeds its own RNG.
JITTERED = RetryPolicy(max_retries=5, base_delay=0.01, max_delay=0.1, jitter=0.1)


def _config(cache_dir=None, faults=None, retry=None) -> StudyConfig:
    return StudyConfig(
        seed=7,
        n_domains=2_500,
        toplist_size=200,
        events_per_day=120,
        study_start=START,
        study_end=END,
        cache_dir=cache_dir,
        faults=faults,
        retry=retry,
    )


def _engine_exports(engine, out_dir: Path, label: str) -> bytes:
    store_path = out_dir / f"store-{label}.jsonl"
    write_export(engine.store, store_path)
    payloads = [
        engine.adoption_series().to_payload(),
        engine.vantage_table().to_payload(),
        engine.marketshare_curve().to_payload(),
    ]
    return store_path.read_bytes() + json.dumps(
        payloads, sort_keys=True
    ).encode("utf-8")


def _batch_exports(study: Study, out_dir: Path, ranks, sizes) -> bytes:
    store = study.run_social_crawl(START, END)
    store_path = out_dir / "store-batch.jsonl"
    write_export(store, store_path)
    series = study.adoption_series(store)
    table = VantageTable.from_stream_rows(
        (VANTAGE_STRS[vid], domain, cmp_key)
        for domain, _ordinal, cmp_key, vid in store.rows_since(0)
    )
    curve = observed_marketshare(
        series, ranks, END - dt.timedelta(days=1), sizes
    )
    payloads = [series.to_payload(), table.to_payload(), curve.to_payload()]
    return store_path.read_bytes() + json.dumps(
        payloads, sort_keys=True
    ).encode("utf-8")


def _check(out_dir: Path, label: str, faults=None, retry=None):
    """Batch == cold follow == resumed follow under *faults* and
    *retry*; returns the exports, or ``None`` after printing the
    failure."""
    cache_dir = str(out_dir / f"cache-{label}")

    # Smoke-run durations for the log lines; never part of results.
    t0 = time.perf_counter()  # repro-lint: disable=DET002
    cold = Study(_config(None, faults, retry)).streaming_engine().run_until(END)
    cold_exports = _engine_exports(cold, out_dir, "cold")
    t1 = time.perf_counter()  # repro-lint: disable=DET002
    print(f"  {label} cold follow: {cold.rows_ingested} rows over "
          f"{cold.days_ingested} days, {t1 - t0:.2f}s, "
          f"{cold.platform.stats.faults.summary()}")
    if faults is not None and not cold.platform.stats.faults.recovered:
        print(f"FAIL: {label}: the schedule injected no recovered fault")
        return None

    batch_exports = _batch_exports(
        Study(_config(None, faults, retry)), out_dir, cold._ranks, cold._sizes
    )
    if cold_exports != batch_exports:
        print(f"FAIL: {label}: cold follow exports differ from batch")
        return None

    # Mid-window checkpoint, then resume in a fresh engine.
    first = Study(_config(cache_dir, faults, retry)).streaming_engine()
    first.run_until(MID)
    if first.checkpoint() is None:
        print(f"FAIL: {label}: checkpoint was not written")
        return None
    resumed = Study(_config(cache_dir, faults, retry)).streaming_engine(
        resume=True
    )
    if resumed.watermark != MID - dt.timedelta(days=1):
        print(f"FAIL: {label}: resumed at watermark {resumed.watermark}")
        return None
    # The restored counter covers the prefix (stats match an
    # uninterrupted run); actual crawl work here is the delta.
    restored_crawls = resumed.platform.stats.crawls
    resumed.run_until(END)
    crawl_delta = resumed.platform.stats.crawls - restored_crawls
    print(f"  {label} resumed follow: restored at "
          f"{MID - dt.timedelta(days=1)}, crawled {crawl_delta} pages "
          f"this run (cold: {cold.platform.stats.crawls})")
    if _engine_exports(resumed, out_dir, "resumed") != batch_exports:
        print(f"FAIL: {label}: resumed follow exports differ from batch")
        return None
    if not (restored_crawls > 0
            and crawl_delta < cold.platform.stats.crawls):
        print(f"FAIL: {label}: resumed run did not skip the checkpointed "
              "prefix")
        return None

    # The checkpointed store doubles as the batch cache entry for the
    # ingested prefix: a batch run over [START, MID) must skip its
    # crawl phase entirely.
    batch_study = Study(_config(cache_dir, faults, retry))
    batch_study.run_social_crawl(START, MID)
    if batch_study.last_crawl_stats.crawls != 0:
        print(
            f"FAIL: {label}: batch prefix run crawled "
            f"{batch_study.last_crawl_stats.crawls} pages instead of "
            "hitting the streaming checkpoint"
        )
        return None
    return batch_exports


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        clean = _check(out_dir, "fault-free")
        if clean is None:
            return 1
        for label, retry in (("faulted", RETRY), ("jittered", JITTERED)):
            faulted = _check(out_dir, label, FAULTS, retry)
            if faulted is None:
                return 1
            if faulted != clean:
                print(f"FAIL: {label}: recovered transient faults changed "
                      "the exports")
                return 1

    print("streaming smoke: follow == batch byte-identically, cold and "
          "resumed, fault-free and under transient faults with plain and "
          "jittered backoff; checkpoint serves batch runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
