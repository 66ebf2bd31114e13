"""The measurement platform: seed stream -> queue -> crawlers -> store.

Mirrors Figure 3: a realtime stream of URLs shared on social media is
deduplicated by the capture queue and crawled "within a couple of
minutes" from virtual machines in US and EU data centers of a public
cloud provider -- 50% of crawls from each, assigned randomly
(Section 3.2). Every capture is matched against the CMP fingerprints and
stored.

A run has two phases. The *dedup phase* walks the day stream through the
capture queue serially (the 1h/48h cooldown rules are inherently
sequential, but cheap -- dictionary lookups only). The *crawl phase*
visits every accepted URL; it is embarrassingly parallel because each
crawl's randomness is derived from per-event keys, never from shared
sequential state. Passing a :class:`~repro.crawler.executor.CrawlExecutor`
fans the crawl phase out over day-range shards; the default is the plain
serial loop.

Each day is generated once, as a columnar
:class:`~repro.crawler.seeds.ShareBatch`; the dedup phase feeds the
queue from its int seconds column, and one kernel crawls every accepted
event, whatever runs it: :func:`crawl_batch` takes a day's batch,
derives the vantage and queue-delay draws and the visit key of every
event at once with uint64 numpy replicas of the keyed fold
(:func:`_fold64_arr`, :func:`_draw_arr`; bit-identical to
:mod:`repro.det`), renders each visit's compact skeleton in the row
step :func:`visit_rows` (:func:`~repro.web.serving.visit_compact`),
detects the batch over its host masks and appends it to the columnar
store in one call. Only rows the fault schedule touches leave the
straight path: they run a per-row retry loop
(:func:`~repro.faults.run_with_retries`) around the same precomputed
visit, so a recovered crawl is bit-identical to its fault-free self.
The toplist crawl (:mod:`repro.crawler.toplist_crawl`) runs its rows
through the same step, with its own vantage, dates, retry keys and
fault-attempt counters.

The serial loop (and with it :meth:`NetographPlatform.ingest_day` and
the streaming engine) calls the kernel once per day. Every executor
backend ships the same payload, a :class:`SocialShardSpec` recipe of
the accepted events' raw draw rows per day; the worker
(:func:`crawl_social_shard`) draws each of its days once, builds URLs
for its own rows only and calls the kernel on them, cutting the batch
at the schedule's crash point and at the resume index. The row reference
(:func:`~repro.crawler.browser.crawl_url` compacted with
``Capture.to_observation``) survives only as the test oracle in
``tests/test_columnar.py``.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import itertools
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache -> storage -> platform)
    from repro.cache import ArtifactCache, Fingerprint

from repro.crawler.browser import DEFAULT_PROFILE, FAULT_STATUS, CrawlProfile
from repro.crawler.capture import Vantage
from repro.crawler.columnar import VANTAGE_IDS, CaptureStore
from repro.crawler.executor import (
    CrawlExecutor,
    ExecutorStats,
    ShardStats,
    WorldRef,
    partition_grouped,
    resolve_world,
    world_ref_for_backend,
)
from repro.crawler.queue import CaptureQueue
from repro.crawler.seeds import ShareBatch, SocialShareStream, StreamConfig
from repro.crawler.spill import SpillSettings, SpillingCaptureStore
from repro.det import key64
from repro.detect.engine import DetectionEngine, hosts_mask
from repro.faults import (
    Clock,
    Fault,
    FaultSchedule,
    FaultTally,
    RetryPolicy,
    VirtualClock,
    WorkerCrash,
    run_with_retries,
)
from repro.net import publish_cache_gauges
from repro.net.psl import default_psl
from repro.net.url import URL
from repro.obs import Counter, Observability, resolve_obs
from repro.obs.memory import publish_memory_gauges
from repro.web.serving import CompactVisit, visit_compact, visit_key_prefix
from repro.web.worldgen import CacheLimits, World, publish_world_cache_gauges

__all__ = [
    "CaptureStore",  # re-export: the store moved to repro.crawler.columnar
    "NetographPlatform",
    "PlatformConfig",
    "PlatformStats",
    "RowVisits",
    "SocialShardSpec",
    "SocialShardResult",
    "crawl_batch",
    "crawl_social_shard",
    "meter_crawls",
    "meter_faults",
    "resume_social_shard",
    "visit_rows",
]

_EU_CLOUD_ID = VANTAGE_IDS[Vantage("EU", "cloud")]
_US_CLOUD_ID = VANTAGE_IDS[Vantage("US", "cloud")]
#: Region name by region id (0 = EU, 1 = US, as in the visit key).
_REGION_NAMES = np.array(["EU", "US"], dtype=object)

#: A crawl-phase store: resident, or spilling past a row budget.
Store = Union[CaptureStore, SpillingCaptureStore]


@dataclass(frozen=True)
class PlatformConfig:
    """Operational parameters of the platform."""

    seed: int = 23
    #: Fraction of crawls assigned to the EU cloud (the rest go US).
    eu_share: float = 0.5
    profile: CrawlProfile = DEFAULT_PROFILE
    #: Chaos schedule injected into every crawl; ``None`` (the default)
    #: keeps the pipeline bit-identical to a build without repro.faults.
    faults: Optional[FaultSchedule] = None
    #: Backoff policy for retrying injected transient faults; ``None``
    #: records the faulted capture without retrying.
    retry: Optional[RetryPolicy] = None
    #: Spill budget for crawl-phase stores (:mod:`repro.crawler.spill`);
    #: ``None`` keeps every row resident. An execution knob like
    #: ``parallelism`` -- never fingerprinted, cannot change results.
    #: A sharded run whose fault schedule crashes workers rejects it
    #: (a resumed shard would reuse its checkpoint's segment directory).
    spill: Optional[SpillSettings] = None
    #: World memo-cache bounds applied inside shard workers; ``None``
    #: keeps each worker world's construction-time defaults. Eviction
    #: is bit-invisible (sites regenerate from ``(seed, rank)``).
    world_cache_limits: Optional[CacheLimits] = None


@dataclass
class PlatformStats:
    """Run counters, reported alongside the results."""

    events: int = 0
    crawls: int = 0
    failures: int = 0
    #: Fan-out details of the most recent sharded run, if any.
    executor: Optional[ExecutorStats] = None
    #: Fault/retry accounting across all runs (empty outside chaos).
    faults: FaultTally = field(default_factory=FaultTally)

    @property
    def failure_rate(self) -> float:
        return self.failures / self.crawls if self.crawls else 0.0


# ----------------------------------------------------------------------
# Vectorized key derivation
# ----------------------------------------------------------------------
# uint64 replicas of repro.det's fold/mix: numpy uint64 arithmetic wraps
# mod 2**64 exactly like the Python-int `& _MASK` chain, and the final
# `(x >> 11) * 2**-53` float conversion is exact in both (the shifted
# value fits in 53 bits), so these produce bit-identical keys and draws.
# repro.det stays the source of truth; tests pin the equivalence.
_U64 = np.uint64
_NP_MC = _U64(0xFF51AFD7ED558CCD)
_NP_M1 = _U64(0xBF58476D1CE4E5B9)
_NP_M2 = _U64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = _U64(30), _U64(27), _U64(31), _U64(11)


def _fold64_arr(state: int, *parts) -> "np.ndarray":
    """Vector :func:`repro.det.fold64`: one key per row of *parts*.

    *parts* are uint64 arrays or plain ints (broadcast); at least the
    first part must be an array so every operation stays in array land
    (numpy scalar ops would warn on the intended overflow).
    """
    h = _U64(state & 0xFFFFFFFFFFFFFFFF)
    for part in parts:
        v = part if isinstance(part, np.ndarray) else _U64(part)
        x = (h ^ v) * _NP_MC
        x = (x ^ (x >> _S30)) * _NP_M1
        x = (x ^ (x >> _S27)) * _NP_M2
        h = x ^ (x >> _S31)
    return h


def _draw_arr(keys: "np.ndarray", position: int) -> "np.ndarray":
    """Vector :meth:`repro.det.KeyedRand.random`: draw *position* (1-based)
    of each key's counter stream, as float64 in [0, 1)."""
    x = keys + _U64((position * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
    x = (x ^ (x >> _S30)) * _NP_M1
    x = (x ^ (x >> _S27)) * _NP_M2
    x = x ^ (x >> _S31)
    return (x >> _S11).astype(np.float64) * 1.1102230246251565e-16  # 2**-53


#: host -> registrable-domain memo. PSL mapping is world-independent,
#: so one process-wide table serves every run.
_DOMAIN_MEMO: Dict[str, str] = {}


def _final_domain(host: str) -> str:
    """PSL-registrable domain of *host* (the paper's counting unit)."""
    domain = _DOMAIN_MEMO.get(host)
    if domain is None:
        reg = default_psl().registrable_domain(host)
        # Benign race: the PSL mapping is pure, equal values race in.
        domain = _DOMAIN_MEMO[host] = reg if reg is not None else host  # repro-lint: disable=RACE001
    return domain


def _fault_kind(result: Union[CompactVisit, Fault]) -> Optional[str]:
    return result.kind if isinstance(result, Fault) else None


# ----------------------------------------------------------------------
# The crawl kernel
# ----------------------------------------------------------------------
class RowVisits(NamedTuple):
    """What :func:`visit_rows` records per row, one list entry each."""

    #: Registrable domain of the final address-bar URL (the seed URL's,
    #: for a row that ended on an injected fault).
    domains: List[str]
    #: Fingerprint host mask of the requests kept under the cutoff.
    masks: List[int]
    #: Number of requests kept under the cutoff.
    n_reqs: List[int]
    #: Final document status (``None``: no response received).
    statuses: List[Optional[int]]
    #: Kind of the injected fault the row ended on, if any.
    faults: List[Optional[str]]


def visit_rows(
    world: World,
    urls: Sequence[URL],
    dates: Sequence[dt.date],
    regions: Sequence[str],
    address_space: str,
    keys: Sequence[Optional[int]],
    cutoff: float,
    faults: Optional[FaultSchedule],
    retry: Optional[RetryPolicy],
    retry_key: Callable[[int], str],
    clock: Optional[Clock] = None,
    tally: Optional[FaultTally] = None,
    attempts: Optional[List[int]] = None,
) -> RowVisits:
    """Visit each row's URL on its date from its region: the row step
    both crawlers share.

    Row *i* renders its compact skeleton
    (:func:`~repro.web.serving.visit_compact`, under visit key
    ``keys[i]``, derived when ``None``). Rows the fault schedule faults
    on their first attempt are retried under *retry* with backoff
    through *clock*, keyed on ``retry_key(i)``; the date stays fixed
    across retries (backoff is operational delay, not crawl-visible
    time), so a recovered row is bit-identical to its fault-free self.
    A row whose retries run out is recorded the way
    :func:`repro.crawler.browser.crawl_url` records a faulted capture:
    the seed URL's registrable domain, no requests, no CMP.

    The schedule keys each attempt on ``(seed domain, region-space
    vantage, attempt number)``. Row *i* starts at attempt
    ``attempts[i]`` (0 when *attempts* is ``None``) and, on return,
    ``attempts[i]`` is where its next crawl starts, so a crawl repeated
    on a later date keeps burning the same fault budget.
    """
    domains: List[str] = []
    masks: List[int] = []
    n_reqs: List[int] = []
    statuses: List[Optional[int]] = []
    kinds: List[Optional[str]] = [None] * len(urls)
    for url, date, region, key in zip(urls, dates, regions, keys):
        if faults is not None:
            i = len(domains)  # this row's index
            seed_domain = _final_domain(url.host)
            vantage = f"{region}-{address_space}"
            first = attempts[i] if attempts is not None else 0
            last = first
            if faults.fault_for(seed_domain, vantage, first) is None:
                visit = visit_compact(
                    world, url, date, region, address_space, cutoff, key
                )
            else:
                def attempt_fn(n: int) -> Union[CompactVisit, Fault]:
                    nonlocal last
                    last = first + n
                    return faults.fault_for(
                        seed_domain, vantage, last
                    ) or visit_compact(
                        world, url, date, region, address_space, cutoff,
                        key,
                    )

                visit = run_with_retries(
                    attempt_fn,
                    key=retry_key(i),
                    policy=retry,
                    clock=clock,
                    tally=tally,
                    faulted=_fault_kind,
                )
            if attempts is not None:
                attempts[i] = last + 1
            if isinstance(visit, Fault):
                domains.append(seed_domain)
                masks.append(0)
                n_reqs.append(0)
                statuses.append(FAULT_STATUS.get(visit.kind))
                kinds[i] = visit.kind
                continue
        else:
            visit = visit_compact(
                world, url, date, region, address_space, cutoff, key
            )
        kept = visit.kept_hosts
        domains.append(_final_domain(visit.final_host))
        masks.append(hosts_mask(kept))
        n_reqs.append(len(kept))
        statuses.append(visit.status)
    return RowVisits(domains, masks, n_reqs, statuses, kinds)


def crawl_batch(
    world: World,
    config: PlatformConfig,
    batch: ShareBatch,
    store: Store,
    engine: DetectionEngine,
    clock: Optional[Clock] = None,
    tally: Optional[FaultTally] = None,
) -> Tuple[int, int, int]:
    """Crawl one day's batch of accepted share events into *store*, in
    order.

    Each crawl's vantage and queue delay are keyed on ``(config seed,
    url, share time)`` and its page render on ``(world seed, url,
    capture date, vantage)``, so a row never depends on which batch it
    rode in. Two accepted events can never collide on the event key:
    the queue's 48h URL cooldown rejects a second submission of the
    same URL at the same instant. The rows run through
    :func:`visit_rows` from the EU or US cloud, with injected faults
    retried under ``config.retry`` and backoff jitter keyed on
    ``"<url>@<share time>"``.

    Returns ``(ok, failed, exhausted)``: successful crawls, organic
    failures of the synthetic web, and crawls that ended on an injected
    fault. The three sum to ``len(batch)`` (Section 3.4 accounting).
    """
    n = len(batch)
    if n == 0:
        return 0, 0, 0
    urls = batch.urls
    h64s = np.fromiter((url.h64 for url in urls), dtype=np.uint64, count=n)
    secs = batch.seconds
    ekeys = _fold64_arr(
        key64(config.seed, 5), h64s, batch.ordinal, secs.astype(np.uint64)
    )
    eu = _draw_arr(ekeys, 1) < config.eu_share
    delays = (_draw_arr(ekeys, 2) * 240).astype(np.int64)
    # Visited 60..300s after the share; crossing midnight rolls the date.
    rolled = secs + 60 + delays >= 86_400
    cap_ords = batch.ordinal + rolled
    vkeys = _fold64_arr(
        visit_key_prefix(world.config.seed),
        h64s, cap_ords.astype(np.uint64), (~eu).astype(np.uint64), 0,
    )
    days = np.array(
        [dt.date.fromordinal(batch.ordinal),
         dt.date.fromordinal(batch.ordinal + 1)],
        dtype=object,
    )
    ord_l = cap_ords.tolist()
    vid_l = np.where(eu, _EU_CLOUD_ID, _US_CLOUD_ID).tolist()
    rows = visit_rows(
        world,
        urls,
        days[rolled.astype(np.intp)].tolist(),
        _REGION_NAMES[(~eu).astype(np.intp)].tolist(),
        "cloud",
        vkeys.tolist(),
        config.profile.cutoff,
        config.faults,
        config.retry,
        lambda i: f"{urls[i]}@{batch.at(i).isoformat()}",
        clock,
        tally,
    )
    cmp_keys = engine.detect_batch(rows.masks, ord_l)
    store.append_batch(rows.domains, ord_l, cmp_keys, vid_l, rows.n_reqs)
    ok = sum(1 for s in rows.statuses if s is not None and 200 <= s < 400)
    exhausted = n - rows.faults.count(None)
    return ok, n - ok - exhausted, exhausted


def meter_crawls(
    counter: Counter, ok: int, failed: int, exhausted: int, **labels: str
) -> None:
    """Crawl outcomes by label. ``retries_exhausted`` is kept apart
    from organic failures so the Section 3.4 accounting still sums
    (ok + failed + retries_exhausted == crawls)."""
    if ok:
        counter.inc(ok, outcome="ok", **labels)
    if failed:
        counter.inc(failed, outcome="failed", **labels)
    if exhausted:
        counter.inc(exhausted, outcome="retries_exhausted", **labels)


def meter_faults(obs: Observability, tally: FaultTally) -> None:
    """Publish a run's fault/retry tally to the metrics registry."""
    metrics = obs.metrics
    faults = metrics.counter(
        "crawl_faults_total", "faults injected into crawls, by kind"
    )
    retries = metrics.counter(
        "crawl_retries_total", "crawl retry attempts by outcome"
    )
    for kind, count in sorted(tally.by_kind.items()):
        faults.inc(count, kind=kind)
    if tally.recovered:
        retries.inc(tally.recovered, outcome="recovered")
    if tally.exhausted:
        retries.inc(tally.exhausted, outcome="exhausted")


# ----------------------------------------------------------------------
# Shard payloads (module-level so the process backend can pickle them)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SocialShardSpec:
    """One shard as a *recipe*: the payload of every executor backend.

    The seed stream is deterministic per day, so a shard is fully
    described by the stream config plus, per day, the raw draw rows of
    the accepted events (:attr:`ShareBatch.rows`) -- a few ints per
    crawl. The worker draws each day's random matrix once, selects its
    rows with numpy and builds URLs for those rows only; a day split
    across shards is never walked past another shard's events.
    """

    shard_id: int
    world_ref: WorldRef
    config: PlatformConfig
    stream_config: StreamConfig
    #: ``(day_ordinal, accepted events' raw draw rows)`` runs, in
    #: acceptance order (rows ascend within a day).
    runs: Tuple[Tuple[int, Tuple[int, ...]], ...]
    #: Resume bookkeeping, set by :func:`resume_social_shard` after a
    #: worker crash: skip events below ``start_index`` and seed state
    #: from ``checkpoint``.
    start_index: int = 0
    shard_attempt: int = 0
    checkpoint: Optional["SocialShardResult"] = None

    @property
    def n_events(self) -> int:
        """Number of crawls this shard describes."""
        return sum(len(rows) for _ordinal, rows in self.runs)

    def iter_day_chunks(self, world: World) -> Iterator[ShareBatch]:
        """Each run's accepted events as one batch, a day at a time."""
        stream = SocialShareStream(world, self.stream_config)
        for ordinal, rows in self.runs:
            yield stream.events_for_day(dt.date.fromordinal(ordinal), rows)


def _shard_spill_settings(
    config: PlatformConfig, task: SocialShardSpec
) -> SpillSettings:
    """Per-shard spill settings: shards sharing a configured directory
    get disjoint subdirectories so their segment files never collide."""
    spill = config.spill
    assert spill is not None
    if spill.directory is None:
        return spill
    return dataclasses.replace(
        spill,
        directory=str(Path(spill.directory) / f"shard-{task.shard_id:04d}"),
    )


@dataclass(frozen=True)
class SocialShardResult:
    shard_id: int
    store: Store
    failures: int
    captures_seen: int
    overcounted: int
    faults: FaultTally = field(default_factory=FaultTally)


def crawl_social_shard(task: SocialShardSpec) -> SocialShardResult:
    """Crawl one shard into a private store (runs inside a worker).

    A chaos schedule may kill the worker before a scheduled event index:
    the shard raises :class:`WorkerCrash` carrying its partial result as
    the checkpoint, and the executor re-submits a task resumed from it.
    Batches are cut at the crash point and at the resume index, and
    every crawl is keyed independently, so the resumed run's final
    result is bit-identical to an uninterrupted one.
    """
    world = resolve_world(task.world_ref)
    config = task.config
    if config.world_cache_limits is not None:
        # Bit-invisible (evicted memos regenerate identically); under
        # the thread backend every shard re-applies the same limits to
        # the shared world, which is idempotent.
        world.set_cache_limits(config.world_cache_limits)
    engine = DetectionEngine()
    store: Store = (
        SpillingCaptureStore(_shard_spill_settings(config, task))
        if config.spill is not None
        else CaptureStore()
    )
    tally = FaultTally()
    failures = 0
    base_seen = base_overcounted = 0
    if task.checkpoint is not None:
        checkpoint = task.checkpoint
        store.merge(checkpoint.store)
        failures = checkpoint.failures
        base_seen = checkpoint.captures_seen
        base_overcounted = checkpoint.overcounted
        tally.merge(checkpoint.faults)
    clock = VirtualClock()
    schedule = config.faults
    crash_at = (
        schedule.crash_point(task.shard_id, task.n_events, task.shard_attempt)
        if schedule is not None
        else None
    )

    def result() -> SocialShardResult:
        return SocialShardResult(
            shard_id=task.shard_id,
            store=store,
            failures=failures,
            captures_seen=base_seen + engine.captures_seen,
            overcounted=base_overcounted + engine.overcounted,
            faults=tally,
        )

    lo = 0
    for chunk in task.iter_day_chunks(world):
        hi = lo + len(chunk)
        begin = max(lo, task.start_index)
        crashing = crash_at is not None and begin <= crash_at < hi
        end = crash_at if crashing else hi
        if begin < end:
            _ok, failed, exhausted = crawl_batch(
                world, config, chunk.take(range(begin - lo, end - lo)),
                store, engine, clock, tally,
            )
            failures += failed + exhausted
        if crashing:
            raise WorkerCrash(task.shard_id, done=end, checkpoint=result())
        lo = hi
    return result()


def resume_social_shard(
    task: SocialShardSpec, crash: WorkerCrash
) -> SocialShardSpec:
    """The task that continues *task* past *crash* (executor callback)."""
    return dataclasses.replace(
        task,
        start_index=crash.done,
        shard_attempt=task.shard_attempt + 1,
        checkpoint=crash.checkpoint,
    )


class NetographPlatform:
    """End-to-end social-media measurement pipeline."""

    def __init__(
        self,
        world: World,
        stream: Optional[SocialShareStream] = None,
        config: Optional[PlatformConfig] = None,
        obs: Optional[Observability] = None,
        clock: Optional[Clock] = None,
    ):
        self.world = world
        self.stream = stream or SocialShareStream(world)
        self.config = config or PlatformConfig()
        self.obs = resolve_obs(obs)
        #: Waits out retry backoff; virtual by default so chaos runs
        #: (and their tests) never sleep for real.
        self.clock: Clock = clock if clock is not None else VirtualClock()
        self.queue = CaptureQueue(obs=self.obs)
        self.engine = DetectionEngine(obs=self.obs)
        self.stats = PlatformStats()
        self._capture_id = 0
        metrics = self.obs.metrics
        self._m_events = metrics.counter(
            "platform_events_total", "share events seen by the platform"
        )
        self._m_crawls = metrics.counter(
            "platform_crawls_total", "browser crawls by outcome"
        )
        self._h_shard_seconds = metrics.histogram(
            "executor_shard_seconds", "per-shard crawl wall-clock"
        )
        #: Per-shard stores of the most recent sharded run; consumed by
        #: the cache-populate path so warm entries keep shard granularity.
        self._last_shard_stores: Optional[List[Store]] = None

    # ------------------------------------------------------------------
    def run(
        self,
        start: dt.date,
        end: dt.date,
        store: Optional[CaptureStore] = None,
        on_day: Optional[Callable[[dt.date], None]] = None,
        executor: Optional[CrawlExecutor] = None,
        cache: Optional["ArtifactCache"] = None,
        fingerprint: Optional["Fingerprint"] = None,
    ) -> Store:
        """Run the platform over ``[start, end)`` and return the store.

        Passing an existing *store* continues a previous run (the real
        platform ran continuously for 2.5 years). With an *executor*
        whose config is parallel, the crawl phase is sharded by
        share-event days and fanned out over the worker pool; the result
        is identical to the serial path for the same seed.

        With a *cache* and *fingerprint*, the run consults the artifact
        cache first: a hit restores the persisted capture store --
        bit-identical to a cold run, by the exact-round-trip guarantee
        of :mod:`repro.crawler.storage` -- and skips the dedup and crawl
        phases entirely; a miss computes cold and populates the entry
        (per-shard when the run was sharded).
        """
        if cache is None or fingerprint is None:
            return self._run_cold(start, end, store, on_day, executor)
        cached = cache.load_capture_store(fingerprint)
        if cached is not None:
            if store is None:
                return cached
            store.merge(cached)
            return store
        self._last_shard_stores = None
        fresh = self._run_cold(start, end, None, on_day, executor)
        shard_stores, self._last_shard_stores = self._last_shard_stores, None
        cache.save_capture_store(fingerprint, shard_stores or fresh)
        if store is None:
            return fresh
        # A plain continuation store concatenates in-memory columns, so
        # a spilled run is merged into it one segment at a time.
        parts = (
            fresh.iter_segment_stores()
            if isinstance(fresh, SpillingCaptureStore)
            else (fresh,)
        )
        for part in parts:
            store.merge(part)
        return store

    def ingest_day(self, day: dt.date, store: Store) -> Store:
        """Crawl one stream day into *store* (the streaming entry point).

        Exactly ``run(day, day + 1 day, store=store)`` on the serial
        path: the queue's cooldown dicts, the capture-id counter and the
        run stats all persist across calls, so a sequence of
        ``ingest_day`` calls over ``[start, end)`` produces a store
        byte-identical to one batch :meth:`run` over the same window --
        the invariant the :mod:`repro.stream` engine's batch-vs-follow
        equivalence rests on (pinned by ``tests/test_stream.py``).
        """
        return self._run_cold(day, day + dt.timedelta(days=1), store)

    # ------------------------------------------------------------------
    # Checkpoint serialization (repro.stream)
    # ------------------------------------------------------------------
    def state_payload(self) -> dict:
        """JSON-serializable mid-run platform state.

        Everything the serial dedup + crawl loop threads from one day to
        the next: the queue's cooldown/stats state, the capture-id
        counter, and the run counters. Crawl *results* are not here --
        they live in the store, checkpointed separately under the batch
        ``social-crawl`` fingerprint of the ingested prefix.
        """
        return {
            "capture_id": self._capture_id,
            "queue": self.queue.state_payload(),
            "stats": {
                "events": self.stats.events,
                "crawls": self.stats.crawls,
                "failures": self.stats.failures,
            },
        }

    def restore_state(self, payload: dict) -> None:
        """Exact inverse of :meth:`state_payload` (fresh platform only)."""
        if self._capture_id:
            raise ValueError("restore_state requires a fresh platform")
        self._capture_id = payload["capture_id"]
        self.queue.restore_state(payload["queue"])
        stats = payload["stats"]
        self.stats.events = stats["events"]
        self.stats.crawls = stats["crawls"]
        self.stats.failures = stats["failures"]

    def _run_cold(
        self,
        start: dt.date,
        end: dt.date,
        store: Optional[Store] = None,
        on_day: Optional[Callable[[dt.date], None]] = None,
        executor: Optional[CrawlExecutor] = None,
    ) -> Store:
        """The uncached dedup + crawl pipeline behind :meth:`run`."""
        config = self.config
        parallel = executor is not None and executor.config.parallel
        crash = config.faults.crash if config.faults is not None else None
        if parallel and config.spill is not None and crash is not None:
            raise ValueError(
                f"memory_budget (spill row_budget={config.spill.row_budget}) "
                f"cannot be combined with the fault schedule's crash spec "
                f"{crash!r} on a sharded run: a resumed shard would reuse "
                "its checkpoint's segment directory"
            )
        if config.world_cache_limits is not None:
            # Shard workers re-apply this to their resolved worlds; the
            # serial path crawls against self.world directly, so bound
            # it here. Bit-invisible either way.
            self.world.set_cache_limits(config.world_cache_limits)
        if store is None:
            store = (
                SpillingCaptureStore(config.spill)
                if config.spill is not None
                else CaptureStore()
            )
        timing = self.obs.enabled
        with self.obs.span(
            "platform.run",
            start=start.isoformat(),
            end=end.isoformat(),
            parallel=parallel,
        ) as run_span:
            #: ``(day_ordinal, raw draw row)`` of every accepted event in
            #: acceptance order -- what shard specs are cut from.
            accepted: List[Tuple[int, int]] = []
            crawl_seconds = 0.0
            run_tally = FaultTally()
            day = start
            while day < end:
                ordinal = day.toordinal()
                events = self.stream.events_for_day(day)
                self.stats.events += len(events)
                self._m_events.inc(len(events))
                submit_at = self.queue.submit_at
                day_base = ordinal * 86_400
                picked = [
                    i
                    for i, (url, second) in enumerate(
                        zip(events.urls, events.seconds.tolist())
                    )
                    if submit_at(url, day_base + second)
                ]
                self._capture_id += len(picked)
                if parallel:
                    accepted.extend(
                        (ordinal, row) for row in events.rows[picked].tolist()
                    )
                elif picked:
                    # Span-duration timing only; never crawl-visible.
                    batch_start = (
                        time.perf_counter()  # repro-lint: disable=DET002
                        if timing
                        else 0.0
                    )
                    self._crawl_day(store, events.take(picked), run_tally)
                    if timing:
                        crawl_seconds += (
                            time.perf_counter()  # repro-lint: disable=DET002
                            - batch_start
                        )
                self.queue.prune(
                    dt.datetime.combine(day, dt.time()) + dt.timedelta(days=1)
                )
                if on_day is not None:
                    on_day(day)
                day += dt.timedelta(days=1)
            if accepted:
                assert executor is not None
                self._run_sharded(executor, accepted, store, run_tally)
            elif timing and not parallel:
                self.obs.tracer.record_span(
                    "platform.crawl", crawl_seconds, mode="serial"
                )
            self.stats.faults.merge(run_tally)
            meter_faults(self.obs, run_tally)
            publish_cache_gauges(self.obs)
            publish_world_cache_gauges(self.obs, self.world)
            publish_memory_gauges(self.obs)
            run_span.set(
                events=self.stats.events,
                crawls=self.stats.crawls,
                failures=self.stats.failures,
                skip_rate=round(self.queue.stats.skip_rate, 4),
            )
            if run_tally.injected:
                run_span.set(
                    faults_injected=run_tally.injected,
                    retries=run_tally.retries,
                    retries_exhausted=run_tally.exhausted,
                )
        return store

    # ------------------------------------------------------------------
    def _crawl_day(
        self, store: Store, batch: ShareBatch, tally: FaultTally
    ) -> None:
        """Serial crawl of one day's accepted events."""
        ok, failed, exhausted = crawl_batch(
            self.world, self.config, batch, store, self.engine,
            self.clock, tally,
        )
        self.stats.crawls += len(batch)
        self.stats.failures += failed + exhausted
        meter_crawls(self._m_crawls, ok, failed, exhausted)

    # ------------------------------------------------------------------
    def _shard_payloads(
        self, executor: CrawlExecutor, accepted: List[Tuple[int, int]]
    ) -> List[SocialShardSpec]:
        """Partition the acceptance sequence into shard specs.

        Every backend ships the same recipe: the worker resolves the
        world (shared for threads, regenerated once per process) and
        re-derives the accepted events from their per-day draw rows.
        """
        n_shards = executor.config.n_shards(len(accepted))
        chunks = partition_grouped(accepted, n_shards, key=lambda item: item[0])
        world_ref = world_ref_for_backend(self.world, executor.config.backend)
        return [
            SocialShardSpec(
                shard_id=i,
                world_ref=world_ref,
                config=self.config,
                stream_config=self.stream.config,
                runs=tuple(
                    (ordinal, tuple(row for _ordinal, row in run))
                    for ordinal, run in itertools.groupby(
                        chunk, key=lambda item: item[0]
                    )
                ),
            )
            for i, chunk in enumerate(chunks)
        ]

    def _run_sharded(
        self,
        executor: CrawlExecutor,
        accepted: List[Tuple[int, int]],
        store: Store,
        run_tally: FaultTally,
    ) -> None:
        with self.obs.span(
            "executor.derive_shards",
            backend=executor.config.backend,
            workers=executor.config.workers,
        ) as derive_span:
            tasks = self._shard_payloads(executor, accepted)
            derive_span.set(tasks=len(accepted), shards=len(tasks))
        with self.obs.span(
            "executor.crawl", backend=executor.config.backend
        ) as crawl_span:
            results, seconds, wall, resumes = executor.map_shards(
                crawl_social_shard, tasks, resume=resume_social_shard
            )
            crawl_span.set(shards=len(tasks))
            self._last_shard_stores = [result.store for result in results]
            if self.obs.enabled:
                for task, result, secs in zip(tasks, results, seconds):
                    self.obs.tracer.record_span(
                        "executor.shard",
                        secs,
                        shard=task.shard_id,
                        tasks=task.n_events,
                        crawls=result.store.n_captures,
                        failures=result.failures,
                    )
                    self._h_shard_seconds.observe(secs, pipeline="social")

        # Payload accounting: only the process backend serializes shard
        # payloads; measuring the spec pickles is cheap (a few ints per
        # crawl) and keeps worker-transfer regressions attributable.
        if executor.config.backend == "process":
            payload_sizes = [
                len(pickle.dumps(t, protocol=pickle.HIGHEST_PROTOCOL))
                for t in tasks
            ]
        else:
            payload_sizes = [0] * len(tasks)
        # Merge-duration stat only, not crawl-visible state.
        merge_start = time.perf_counter()  # repro-lint: disable=DET002
        exec_stats = ExecutorStats(
            backend=executor.config.backend,
            workers=executor.config.workers,
            wall_seconds=wall,
        )
        with self.obs.span("executor.merge", shards=len(tasks)):
            for task, result, secs, n_resumes, n_bytes in zip(
                tasks, results, seconds, resumes, payload_sizes
            ):
                store.merge(result.store)
                self.stats.crawls += result.store.n_captures
                self.stats.failures += result.failures
                run_tally.merge(result.faults)
                self._absorb_shard_metrics(result)
                exec_stats.shards.append(
                    ShardStats(
                        shard_id=task.shard_id,
                        tasks=task.n_events,
                        crawls=result.store.n_captures,
                        failures=result.failures,
                        seconds=secs,
                        resumes=n_resumes,
                        payload_bytes=n_bytes,
                    )
                )
        exec_stats.merge_seconds = (
            time.perf_counter()  # repro-lint: disable=DET002
            - merge_start
        )
        self.stats.executor = exec_stats

    def _absorb_shard_metrics(self, result: SocialShardResult) -> None:
        """Fold a shard's detection/crawl accounting into this process's
        stats and metrics (detection itself ran inside the worker)."""
        exhausted = result.faults.exhausted
        meter_crawls(
            self._m_crawls,
            result.store.n_captures - result.failures,
            result.failures - exhausted,
            exhausted,
        )
        matches: Dict[str, int] = {}
        if self.obs.enabled:
            for _domain, _ordinal, cmp_key, _vid in result.store.iter_rows():
                if cmp_key is not None:
                    matches[cmp_key] = matches.get(cmp_key, 0) + 1
        self.engine.absorb(
            result.captures_seen, result.overcounted, matches
        )
