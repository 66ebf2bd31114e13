"""Columnar CaptureStore and crawl-kernel invariants.

Pins the contracts the columnar crawl path rests on:

* batch appends and merging segment stores in order are bit-identical
  to serial appends -- rows, interning tables, digests, and query-view
  ordering all match;
* the batched detection path returns exactly what the per-capture
  ``detect`` loop returns, counters included;
* the vectorized key derivation (`numpy` fold/draw) matches the scalar
  :mod:`repro.det` reference;
* the crawl kernel stores, row for row, what the ``Capture`` reference
  (``crawl_url`` + ``to_observation``) records for the same accepted
  events -- at the 10 s and 120 s band cutoffs and at 15 s, outside the
  bands, where the kernel cuts the rendered page -- with and without
  fault schedules.

Plus the columnar adoption path.
"""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adoption import AdoptionSeries, DomainTimeline
from repro.crawler.browser import CrawlProfile, crawl_url
from repro.crawler.capture import Observation, Vantage
from repro.crawler.columnar import (
    VANTAGE_IDS,
    VANTAGE_TABLE,
    CaptureStore,
    vantage_id,
)
from repro.crawler import executor as executor_module
from repro.crawler import platform as platform_module
from repro.crawler.platform import (
    NetographPlatform,
    PlatformConfig,
    _draw_arr,
    _fold64_arr,
)
from repro.crawler.queue import CaptureQueue
from repro.crawler.seeds import SocialShareStream, StreamConfig
from repro.crawler.storage import store_digest
from repro.det import KeyedRand, fold64, key64
from repro.detect.engine import DetectionEngine, hosts_mask
from repro.faults import FaultSchedule, FaultSpec, RetryPolicy, run_with_retries
from repro.faults.retry import FAST_TEST_POLICY
from repro.net.url import URL
from repro.web.worldgen import World, WorldConfig
from tests.share_oracle import oracle_day_events
from tests.store_oracle import rows as store_rows
from tests.store_oracle import store_from_rows

np = pytest.importorskip("numpy")


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_domain = st.from_regex(r"[a-z]{1,8}\.(com|org|de)", fullmatch=True)
_cmp = st.one_of(st.none(), st.sampled_from(["onetrust", "quantcast", "sp"]))
_vantage = st.sampled_from(VANTAGE_TABLE)
_date = st.dates(dt.date(2018, 1, 1), dt.date(2021, 12, 31))


_rows = st.lists(
    st.tuples(
        _domain,
        st.integers(dt.date(2018, 1, 1).toordinal(),
                    dt.date(2021, 12, 31).toordinal()),
        _cmp,
        st.integers(0, len(VANTAGE_TABLE) - 1),
        st.integers(0, 50),
    ),
    max_size=60,
)


def _store_from_rows(rows):
    """One single-row ``append_batch`` call per row."""
    store = CaptureStore()
    for *row, n_req in rows:
        store_from_rows([row], requests=n_req, store=store)
    return store


# ----------------------------------------------------------------------
# Batch writes
# ----------------------------------------------------------------------
class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(rows=_rows)
    def test_append_batch_equals_append_row(self, rows):
        serial = _store_from_rows(rows)
        batched = CaptureStore()
        batched.append_batch(
            [r[0] for r in rows],
            [r[1] for r in rows],
            [r[2] for r in rows],
            [r[3] for r in rows],
            [r[4] for r in rows],
        )
        assert store_rows(batched) == store_rows(serial)
        assert store_rows(batched) == [tuple(r[:4]) for r in rows]
        assert batched.n_captures == serial.n_captures
        assert batched.total_requests == serial.total_requests
        assert store_digest(batched) == store_digest(serial)


# ----------------------------------------------------------------------
# Merge-by-concatenation == serial append
# ----------------------------------------------------------------------
class TestMerge:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=_rows,
        cuts=st.lists(st.integers(0, 60), max_size=3),
    )
    def test_merge_segments_equals_serial(self, rows, cuts):
        serial = _store_from_rows(rows)

        bounds = sorted({min(c, len(rows)) for c in cuts})
        segments = []
        prev = 0
        for cut in bounds + [len(rows)]:
            segments.append(_store_from_rows(rows[prev:cut]))
            prev = cut

        merged = CaptureStore()
        for segment in segments:
            merged.merge(segment)

        assert store_rows(merged) == store_rows(serial)
        # Interning tables are first-appearance ordered either way --
        # the canonical-encoding argument behind digest_parts.
        assert merged.tables() == serial.tables()
        assert list(merged.domain_day_rows()) == list(serial.domain_day_rows())
        assert merged.n_captures == serial.n_captures
        assert merged.total_requests == serial.total_requests
        assert store_digest(merged) == store_digest(serial)

    @settings(max_examples=40, deadline=None)
    @given(rows=_rows)
    def test_digest_parts_canonical(self, rows):
        """Equal rows <-> equal digests, even via different write paths."""
        serial = _store_from_rows(rows)
        via_rows = store_from_rows(
            store_rows(serial), requests=[r[4] for r in rows]
        )
        assert store_digest(via_rows) == store_digest(serial)


# ----------------------------------------------------------------------
# Batched detection == per-capture loop
# ----------------------------------------------------------------------
class TestBatchedDetection:
    def _world_captures(self):
        world = World(WorldConfig(seed=13, n_domains=300))
        captures = []
        for rank in range(1, 120):
            when = dt.datetime(2019, 1, 1, 10) + dt.timedelta(
                days=(rank * 7) % 900
            )
            captures.append(
                crawl_url(
                    world,
                    URL.parse(f"https://www.{world.site(rank).domain}/"),
                    when=when,
                    vantage=VANTAGE_TABLE[rank % len(VANTAGE_TABLE)],
                )
            )
        return captures

    def test_detect_batch_matches_per_capture_detect(self):
        captures = self._world_captures()
        loop_engine = DetectionEngine()
        loop_keys = [loop_engine.detect(c).cmp_key for c in captures]

        batch_engine = DetectionEngine()
        masks = [hosts_mask(c.contacted_hosts) for c in captures]
        ordinals = [c.captured_at.date().toordinal() for c in captures]
        batch_keys = batch_engine.detect_batch(masks, ordinals)

        assert batch_keys == loop_keys
        assert batch_engine.captures_seen == loop_engine.captures_seen
        assert batch_engine.overcounted == loop_engine.overcounted

    def test_detect_batch_empty(self):
        engine = DetectionEngine()
        assert engine.detect_batch([], []) == []
        assert engine.captures_seen == 0


# ----------------------------------------------------------------------
# Vectorized key derivation == scalar repro.det reference
# ----------------------------------------------------------------------
class TestVectorizedKeys:
    @settings(max_examples=30, deadline=None)
    @given(
        state=st.integers(0, 2**64 - 1),
        parts=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    )
    def test_fold64_arr_matches_fold64(self, state, parts):
        arr = _fold64_arr(
            state, np.array(parts, dtype=np.uint64), *map(int, parts)
        )
        expected = [fold64(state, p, *parts) for p in parts]
        assert arr.tolist() == expected

    @settings(max_examples=30, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8),
        position=st.integers(1, 6),
    )
    def test_draw_arr_matches_keyed_rand(self, keys, position):
        drawn = _draw_arr(np.array(keys, dtype=np.uint64), position)
        for value, key in zip(drawn.tolist(), keys):
            rng = KeyedRand(key)
            rng.skip(position - 1)
            assert value == rng.random()


# ----------------------------------------------------------------------
# The crawl kernel == the Capture row reference
# ----------------------------------------------------------------------
ORACLE_WINDOW = (dt.date(2020, 4, 1), dt.date(2020, 4, 4))

#: Every transient kind, each recoverable within FAST_TEST_POLICY.
TRANSIENT = FaultSchedule(
    seed=13,
    specs=(
        FaultSpec("dns-error", rate=0.15, attempts=1),
        FaultSpec("connection-reset", rate=0.12, attempts=2),
        FaultSpec("slow-response", rate=0.10, attempts=1),
        FaultSpec("antibot-challenge", rate=0.08, attempts=3),
    ),
)
#: Every row's first attempt fails, so every row takes the retry path.
RETRY_ALL = FaultSchedule(
    seed=13, specs=(FaultSpec("connection-reset", rate=1.0, attempts=1),)
)
PERMANENT = FaultSchedule(
    seed=13, specs=(FaultSpec("dns-error", rate=0.3, persistent=True),)
)
RETRY = {
    "none": None,
    "transient": FAST_TEST_POLICY,
    "retry-all": FAST_TEST_POLICY,
    "permanent": RetryPolicy(max_retries=2, jitter=0.0),
}
SCHEDULES = {
    "none": None,
    "transient": TRANSIENT,
    "retry-all": RETRY_ALL,
    "permanent": PERMANENT,
}


def accepted_events(stream, start, end):
    """The oracle stream's events the capture queue accepts, in order."""
    queue = CaptureQueue()
    day = start
    while day < end:
        for _row, event in oracle_day_events(stream, day):
            if queue.submit(event.url, event.at):
                yield event
        queue.prune(dt.datetime.combine(day, dt.time()) + dt.timedelta(days=1))
        day += dt.timedelta(days=1)


def reference_rows(world, stream, config, start, end):
    """Every accepted event crawled through ``crawl_url`` and compacted
    with ``to_observation``; vantage and queue delay come from a scalar
    :class:`KeyedRand` on the ``(seed, url, share time)`` event key.

    Returns ``(rows, total requests, failures)``.
    """
    engine = DetectionEngine()
    prefix = key64(config.seed, 5)
    rows, requests, failures = [], 0, 0
    for event in accepted_events(stream, start, end):
        at = event.at
        secs = at.hour * 3600 + at.minute * 60 + at.second
        rng = KeyedRand(fold64(prefix, event.url.h64, at.toordinal(), secs))
        region = "EU" if rng.random() < config.eu_share else "US"
        vantage = Vantage(region, "cloud")
        when = at + dt.timedelta(seconds=rng.randrange(60, 300))
        capture = run_with_retries(
            lambda attempt: crawl_url(
                world, event.url, when=when, vantage=vantage,
                profile=config.profile, faults=config.faults,
                attempt=attempt,
            ),
            key=f"{event.url}@{at.isoformat()}",
            policy=config.retry,
        )
        obs = capture.to_observation(engine.detect(capture).cmp_key)
        rows.append((obs.domain, obs.date, obs.cmp_key, obs.vantage))
        requests += capture.n_requests
        failures += not capture.succeeded
    return rows, requests, failures


class TestKernelOracle:
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("cutoff", [10.0, 120.0, 15.0])
    def test_kernel_rows_match_crawl_url(self, cutoff, schedule):
        world = World(WorldConfig(seed=11, n_domains=400))
        stream = SocialShareStream(world, StreamConfig(seed=3, events_per_day=80))
        config = PlatformConfig(
            seed=5,
            profile=CrawlProfile(name="oracle", cutoff=cutoff),
            faults=SCHEDULES[schedule],
            retry=RETRY[schedule],
        )
        platform = NetographPlatform(world, stream, config)
        store = platform.run(*ORACLE_WINDOW)
        rows, requests, failures = reference_rows(
            world, stream, config, *ORACLE_WINDOW
        )
        assert [
            (domain, dt.date.fromordinal(ordinal), cmp_key, VANTAGE_TABLE[vid])
            for domain, ordinal, cmp_key, vid in store.iter_rows()
        ] == rows
        assert store.total_requests == requests
        assert platform.stats.failures == failures
        assert any(cmp_key for _d, _o, cmp_key, _v in rows)
        if schedule != "none":
            assert platform.stats.faults.injected > 0


class TestRetryKey:
    """A faulted row's backoff is keyed on ``"<url>@<share time>"``,
    whichever path crawls it: the serial loop or the partition worker
    that generated the row itself."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_retry_key_is_url_at_share_time(self, monkeypatch, workers):
        keys = []

        def recording(attempt_fn, *, key, **kwargs):
            keys.append(key)
            return run_with_retries(attempt_fn, key=key, **kwargs)

        specs = []
        map_shards = executor_module.map_shards

        def recording_map_shards(fn, payloads, *args, **kwargs):
            specs.extend(payloads)
            return map_shards(fn, payloads, *args, **kwargs)

        monkeypatch.setattr(platform_module, "run_with_retries", recording)
        monkeypatch.setattr(executor_module, "map_shards", recording_map_shards)
        world = World(WorldConfig(seed=11, n_domains=400))
        stream = SocialShareStream(world, StreamConfig(seed=3, events_per_day=80))
        config = PlatformConfig(seed=5, faults=RETRY_ALL, retry=FAST_TEST_POLICY)
        NetographPlatform(world, stream, config).run(
            *ORACLE_WINDOW, workers=workers
        )
        # Worker processes record into their own memory, and a sharded
        # parent crawls nothing itself: replay the shard specs the
        # platform derived in this process to see their keys.
        assert not (keys and specs)
        for spec in specs:
            platform_module.crawl_social_shard(spec)
        assert bool(specs) == (workers > 1)
        assert sorted(keys) == sorted(
            f"{event.url}@{event.at.isoformat()}"
            for event in accepted_events(stream, *ORACLE_WINDOW)
        )


# ----------------------------------------------------------------------
# Columnar adoption path == object path
# ----------------------------------------------------------------------
class TestColumnarAdoption:
    def _store(self):
        world = World(WorldConfig(seed=7, n_domains=1500))
        stream = SocialShareStream(world, StreamConfig(events_per_day=250))
        platform = NetographPlatform(world, stream, PlatformConfig(seed=5))
        return platform.run(dt.date(2020, 4, 1), dt.date(2020, 4, 10))

    @staticmethod
    def _by_domain(store):
        """Rows as ``Observation`` objects grouped by domain in
        first-capture order, each group sorted by date (the object
        reference for the columnar grouping)."""
        groups = {}
        for domain, ordinal, cmp_key, vid in store.iter_rows():
            groups.setdefault(domain, []).append(
                Observation(
                    domain, dt.date.fromordinal(ordinal), cmp_key,
                    VANTAGE_TABLE[vid],
                )
            )
        for group in groups.values():
            group.sort(key=lambda o: o.date)
        return groups

    @classmethod
    def _via_observations(cls, store, restrict=None):
        wanted = None if restrict is None else set(restrict)
        return AdoptionSeries(
            timelines={
                domain: DomainTimeline.from_observations(domain, observations)
                for domain, observations in cls._by_domain(store).items()
                if wanted is None or domain in wanted
            }
        )

    def test_from_columnar_matches_from_store(self):
        store = self._store()
        via_objects = self._via_observations(store)
        via_columns = AdoptionSeries.from_columnar(store, None)
        assert list(via_columns.timelines) == list(via_objects.timelines)
        assert via_columns.timelines == via_objects.timelines
        assert via_columns.to_payload() == via_objects.to_payload()

    def test_from_columnar_restricted(self):
        store = self._store()
        restrict = list(self._by_domain(store))[::4] + ["never.example"]
        via_objects = self._via_observations(store, restrict)
        via_columns = AdoptionSeries.from_columnar(store, restrict)
        assert via_columns.to_payload() == via_objects.to_payload()
        assert list(store.domain_day_rows(restrict)) == restrict[:-1]

    def test_domain_day_rows_matches_by_domain(self):
        store = self._store()
        rows = store.domain_day_rows()
        by_domain = self._by_domain(store)
        assert list(rows) == list(by_domain)
        for domain, observations in by_domain.items():
            # Same multiset per domain; by_domain is date-sorted while
            # domain_day_rows keeps raw insertion order.
            key = lambda pair: (pair[0], pair[1] or "")
            assert sorted(rows[domain], key=key) == sorted(
                ((o.date.toordinal(), o.cmp_key) for o in observations),
                key=key,
            )


# ----------------------------------------------------------------------
# Vantage table plumbing
# ----------------------------------------------------------------------
class TestVantageTable:
    def test_vantage_id_roundtrip(self):
        for vantage, vid in VANTAGE_IDS.items():
            assert VANTAGE_TABLE[vid] == vantage
            assert vantage_id(vantage.region, vantage.address_space) == vid

    def test_observation_vantages_interned(self):
        ordinal = dt.date(2020, 1, 1).toordinal()
        store = store_from_rows(
            ("a.com", ordinal, None, VANTAGE_IDS[vantage])
            for vantage in VANTAGE_TABLE
        )
        assert [
            VANTAGE_TABLE[vid] for _d, _o, _c, vid in store.iter_rows()
        ] == list(VANTAGE_TABLE)
