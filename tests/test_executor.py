"""The sharded crawl executor and its determinism contract.

The load-bearing guarantee: for a fixed seed, the platform produces the
*identical* observation sequence no matter the worker count or shard
layout. This is what makes the parallel substrate trustworthy for
longitudinal analyses -- a re-run on different hardware can never shift a
figure.
"""

import datetime as dt
import os
import time

import pytest

from repro.core.pipeline import Study, StudyConfig
from repro.crawler import executor
from repro.crawler.platform import (
    CaptureStore,
    NetographPlatform,
    PlatformConfig,
    accept,
)
from repro.core.adoption import DomainTimeline
from repro.crawler.columnar import VANTAGE_IDS
from repro.crawler.capture import EU_CLOUD, US_CLOUD
from repro.crawler.queue import CaptureQueue
from repro.crawler.seeds import SocialShareStream, StreamConfig
from repro.crawler.spill import SpillingCaptureStore
from repro.crawler.storage import store_digest
from repro.faults import WorkerCrash
from repro.net.psl import default_psl
from repro.web.worldgen import World, WorldConfig
from tests.store_oracle import rows, store_from_rows

START = dt.date(2020, 4, 1)
END = dt.date(2020, 4, 7)


def _fresh_platform(study):
    return NetographPlatform(
        study.world,
        stream=SocialShareStream(
            study.world, StreamConfig(seed=11, events_per_day=150)
        ),
        config=PlatformConfig(seed=23),
    )


def _run(study, workers=1):
    platform = _fresh_platform(study)
    store = platform.run(START, END, workers=workers)
    return platform, store


def _keys(store):
    """Fully comparable projection of the row sequence."""
    return rows(store)


def _with_cmp(store):
    return sorted({d for d, _o, cmp_key, _v in rows(store) if cmp_key})


@pytest.fixture(scope="module")
def serial_run(study):
    return _run(study)


class TestDeterminism:
    """Serial == processes, observation for observation."""

    @pytest.mark.parametrize("workers", [4], ids=["process"])
    def test_parallel_matches_serial(self, study, serial_run, workers):
        serial_platform, serial_store = serial_run
        platform, store = _run(study, workers=workers)

        assert _keys(store) == _keys(serial_store)
        assert store.n_captures == serial_store.n_captures
        assert store.total_requests == serial_store.total_requests
        assert store.unique_domains == serial_store.unique_domains
        assert _with_cmp(store) == _with_cmp(serial_store)
        assert platform.stats.events == serial_platform.stats.events
        assert platform.stats.crawls == serial_platform.stats.crawls
        assert platform.stats.failures == serial_platform.stats.failures
        assert (
            platform.queue.stats.skip_rate
            == serial_platform.queue.stats.skip_rate
        )

    def test_executor_stats_populated(self, study, serial_run):
        platform, store = _run(study, workers=4)
        stats = platform.stats.executor
        assert stats is not None
        assert stats.workers == 4
        # One partition per worker, each dealt its share of every day's
        # 150 candidate events.
        assert stats.n_shards == 4
        assert stats.crawls == platform.stats.crawls == store.n_captures
        assert stats.failures == platform.stats.failures
        assert sum(s.tasks for s in stats.shards) == (END - START).days * 150
        assert stats.wall_seconds > 0
        assert stats.merge_seconds >= 0
        assert all(s.seconds >= 0 for s in stats.shards)
        # Every shard's spec was pickled to reach its worker process.
        assert all(s.payload_bytes > 0 for s in stats.shards)

    def test_store_continuation_across_parallel_runs(self, study):
        platform = _fresh_platform(study)
        store = platform.run(START, dt.date(2020, 4, 3), workers=2)
        n_first = store.n_captures
        platform.run(
            dt.date(2020, 4, 3), dt.date(2020, 4, 5), store=store, workers=2
        )
        assert store.n_captures > n_first

        serial = _fresh_platform(study)
        serial_store = serial.run(START, dt.date(2020, 4, 5))
        assert _keys(store) == _keys(serial_store)
        # The partitions' cooldowns fold back in serial insertion order.
        assert platform.queue.state_payload() == serial.queue.state_payload()
        assert platform._capture_id == serial._capture_id

    def test_vantage_independent_of_history(self, study):
        """An event's vantage must not depend on how many crawls ran
        before it: a run over a superset window assigns the same vantage
        to the shared days."""
        short = _fresh_platform(study).run(START, dt.date(2020, 4, 2))
        long = _fresh_platform(study).run(START, dt.date(2020, 4, 4))
        n = short.n_rows
        assert _keys(short) == _keys(long)[:n]


class TestCaptureStoreMerge:
    @staticmethod
    def _row(domain, day, cmp_key=None, vantage=EU_CLOUD):
        return (
            domain, dt.date(2020, 4, day).toordinal(), cmp_key,
            VANTAGE_IDS[vantage],
        )

    @staticmethod
    def _days(store, domain):
        return [
            dt.date.fromordinal(ordinal).day
            for ordinal, _cmp in store.domain_day_rows()[domain]
        ]

    def test_merge_combines_counts_and_buckets(self):
        a = store_from_rows(
            [self._row("x.com", 1), self._row("y.com", 2, "onetrust")],
            requests=5,
        )
        b = store_from_rows(
            [self._row("x.com", 3),
             self._row("z.com", 1, "quantcast", US_CLOUD)],
            requests=[3, 4],
        )
        a.merge(b)
        assert a.n_captures == 4
        assert a.total_requests == 17
        assert a.n_rows == 4
        assert a.unique_domains == 3
        assert self._days(a, "x.com") == [1, 3]
        assert _with_cmp(a) == ["y.com", "z.com"]
        assert rows(a)[-1] == self._row("z.com", 1, "quantcast", US_CLOUD)

    def test_merge_resorts_out_of_order_dates(self):
        a = store_from_rows([self._row("x.com", 5)])
        b = store_from_rows([self._row("x.com", 2), self._row("x.com", 9)])
        a.merge(b)
        # Rows keep insertion order; the adoption timeline re-sorts them.
        assert self._days(a, "x.com") == [5, 2, 9]
        timeline = DomainTimeline.from_day_rows(
            "x.com", a.domain_day_rows()["x.com"], interpolate=False,
            fade_out_days=0,
        )
        assert [iv.start.day for iv in timeline.intervals] == [2, 5, 9]

    def test_in_order_appends_keep_insertion_order(self):
        store = CaptureStore()
        for day in (1, 2, 3):
            store_from_rows([self._row("x.com", day)], store=store)
        assert self._days(store, "x.com") == [1, 2, 3]

    def test_snapshots_are_immutable(self):
        store = store_from_rows([self._row("x.com", 1)])
        first = store.domain_day_rows()
        store_from_rows(
            [self._row("x.com", 2), self._row("y.com", 1)], store=store
        )
        second = store.domain_day_rows()
        assert first is not second
        assert len(first["x.com"]) == 1
        assert "y.com" not in first
        assert len(second["x.com"]) == 2

    def test_merge_respects_snapshot_immutability(self):
        a = store_from_rows([self._row("x.com", 1)])
        snapshot = a.domain_day_rows()
        a.merge(store_from_rows([self._row("x.com", 2)]))
        assert len(snapshot["x.com"]) == 1
        assert len(a.domain_day_rows()["x.com"]) == 2


def _marker_shard(payload):
    """Shard 0 waits for a marker only shard 1's resumed attempt
    writes; shard 1's first attempt crashes at once."""
    shard, marker, attempt = payload
    if shard == 1:
        if attempt == 0:
            raise WorkerCrash(1, done=0)
        with open(marker, "w") as handle:
            handle.write("resumed")
        return True
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        if os.path.exists(marker):
            return True
        time.sleep(0.01)
    return False


class TestMapShards:
    def test_crashed_shard_resumes_while_earlier_shards_run(self, tmp_path):
        marker = str(tmp_path / "marker")
        results, _seconds, _wall, resumes = executor.map_shards(
            _marker_shard,
            [(0, marker, 0), (1, marker, 0)],
            workers=2,
            resume=lambda payload, crash: (payload[0], payload[1], 1),
        )
        assert results == [True, True]
        assert resumes == [0, 1]


class TestPartitions:
    """Why a partition of the sites dedups alone: its events share no
    registrable domain and no URL with any other partition."""

    @pytest.mark.parametrize("seed", [7, 11])
    def test_shared_sites_have_distinct_rank_owned_domains(self, seed):
        world = World(WorldConfig(seed=seed, n_domains=3_000))
        stream = SocialShareStream(world)
        psl = default_psl()
        owners = {}
        for rank in range(1, world.n_domains + 1):
            site = world.site(rank)
            if site.share_weight <= 0.0:
                continue
            domain = psl.registrable_domain(site.domain) or site.domain
            assert domain != world.config.shortener_domain
            assert owners.setdefault(domain, rank) == rank
            for parts in range(1, 6):
                assert stream.partition_of(domain, parts) == rank % parts
        assert len(owners) > 1_000

    @pytest.mark.parametrize("parts", [1, 2, 3, 4, 5])
    def test_partitions_split_each_day_and_its_acceptances(
        self, study, parts
    ):
        stream = SocialShareStream(
            study.world, StreamConfig(seed=5, events_per_day=400)
        )
        serial, queues = CaptureQueue(), CaptureQueue().split(
            lambda domain: stream.partition_of(domain, parts), parts
        )
        for offset in range(3):
            day = START + dt.timedelta(days=offset)
            full = stream.events_for_day(day)
            batches = [
                stream.events_for_day(day, part, parts)
                for part in range(parts)
            ]
            candidates = [
                stream.partition_rows(day, part, parts).tolist()
                for part in range(parts)
            ]
            assert sorted(sum(candidates, [])) == list(range(400))
            merged = sorted(
                (row, url)
                for batch in batches
                for row, url in zip(batch.rows.tolist(), batch.urls)
            )
            assert merged == list(zip(full.rows.tolist(), full.urls))
            expected = accept(serial, full).rows.tolist()
            got = sorted(
                row
                for queue, batch in zip(queues, batches)
                for row in accept(queue, batch).rows.tolist()
            )
            assert got == expected
            midnight = dt.datetime.combine(day, dt.time())
            serial.prune(midnight + dt.timedelta(days=1))
            for queue in queues:
                queue.prune(midnight + dt.timedelta(days=1))
        folded = CaptureQueue()
        folded.fold(queues)
        assert folded.state_payload() == serial.state_payload()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_budgeted_partitions_reproduce_serial(self, study, workers):
        budget = 40
        serial = _fresh_platform(study).run(START, END)
        platform = NetographPlatform(
            study.world,
            stream=SocialShareStream(
                study.world, StreamConfig(seed=11, events_per_day=150)
            ),
            config=PlatformConfig(seed=23, memory_budget=budget),
        )
        store = platform.run(START, END, workers=workers)
        assert isinstance(store, SpillingCaptureStore)
        # Each partition held more rows than the budget, so partition
        # stores spilled inside the workers.
        assert all(
            shard.crawls > budget for shard in platform.stats.executor.shards
        )
        assert store.n_segments > 0
        assert store.active_store().n_rows <= budget
        assert store_digest(store) == store_digest(serial)


class TestStudyWiring:
    def test_parallel_study_matches_serial_study(self):
        base = dict(seed=7, n_domains=1_000, toplist_size=100,
                    events_per_day=80)
        serial = Study(StudyConfig(**base))
        parallel = Study(StudyConfig(**base, parallelism=3))
        window = (dt.date(2020, 4, 1), dt.date(2020, 4, 5))
        s_store = serial.run_social_crawl(*window)
        p_store = parallel.run_social_crawl(*window)
        assert _keys(p_store) == _keys(s_store)
        assert parallel.last_crawl_stats.executor is not None
        assert serial.last_crawl_stats.executor is None

    def test_platform_rejects_zero_workers(self, study):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            _fresh_platform(study).run(START, END, workers=0)
