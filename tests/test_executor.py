"""The sharded crawl executor and its determinism contract.

The load-bearing guarantee: for a fixed seed, the platform produces the
*identical* observation sequence no matter the worker count, backend, or
shard layout. This is what makes the parallel substrate trustworthy for
longitudinal analyses -- a re-run on different hardware can never shift a
figure.
"""

import datetime as dt

import pytest

from repro.core.pipeline import Study, StudyConfig
from repro.crawler.executor import (
    CrawlExecutor,
    ExecutorConfig,
    partition,
    partition_grouped,
)
from repro.crawler.platform import (
    CaptureStore,
    NetographPlatform,
    PlatformConfig,
)
from repro.core.adoption import DomainTimeline
from repro.crawler.columnar import VANTAGE_IDS
from repro.crawler.capture import EU_CLOUD, US_CLOUD
from repro.crawler.seeds import SocialShareStream, StreamConfig
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


def _run(study, executor=None):
    platform = _fresh_platform(study)
    store = platform.run(START, END, executor=executor)
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
    """Serial == threads == processes, observation for observation."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_matches_serial(self, study, serial_run, backend):
        serial_platform, serial_store = serial_run
        executor = CrawlExecutor(ExecutorConfig(workers=4, backend=backend))
        platform, store = _run(study, executor=executor)

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

    def test_serial_backend_config_stays_serial(self, study, serial_run):
        _, serial_store = serial_run
        executor = CrawlExecutor(ExecutorConfig(workers=4, backend="serial"))
        platform, store = _run(study, executor=executor)
        assert _keys(store) == _keys(serial_store)
        # No fan-out happened, so no executor stats are recorded.
        assert platform.stats.executor is None

    def test_executor_stats_populated(self, study, serial_run):
        executor = CrawlExecutor(ExecutorConfig(workers=4, backend="thread"))
        platform, store = _run(study, executor=executor)
        stats = platform.stats.executor
        assert stats is not None
        assert stats.backend == "thread"
        assert stats.workers == 4
        assert 1 <= stats.n_shards <= 4 * executor.config.shards_per_worker
        assert stats.crawls == platform.stats.crawls == store.n_captures
        assert stats.failures == platform.stats.failures
        assert sum(s.tasks for s in stats.shards) == store.n_captures
        assert stats.wall_seconds > 0
        assert stats.merge_seconds >= 0
        assert all(s.seconds >= 0 for s in stats.shards)

    def test_store_continuation_across_parallel_runs(self, study):
        executor = CrawlExecutor(ExecutorConfig(workers=2, backend="thread"))
        platform = _fresh_platform(study)
        store = platform.run(START, dt.date(2020, 4, 3), executor=executor)
        n_first = store.n_captures
        platform.run(
            dt.date(2020, 4, 3), dt.date(2020, 4, 5),
            store=store, executor=executor,
        )
        assert store.n_captures > n_first

        serial = _fresh_platform(study)
        serial_store = serial.run(START, dt.date(2020, 4, 5))
        assert _keys(store) == _keys(serial_store)

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


class TestShardDerivation:
    def test_partition_balanced_and_ordered(self):
        chunks = partition(list(range(10)), 3)
        assert chunks == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert partition([], 4) == []
        assert partition([1], 5) == [[1]]

    def test_partition_grouped_splits_at_day_edges(self):
        items = [(d, i) for d in range(4) for i in range(5)]
        chunks = partition_grouped(items, 2, key=lambda item: item[0])
        assert [item for chunk in chunks for item in chunk] == items
        assert len(chunks) == 2
        for chunk in chunks:
            days = [d for d, _ in chunk]
            # No day is split across chunks.
            assert days == sorted(days)
        boundary_days = {chunk[0][0] for chunk in chunks[1:]}
        for chunk in chunks[:-1]:
            assert chunk[-1][0] not in boundary_days

    def test_partition_grouped_falls_back_for_few_groups(self):
        items = [(0, i) for i in range(8)]
        chunks = partition_grouped(items, 4, key=lambda item: item[0])
        assert len(chunks) == 4
        assert [item for chunk in chunks for item in chunk] == items


class TestExecutorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutorConfig(workers=0)
        with pytest.raises(ValueError):
            ExecutorConfig(backend="quantum")
        with pytest.raises(ValueError):
            ExecutorConfig(shards_per_worker=0)

    def test_parallel_property(self):
        assert not ExecutorConfig(workers=1).parallel
        assert not ExecutorConfig(workers=8, backend="serial").parallel
        assert ExecutorConfig(workers=2, backend="thread").parallel
        assert ExecutorConfig(workers=2, backend="process").parallel

    def test_n_shards(self):
        config = ExecutorConfig(workers=4, backend="thread",
                                shards_per_worker=4)
        assert config.n_shards(1000) == 16
        assert config.n_shards(5) == 5
        assert config.n_shards(0) == 1
        assert ExecutorConfig(workers=1).n_shards(1000) == 1


class TestStudyWiring:
    def test_parallel_study_matches_serial_study(self):
        base = dict(seed=7, n_domains=1_000, toplist_size=100,
                    events_per_day=80)
        serial = Study(StudyConfig(**base))
        parallel = Study(
            StudyConfig(**base, parallelism=3, backend="thread")
        )
        window = (dt.date(2020, 4, 1), dt.date(2020, 4, 5))
        s_store = serial.run_social_crawl(*window)
        p_store = parallel.run_social_crawl(*window)
        assert _keys(p_store) == _keys(s_store)
        assert parallel.last_crawl_stats.executor is not None
        assert serial.last_crawl_stats.executor is None

    def test_executor_property(self):
        assert Study(StudyConfig(n_domains=1_000)).executor is None
        study = Study(
            StudyConfig(n_domains=1_000, parallelism=2, backend="process")
        )
        assert study.executor is not None
        assert study.executor.config.workers == 2
        assert study.executor.config.backend == "process"
