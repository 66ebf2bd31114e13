"""The two chaos invariants of ``repro.faults`` (see its docstring).

* **No schedule, no change** -- with fault injection wired into every
  layer but no (or an empty) schedule, runs are bit-identical to the
  fault-free pipeline.
* **Transient faults are free; permanent faults are conservative** --
  a transient-only schedule with enough retry budget reproduces the
  fault-free results exactly; permanent faults only ever undercount,
  and every lost crawl remains accounted for.

Runs are small (a week of events, dozens of domains) so the whole
module stays in tier-1 while also carrying the ``chaos`` marker for
the dedicated ``make chaos`` lane.
"""

import dataclasses
import datetime as dt

import pytest

from repro.crawler import executor
from repro.crawler.platform import NetographPlatform, PlatformConfig
from repro.crawler.seeds import SocialShareStream, StreamConfig
from repro.crawler.storage import (
    StorageError,
    load_store,
    save_store,
    segment_path,
    store_digest,
)
from repro.crawler.toplist_crawl import ToplistCrawler
from repro.faults import (
    CrashSpec,
    FaultSchedule,
    FaultSpec,
    RetryPolicy,
    WorkerCrash,
)
from repro.faults.retry import FAST_TEST_POLICY
from repro.obs import Observability
from tests.store_oracle import rows

pytestmark = pytest.mark.chaos

WINDOW = (dt.date(2020, 4, 1), dt.date(2020, 4, 8))
MAY = dt.date(2020, 5, 15)

#: Every transient kind at once, plus worker crashes, all recoverable
#: within FAST_TEST_POLICY's five retries. Every partition's worker
#: crashes once: a run has only as many partitions as workers.
TRANSIENT = FaultSchedule(
    seed=13,
    specs=(
        FaultSpec("dns-error", rate=0.15, attempts=1),
        FaultSpec("connection-reset", rate=0.12, attempts=2),
        FaultSpec("slow-response", rate=0.10, attempts=1),
        FaultSpec("antibot-challenge", rate=0.08, attempts=3),
    ),
    crash=CrashSpec(rate=1.0, attempts=1),
)

#: Probe-budget-safe variant: every spec clears after a single attempt,
#: so the three-try probe protocol always recovers the identical seed
#: URL (a longer transient could burn the whole probe budget and
#: conservatively lose the domain). The toplist crawl runs in-process,
#: so no worker crashes.
TOPLIST_TRANSIENT = dataclasses.replace(
    TRANSIENT,
    specs=tuple(
        dataclasses.replace(spec, attempts=1) for spec in TRANSIENT.specs
    ),
    crash=None,
)

PERMANENT = FaultSchedule(
    seed=13,
    specs=(FaultSpec("dns-error", rate=0.3, persistent=True),),
)


def run_platform(world, faults=None, retry=None, workers=1, obs=None):
    platform = NetographPlatform(
        world,
        stream=SocialShareStream(
            world, StreamConfig(seed=1, events_per_day=60)
        ),
        config=PlatformConfig(seed=2, faults=faults, retry=retry),
        obs=obs,
    )
    store = platform.run(*WINDOW, workers=workers)
    return platform, store


def doomed(payload):
    """A shard function whose worker dies on every attempt."""
    raise WorkerCrash(0, done=0)


@pytest.fixture(scope="module")
def baseline(world):
    """The fault-free social run every invariant compares against."""
    return run_platform(world)


class TestNoScheduleNoChange:
    def test_empty_schedule_is_bit_identical(self, world, baseline):
        # An *empty* schedule exercises the whole retry plumbing (the
        # run_with_retries wrapper, tallies, clock) without injecting
        # anything; the result must not change by a single bit.
        platform, store = run_platform(
            world, faults=FaultSchedule(seed=99), retry=FAST_TEST_POLICY
        )
        ref_platform, ref_store = baseline
        assert rows(store) == rows(ref_store)
        assert store_digest(store) == store_digest(ref_store)
        assert store.n_captures == ref_store.n_captures
        assert platform.stats.failures == ref_platform.stats.failures
        assert platform.stats.faults.injected == 0

    def test_empty_schedule_sharded_matches_too(self, world, baseline):
        _, store = run_platform(world, faults=FaultSchedule(seed=99), workers=3)
        assert rows(store) == rows(baseline[1])
        assert store_digest(store) == store_digest(baseline[1])


class TestTransientFaultsAreFree:
    def test_serial_recovery_is_bit_identical(self, world, baseline):
        schedule = dataclasses.replace(TRANSIENT, crash=None)
        platform, store = run_platform(
            world, faults=schedule, retry=FAST_TEST_POLICY
        )
        ref_platform, ref_store = baseline
        tally = platform.stats.faults
        assert tally.injected > 0  # chaos actually happened
        assert tally.recovered > 0
        assert tally.exhausted == 0  # budget covers every spec
        # ... and yet: the exact same dataset.
        assert rows(store) == rows(ref_store)
        assert store_digest(store) == store_digest(ref_store)
        assert store.total_requests == ref_store.total_requests
        assert platform.stats.failures == ref_platform.stats.failures

    @pytest.mark.parametrize("workers", [3], ids=["process"])
    def test_sharded_recovery_with_crashes(self, world, baseline, workers):
        platform, store = run_platform(
            world, faults=TRANSIENT, retry=FAST_TEST_POLICY, workers=workers
        )
        assert rows(store) == rows(baseline[1])
        assert store_digest(store) == store_digest(baseline[1])
        assert store.total_requests == baseline[1].total_requests
        # The crash schedule really killed workers mid-shard; the
        # checkpoint/resume path produced the identical result anyway.
        assert platform.stats.executor.resumes > 0
        assert platform.stats.faults.injected > 0

    def test_repeated_crashes_eventually_give_up(self):
        with pytest.raises(RuntimeError, match="giving up after 8 resumes"):
            executor.map_shards(
                doomed, [0], workers=2, resume=lambda p, c: p
            )

    def test_crash_without_resume_builder_propagates(self):
        with pytest.raises(WorkerCrash):
            executor.map_shards(doomed, [0], workers=2)


class TestPermanentFaultsAreConservative:
    def test_undercounts_never_invents(self, world, baseline):
        platform, store = run_platform(
            world, faults=PERMANENT, retry=RetryPolicy(max_retries=2,
                                                       jitter=0.0)
        )
        ref_platform, ref_store = baseline
        # Every crawl is still accounted for: exhausted retries record
        # a failed capture instead of dropping the work item.
        assert store.n_captures == ref_store.n_captures
        assert platform.stats.crawls == ref_platform.stats.crawls
        assert platform.stats.failures > ref_platform.stats.failures
        tally = platform.stats.faults
        assert tally.exhausted > 0
        assert tally.skip_reasons() == {"retries_exhausted": tally.exhausted}
        # CMP presence only shrinks -- a fault can hide a dialog, never
        # fabricate one.
        def with_cmp(some_store):
            return {d for d, _o, cmp_key, _v in rows(some_store) if cmp_key}

        assert with_cmp(store) <= with_cmp(ref_store)

    def test_exhaustion_surfaces_in_the_metrics(self, world):
        obs = Observability()
        platform, store = run_platform(
            world,
            faults=PERMANENT,
            retry=RetryPolicy(max_retries=1, jitter=0.0),
            obs=obs,
        )
        crawls = obs.metrics.counter("platform_crawls_total")
        ok = crawls.value(outcome="ok")
        failed = crawls.value(outcome="failed")
        exhausted = crawls.value(outcome="retries_exhausted")
        assert exhausted == platform.stats.faults.exhausted > 0
        # Outcome labels partition the crawls: nothing double-counted,
        # nothing dropped.
        assert ok + failed + exhausted == platform.stats.crawls
        faults = obs.metrics.counter("crawl_faults_total")
        assert faults.value(kind="dns-error") == platform.stats.faults.injected


class TestToplistChaos:
    CONFIGS = ("eu-univ-default", "us-cloud")

    def _domains(self, world):
        return [world.site(rank).domain for rank in range(1, 41)]

    def _run(self, world, **kwargs):
        crawler = ToplistCrawler(world, **kwargs)
        return crawler.run(self._domains(world), MAY, configs=self.CONFIGS)

    @pytest.fixture(scope="module")
    def toplist_baseline(self, world):
        return self._run(world)

    def _assert_same_crawl(self, result, baseline):
        """Equal rows and equal rendered captures, in toplist order."""
        assert result.rows == baseline.rows
        for name in self.CONFIGS:
            captures = result.captures_for(name)
            reference = baseline.captures_for(name)
            assert captures == reference
            assert list(captures) == list(reference)

    def test_empty_schedule_is_bit_identical(self, world, toplist_baseline):
        result = self._run(
            world, faults=FaultSchedule(seed=99), retry=FAST_TEST_POLICY
        )
        assert result.probes == toplist_baseline.probes
        self._assert_same_crawl(result, toplist_baseline)

    @staticmethod
    def _resolutions(probes):
        # ``succeeded_on_attempt`` reports which *try* resolved the
        # domain; faulted tries burn budget, so only the resolution
        # itself (seed URL + method) is invariant under faults.
        return [(p.domain, p.seed_url, p.method) for p in probes]

    def test_transient_recovery_is_bit_identical(
        self, world, toplist_baseline
    ):
        result = self._run(
            world, faults=TOPLIST_TRANSIENT, retry=FAST_TEST_POLICY
        )
        assert result.faults.injected > 0
        assert result.faults.exhausted == 0
        assert self._resolutions(result.probes) == self._resolutions(
            toplist_baseline.probes
        )
        self._assert_same_crawl(result, toplist_baseline)

    def test_permanent_faults_lose_domains_conservatively(
        self, world, toplist_baseline
    ):
        result = self._run(
            world, faults=PERMANENT, retry=RetryPolicy(max_retries=1,
                                                       jitter=0.0)
        )
        for name in self.CONFIGS:
            rows = result.rows[name]
            ref_rows = toplist_baseline.rows[name]
            captured = result.captures_for(name)
            ref = toplist_baseline.captures_for(name)
            # Probe faults may shrink the domain set, never grow it.
            assert set(captured) <= set(ref)
            assert list(rows) == list(captured)
            for domain, capture in captured.items():
                if capture.succeeded:
                    # A surviving success is the organic capture.
                    assert capture == ref[domain]
                    assert rows[domain] == ref_rows[domain]
                else:
                    assert capture.fault is not None or not ref[
                        domain
                    ].succeeded
                    # A lost row never invents a CMP.
                    assert rows[domain].cmp_key in (
                        None, ref_rows[domain].cmp_key,
                    )


class TestCheckpointStorage:
    """A corrupt segment's error names both the unit and the file."""

    def _store(self, world):
        _, store = run_platform(world)
        return store

    def test_checkpoint_round_trip(self, world, tmp_path):
        store = self._store(world)
        path = segment_path(tmp_path, 3)
        save_store(store, path)
        loaded = load_store(path, context="shard 3")
        assert rows(loaded) == rows(store)
        assert loaded.n_captures == store.n_captures
        assert store_digest(loaded) == store_digest(store)

    def test_corrupt_checkpoint_names_shard_and_file(self, world, tmp_path):
        store = self._store(world)
        path = segment_path(tmp_path, 7)
        save_store(store, path)
        corrupted = path.read_bytes().replace(b'"domains"', b'"dom', 1)
        path.write_bytes(corrupted)
        with pytest.raises(StorageError) as excinfo:
            load_store(path, context="shard 7")
        message = str(excinfo.value)
        assert "shard 7" in message
        assert "segment-0007.seg" in message

    def test_truncated_checkpoint_names_shard_and_file(
        self, world, tmp_path
    ):
        store = self._store(world)
        path = segment_path(tmp_path, 4)
        save_store(store, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(StorageError, match=r"shard 4: .*segment-0004"):
            load_store(path, context="shard 4")
