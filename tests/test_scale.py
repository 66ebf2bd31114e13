"""Flat-RSS scale-out invariants: bounded caches, spills, partitions.

The scale-out contract has two halves. Correctness: bounding the world
memo caches, spilling full capture segments to disk, and generating
each partition's events in its own worker are all *bit-invisible* --
every digest and every resolution is identical to the unbounded
in-memory run, serial or on worker processes, with or without worker
crashes. Capacity: memory actually stays bounded -- the negative host
cache cannot outgrow its cap, and the spilling store's footprint is set
by the row budget, not the row count.
"""

import dataclasses
import datetime as dt
import gc
import itertools
import pathlib
import pickle
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import Study, StudyConfig
from repro.crawler.columnar import CaptureStore
from repro.crawler.platform import (
    NetographPlatform,
    PlatformConfig,
    SocialShardSpec,
    crawl_social_shard,
    resume_social_shard,
)
from repro.crawler.queue import CaptureQueue
from repro.crawler.seeds import SocialShareStream, StreamConfig
from repro.crawler.spill import SpillingCaptureStore
from repro.crawler.storage import store_digest
from repro.faults import CrashSpec, FaultSchedule, FaultSpec, WorkerCrash
from repro.faults.retry import FAST_TEST_POLICY
from repro.memo import MISSING, BoundedMemo, MemoCounts
from repro.obs import Observability
from repro.web.worldgen import (
    UNBOUNDED_CACHE_LIMITS,
    CacheLimits,
    World,
    WorldConfig,
)
from tests.store_oracle import rows, store_from_rows

WINDOW = (dt.date(2020, 3, 1), dt.date(2020, 3, 8))

#: Small enough to force constant eviction on a 300-domain world.
TINY_LIMITS = CacheLimits(sites=8, hosts=8, negative_hosts=4, share_urls=8)


#: Transient faults plus worker crashes, all recoverable by retrying.
#: Every partition's worker crashes once: a run has only as many
#: partitions as workers.
TRANSIENT = FaultSchedule(
    seed=13,
    specs=(
        FaultSpec("dns-error", rate=0.15, attempts=1),
        FaultSpec("connection-reset", rate=0.12, attempts=2),
    ),
    crash=CrashSpec(rate=1.0),
)


def small_config(**overrides):
    base = dict(
        seed=13,
        n_domains=700,
        toplist_size=60,
        events_per_day=25,
        study_start=WINDOW[0],
        study_end=WINDOW[1],
    )
    base.update(overrides)
    return StudyConfig(**base)


# ----------------------------------------------------------------------
# BoundedMemo: the eviction primitive under everything else
# ----------------------------------------------------------------------
class TestBoundedMemo:
    def test_evicts_oldest_insertion(self):
        memo = BoundedMemo(maxsize=2)
        memo["a"] = 1
        memo["b"] = 2
        assert memo.get("a") == 1  # a hit does not refresh "a"
        memo["c"] = 3
        assert memo.get("a", MISSING) is MISSING
        assert (memo.get("b"), memo.get("c")) == (2, 3)
        assert memo.evictions == 1

    def test_replacing_a_value_keeps_its_place(self):
        memo = BoundedMemo(maxsize=2)
        memo["a"] = 1
        memo["b"] = 2
        memo["a"] = 10
        assert (len(memo), memo.evictions) == (2, 0)
        memo["c"] = 3
        assert memo.get("a", MISSING) is MISSING
        assert memo.get("b") == 2
        # Past the first overflow too: a replaced key is not queued twice.
        memo["b"] = 20
        memo["d"] = 4
        memo["e"] = 5
        assert memo.get("c", MISSING) is MISSING
        assert (memo.get("d"), memo.get("e"), len(memo)) == (4, 5, 2)
        assert memo.evictions == 3

    def test_unbounded_mode_never_evicts(self):
        memo = BoundedMemo(maxsize=None)
        for i in range(1000):
            memo[i] = i
        assert len(memo) == 1000
        assert memo.evictions == 0

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            BoundedMemo(maxsize=0)

    def test_overflow_counts_evictions(self):
        memo = BoundedMemo(maxsize=2)
        for i in range(5):
            memo[i] = i
        assert [memo.get(i, MISSING) for i in range(5)] == [
            MISSING, MISSING, MISSING, 3, 4
        ]
        assert memo.evictions == 3

    @settings(max_examples=50, deadline=None)
    @given(
        maxsize=st.integers(1, 12),
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 40)), max_size=300
        ),
    )
    def test_bound_holds_and_every_lookup_is_counted(self, maxsize, ops):
        """Under churn the memo never exceeds its bound, holds exactly
        the newest *maxsize* distinct insertions, and counts every
        lookup as one hit or one miss."""
        memo = BoundedMemo(maxsize=maxsize)
        inserted = []  # distinct keys, oldest first (FIFO oracle)
        lookups = 0
        for is_lookup, key in ops:
            if is_lookup:
                lookups += 1
                expected = key if key in inserted[-maxsize:] else MISSING
                assert memo.get(key, MISSING) == expected
            else:
                if key not in inserted[-maxsize:]:  # else a replacement
                    inserted.append(key)
                memo[key] = key
            assert len(memo) <= maxsize
        assert memo.hits + memo.misses == lookups
        live = len(inserted[-maxsize:])
        assert memo.counts() == MemoCounts(
            memo.hits, memo.misses, len(inserted) - live, live
        )


# ----------------------------------------------------------------------
# Bounded world caches are bit-invisible
# ----------------------------------------------------------------------
class TestBoundedWorldBitIdentity:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 30),
        ranks=st.lists(st.integers(1, 300), min_size=1, max_size=50),
    )
    def test_sites_identical_under_tiny_caches(self, seed, ranks):
        """Eviction + regenerate-on-miss returns value-identical sites."""
        bounded = World(
            WorldConfig(seed=seed, n_domains=300), cache_limits=TINY_LIMITS
        )
        unbounded = World(
            WorldConfig(seed=seed, n_domains=300),
            cache_limits=UNBOUNDED_CACHE_LIMITS,
        )
        # Forward pass populates; the reversed pass revisits ranks the
        # tiny cache has long evicted (Website is a frozen dataclass,
        # so == is full value equality).
        for rank in itertools.chain(ranks, reversed(ranks)):
            assert bounded.site(rank) == unbounded.site(rank)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 20), hosts=st.data())
    def test_host_resolution_identical_under_tiny_caches(self, seed, hosts):
        bounded = World(
            WorldConfig(seed=seed, n_domains=200), cache_limits=TINY_LIMITS
        )
        unbounded = World(
            WorldConfig(seed=seed, n_domains=200),
            cache_limits=UNBOUNDED_CACHE_LIMITS,
        )
        candidates = [f"www.{bounded.site(r).domain}" for r in (1, 5, 40)]
        candidates += [f"ghost-{i}.external.test" for i in range(6)]
        picks = hosts.draw(
            st.lists(st.sampled_from(candidates), min_size=1, max_size=40)
        )
        for host in picks:
            a = bounded.host_to_site(host)
            b = unbounded.host_to_site(host)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.rank == b.rank

    @pytest.mark.parametrize("seed", [3, 11])
    def test_domain_resolution_identical_after_eviction(self, seed):
        """Normal and alias domains whose sites the tiny memo evicted
        resolve as in the unbounded world: the rank comes from the
        domain's base-36 tag, not from a memo beside the sites."""
        config = WorldConfig(seed=seed, n_domains=300)
        bounded = World(config, cache_limits=TINY_LIMITS)
        unbounded = World(config, cache_limits=UNBOUNDED_CACHE_LIMITS)
        sites = [unbounded.site(rank) for rank in range(1, 301)]
        aliases = [site for site in sites if site.redirects_to is not None]
        normal = [
            site for site in sites
            if site.redirects_to is None and site.share_weight > 0.0
        ]
        assert aliases and normal
        picked = aliases + normal[::10]
        for site in picked:
            bounded.site(site.rank)
        assert bounded.cache_info()["sites"].evictions > len(picked) - 8
        domains = [site.domain for site in picked]
        domains += [site.redirects_to for site in aliases]
        domains += ["newswire-zz.com", "not-a-world-domain.test"]
        for domain in domains + [domain.upper() for domain in domains]:
            assert bounded.site_by_domain(domain) == unbounded.site_by_domain(
                domain
            )
            for host in (domain, f"www.{domain}"):
                assert bounded.host_to_site(host) == unbounded.host_to_site(
                    host
                )

    @pytest.mark.parametrize(
        "limits", [UNBOUNDED_CACHE_LIMITS, TINY_LIMITS], ids=["unbounded", "tiny"]
    )
    def test_tags_ending_in_alt_resolve_to_their_own_site(self, limits):
        """Rank 13,745 is "alt" in base 36 and rank 60,401 is "1alt",
        the alias tag of rank 1. A world that has not generated them
        resolves their domains to their own sites, routes them to their
        own rank's partition, and still resolves alias domains."""
        config = WorldConfig(seed=17, n_domains=60_401)
        oracle = World(config, cache_limits=UNBOUNDED_CACHE_LIMITS)
        for rank in (13_745, 60_401):
            site = oracle.site(rank)
            world = World(config, cache_limits=limits)
            assert world.site_by_domain(site.domain.upper()) == site
            assert world.host_to_site(f"www.{site.domain}") == site
            stream = SocialShareStream(world)
            for parts in (2, 3, 4, 5):
                assert stream.partition_of(site.domain, parts) == rank % parts
        aliases = [
            site for site in map(oracle.site, range(1, 400))
            if site.redirects_to is not None
        ]
        assert aliases
        world = World(config, cache_limits=limits)
        for alias in aliases:
            assert world.site_by_domain(alias.domain) == alias

    def test_cmp_history_never_inserts_into_the_site_memo(self):
        world = World(
            WorldConfig(seed=7, n_domains=300), cache_limits=TINY_LIMITS
        )
        memo = world.cache_info()["sites"]
        for rank in range(1, 301):
            world.cmp_history(rank)
        assert memo.counts() == MemoCounts(0, 300, 0, 0)
        for rank in (1, 2, 3):
            world.site(rank)
        held = len(memo)
        for rank in range(1, 301):
            world.cmp_history(rank)
        assert len(memo) == held and memo.evictions == 0

    def test_study_digest_identical_with_bounded_worker_worlds(self):
        study = Study(small_config())
        baseline = store_digest(study.run_social_crawl())
        limits = CacheLimits(
            sites=64, hosts=64, negative_hosts=16, share_urls=64
        )
        config = study.config
        for workers in (1, 2):
            # Same platform wiring as Study.run_social_crawl, over a
            # bounded world; forked workers inherit it.
            world = World(study.world.config, cache_limits=limits)
            platform = NetographPlatform(
                world,
                stream=SocialShareStream(
                    world,
                    StreamConfig(
                        seed=config.seed + 1,
                        events_per_day=config.events_per_day,
                    ),
                ),
                config=PlatformConfig(seed=config.seed + 2),
            )
            bounded = platform.run(*WINDOW, workers=workers)
            assert store_digest(bounded) == baseline
            info = world.cache_info()
            if workers == 1:
                assert len(info["sites"]) <= 64
                assert info["sites"].evictions > 0
            else:
                # The parent only merges: the workers generate every
                # site, in their inherited copies of the bounded world.
                assert len(info["sites"]) == 0


# ----------------------------------------------------------------------
# Spilling store: bit-identical, cacheable, bounded
# ----------------------------------------------------------------------
class TestSpillBitIdentity:
    @pytest.mark.parametrize(
        "parallelism", [1, 3, 2], ids=["serial-1", "process-3", "process-2"]
    )
    def test_spill_digest_matches_plain(self, parallelism):
        plain = Study(small_config(parallelism=parallelism)).run_social_crawl()
        spilled = Study(
            small_config(parallelism=parallelism, memory_budget=40)
        ).run_social_crawl()
        try:
            assert isinstance(spilled, SpillingCaptureStore)
            if parallelism == 1:
                assert spilled.n_segments > 0
            assert store_digest(spilled) == store_digest(plain)
        finally:
            spilled.cleanup()

    def test_serial_spill_under_fault_schedule(self):
        """Serial runs cannot crash, so the budget holds under chaos."""
        chaos = dict(faults=TRANSIENT, retry=FAST_TEST_POLICY)
        plain = Study(small_config(**chaos)).run_social_crawl()
        study = Study(small_config(memory_budget=40, **chaos))
        spilled = study.run_social_crawl()
        try:
            assert isinstance(spilled, SpillingCaptureStore)
            assert spilled.n_segments > 0
            assert study.last_crawl_stats.faults.injected > 0
            assert store_digest(spilled) == store_digest(plain)
        finally:
            spilled.cleanup()

    @pytest.mark.parametrize("parallelism", [2], ids=["process"])
    def test_crash_free_sharded_spill_under_faults(self, parallelism):
        chaos = dict(
            faults=dataclasses.replace(TRANSIENT, crash=None),
            retry=FAST_TEST_POLICY,
            parallelism=parallelism,
        )
        plain = Study(small_config(**chaos)).run_social_crawl()
        spilled = Study(
            small_config(memory_budget=40, **chaos)
        ).run_social_crawl()
        try:
            assert isinstance(spilled, SpillingCaptureStore)
            assert store_digest(spilled) == store_digest(plain)
        finally:
            spilled.cleanup()

    @pytest.mark.chaos
    @pytest.mark.parametrize("workers", [2, 3])
    def test_budget_holds_when_workers_crash(
        self, tmp_path, monkeypatch, workers
    ):
        """Crashed shards resume from checkpoints that carry spilled
        segments, and the result is still the fault-free serial run."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        budget = 2
        plain = Study(small_config()).run_social_crawl()
        study = Study(
            small_config(
                faults=TRANSIENT,
                retry=FAST_TEST_POLICY,
                parallelism=workers,
                memory_budget=budget,
            )
        )
        spilled = study.run_social_crawl()
        assert store_digest(spilled) == store_digest(plain)
        shards = study.last_crawl_stats.executor.shards
        assert sum(shard.resumes for shard in shards) > 0
        # Some shard crashed past the budget the first time, so its
        # checkpoint carried spilled segments into the resumed worker.
        assert any(
            (TRANSIENT.crash_point(shard.shard_id, shard.tasks, 0) or 0)
            >= budget
            for shard in shards
            if shard.resumes
        )
        del spilled
        gc.collect()
        assert list(tmp_path.glob("repro-spill-*")) == []

    def test_spill_cold_warm_cache_round_trip(self, tmp_path):
        reference = Study(small_config()).run_social_crawl()
        config = small_config(
            cache_dir=str(tmp_path / "cache"), memory_budget=40
        )
        cold = Study(config).run_social_crawl()
        try:
            cold_digest = store_digest(cold)
        finally:
            cold.cleanup()
        warm = Study(config).run_social_crawl()
        assert store_digest(warm) == cold_digest == store_digest(reference)

    def test_spilling_store_peak_is_set_by_budget_not_rows(self, tmp_path):
        """tracemalloc smoke: same feed, ~unbounded vs budgeted peaks."""
        n_rows = 40_000

        def feed(store):
            for start in range(0, n_rows, 500):
                store_from_rows(
                    (
                        (
                            f"domain-{i % 20_000}.example",
                            730_000 + (i % 90),
                            ("onetrust", "quantcast", None)[i % 3],
                            i % 4,
                        )
                        for i in range(start, start + 500)
                    ),
                    store=store,
                )

        tracemalloc.start()
        plain = CaptureStore()
        feed(plain)
        plain_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        tracemalloc.start()
        spilling = SpillingCaptureStore(2_000)
        feed(spilling)
        spill_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        assert spilling.n_rows == plain.n_rows == n_rows
        assert spilling.n_segments >= n_rows // 2_000 - 1
        assert spill_peak < plain_peak / 2
        # Bounded observation did not corrupt anything: byte-identical.
        assert store_digest(spilling) == store_digest(plain)
        spilling.cleanup()


class TestSpillStoreAPI:
    """The facade's full surface, against plain-store ground truth."""

    def _fill(self, store, n=10):
        for i in range(n):
            store_from_rows(
                [(f"site-{i % 4}.example", 737_000 + i,
                  "onetrust" if i % 2 else None, i % 6)],
                requests=2,
                store=store,
            )

    def test_row_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="row_budget must be >= 1"):
            SpillingCaptureStore(0)

    def test_merge_accepts_plain_and_spilling(self):
        reference = CaptureStore()
        self._fill(reference, 20)

        donor_plain = CaptureStore()
        self._fill(donor_plain, 20)
        donor_spill = SpillingCaptureStore(3)
        self._fill(donor_spill, 20)

        a = SpillingCaptureStore(3)
        a.merge(donor_plain)
        b = SpillingCaptureStore(3)
        b.merge(donor_spill)
        assert store_digest(a) == store_digest(b) == store_digest(reference)

    def test_streaming_reads_cross_segment_boundaries(self):
        plain = CaptureStore()
        self._fill(plain, 17)
        spilling = SpillingCaptureStore(5)
        self._fill(spilling, 17)
        assert list(spilling.iter_rows()) == list(plain.iter_rows())
        for cursor in (0, 4, 5, 12, 17):
            assert spilling.rows_since(cursor) == plain.rows_since(cursor)
        with pytest.raises(ValueError):
            spilling.rows_since(-1)

    def test_whole_store_reads_match_plain(self):
        plain = CaptureStore()
        self._fill(plain, 12)
        spilling = SpillingCaptureStore(4)
        self._fill(spilling, 12)
        assert spilling.n_segments == 3
        assert spilling.unique_domains == plain.unique_domains
        assert spilling.domain_day_rows() == plain.domain_day_rows()
        assert rows(spilling) == rows(plain)
        assert spilling.total_requests == plain.total_requests == 24

    def test_pickle_round_trip_moves_directory_ownership(self):
        import pickle

        spilling = SpillingCaptureStore(4)
        self._fill(spilling, 12)
        directory = pathlib.Path(spilling.segment_paths()[0]).parent
        digest = store_digest(spilling)
        clone = pickle.loads(pickle.dumps(spilling))
        del spilling
        gc.collect()
        assert directory.is_dir()  # the clone owns it now
        assert store_digest(clone) == digest
        del clone
        gc.collect()
        assert not directory.exists()

    def test_cleanup_tolerates_missing_files_and_shared_dirs(
        self, tmp_path, monkeypatch
    ):
        # TMPDIR is the shared directory; the store owns only its
        # private repro-spill-* directory inside it.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        spilling = SpillingCaptureStore(2)
        self._fill(spilling, 6)
        paths = [pathlib.Path(p) for p in spilling.segment_paths()]
        assert paths and all(p.exists() for p in paths)
        assert paths[0].parent.parent == tmp_path
        paths[0].unlink()  # already-gone segment must not raise
        (tmp_path / "unrelated.txt").write_text("keep")
        spilling.cleanup()
        assert not paths[0].parent.exists()
        assert (tmp_path / "unrelated.txt").exists()  # shared dir kept

    def test_empty_store_never_spills(self):
        spilling = SpillingCaptureStore(1)
        spilling.merge(CaptureStore())  # triggers the empty-spill check
        assert spilling.n_segments == 0
        assert spilling.n_rows == 0


# ----------------------------------------------------------------------
# Negative host cache: bounded, still correct after eviction
# ----------------------------------------------------------------------
class TestNegativeHostCache:
    def test_unknown_hosts_cannot_grow_the_cache_past_its_cap(self):
        world = World(
            WorldConfig(seed=3, n_domains=200),
            cache_limits=CacheLimits(negative_hosts=16),
        )
        misses = [f"gone-{i}.external.test" for i in range(100)]
        for host in misses:
            assert world.host_to_site(host) is None
        negative = world.cache_info()["negative_hosts"]
        assert len(negative) <= 16
        assert negative.evictions >= len(misses) - 16
        # Evicted misses re-resolve to the same answer...
        assert world.host_to_site(misses[0]) is None
        # ...and positive resolution is untouched by the churn.
        site = world.site(7)
        resolved = world.host_to_site(f"www.{site.domain}")
        assert resolved is not None and resolved.rank == 7


# ----------------------------------------------------------------------
# Partitions: each worker generates its own sites, and resumes exactly
# ----------------------------------------------------------------------
def _partition_spec(world, stream_config, part, parts, faults=None):
    return SocialShardSpec(
        shard_id=part,
        parts=parts,
        world_config=world.config,
        config=PlatformConfig(faults=faults, retry=FAST_TEST_POLICY),
        stream_config=stream_config,
        start=WINDOW[0].toordinal(),
        end=WINDOW[1].toordinal(),
        queue=CaptureQueue().split(lambda _domain: 0, 1)[0],
    )


class TestLazyShardEquality:
    @pytest.mark.parametrize("events_per_day", [1, 40])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_resumed_partition_matches_uninterrupted(
        self, seed, events_per_day
    ):
        """A partition cut at its crash point and resumed from the
        checkpoint ends in the state of the uninterrupted partition.
        At 1 event a day every cut falls on a day edge, some past days
        that own no candidate; at 40 they fall mid-day."""
        world = World(WorldConfig(seed=5, n_domains=300))
        stream_config = StreamConfig(events_per_day=events_per_day)
        whole = crawl_social_shard(
            _partition_spec(world, stream_config, 1, 2)
        )
        crashing = FaultSchedule(seed=seed, crash=CrashSpec(rate=1.0))
        task = _partition_spec(world, stream_config, 1, 2, crashing)
        with pytest.raises(WorkerCrash) as crash:
            crawl_social_shard(task)
        assert crash.value.done == crashing.crash_point(1, whole.tasks, 0)
        resumed = crawl_social_shard(
            resume_social_shard(task, pickle.loads(pickle.dumps(crash.value)))
        )
        assert rows(resumed.store) == rows(whole.store)
        assert sum((k.tolist() for k in resumed.keys), []) == sum(
            (k.tolist() for k in whole.keys), []
        )
        assert resumed.queue.state_payload() == whole.queue.state_payload()
        assert (resumed.events, resumed.position) == (
            whole.events, whole.tasks
        )

    def test_split_day_builds_only_each_shards_urls(self):
        """A day split across two partitions: each worker builds the
        URLs of its own candidates, never those of the other's."""
        config = WorldConfig(seed=5, n_domains=300)
        stream_config = StreamConfig(events_per_day=400)
        reference = SocialShareStream(World(config), stream_config)
        day = reference.events_for_day(WINDOW[0])
        for part in range(2):
            wanted = set(
                reference.partition_rows(WINDOW[0], part, 2).tolist()
            )
            own = day.take(
                [i for i, row in enumerate(day.rows.tolist()) if row in wanted]
            )
            world = World(config, cache_limits=UNBOUNDED_CACHE_LIMITS)
            chunk = SocialShareStream(world, stream_config).events_for_day(
                WINDOW[0], part, 2
            )
            assert chunk.urls == own.urls
            assert len(world._share_url_cache) == len(set(own.urls))
            assert len(set(own.urls)) < len(set(day.urls))


# ----------------------------------------------------------------------
# Gauges: the memory story is observable
# ----------------------------------------------------------------------
class TestScaleGauges:
    def test_platform_run_exports_world_cache_and_rss_gauges(self):
        study = Study(small_config())
        obs = Observability()
        platform = NetographPlatform(study.world, obs=obs)
        platform.run(WINDOW[0], WINDOW[0] + dt.timedelta(days=2))
        names = {record["metric"] for record in obs.metrics.snapshot()}
        assert "world_cache_hits" in names
        assert "world_cache_entries" in names
        assert "world_cache_evictions" in names
        assert "process_peak_rss_mb" in names

    def test_sharded_run_gauges_count_worker_memos(self):
        """The workers make every crawl lookup, so a 2-worker run's
        gauges must include what their copies of the world memoized."""
        study = Study(small_config())
        obs = Observability()
        platform = NetographPlatform(study.world, obs=obs)
        platform.run(*WINDOW, workers=2)
        gauges = {
            (record["metric"], record["labels"].get("cache")): record["value"]
            for record in obs.metrics.snapshot()
            if record["metric"].startswith("world_cache_")
        }
        own = study.world.cache_info()["sites"]
        assert gauges[("world_cache_entries", "sites")] > len(own)
        assert gauges[("world_cache_hits", "sites")] > own.hits
        assert gauges[("world_cache_misses", "sites")] > own.misses
