"""The artifact cache: fingerprints, hit/miss/invalidation, bit-identity.

The load-bearing guarantee is that a cache *hit is bit-identical to a
cold compute* -- the end-to-end tests compare persisted exports
byte-for-byte between a cold and a warm study. The failure-mode tests
pin the error taxonomy: absent/corrupt/truncated entries degrade to a
cold compute, stale fingerprints are evicted and recomputed, and only a
fingerprint *schema* bump raises (naming the offending entry).
"""

import datetime as dt
import json

import pytest

import repro.cache as cache_mod
from repro.cache import (
    ArtifactCache,
    CacheError,
    CacheSchemaError,
    Fingerprint,
    digest_domains,
    resolve_cache,
)
from repro.core.pipeline import Study, StudyConfig
from repro.crawler.spill import SpillingCaptureStore
from repro.crawler.storage import store_digest, write_export
from repro.obs import Observability
from tests.store_oracle import rows, store_from_rows

WINDOW = (dt.date(2020, 3, 1), dt.date(2020, 3, 21))


def small_config(tmp_path, **overrides):
    base = dict(
        seed=11,
        n_domains=1_500,
        toplist_size=80,
        events_per_day=30,
        study_start=WINDOW[0],
        study_end=WINDOW[1],
        cache_dir=str(tmp_path / "cache"),
    )
    base.update(overrides)
    return StudyConfig(**base)


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_digest_deterministic_and_order_insensitive(self):
        a = Fingerprint.build("adoption", key=("x",), seed=7, n=3)
        b = Fingerprint.build("adoption", key=("x",), n=3, seed=7)
        assert a.digest() == b.digest()
        assert a.slot() == b.slot()

    def test_field_change_changes_digest_not_slot(self):
        a = Fingerprint.build("adoption", key=("x",), seed=7)
        b = Fingerprint.build("adoption", key=("x",), seed=8)
        assert a.slot() == b.slot()
        assert a.digest() != b.digest()

    def test_key_changes_slot(self):
        a = Fingerprint.build("adoption", key=("2020-05-15",))
        b = Fingerprint.build("adoption", key=("2020-06-15",))
        assert a.slot() != b.slot()

    def test_unknown_stage_rejected(self):
        with pytest.raises(CacheError):
            Fingerprint.build("no-such-stage")

    def test_slot_is_filesystem_safe(self):
        fp = Fingerprint.build("vantage", key=("2020-05-15", "top10k/??"))
        assert "/" not in fp.slot()
        assert "?" not in fp.slot()

    def test_code_version_is_fingerprinted(self, monkeypatch):
        fp = Fingerprint.build("adoption", seed=7)
        before = fp.digest()
        monkeypatch.setitem(cache_mod.CODE_VERSIONS, "adoption", 99)
        assert fp.digest() != before

    def test_study_fingerprint_excludes_execution_knobs(self, tmp_path):
        serial = Study(small_config(tmp_path))
        parallel = Study(
            small_config(tmp_path, parallelism=4, backend="process")
        )
        moved = Study(
            small_config(tmp_path, cache_dir=str(tmp_path / "elsewhere"))
        )
        fps = [
            s.fingerprint("social-crawl", key=("a",))
            for s in (serial, parallel, moved)
        ]
        assert fps[0].digest() == fps[1].digest() == fps[2].digest()

    def test_study_fingerprint_covers_scale_knobs(self, tmp_path):
        base = Study(small_config(tmp_path)).fingerprint("social-crawl")
        for override in (
            {"seed": 12},
            {"n_domains": 1_600},
            {"toplist_size": 90},
            {"events_per_day": 31},
            {"study_end": dt.date(2020, 3, 22)},
        ):
            other = Study(small_config(tmp_path, **override)).fingerprint(
                "social-crawl"
            )
            assert other.digest() != base.digest(), override


# ----------------------------------------------------------------------
# Payload entries: taxonomy of absent / stale / corrupt / schema-bumped
# ----------------------------------------------------------------------
class TestPayloadEntries:
    def fp(self, **fields):
        return Fingerprint.build("adoption", key=("t",), **fields)

    def test_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        payload = {"rows": [[1, 2.5], ["x", None]]}
        cache.save_payload(self.fp(seed=1), payload)
        assert cache.load_payload(self.fp(seed=1)) == payload

    def test_absent_entry_is_miss(self, tmp_path):
        obs = Observability()
        cache = ArtifactCache(tmp_path, obs=obs)
        assert cache.load_payload(self.fp(seed=1)) is None
        misses = obs.metrics.counter("cache_misses_total")
        assert misses.value(stage="adoption", reason="absent") == 1

    def test_hit_and_miss_counters(self, tmp_path):
        obs = Observability()
        cache = ArtifactCache(tmp_path, obs=obs)
        cache.load_payload(self.fp(seed=1))
        cache.save_payload(self.fp(seed=1), [1])
        cache.load_payload(self.fp(seed=1))
        metrics = obs.metrics
        assert metrics.counter("cache_hits_total").total == 1
        assert metrics.counter("cache_misses_total").total == 1
        assert metrics.counter("cache_invalidations_total").total == 0

    def test_stale_fingerprint_evicts_and_recomputes(self, tmp_path):
        obs = Observability()
        cache = ArtifactCache(tmp_path, obs=obs)
        cache.save_payload(self.fp(seed=1), ["old"])
        # Same slot, different parameters: the entry is stale.
        assert cache.load_payload(self.fp(seed=2)) is None
        inval = obs.metrics.counter("cache_invalidations_total")
        assert inval.value(stage="adoption") == 1
        # The evicted entry is gone for the old fingerprint too.
        assert cache.load_payload(self.fp(seed=1)) is None
        # Repopulating under the new fingerprint works.
        cache.save_payload(self.fp(seed=2), ["new"])
        assert cache.load_payload(self.fp(seed=2)) == ["new"]

    def test_corrupt_manifest_is_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.save_payload(self.fp(seed=1), [1])
        entry = tmp_path / self.fp(seed=1).slot() / "entry.json"
        entry.write_text("{not json", encoding="utf-8")
        assert cache.load_payload(self.fp(seed=1)) is None

    def test_truncated_artifact_is_miss(self, tmp_path):
        obs = Observability()
        cache = ArtifactCache(tmp_path, obs=obs)
        cache.save_payload(self.fp(seed=1), list(range(100)))
        artifact = tmp_path / self.fp(seed=1).slot() / "artifact.json"
        data = artifact.read_text(encoding="utf-8")
        artifact.write_text(data[: len(data) - 20], encoding="utf-8")
        assert cache.load_payload(self.fp(seed=1)) is None
        misses = obs.metrics.counter("cache_misses_total")
        assert misses.value(stage="adoption", reason="corrupt") == 1
        # Cold compute repopulates over the bad entry.
        cache.save_payload(self.fp(seed=1), list(range(100)))
        assert cache.load_payload(self.fp(seed=1)) == list(range(100))

    def test_schema_bump_raises_naming_entry(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path)
        cache.save_payload(self.fp(seed=1), [1])
        monkeypatch.setattr(cache_mod, "SCHEMA_VERSION", 2)
        with pytest.raises(CacheSchemaError) as err:
            cache.load_payload(self.fp(seed=1))
        message = str(err.value)
        assert self.fp(seed=1).slot() in message
        assert "schema" in message

    def test_missed_lookup_does_not_commit(self, tmp_path):
        """A lookup must never create a readable entry by itself."""
        cache = ArtifactCache(tmp_path)
        cache.load_payload(self.fp(seed=1))
        assert not (tmp_path / self.fp(seed=1).slot() / "entry.json").exists()

    def test_resolve_cache_none_propagates(self):
        assert resolve_cache(None) is None


# ----------------------------------------------------------------------
# Store entries (crawl phase)
# ----------------------------------------------------------------------
class TestStoreEntries:
    def fp(self):
        return Fingerprint.build("social-crawl", key=("w",), seed=3)

    def test_store_roundtrip_exact(self, tmp_path, social_store):
        cache = ArtifactCache(tmp_path)
        cache.save_capture_store(self.fp(), social_store)
        loaded = cache.load_capture_store(self.fp())
        assert loaded is not None
        assert store_digest(loaded) == store_digest(social_store)
        assert loaded.n_captures == social_store.n_captures
        assert loaded.total_requests == social_store.total_requests

    def test_truncated_shard_is_miss(self, tmp_path, social_store):
        cache = ArtifactCache(tmp_path)
        cache.save_capture_store(self.fp(), social_store)
        shard = tmp_path / self.fp().slot() / "segment-0000.seg"
        data = shard.read_bytes()
        shard.write_bytes(data[: len(data) // 2])
        assert cache.load_capture_store(self.fp()) is None

    def test_missing_shard_is_miss(self, tmp_path, social_store):
        cache = ArtifactCache(tmp_path)
        spilled = SpillingCaptureStore(1)
        spilled.merge(social_store)  # one spilled segment, an empty tail
        cache.save_capture_store(self.fp(), spilled)
        (tmp_path / self.fp().slot() / "segment-0001.seg").unlink()
        assert cache.load_capture_store(self.fp()) is None

    def test_repopulated_slot_keeps_no_stale_shards(
        self, tmp_path, social_store
    ):
        cache = ArtifactCache(tmp_path)
        spilled = SpillingCaptureStore(50)
        for start in range(0, 203, 50):
            store_from_rows(
                rows(social_store)[start:min(start + 50, 203)], store=spilled
            )
        cache.save_capture_store(self.fp(), spilled)
        slot = tmp_path / self.fp().slot()
        assert len(list(slot.glob("segment-*.seg"))) == 5
        shard = slot / "segment-0001.seg"
        shard.write_bytes(shard.read_bytes()[:-1])
        assert cache.load_capture_store(self.fp()) is None
        cache.save_capture_store(self.fp(), social_store)
        assert sorted(p.name for p in slot.iterdir()) == [
            "entry.json", "segment-0000.seg",
        ]
        loaded = cache.load_capture_store(self.fp())
        assert store_digest(loaded) == store_digest(social_store)

    def test_artifact_kind_mismatch_is_miss(self, tmp_path):
        """A JSON entry must not satisfy a store lookup (or vice versa)."""
        cache = ArtifactCache(tmp_path)
        cache.save_payload(self.fp(), [1])
        assert cache.load_capture_store(self.fp()) is None


# ----------------------------------------------------------------------
# End to end: warm study runs
# ----------------------------------------------------------------------
class TestWarmStudy:
    def test_warm_rerun_bit_identical_and_skips_crawl(self, tmp_path):
        when = dt.date(2020, 3, 10)
        exports = []
        for run in ("cold", "warm"):
            obs = Observability()
            study = Study(small_config(tmp_path), obs=obs)
            store = study.run_social_crawl()
            series = study.adoption_series(store)
            table = study.vantage_table(when)
            curve = study.marketshare_curve(when)
            out = tmp_path / f"store-{run}.jsonl"
            write_export(store, out)
            exports.append(
                (
                    out.read_bytes(),
                    json.dumps(series.to_payload(), sort_keys=True),
                    json.dumps(table.to_payload(), sort_keys=True),
                    json.dumps(curve.to_payload(), sort_keys=True),
                )
            )
            if run == "cold":
                assert study.last_crawl_stats.crawls > 0
                assert obs.metrics.counter("cache_misses_total").total > 0
            else:
                # The entire crawl phase is skipped on a warm rerun.
                assert study.last_crawl_stats.crawls == 0
                assert study.cache.hits() >= 4
        assert exports[0] == exports[1]

    def test_empty_toplist_table_keeps_its_own_entry(self, tmp_path):
        """A ``size=0`` Table 1 must not be served for the default size."""
        when = dt.date(2020, 3, 10)
        cold = Study(small_config(tmp_path, cache_dir=None))
        expected = cold.vantage_table(when).to_payload()
        study = Study(small_config(tmp_path))
        empty = study.vantage_table(when, size=0)
        assert [empty.total(name) for name in empty.counts] == [0] * 6
        table = study.vantage_table(when)
        assert table.to_payload() == expected
        assert any(table.total(name) for name in table.counts)

    def test_parallel_entry_serves_serial_run(self, tmp_path):
        parallel = Study(small_config(tmp_path, parallelism=3))
        p_store = parallel.run_social_crawl()
        entry = next(
            d
            for d in (tmp_path / "cache").iterdir()
            if d.name.startswith("social-crawl")
        )
        shards = list(entry.glob("segment-*.seg"))
        assert len(shards) == 1  # the merged store, not one per worker
        serial = Study(small_config(tmp_path))
        s_store = serial.run_social_crawl()
        assert serial.last_crawl_stats.crawls == 0
        assert store_digest(s_store) == store_digest(p_store)

    def test_warm_hit_honours_memory_budget(self, tmp_path):
        config = StudyConfig(
            seed=7,
            n_domains=2_000,
            events_per_day=200,
            study_start=dt.date(2020, 3, 1),
            study_end=dt.date(2020, 3, 11),
            memory_budget=100,
            cache_dir=str(tmp_path / "cache"),
        )
        cold = Study(config).run_social_crawl()
        study = Study(config)
        warm = study.run_social_crawl()
        assert study.last_crawl_stats.crawls == 0
        assert isinstance(warm, SpillingCaptureStore)
        assert warm.n_segments > 0
        assert warm.active_store().n_rows <= config.memory_budget
        assert store_digest(warm) == store_digest(cold)

    def test_config_change_invalidates(self, tmp_path):
        study = Study(small_config(tmp_path))
        study.run_social_crawl()
        obs = Observability()
        other = Study(small_config(tmp_path, events_per_day=31), obs=obs)
        other.run_social_crawl()
        assert other.last_crawl_stats.crawls > 0
        inval = obs.metrics.counter("cache_invalidations_total")
        assert inval.value(stage="social-crawl") == 1

    def test_no_cache_dir_runs_cold(self, tmp_path):
        study = Study(small_config(tmp_path, cache_dir=None))
        assert study.cache is None
        store = study.run_social_crawl()
        assert study.last_crawl_stats.crawls > 0
        assert store.n_rows

    def test_adoption_content_addressed_on_store(self, tmp_path):
        """A different input store must not be served the cached series."""
        study = Study(small_config(tmp_path))
        full = study.run_social_crawl()
        study.adoption_series(full)
        half = study.run_social_crawl(WINDOW[0], WINDOW[0] + dt.timedelta(days=7))
        series_half = study.adoption_series(half)
        cold = Study(small_config(tmp_path, cache_dir=None))
        half_cold = cold.run_social_crawl(
            WINDOW[0], WINDOW[0] + dt.timedelta(days=7)
        )
        assert (
            series_half.to_payload()
            == cold.adoption_series(half_cold).to_payload()
        )
