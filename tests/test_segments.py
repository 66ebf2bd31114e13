"""Segment files and whole-store reads.

* **Checked reads.** Every way a segment file can be damaged -- cut
  short, padded, a broken or foreign header, a file in the older JSON
  Lines format, an id outside its table -- raises a ``StorageError``
  naming the file; a cache entry damaged that way is a ``corrupt`` miss
  followed by a bit-identical recompute.
* **Streaming whole-store reads.** A store spilled into many segments
  answers ``store_digest``, ``domain_day_rows`` and ``unique_domains``
  exactly like the same rows unspilled, holding about one segment in
  memory at a time.
* **Spill directory lifecycle.** Private spill directories appear at
  the first spill and disappear with the store that owns them, also
  when that store was pickled out of a worker process.
"""

import datetime as dt
import gc
import json
import re
import shutil
import tempfile
import tracemalloc
from array import array
from pathlib import Path

import pytest

from repro.cache import ArtifactCache, Fingerprint
from repro.core.pipeline import Study, StudyConfig
from repro.crawler.columnar import VANTAGE_TABLE
from repro.crawler.spill import SpillSettings, SpillingCaptureStore
from repro.crawler.storage import (
    StorageError,
    load_store,
    save_store,
    store_digest,
    write_export,
)
from repro.obs import Observability
from tests.store_oracle import rows, store_from_rows

WINDOW = (dt.date(2020, 3, 1), dt.date(2020, 3, 5))


def small_config(**overrides):
    base = dict(
        seed=11,
        n_domains=1_500,
        toplist_size=80,
        events_per_day=40,
        study_start=WINDOW[0],
        study_end=WINDOW[1],
    )
    base.update(overrides)
    return StudyConfig(**base)


# ----------------------------------------------------------------------
# Corruption matrix
# ----------------------------------------------------------------------
def _split(data: bytes):
    line, body = data.split(b"\n", 1)
    return json.loads(line), body


def _join(header: dict, body: bytes) -> bytes:
    return json.dumps(header, sort_keys=True).encode() + b"\n" + body


def _with_id(data: bytes, column: int, value: int) -> bytes:
    """*data* with the first id of column *column* set to *value*."""
    header, body = _split(data)
    n = header["n_rows"]
    offsets = (0, 4 * n, 8 * n, 9 * n)
    typecode = "i" if column < 2 else "b"
    patched = array(typecode, [value]).tobytes()
    start = offsets[column]
    body = body[:start] + patched + body[start + len(patched):]
    return _join(header, body)


def _with_header(data: bytes, **fields) -> bytes:
    header, body = _split(data)
    return _join({**header, **fields}, body)


def _as_jsonl(data: bytes, store) -> bytes:
    path = Path(tempfile.mkdtemp()) / "old.jsonl"
    write_export(store, path)
    text = path.read_bytes()
    shutil.rmtree(path.parent)
    return text


CORRUPTIONS = {
    "truncated-body": (lambda data, store: data[:-1], "header promises"),
    "trailing-bytes": (lambda data, store: data + b"\0", "header promises"),
    "unparsable-header": (
        lambda data, store: b"{not json" + data[data.index(b"\n"):],
        "unreadable header",
    ),
    "wrong-format-tag": (
        lambda data, store: _with_header(data, format="somebody-else"),
        "not a capture-store segment",
    ),
    "duplicate-domain-table": (
        lambda data, store: _with_header(
            data, domains=[store.tables()[0][0]] * store.unique_domains
        ),
        "interning tables hold duplicates",
    ),
    "cmp-table-without-no-cmp": (
        lambda data, store: _with_header(
            data, cmp_keys=store.tables()[1][1:] + ["x"]
        ),
        "do not start with the no-CMP entry",
    ),
    "malformed-table": (
        lambda data, store: _with_header(data, domains=[1, 2]),
        "malformed interning tables",
    ),
    "version-2-jsonl": (_as_jsonl, "written by an older build"),
    "domain-id-out-of-range": (
        lambda data, store: _with_id(data, 0, store.unique_domains),
        "domain id outside",
    ),
    "negative-domain-id": (
        lambda data, store: _with_id(data, 0, -1), "domain id outside"
    ),
    "cmp-id-out-of-range": (
        lambda data, store: _with_id(data, 2, len(store.tables()[1])),
        "CMP id outside",
    ),
    "vantage-id-out-of-range": (
        lambda data, store: _with_id(data, 3, len(VANTAGE_TABLE)),
        "vantage id outside",
    ),
}


@pytest.fixture(scope="module")
def cold_cache(tmp_path_factory):
    """A cache populated by one cold, unsharded crawl, plus its digest."""
    root = tmp_path_factory.mktemp("cold-cache")
    study = Study(small_config(cache_dir=str(root)))
    store = study.run_social_crawl()
    assert study.last_crawl_stats.crawls > 0
    return root, store, store_digest(store)


class TestCorruptionMatrix:
    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_load_store_names_the_file(self, tmp_path, case):
        corrupt, message = CORRUPTIONS[case]
        store = store_from_rows(
            [("a.com", 737_000, None, 0), ("b.com", 737_001, "onetrust", 5)]
        )
        path = tmp_path / "segment.seg"
        save_store(store, path)
        path.write_bytes(corrupt(path.read_bytes(), store))
        with pytest.raises(StorageError, match=re.escape(str(path))) as info:
            load_store(path, context="spill segment")
        assert message in str(info.value)
        assert str(info.value).startswith("spill segment: ")

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_cache_entry_is_a_corrupt_miss_then_recomputed(
        self, tmp_path, cold_cache, case
    ):
        root, store, digest = cold_cache
        cache_dir = tmp_path / "cache"
        shutil.copytree(root, cache_dir)
        (segment,) = cache_dir.glob("social-crawl-*/segment-0000.seg")
        corrupt, _message = CORRUPTIONS[case]
        segment.write_bytes(corrupt(segment.read_bytes(), store))

        obs = Observability()
        study = Study(small_config(cache_dir=str(cache_dir)), obs=obs)
        recomputed = study.run_social_crawl()
        misses = obs.metrics.counter("cache_misses_total")
        assert misses.value(stage="social-crawl", reason="corrupt") == 1
        assert study.last_crawl_stats.crawls > 0
        assert store_digest(recomputed) == digest
        assert rows(recomputed) == rows(store)


# ----------------------------------------------------------------------
# Whole-store reads of a many-segment store
# ----------------------------------------------------------------------
class TestSpilledReads:
    @pytest.fixture(scope="class")
    def pair(self):
        # The serial crawl appends one batch per day; a budget below a
        # day's rows spills once a day.
        window = dict(study_end=WINDOW[0] + dt.timedelta(days=12))
        plain = Study(small_config(**window)).run_social_crawl()
        spilled = Study(
            small_config(memory_budget=10, **window)
        ).run_social_crawl()
        assert spilled.n_segments >= 10
        return plain, spilled

    def test_digest_and_unique_domains_agree(self, pair):
        plain, spilled = pair
        assert store_digest(spilled) == store_digest(plain)
        assert spilled.unique_domains == plain.unique_domains

    def test_domain_day_rows_agree_in_order(self, pair):
        plain, spilled = pair
        assert list(spilled.domain_day_rows().items()) == list(
            plain.domain_day_rows().items()
        )
        wanted = list(plain.domain_day_rows())[::3] + ["never.example"]
        restricted = plain.domain_day_rows(wanted)
        assert list(restricted) == wanted[:-1]
        assert list(spilled.domain_day_rows(wanted).items()) == list(
            restricted.items()
        )

    def test_digest_holds_about_one_segment(self, tmp_path):
        n_segments, per_segment = 12, 20_000
        spilled = SpillingCaptureStore(
            SpillSettings(row_budget=per_segment, directory=str(tmp_path))
        )
        for segment in range(n_segments):
            store_from_rows(
                (
                    (f"site-{i % 200}.example", 737_000 + segment,
                     ("onetrust", None)[i % 2], i % 6)
                    for i in range(per_segment)
                ),
                store=spilled,
            )
        assert spilled.n_segments == n_segments

        tracemalloc.start()
        load_store(spilled.segment_paths()[0])
        one_segment = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        tracemalloc.start()
        digest = store_digest(spilled)
        whole_store = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        assert whole_store < 3 * one_segment
        plain = store_from_rows(rows(spilled))
        assert digest == store_digest(plain)


# ----------------------------------------------------------------------
# Spill directory lifecycle
# ----------------------------------------------------------------------
@pytest.fixture
def private_tmp(tmp_path, monkeypatch):
    """Route private spill directories (also a worker's) to *tmp_path*."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    return tmp_path


def _spill_dirs(root: Path):
    return sorted(root.glob("repro-spill-*"))


class TestSpillDirectories:
    @pytest.mark.parametrize(
        "workers, backend", [(1, "serial"), (2, "process")]
    )
    def test_budgeted_crawl_leaves_nothing_behind(
        self, private_tmp, workers, backend
    ):
        budget = 8
        study = Study(
            small_config(
                memory_budget=budget, parallelism=workers, backend=backend
            )
        )
        store = study.run_social_crawl()
        assert store.n_segments > 0
        executor = study.last_crawl_stats.executor
        if executor is not None:
            # Every shard store outgrew the budget, so every worker
            # spilled into a directory of its own.
            assert min(shard.crawls for shard in executor.shards) > budget
        # Shard stores were dropped with the run; only the result's own
        # directory is left.
        assert len(_spill_dirs(private_tmp)) == 1
        del store
        gc.collect()
        assert _spill_dirs(private_tmp) == []

    def test_never_spilling_store_creates_no_directory(self, private_tmp):
        store = SpillingCaptureStore(SpillSettings(row_budget=100))
        store_from_rows([("a.com", 737_000, None, 0)] * 10, store=store)
        assert store.n_segments == 0
        store_digest(store)
        assert list(private_tmp.iterdir()) == []

    def test_cache_save_of_spilled_store_before_drop(self, private_tmp):
        store = SpillingCaptureStore(SpillSettings(row_budget=4))
        expected = store_from_rows(
            [(f"s{i % 3}.com", 737_000 + i, None, i % 6) for i in range(18)]
        )
        for row in rows(expected):
            store_from_rows([row], store=store)
        assert store.n_segments == 4
        cache = ArtifactCache(private_tmp / "cache")
        fingerprint = Fingerprint.build("social-crawl", key=("w",), seed=1)
        cache.save_capture_store(fingerprint, store)
        del store
        gc.collect()
        assert _spill_dirs(private_tmp) == []
        loaded = cache.load_capture_store(fingerprint)
        assert store_digest(loaded) == store_digest(expected)
