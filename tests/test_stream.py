"""Streaming engine (repro.stream): batch equivalence, checkpoints,
query server.

The load-bearing contract: an engine caught up to day N is
byte-identical to a batch run over days 0..N -- same store digest, same
analysis payloads -- cold and when resumed from a mid-window checkpoint.
"""

import dataclasses
import datetime as dt
import json
import socket
import sys
import threading
import time
import tracemalloc
import urllib.error
import urllib.request
from collections import Counter

import pytest

from repro.cache import CacheError
from repro.core.adoption import AdoptionSeries
from repro.core.marketshare import observed_marketshare
from repro.core.pipeline import Study, StudyConfig
from repro.core.vantage import VantageTable
from repro.crawler.columnar import VANTAGE_STRS
from repro.crawler.storage import store_digest
from repro.obs import Observability
from repro.stream import serve_engine
from repro.stream.server import _curve_payload, _Handler
from tests.prometheus import parse_prometheus

START = dt.date(2020, 3, 1)
MID = dt.date(2020, 3, 8)
END = dt.date(2020, 3, 15)

CFG = StudyConfig(
    seed=11,
    n_domains=1_500,
    toplist_size=300,
    events_per_day=100,
    study_start=START,
    study_end=END,
)


def _payload_bytes(payload) -> str:
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module")
def stream_study() -> Study:
    return Study(CFG)


@pytest.fixture(scope="module")
def batch_store(stream_study):
    return stream_study.run_social_crawl(START, END)


@pytest.fixture(scope="module")
def engine(stream_study):
    # Separate Study so the engine's persistent platform can't interact
    # with the fixture study's crawl bookkeeping.
    return Study(CFG).streaming_engine().run_until(END)


class TestBatchEquivalence:
    def test_store_digest_matches_batch(self, engine, batch_store):
        assert store_digest(engine.store) == store_digest(batch_store)

    def test_adoption_matches_batch(self, engine, stream_study, batch_store):
        batch = stream_study.adoption_series(batch_store)
        assert _payload_bytes(
            engine.adoption_series().to_payload()
        ) == _payload_bytes(batch.to_payload())

    def test_counts_on_matches_batch(self, engine, stream_study, batch_store):
        batch = stream_study.adoption_series(batch_store)
        for date in (START, MID, END - dt.timedelta(days=1)):
            assert engine.counts_on(date) == batch.counts_on(date)

    def test_vantage_matches_batch(self, engine, batch_store):
        batch = VantageTable.from_stream_rows(
            (VANTAGE_STRS[vid], domain, cmp_key)
            for domain, _ordinal, cmp_key, vid in batch_store.rows_since(0)
        )
        assert _payload_bytes(
            engine.vantage_table().to_payload()
        ) == _payload_bytes(batch.to_payload())

    def test_marketshare_matches_batch(
        self, engine, stream_study, batch_store
    ):
        batch_series = stream_study.adoption_series(batch_store)
        ranks = {
            domain: rank
            for rank, domain in enumerate(stream_study.toplist_domains, 1)
        }
        batch_curve = observed_marketshare(
            batch_series, ranks, END - dt.timedelta(days=1), engine._sizes
        )
        assert _payload_bytes(
            engine.marketshare_curve().to_payload()
        ) == _payload_bytes(batch_curve.to_payload())

    def test_building_the_engine_generates_no_site(self):
        """The engine's toplist lookup reads domains by their tags, so
        building it generates none of the toplist's sites."""
        study = Study(CFG)
        study.streaming_engine()
        assert study.world.cache_counts()["sites"].misses == 0

    def test_engine_crawls_through_the_study_platform(self):
        """Follow and batch runs share one platform wiring: seeds,
        faults, retry policy and the memory budget."""
        study = Study(dataclasses.replace(CFG, memory_budget=50))
        engine = study.streaming_engine()
        batch = study.platform()
        assert engine.platform.config == batch.config
        assert engine.platform.config.memory_budget == 50
        assert engine.platform.stream.config == batch.stream.config
        assert engine.store.row_budget == 50

    def test_mid_window_cut_matches_batch(self, stream_study):
        """Equivalence holds at an interior watermark, not just the end."""
        prefix_engine = Study(CFG).streaming_engine().run_until(MID)
        prefix_store = stream_study.run_social_crawl(START, MID)
        assert store_digest(prefix_engine.store) == store_digest(prefix_store)
        batch = stream_study.adoption_series(prefix_store)
        assert _payload_bytes(
            prefix_engine.adoption_series().to_payload()
        ) == _payload_bytes(batch.to_payload())

    def test_live_curve_tail_matches_live_counts(self, engine):
        """At the full toplist size the live curve counts every live
        domain -- the O(1) accumulator agrees with the expiring state."""
        curve = engine.live_marketshare_curve()
        live = engine.live_counts()
        for cmp_key, series in curve.counts.items():
            assert series[-1] == live.get(cmp_key, 0)

    def test_stats_payload_shape(self, engine):
        stats = engine.stats_payload()
        assert stats["watermark"] == (END - dt.timedelta(days=1)).isoformat()
        assert stats["days_ingested"] == (END - START).days
        assert stats["rows_ingested"] == engine.store.n_rows > 0
        assert 0.0 <= stats["skip_rate"] <= 1.0


class TestCheckpointResume:
    @pytest.fixture()
    def cached_cfg(self, tmp_path):
        import dataclasses

        return dataclasses.replace(CFG, cache_dir=str(tmp_path))

    def test_resume_is_byte_identical(
        self, cached_cfg, batch_store, stream_study
    ):
        first = Study(cached_cfg).streaming_engine()
        first.run_until(MID)
        assert first.checkpoint() is not None

        resumed = Study(cached_cfg).streaming_engine(resume=True)
        assert resumed.watermark == MID - dt.timedelta(days=1)
        assert resumed.rows_ingested == first.rows_ingested
        resumed.run_until(END)

        assert store_digest(resumed.store) == store_digest(batch_store)
        batch = stream_study.adoption_series(batch_store)
        assert _payload_bytes(
            resumed.adoption_series().to_payload()
        ) == _payload_bytes(batch.to_payload())
        assert resumed.live_counts() == Counter(
            Study(CFG).streaming_engine().run_until(END).live_counts()
        )

    def test_batch_run_hits_streaming_checkpoint(self, cached_cfg):
        """The checkpointed store lands under the batch fingerprint, so
        a batch run over the ingested prefix skips the crawl."""
        engine = Study(cached_cfg).streaming_engine()
        engine.run_until(MID)
        engine.checkpoint()

        batch_study = Study(cached_cfg)
        store = batch_study.run_social_crawl(START, MID)
        assert batch_study.last_crawl_stats.crawls == 0
        assert store_digest(store) == store_digest(engine.store)

    def test_checkpoint_cadence(self, cached_cfg):
        import dataclasses

        cfg = dataclasses.replace(cached_cfg, checkpoint_every_days=3)
        engine = Study(cfg).streaming_engine()
        engine.run_until(START + dt.timedelta(days=7))
        # Checkpoints at days 3 and 6; latest pointer names day 6's
        # watermark.
        resumed = Study(cfg).streaming_engine(resume=True)
        assert resumed.watermark == START + dt.timedelta(days=5)

    def test_checkpoint_without_cache_is_noop(self):
        engine = Study(CFG).streaming_engine()
        engine.advance_day()
        assert engine.checkpoint() is None

    def test_resume_without_cache_raises(self):
        with pytest.raises(CacheError):
            Study(CFG).streaming_engine(resume=True)

    def test_resume_without_checkpoint_raises(self, cached_cfg):
        with pytest.raises(CacheError):
            Study(cached_cfg).streaming_engine(resume=True)

    def test_resume_unknown_watermark_raises(self, cached_cfg):
        engine = Study(cached_cfg).streaming_engine()
        engine.run_until(MID)
        engine.checkpoint()
        with pytest.raises(CacheError):
            Study(cached_cfg).streaming_engine(
                resume=True, watermark=dt.date(2019, 1, 1)
            )


class TestQueryServer:
    @pytest.fixture(scope="class")
    def server(self, engine):
        server = serve_engine(engine)
        yield server
        server.close()

    def _get(self, server, path):
        url = f"http://127.0.0.1:{server.port}{path}"
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())

    def test_healthz(self, server, engine):
        status, payload = self._get(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["watermark"] == engine.watermark.isoformat()

    def test_adoption_default_date_is_watermark(self, server, engine):
        status, payload = self._get(server, "/adoption")
        assert status == 200
        assert payload["date"] == engine.watermark.isoformat()
        assert payload["counts"] == dict(engine.counts_on(engine.watermark))
        assert payload["total"] == sum(payload["counts"].values())

    def test_adoption_explicit_date(self, server, engine):
        status, payload = self._get(server, f"/adoption?date={MID}")
        assert status == 200
        assert payload["counts"] == dict(engine.counts_on(MID))

    def test_adoption_live(self, server, engine):
        status, payload = self._get(server, "/adoption/live")
        assert status == 200
        assert payload["counts"] == dict(engine.live_counts())

    def test_marketshare_endpoints(self, server, engine):
        status, payload = self._get(server, "/marketshare")
        assert status == 200
        assert [row["size"] for row in payload["rows"]] == engine._sizes
        status, live = self._get(server, "/marketshare/live")
        assert status == 200
        assert live["date"] == engine.watermark.isoformat()

    def test_vantage(self, server, engine):
        status, payload = self._get(server, "/vantage")
        assert status == 200
        table = engine.vantage_table()
        assert [row["config"] for row in payload["rows"]] == [
            name for name, _c, _t, _cov in table.rows()
        ]

    def test_stats_includes_query_latencies(self, server):
        # The fixture engine runs on the null obs backend: /stats still
        # reads its percentiles off the server's own histogram.
        for _ in range(5):
            self._get(server, "/healthz")
        status, payload = self._get(server, "/stats")
        assert status == 200
        healthz = payload["queries"]["/healthz"]
        assert healthz["count"] >= 5
        series = server.h_query.series(endpoint="/healthz")
        assert series.min * 1e3 - 1e-3 <= healthz["p50_ms"]
        assert healthz["p50_ms"] <= healthz["p90_ms"] <= healthz["p99_ms"]
        assert healthz["p99_ms"] <= series.max * 1e3 + 1e-3

    def test_latency_memory_stays_bounded(self, server):
        """Each request lands in fixed histogram buckets, never a list."""
        for _ in range(20):
            self._get(server, "/healthz")
        before = server.latency_snapshot()["/healthz"]["count"]
        tracemalloc.start()
        try:
            start, _peak = tracemalloc.get_traced_memory()
            for i in range(20_000):
                server.record_latency("/healthz", 1e-4 * (1 + i % 50))
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        # A sample list would hold 20k floats (>= 160 KB of pointers).
        assert grown < 16_384
        assert server.latency_snapshot()["/healthz"]["count"] == before + 20_000

    def test_concurrent_recording_loses_no_update(self, server):
        """Handler threads record concurrently; the lock keeps counts."""
        per_thread, n_threads = 2_000, 8

        def hammer():
            for _ in range(per_thread):
                server.record_latency("/stress", 1e-3)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stress = server.latency_snapshot()["/stress"]
        assert stress["count"] == per_thread * n_threads

    def test_unknown_endpoint_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(server, "/nope")
        assert excinfo.value.code == 404

    def test_bad_date_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(server, "/adoption?date=not-a-date")
        assert excinfo.value.code == 400

    def test_metrics_count_agrees_with_stats(self, server):
        """On the null obs backend /metrics renders the standalone
        latency histogram; its counts are the ones /stats reports."""
        for _ in range(3):
            self._get(server, "/healthz")
        url = f"http://127.0.0.1:{server.port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            content_type = response.headers["Content-Type"]
            text = response.read().decode("utf-8")
        _status, stats = self._get(server, "/stats")
        assert content_type.startswith("text/plain; version=0.0.4")
        meta, samples = parse_prometheus(text)
        assert meta == {
            "stream_query_seconds": ("query-server request latency", "histogram")
        }
        counts = {
            labels["endpoint"]: value
            for name, labels, value in samples
            if name == "stream_query_seconds_count"
        }
        # /stats also counts the /metrics request, recorded after render.
        expected = {
            endpoint: query["count"] - (endpoint == "/metrics")
            for endpoint, query in stats["queries"].items()
        }
        assert counts == {k: v for k, v in expected.items() if v}
        assert counts["/healthz"] >= 3
        for endpoint, count in counts.items():
            buckets = [
                (labels["le"], value)
                for name, labels, value in samples
                if name == "stream_query_seconds_bucket"
                and labels["endpoint"] == endpoint
            ]
            assert buckets[-1] == ("+Inf", count)
            cumulative = [value for _le, value in buckets]
            assert cumulative == sorted(cumulative)

    def test_accepted_sockets_set_tcp_nodelay(self, engine):
        """Responses must not wait on the client's delayed ACK."""
        seen = []

        class Probe(_Handler):
            def setup(self):
                super().setup()
                seen.append(
                    self.connection.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY
                    )
                )

        server = serve_engine(engine)
        server.RequestHandlerClass = Probe
        try:
            self._get(server, "/healthz")
        finally:
            server.close()
        assert seen and all(seen)

    def test_idle_servers_close_promptly(self, engine):
        """close() must not wait out a long accept-loop poll: each of
        three servers, idle after answering one request, closes within
        0.1 s."""
        for _ in range(3):
            server = serve_engine(engine)
            self._get(server, "/healthz")
            started = time.perf_counter()
            server.close()
            assert time.perf_counter() - started < 0.1


def _expected_bodies(engine, toplist, dates):
    """Every answering endpoint's body, derived without the engine's
    memo: the adoption and marketshare answers from a batch series over
    the engine's store, the vantage table from its rows, the live views
    from the live state."""
    watermark = engine.watermark
    series = AdoptionSeries.from_columnar(engine.store, toplist)
    table = VantageTable.from_stream_rows(
        (VANTAGE_STRS[vid], domain, cmp_key)
        for domain, _ordinal, cmp_key, vid in engine.store.rows_since(0)
    )
    live = dict(engine.live.counts)

    def adoption(date):
        counts = series.counts_on(date)
        return {
            "date": date.isoformat(),
            "counts": dict(counts),
            "total": sum(counts.values()),
        }

    def marketshare(date):
        return _curve_payload(
            observed_marketshare(series, engine._ranks, date, engine._sizes)
        )

    bodies = {
        "/healthz": {"status": "ok", "watermark": watermark.isoformat()},
        "/adoption": adoption(watermark),
        "/adoption/live": {
            "watermark": watermark.isoformat(),
            "counts": live,
            "total": sum(live.values()),
        },
        "/marketshare": marketshare(watermark),
        "/marketshare/live": _curve_payload(
            engine.marketshare.curve(watermark)
        ),
        "/vantage": {
            "rows": [
                {
                    "config": name,
                    "counts": counts,
                    "total": total,
                    "coverage": round(coverage, 4),
                }
                for name, counts, total, coverage in table.rows()
            ],
        },
    }
    for date in dates:
        bodies[f"/adoption?date={date}"] = adoption(date)
        bodies[f"/marketshare?date={date}"] = marketshare(date)
    return {
        path: json.dumps(body, sort_keys=True).encode("utf-8")
        for path, body in bodies.items()
    }


class TestAnswerMemo:
    """Query answers are derived once per watermark, never stale."""

    def _body(self, server, path):
        url = f"http://127.0.0.1:{server.port}{path}"
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.read()

    def test_bodies_equal_the_unmemoized_derivation(self):
        obs = Observability()
        study = Study(CFG, obs=obs)
        engine = study.streaming_engine().run_until(START + dt.timedelta(3))
        toplist = set(study.toplist_domains)
        server = serve_engine(engine)
        try:
            for _ in range(3):
                engine.advance_day()
                watermark = engine.watermark
                dates = (START + dt.timedelta(1), watermark, MID)
                expected = _expected_bodies(engine, toplist, dates)
                for _ in range(2):  # derived, then memoized
                    for path, body in expected.items():
                        assert self._body(server, path) == body, path
        finally:
            server.close()
        spans = [
            record["attrs"]
            for record in obs.tracer.export_records()
            if record["name"] == "stream.query"
        ]
        assert len(spans) == 3 * 2 * len(expected)
        cached = {
            (attrs["endpoint"], attrs["cached"]) for attrs in spans
        }
        # Memoized endpoints serve their repeats from the memo; the
        # live views and /healthz derive on every request.
        for endpoint in ("/adoption", "/marketshare", "/vantage"):
            assert {(endpoint, False), (endpoint, True)} <= cached
        for endpoint in ("/healthz", "/adoption/live", "/marketshare/live"):
            assert (endpoint, True) not in cached

    def test_advance_day_drops_the_answers(self):
        engine = Study(CFG).streaming_engine().run_until(MID)
        old = engine.watermark
        assert engine.query("counts_on", old)[1] is False
        assert engine.query("counts_on", old)[1] is True
        assert engine.query("vantage_table")[1] is False
        assert engine.query("marketshare_curve")[1] is False
        assert engine.query("marketshare_curve", old)[1] is True
        engine.advance_day()
        for name, date in (
            ("counts_on", old),
            ("vantage_table", None),
            ("marketshare_curve", None),
        ):
            assert engine.query(name, date)[1] is False
        series = AdoptionSeries.from_columnar(
            engine.store, set(engine.study.toplist_domains)
        )
        assert engine.counts_on(old) == series.counts_on(old)
        assert _payload_bytes(
            engine.adoption_series().to_payload()
        ) == _payload_bytes(series.to_payload())

    def test_mutating_an_answer_changes_no_later_answer(self):
        engine = Study(CFG).streaming_engine().run_until(MID)
        date = engine.watermark
        counts = engine.counts_on(date)
        curve = engine.marketshare_curve()
        table = engine.vantage_table()
        series = engine.adoption_series()
        before = (
            Counter(counts),
            _payload_bytes(curve.to_payload()),
            _payload_bytes(table.to_payload()),
            _payload_bytes(series.to_payload()),
        )
        key = next(iter(counts))
        counts[key] += 100
        counts["not-a-cmp"] = 1
        curve.sizes.append(10**6)
        for per_size in curve.counts.values():
            per_size[0] += 1.0
        for per_cmp in table.counts.values():
            per_cmp["not-a-cmp"] = 7
        table.cmp_domains.clear()
        series.timelines.clear()
        after = (
            engine.counts_on(date),
            _payload_bytes(engine.marketshare_curve().to_payload()),
            _payload_bytes(engine.vantage_table().to_payload()),
            _payload_bytes(engine.adoption_series().to_payload()),
        )
        assert after == before

    def test_resumed_engine_answers_identically(self, tmp_path):
        cfg = dataclasses.replace(CFG, cache_dir=str(tmp_path))
        cold = Study(cfg).streaming_engine().run_until(MID)
        cold.query("counts_on", START)  # memoized before the checkpoint
        assert cold.checkpoint() is not None
        resumed = Study(cfg).streaming_engine(resume=True)
        for _ in range(2):
            assert resumed.watermark == cold.watermark
            for name, date in (
                ("counts_on", START),
                ("counts_on", cold.watermark),
                ("marketshare_curve", None),
                ("vantage_table", None),
            ):
                mine, _ = resumed.query(name, date)
                theirs, _ = cold.query(name, date)
                if isinstance(mine, Counter):
                    assert mine == theirs
                else:
                    assert _payload_bytes(mine.to_payload()) == (
                        _payload_bytes(theirs.to_payload())
                    )
            cold.advance_day()
            resumed.advance_day()

    def test_concurrent_queries_derive_each_answer_once(self):
        """Handler threads race on the memo: under the engine lock the
        first query per key derives it and every other one hits."""
        engine = Study(CFG).streaming_engine().run_until(MID)
        keys = [
            ("counts_on", START),
            ("counts_on", engine.watermark),
            ("marketshare_curve", None),
            ("vantage_table", None),
        ]
        per_thread, n_threads = 200, 8
        answers = []

        def hammer(offset):
            for i in range(per_thread):
                name, date = keys[(i + offset) % len(keys)]
                answer, _cached = engine.query(name, date)
                if name == "counts_on":
                    answers.append((name, date, dict(answer)))

        threads = [
            threading.Thread(target=hammer, args=(k,))
            for k in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        counts = engine._answers.counts()
        assert counts.misses == len(keys) == counts.entries
        assert counts.hits == per_thread * n_threads - len(keys)
        for name, date, answer in answers:
            assert answer == dict(engine.counts_on(date))

    def test_unknown_query_raises(self, engine):
        with pytest.raises(ValueError, match="unknown query"):
            engine.query("nope")


class TestCli:
    def test_study_without_follow_is_an_error(self, capsys):
        from repro.cli import main

        rc = main(["--domains", "600", "--toplist", "200", "study"])
        assert rc == 2

    def test_study_follow_runs(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "--domains", "600",
                "--toplist", "200",
                "study",
                "--follow",
                "--days", "3",
                "--events-per-day", "40",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "caught up: 3 days" in out

    def test_study_follow_rejects_workers(self, capsys):
        """The engine ingests serially, so --workers 2 is a usage error
        instead of a silently serial run."""
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "--domains", "600",
                    "--toplist", "200",
                    "--workers", "2",
                    "study",
                    "--follow",
                    "--days", "3",
                    "--events-per-day", "40",
                ]
            )
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "parallelism must be 1" in captured.err
        assert "caught up" not in captured.out

    def test_study_follow_checkpoints_need_a_cache(self, capsys):
        """--checkpoint-every without --cache-dir would write nothing,
        so it is a usage error instead of a run without checkpoints."""
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "--domains", "600",
                    "--toplist", "200",
                    "study",
                    "--follow",
                    "--days", "4",
                    "--checkpoint-every", "2",
                ]
            )
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "checkpoint_every_days" in captured.err
        assert "caught up" not in captured.out

    def test_graph_query_honours_workers(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        rc = main(
            [
                "--domains", "600",
                "--toplist", "200",
                "--workers", "2",
                "--trace-out", str(trace),
                "study",
                "--days", "3",
                "--events-per-day", "40",
                "graph-query", "summary",
            ]
        )
        assert rc == 0
        names = {
            json.loads(line)["name"]
            for line in trace.read_text().splitlines()
        }
        assert "executor.crawl" in names


def test_streaming_engine_rejects_parallelism():
    study = Study(StudyConfig(n_domains=600, toplist_size=200, parallelism=2))
    with pytest.raises(ValueError, match="parallelism must be 1, got 2"):
        study.streaming_engine()
