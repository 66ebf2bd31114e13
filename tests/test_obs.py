"""The ``repro.obs`` observability layer.

Locks the two load-bearing contracts: instrumentation never changes
results (bit-identical stores with observability on or off), and the
null backend is a true no-op (no metrics, no spans, no errors).
"""

import datetime as dt
import json

import pytest

from repro.cli import main as cli_main
from repro.crawler import executor, spill
from repro.crawler.platform import NetographPlatform, PlatformConfig
from repro.crawler.seeds import SocialShareStream, StreamConfig
from repro.crawler.toplist_crawl import ToplistCrawler
from repro.obs import (
    NULL_OBS,
    NullObservability,
    Observability,
    resolve_obs,
)
from repro.obs.metrics import MetricsRegistry, NullMetricsRegistry
from repro.obs.trace import NullTracer, Tracer
from tests.prometheus import parse_prometheus
from tests.store_oracle import rows

WINDOW = (dt.date(2020, 4, 1), dt.date(2020, 4, 8))
#: A week around the Quantcast exclusion window (2018-07-10/11,
#: Section 3.5), so detection drops matches.
QUANTCAST_WEEK = (dt.date(2018, 7, 8), dt.date(2018, 7, 15))
MAY = dt.date(2020, 5, 15)


def run_platform(
    world, obs=None, workers=1, window=WINDOW, events_per_day=80,
    memory_budget=None,
):
    platform = NetographPlatform(
        world,
        stream=SocialShareStream(
            world, StreamConfig(events_per_day=events_per_day)
        ),
        config=PlatformConfig(memory_budget=memory_budget),
        obs=obs,
    )
    store = platform.run(*window, workers=workers)
    return platform, store


class TestMetricsRegistry:
    def test_counter_labels_and_total(self):
        reg = MetricsRegistry()
        c = reg.counter("crawls_total", "crawls")
        c.inc(outcome="ok")
        c.inc(2, outcome="ok")
        c.inc(outcome="failed")
        assert c.value(outcome="ok") == 3
        assert c.value(outcome="failed") == 1
        assert c.total == 4

    def test_registration_idempotent_and_kind_checked(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(3)
        g.set(7)
        assert g.value() == 7

    def test_histogram_aggregates(self):
        reg = MetricsRegistry()
        h = reg.histogram("seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v, pipeline="social")
        series = h.series(pipeline="social")
        assert series.count == 4
        assert series.min == 0.05 and series.max == 5.0
        assert series.bucket_counts == [1, 2, 1]  # <=0.1, <=1.0, +Inf

    def test_snapshot_deterministic_order(self):
        reg = MetricsRegistry()
        reg.counter("b_total").inc(z="1")
        reg.counter("b_total").inc(a="1")
        reg.counter("a_total").inc()
        names = [(r["metric"], r["labels"]) for r in reg.snapshot()]
        assert names == [
            ("a_total", {}),
            ("b_total", {"a": "1"}),
            ("b_total", {"z": "1"}),
        ]

    def test_write_jsonl_roundtrips(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("events_total").inc(5)
        reg.histogram("seconds").observe(0.2)
        path = tmp_path / "metrics.jsonl"
        n = reg.write_jsonl(path)
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert len(records) == n == 2
        assert records == reg.snapshot()

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("b_total", "b things").inc(2, z="1", a='q"\\x')
        reg.counter("b_total").inc(a="0")
        reg.gauge("a_depth", "queue depth\nnow").set(1.5)
        h = reg.histogram("c_seconds", "latency", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v, endpoint="/x")
        text = reg.prometheus_text()
        meta, samples = parse_prometheus(text)
        assert meta == {
            "a_depth": ("queue depth\\nnow", "gauge"),
            "b_total": ("b things", "counter"),
            "c_seconds": ("latency", "histogram"),
        }
        assert text.splitlines()[:2] == [
            "# HELP a_depth queue depth\\nnow",
            "# TYPE a_depth gauge",
        ]
        assert samples == [
            ("a_depth", {}, 1.5),
            ("b_total", {"a": "0"}, 1.0),
            ("b_total", {"a": 'q\\"\\\\x', "z": "1"}, 2.0),
            ("c_seconds_bucket", {"endpoint": "/x", "le": "0.1"}, 1.0),
            ("c_seconds_bucket", {"endpoint": "/x", "le": "1.0"}, 3.0),
            ("c_seconds_bucket", {"endpoint": "/x", "le": "+Inf"}, 4.0),
            ("c_seconds_sum", {"endpoint": "/x"}, 0.05 + 0.5 + 0.5 + 5.0),
            ("c_seconds_count", {"endpoint": "/x"}, 4.0),
        ]


class TestTracer:
    def test_nesting_and_parents(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner", k=1) as inner:
                pass
            tracer.record_span("shard", 0.5, shard=0)
            tracer.event("milestone", day="2020-04-01")
        records = tracer.export_records()
        by_name = {r["name"]: r for r in records}
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["shard"]["parent"] == by_name["outer"]["id"]
        assert by_name["shard"]["seconds"] == 0.5
        assert by_name["milestone"]["kind"] == "event"
        assert inner.seconds is not None and outer.seconds >= inner.seconds

    def test_error_status_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (record,) = tracer.export_records()
        assert record["status"] == "error"
        assert record["seconds"] is not None

    def test_export_without_timing_is_deterministic(self):
        def build():
            tracer = Tracer()
            with tracer.span("run", n=3):
                for i in range(3):
                    tracer.record_span("shard", 0.1 * i, shard=i)
            return tracer.export_records(include_timing=False)

        assert build() == build()
        assert all("seconds" not in r for r in build())

    def test_summary_lists_span_names(self):
        tracer = Tracer()
        with tracer.span("platform.run"):
            pass
        assert "platform.run" in tracer.summary()


class TestNullBackend:
    def test_resolve_defaults_to_shared_null(self):
        assert resolve_obs(None) is NULL_OBS
        obs = Observability()
        assert resolve_obs(obs) is obs

    def test_null_everything_is_noop(self, tmp_path):
        obs = NullObservability()
        assert not obs.enabled
        counter = obs.metrics.counter("x_total")
        counter.inc(5, label="a")
        assert counter.value(label="a") == 0
        obs.metrics.histogram("h").observe(1.0)
        with obs.span("anything", k=2) as span:
            span.set(more=3)
        obs.event("e")
        assert obs.metrics.snapshot() == []
        assert obs.tracer.export_records() == []
        assert obs.summary() == ""
        assert obs.metrics.write_jsonl(tmp_path / "m.jsonl") == 0
        assert not (tmp_path / "m.jsonl").exists()

    def test_null_registry_shares_instruments(self):
        reg = NullMetricsRegistry()
        assert reg.counter("a") is reg.counter("b")
        assert isinstance(NullObservability().tracer, NullTracer)


class TestInstrumentedPlatform:
    def test_results_bit_identical_with_obs_on_and_off(self, world):
        _, plain = run_platform(world, obs=None)
        _, observed = run_platform(world, obs=Observability())
        assert rows(observed) == rows(plain)
        assert observed.n_captures == plain.n_captures
        assert observed.total_requests == plain.total_requests
        assert observed.domain_day_rows() == plain.domain_day_rows()

    def test_metrics_agree_with_platform_stats(self, world):
        obs = Observability()
        platform, store = run_platform(world, obs=obs)
        m = obs.metrics
        assert m.get("platform_events_total").total == platform.stats.events
        crawls = m.get("platform_crawls_total")
        assert crawls.total == platform.stats.crawls
        assert crawls.value(outcome="failed") == platform.stats.failures
        q = m.get("queue_submissions_total")
        assert q.value(decision="accepted") == platform.queue.stats.accepted
        assert q.value(decision="skipped_url") == platform.queue.stats.skipped_url
        assert (
            q.value(decision="skipped_domain")
            == platform.queue.stats.skipped_domain
        )
        assert (
            m.get("detect_captures_total").total == platform.engine.captures_seen
        )
        cmp_hits = sum(1 for _d, _o, cmp_key, _v in rows(store) if cmp_key)
        assert m.get("detect_matches_total").total == cmp_hits

    def test_parallel_run_equals_serial_and_counts_match(self, world):
        kwargs = dict(window=QUANTCAST_WEEK, events_per_day=400)
        serial_obs = Observability()
        _, serial_store = run_platform(world, obs=serial_obs, **kwargs)
        parallel_obs = Observability()
        _, parallel_store = run_platform(
            world, obs=parallel_obs, workers=4, **kwargs
        )
        assert rows(parallel_store) == rows(serial_store)
        assert serial_obs.metrics.get("detect_excluded_total").value(
            cmp="quantcast"
        ) > 0
        # The accounting metrics agree between execution modes.
        for name in (
            "platform_crawls_total",
            "platform_events_total",
            "queue_submissions_total",
            "detect_captures_total",
            "detect_matches_total",
            "detect_excluded_total",
            "detect_overcounted_total",
        ):
            assert (
                parallel_obs.metrics.get(name).records()
                == serial_obs.metrics.get(name).records()
            ), name

    def test_sharded_merge_reads_each_spilled_segment_once(
        self, world, monkeypatch
    ):
        """The parent reads each spilled shard segment once, to merge
        it; metering a shard's detections reads none."""
        loads = []
        load_store = spill.load_store

        def counting_load_store(path, *args, **kwargs):
            loads.append(path)
            return load_store(path, *args, **kwargs)

        results = []
        map_shards = executor.map_shards

        def recording_map_shards(*args, **kwargs):
            out = map_shards(*args, **kwargs)
            results.extend(out[0])
            return out

        # Forked workers inherit the patch but count into their own copy
        # of the list: only the parent's loads are counted here.
        monkeypatch.setattr(spill, "load_store", counting_load_store)
        monkeypatch.setattr(executor, "map_shards", recording_map_shards)
        run_platform(world, obs=Observability(), workers=2, memory_budget=50)
        shard_segments = [
            path
            for result in results
            for path in result.store.segment_paths()
        ]
        assert shard_segments
        assert sorted(loads) == sorted(shard_segments)

    def test_parallel_run_emits_executor_spans(self, world):
        obs = Observability()
        platform, _ = run_platform(world, obs=obs, workers=4)
        records = obs.tracer.export_records()
        by_name = {}
        for r in records:
            by_name.setdefault(r["name"], []).append(r)
        for name in (
            "platform.run",
            "executor.derive_shards",
            "executor.crawl",
            "executor.merge",
        ):
            assert len(by_name[name]) == 1, name
        shards = by_name["executor.shard"]
        assert len(shards) == platform.stats.executor.n_shards
        crawl_id = by_name["executor.crawl"][0]["id"]
        assert all(s["parent"] == crawl_id for s in shards)
        assert sum(s["attrs"]["crawls"] for s in shards) == (
            platform.stats.executor.crawls
        )
        hist = obs.metrics.get("executor_shard_seconds")
        assert hist.series(pipeline="social").count == len(shards)

    def test_serial_run_records_crawl_phase_span(self, world):
        obs = Observability()
        run_platform(world, obs=obs)
        names = [r["name"] for r in obs.tracer.export_records()]
        assert "platform.crawl" in names
        assert "executor.crawl" not in names


class TestInstrumentedToplist:
    def test_toplist_metrics(self, study):
        domains = study.tranco.top(40)
        obs = Observability()
        result = ToplistCrawler(study.world, obs=obs).run(domains, MAY)
        counter = obs.metrics.get("toplist_crawls_total")
        for name in result.rows:
            captures = result.captures_for(name)
            failed = sum(1 for c in captures.values() if not c.succeeded)
            assert counter.value(config=name, outcome="failed") == failed
            assert (
                counter.value(config=name, outcome="ok")
                == len(captures) - failed
            )
        span_names = [r["name"] for r in obs.tracer.export_records()]
        assert "toplist.run" in span_names and "toplist.probe" in span_names
        assert span_names.count("toplist.config") == len(result.rows)
        # Detection is metered by the social crawl only.
        assert obs.metrics.get("detect_captures_total") is None


class TestCliObservability:
    def test_crawl_with_metrics_and_trace_out(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.jsonl"
        trace_path = tmp_path / "trace.jsonl"
        rc = cli_main(
            ["--domains", "1000",
             "--metrics-out", str(metrics_path),
             "--trace-out", str(trace_path),
             "crawl", "--days", "7", "--start", "2020-04-01",
             "--events-per-day", "80",
             "--out", str(tmp_path / "obs.jsonl")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "observability summary" in out
        assert "queue_submissions_total" in out
        metrics = [
            json.loads(line)
            for line in metrics_path.read_text().splitlines()
        ]
        assert any(r["metric"] == "platform_crawls_total" for r in metrics)
        trace = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        assert any(r["name"] == "platform.run" for r in trace)

    def test_flags_do_not_change_results(self, tmp_path):
        base = ["--domains", "1000", "crawl", "--days", "7",
                "--start", "2020-04-01", "--events-per-day", "80"]
        plain, observed = tmp_path / "plain.jsonl", tmp_path / "observed.jsonl"
        assert cli_main(base + ["--out", str(plain)]) == 0
        assert cli_main(
            ["--metrics-out", str(tmp_path / "m.jsonl")]
            + base
            + ["--out", str(observed)]
        ) == 0
        assert plain.read_text() == observed.read_text()
