"""Tests of the study benchmark itself: ``PYTHONPATH=src pytest benchmarks/study``."""

import argparse
import json
import subprocess
import sys
import time

import pytest

from benchmarks.study import harness, ledger, run


def _span(span_id, name, start, end, parent=None, thread=0, seconds=None, **attrs):
    return {
        "kind": "span",
        "id": span_id,
        "parent": parent,
        "name": name,
        "thread": thread,
        "start": start,
        "end": end,
        "seconds": seconds if seconds is not None else end - start,
        "status": "ok",
        "attrs": attrs,
    }


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def test_self_time_arithmetic(tmp_path):
    spans = [
        _span(1, "bench.op", 0.0, 10.0),
        _span(2, "Study.run_social_crawl", 0.0, 6.0, parent=1),
        _span(3, "platform.run", 0.5, 5.5, parent=2),
        _span(4, "SocialShareStream.events_for_day", 1.0, 2.0, parent=3),
        _span(5, "DetectionEngine.detect_batch", 2.0, 2.5, parent=3),
        _span(6, "CaptureStore.append_batch", 2.5, 3.0, parent=3),
        # Serial crawl time is summed over days: a duration, no interval.
        _span(7, "platform.crawl", None, 5.4, parent=3, seconds=2.0),
        _span(8, "store_digest", 6.0, 7.0, parent=1),
        _span(9, "executor.crawl", 7.0, 9.0, parent=1),
        _span(10, "executor.shard", None, 8.9, parent=9, seconds=1.5),
        _span(11, "executor.shard", None, 8.9, parent=9, seconds=0.5),
        _span(12, "executor.merge", 9.0, 9.5, parent=1),
    ]
    path = _write(tmp_path / "t.jsonl", spans + [{"kind": "untraced", "wall_s": 8.0}])
    table = ledger.layer_table(path)
    assert table["crawler.seeds.s"] == pytest.approx(1.0)
    assert table["detect.engine.s"] == pytest.approx(0.5)
    assert table["crawler.columnar.append_s"] == pytest.approx(0.5)
    # visit = platform.crawl - detect - append inside it
    assert table["crawler.platform.visit_s"] == pytest.approx(1.0)
    # queue = platform.run self (5 - 2 covered) - visit
    assert table["crawler.queue.s"] == pytest.approx(2.0)
    assert table["crawler.platform.setup_s"] == pytest.approx(1.0)
    assert table["crawler.storage.digest_s"] == pytest.approx(1.0)
    # Worker shards cover no parent time: the parent waited 2 s.
    assert table["crawler.executor.wait_s"] == pytest.approx(2.0)
    assert table["crawler.executor.busy_s"] == pytest.approx(2.0)
    assert table["crawler.executor.skew"] == pytest.approx(1.5)
    # executor wall (crawl 2 + merge 0.5) - max shard 1.5 - merge 0.5
    assert table["crawler.executor.overhead_s"] == pytest.approx(0.5)
    assert table["bench.unattributed_s"] == pytest.approx(0.5)
    assert table["bench.layer_coverage"] == pytest.approx(0.95)
    assert table["bench.trace_overhead_frac"] == pytest.approx(0.25)
    assert set(table) == set(ledger.LAYER_METRICS)


def test_reparent_separates_threads():
    # A query span on another thread opened while the main thread was
    # inside day 1 must not become the parent of day 1's children.
    spans = [
        _span(1, "bench.op", 0.0, 10.0),
        _span(2, "StreamingStudyEngine.advance_day", 1.0, 4.0),
        _span(3, "stream.query", 1.5, 2.5, thread=1),
        _span(4, "platform.run", 2.0, 3.0),
        _span(5, "platform.crawl", None, 2.9, seconds=0.5),
    ]
    ledger.reparent(spans)
    parents = {s["id"]: s["parent"] for s in spans}
    assert parents == {1: None, 2: 1, 3: None, 4: 2, 5: 4}


def test_percentile_needs_ten_samples_beyond():
    assert harness.percentile_or_none(list(range(99)), 0.90) is None
    assert harness.percentile_or_none(list(range(100)), 0.90) == 89
    assert harness.percentile_or_none([1.0] * 19, 0.50) is None


def test_regressions_name_metric_and_workload():
    specs = [
        {"name": "wall_s", "better": "lower", "bound": 0.1},
        {"name": "qps", "better": "higher", "bound": 0.1},
    ]
    base = {"paper": {"wall_s": 10.0, "qps": 100.0}}
    assert harness.regressions({"paper": {"wall_s": 10.9, "qps": 91.0}}, base, specs) == []
    failures = harness.regressions({"paper": {"wall_s": 11.1, "qps": 89.0}}, base, specs)
    assert [f.split(":")[0] for f in failures] == ["wall_s x paper", "qps x paper"]


def _smoke_args(**overrides):
    args = argparse.Namespace(seed=7, scale="smoke", seconds=0.0, repeat=1)
    vars(args).update(overrides)
    return args


def test_wrong_reference_digest_counts_as_failure(tmp_path, monkeypatch):
    reference = json.loads(run.REFERENCE_FILE.read_text())
    wrong = dict(reference["smoke"]["paper"], store="0" * 64)
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps({"smoke": {"paper": wrong}}))
    monkeypatch.setattr(run, "REFERENCE_FILE", bad)
    record = run.measure("paper", _smoke_args(), None)
    assert record["failed"] == 1
    monkeypatch.setattr(run, "REFERENCE_FILE", tmp_path / "absent.json")
    assert run.measure("paper", _smoke_args(), None)["failed"] == 0


def test_smoke_run_prints_every_metric_without_failures(tmp_path):
    declared = harness.load_benchmark()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--smoke", "--seconds", "0",
         "--repeat", "1", "--trace", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(run.WORKLOADS)
    assert all(r["failed"] == 0 and r["attempted"] > 0 for r in results)
    for spec in declared["end_to_end"] + declared["per_layer"]:
        assert spec["name"] in proc.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{w}.trace.jsonl" for w in run.WORKLOADS
    )
