"""The four study workloads, one measured operation per process.

The harness runs ``python -m benchmarks.study.workloads SPEC`` where
*SPEC* is a JSON object naming the workload, the kind of run (``setup``
or ``op``), the seed, the scale (``full`` or ``smoke``) and a work
directory; the child writes its measurements to ``result.json`` there.
Every input is derived from the seed; the program only ever sees the
resulting ``StudyConfig`` and its public ``Study`` /
``StreamingStudyEngine`` / ``QueryServer`` surface.

Why these four (see README.md for the measured numbers):

* ``paper`` -- the cold, serial, uncached reproduction: social crawl,
  digest, adoption, Fig-5 marketshare, Table-1 vantage crawl, GVL
  Figs 7/8 and the graph. The job users run; the vectorized serial
  crawl kernel, the toplist crawl and the graph build dominate.
* ``scale`` -- a dense social crawl on the process backend (2 workers)
  under a memory budget: queue dedup, worker kernels, shard transport
  and merge, spill writes and the fold-in reload. No toplist, graph or
  cache.
* ``warm`` -- the ``paper`` study served from a cache that set-up
  populates: the same layers, cache reads beside the cold run's writes.
* ``follow`` -- a streaming session under a transient fault schedule
  with spilling and periodic checkpoints, then a closed loop of two
  keep-alive HTTP clients against the query server: the only workload
  that runs ``repro.stream``, the retry path and the server.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import http.client
import json
import resource
import statistics
import sys
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.adoption import AdoptionSeries
from repro.core.gvl_analysis import GvlAnalysis
from repro.core.pipeline import Study, StudyConfig
from repro.crawler.storage import store_digest
from repro.faults import FaultSchedule, FaultSpec, RetryPolicy
from repro.obs import Observability
from repro.stream import serve_engine
from repro.tcf.gvlgen import GvlGenConfig, generate_gvl_history

from benchmarks.study.harness import percentile_or_none, peak_rss_mb, tree_mb
from benchmarks.study.ledger import RecordingTracer, install, write_trace

WORKLOADS = ("paper", "scale", "warm", "follow")

#: The Fig-5 / Table-1 date of the paper (Section 4).
WHEN = dt.date(2020, 5, 15)
ENDPOINTS = (
    "/healthz",
    "/adoption",
    "/adoption/live",
    "/marketshare",
    "/marketshare/live",
    "/vantage",
)
#: Load generation stays within the 2 cores of the reference machine.
CLIENTS = 2
WORKERS = 2
REQUEST_TIMEOUT_S = 30.0
#: The "transient_recovered" schedule of benchmarks/record_faults.py:
#: every injected fault is recovered by the retry policy.
FAULTS = FaultSchedule(
    seed=13,
    specs=(
        FaultSpec("dns-error", rate=0.1, attempts=1),
        FaultSpec("connection-reset", rate=0.1, attempts=2),
    ),
)
RETRY = RetryPolicy(max_retries=5, base_delay=0.01, max_delay=0.1, jitter=0.0)
_MB = 1024 * 1024


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark mode."""

    n_domains: int
    paper_window: Tuple[dt.date, dt.date]
    paper_toplist: int
    scale_start: dt.date
    scale_days: int
    scale_events_per_day: int
    scale_memory_budget: int
    follow_start: dt.date
    follow_days: int
    follow_events_per_day: int
    follow_toplist: int
    follow_memory_budget: int
    follow_checkpoint_every: int
    #: Closed-loop requests per client in the serve phase; 2 x 50 keeps
    #: at least ten samples beyond the reported p90.
    follow_requests: int
    #: Traced runs only: days ingested under open-loop query load.
    mixed_days: int
    mixed_rate_per_client: float


SCALES: Dict[str, Scale] = {
    # Sized so one operation takes a few seconds on 2 cores and the
    # whole benchmark (92 runs of set-up plus 20 s) fits in its budget.
    "full": Scale(
        n_domains=20_000,
        paper_window=(dt.date(2020, 4, 1), dt.date(2020, 6, 1)),
        paper_toplist=500,
        scale_start=dt.date(2020, 3, 1),
        scale_days=4,
        scale_events_per_day=20_000,
        scale_memory_budget=20_000,
        follow_start=dt.date(2020, 1, 1),
        follow_days=20,
        follow_events_per_day=1_000,
        follow_toplist=10_000,
        follow_memory_budget=10_000,
        follow_checkpoint_every=10,
        follow_requests=50,
        mixed_days=15,
        mixed_rate_per_client=1.0,
    ),
    "smoke": Scale(
        n_domains=2_000,
        paper_window=(dt.date(2020, 5, 1), dt.date(2020, 6, 1)),
        paper_toplist=200,
        scale_start=dt.date(2020, 3, 1),
        scale_days=2,
        scale_events_per_day=2_000,
        scale_memory_budget=1_000,
        follow_start=dt.date(2020, 1, 1),
        follow_days=6,
        follow_events_per_day=200,
        follow_toplist=500,
        follow_memory_budget=500,
        follow_checkpoint_every=3,
        follow_requests=10,
        mixed_days=3,
        mixed_rate_per_client=1.0,
    ),
}


# ----------------------------------------------------------------------
# Configurations (the only thing the program sees of the inputs)
# ----------------------------------------------------------------------
def paper_config(seed: int, scale: Scale, cache_dir: Optional[str] = None) -> StudyConfig:
    start, end = scale.paper_window
    return StudyConfig(
        seed=seed,
        n_domains=scale.n_domains,
        toplist_size=scale.paper_toplist,
        study_start=start,
        study_end=end,
        cache_dir=cache_dir,
    )


def scale_config(seed: int, scale: Scale) -> StudyConfig:
    return StudyConfig(
        seed=seed,
        n_domains=scale.n_domains,
        events_per_day=scale.scale_events_per_day,
        study_start=scale.scale_start,
        study_end=scale.scale_start + dt.timedelta(days=scale.scale_days),
        parallelism=WORKERS,
        backend="process",
        memory_budget=scale.scale_memory_budget,
    )


def follow_config(seed: int, scale: Scale, cache_dir: str) -> StudyConfig:
    days = scale.follow_days + scale.mixed_days
    return StudyConfig(
        seed=seed,
        n_domains=scale.n_domains,
        toplist_size=scale.follow_toplist,
        events_per_day=scale.follow_events_per_day,
        study_start=scale.follow_start,
        study_end=scale.follow_start + dt.timedelta(days=days),
        faults=FAULTS,
        retry=RETRY,
        cache_dir=cache_dir,
        checkpoint_every_days=scale.follow_checkpoint_every,
        memory_budget=scale.follow_memory_budget,
    )


def sha256_json(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# One operation's bookkeeping
# ----------------------------------------------------------------------
class Op:
    """Times one operation and its stages; traces them when a tracer is
    given. ``attempted`` is declared up front with :meth:`plan`, so a
    stage that raises leaves every stage it prevented counted as failed.
    """

    def __init__(self, tracer: Optional[RecordingTracer]) -> None:
        self.tracer = tracer
        self.obs = Observability(tracer=tracer) if tracer is not None else None
        self.attempted = 0
        self.done = 0
        self.wall_s = 0.0
        self.samples: Dict[str, List[float]] = {}
        #: Process peak RSS (MB) when each stage last finished.
        self.rss_after: Dict[str, float] = {}
        #: Summary numbers; in a traced run they become the root span's
        #: attrs, so the ledger reads them from the trace file.
        self.attrs: Dict[str, object] = {}
        self.root = None

    def plan(self, n: int) -> None:
        self.attempted += n

    def succeed(self, n: int = 1) -> None:
        self.done += n

    @contextmanager
    def timed(self):
        start = time.perf_counter()
        try:
            if self.tracer is None:
                yield
            else:
                with self.tracer.span("bench.op") as root:
                    self.root = root
                    yield
        finally:
            self.wall_s = time.perf_counter() - start

    def stage(self, name: str, fn: Callable, *args, **kwargs):
        start = time.perf_counter()
        if self.tracer is None:
            result = fn(*args, **kwargs)
        else:
            with self.tracer.span(name):
                result = fn(*args, **kwargs)
        self.samples.setdefault(name, []).append(time.perf_counter() - start)
        self.rss_after[name] = peak_rss_mb()
        self.done += 1
        return result


# ----------------------------------------------------------------------
# paper / warm
# ----------------------------------------------------------------------
def gvl_versions(seed: int, config: StudyConfig) -> list:
    """The GVL versions published inside the study window."""
    return [
        version
        for version in generate_gvl_history(GvlGenConfig(seed=seed))
        if config.study_start <= version.last_updated <= config.study_end
    ]


def gvl_figures(versions: list) -> dict:
    """The Figure 7/8 series of a GVL history."""
    analysis = GvlAnalysis(versions)
    return {
        "vendors": analysis.vendor_count_series(),
        "purposes": analysis.purpose_series(),
        "changes": analysis.change_series(),
        "membership": analysis.membership_series(),
    }


def run_paper(study: Study, op: Op) -> Dict[str, str]:
    """The whole reproduction; returns the digest of every output."""
    config = study.config
    op.plan(9)
    with op.timed():
        op.stage("Study.toplist_domains", lambda: study.toplist_domains)
        store = op.stage("Study.run_social_crawl", study.run_social_crawl)
        digest = op.stage("store_digest", store_digest, store)
        series = op.stage("Study.adoption_series", study.adoption_series, store)
        curve = op.stage("Study.marketshare_curve", study.marketshare_curve, WHEN)
        table = op.stage("Study.vantage_table", study.vantage_table, WHEN)
        versions = op.stage("generate_gvl_history", gvl_versions, config.seed, config)
        figures = op.stage("GvlAnalysis", gvl_figures, versions)
        graph = op.stage(
            "Study.build_graph", study.build_graph, store, gvl_versions=versions
        )
    op.attrs["graph.elements"] = graph.n_nodes + graph.n_edges
    return {
        "store": digest,
        "adoption": sha256_json(series.to_payload()),
        "marketshare": sha256_json(curve.to_payload()),
        "vantage": sha256_json(table.to_payload()),
        "gvl": sha256_json(figures),
        "graph": graph.digest(),
    }


def paper_op(spec: dict, scale: Scale, op: Op) -> Dict[str, str]:
    return run_paper(Study(paper_config(spec["seed"], scale), obs=op.obs), op)


def warm_op(spec: dict, scale: Scale, op: Op) -> Dict[str, str]:
    """Set-up: the cold pass that populates a cache in its own work
    directory. Timed runs: a fresh study served from that cache."""
    if spec["kind"] == "setup":
        cache_dir = str(Path(spec["workdir"]) / "cache")
    else:
        cache_dir = spec["cache_dir"]
    config = paper_config(spec["seed"], scale, cache_dir=cache_dir)
    return run_paper(Study(config, obs=op.obs), op)


# ----------------------------------------------------------------------
# scale
# ----------------------------------------------------------------------
def scale_op(spec: dict, scale: Scale, op: Op) -> Dict[str, str]:
    study = Study(scale_config(spec["seed"], scale), obs=op.obs)
    op.plan(4)
    with op.timed():
        op.stage("Study.toplist_domains", lambda: study.toplist_domains)
        store = op.stage("Study.run_social_crawl", study.run_social_crawl)
        digest = op.stage("store_digest", store_digest, store)
        series = op.stage("Study.adoption_series", study.adoption_series, store)
    executor = study.last_crawl_stats.executor
    if executor is not None:
        op.attrs["crawler.executor.payload_mb"] = (
            sum(shard.payload_bytes for shard in executor.shards) / _MB
        )
    op.attrs["crawler.executor.worker_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
    return {"store": digest, "adoption": sha256_json(series.to_payload())}


# ----------------------------------------------------------------------
# follow
# ----------------------------------------------------------------------
def _request(conn: http.client.HTTPConnection, endpoint: str) -> bool:
    conn.request("GET", endpoint)
    response = conn.getresponse()
    response.read()
    return response.status == 200


def _closed_loop_client(port: int, n: int, offset: int, out: list) -> None:
    """*n* requests, each sent when the previous one completed."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        for i in range(n):
            start = time.perf_counter()
            try:
                ok = _request(conn, ENDPOINTS[(i + offset) % len(ENDPOINTS)])
            except (OSError, http.client.HTTPException):
                ok = False
                conn.close()
            out.append((time.perf_counter() - start, ok))
    finally:
        conn.close()


def _open_loop_client(
    port: int, rate: float, phase: float, stop: threading.Event, out: list
) -> None:
    """Requests due every ``1/rate`` s regardless of completions; each
    sample is (seconds from due time to completion, seconds late, ok)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    origin = time.perf_counter() + phase / rate
    try:
        for i in range(sys.maxsize):
            due = origin + i / rate
            if stop.wait(max(0.0, due - time.perf_counter())):
                break
            sent = time.perf_counter()
            try:
                ok = _request(conn, ENDPOINTS[i % len(ENDPOINTS)])
            except (OSError, http.client.HTTPException):
                ok = False
                conn.close()
            out.append((time.perf_counter() - due, sent - due, ok))
    finally:
        conn.close()


def serve_closed_loop(port: int, per_client: int) -> List[Tuple[float, bool]]:
    samples: List[Tuple[float, bool]] = []
    threads = [
        threading.Thread(target=_closed_loop_client, args=(port, per_client, k, samples))
        for k in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples


def mixed_load(engine, port: int, scale: Scale, op: Op) -> None:
    """Ingest under open-loop query load (traced runs only, never gated):
    how much queries slow ingest, and how late they are answered."""
    stop = threading.Event()
    samples: list = []
    threads = [
        threading.Thread(
            target=_open_loop_client,
            args=(port, scale.mixed_rate_per_client, k / CLIENTS, stop, samples),
        )
        for k in range(CLIENTS)
    ]
    with op.tracer.span("bench.mixed") as span:
        for thread in threads:
            thread.start()
        days = []
        try:
            for _ in range(scale.mixed_days):
                start = time.perf_counter()
                engine.advance_day()
                days.append(time.perf_counter() - start)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        base = statistics.median(op.samples["StreamingStudyEngine.advance_day"])
        answered = [s for s in samples if s[2]]
        span.set(
            **{
                "stream.mixed_ingest_slowdown": statistics.median(days) / base - 1.0,
                "stream.mixed_query_p50_ms": (
                    statistics.median(s[0] for s in answered) * 1e3 if answered else None
                ),
                "stream.mixed_late_max_ms": (
                    max(s[1] for s in samples) * 1e3 if samples else None
                ),
                "requests": len(samples),
                "failed": len(samples) - len(answered),
            }
        )


def follow_op(spec: dict, scale: Scale, op: Op) -> Dict[str, str]:
    config = follow_config(spec["seed"], scale, str(Path(spec["workdir"]) / "cache"))
    study = Study(config, obs=op.obs)
    requests = CLIENTS * scale.follow_requests
    # Engine, days, serve phase, each request, batch equivalence.
    op.plan(1 + scale.follow_days + 1 + requests + 1)
    server = None
    try:
        with op.timed():
            engine = op.stage("Study.streaming_engine", study.streaming_engine)
            ingest_start = time.perf_counter()
            for _ in range(scale.follow_days):
                op.stage("StreamingStudyEngine.advance_day", engine.advance_day)
            ingest_s = time.perf_counter() - ingest_start
            server = serve_engine(engine)
            serve_start = time.perf_counter()
            samples = op.stage(
                "serve", serve_closed_loop, server.port, scale.follow_requests
            )
            serve_s = time.perf_counter() - serve_start
        latencies = [seconds * 1e3 for seconds, _ok in samples]
        op.succeed(sum(1 for _seconds, ok in samples if ok))
        p90 = percentile_or_none(latencies, 0.90)
        op.attrs.update(
            {
                "stream.engine.events_per_s": engine.platform.stats.events / ingest_s,
                "stream.server.qps": len(samples) / serve_s,
                "stream.server.query_p50_ms": statistics.median(latencies),
                "stream.server.query_p90_ms": p90,
                "ingest_s": ingest_s,
                "serve_s": serve_s,
            }
        )
        adoption = engine.adoption_series()
        digests = {
            "adoption": sha256_json(adoption.to_payload()),
            "vantage": sha256_json(engine.vantage_table().to_payload()),
            "live_marketshare": sha256_json(
                engine.live_marketshare_curve().to_payload()
            ),
        }
        # The streaming contract: follow == batch over the same rows.
        batch = AdoptionSeries.from_columnar(engine.store, set(study.toplist_domains))
        if batch.to_payload() == adoption.to_payload():
            op.succeed()
        if op.tracer is not None:
            mixed_load(engine, server.port, scale, op)
        return digests
    finally:
        if server is not None:
            server.close()


def study_setup(spec: dict, scale: Scale, op: Op) -> Dict[str, str]:
    """Cold start: a fresh interpreter builds the workload's study and
    its toplist (the harness times the whole process)."""
    seed, workdir = spec["seed"], Path(spec["workdir"])
    config = {
        "paper": lambda: paper_config(seed, scale),
        "scale": lambda: scale_config(seed, scale),
        "follow": lambda: follow_config(seed, scale, str(workdir / "cache")),
    }[spec["workload"]]()
    op.plan(1)
    with op.timed():
        op.stage("Study.toplist_domains", lambda: Study(config).toplist_domains)
    return {}


OPS = {"paper": paper_op, "scale": scale_op, "warm": warm_op, "follow": follow_op}
SETUPS = {"paper": study_setup, "scale": study_setup, "warm": warm_op, "follow": study_setup}


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    workdir = Path(spec["workdir"])
    scale = SCALES[spec["scale"]]
    tracer = None
    if spec.get("trace"):
        tracer = RecordingTracer()
        install(tracer)
    op = Op(tracer)
    runner = (SETUPS if spec["kind"] == "setup" else OPS)[spec["workload"]]
    errors: List[str] = []
    try:
        digests = runner(spec, scale, op)
    except Exception:  # counted as failed stages; the run still reports
        errors.append(traceback.format_exc())
        traceback.print_exc()
        digests = {}
    result = {
        "wall_s": op.wall_s,
        "stages": {name: sum(values) for name, values in op.samples.items()},
        "stage_rss_mb": op.rss_after,
        "attempted": op.attempted,
        "failed": op.attempted - op.done,
        "digests": digests,
        "peak_rss_mb": peak_rss_mb(),
        "disk_mb": tree_mb(workdir),
        "attrs": op.attrs,
        "errors": errors,
    }
    if tracer is not None and op.root is not None:
        op.root.set(**op.attrs, **{"bench.disk_mb": result["disk_mb"]})
        write_trace(Path(spec["trace_path"]), tracer, op.obs.metrics)
    (workdir / "result.json").write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
