"""Record the consent-graph baseline to ``BENCH_graph.json``.

Standalone perf recorder for :mod:`repro.graph`: times the full study
graph build (nodes+edges per second) and the latency of every analysis
query over it -- each query's projection of the graph plus its one
:mod:`repro.core` call -- writing a compact JSON record so the graph
subsystem's perf trajectory is tracked in-repo. Run from the
repository root:

    PYTHONPATH=src python benchmarks/record_graph.py

``--check`` (wired as ``make bench-graph``, the CI perf gate) re-times
the build best-of-N and fails when the fresh nodes+edges/sec rate drops
below ``FLOOR_FRACTION`` (0.8x) of the committed baseline; it never
writes the JSON.
"""

import argparse
import datetime as dt
import json
import os
import platform as platform_mod
import sys
import time
from pathlib import Path

from repro.core.pipeline import Study, StudyConfig
from repro.graph import (
    adoption_series,
    build_study_graph,
    country_fig5,
    fig5_curve,
    graph_countries,
    gvl_churn,
    observed_curve,
    vantage_table,
)
from repro.core.marketshare import default_sizes
from repro.tcf.gvlgen import GvlGenConfig, generate_gvl_history
from repro.toplist.providers import per_country_toplists

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_graph.json"

#: ``--check`` fails when the fresh build rate drops below this
#: fraction of the committed baseline (a >20% regression).
FLOOR_FRACTION = 0.8
#: Timing repetitions (best-of -- shields the floor from scheduler
#: noise on shared runners).
BUILD_REPS = 3
QUERY_REPS = 5

#: The benchmark study: a three-month crawl over a 5k world, plus a
#: shortened GVL history (same dynamics as the full one, faster).
CONFIG = StudyConfig(
    seed=7,
    n_domains=5_000,
    toplist_size=500,
    events_per_day=150,
    study_start=dt.date(2020, 3, 1),
    study_end=dt.date(2020, 6, 1),
)
QUERY_DATE = dt.date(2020, 5, 15)
GVL_CONFIG = GvlGenConfig(
    seed=20, initial_vendors=60, last_date=dt.date(2019, 6, 1)
)


def build_sources():
    study = Study(CONFIG)
    store = study.run_social_crawl()
    toplists = per_country_toplists(
        study.world, study.tranco, max_rank=CONFIG.toplist_size
    )
    versions = generate_gvl_history(GVL_CONFIG)
    return study, store, toplists, versions


def build_once(study, store, toplists, versions):
    return build_study_graph(
        store=store,
        world=study.world,
        tranco=study.tranco,
        ranking_depth=CONFIG.toplist_size,
        country_toplists=toplists,
        gvl_versions=versions,
    )


def time_build(study, store, toplists, versions, reps=BUILD_REPS):
    best = None
    graph = None
    for _ in range(reps):
        start = time.perf_counter()
        graph = build_once(study, store, toplists, versions)
        seconds = time.perf_counter() - start
        if best is None or seconds < best:
            best = seconds
    elements = graph.n_nodes + graph.n_edges
    return graph, {
        "seconds": round(best, 4),
        "nodes": graph.n_nodes,
        "edges": graph.n_edges,
        "elements_per_second": round(elements / best, 1),
        "timing_reps": reps,
        "digest": graph.digest()[:16],
    }


def time_query(fn, reps=QUERY_REPS):
    best = None
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        seconds = time.perf_counter() - start
        if best is None or seconds < best:
            best = seconds
    return round(best * 1000, 3)


def time_queries(graph, study):
    sizes = default_sizes(CONFIG.toplist_size)
    first_country = graph_countries(graph)[0]
    latencies = {
        "adoption_series": time_query(lambda: adoption_series(graph)),
        "vantage_table": time_query(lambda: vantage_table(graph)),
        "fig5_curve": time_query(lambda: fig5_curve(graph, QUERY_DATE, sizes)),
        "observed_curve": time_query(
            lambda: observed_curve(graph, QUERY_DATE, sizes)
        ),
        "gvl_churn": time_query(lambda: gvl_churn(graph)),
        "country_fig5": time_query(
            lambda: country_fig5(graph, first_country, QUERY_DATE)
        ),
    }
    return {"latency_ms": latencies}


def check_floor(out_path=OUT_PATH, floor=FLOOR_FRACTION):
    """Fail (exit 1) if the build rate regressed >20% vs *out_path*."""
    if not out_path.exists():
        print(f"no committed baseline at {out_path}; nothing to check")
        return 0
    committed = json.loads(out_path.read_text())
    committed_rate = committed["build"]["elements_per_second"]

    sources = build_sources()
    _, fresh = time_build(*sources)
    ratio = fresh["elements_per_second"] / committed_rate
    verdict = "OK" if ratio >= floor else "FAIL"
    print(
        f"graph build floor: fresh {fresh['elements_per_second']:.1f} "
        f"elements/s vs committed {committed_rate:.1f} ({ratio:.2f}x, "
        f"floor {floor:.2f}x) -- {verdict}"
    )
    if ratio < floor:
        print(
            "graph build throughput regressed more than "
            f"{(1 - floor) * 100:.0f}% against BENCH_graph.json; fix the "
            "regression or re-record the baseline with "
            "`PYTHONPATH=src python benchmarks/record_graph.py`."
        )
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare the fresh build rate against the committed "
        "baseline and fail on a >20%% regression (writes nothing)",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check_floor()

    study, store, toplists, versions = build_sources()
    graph, build = time_build(study, store, toplists, versions)
    record = {
        "python": platform_mod.python_version(),
        "machine": platform_mod.machine(),
        "cpu_count": os.cpu_count(),
        "config": {
            "seed": CONFIG.seed,
            "n_domains": CONFIG.n_domains,
            "toplist_size": CONFIG.toplist_size,
            "events_per_day": CONFIG.events_per_day,
            "window": [
                CONFIG.study_start.isoformat(),
                CONFIG.study_end.isoformat(),
            ],
            "gvl_versions": len(versions),
        },
        "build": build,
        "queries": time_queries(graph, study),
    }
    OUT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"\nbaseline written to {OUT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
