"""Command-line interface.

A small front-end over the :class:`~repro.core.pipeline.Study` facade so
the headline analyses can be run without writing Python:

.. code-block:: sh

    repro crawl     --days 90 --out observations.jsonl
    repro table1    --date 2020-05-15
    repro figure5   --date 2020-05-15
    repro figure6   --in observations.jsonl
    repro gvl
    repro timing

Every command accepts ``--seed`` and ``--domains`` to size the synthetic
world; results are deterministic for a given seed.

Caching: pass ``--cache-dir .repro-cache`` to persist crawl stores, the
Tranco list and derived analyses across invocations; a warm rerun serves
them from disk bit-identically (``--no-cache`` forces a cold compute).

Observability: pass ``--metrics-out metrics.jsonl`` and/or
``--trace-out trace.jsonl`` to record pipeline metrics and trace spans
(see ``docs/ARCHITECTURE.md``); a human-readable summary is printed
after the command. Results are bit-identical with or without these
flags.
"""

from __future__ import annotations

import argparse
import datetime as dt
import sys
from typing import List, Optional

from repro.core.pipeline import Study, StudyConfig
from repro.obs import Observability


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Measuring the Emergence of Consent "
        "Management on the Web' (IMC 2020)",
    )
    parser.add_argument("--seed", type=int, default=7, help="world seed")
    parser.add_argument(
        "--domains", type=int, default=20_000, help="synthetic world size"
    )
    parser.add_argument(
        "--toplist", type=int, default=2_000, help="toplist size to analyze"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the social crawl, >= 1 (1 = serial); "
        "the toplist crawl and study --follow always run serially",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="persistent artifact cache; warm reruns skip the crawl "
        "phase and are bit-identical to cold ones",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir and compute everything cold",
    )
    parser.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        metavar="ROWS",
        help="crawl-phase memory budget in resident capture rows: "
        "stores spill full segments to disk past this bound, keeping "
        "peak RSS flat at any study size; an execution knob like "
        "--workers, results are bit-identical either way",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write pipeline metrics as JSONL and print a run summary",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write trace spans/events as JSONL and print a run summary",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    crawl = sub.add_parser(
        "crawl", help="run the social-media platform and store observations"
    )
    crawl.add_argument("--days", type=int, default=90)
    crawl.add_argument(
        "--start", type=dt.date.fromisoformat, default=dt.date(2020, 3, 1)
    )
    crawl.add_argument("--events-per-day", type=int, default=400)
    crawl.add_argument("--out", required=True, help="JSONL output path")

    table1 = sub.add_parser(
        "table1", help="Table 1: CMP occurrence by vantage point"
    )
    table1.add_argument(
        "--date", type=dt.date.fromisoformat, default=dt.date(2020, 5, 15)
    )

    fig5 = sub.add_parser(
        "figure5", help="Figure 5: marketshare by toplist size"
    )
    fig5.add_argument(
        "--date", type=dt.date.fromisoformat, default=dt.date(2020, 5, 15)
    )

    fig6 = sub.add_parser(
        "figure6", help="Figure 6: adoption over time from stored observations"
    )
    fig6.add_argument("--in", dest="infile", required=True)

    sub.add_parser("gvl", help="Figures 7/8: Global Vendor List analysis")
    sub.add_parser("timing", help="Figures 9/10: dialog time costs")

    compliance = sub.add_parser(
        "compliance", help="Section 7: regulator-style dialog audit"
    )
    compliance.add_argument(
        "--date", type=dt.date.fromisoformat, default=dt.date(2020, 5, 15)
    )

    burden = sub.add_parser(
        "burden",
        help="Section 5.2: dialog burden under global vs per-site consent",
    )
    burden.add_argument("--visits", type=int, default=1_000)
    burden.add_argument(
        "--date", type=dt.date.fromisoformat, default=dt.date(2020, 5, 15)
    )

    study_cmd = sub.add_parser(
        "study",
        help="incremental streaming study engine (repro.stream)",
    )
    study_cmd.add_argument(
        "--follow",
        action="store_true",
        help="ingest the share stream day by day, maintaining results "
        "online (byte-identical to a batch run at every watermark)",
    )
    study_cmd.add_argument(
        "--start", type=dt.date.fromisoformat, default=dt.date(2020, 3, 1)
    )
    study_cmd.add_argument(
        "--days", type=int, default=60, help="event days to ingest"
    )
    study_cmd.add_argument("--events-per-day", type=int, default=400)
    study_cmd.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="DAYS",
        help="write a resumable checkpoint every N ingested days "
        "(requires --cache-dir; 0 = never)",
    )
    study_cmd.add_argument(
        "--resume",
        action="store_true",
        help="resume from the latest checkpoint in --cache-dir instead "
        "of starting cold",
    )
    study_cmd.add_argument(
        "--serve",
        type=int,
        default=None,
        metavar="PORT",
        help="after catching up, serve adoption/marketshare/vantage "
        "queries over HTTP until interrupted (0 picks a free port)",
    )
    study_sub = study_cmd.add_subparsers(dest="study_command")
    graph_query = study_sub.add_parser(
        "graph-query",
        help="build the consent ecosystem graph (repro.graph) and run "
        "one of the paper analyses as a graph query",
    )
    graph_query.add_argument(
        "query",
        choices=(
            "summary",
            "marketshare",
            "adoption",
            "vantage",
            "gvl-churn",
            "country-fig5",
        ),
        help="summary: node/edge counts and canonical digest; "
        "marketshare: Figure 5 over ADOPTED edges; adoption: monthly "
        "CMP counts from CAPTURED edges; vantage: Table 1 from "
        "CAPTURED edges; gvl-churn: Figures 7/8 over the GVL history "
        "in MEMBER_OF edges; country-fig5: per-country Figure 5 over "
        "a CrUX-shaped bucketed ranking",
    )
    graph_query.add_argument(
        "--date",
        type=dt.date.fromisoformat,
        default=None,
        help="evaluation date for marketshare/country-fig5 "
        "(default: end of the study window)",
    )
    graph_query.add_argument(
        "--country",
        default=None,
        metavar="CC",
        help="country code for country-fig5 (e.g. DE, FR, US); "
        "omit to list the available countries",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = StudyConfig(
            seed=args.seed,
            n_domains=args.domains,
            toplist_size=min(args.toplist, args.domains),
            parallelism=args.workers,
            cache_dir=None if args.no_cache else args.cache_dir,
            memory_budget=args.memory_budget,
        )
    except ValueError as exc:
        parser.error(str(exc))
    observe = args.metrics_out is not None or args.trace_out is not None
    obs = Observability() if observe else None
    study = Study(config, obs=obs)
    handler = {
        "crawl": _cmd_crawl,
        "table1": _cmd_table1,
        "figure5": _cmd_figure5,
        "figure6": _cmd_figure6,
        "gvl": _cmd_gvl,
        "timing": _cmd_timing,
        "compliance": _cmd_compliance,
        "burden": _cmd_burden,
        "study": _cmd_study,
    }[args.command]
    try:
        rc = handler(study, args)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))
    if obs is not None:
        obs.write(metrics_out=args.metrics_out, trace_out=args.trace_out)
        for path, what in (
            (args.metrics_out, "metrics"),
            (args.trace_out, "trace"),
        ):
            if path is not None:
                print(f"{what} written to {path}")
        summary = obs.summary()
        if summary:
            print("-- observability summary --")
            print(summary)
    return rc


def _cmd_crawl(study: Study, args) -> int:
    import dataclasses

    from repro.crawler.storage import write_export

    end = args.start + dt.timedelta(days=args.days)
    print(f"crawling {args.start} .. {end} "
          f"({args.events_per_day} URL shares/day)...")
    study = Study(
        dataclasses.replace(study.config, events_per_day=args.events_per_day),
        obs=study.obs,
    )
    store = study.run_social_crawl(args.start, end)
    n = write_export(store, args.out)
    print(f"{n:,} observations ({store.unique_domains:,} domains) "
          f"written to {args.out}")
    stats = study.last_crawl_stats
    if stats is not None and stats.executor is not None:
        print(f"executor: {stats.executor.summary()}")
    return 0


def _cmd_table1(study: Study, args) -> int:
    table = study.vantage_table(args.date)
    print(table.format_table())
    return 0


def _print_curve(curve, prefix: str = "") -> None:
    """One line per toplist size: total and per-CMP share (Figure 5)."""
    for size, total, per_cmp in curve.rows():
        detail = "  ".join(
            f"{k}={v * 100:.2f}%" for k, v in per_cmp.items() if v
        )
        print(f"{prefix}top {size:>9,}: {total * 100:5.2f}%   {detail}")


def _print_monthly_counts(series, dates) -> None:
    """One line per date with any CMP domain: total and per-CMP counts
    (Figure 6)."""
    for date in dates:
        counts = series.counts_on(date)
        total = sum(counts.values())
        if total:
            print(f"{date}  {total:>5}  {dict(counts)}")


def _print_gvl(analysis) -> None:
    """Vendor counts, purpose-change events per kind and net LI ->
    consent movement (Figures 7/8)."""
    for date, count in analysis.vendor_count_series()[::15]:
        print(f"{date}  {count:>4} vendors")
    events = analysis.change_events()
    for kind in sorted(events):
        print(f"  {kind:<22} {events[kind]:>5}")
    print(f"net LI -> consent: {analysis.net_li_to_consent():+d}")


def _cmd_figure5(study: Study, args) -> int:
    _print_curve(study.marketshare_curve(args.date))
    return 0


def _cmd_figure6(study: Study, args) -> int:
    from repro.core.adoption import AdoptionSeries
    from repro.crawler.storage import read_export

    series = AdoptionSeries.from_columnar(read_export(args.infile))
    _print_monthly_counts(series, study.monthly_dates())
    return 0


def _cmd_gvl(study: Study, args) -> int:
    from repro.core.gvl_analysis import GvlAnalysis
    from repro.tcf.gvlgen import generate_gvl_history

    _print_gvl(GvlAnalysis(generate_gvl_history()))
    return 0


def _cmd_timing(study: Study, args) -> int:
    from repro.core.timing import OptOutStudy, TimingStudy
    from repro.users.experiment import run_quantcast_experiment

    timing = TimingStudy(run_quantcast_experiment())
    for key, value in timing.summary().items():
        print(f"{key:<24} {value:.3f}")
    optout = OptOutStudy.run(n_runs=48)
    for label, value in optout.rows():
        print(f"{label:<34} {value:8.2f}")
    return 0


def _cmd_compliance(study: Study, args) -> int:
    from repro.core.compliance import audit_captures

    crawl = study.run_toplist_crawl(args.date, configs=("eu-univ-extended",))
    audit = audit_captures(crawl.captures_for("eu-univ-extended"))
    print(f"sites audited: {audit.sites_audited}, "
          f"with findings: {audit.sites_with_findings}")
    for code, count, rate in audit.rows():
        print(f"{code:<26} {count:>5}  ({rate * 100:.1f}% of sites)")
    return 0


def _cmd_study(study: Study, args) -> int:
    import dataclasses

    from repro.stream import QueryServer

    if getattr(args, "study_command", None) == "graph-query":
        return _cmd_graph_query(study, args)
    if not args.follow:
        print("nothing to do: pass --follow to run the streaming engine")
        return 2
    end = args.start + dt.timedelta(days=args.days)
    # Re-window the study to the requested follow range; everything
    # else (seed, world size, cache, obs) carries over.
    try:
        config = dataclasses.replace(
            study.config,
            study_start=args.start,
            study_end=end,
            events_per_day=args.events_per_day,
            checkpoint_every_days=args.checkpoint_every,
        )
    except ValueError as exc:  # an execution knob that cannot work
        raise argparse.ArgumentError(None, str(exc)) from exc
    study = Study(config, obs=study.obs)
    from repro.cache import CacheError

    try:
        engine = study.streaming_engine(resume=args.resume)
    except CacheError as exc:
        print(f"cannot resume: {exc}")
        print(
            "checkpoints are keyed by the full study config "
            "(the synthetic world depends on the window): resume "
            "with the same --seed/--domains/--toplist/--days/"
            "--events-per-day the checkpoint was written with"
        )
        return 1
    except ValueError as exc:  # an execution knob the engine cannot honour
        raise argparse.ArgumentError(None, str(exc)) from exc
    if args.resume:
        print(f"resumed from checkpoint at watermark {engine.watermark}")
    print(f"following {args.start} .. {end} "
          f"({args.events_per_day} URL shares/day)...")
    while engine.next_day < end:
        engine.advance_day()
        if engine.days_ingested % 10 == 0 or engine.next_day >= end:
            live = engine.live_counts()
            print(f"  watermark {engine.watermark}: "
                  f"{engine.rows_ingested:,} rows, "
                  f"{sum(live.values())} live CMP domains")
    stats = engine.stats_payload()
    print(f"caught up: {stats['days_ingested']} days, "
          f"{stats['rows_ingested']:,} rows, "
          f"skip rate {stats['skip_rate'] * 100:.1f}%")
    if args.serve is not None:
        server = QueryServer(engine, port=args.serve)
        print(f"query server on http://127.0.0.1:{server.port} "
              "(/healthz /stats /adoption /marketshare /vantage; "
              "Ctrl-C to stop)")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
    return 0


def _cmd_graph_query(study: Study, args) -> int:
    import dataclasses

    from repro.graph import (
        adoption_series,
        country_fig5,
        fig5_curve,
        graph_countries,
        gvl_churn,
        vantage_table,
    )

    end = args.start + dt.timedelta(days=args.days)
    study = Study(
        dataclasses.replace(
            study.config,
            study_start=args.start,
            study_end=end,
            events_per_day=args.events_per_day,
        ),
        obs=study.obs,
    )
    date = args.date or end
    gvl_versions = None
    if args.query == "gvl-churn":
        from repro.tcf.gvlgen import generate_gvl_history

        gvl_versions = generate_gvl_history()
    print(f"crawling {args.start} .. {end} and building the graph...")
    store = study.run_social_crawl()
    graph = study.build_graph(store, gvl_versions=gvl_versions)
    print(f"graph: {graph.n_nodes:,} nodes, {graph.n_edges:,} edges, "
          f"digest {graph.digest()[:16]}")
    with study.obs.span("graph.query", query=args.query):
        if args.query == "summary":
            for label, count in graph.stats().items():
                print(f"  {label:<22} {count:>7,}")
        elif args.query == "marketshare":
            _print_curve(fig5_curve(graph, date))
        elif args.query == "adoption":
            _print_monthly_counts(adoption_series(graph), study.monthly_dates())
        elif args.query == "vantage":
            print(vantage_table(graph).format_table())
        elif args.query == "gvl-churn":
            _print_gvl(gvl_churn(graph))
        else:  # country-fig5
            countries = graph_countries(graph)
            if args.country is None or args.country not in countries:
                print("pass --country CC; available: "
                      + " ".join(countries))
                return 2 if args.country is not None else 0
            _print_curve(
                country_fig5(graph, args.country, date),
                prefix=f"{args.country} ",
            )
    return 0


def _cmd_burden(study: Study, args) -> int:
    from repro.users.session import compare_consent_scopes

    reports = compare_consent_scopes(
        study.world, args.date, n_visits=args.visits, seed=args.seed
    )
    for scope, r in reports.items():
        print(f"{scope:<8} scope: {r.dialogs_shown:>4} dialogs over "
              f"{r.n_visits} visits, "
              f"{r.total_interaction_seconds:7.1f}s interaction")
    return 0


if __name__ == "__main__":
    sys.exit(main())
