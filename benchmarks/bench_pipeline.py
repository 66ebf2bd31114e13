"""Sections 3.4/3.5: platform-level statistics.

Paper: 161M captures of 4.2M unique domains (we reproduce the pipeline
at ~10^4 scale); the dedup rules skip about 40% of submitted URLs; 1076
of the Tranco-10k domains were never shared on social media (315
unreachable, 70 HTTP errors, 4 invalid, 192 redirects counted as their
target, ~495 infrastructure); for 99.8% of domains the daily share of
CMP captures is consistently below 5% or above 95%; double-CMP
overcounting affects ~0.01% of captures.
"""

import datetime as dt

from benchmarks.conftest import report
from repro.core.adoption import daily_share_consistency
from repro.crawler.platform import NetographPlatform, PlatformConfig
from repro.crawler.seeds import SocialShareStream, StreamConfig


def test_pipeline_throughput_and_stats(benchmark, bench_study):
    """Times one month of the full platform pipeline end to end."""
    world = bench_study.world

    def run_month():
        platform = NetographPlatform(
            world,
            stream=SocialShareStream(
                world, StreamConfig(seed=8, events_per_day=1_500)
            ),
            config=PlatformConfig(seed=9),
        )
        store = platform.run(dt.date(2020, 4, 1), dt.date(2020, 5, 1))
        return platform, store

    platform, store = benchmark.pedantic(run_month, rounds=1, iterations=1)

    skip_rate = platform.queue.stats.skip_rate
    consistency = daily_share_consistency(store.domain_day_rows())
    rows = [
        f"captures: {store.n_captures:,}   "
        f"unique domains: {store.unique_domains:,}   "
        f"HTTP requests: {store.total_requests:,}",
        f"queue skip rate: {skip_rate * 100:.1f}%  (paper: ~40%)",
        f"crawl failure rate: {platform.stats.failure_rate * 100:.1f}%",
        f"daily-share consistency: {consistency * 100:.2f}%  (paper: 99.8%)",
        f"multi-CMP overcount rate: "
        f"{platform.engine.overcount_rate * 100:.3f}%  (paper: 0.01%)",
    ]
    report("Sections 3.4/3.5: pipeline statistics", rows)

    assert store.n_captures > 5_000
    assert 0.15 < skip_rate < 0.65
    assert consistency > 0.97
    assert platform.engine.overcount_rate < 0.005


def test_missing_data_breakdown(benchmark, bench_study):
    """The Section 3.5 'Missing Data' census over the Tranco 10k."""
    world = bench_study.world
    tranco = bench_study.tranco

    def census():
        never_shared = unreachable = http_error = invalid = 0
        redirects = infrastructure = 0
        for true_rank in tranco.top_true_ranks(10_000).tolist():
            site = world.site(int(true_rank))
            if site.share_weight > 0:
                continue
            never_shared += 1
            if site.reachability == "unreachable":
                unreachable += 1
            elif site.reachability == "http-error":
                http_error += 1
            elif site.reachability == "invalid-response":
                invalid += 1
            elif site.redirects_to is not None:
                redirects += 1
            elif site.is_infrastructure:
                infrastructure += 1
        return dict(
            never_shared=never_shared,
            unreachable=unreachable,
            http_error=http_error,
            invalid=invalid,
            redirects=redirects,
            infrastructure=infrastructure,
        )

    stats = benchmark(census)
    paper = dict(
        never_shared=1076, unreachable=315, http_error=70, invalid=4,
        redirects=192, infrastructure=495,
    )
    report(
        "Section 3.5: never-shared Tranco-10k domains",
        [
            f"{key:<15} {value:>5}  (paper: {paper[key]})"
            for key, value in stats.items()
        ],
    )
    assert 700 < stats["never_shared"] < 1500
    assert stats["unreachable"] > stats["http_error"] > stats["invalid"]
    assert stats["infrastructure"] > 250
