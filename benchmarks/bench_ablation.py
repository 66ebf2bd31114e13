"""Ablations of the design choices DESIGN.md calls out.

Three estimator/measurement decisions the paper motivates but cannot
easily quantify on the live web; the synthetic world lets us ablate
them:

1. **interpolation + fade-out** (Section 3.2) -- without gap filling the
   longitudinal series collapses towards the per-day sampling density;
2. **dual vantage points** (Section 3.5) -- measuring from US cloud only
   (as single-vantage studies do) misses a large share of CMP usage;
3. **queue deduplication** (Section 3.4) -- disabling the 1h/48h rules
   inflates crawl volume without adding domains.
"""

import datetime as dt

from benchmarks.conftest import MAY_2020, report
from repro.core.adoption import AdoptionSeries
from repro.core.vantage import VantageTable
from repro.crawler.queue import CaptureQueue


def test_ablation_interpolation(benchmark, bench_study, longitudinal_store):
    """How much of the Figure 6 series the estimator contributes."""
    restrict = set(bench_study.toplist_domains)

    def build(interpolate, fade):
        return AdoptionSeries.from_columnar(
            longitudinal_store, restrict,
            interpolate=interpolate, fade_out_days=fade,
        )

    full = benchmark.pedantic(
        build, args=(True, 30), rounds=1, iterations=1
    )
    no_interp = build(False, 30)
    no_fade = build(True, 0)
    bare = build(False, 0)

    probe = dt.date(2020, 5, 15)
    rows = [
        f"full estimator:        {full.total_on(probe)}",
        f"no interpolation:      {no_interp.total_on(probe)}",
        f"no 30-day fade-out:    {no_fade.total_on(probe)}",
        f"raw daily states only: {bare.total_on(probe)}",
    ]
    report("Ablation: interpolation + fade-out (CMP count on 2020-05-15)", rows)

    assert full.total_on(probe) > no_interp.total_on(probe)
    assert full.total_on(probe) > bare.total_on(probe)
    # Raw states undercount massively: most domains are not sampled on
    # any given day.
    assert bare.total_on(probe) < 0.6 * full.total_on(probe)


def test_ablation_single_vantage(benchmark, toplist_crawl_may):
    """What a US-cloud-only study would have concluded."""
    table = benchmark(VantageTable.from_crawl, toplist_crawl_may)
    us_only = table.total("us-cloud")
    best = table.total(table.best_config)
    missed = 1 - us_only / best
    report(
        "Ablation: single US-cloud vantage",
        [
            f"US cloud sees {us_only} CMP sites of {best} "
            f"({missed * 100:.0f}% missed)",
            "per-CMP miss rate: "
            + "  ".join(
                f"{key}={1 - table.count('us-cloud', key) / max(1, table.count(table.best_config, key)):.0%}"
                for key in ("onetrust", "quantcast", "trustarc")
            ),
        ],
    )
    assert 0.10 < missed < 0.40


def test_ablation_landing_pages_only(benchmark, bench_study):
    """Landing-page-only sampling vs subsite-aware sampling.

    The paper crawls arbitrary subsites from the share stream, which
    (a) catches CMPs on specific subsections and (b) occasionally hits
    pages without external scripts (privacy policies) -- handled by the
    1/3 heuristic. This ablation runs the same month with the stream
    forced to landing pages only.
    """
    from repro.core.adoption import AdoptionSeries
    from repro.crawler.platform import NetographPlatform, PlatformConfig
    from repro.crawler.seeds import SocialShareStream, StreamConfig

    world = bench_study.world

    def run(landing_only):
        stream = SocialShareStream(
            world,
            StreamConfig(
                seed=6,
                events_per_day=800,
                landing_page_prob=1.0 if landing_only else 0.35,
            ),
        )
        platform = NetographPlatform(
            world, stream=stream, config=PlatformConfig(seed=6)
        )
        store = platform.run(dt.date(2020, 4, 1), dt.date(2020, 5, 15))
        series = AdoptionSeries.from_columnar(store)
        return store, series.counts_on(dt.date(2020, 5, 10))

    def subsite_only_detected(store):
        """CMP domains detected whose landing page carries no CMP."""
        detected = {
            domain for domain, _o, cmp_key, _v in store.iter_rows() if cmp_key
        }
        hits = 0
        for domain in detected:
            site = world.site_by_domain(domain)
            if site is not None and not site.cmp_on_landing:
                hits += 1
        return hits

    subsites_store, subsites_counts = benchmark.pedantic(
        run, args=(False,), rounds=1, iterations=1
    )
    landing_store, landing_counts = run(True)
    subsite_hits = subsite_only_detected(subsites_store)
    landing_hits = subsite_only_detected(landing_store)
    report(
        "Ablation: landing pages only vs subsite sampling",
        [
            f"subsite sampling: {sum(subsites_counts.values())} CMP domains "
            f"from {subsites_store.n_captures:,} captures",
            f"landing only:     {sum(landing_counts.values())} CMP domains "
            f"from {landing_store.n_captures:,} captures",
            f"subsite-only CMP sites detected: {subsite_hits} "
            f"(subsite sampling) vs {landing_hits} (landing only)",
        ],
    )
    # The class of sites that embed the CMP only on subsites is
    # invisible to landing-page crawls -- the paper's reliability
    # argument for subsite sampling.
    assert subsite_hits > 0
    assert landing_hits == 0
    # Landing-only crawling also visits fewer URLs overall (one URL per
    # domain is throttled harder by the dedup rules).
    assert landing_store.n_captures < subsites_store.n_captures


def test_ablation_dom_vs_network_detection(benchmark, toplist_crawl_may):
    """Why the paper counts by network fingerprints, not DOM parsing.

    Runs both detectors over the EU-university captures: the DOM
    detector misses geo-gated dialogs, API-only custom UIs, and dialogs
    configured away -- the network pattern sees them all.
    """
    from repro.detect.domdetect import detect_cmp_from_dialog
    from repro.detect.engine import detect_cmp

    captures = toplist_crawl_may.captures_for("eu-univ-extended")

    def run_both():
        network = dom = 0
        for capture in captures.values():
            if detect_cmp(capture).cmp_key:
                network += 1
            if detect_cmp_from_dialog(capture.dom_dialog, capture.dialog_shown):
                dom += 1
        return network, dom

    network, dom = benchmark.pedantic(run_both, rounds=1, iterations=1)
    report(
        "Ablation: DOM-based vs network-based CMP detection",
        [
            f"network fingerprints: {network} CMP sites",
            f"DOM/CSS fingerprints: {dom} CMP sites "
            f"({(1 - dom / network) * 100:.0f}% missed)",
        ],
    )
    assert dom < network
    assert network > 0


def test_ablation_queue_dedup(benchmark, bench_study):
    """Crawl-volume inflation without the dedup rules."""
    stream = bench_study.run_social_crawl  # noqa: F841  (documented intent)
    from repro.crawler.seeds import SocialShareStream, StreamConfig

    stream = SocialShareStream(
        bench_study.world, StreamConfig(seed=3, events_per_day=1_000)
    )

    def run_queue(dedup):
        queue = CaptureQueue()
        accepted = 0
        day = dt.date(2020, 4, 1)
        while day < dt.date(2020, 4, 15):
            batch = stream.events_for_day(day)
            if dedup:
                base = batch.ordinal * 86_400
                for url, second in zip(batch.urls, batch.seconds.tolist()):
                    accepted += queue.submit_at(url, base + second)
            else:
                accepted += len(batch)
            day += dt.timedelta(days=1)
        return accepted

    with_dedup = benchmark.pedantic(
        run_queue, args=(True,), rounds=1, iterations=1
    )
    without = run_queue(False)
    report(
        "Ablation: queue deduplication (two weeks @1000 URLs/day)",
        [
            f"with dedup:    {with_dedup:,} crawls",
            f"without dedup: {without:,} crawls "
            f"(+{(without / with_dedup - 1) * 100:.0f}%)",
        ],
    )
    assert without > 1.2 * with_dedup
