"""Micro-benchmarks of the hot paths.

Not a paper figure -- these measure the library's own throughput so
regressions in the simulation substrate are visible: world generation,
page rendering, CMP detection, consent-string codec, PSL lookups, and
the sharded crawl executor (serial vs. process pool on one workload).

``benchmarks/record_throughput.py`` runs the same workloads standalone
and records the ``BENCH_throughput.json`` baseline tracked in the repo.
"""

import datetime as dt
import random

import pytest

from repro.crawler.browser import crawl_url
from repro.crawler.capture import EU_UNIVERSITY
from repro.crawler.platform import NetographPlatform, PlatformConfig
from repro.crawler.seeds import SocialShareStream, StreamConfig
from repro.detect.engine import detect_cmp
from repro.net.psl import default_psl
from repro.net.url import URL
from repro.tcf.consentstring import ConsentString, decode_consent_string
from repro.web.serving import VisitSettings, render_page
from repro.web.worldgen import World, WorldConfig

MAY = dt.date(2020, 5, 15)
NOON = dt.datetime(2020, 5, 15, 12)

#: The parallel-crawl benchmark window (~6.5k crawls on the bench world).
PARALLEL_WINDOW = (dt.date(2020, 4, 1), dt.date(2020, 4, 15))


def test_throughput_world_generation(benchmark):
    """Sites generated per second (fresh worlds each round)."""
    counter = iter(range(10_000_000))

    def generate_batch():
        world = World(WorldConfig(seed=next(counter) + 100, n_domains=5_000))
        return [world.site(r) for r in range(1, 501)]

    sites = benchmark(generate_batch)
    assert len(sites) == 500


def test_throughput_page_render(benchmark, bench_study):
    world = bench_study.world
    urls = [
        URL.parse(f"https://www.{world.site(r).domain}/")
        for r in range(1, 101)
        if world.site(r).redirects_to is None
    ]
    settings = VisitSettings(date=MAY, region="EU", address_space="cloud")

    def render_batch():
        return [render_page(world, url, settings) for url in urls]

    pages = benchmark(render_batch)
    assert any(p.ok for p in pages)


def test_throughput_crawl_and_detect(benchmark, bench_study):
    world = bench_study.world
    urls = [
        URL.parse(f"https://www.{world.site(r).domain}/")
        for r in range(1, 101)
    ]

    def crawl_batch():
        hits = 0
        for url in urls:
            cap = crawl_url(world, url, when=NOON, vantage=EU_UNIVERSITY)
            if detect_cmp(cap).cmp_key:
                hits += 1
        return hits

    hits = benchmark(crawl_batch)
    assert hits >= 0


def _platform_for(world):
    return NetographPlatform(
        world,
        stream=SocialShareStream(world, StreamConfig(events_per_day=600)),
        config=PlatformConfig(),
    )


_parallel_observations = {}


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_throughput_parallel_crawl(benchmark, bench_study, workers):
    """Crawl-phase throughput, serial vs. sharded process pools.

    Every configuration runs the identical two-week social window; the
    cross-check below asserts the executor's determinism contract on the
    benchmarked stores themselves. Speedup over the one-worker (serial)
    row is bounded by the machine's core count -- on a single-core runner
    the parallel rows only measure fan-out overhead.
    """
    world = bench_study.world

    def crawl_window():
        platform = _platform_for(world)
        return platform.run(*PARALLEL_WINDOW, workers=workers)

    store = benchmark.pedantic(crawl_window, rounds=2, iterations=1)
    assert store.n_captures > 1_000
    keys = list(store.iter_rows())
    baseline = _parallel_observations.setdefault("keys", keys)
    assert keys == baseline  # any worker count => identical observations


def test_throughput_consent_string_codec(benchmark):
    rng = random.Random(0)
    strings = []
    for _ in range(50):
        consents = frozenset(
            v for v in range(1, 600) if rng.random() < 0.6
        )
        strings.append(
            ConsentString.build(
                cmp_id=10, vendor_list_version=180, max_vendor_id=600,
                allowed_purposes=(1, 2, 3), vendor_consents=consents,
            ).encode()
        )

    def decode_batch():
        return [decode_consent_string(s) for s in strings]

    decoded = benchmark(decode_batch)
    assert len(decoded) == 50


def test_throughput_psl_lookup(benchmark, bench_study):
    psl = default_psl()
    world = bench_study.world
    hosts = [f"www.{world.site(r).domain}" for r in range(1, 501)]

    def lookup_batch():
        return [psl.registrable_domain(h) for h in hosts]

    domains = benchmark(lookup_batch)
    assert all(d is not None for d in domains)
