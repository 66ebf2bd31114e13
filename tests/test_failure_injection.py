"""Failure injection: the pipeline under hostile conditions.

The estimators and platform must degrade gracefully -- never crash, and
fail in the *conservative* direction (undercounting, not inventing CMP
presence) -- when the world misbehaves.
"""

import dataclasses
import datetime as dt

import pytest

from repro.core.adoption import AdoptionSeries, DomainTimeline
from repro.crawler.browser import crawl_url
from repro.crawler.capture import EU_CLOUD, EU_UNIVERSITY, Observation
from repro.crawler.platform import NetographPlatform, PlatformConfig
from repro.crawler.seeds import SocialShareStream, StreamConfig
from repro.net.url import URL
from repro.web.worldgen import World, WorldConfig

MAY = dt.date(2020, 5, 15)
NOON = dt.datetime(2020, 5, 15, 12)


class TestDeadWorld:
    """A world where every crawled site has been killed."""

    @pytest.fixture()
    def dead_world(self):
        world = World(WorldConfig(seed=7, n_domains=500))
        for rank in range(1, 501):
            site = world.site(rank)
            world._cache[rank] = dataclasses.replace(
                site, reachability="unreachable", redirects_to=None
            )
        return world

    @pytest.mark.parametrize(
        "workers", [1, 3, 2], ids=["serial-1", "process-3", "process-2"]
    )
    def test_platform_survives(self, dead_world, workers):
        # Hostile conditions must not crash serial or sharded runs;
        # worker processes see the patched world via the fork-inherited
        # worker world cache.
        platform = NetographPlatform(
            dead_world,
            stream=SocialShareStream(
                dead_world, StreamConfig(seed=1, events_per_day=100)
            ),
            config=PlatformConfig(seed=2),
        )
        store = platform.run(
            dt.date(2020, 4, 1), dt.date(2020, 4, 4), workers=workers
        )
        assert platform.stats.crawls > 0
        assert platform.stats.failure_rate == 1.0
        # Nothing is detected; nothing crashes.
        assert all(cmp_key is None for _d, _o, cmp_key, _v in store.iter_rows())

    def test_series_over_failed_captures(self, dead_world):
        platform = NetographPlatform(dead_world)
        store = platform.run(dt.date(2020, 4, 1), dt.date(2020, 4, 3))
        series = AdoptionSeries.from_columnar(store)
        assert series.total_on(MAY) == 0


class TestHostileObservations:
    def test_contradictory_same_day_observations(self):
        # Three CMPs claimed for one domain on one day: the daily vote
        # settles it without crashing.
        observations = [
            Observation("x.com", MAY, "quantcast", EU_CLOUD),
            Observation("x.com", MAY, "onetrust", EU_CLOUD),
            Observation("x.com", MAY, "onetrust", EU_CLOUD),
            Observation("x.com", MAY, None, EU_CLOUD),
        ]
        tl = DomainTimeline.from_observations("x.com", observations)
        assert tl.state_on(MAY) == "onetrust"

    def test_unordered_observations(self):
        observations = [
            Observation("x.com", dt.date(2020, 3, 1), "quantcast", EU_CLOUD),
            Observation("x.com", dt.date(2020, 1, 1), "quantcast", EU_CLOUD),
            Observation("x.com", dt.date(2020, 2, 1), "quantcast", EU_CLOUD),
        ]
        tl = DomainTimeline.from_observations("x.com", observations)
        assert tl.state_on(dt.date(2020, 2, 15)) == "quantcast"

    def test_duplicate_observations(self):
        obs = Observation("x.com", MAY, "quantcast", EU_CLOUD)
        tl = DomainTimeline.from_observations("x.com", [obs] * 50)
        assert tl.state_on(MAY) == "quantcast"

    def test_single_none_observation(self):
        tl = DomainTimeline.from_observations(
            "x.com", [Observation("x.com", MAY, None, EU_CLOUD)]
        )
        assert tl.state_on(MAY) is None
        assert tl.cmp_stints == ()


class TestCrawlEdgeCases:
    def test_crawl_of_public_suffix_host(self, world):
        # A URL whose host is a bare public suffix must not crash the
        # final-domain normalization.
        cap = crawl_url(
            world,
            URL.parse("https://github.io/"),
            when=NOON,
            vantage=EU_UNIVERSITY,
        )
        assert cap.final_domain == "github.io"
        assert not cap.succeeded

    def test_crawl_with_tiny_cutoff(self, world):
        from repro.crawler.browser import CrawlProfile

        site = world.site(5)
        cap = crawl_url(
            world,
            URL.parse(f"https://www.{site.domain}/"),
            when=NOON,
            vantage=EU_UNIVERSITY,
            profile=CrawlProfile(name="instant", cutoff=0.001),
        )
        # Almost everything times out; the capture is still well-formed.
        assert cap.timed_out
        assert all(tx.started_at < 0.001 for tx in cap.transactions)
        assert cap.storage_records == ()

    def test_fragment_heavy_seed(self, world):
        site = world.site(8)
        cap = crawl_url(
            world,
            URL.parse(f"https://www.{site.domain}/#some-fragment"),
            when=NOON,
            vantage=EU_UNIVERSITY,
        )
        assert cap.final_domain == site.domain
