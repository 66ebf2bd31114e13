"""Seed stream and the end-to-end measurement platform."""

import datetime as dt
from collections import Counter

import pytest

from repro.crawler.columnar import VANTAGE_TABLE
from repro.crawler.platform import NetographPlatform
from repro.crawler.seeds import SocialShareStream, StreamConfig
from tests.store_oracle import rows

DAY = dt.date(2020, 4, 1)


@pytest.fixture(scope="module")
def stream(world):
    return SocialShareStream(world, StreamConfig(seed=11, events_per_day=400))


class TestSeedStream:
    def test_deterministic_per_day(self, stream):
        a = stream.events_for_day(DAY)
        b = stream.events_for_day(DAY)
        assert list(a) == list(b)

    def test_days_differ(self, stream):
        a = stream.events_for_day(DAY)
        b = stream.events_for_day(DAY + dt.timedelta(days=1))
        assert list(a) != list(b)

    def test_events_chronological(self, stream):
        events = stream.events_for_day(DAY)
        times = [e.at for e in events]
        assert times == sorted(times)
        assert all(e.at.date() == DAY for e in events)

    def test_twitter_share(self, stream):
        events = [
            e
            for day in range(5)
            for e in stream.events_for_day(DAY + dt.timedelta(days=day))
        ]
        twitter = sum(1 for e in events if e.platform == "twitter")
        # Section 3.4: Twitter accounts for 80% of all URLs.
        assert 0.74 < twitter / len(events) < 0.86

    def test_popularity_skew(self, stream, world):
        events = [
            e
            for day in range(10)
            for e in stream.events_for_day(DAY + dt.timedelta(days=day))
        ]
        ranks = []
        for e in events:
            site = world.host_to_site(e.url.host)
            if site is not None:
                ranks.append(site.rank)
        top100 = sum(1 for r in ranks if r <= 100)
        bottom_half = sum(1 for r in ranks if r > world.n_domains // 2)
        assert top100 > bottom_half

    def test_subsites_shared(self, stream):
        events = stream.events_for_day(DAY)
        subsite = sum(1 for e in events if not e.url.is_landing_page)
        assert subsite > len(events) * 0.4

    def test_shortener_used(self, stream, world):
        events = [
            e
            for day in range(5)
            for e in stream.events_for_day(DAY + dt.timedelta(days=day))
        ]
        short = sum(
            1 for e in events if e.url.host == world.config.shortener_domain
        )
        assert 0.02 < short / len(events) < 0.12

    def test_infrastructure_never_shared(self, stream, world):
        for day in range(10):
            for e in stream.events_for_day(DAY + dt.timedelta(days=day)):
                site = world.host_to_site(e.url.host)
                if site is not None:
                    assert not site.is_infrastructure

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(events_per_day=0)
        with pytest.raises(ValueError):
            StreamConfig(twitter_share=1.5)


class TestPlatform:
    def test_run_produces_observations(self, social_store):
        assert social_store.n_captures > 1000
        assert social_store.unique_domains > 200
        assert social_store.total_requests > social_store.n_captures

    def test_skip_rate_in_papers_ballpark(self, study, social_store):
        # Section 3.4: the dedup rules skip about 40% of submissions.
        # The exact rate depends on stream volume; assert a broad band.
        platform = NetographPlatform(study.world)
        platform.run(dt.date(2020, 4, 1), dt.date(2020, 4, 15))
        rate = platform.queue.stats.skip_rate
        assert 0.15 < rate < 0.65

    def test_observations_sorted_by_domain(self, social_store):
        # The crawl appends day by day, so each domain's rows arrive in
        # date order.
        by_domain = social_store.domain_day_rows()
        for domain, rows in list(by_domain.items())[:50]:
            dates = [ordinal for ordinal, _cmp in rows]
            assert dates == sorted(dates)
        assert sum(map(len, by_domain.values())) == social_store.n_rows

    def test_vantage_mix_roughly_half_eu(self, social_store):
        vantages = [VANTAGE_TABLE[v] for _d, _o, _c, v in rows(social_store)]
        regions = Counter(v.region for v in vantages)
        total = sum(regions.values())
        assert 0.42 < regions["EU"] / total < 0.58
        assert all(v.address_space == "cloud" for v in vantages[:200])

    def test_cmp_domains_detected(self, social_store):
        with_cmp = {d for d, _o, cmp_key, _v in rows(social_store) if cmp_key}
        assert len(with_cmp) > 10

    def test_store_continues_across_runs(self, study):
        platform = NetographPlatform(study.world)
        store = platform.run(dt.date(2020, 4, 1), dt.date(2020, 4, 3))
        n_first = store.n_captures
        platform.run(dt.date(2020, 4, 3), dt.date(2020, 4, 5), store=store)
        assert store.n_captures > n_first

    def test_one_observation_per_crawl(self, study):
        platform = NetographPlatform(study.world)
        store = platform.run(dt.date(2020, 4, 1), dt.date(2020, 4, 2))
        assert (
            len(rows(store))
            == store.n_captures
            == platform.stats.crawls
            > 0
        )
