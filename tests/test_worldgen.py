"""World generation: determinism, site classes, domain resolution."""

import datetime as dt
from collections import Counter

import pytest

from repro.core.concentration import cmp_counts
from repro.core.marketshare import (
    marketshare_by_toplist_size,
    stratified_marketshare,
)
from repro.net.psl import default_psl
from repro.tcf.globalcookie import shared_consent_reach
from repro.toplist.tranco import build_tranco
from repro.web.worldgen import World, WorldConfig


class TestDeterminism:
    def test_same_seed_same_site(self):
        a = World(WorldConfig(seed=9, n_domains=1_000))
        b = World(WorldConfig(seed=9, n_domains=1_000))
        for rank in (1, 17, 500, 999):
            assert a.site(rank) == b.site(rank)

    def test_generation_order_irrelevant(self):
        a = World(WorldConfig(seed=9, n_domains=1_000))
        b = World(WorldConfig(seed=9, n_domains=1_000))
        ranks = [500, 3, 999, 17]
        for r in ranks:
            a.site(r)
        for r in reversed(ranks):
            b.site(r)
        for r in ranks:
            assert a.site(r) == b.site(r)

    def test_different_seed_different_world(self):
        a = World(WorldConfig(seed=1, n_domains=1_000))
        b = World(WorldConfig(seed=2, n_domains=1_000))
        assert any(a.site(r).domain != b.site(r).domain for r in range(1, 50))

    def test_site_cached(self, world):
        assert world.site(42) is world.site(42)


class TestBounds:
    def test_rank_bounds(self, world):
        with pytest.raises(KeyError):
            world.site(0)
        with pytest.raises(KeyError):
            world.site(world.n_domains + 1)

    def test_min_world_size(self):
        with pytest.raises(ValueError):
            WorldConfig(n_domains=10)


class TestSiteClasses:
    def test_class_mixture(self, world):
        classes = Counter()
        for rank in range(1, 3001):
            site = world.site(rank)
            if site.is_infrastructure:
                classes["infra"] += 1
            elif site.redirects_to is not None:
                classes["alias"] += 1
            elif site.reachability == "unreachable":
                classes["dead"] += 1
            elif site.reachability in ("http-error", "invalid-response"):
                classes["error"] += 1
            else:
                classes["normal"] += 1
        n = sum(classes.values())
        # Section 3.5 calibration: ~5% infra, ~3% dead, ~2% alias.
        assert 0.025 < classes["infra"] / n < 0.075
        assert 0.015 < classes["dead"] / n < 0.05
        assert 0.008 < classes["alias"] / n < 0.035
        assert classes["normal"] / n > 0.85

    def test_infra_never_shared(self, world):
        for rank in range(1, 2000):
            site = world.site(rank)
            if site.is_infrastructure or site.redirects_to is not None:
                assert site.share_weight == 0.0

    def test_alias_targets_are_normal_sites(self, world):
        for rank in range(1, 3000):
            site = world.site(rank)
            if site.redirects_to is not None:
                target = world.site_by_domain(site.redirects_to)
                assert target is not None
                assert target.redirects_to is None
                assert not target.is_infrastructure

    def test_domains_unique(self, world):
        domains = [world.site(r).domain for r in range(1, 2000)]
        assert len(domains) == len(set(domains))

    def test_domains_are_registrable(self, world):
        psl = default_psl()
        for rank in range(1, 300):
            domain = world.site(rank).domain
            assert psl.registrable_domain(domain) == domain


class TestDomainResolution:
    def test_site_by_domain(self, world):
        site = world.site(123)
        assert world.site_by_domain(site.domain) is site

    def test_host_to_site_strips_www(self, world):
        site = world.site(77)
        assert world.host_to_site(f"www.{site.domain}") is site

    def test_unknown_domain(self, world):
        assert world.site_by_domain("not-a-world-domain.com") is None

    def test_resolution_without_prior_generation(self):
        # Resolving a domain works even in a fresh world where the site
        # was never generated (the rank is encoded in the name).
        w1 = World(WorldConfig(seed=9, n_domains=1_000))
        domain = w1.site(444).domain
        w2 = World(WorldConfig(seed=9, n_domains=1_000))
        assert w2.site_by_domain(domain).rank == 444


class TestGeoTraits:
    def test_eu_only_embeds_exist(self, world):
        eu_only = [
            r
            for r in range(1, 5001)
            if world.site(r).ever_used_cmp
            and world.site(r).embed_regions == frozenset({"EU"})
        ]
        assert eu_only, "expected some EU-only CMP embeds"

    def test_antibot_cdn_sites_exist(self, world):
        assert any(
            world.site(r).behind_antibot_cdn for r in range(1, 2000)
        )

    def test_eu_tld_share_correlates_with_cmp(self, world):
        date = dt.date(2020, 5, 15)
        qc_eu, qc_n, ot_eu, ot_n = 0, 0, 0, 0
        for r in range(1, 5001):
            site = world.site(r)
            cmp_key = site.cmp_on(date)
            if cmp_key == "quantcast":
                qc_n += 1
                qc_eu += site.is_eu_uk_tld
            elif cmp_key == "onetrust":
                ot_n += 1
                ot_eu += site.is_eu_uk_tld
        assert qc_n > 20 and ot_n > 20
        # Quantcast customers skew EU (38.3% vs 16.3% in the paper).
        assert qc_eu / qc_n > ot_eu / ot_n


# ----------------------------------------------------------------------
# History-only reads: World.cmp_history
# ----------------------------------------------------------------------
#: Dates every ~5 weeks from before the study window to after it.
HISTORY_DATES = [dt.date(2018, 1, 1) + dt.timedelta(days=37 * i) for i in range(31)]


def site_class(site):
    if site.is_infrastructure:
        return "infrastructure"
    if site.redirects_to is not None:
        return "alias"
    if site.reachability in ("unreachable", "http-error", "invalid-response"):
        return site.reachability
    return "normal"


class TestCmpHistory:
    def test_history_equals_site_before_and_after_memoization(self):
        # Seed 7 at 2,000 domains holds every site class, both
        # invalid-response sites included, and the rank <= 30 head.
        world = World(WorldConfig(seed=7, n_domains=2_000))
        ranks = range(1, world.n_domains + 1)
        fresh = [world.cmp_history(rank) for rank in ranks]
        assert len(world.cache_info()["sites"]) == 0
        sites = [world.site(rank) for rank in ranks]
        memoized = [world.cmp_history(rank) for rank in ranks]
        assert {site_class(site) for site in sites} == {
            "infrastructure", "alias", "unreachable", "http-error",
            "invalid-response", "normal",
        }
        for before, site, after in zip(fresh, sites, memoized):
            stints = tuple((e.cmp_key, e.start, e.end) for e in site.episodes)
            assert before.stints == stints == after.stints, site.rank
            for date in HISTORY_DATES:
                assert before.cmp_on(date) == site.cmp_on(date) == after.cmp_on(date)

    def test_rank_bounds(self):
        world = World(WorldConfig(seed=7, n_domains=1_000))
        for rank in (0, 1_001):
            with pytest.raises(KeyError):
                world.cmp_history(rank)

    @pytest.mark.parametrize("seed", [7, 5])
    def test_marketshare_matches_site_oracle(self, seed):
        config = WorldConfig(seed=seed, n_domains=3_000)
        world, oracle_world = World(config), World(config)
        tranco = build_tranco(world)
        true_ranks = tranco.top_true_ranks(len(tranco))
        date = dt.date(2020, 5, 15)
        kwargs = dict(exact_limit=1_000, samples_per_stratum=300)
        oracle = stratified_marketshare(
            len(true_ranks),
            lambda p: oracle_world.site(int(true_ranks[p])).cmp_on(date),
            date,
            **kwargs,
        )
        curve = marketshare_by_toplist_size(world, tranco, date, **kwargs)
        assert curve.to_payload() == oracle.to_payload()
        expected = Counter(
            key
            for key in (oracle_world.site(r).cmp_on(date) for r in range(1, 1_001))
            if key is not None
        )
        assert cmp_counts(world, date, max_rank=1_000) == expected
        assert shared_consent_reach(world, date, max_rank=1_000) == dict(expected)

    def test_figure5_leaves_the_site_memo_empty(self):
        world = World(WorldConfig(seed=7, n_domains=3_000))
        marketshare_by_toplist_size(world, build_tranco(world), dt.date(2020, 5, 15))
        assert len(world.cache_info()["sites"]) == 0
