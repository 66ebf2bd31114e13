"""``TrancoRanks``: the toplist's ``domain -> Tranco rank`` lookup.

It must answer ``in`` and ``get`` exactly as the dict built from the
toplist's names would, for every domain a crawl can hand it -- without
generating the toplist's sites to learn those names.
"""

import numpy as np
import pytest

from repro.toplist.tranco import TrancoList, TrancoRanks, build_tranco
from repro.web.worldgen import World, WorldConfig


def name_dict(tranco, n):
    return {d: r for r, d in enumerate(tranco.top(n), start=1)}


def assert_same_answers(ranks, expected, domains):
    for domain in domains:
        assert (domain in ranks) == (domain in expected), domain
        assert ranks.get(domain) == expected.get(domain), domain


def lookalikes(domain):
    """Hosts and domains that share *domain*'s tag but are not it."""
    name, _, suffix = domain.partition(".")
    tag = name.rsplit("-", 1)[-1]
    return [
        f"www.{domain}",
        f"nowhere-{tag}.{suffix}",
        f"{name}.example",
        domain.upper(),
    ]


@pytest.fixture(scope="module")
def small():
    world = World(WorldConfig(seed=7, n_domains=2_000))
    tranco = build_tranco(world)
    domains = [world.site(rank).domain for rank in range(1, 2_001)]
    return world, tranco, domains


@pytest.mark.parametrize("n", [1, 150, 2_000])
def test_every_domain_of_the_world_answers_as_the_name_dict(small, n):
    world, tranco, domains = small
    ranks = TrancoRanks(tranco, n)
    expected = name_dict(tranco, n)
    assert len(expected) == n
    aliases = [
        world.site(rank).domain
        for rank in range(1, 2_001)
        if world.site(rank).redirects_to is not None
    ]
    assert aliases and all(d.split(".")[0].endswith("alt") for d in aliases)
    others = [world.config.shortener_domain, "", "nodash.com", "x-.com"]
    others += [host for d in domains[:300] + aliases for host in lookalikes(d)]
    assert_same_answers(ranks, expected, domains + others)


def test_tags_that_read_as_other_ranks_in_a_large_world():
    """On a world of 61k domains ``shr.tv``'s tag reads 36,927 and the
    alias-like tag ``1alt`` reads 60,401: both are ranks there, and
    both sit in the top *n* of this synthetic order."""
    world = World(WorldConfig(seed=7, n_domains=61_000))
    assert world._rank_from_domain("shr.tv") == 36_927
    head = [36_927, 60_401, 1]
    order = np.array(
        head + [r for r in range(1, 61_001) if r not in head], dtype=np.int64
    )
    tranco = TrancoList(world=world, order=order)
    n = 40
    ranks = TrancoRanks(tranco, n)
    expected = name_dict(tranco, n)
    listed = world.site(60_401).domain
    assert listed.split(".")[0].endswith("-1alt") and expected[listed] == 2
    domains = ["shr.tv", "www.shr.tv", "nowhere-1alt.com", listed]
    domains += [host for d in expected for host in lookalikes(d)]
    assert_same_answers(ranks, expected, list(expected) + domains)
    assert "shr.tv" not in ranks and ranks.get(listed) == 2
