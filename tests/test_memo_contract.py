"""The crawl's memo contract: visits are derived, not memoized, and each
host's registrable domain and fingerprint mask live in one bounded memo
each.

Every memo here is a pure function of its key, so a bound is
bit-invisible: these tests pin which memos exist, what a crawl holds in
them, and that tiny bounds change no answer. They also pin the one
visit derivation both crawl views read: the rendered pages by digest,
and the compact view against the cut page inside and at the edges of
the structural cutoff bands.
"""

import dataclasses
import datetime as dt
import functools
import hashlib
import operator
import pickle
from collections.abc import Mapping

import pytest

from repro.cmps.base import CMP_KEYS, cmp_by_key
from repro.crawler import platform as platform_mod
from repro.crawler import queue as queue_mod
from repro.crawler.columnar import CaptureStore
from repro.crawler.platform import (
    NetographPlatform,
    PlatformConfig,
    accept,
    crawl_batch,
)
from repro.crawler.queue import CaptureQueue
from repro.crawler.seeds import SocialShareStream, StreamConfig
from repro.crawler.storage import store_digest
from repro.detect import engine as engine_mod
from repro.detect.engine import HOST_MASKS, DetectionEngine, hosts_mask
from repro.memo import FunctionMemo
from repro.net.psl import DOMAINS, default_psl, registrable_or_host
from repro.net.url import URL
from repro.web.serving import (
    CompactVisit,
    VisitSettings,
    make_short_link,
    render_page,
    visit_compact,
)
from repro.web.worldgen import World, WorldConfig

WINDOW = (dt.date(2020, 4, 1), dt.date(2020, 4, 4))

#: The Quantcast incident, an early and a late date (the US embed ramp
#: starts in 2020).
DATES = (dt.date(2018, 7, 10), dt.date(2019, 2, 1), dt.date(2020, 6, 1))
VANTAGES = (
    ("EU", "cloud"), ("US", "cloud"), ("EU", "residential"),
    ("US", "university"),
)


#: A site of the seed-11, 8k-domain world that answers EU visitors
#: with HTTP 451.
GEO_BLOCKED_RANK = 7_336


@functools.lru_cache(maxsize=None)
def _world_and_urls():
    """A world and seed URLs that reach every compact-visit class: a
    landing page and a subsite of 1,500 sites (alias, dead, failing,
    anti-bot and slow-loading sites among them) and of a geo-blocked
    one, a short link to each, two undecodable short links and a host
    outside the world."""
    world = World(WorldConfig(seed=11, n_domains=8_000))
    assert world.site(GEO_BLOCKED_RANK).blocks_eu_visitors
    urls = [
        URL.parse("https://shr.tv/zz-1"),
        URL.parse("https://shr.tv/ffffff-1"),
        URL.parse("https://ghost.external.test/"),
    ]
    for rank in [*range(1, 1_501), GEO_BLOCKED_RANK]:
        site = world.site(rank)
        urls.append(URL.parse(f"https://www.{site.domain}/"))
        urls.append(
            URL.parse(f"https://www.{site.domain}{site.subsite_path(3)}")
        )
        urls.append(make_short_link(world, site, 2))
    return world, tuple(urls)


#: sha256 of :func:`_canonical` over the pages of
#: ``TestOneVisitDerivation.test_render_page_digest``.
RENDER_DIGEST = "50530c95e072d629891a3970ac767a2b19e242dbab46f66c02a3b3ba2c437e17"


def _visits(world, urls, cutoff, dates=DATES, vantages=VANTAGES):
    return [
        visit_compact(world, url, date, region, space, cutoff)
        for date in dates
        for region, space in vantages
        for url in urls
    ]


def _canonical(value) -> str:
    """A text of *value* that depends on its contents alone: dataclass
    fields in declaration order, sets and mappings sorted (``repr``
    prints a frozenset, such as a dialog's ``shown_regions``, in
    hash-seed order)."""
    if dataclasses.is_dataclass(value):
        return type(value).__name__ + "(" + ",".join(
            _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        ) + ")"
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(map(_canonical, value)) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(map(_canonical, value))) + "}"
    if isinstance(value, Mapping):
        return "{" + ",".join(sorted(
            f"{_canonical(k)}:{_canonical(v)}" for k, v in value.items()
        )) + "}"
    return repr(value)


class TestVisitsAreDerived:
    def test_world_memos_are_exactly_the_four(self):
        world = World(WorldConfig(seed=11, n_domains=400))
        assert set(world.cache_info()) == {
            "sites", "hosts", "negative_hosts", "share_urls",
        }

    def test_repeated_visits_are_equal_and_grow_no_memo(self):
        world = World(WorldConfig(seed=11, n_domains=400))
        urls = [
            URL.parse(f"https://www.{world.site(rank).domain}/")
            for rank in range(1, 401)
        ] + [make_short_link(world, world.site(rank), 1) for rank in (2, 9)]
        first = _visits(world, urls, 10.0, vantages=VANTAGES[:1])
        held = {name: len(memo) for name, memo in world.cache_info().items()}
        assert _visits(world, urls, 10.0, vantages=VANTAGES[:1]) == first
        for cutoff in (10.0, 15.0, 120.0):
            _visits(world, urls, cutoff)
        assert {
            name: len(memo) for name, memo in world.cache_info().items()
        } == held

    @pytest.mark.parametrize(
        "band, exact", [(10.0, 10.45), (120.0, 20.15)],
        ids=["default-band", "keep-all-band"],
    )
    def test_band_visits_equal_the_skeleton_path(self, band, exact):
        """Inside [3.5, 10.4] every fast transaction is kept and every
        slow-loader CMP transaction cut, and from 20.2 on everything is
        kept: the structural path at *band* must agree with the page
        rendered and cut at *exact* (outside the bands)."""
        world, urls = _world_and_urls()
        fast = _visits(world, urls, band)
        assert fast == _visits(world, urls, exact)
        assert {visit.status for visit in fast} == {
            None, 200, 403, 404, 451, 503,
        }
        assert any(visit.blocked_by_antibot for visit in fast)
        assert any(
            "quantcast.mgr.consensu.org" in visit.kept_hosts
            for visit in fast
        )
        cmp_hosts = {host for key in CMP_KEYS for host in cmp_by_key(key).all_hosts}
        assert any(cmp_hosts.intersection(v.kept_hosts) for v in fast)
        assert any(visit.timed_out for visit in fast) == (band < 20.2)


class TestOneDomainMemo:
    def test_a_crawl_holds_each_host_domain_once(self):
        world = World(WorldConfig(seed=11, n_domains=400))
        stream = SocialShareStream(world, StreamConfig(seed=3, events_per_day=80))
        config = PlatformConfig(seed=5)
        queue, store, engine = CaptureQueue(), CaptureStore(), DetectionEngine()
        hosts = set()
        day = WINDOW[0]
        while day < WINDOW[1]:
            batch = stream.events_for_day(day)
            hosts.update(url.host for url in batch.urls)
            crawl_batch(world, config, accept(queue, batch), store, engine)
            queue.prune(dt.datetime.combine(day, dt.time()) + dt.timedelta(days=1))
            day += dt.timedelta(days=1)
        assert store.n_rows > 0
        for host in hosts:
            assert DOMAINS.data[host] == registrable_or_host(host)

        parts = queue.split(lambda domain: stream.partition_of(domain, 2), 2)
        accept(parts[0], stream.events_for_day(WINDOW[1], part=0, parts=2))
        clone = pickle.loads(pickle.dumps(parts[0]))
        assert clone.stats.submitted > 0
        for value in vars(clone).values():
            if isinstance(value, dict):
                # Cooldowns and feed positions map to ints; a domain
                # memo would map hosts to domain strings.
                assert not any(isinstance(v, str) for v in value.values())

    def test_bounded_domain_memo_evicts_and_still_answers(self):
        memo = FunctionMemo(registrable_or_host, 4)
        hosts = [
            "www.example.co.uk", "a.b.example.com", "co.uk", "github.io",
            "x.github.io", "www.ck", "sub.www.ck", "news-1.com",
        ]
        for host in hosts + hosts[::-1]:
            assert memo(host) == (default_psl().registrable_domain(host) or host)
            assert len(memo) <= 4
        assert memo.evictions > 0
        assert memo.misses == memo.evictions + len(memo)
        assert memo.hits == 0


class TestBoundedHostMasks:
    def test_small_bound_equals_an_unbounded_oracle(self, monkeypatch):
        bound = 4
        small = FunctionMemo(HOST_MASKS.function, bound)
        oracle = FunctionMemo(HOST_MASKS.function, None)
        monkeypatch.setattr(engine_mod, "HOST_MASKS", small)
        hosts = [
            host for key in CMP_KEYS for host in cmp_by_key(key).all_hosts
        ] + ["www.example.com", "cdn.sharedassets.net", "shr.tv"]
        assert len(hosts) > bound + 2
        for host in hosts + hosts[::-1]:
            assert hosts_mask([host]) == oracle(host)
            assert len(small) <= bound
        assert hosts_mask(hosts) == functools.reduce(
            operator.or_, map(oracle, hosts)
        )
        assert any(map(oracle, hosts))
        assert small.evictions > 0

    def test_tiny_crawl_memos_change_no_row(self, monkeypatch):
        def digest():
            world = World(WorldConfig(seed=11, n_domains=400))
            stream = SocialShareStream(
                world, StreamConfig(seed=3, events_per_day=80)
            )
            platform = NetographPlatform(world, stream, PlatformConfig(seed=5))
            return store_digest(platform.run(*WINDOW))

        baseline = digest()
        domains = FunctionMemo(DOMAINS.function, 4)
        masks = FunctionMemo(HOST_MASKS.function, 4)
        monkeypatch.setattr(queue_mod, "DOMAINS", domains)
        monkeypatch.setattr(platform_mod, "DOMAINS", domains)
        monkeypatch.setattr(engine_mod, "HOST_MASKS", masks)
        assert digest() == baseline
        for memo in (domains, masks):
            assert len(memo) <= 4 and memo.evictions > 0


def _rotating_visits():
    """Each URL of the contract set once, as ``(url, date, region,
    space)``, the (date, vantage) pair rotating over ``DATES`` x
    ``VANTAGES``."""
    world, urls = _world_and_urls()
    combos = [
        (date, region, space)
        for date in DATES for region, space in VANTAGES
    ]
    return world, [
        (url, *combos[i % len(combos)]) for i, url in enumerate(urls)
    ]


class TestOneVisitDerivation:
    def test_render_page_digest(self):
        """The census's full captures -- flesh, cookies, storage records,
        dialog and page text -- are pinned by the hash of their
        canonical texts over every site class."""
        world, visits = _rotating_visits()
        digest = hashlib.sha256()
        pages = []
        for url, date, region, space in visits:
            page = render_page(world, url, VisitSettings(date, region, space))
            digest.update(_canonical(page).encode("utf-8") + b"\n")
            pages.append(page)
        assert {page.status for page in pages} == {
            None, 200, 403, 404, 451, 503,
        }
        hosts = {host for page in pages for host in page.contacted_hosts}
        assert "quantcast.mgr.consensu.org" in hosts
        assert any(
            tx.response is not None and tx.response.status == 301
            for page in pages for tx in page.transactions
        )
        assert {page.dialog_shown for page in pages if page.dialog} == {
            True, False,
        }
        assert any(page.storage_records for page in pages)
        assert digest.hexdigest() == RENDER_DIGEST

    def test_band_edges_equal_the_cut_page(self):
        """At each band edge -- 3.5, 10.4 and 20.2 s -- the structural
        path keeps exactly what a crawl cut at that cutoff keeps of the
        rendered page. This pins the timing bounds the bands rest on:
        fast transactions start before 3.4 s, and slow-loader CMP
        requests start between 10.5 and 20.1 s."""
        world, visits = _rotating_visits()
        edges = (3.5, 10.4, 20.2)
        timed_out = dict.fromkeys(edges, False)
        for url, date, region, space in visits:
            page = render_page(world, url, VisitSettings(date, region, space))
            for edge in edges:
                kept, final_url, cut = page.cut(edge)
                assert visit_compact(
                    world, url, date, region, space, edge
                ) == CompactVisit(
                    page.status, final_url.host,
                    tuple(tx.request.url.host for tx in kept),
                    cut, page.blocked_by_antibot,
                )
                timed_out[edge] |= cut
        assert timed_out == {3.5: True, 10.4: True, 20.2: False}
