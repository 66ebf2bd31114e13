"""Rendering page visits of the synthetic web.

:func:`render_page` is the "server plus page JavaScript" of the synthetic
world: given a URL, a visit date and visitor properties (region, address
space, browser language) it produces everything a real browser would
observe -- the HTTP transactions with timings, cookies, the consent-dialog
state and the visible page text.

The browser simulator in :mod:`repro.crawler.browser` layers crawl
behaviour (timeouts, redirect following, storage capture) on top.

Hot-path structure
------------------

A visit is split into an observable **skeleton** and cosmetic **flesh**:

* the skeleton (:func:`_visit_skeleton`) decides everything a crawl
  *outcome* depends on -- redirect hops, the final host, the document
  status, which transactions exist and when each starts, whether and
  when the CMP script loads. It draws from a per-visit
  :class:`~repro.det.KeyedRand` keyed on ``(world seed, url, date,
  visitor)``;
* the flesh (response sizes, durations of leaf transactions, IPs,
  cookie values, storage records, page text) is only materialized by
  :func:`render_page`, from a *disjoint* stream split off the same key.

The columnar crawl path (:func:`visit_compact`) consumes the skeleton
alone and never builds transaction or page objects, which is where the
bulk of its speedup comes from; both paths draw from one stream, so
their observable results are identical (pinned by
``tests/test_columnar.py``). At the default and extended crawl cutoffs
it does not even draw the skeleton's timings: it follows the same
decisions inline and reads only the draws that can change what a crawl
records (pinned to the skeleton path by ``tests/test_memo_contract.py``).
Nothing is memoized per visit.
"""

from __future__ import annotations

import datetime as dt
import zlib
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from repro.cmps.base import DialogDescriptor, cmp_by_key
from repro.datasets import GDPR_PHRASES
from repro.det import KeyedRand, fold64, key64
from repro.net.http import Cookie, HttpRequest, HttpResponse, HttpTransaction
from repro.net.url import URL
from repro.web.website import CmpEpisode, Website
from repro.web.worldgen import World

#: Visitor regions (same vocabulary as the CMP models).
REGIONS = ("EU", "US")

#: Address spaces; anti-bot CDNs only interfere with public cloud
#: ranges (Section 3.5, "Crawler Location").
ADDRESS_SPACES = ("cloud", "university", "residential")

#: Third-party hosts every ad-funded page embeds regardless of CMPs.
_COMMON_THIRD_PARTIES = (
    "metrics.webstats-collector.com",
    "cdn.sharedassets.net",
    "ads.bidexchange.net",
)

#: Compact region/address-space ids used in visit keys (cheaper to fold
#: than strings, and independent of string hashing).
_REGION_ID = {"EU": 0, "US": 1}
_SPACE_ID = {"cloud": 0, "university": 1, "residential": 2}

#: Salt for the flesh stream split (see module docstring).
_FLESH_SALT = 2

#: Per-seed visit-key prefix (the ``key64(seed, 17)`` fold state),
#: cached so each visit folds only its varying parts.
_VK_PREFIX: dict = {}

#: Quantcast analytics incident window (Section 3.5), as date ordinals.
_QCA_START = dt.date(2018, 7, 10).toordinal()
_QCA_END = dt.date(2018, 7, 11).toordinal()

_ANTIBOT_TEXT = "Checking your browser before accessing the site."
_EU_BLOCK_TEXT = "Unavailable for legal reasons."


@dataclass(frozen=True)
class VisitSettings:
    """Who is visiting, from where, and when."""

    date: dt.date
    region: str = "EU"
    address_space: str = "cloud"
    language: str = "en-US"

    def __post_init__(self) -> None:
        if self.region not in REGIONS:
            raise ValueError(f"unknown region {self.region!r}")
        if self.address_space not in ADDRESS_SPACES:
            raise ValueError(f"unknown address space {self.address_space!r}")


@dataclass(frozen=True)
class PageLoad:
    """Everything observable about one page visit."""

    seed_url: URL
    final_url: URL
    #: Status of the final document, or ``None`` when no HTTP response
    #: was received at all (DNS failure, TLS failure, reset).
    status: Optional[int]
    transactions: Tuple[HttpTransaction, ...] = ()
    cookies: Tuple[Cookie, ...] = ()
    #: The consent dialog configured for this page, if a CMP is embedded.
    dialog: Optional[DialogDescriptor] = None
    #: Whether the dialog is actually rendered for this visitor.
    dialog_shown: bool = False
    #: Visible page text (used by the GDPR phrase scan).
    page_text: str = ""
    #: The visit was answered by an anti-bot interstitial.
    blocked_by_antibot: bool = False
    #: Client-side storage entries written during the load
    #: (LocalStorage, SessionStorage, IndexedDB, WebSQL -- Section 3.2).
    storage_records: tuple = ()

    @property
    def ok(self) -> bool:
        return self.status is not None and 200 <= self.status < 300

    @property
    def contacted_hosts(self) -> Tuple[str, ...]:
        return tuple(tx.request.url.host for tx in self.transactions)

    def transactions_before(self, cutoff: float) -> Tuple[HttpTransaction, ...]:
        """Transactions that started before the crawl timeout fired."""
        return tuple(tx for tx in self.transactions if tx.started_at < cutoff)


# ----------------------------------------------------------------------
# The visit skeleton (shared by render_page and visit_compact)
# ----------------------------------------------------------------------
#: Visit outcome kinds.
_OK = 0
_SHORT_404 = 1
_DEAD_HOST = 2
_UNREACHABLE = 3
_INVALID = 4
_HTTP_ERROR = 5
_ANTIBOT = 6
_EU_BLOCKED = 7

class VisitSkeleton(NamedTuple):
    """The observable plan of one page visit (no flesh)."""

    kind: int
    #: Final document status (``None`` when no response was received).
    status: Optional[int]
    #: The site finally serving the page (``None`` for dead hosts and
    #: undecodable short links).
    site: Optional[Website]
    #: Address-bar host after all redirect hops (ignoring any cutoff).
    final_host: str
    #: ``(site, subsite_index)`` behind a shortener seed URL, if any.
    short_ref: Optional[Tuple[Website, int]]
    #: Redirect hops in order: ``(source_host, target_host, start,
    #: duration)``. At most two (shortener, alias).
    hops: Tuple[Tuple[str, str, float, float], ...]
    #: Start of the final document transaction (meaningless when
    #: ``status is None``).
    doc_start: float
    #: Duration of the final document transaction; only plan-drawn for
    #: _OK (it gates asset starts), ``None`` otherwise (flesh decides).
    doc_duration: Optional[float]
    #: Asset transactions of an _OK page: ``(host, path, start, kind)``.
    assets: Tuple[Tuple[str, str, float, str], ...]
    #: ``(episode, cmp_start)`` when the CMP is embedded for this visit.
    cmp: Optional[Tuple[CmpEpisode, float]]
    #: Subsite index of the visited path (0 = landing page).
    subsite_index: int


def visit_key(
    world_seed: int, url: URL, date_ordinal: int, region: str,
    address_space: str,
) -> int:
    """The 64-bit key all of one visit's randomness derives from.

    Uses the URL's cached :attr:`~repro.net.url.URL.h64` part, which
    folds to the same key as passing ``str(url)`` would, and resumes
    the fold from the cached ``(seed, 17)`` prefix -- both identities
    keep the key equal to ``key64(seed, 17, str(url), ...)``.
    """
    return fold64(
        visit_key_prefix(world_seed), url.h64, date_ordinal,
        _REGION_ID[region], _SPACE_ID[address_space],
    )


def _visit_skeleton(
    world: World,
    url: URL,
    date: dt.date,
    region: str,
    address_space: str,
    rng: KeyedRand,
) -> VisitSkeleton:
    """Plan one visit's observable structure.

    THE DRAW ORDER HERE IS A COMPATIBILITY CONTRACT between the row and
    columnar crawl paths: both build the skeleton through this one
    function, so any edit changes both identically -- never duplicate
    this sequence elsewhere.
    """
    now = 0.0
    host = url.host
    hops: List[Tuple[str, str, float, float]] = []
    short_ref: Optional[Tuple[Website, int]] = None

    # URL-shortener hop.
    if host == world.config.shortener_domain:
        short_ref = _decode_short_ref(world, url)
        if short_ref is None:
            return VisitSkeleton(
                _SHORT_404, 404, None, host, None, (), 0.0, None, (), None, 0
            )
        target_site, subsite_index = short_ref
        duration = 0.15 + 0.2 * rng.random()
        hops.append((host, target_site.domain, now, duration))
        now += duration
        host = target_site.domain
        site: Optional[Website] = target_site
    else:
        site = world.host_to_site(host)
        subsite_index = -1  # resolved below once the site is final

    if site is None:
        return VisitSkeleton(
            _DEAD_HOST, None, None, host, short_ref, tuple(hops),
            0.0, None, (), None, 0,
        )

    # Alias domains 301 to their canonical site.
    if site.redirects_to is not None:
        target_host = f"www.{site.redirects_to}"
        duration = 0.15 + 0.2 * rng.random()
        hops.append((host, target_host, now, duration))
        now += duration
        host = target_host
        site = world.site_by_domain(site.redirects_to)
        if site is None:
            return VisitSkeleton(
                _DEAD_HOST, None, None, host, short_ref, tuple(hops),
                0.0, None, (), None, 0,
            )

    if subsite_index < 0:
        subsite_index = _subsite_index(site, url)

    # Hard failure classes.
    reach = site.reachability
    if reach == "unreachable":
        return VisitSkeleton(
            _UNREACHABLE, None, site, host, short_ref, tuple(hops),
            0.0, None, (), None, subsite_index,
        )
    if reach == "invalid-response":
        return VisitSkeleton(
            _INVALID, None, site, host, short_ref, tuple(hops),
            0.0, None, (), None, subsite_index,
        )
    if reach == "http-error":
        return VisitSkeleton(
            _HTTP_ERROR, 503, site, host, short_ref, tuple(hops),
            now, None, (), None, subsite_index,
        )

    # Anti-bot CDNs challenge public-cloud visitors with an interstitial
    # page that embeds nothing (Section 3.5).
    if site.behind_antibot_cdn and address_space == "cloud":
        return VisitSkeleton(
            _ANTIBOT, 403, site, host, short_ref, tuple(hops),
            now, None, (), None, subsite_index,
        )

    # Geo-variable sites answering EU visitors with HTTP 451.
    if site.blocks_eu_visitors and region == "EU":
        return VisitSkeleton(
            _EU_BLOCKED, 451, site, host, short_ref, tuple(hops),
            now, None, (), None, subsite_index,
        )

    # -- the actual page -----------------------------------------------
    doc_start = now
    doc_duration = 0.3 + 0.3 * rng.random()
    now += doc_duration
    # One uniform fans out to every third-party offset via a Weyl
    # (golden-ratio) lattice: each offset is still uniform in [0.2,
    # 0.4) but costs no extra draw -- the offsets of one page are
    # correlated, which is cosmetically irrelevant and halves the draw
    # count of the hottest skeleton section.
    u = rng.random()
    assets: List[Tuple[str, str, float, str]] = [
        (
            third_party, "/collect.js",
            now + 0.2 + 0.2 * ((u + k * 0.6180339887498949) % 1.0),
            "script",
        )
        for k, third_party in enumerate(_COMMON_THIRD_PARTIES)
    ]

    # The July 2018 Quantcast analytics incident: for two days the
    # firm's *analytics* product (a different line of business) embedded
    # parts of the CMP script for all its customers, producing false
    # CMP fingerprints that the paper manually excludes (Section 3.5).
    ordinal = date.toordinal()
    if (
        _QCA_START <= ordinal <= _QCA_END
        and zlib.crc32(f"qca:{site.domain}".encode("utf-8")) % 100 < 8
    ):
        assets.append((
            "quantcast.mgr.consensu.org", "/qca-stub.js",
            now + 0.2 + 0.2 * rng.random(), "script",
        ))

    episode = site.episode_on(date)
    cmp: Optional[Tuple[CmpEpisode, float]] = None
    if (
        episode is not None
        and site.embeds_cmp_for(region, date)
        and site.subsite_embeds_cmp(subsite_index)
    ):
        model = cmp_by_key(episode.cmp_key)
        u = rng.random()
        if site.slow_loader:
            # The CMP request lands beyond the default 10s crawl cutoff
            # by construction (the site property *means* "CMP arrives
            # late", Section 3.5); extended-timeout crawls catch it.
            cmp_start = 10.5 + 9.0 * u
        else:
            cmp_start = 0.4 + 2.4 * u
        # The cmp.js offset rides on the same uniform (Weyl-shifted).
        assets.append((
            model.fingerprint_host, "/cmp.js",
            cmp_start + 0.2 + 0.2 * ((u + 0.6180339887498949) % 1.0),
            "script",
        ))
        for aux in model.auxiliary_hosts:
            # One draw decides inclusion AND offset: conditioned on
            # u < 0.7, u/0.7 is again uniform in [0, 1).
            u = rng.random()
            if u < 0.7:
                assets.append((
                    aux, "/config.json",
                    cmp_start + 0.4 + 0.2 * (u / 0.7), "xhr",
                ))
        cmp = (episode, cmp_start)

    return VisitSkeleton(
        _OK, 200, site, host, short_ref, tuple(hops), doc_start,
        doc_duration, tuple(assets), cmp, subsite_index,
    )


class CompactVisit(NamedTuple):
    """What the columnar crawl path records about one visit."""

    #: Final document status (``None``: no response received).
    status: Optional[int]
    #: Address-bar host after the redirect hops *kept* under the cutoff
    #: (matches ``follow_redirects`` over the kept transactions).
    final_host: str
    #: Request hosts of the transactions kept under the cutoff, in
    #: transaction order (the detection engine's input).
    kept_hosts: Tuple[str, ...]
    #: Some transactions started after the cutoff.
    timed_out: bool
    blocked_by_antibot: bool


#: Cutoff bands where the kept-set is *structural* (see
#: :func:`_visit_compact_fast`). Fast transactions all start before
#: 3.4s, slow-loader CMP transactions all start at 10.5s or later and
#: end by 20.1s -- so for any cutoff inside [3.5, 10.4] every fast
#: transaction is kept and every slow one is cut, and for any cutoff
#: >= 20.2 everything is kept. The default crawl profile (10s) and the
#: extended profile (120s) both hit a band; odd cutoffs (tests, custom
#: profiles) take the draw-exact skeleton path.
_SAFE_LO = 3.5
_SAFE_HI = 10.4
_KEEP_ALL = 20.2

_QCA_HOST = "quantcast.mgr.consensu.org"


def visit_key_prefix(world_seed: int) -> int:
    """The cached ``key64(seed, 17)`` fold prefix of :func:`visit_key`."""
    prefix = _VK_PREFIX.get(world_seed)
    if prefix is None:
        # A process-local memo: key64 is pure, so every worker process
        # stores an equal value.
        prefix = _VK_PREFIX[world_seed] = key64(world_seed, 17)  # repro-lint: disable=RACE001
    return prefix


def visit_compact(
    world: World,
    url: URL,
    date: dt.date,
    region: str,
    address_space: str,
    cutoff: float,
    key: Optional[int] = None,
) -> CompactVisit:
    """One visit as the columnar crawl path sees it.

    Equivalent to ``render_page`` + the browser's cutoff filtering +
    redirect following, but without materializing transactions, cookies
    or page text. *key* (when the caller already computed the visit
    key) avoids re-deriving it.

    For cutoffs inside a structural band the visit is derived without
    its timing draws (:func:`_visit_compact_fast`) -- bit-identical to
    the skeleton path, pinned by tests -- otherwise the full skeleton
    is planned and filtered draw-exactly. Nothing is memoized per
    visit: every call derives its visit afresh.
    """
    if _SAFE_LO <= cutoff <= _SAFE_HI:
        return _visit_compact_fast(world, url, date, region,
                                   address_space, False, key)
    if cutoff >= _KEEP_ALL:
        return _visit_compact_fast(world, url, date, region,
                                   address_space, True, key)
    if key is None:
        key = visit_key(
            world.config.seed, url, date.toordinal(), region,
            address_space,
        )
    sk = _visit_skeleton(world, url, date, region, address_space,
                         KeyedRand(key))
    if sk.kind == _UNREACHABLE:
        # The row path records no transactions at all for unreachable
        # sites, including any redirect hops that led there.
        return CompactVisit(None, sk.final_host, (), False, False)
    hosts: List[str] = []
    total = 0
    final_host = url.host
    # Kept redirect hops move the address bar; a hop past the cutoff
    # stops the walk (hop starts are monotonic).
    walking = True
    for source_host, target_host, start, _duration in sk.hops:
        total += 1
        if walking and start < cutoff:
            hosts.append(source_host)
            final_host = target_host
        else:
            walking = False
    if sk.status is not None:
        total += 1
        doc_host = url.host if sk.kind == _SHORT_404 else sk.final_host
        if walking and sk.doc_start < cutoff:
            hosts.append(doc_host)
    for host, _path, start, _kind in sk.assets:
        total += 1
        if start < cutoff:
            hosts.append(host)
    if not hosts:
        # No transaction kept: the browser reports the un-truncated
        # final URL (crawl_url falls back to ``page.final_url``).
        final_host = sk.final_host
    return CompactVisit(
        status=sk.status,
        final_host=final_host,
        kept_hosts=tuple(hosts),
        timed_out=len(hosts) < total,
        blocked_by_antibot=sk.kind == _ANTIBOT,
    )


def _visit_compact_fast(
    world: World,
    url: URL,
    date: dt.date,
    region: str,
    address_space: str,
    keep_all: bool,
    key: Optional[int],
) -> CompactVisit:
    """Structural-band :func:`visit_compact` (see the band constants).

    Inside a band the kept-set never depends on timing draws, so the
    visit follows the skeleton's decisions -- redirect hops, failure
    classes, the Quantcast incident and the CMP embed -- without
    drawing any timing. Only the aux-host inclusion draws consume
    randomness, and those are read at their exact skeleton stream
    positions, so results stay bit-identical to the skeleton path
    (pinned by tests over every site class).
    """
    host = url.host
    hops: Tuple[str, ...] = ()
    if host == world.config.shortener_domain:
        ref = _decode_short_ref(world, url)
        if ref is None:
            return CompactVisit(404, host, (host,), False, False)
        site, subsite_index = ref
        hops = (host,)
        host = site.domain
    else:
        site = world.host_to_site(host)
        subsite_index = -1
    if site is None:
        return CompactVisit(None, host, hops, False, False)
    if site.redirects_to is not None:
        hops += (host,)
        host = f"www.{site.redirects_to}"
        site = world.site_by_domain(site.redirects_to)
        if site is None:
            return CompactVisit(None, host, hops, False, False)

    reach = site.reachability
    if reach == "unreachable":
        # Mirrors the skeleton's early return: no transactions at all.
        return CompactVisit(None, host, (), False, False)
    if reach == "invalid-response":
        return CompactVisit(None, host, hops, False, False)
    if reach == "http-error":
        return CompactVisit(503, host, (*hops, host), False, False)
    if site.behind_antibot_cdn and address_space == "cloud":
        return CompactVisit(403, host, (*hops, host), False, True)
    if site.blocks_eu_visitors and region == "EU":
        return CompactVisit(451, host, (*hops, host), False, False)

    hosts = (*hops, host, *_COMMON_THIRD_PARTIES)
    ordinal = date.toordinal()
    qca = (
        _QCA_START <= ordinal <= _QCA_END
        and zlib.crc32(f"qca:{site.domain}".encode("utf-8")) % 100 < 8
    )
    if qca:
        hosts += (_QCA_HOST,)
    timed_out = False
    if site.episodes:
        episode = site.episode_on(date)
        if (
            episode is not None
            and (
                region in site.embed_regions
                or (
                    region == "US"
                    and site.us_embed_since is not None
                    and date >= site.us_embed_since
                )
            )
            and site.subsite_embeds_cmp(
                subsite_index if subsite_index >= 0
                else _subsite_index(site, url)
            )
        ):
            if site.slow_loader and not keep_all:
                # cmp.js (and any aux fetches) start past the cutoff:
                # cut, which is exactly what ``timed_out`` records. The
                # aux inclusion draws cannot change the kept-set, so
                # they are skipped entirely.
                timed_out = True
            else:
                model = cmp_by_key(episode.cmp_key)
                hosts += (model.fingerprint_host,)
                aux = model.auxiliary_hosts
                if aux:
                    if key is None:
                        key = visit_key(
                            world.config.seed, url, ordinal, region,
                            address_space,
                        )
                    rng = KeyedRand(key)
                    # Stream position: one draw per hop, the document
                    # duration, the third-party offset, the incident
                    # offset when active, and the cmp_start draw all
                    # precede the aux draws in the skeleton.
                    rng.skip(len(hops) + 3 + qca)
                    for aux_host in aux:
                        if rng.random() < 0.7:
                            hosts += (aux_host,)
    return CompactVisit(200, host, hosts, timed_out, False)


def render_page(
    world: World, url: URL, settings: VisitSettings
) -> PageLoad:
    """Render one visit of *url* as seen by the given visitor.

    Deterministic for a given (world seed, url, settings, date).
    """
    key = visit_key(
        world.config.seed, url, settings.date.toordinal(),
        settings.region, settings.address_space,
    )
    rng = KeyedRand(key)
    sk = _visit_skeleton(
        world, url, settings.date, settings.region, settings.address_space,
        rng,
    )
    flesh = rng.split(_FLESH_SALT)

    # Rebuild the address-bar URL chain from the hop plan.
    txs: List[HttpTransaction] = []
    current_url = url
    for _source_host, target_host, start, duration in sk.hops:
        if sk.short_ref is not None and not txs:
            target_site, index = sk.short_ref
            target_url = URL(
                scheme="https",
                host=target_site.domain,
                path=target_site.subsite_path(index),
            )
        else:
            target_url = current_url.with_host(target_host)
        txs.append(
            _redirect_tx(current_url, str(target_url), start, duration)
        )
        current_url = target_url

    if sk.kind == _SHORT_404:
        doc = _doc_tx(url, 404, 0.0, flesh)
        return PageLoad(
            seed_url=url, final_url=url, status=404, transactions=(doc,)
        )
    if sk.kind == _DEAD_HOST:
        # DNS/TLS failure: for a direct dead host nothing was recorded;
        # behind a shortener the hop transaction was.
        return PageLoad(
            seed_url=url, final_url=current_url, status=None,
            transactions=tuple(txs),
        )
    if sk.kind == _UNREACHABLE:
        return PageLoad(seed_url=url, final_url=current_url, status=None)
    if sk.kind == _INVALID:
        return PageLoad(
            seed_url=url, final_url=current_url, status=None,
            transactions=tuple(txs),
        )
    if sk.kind == _HTTP_ERROR:
        txs.append(_doc_tx(current_url, 503, sk.doc_start, flesh))
        return PageLoad(
            seed_url=url, final_url=current_url, status=503,
            transactions=tuple(txs),
        )
    if sk.kind == _ANTIBOT:
        txs.append(_doc_tx(current_url, 403, sk.doc_start, flesh))
        return PageLoad(
            seed_url=url,
            final_url=current_url,
            status=403,
            transactions=tuple(txs),
            page_text=_ANTIBOT_TEXT,
            blocked_by_antibot=True,
        )
    if sk.kind == _EU_BLOCKED:
        txs.append(_doc_tx(current_url, 451, sk.doc_start, flesh))
        return PageLoad(
            seed_url=url, final_url=current_url, status=451,
            transactions=tuple(txs),
            page_text=_EU_BLOCK_TEXT,
        )

    # -- the actual page -----------------------------------------------
    site = sk.site
    assert site is not None
    txs.append(
        _doc_tx(current_url, 200, sk.doc_start, flesh,
                duration=sk.doc_duration)
    )
    cookies = [
        Cookie(
            name="session",
            value=f"s{flesh.randrange(1 << 30):x}",
            domain=site.domain,
        )
    ]
    for host, path, start, kind in sk.assets:
        txs.append(_asset_tx(host, path, start, flesh, kind))

    dialog: Optional[DialogDescriptor] = None
    dialog_shown = False
    page_text = f"{site.domain} front matter. Latest stories and updates."

    if sk.cmp is not None:
        episode, _cmp_start = sk.cmp
        model = cmp_by_key(episode.cmp_key)
        cookies.append(
            Cookie(
                name="cmp_present",
                value=model.key,
                domain=site.domain,
                max_age=86400 * 365,
            )
        )
        dialog = episode.dialog
        dialog_shown = dialog.shown_to(settings.region)
        if dialog_shown:
            phrases = (GDPR_PHRASES[0], GDPR_PHRASES[5])
            page_text += " " + " ".join(phrases)
            page_text += f" {dialog.accept_wording}"

    from repro.crawler.clientstorage import synthesize_storage_records

    storage = synthesize_storage_records(
        site.domain,
        sk.cmp[0].cmp_key if sk.cmp is not None else None,
        flesh,
        cmp_script_at=sk.cmp[1] if sk.cmp is not None else 2.0,
    )
    return PageLoad(
        seed_url=url,
        final_url=current_url,
        status=200,
        transactions=tuple(txs),
        cookies=tuple(cookies),
        dialog=dialog,
        dialog_shown=dialog_shown,
        page_text=page_text,
        storage_records=storage,
    )


# ----------------------------------------------------------------------
# Short-link encoding (used by the social-share seed stream)
# ----------------------------------------------------------------------
def make_short_link(world: World, site: Website, subsite_index: int) -> URL:
    """Create a shortener URL that redirects to *site*'s subsite."""
    token = f"{site.rank:x}-{subsite_index}"
    return URL.parse(f"https://{world.config.shortener_domain}/{token}")


def _decode_short_ref(
    world: World, url: URL
) -> Optional[Tuple[Website, int]]:
    """The ``(site, subsite_index)`` a short link points at, if valid."""
    token = url.path.lstrip("/")
    rank_s, _, idx_s = token.partition("-")
    try:
        rank = int(rank_s, 16)
        idx = int(idx_s)
    except ValueError:
        return None
    if not 1 <= rank <= world.config.n_domains:
        return None
    return world.site(rank), idx


def _subsite_index(site: Website, url: URL) -> int:
    path = url.path
    if path in ("", "/"):
        return 0
    if path == "/privacy-policy":
        return site.privacy_policy_index
    tail = path.rsplit("/", 1)[-1]
    if tail.isdigit():
        return int(tail)
    return 1


# ----------------------------------------------------------------------
# Transaction builders (flesh: sizes, durations, IPs)
# ----------------------------------------------------------------------
def _doc_tx(
    url: URL, status: int, at: float, flesh: KeyedRand,
    duration: Optional[float] = None,
) -> HttpTransaction:
    size = max(800, int(flesh.gauss(42_000, 14_000)))
    return HttpTransaction(
        request=HttpRequest(url=url, resource_type="document"),
        response=HttpResponse(
            status=status,
            body_size=size // 4,
            body_size_uncompressed=size,
            remote_ip=(
                f"198.51.{flesh.randrange(256)}.{flesh.randrange(256)}"
            ),
            tls_subject=url.host if url.scheme == "https" else "",
        ),
        started_at=at,
        duration=(
            duration
            if duration is not None
            else max(0.05, flesh.gauss(0.45, 0.15))
        ),
    )


def _redirect_tx(
    url: URL, location: str, at: float, duration: float
) -> HttpTransaction:
    return HttpTransaction(
        request=HttpRequest(url=url, resource_type="document"),
        response=HttpResponse(
            status=301, headers={"Location": location}, body_size=0
        ),
        started_at=at,
        duration=duration,
    )


def _asset_tx(
    host: str, path: str, at: float, flesh: KeyedRand, kind: str
) -> HttpTransaction:
    size = max(200, int(flesh.gauss(18_000, 9_000)))
    return HttpTransaction(
        request=HttpRequest(
            url=URL.parse(f"https://{host}{path}"), resource_type=kind
        ),
        response=HttpResponse(
            status=200, body_size=size // 3, body_size_uncompressed=size
        ),
        started_at=at,
        duration=max(0.02, flesh.gauss(0.2, 0.08)),
    )
