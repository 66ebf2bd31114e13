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

Every visit is decided once, by :func:`_visit_structure`: its redirect
hops (shortener, alias), its outcome (one of the failure classes, or the
page), whether the Quantcast analytics stub loads and which CMP episode
is embedded. Deciding draws nothing. Two readers share the decision:

* :func:`render_page` adds the visit's timings, drawn from a per-visit
  :class:`~repro.det.KeyedRand` keyed on ``(world seed, url, date,
  visitor)``, and its cosmetic flesh (response sizes, durations of leaf
  transactions, IPs, cookie values, storage records, page text), drawn
  from a *disjoint* stream split off the same key;
* :func:`visit_compact`, the columnar crawl's view of a visit, keeps
  only what a crawl records: the request hosts kept under the cutoff,
  the final host and the status. Inside the structural cutoff bands,
  which hold the default and extended crawl profiles, the kept hosts
  follow from the decision alone, plus the aux-host inclusion draws
  read at their stream position; no transaction or page object is
  built. Any other cutoff renders the page and cuts it the way
  :func:`~repro.crawler.browser.crawl_url` does.

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
from repro.net.http import (
    Cookie,
    HttpRequest,
    HttpResponse,
    HttpTransaction,
    follow_redirects,
)
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
_QCA_HOST = "quantcast.mgr.consensu.org"



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

    def cut(
        self, cutoff: float
    ) -> Tuple[Tuple[HttpTransaction, ...], URL, bool]:
        """The load as a crawl cut off at *cutoff* seconds records it:
        the transactions that started before the cutoff, the address-bar
        URL they lead to (the final URL when none is kept) and whether
        any transaction was cut."""
        kept = tuple(tx for tx in self.transactions if tx.started_at < cutoff)
        final_url = (
            follow_redirects(kept, self.seed_url) if kept else self.final_url
        )
        return kept, final_url, len(kept) < len(self.transactions)


# ----------------------------------------------------------------------
# The visit structure (shared by render_page and visit_compact)
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

#: Final document status per outcome kind (``None``: no response).
_STATUS = {
    _OK: 200, _SHORT_404: 404, _DEAD_HOST: None, _UNREACHABLE: None,
    _INVALID: None, _HTTP_ERROR: 503, _ANTIBOT: 403, _EU_BLOCKED: 451,
}

#: Page text of the error pages that have one.
_ERROR_TEXT = {
    _ANTIBOT: "Checking your browser before accessing the site.",
    _EU_BLOCKED: "Unavailable for legal reasons.",
}

#: The outcome kinds a site's reachability class decides by itself.
_REACH_FAILURE = {
    "unreachable": _UNREACHABLE,
    "invalid-response": _INVALID,
    "http-error": _HTTP_ERROR,
}

#: ``(kind, site, final_host, hop_sources, short_ref, qca, episode)``,
#: see :func:`_visit_structure`.
_VisitStructure = Tuple[
    int, Optional[Website], str, Tuple[str, ...],
    Optional[Tuple[Website, int]], bool, Optional[CmpEpisode],
]


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


def _visit_structure(
    world: World,
    url: URL,
    date: dt.date,
    region: str,
    address_space: str,
) -> _VisitStructure:
    """Decide one visit: everything about it that draws nothing.

    Returns ``(kind, site, final_host, hop_sources, short_ref, qca,
    episode)``:

    * ``kind``, the outcome: a failure class or ``_OK``;
    * ``site``, the site finally serving the page (``None`` for a dead
      host or an undecodable short link);
    * ``final_host``, the address-bar host after every redirect hop;
    * ``hop_sources``, at most two (shortener, alias): hop *i* runs from
      ``hop_sources[i]`` to the next source, the last hop to
      ``final_host``;
    * ``short_ref``, the ``(site, subsite index)`` behind a short link;
    * ``qca``, whether the Quantcast analytics stub loads, and
      ``episode``, the CMP episode embedded for this visitor -- both
      decided only for an ``_OK`` page.

    :func:`render_page` and :func:`visit_compact` read every visit from
    here, so the two views cannot disagree on one.
    """
    host = url.host
    sources: Tuple[str, ...] = ()
    short_ref: Optional[Tuple[Website, int]] = None
    if host == world.config.shortener_domain:
        short_ref = _decode_short_ref(world, url)
        if short_ref is None:
            return _SHORT_404, None, host, (), None, False, None
        site, subsite_index = short_ref
        sources = (host,)
        host = site.domain
    else:
        site = world.host_to_site(host)
        subsite_index = -1  # resolved below, only if a CMP could embed
    if site is not None and site.redirects_to is not None:
        # Alias domains 301 to their canonical site.
        sources += (host,)
        host = f"www.{site.redirects_to}"
        site = world.site_by_domain(site.redirects_to)
    if site is None:
        return _DEAD_HOST, None, host, sources, short_ref, False, None

    kind = _REACH_FAILURE.get(site.reachability)
    if kind is None:
        if site.behind_antibot_cdn and address_space == "cloud":
            # Anti-bot CDNs challenge public-cloud visitors with an
            # interstitial page that embeds nothing (Section 3.5).
            kind = _ANTIBOT
        elif site.blocks_eu_visitors and region == "EU":
            # Geo-variable sites answer EU visitors with HTTP 451.
            kind = _EU_BLOCKED
    if kind is not None:
        return kind, site, host, sources, short_ref, False, None

    # The July 2018 Quantcast analytics incident: for two days the
    # firm's *analytics* product (a different line of business) embedded
    # parts of the CMP script for all its customers, producing false
    # CMP fingerprints that the paper manually excludes (Section 3.5).
    ordinal = date.toordinal()
    qca = (
        _QCA_START <= ordinal <= _QCA_END
        and zlib.crc32(f"qca:{site.domain}".encode("utf-8")) % 100 < 8
    )
    episode = site.episode_on(date) if site.episodes else None
    if episode is not None:
        if not site.embeds_for(region, date) or not site.subsite_embeds_cmp(
            subsite_index if subsite_index >= 0 else _subsite_index(site, url)
        ):
            episode = None
    return _OK, site, host, sources, short_ref, qca, episode


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


#: Cutoff bands where the kept set is *structural*. Fast transactions
#: all start before 3.4 s, and slow-loader CMP transactions start at
#: 10.5 s or later and before 20.1 s (pinned at the band edges by
#: ``tests/test_memo_contract.py``). So for any cutoff inside [3.5,
#: 10.4] every fast transaction is kept and every slow one is cut, and
#: for any cutoff >= 20.2 everything is kept. The default crawl profile
#: (10 s) and the extended one (120 s) both fall in a band; any other
#: cutoff (tests, custom profiles) renders the page and cuts it.
_SAFE_LO = 3.5
_SAFE_HI = 10.4
_KEEP_ALL = 20.2


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

    Equal to the page :func:`render_page` renders, cut at *cutoff*
    (:meth:`PageLoad.cut`), which is what a cutoff outside the
    structural bands computes. Inside a band the kept hosts follow from
    :func:`_visit_structure` without a transaction, cookie or page text
    being built: the only draws are the aux-host inclusion draws, read
    at their stream position under *key* (the visit key, derived when
    ``None``). Nothing is memoized per visit.
    """
    keep_all = cutoff >= _KEEP_ALL
    if not keep_all and not _SAFE_LO <= cutoff <= _SAFE_HI:
        page = render_page(
            world, url, VisitSettings(date, region, address_space)
        )
        kept, final_url, timed_out = page.cut(cutoff)
        return CompactVisit(
            page.status, final_url.host,
            tuple(tx.request.url.host for tx in kept), timed_out,
            page.blocked_by_antibot,
        )
    kind, site, host, sources, _short_ref, qca, episode = _visit_structure(
        world, url, date, region, address_space
    )
    status = _STATUS[kind]
    if status is None:
        # No response: the hops that led here are recorded, except
        # for an unreachable site, which records nothing at all.
        hops = () if kind == _UNREACHABLE else sources
        return CompactVisit(None, host, hops, False, False)
    if kind != _OK:
        return CompactVisit(
            status, host, (*sources, host), False, kind == _ANTIBOT
        )
    hosts = (*sources, host, *_COMMON_THIRD_PARTIES)
    if qca:
        hosts += (_QCA_HOST,)
    timed_out = False
    if episode is not None:
        if site.slow_loader and not keep_all:
            # cmp.js (and any aux fetches) start past the cutoff: cut,
            # which is exactly what ``timed_out`` records. The aux
            # inclusion draws cannot change the kept set, so they are
            # skipped entirely.
            timed_out = True
        else:
            model = cmp_by_key(episode.cmp_key)
            hosts += (model.fingerprint_host,)
            if model.auxiliary_hosts:
                if key is None:
                    key = visit_key(
                        world.config.seed, url, date.toordinal(), region,
                        address_space,
                    )
                rng = KeyedRand(key)
                # The aux draws' stream position (see render_page).
                rng.skip(len(sources) + 3 + qca)
                for aux_host in model.auxiliary_hosts:
                    if rng.random() < 0.7:
                        hosts += (aux_host,)
    return CompactVisit(200, host, hosts, timed_out, False)


def render_page(
    world: World, url: URL, settings: VisitSettings
) -> PageLoad:
    """Render one visit of *url* as seen by the given visitor.

    Deterministic for a given (world seed, url, settings, date). The
    visit is decided by :func:`_visit_structure`; rendering adds its
    timings and its flesh.
    """
    date, region = settings.date, settings.region
    kind, site, final_host, sources, short_ref, qca, episode = (
        _visit_structure(world, url, date, region, settings.address_space)
    )
    rng = KeyedRand(visit_key(
        world.config.seed, url, date.toordinal(), region,
        settings.address_space,
    ))
    flesh = rng.split(_FLESH_SALT)
    # THE TIMING DRAW ORDER IS A CONTRACT (visit_compact reads the
    # aux-host draws by position). The visit-key stream *rng* yields, in
    # order: one duration per redirect hop; then, on an _OK page, the
    # document duration, the third-party offset, the Quantcast stub
    # offset when the stub loads, the CMP start when a CMP is embedded
    # and one draw per aux host. So ``len(hop_sources) + 3 + qca``
    # draws precede the aux draws. The flesh comes from the split
    # stream *flesh*, in transaction order, then the storage records.

    # Rebuild the address-bar URL chain from the hops.
    txs: List[HttpTransaction] = []
    now = 0.0
    current_url = url
    for _source, target_host in zip(sources, (*sources[1:], final_host)):
        if short_ref is not None and not txs:
            target_site, index = short_ref
            target_url = URL(
                scheme="https", host=target_host,
                path=target_site.subsite_path(index),
            )
        else:
            target_url = current_url.with_host(target_host)
        duration = 0.15 + 0.2 * rng.random()
        txs.append(_redirect_tx(current_url, str(target_url), now, duration))
        now += duration
        current_url = target_url

    status = _STATUS[kind]
    if status is None:
        # DNS/TLS failure or an invalid response: the hops are recorded
        # (none for a direct visit), except for an unreachable site.
        kept = () if kind == _UNREACHABLE else tuple(txs)
        return PageLoad(
            seed_url=url, final_url=current_url, status=None,
            transactions=kept,
        )
    if kind != _OK:
        txs.append(_doc_tx(current_url, status, now, flesh))
        return PageLoad(
            seed_url=url,
            final_url=current_url,
            status=status,
            transactions=tuple(txs),
            page_text=_ERROR_TEXT.get(kind, ""),
            blocked_by_antibot=kind == _ANTIBOT,
        )

    # -- the actual page -----------------------------------------------
    assert site is not None
    doc_duration = 0.3 + 0.3 * rng.random()
    txs.append(
        _doc_tx(current_url, 200, now, flesh, duration=doc_duration)
    )
    now += doc_duration
    cookies = [
        Cookie(
            name="session",
            value=f"s{flesh.randrange(1 << 30):x}",
            domain=site.domain,
        )
    ]
    # One uniform fans out to every third-party offset via a Weyl
    # (golden-ratio) lattice: each offset is still uniform in [0.2,
    # 0.4) but costs no extra draw -- the offsets of one page are
    # correlated, which is cosmetically irrelevant.
    u = rng.random()
    for k, third_party in enumerate(_COMMON_THIRD_PARTIES):
        start = now + 0.2 + 0.2 * ((u + k * 0.6180339887498949) % 1.0)
        txs.append(
            _asset_tx(third_party, "/collect.js", start, flesh, "script")
        )
    if qca:
        start = now + 0.2 + 0.2 * rng.random()
        txs.append(
            _asset_tx(_QCA_HOST, "/qca-stub.js", start, flesh, "script")
        )

    dialog: Optional[DialogDescriptor] = None
    dialog_shown = False
    page_text = f"{site.domain} front matter. Latest stories and updates."
    cmp_key: Optional[str] = None
    cmp_start = 2.0
    if episode is not None:
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
        start = cmp_start + 0.2 + 0.2 * ((u + 0.6180339887498949) % 1.0)
        txs.append(_asset_tx(
            model.fingerprint_host, "/cmp.js", start, flesh, "script"
        ))
        for aux in model.auxiliary_hosts:
            # One draw decides inclusion AND offset: conditioned on
            # u < 0.7, u/0.7 is again uniform in [0, 1).
            u = rng.random()
            if u < 0.7:
                start = cmp_start + 0.4 + 0.2 * (u / 0.7)
                txs.append(
                    _asset_tx(aux, "/config.json", start, flesh, "xhr")
                )
        cmp_key = episode.cmp_key
        cookies.append(
            Cookie(
                name="cmp_present",
                value=model.key,
                domain=site.domain,
                max_age=86400 * 365,
            )
        )
        dialog = episode.dialog
        dialog_shown = dialog.shown_to(region)
        if dialog_shown:
            phrases = (GDPR_PHRASES[0], GDPR_PHRASES[5])
            page_text += " " + " ".join(phrases)
            page_text += f" {dialog.accept_wording}"

    from repro.crawler.clientstorage import synthesize_storage_records

    storage = synthesize_storage_records(
        site.domain, cmp_key, flesh, cmp_script_at=cmp_start
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
