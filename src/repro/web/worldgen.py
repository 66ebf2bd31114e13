"""Lazy, rank-addressable generation of the synthetic web.

A :class:`World` maps every popularity rank ``1..n_domains`` to a fully
specified :class:`~repro.web.website.Website`. Generation is lazy and
per-site deterministic: site *r* of world seed *s* is always identical,
no matter in which order (or whether) other sites are generated. This is
what makes million-rank analyses tractable -- the marketshare analysis
can sample ranks stratified in log space instead of materializing the
whole world.

The world also implements the :class:`~repro.net.probe.ReachabilityOracle`
protocol, so the toplist seed-URL resolution runs against it unchanged.
"""

from __future__ import annotations

import bisect
import datetime as dt
import itertools
import random
import string
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.cmps import onetrust, quantcast, trustarc, cookiebot, liveramp, crownpeak
from repro.cmps.base import DialogDescriptor, cmp_by_key
from repro.det import first_randoms
from repro.memo import MISSING, BoundedMemo, CountMap, sum_counts
from repro.web.adoption import AdoptionHistory, AdoptionModel
from repro.web.website import CmpEpisode, Website

_DIALOG_SAMPLERS = {
    "onetrust": onetrust.sample_dialog,
    "quantcast": quantcast.sample_dialog,
    "trustarc": trustarc.sample_dialog,
    "cookiebot": cookiebot.sample_dialog,
    "liveramp": liveramp.sample_dialog,
    "crownpeak": crownpeak.sample_dialog,
}

#: Per-CMP probabilities of the hosting/embedding traits that drive the
#: vantage-point differences of Table 1: embedding the CMP only for EU
#: visitors, sitting behind an anti-bot CDN, and loading the CMP too
#: late for the default crawl timeout.
_GEO_TRAITS: Dict[str, Tuple[float, float, float]] = {
    # (p_embed_eu_only, p_antibot, p_slow)
    "onetrust": (0.100, 0.11, 0.027),
    "quantcast": (0.220, 0.11, 0.034),
    "trustarc": (0.110, 0.24, 0.026),
    "cookiebot": (0.080, 0.02, 0.030),
    "liveramp": (0.070, 0.35, 0.010),
    "crownpeak": (0.030, 0.11, 0.050),
}

#: Probability that an EU-only embedder switches to global embedding in
#: early 2020 (the CCPA effect behind the Table A.3 -> Table 1
#: US-coverage rise, 70% -> 79%).
_GO_GLOBAL_PROB = 0.42
_GO_GLOBAL_WINDOW = (dt.date(2020, 1, 1), dt.date(2020, 5, 1))

#: Baseline anti-bot probability for sites without a CMP (irrelevant to
#: detection, but keeps cloud crawls realistic).
_BASE_ANTIBOT = 0.08

#: Website-class mixture for toplist ranks, calibrated to the Tranco-10k
#: missing-data breakdown of Section 3.5: 495 infrastructure domains,
#: 315 unreachable, 70 HTTP errors, 4 invalid responses, 192 aliases
#: that redirect to another domain.
_CLASS_PROBS = (
    ("infrastructure", 0.0495),
    ("dead", 0.0315),
    ("http-error", 0.0070),
    ("invalid-response", 0.0004),
    ("alias", 0.0192),
    ("normal", 1.0),  # remainder
)

#: The site classes in :data:`_CLASS_PROBS` order; a class vector
#: (:meth:`World.site_classes`) holds indices into this tuple.
SITE_CLASSES: Tuple[str, ...] = tuple(name for name, _ in _CLASS_PROBS)

#: The running sums of the class probabilities: a site's first double
#: *roll* picks class ``SITE_CLASSES[bisect_right(_CLASS_BOUNDS, roll)]``
#: ("normal" past the last sum).
_CLASS_BOUNDS: Tuple[float, ...] = tuple(
    itertools.accumulate(p for _, p in _CLASS_PROBS[:-1])
)

#: Ranks up to this one are infrastructure (class 0, below the first
#: sum) or normal: the very top of the list contains no dead domains.
_TOP_RANKS = 30
_NORMAL = SITE_CLASSES.index("normal")

_EU_TLDS = ("de", "co.uk", "fr", "it", "nl", "es", "pl", "se", "eu", "at", "dk", "ie")
_NON_EU_TLDS = ("com", "com", "com", "org", "net", "io", "co", "us", "ca", "com.au", "co.jp", "com.br", "in")

_WORDS1 = (
    "news", "daily", "cyber", "meta", "hyper", "prime", "vivid", "north",
    "pixel", "terra", "lumen", "rapid", "solar", "urban", "vocal", "zen",
    "astra", "bold", "crisp", "delta", "echo", "flux", "gamma", "halo",
)
_WORDS2 = (
    "press", "wire", "hub", "portal", "times", "post", "digest", "beat",
    "scope", "sphere", "stack", "forge", "works", "point", "line", "cast",
    "gazette", "journal", "review", "tribune", "planet", "base", "deck",
)

_B36 = string.digits + string.ascii_lowercase

#: The CMP history of every site that is not a normal site.
_NO_HISTORY = AdoptionHistory(stints=())

#: A site's ``embed_regions``: every site shares one of these two sets.
_EU_ONLY = frozenset({"EU"})
_EU_AND_US = frozenset({"EU", "US"})


def _owns(site: Website, domain: str) -> bool:
    return site.domain == domain or domain in site.redirect_aliases


def _b36(n: int) -> str:
    if n == 0:
        return "0"
    out = []
    while n:
        n, rem = divmod(n, 36)
        out.append(_B36[rem])
    return "".join(reversed(out))


@dataclass(frozen=True)
class CacheLimits:
    """Size bounds for the world's memo caches.

    Each memo (a :class:`~repro.memo.BoundedMemo`) evicts its
    oldest insertion past its bound. Memos are pure functions of
    ``(world seed, key)``, so these bounds are *execution knobs*:
    eviction regenerates identical bits on the next miss, and no limit
    ever enters a cache fingerprint. ``None`` means unbounded. The
    defaults keep a multi-million-crawl study's world memory flat
    while staying far above the Zipf-skewed hot set of the default
    100k-domain world, so steady-state hit rates are indistinguishable
    from unbounded.
    """

    #: Generated :class:`~repro.web.website.Website` objects, by rank.
    sites: Optional[int] = 32_768
    #: Positive host -> rank resolutions (``www.X``/apex chains).
    hosts: Optional[int] = 65_536
    #: Negative host resolutions. Dead/external hosts are unbounded in
    #: number, so without this cap a long probe run leaks one entry per
    #: distinct miss, forever.
    negative_hosts: Optional[int] = 4_096
    #: ``(rank, subsite, shortened)`` -> shared URL instances.
    share_urls: Optional[int] = 65_536


#: Restores the pre-bounds behavior: every memo grows without limit.
UNBOUNDED_CACHE_LIMITS = CacheLimits(
    sites=None, hosts=None, negative_hosts=None, share_urls=None,
)


@dataclass(frozen=True)
class WorldConfig:
    """Parameters of a synthetic world."""

    seed: int = 7
    #: Number of ranked domains that exist.
    n_domains: int = 100_000
    #: Domain of the URL-shortening service seen in social shares.
    shortener_domain: str = "shr.tv"
    #: Study window; sites do not change outside it.
    study_start: dt.date = dt.date(2018, 3, 1)
    study_end: dt.date = dt.date(2020, 9, 30)

    def __post_init__(self) -> None:
        if self.n_domains < 100:
            raise ValueError("worlds need at least 100 domains")


class World:
    """The synthetic web, addressable by rank or by domain."""

    def __init__(
        self,
        config: Optional[WorldConfig] = None,
        cache_limits: Optional[CacheLimits] = None,
    ):
        self.config = config or WorldConfig()
        self.cache_limits = cache_limits or CacheLimits()
        limits = self.cache_limits
        self._adoption = AdoptionModel(
            self.config.study_start, self.config.study_end
        )
        self._cache = BoundedMemo(limits.sites)
        #: host -> resolved *rank*, memoizing the full
        #: :meth:`host_to_site` chain -- the crawl path resolves the
        #: same www/apex hosts for every visit. Ranks, not sites, so an
        #: entry never pins an evicted Website alive.
        self._host_site_cache = BoundedMemo(limits.hosts)
        #: host -> True for hosts that resolved to *nothing*. Kept
        #: apart from the positive entries so the unbounded universe of
        #: dead/external hosts gets its own (small) cap.
        self._host_negative_cache = BoundedMemo(limits.negative_hosts)
        #: ``(rank, subsite index, shortened)`` -> shared URL instance,
        #: owned by :mod:`repro.crawler.seeds`. World-level so every
        #: stream over this world reuses the same instances (their
        #: hash and visit-key memos stay warm).
        self._share_url_cache = BoundedMemo(limits.share_urls)
        #: Memo counters that worker processes' copies of this world
        #: shipped home (:meth:`absorb_cache_counts`).
        self._worker_cache_counts: CountMap = {}

    def cache_info(self) -> Dict[str, BoundedMemo]:
        """This process's memos by gauge label (each is a
        :class:`CacheLimits` field name)."""
        return {
            "sites": self._cache,
            "hosts": self._host_site_cache,
            "negative_hosts": self._host_negative_cache,
            "share_urls": self._share_url_cache,
        }

    def cache_counts(self) -> CountMap:
        """Counters per memo: this process's plus every worker copy's
        that :meth:`absorb_cache_counts` took in."""
        own = {name: memo.counts() for name, memo in self.cache_info().items()}
        return sum_counts(own, self._worker_cache_counts)

    def absorb_cache_counts(self, counts: CountMap) -> None:
        """Add how a worker copy's memo counters grew from the state
        the worker started from (:func:`~repro.memo.count_growth`)."""
        shipped = self._worker_cache_counts
        self._worker_cache_counts = sum_counts(shipped, counts)

    # ------------------------------------------------------------------
    # Site access
    # ------------------------------------------------------------------
    @property
    def n_domains(self) -> int:
        return self.config.n_domains

    def site(self, rank: int) -> Website:
        """Return (generating if necessary) the site at *rank*."""
        cached = self._cache.get(rank)
        if cached is not None:
            return cached
        if not 1 <= rank <= self.config.n_domains:
            raise KeyError(f"rank {rank} outside [1, {self.config.n_domains}]")
        site = self._generate(rank)
        self._cache[rank] = site
        return site

    def cmp_history(self, rank: int) -> AdoptionHistory:
        """The CMP timeline of the site at *rank*, for readers that need
        only ``cmp_on(date)``.

        A memoized site answers from its episodes. Otherwise only the
        site's first draws are made (:meth:`_draw_prefix`), which costs
        a fraction of generating the site, and nothing enters the site
        memo. Either way the answer equals ``site(rank).cmp_on`` on
        every date: :meth:`_generate` makes the same first draws through
        :meth:`_draw_prefix` and only then draws the rest of the site.
        """
        site = self._cache.get(rank)
        if site is not None:
            return AdoptionHistory(
                stints=tuple(
                    (ep.cmp_key, ep.start, ep.end) for ep in site.episodes
                )
            )
        if not 1 <= rank <= self.config.n_domains:
            raise KeyError(f"rank {rank} outside [1, {self.config.n_domains}]")
        return self._draw_prefix(rank)[3]

    def site_by_domain(self, domain: str) -> Optional[Website]:
        """Resolve a registrable domain back to its site.

        Works for any domain this world generated (the rank is encoded in
        the domain's base-36 suffix), including alias domains -- for
        those the *alias site* is returned, not its redirect target.
        """
        domain = domain.lower()
        rank = self._rank_from_domain(domain)
        if rank is None:
            return None
        site = self.site(rank)
        return site if _owns(site, domain) else None

    def host_to_site(self, host: str) -> Optional[Website]:
        """Resolve an arbitrary hostname (www.X, subdomain.X) to a site."""
        rank = self._host_site_cache.get(host, MISSING)
        if rank is not MISSING:
            return self.site(rank)
        if self._host_negative_cache.get(host) is not None:
            return None
        lowered = host.lower()
        resolved: Optional[Website] = None
        for candidate in (lowered, lowered.partition(".")[2]):
            if not candidate:
                continue
            site = self.site_by_domain(candidate)
            if site is not None:
                resolved = site
                break
        if resolved is None:
            self._host_negative_cache[host] = True
            return None
        self._host_site_cache[host] = resolved.rank
        return resolved

    def _rank_from_domain(self, domain: str) -> Optional[int]:
        """The rank that lowercase *domain*'s base-36 tag names.

        An alias domain's tag is its site's rank followed by "alt", so
        a tag that ends in "alt" reads two ways: "1alt" is the alias of
        rank 1 or the domain of rank 60,401, and "alt" is the domain of
        rank 13,745. Such a tag is settled by generating the candidate
        sites. Any other tag is read without generating a site, so that
        rank is unchecked: :meth:`site_by_domain` checks it.
        """
        name = domain.split(".", 1)[0]
        tag = name.rsplit("-", 1)[-1]
        if not tag.endswith("alt"):
            return self._tag_rank(tag)
        for rank in (self._tag_rank(tag[:-3]), self._tag_rank(tag)):
            if rank is not None and _owns(self.site(rank), domain):
                return rank
        return None

    def _tag_rank(self, tag: str) -> Optional[int]:
        # A tag holding any character outside base 36 keeps it after
        # the strip.
        if not tag or tag.strip(_B36):
            return None
        rank = int(tag, 36)
        if 1 <= rank <= self.config.n_domains:
            return rank
        return None

    # ------------------------------------------------------------------
    # ReachabilityOracle protocol (for repro.net.probe)
    # ------------------------------------------------------------------
    def tls_ok(self, host: str, attempt: int) -> bool:
        site = self.host_to_site(host)
        if site is None:
            return False
        if self._temporarily_down(site, attempt):
            return False
        return site.reachability in ("https",) or site.redirects_to is not None

    def tcp80_ok(self, host: str, attempt: int) -> bool:
        site = self.host_to_site(host)
        if site is None:
            return False
        if self._temporarily_down(site, attempt):
            return False
        if site.reachability in ("unreachable",):
            return False
        if site.reachability == "http-bare" and host.startswith("www."):
            return False
        return True

    def _temporarily_down(self, site: Website, attempt: int) -> bool:
        # ~2% of reachable sites are down on any single probe; the
        # three-attempt schedule recovers them (Section 3.2).
        rng = random.Random(f"{self.config.seed}:down:{site.rank}:{attempt}")
        return site.reachability != "unreachable" and rng.random() < 0.02

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def _draw_prefix(
        self, rank: int
    ) -> Tuple[random.Random, str, float, AdoptionHistory]:
        """The first draws of site *rank*: its class, its TLD roll and,
        for a normal site, its CMP history (every other class has none).

        Returns the site's RNG positioned after them. :meth:`_generate`
        continues from it; :meth:`cmp_history` stops here. Nothing a
        site draws later feeds back into these draws, so both see the
        same history.
        """
        rng = random.Random(f"{self.config.seed}:site:{rank}")
        site_class = self._site_class(rng, rank)
        tld_roll = rng.random()
        history = _NO_HISTORY
        if site_class == "normal":
            history = self._adoption.sample_history(rng, rank)
        return rng, site_class, tld_roll, history

    def _generate(self, rank: int) -> Website:
        rng, site_class, tld_rng_roll, history = self._draw_prefix(rank)

        if site_class == "infrastructure":
            return Website(
                rank=rank,
                domain=self._make_domain(rng, rank, eu=False, infra=True),
                is_infrastructure=True,
                share_weight=0.0,
                reachability="https",
            )
        if site_class == "dead":
            return Website(
                rank=rank,
                domain=self._make_domain(rng, rank, eu=tld_rng_roll < 0.2),
                share_weight=0.0,
                reachability="unreachable",
            )
        if site_class == "http-error":
            return Website(
                rank=rank,
                domain=self._make_domain(rng, rank, eu=tld_rng_roll < 0.2),
                share_weight=0.0,
                reachability="http-error",
            )
        if site_class == "invalid-response":
            return Website(
                rank=rank,
                domain=self._make_domain(rng, rank, eu=tld_rng_roll < 0.2),
                share_weight=0.0,
                reachability="invalid-response",
            )
        if site_class == "alias":
            target_rank = self._alias_target(rng, rank)
            target = self.site(target_rank)
            return Website(
                rank=rank,
                domain=self._make_domain(rng, rank, eu=tld_rng_roll < 0.2, alias=True),
                share_weight=0.0,
                reachability="https",
                redirects_to=target.domain,
            )

        # -- a normal, user-facing site --------------------------------
        episodes = tuple(
            CmpEpisode(
                cmp_key=key,
                start=start,
                end=end,
                dialog=self._sample_dialog(rng, key, start),
            )
            for key, start, end in history.stints
        )
        first_cmp = history.stints[0][0] if history.stints else None
        us_embed_since = None
        if first_cmp is not None:
            eu = rng.random() < cmp_by_key(first_cmp).eu_tld_share
            p_eu_only, p_antibot, p_slow = _GEO_TRAITS[first_cmp]
            embed_eu_only = rng.random() < p_eu_only
            if embed_eu_only and rng.random() < _GO_GLOBAL_PROB:
                start, end = _GO_GLOBAL_WINDOW
                us_embed_since = start + dt.timedelta(
                    days=rng.randrange((end - start).days)
                )
            antibot = rng.random() < p_antibot
            slow = rng.random() < p_slow
        else:
            eu = rng.random() < 0.22
            embed_eu_only = False
            antibot = rng.random() < _BASE_ANTIBOT
            slow = rng.random() < 0.03

        # Subsite CMP coverage: 99.8% of domains are consistently high
        # or (trivially, for non-adopters) zero; 0.2% are geo-variable.
        blocks_eu = bool(episodes) and rng.random() < 0.002
        coverage = 1.0 if rng.random() < 0.9 else 0.97
        # ~4% of CMP sites keep the landing page free of external
        # scripts and only embed the CMP on subsites.
        cmp_on_landing = not (bool(episodes) and rng.random() < 0.04)
        n_subsites = max(4, int(rng.gauss(60.0 / (1 + rank ** 0.25), 4)) + 6)

        return Website(
            rank=rank,
            domain=self._make_domain(rng, rank, eu=eu),
            episodes=episodes,
            embed_regions=_EU_ONLY if embed_eu_only else _EU_AND_US,
            us_embed_since=us_embed_since,
            behind_antibot_cdn=antibot,
            slow_loader=slow,
            n_subsites=n_subsites,
            cmp_subsite_coverage=coverage,
            cmp_on_landing=cmp_on_landing,
            blocks_eu_visitors=blocks_eu,
            share_weight=self._share_weight(rng, rank),
            reachability=self._reachability(rng),
        )

    def _site_class(self, rng: random.Random, rank: int) -> str:
        index = bisect.bisect_right(_CLASS_BOUNDS, rng.random())
        if rank <= _TOP_RANKS and index:
            index = _NORMAL
        return SITE_CLASSES[index]

    def _class_of(self, rank: int) -> str:
        """Re-derive a rank's site class without generating the site."""
        rng = random.Random(f"{self.config.seed}:site:{rank}")
        return self._site_class(rng, rank)

    def site_classes(self, stop: int) -> np.ndarray:
        """The classes of ranks ``1..stop`` as ``uint8`` indices into
        :data:`SITE_CLASSES`, without generating a site: entry
        ``rank - 1`` names ``self._class_of(rank)``. The rolls come
        from one :func:`~repro.det.first_randoms` pass, the classes
        from the table :meth:`_site_class` reads."""
        seed = self.config.seed
        rolls = first_randoms(
            f"{seed}:site:{rank}" for rank in range(1, stop + 1)
        )
        classes = np.searchsorted(_CLASS_BOUNDS, rolls, side="right")
        classes = classes.astype(np.uint8)
        top = classes[:_TOP_RANKS]
        top[top > 0] = _NORMAL
        return classes

    def _alias_target(self, rng: random.Random, rank: int) -> int:
        # Aliases redirect to a *normal* site of broadly similar
        # popularity; never to another alias (no redirect chains, and no
        # generation cycles).
        lo = max(1, rank // 2)
        hi = min(self.config.n_domains, rank * 2 + 10)
        for _ in range(50):
            target = rng.randrange(lo, hi + 1)
            if target != rank and self._class_of(target) == "normal":
                return target
        # Extremely unlikely fallback: scan for the nearest normal site.
        for target in range(rank + 1, self.config.n_domains + 1):
            if self._class_of(target) == "normal":
                return target
        raise RuntimeError("no normal site found for alias target")

    def _sample_dialog(
        self, rng: random.Random, cmp_key: str, start: dt.date
    ) -> DialogDescriptor:
        # OneTrust's CCPA-oriented configurations ("Do Not Sell" banners,
        # California footer links) only exist for setups created once the
        # product pivoted towards the CCPA in late 2019. Long-running
        # configurations keep their original dialog -- a simplification:
        # in reality some publishers refreshed theirs.
        if cmp_key == "onetrust":
            era = "ccpa" if start >= dt.date(2019, 10, 1) else "pre-ccpa"
            return _DIALOG_SAMPLERS[cmp_key](rng, era=era)
        return _DIALOG_SAMPLERS[cmp_key](rng)

    def _make_domain(
        self,
        rng: random.Random,
        rank: int,
        *,
        eu: bool,
        infra: bool = False,
        alias: bool = False,
    ) -> str:
        w1 = rng.choice(_WORDS1)
        w2 = rng.choice(_WORDS2)
        tag = _b36(rank)
        if alias:
            tag += "alt"
        if infra:
            return f"cdn{w1}-{tag}.net"
        tld = rng.choice(_EU_TLDS) if eu else rng.choice(_NON_EU_TLDS)
        return f"{w1}{w2}-{tag}.{tld}"

    def _share_weight(self, rng: random.Random, rank: int) -> float:
        base = 1.0 / rank ** 0.85
        return base * rng.lognormvariate(0.0, 0.6)

    def _reachability(self, rng: random.Random) -> str:
        roll = rng.random()
        if roll < 0.90:
            return "https"
        if roll < 0.98:
            return "http-only"
        return "http-bare"


def publish_world_cache_gauges(obs, world: World) -> None:
    """Snapshot the world memo caches into obs gauges.

    Point-in-time hits, misses, evictions and entry counts per bounded
    memo (sites, host resolutions, shared URLs) -- the
    numbers that decide whether a bounded run stays memoized or
    thrashes. Called at the end of every platform run; a no-op under
    the null obs backend. Sharded runs add what their workers' copies
    of the world did (:meth:`World.cache_counts`).
    """
    if not obs.enabled:
        return
    hits = obs.metrics.gauge(
        "world_cache_hits", "memoization hits in the world caches, by cache"
    )
    misses = obs.metrics.gauge(
        "world_cache_misses",
        "memoization misses in the world caches, by cache",
    )
    evictions = obs.metrics.gauge(
        "world_cache_evictions",
        "oldest-insertion evictions from the world caches, by cache",
    )
    entries = obs.metrics.gauge(
        "world_cache_entries", "memoized entries in the world caches, by cache"
    )
    for name, counts in sorted(world.cache_counts().items()):
        hits.set(counts.hits, cache=name)
        misses.set(counts.misses, cache=name)
        evictions.set(counts.evictions, cache=name)
        entries.set(counts.entries, cache=name)
