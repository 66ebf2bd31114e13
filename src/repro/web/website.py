"""The per-website model of the synthetic web.

A :class:`Website` carries everything that determines what a crawler (or
a real visitor) observes when loading one of its pages:

* its popularity rank and social-share weight;
* its CMP-adoption history as a list of :class:`CmpEpisode` intervals,
  each with a concrete dialog configuration;
* geo-gating: whether the CMP is embedded for all visitors or only for
  EU visitors (the paper finds many sites do the latter, Table 1);
* hosting properties: anti-bot CDN interstitials shown to cloud address
  space, and slow-loading pages whose CMP request falls outside the
  crawler's aggressive default timeout (Section 3.5);
* structure: subsites (some of which, like privacy-policy pages, embed
  no external scripts), and redirect aliases.
"""

from __future__ import annotations

import datetime as dt
import zlib
from typing import FrozenSet, Optional, Tuple

from repro.cmps.base import DialogDescriptor
from repro.valueclass import value_class


@value_class
class CmpEpisode:
    """A maximal interval during which a site used one CMP.

    ``end`` is exclusive and ``None`` for an episode still open at the
    end of the study window.
    """

    cmp_key: str
    start: dt.date
    end: Optional[dt.date]
    dialog: DialogDescriptor

    def __post_init__(self) -> None:
        if self.end is not None and self.end <= self.start:
            raise ValueError(
                f"empty episode: start={self.start} end={self.end}"
            )
        if self.dialog.cmp_key != self.cmp_key:
            raise ValueError("dialog belongs to a different CMP")

    def active_on(self, date: dt.date) -> bool:
        return self.start <= date and (self.end is None or date < self.end)


@value_class
class Website:
    """One site of the synthetic web."""

    #: True-popularity rank, 1-based. Toplists observe noisy versions.
    rank: int
    #: Registrable domain (eTLD+1), e.g. ``newsday-media.co.uk``.
    domain: str
    #: CMP episodes, chronologically ordered and non-overlapping.
    episodes: Tuple[CmpEpisode, ...] = ()
    #: Regions for which the CMP script is embedded at all. Sites outside
    #: the EU often embed the CMP only for EU visitors.
    embed_regions: FrozenSet[str] = frozenset({"EU", "US"})
    #: Date from which an EU-only embedder starts embedding for US
    #: visitors too -- Table A.3 vs Table 1: "a growing share of
    #: websites adapt CMPs outside the EU, likely prompted by non-EU
    #: regulations such as CCPA".
    us_embed_since: Optional[dt.date] = None
    #: Site sits behind an anti-bot CDN that serves interstitials to
    #: public-cloud address space (Section 3.5, "Crawler Location").
    behind_antibot_cdn: bool = False
    #: CMP request arrives late, beyond the default crawl timeout
    #: (Section 3.5, "Crawler Timeouts").
    slow_loader: bool = False
    #: Number of distinct subsite paths the share streams can produce.
    n_subsites: int = 8
    #: Fraction of subsites embedding the CMP. Almost always ~1.0 or
    #: ~0.0; the paper reports 99.8% of domains are consistently below
    #: 5% or above 95% (Section 3.5, "Subsites").
    cmp_subsite_coverage: float = 1.0
    #: Some sites embed the CMP only on specific subsites (ad-funded
    #: article pages) and keep the landing page clean -- the pattern that
    #: makes subsite crawling "increase the reliability of our results"
    #: (Section 3.5).
    cmp_on_landing: bool = True
    #: Site answers EU visitors with HTTP 451 (the geo-variable 0.2%).
    blocks_eu_visitors: bool = False
    #: The site is internet infrastructure (CDN, API host) that real
    #: users never visit directly and nobody shares on social media.
    is_infrastructure: bool = False
    #: Alias domains that 301 to this site (top-level-domain redirects).
    redirect_aliases: Tuple[str, ...] = ()
    #: This site is itself a pure alias: every request 301s to the given
    #: domain (the 192 toplist domains "counted as the redirect target").
    redirects_to: Optional[str] = None
    #: Relative weight in the social-share stream (already includes the
    #: popularity skew); 0 for never-shared sites.
    share_weight: float = 1.0
    #: Reachability class: "https", "http-only", "http-bare",
    #: "unreachable", "http-error" or "invalid-response" (Section 3.5,
    #: "Missing Data").
    reachability: str = "https"

    _REACHABILITY = (
        "https",
        "http-only",
        "http-bare",
        "unreachable",
        "http-error",
        "invalid-response",
    )

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("ranks are 1-based")
        if self.reachability not in self._REACHABILITY:
            raise ValueError(f"unknown reachability {self.reachability!r}")
        if not 0.0 <= self.cmp_subsite_coverage <= 1.0:
            raise ValueError("cmp_subsite_coverage must be a fraction")
        last_end: Optional[dt.date] = None
        for ep in self.episodes:
            if last_end is not None and ep.start < last_end:
                raise ValueError("episodes overlap or are unordered")
            if ep.end is None:
                last_end = dt.date.max
            else:
                last_end = ep.end

    # ------------------------------------------------------------------
    # CMP state queries
    # ------------------------------------------------------------------
    def episode_on(self, date: dt.date) -> Optional[CmpEpisode]:
        """The CMP episode active on *date*, if any."""
        for ep in self.episodes:
            if ep.active_on(date):
                return ep
        return None

    def cmp_on(self, date: dt.date) -> Optional[str]:
        """The key of the CMP used on *date*, if any."""
        ep = self.episode_on(date)
        return ep.cmp_key if ep is not None else None

    def embeds_cmp_for(self, region: str, date: dt.date) -> bool:
        """True if a visitor from *region* receives the CMP embed."""
        if self.episode_on(date) is None:
            return False
        return self.embeds_for(region, date)

    def embeds_for(self, region: str, date: dt.date) -> bool:
        """Whether the site would serve its CMP embed to a visitor from
        *region* on *date*, assuming a CMP is active then: the region is
        an embed region, or the US after the site's US roll-out."""
        if region in self.embed_regions:
            return True
        return (
            region == "US"
            and self.us_embed_since is not None
            and date >= self.us_embed_since
        )

    @property
    def ever_used_cmp(self) -> bool:
        return bool(self.episodes)

    @property
    def switches(self) -> Tuple[Tuple[str, str], ...]:
        """Consecutive ``(from_cmp, to_cmp)`` pairs with distinct CMPs.

        A switch is only counted when the next episode starts where the
        previous ended (within a 30-day grace window), mirroring how the
        longitudinal analysis pairs adjacent observations.
        """
        out = []
        for a, b in zip(self.episodes, self.episodes[1:]):
            if a.cmp_key == b.cmp_key or a.end is None:
                continue
            if (b.start - a.end).days <= 30:
                out.append((a.cmp_key, b.cmp_key))
        return tuple(out)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def subsite_path(self, index: int) -> str:
        """The path of subsite *index* (0 is the landing page)."""
        if index <= 0:
            return "/"
        if index == self.privacy_policy_index:
            return "/privacy-policy"
        return f"/articles/{index}"

    @property
    def privacy_policy_index(self) -> int:
        """Index of the privacy-policy subsite (never embeds the CMP)."""
        return self.n_subsites  # one past the regular articles

    def subsite_embeds_cmp(self, index: int) -> bool:
        """Whether subsite *index* includes the CMP embed at all.

        The landing page always matches the site's coverage class; the
        privacy-policy page never embeds external scripts (Section 3.5).
        """
        if index == self.privacy_policy_index:
            return False
        if index == 0:
            return self.cmp_on_landing and self.cmp_subsite_coverage > 0.0
        if self.cmp_subsite_coverage >= 1.0:
            return True
        if self.cmp_subsite_coverage <= 0.0:
            return False
        # Deterministic per-subsite assignment: subsite i embeds the CMP
        # iff its hash bucket falls below the coverage fraction. CRC32 is
        # stable across processes, unlike the salted built-in hash().
        digest = zlib.crc32(f"{self.domain}:{index}".encode("utf-8"))
        return digest % 1000 / 1000.0 < self.cmp_subsite_coverage

    @property
    def tld(self) -> str:
        return self.domain.split(".", 1)[1] if "." in self.domain else ""

    @property
    def is_eu_uk_tld(self) -> bool:
        """True for EU-member or UK TLDs (drives the Section 4.1 shares)."""
        eu = {
            "de", "fr", "it", "nl", "es", "eu", "at", "be", "pl", "pt",
            "ro", "se", "dk", "fi", "ie", "cz", "gr", "hu", "sk", "si",
            "bg", "hr", "lt", "lv", "ee", "lu", "mt", "cy", "uk", "co.uk",
            "org.uk",
        }
        return self.tld in eu
