"""The social-media URL seed stream.

Netograph "ingests a live feed of social media posts, extracts all URLs,
and submits them into a capture queue" -- all URLs shared on Reddit plus
1% of public tweets, with Twitter accounting for 80% of all URLs
(Section 3.4). Popular URLs are re-shared and retweeted, so the sample
skews heavily towards popular sites; unlike toplist crawls, the seeds
point at arbitrary subsites, not just landing pages.

:class:`SocialShareStream` reproduces those properties over the synthetic
web: Zipf-skewed site selection, subsite paths, occasional shortener
indirection, and a Twitter/Reddit platform mix. Event generation is
deterministic per day, so analyses can re-derive any slice of the stream
without storing it. A day comes out as one columnar :class:`ShareBatch`.

A day can also be generated one *partition* at a time: candidate events
of site rank ``r`` belong to partition ``r % parts`` and every shortened
link to partition 0, because all short links share the one shortener
domain. The capture queue's dedup rules key only on the submitted URL
and its registrable domain, and every shared site's registrable domain
encodes its rank, so partitions never interact: a worker that owns a
partition generates, dedups and crawls its own sites alone
(:mod:`repro.crawler.platform`).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.url import URL
from repro.web.serving import make_short_link
from repro.web.worldgen import World


@dataclass(frozen=True)
class StreamConfig:
    """Parameters of the seed stream."""

    seed: int = 11
    #: URL submissions per simulated day (scaled down ~1000x from the
    #: real platform's volume; proportions are what matters).
    events_per_day: int = 1500
    #: Share of URLs originating from Twitter (the rest is Reddit).
    twitter_share: float = 0.80
    #: Probability that a shared URL goes through a URL shortener.
    shortener_prob: float = 0.06
    #: Probability that a share points at the landing page rather than a
    #: subsite.
    landing_page_prob: float = 0.35
    #: Zipf exponent of the share-frequency distribution.
    zipf_exponent: float = 0.85

    def __post_init__(self) -> None:
        if self.events_per_day < 1:
            raise ValueError("need at least one event per day")
        if not 0.0 <= self.twitter_share <= 1.0:
            raise ValueError("twitter_share must be a fraction")


@dataclass(frozen=True)
class ShareEvent:
    """One URL spotted in the social feeds."""

    at: dt.datetime
    url: URL
    platform: str  # "twitter" | "reddit"


@dataclass(frozen=True, eq=False)
class ShareBatch:
    """One day's share events as columns, in stream order.

    The crawl path reads the columns directly; iterating a batch yields
    :class:`ShareEvent` objects for analyses and tests.
    """

    ordinal: int
    #: Raw row of each event in the day's draw matrix (ascending).
    rows: np.ndarray
    urls: List[URL]
    #: Share time of each event as int seconds since midnight.
    seconds: np.ndarray
    #: True where the event came from Twitter, False for Reddit.
    twitter: np.ndarray

    def __len__(self) -> int:
        return len(self.urls)

    def at(self, i: int) -> dt.datetime:
        """The share time of event *i*."""
        return dt.datetime.fromordinal(self.ordinal) + dt.timedelta(
            seconds=int(self.seconds[i])
        )

    def __iter__(self) -> Iterator[ShareEvent]:
        for i, twitter in enumerate(self.twitter.tolist()):
            yield ShareEvent(
                self.at(i), self.urls[i], "twitter" if twitter else "reddit"
            )

    @property
    def keys(self) -> np.ndarray:
        """Each event's serial feed position, ``share day << 32 | draw
        row`` (int64): ascending along a run, so partitions of a run
        merge back into serial order by it."""
        return (self.ordinal << 32) | self.rows.astype(np.int64)

    def take(self, positions: Sequence[int]) -> "ShareBatch":
        """The events at *positions*, in that order."""
        index = np.asarray(positions, dtype=np.intp)
        return ShareBatch(
            self.ordinal, self.rows[index],
            [self.urls[i] for i in index.tolist()], self.seconds[index],
            self.twitter[index],
        )


class SocialShareStream:
    """Deterministic per-day generator of share events."""

    def __init__(self, world: World, config: Optional[StreamConfig] = None):
        self.world = world
        self.config = config or StreamConfig()
        n = world.config.n_domains
        ranks = np.arange(1, n + 1, dtype=np.float64)
        weights = ranks ** -self.config.zipf_exponent
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        #: ``(rank, subsite index, shortened)`` -> the shared URL
        #: instance. Zipf-skewed shares repeat the popular sites
        #: constantly; sharing one instance per target keeps the URL's
        #: internal string/hash/key memos warm across events (and the
        #: cache size bounded by the distinct targets actually shared).
        #: Lives on the world so it survives the stream (platform runs
        #: build a fresh stream per run over a long-lived world).
        self._url_cache: dict = world._share_url_cache

    # ------------------------------------------------------------------
    def _uniforms(self, ordinal: int) -> Tuple[np.random.Generator, np.ndarray]:
        """Day *ordinal*'s generator, past its uniform matrix (one row
        per candidate event, one column per decision), and the matrix."""
        config = self.config
        np_rng = np.random.default_rng(
            (config.seed * 1_000_003 + ordinal) % (2**63)
        )
        return np_rng, np_rng.random((config.events_per_day, 5))

    def _route(
        self, u: np.ndarray, ranks: np.ndarray, part: int, parts: int
    ) -> np.ndarray:
        """Draw rows of the candidates partition *part* of *parts* owns."""
        owner = np.where(u[:, 3] < self.config.shortener_prob, 0, ranks % parts)
        return np.flatnonzero(owner == part)

    def partition_rows(
        self, day: dt.date, part: int = 0, parts: int = 1
    ) -> np.ndarray:
        """Ascending draw rows of *day*'s candidate events in partition
        *part* of *parts*, kept or skipped. Numpy only: no site is
        generated, so a worker can size its share of a window up front."""
        _rng, u = self._uniforms(day.toordinal())
        ranks = np.searchsorted(self._cdf, u[:, 0], side="left") + 1
        return self._route(u, ranks, part, parts)

    def partition_of(self, domain: str, parts: int) -> int:
        """The partition whose events submit registrable *domain*: the
        shortener's is 0, a site's is its rank (encoded in the domain)
        mod *parts*."""
        if domain == self.world.config.shortener_domain:
            return 0
        return self.world._rank_from_domain(domain) % parts

    def events_for_day(
        self, day: dt.date, part: int = 0, parts: int = 1
    ) -> ShareBatch:
        """One simulated day's share events, chronological.

        All randomness of a day is drawn up front as one uniform matrix
        (one row per candidate event, one column per decision) plus a
        sorted column of share seconds, from the day-keyed numpy
        generator; the Python loop only routes each candidate to its
        site and URL. Candidates on sites that are never shared are
        skipped, so the batch's ``rows`` column maps every kept event
        back to its draw row.

        With *parts* above 1 only the candidates of partition *part*
        (:meth:`partition_rows`) are routed: the result equals the full
        batch restricted to them, and no other candidate's site or URL
        is built.
        """
        config = self.config
        ordinal = day.toordinal()
        np_rng, u = self._uniforms(ordinal)
        seconds = np.sort(np_rng.integers(0, 86_400, size=len(u)))
        # Exponential deviates for the subsite choice, from column 2, over
        # the full day so a selected row's deviate is bit-identical.
        depth = -np.log1p(-u[:, 2])
        ranks = np.searchsorted(self._cdf, u[:, 0], side="left") + 1
        if parts == 1:
            picked = np.arange(len(u))
        else:
            picked = self._route(u, ranks, part, parts)
            u, seconds, depth, ranks = (
                u[picked], seconds[picked], depth[picked], ranks[picked]
            )

        landing_prob = config.landing_page_prob
        privacy_cut = landing_prob + 0.01 * (1.0 - landing_prob)
        shortener_prob = config.shortener_prob
        world = self.world
        site_at = world.site
        url_cache = self._url_cache
        kept: List[int] = []
        urls: List[URL] = []
        for i, (rank, ui, deviate, us) in enumerate(
            zip(ranks.tolist(), u[:, 1].tolist(), depth.tolist(),
                u[:, 3].tolist())
        ):
            site = site_at(rank)
            if site.share_weight <= 0.0:
                # Infrastructure / dead / alias domains never get shared.
                continue
            # One uniform decides landing page vs privacy policy vs
            # article: [0, p) -> landing, [p, p') -> privacy policy
            # (1% of the remainder), else an article whose depth comes
            # from the precomputed exponential deviate.
            if ui < landing_prob:
                index = 0
            elif ui < privacy_cut:
                index = site.privacy_policy_index
            else:
                index = 1 + min(
                    int(deviate * site.n_subsites / 3),
                    site.n_subsites - 1,
                )
            shortened = us < shortener_prob
            url = url_cache.get((rank, index, shortened))
            if url is None:
                if shortened:
                    url = make_short_link(world, site, index)
                else:
                    # Direct construction: domains and subsite paths
                    # are generated canonical, so parsing would be a
                    # no-op.
                    url = URL(
                        scheme=(
                            "http" if site.reachability != "https"
                            else "https"
                        ),
                        host=site.domain,
                        path=site.subsite_path(index),
                    )
                url_cache[(rank, index, shortened)] = url
            kept.append(i)
            urls.append(url)
        keep = np.asarray(kept, dtype=np.intp)
        return ShareBatch(
            ordinal=ordinal,
            rows=picked[keep],
            urls=urls,
            seconds=seconds[keep],
            twitter=u[keep, 4] < config.twitter_share,
        )

