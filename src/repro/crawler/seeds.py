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
without storing it. A day comes out as one columnar :class:`ShareBatch`;
its raw draw-row column lets a shard worker re-derive exactly the events
it was handed and nothing else.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

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
    def events_for_day(
        self, day: dt.date, rows: Optional[Sequence[int]] = None
    ) -> ShareBatch:
        """One simulated day's share events, chronological.

        All randomness of a day is drawn up front as one uniform matrix
        (one row per candidate event, one column per decision) plus a
        sorted column of share seconds, from the day-keyed numpy
        generator; the Python loop only routes each candidate to its
        site and URL. Candidates on sites that are never shared are
        skipped, so the batch's ``rows`` column maps every kept event
        back to its draw row.

        *rows* (ascending draw rows, e.g. a shard's accepted events)
        routes only those candidates: the result equals the full batch
        restricted to them, and no other row's URL is built.
        """
        config = self.config
        ordinal = day.toordinal()
        np_rng = np.random.default_rng(
            (config.seed * 1_000_003 + ordinal) % (2**63)
        )
        n = config.events_per_day
        u = np_rng.random((n, 5))
        seconds = np.sort(np_rng.integers(0, 86_400, size=n))
        # Exponential deviates for the subsite choice, from column 2, over
        # the full day so a selected row's deviate is bit-identical.
        depth = -np.log1p(-u[:, 2])
        if rows is None:
            picked = np.arange(n)
        else:
            picked = np.asarray(rows, dtype=np.intp)
            u, seconds, depth = u[picked], seconds[picked], depth[picked]
        ranks = np.searchsorted(self._cdf, u[:, 0], side="left") + 1

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

