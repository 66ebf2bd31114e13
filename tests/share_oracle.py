"""Per-event reference generator for the social share stream.

The event-at-a-time generator the columnar
:meth:`~repro.crawler.seeds.SocialShareStream.events_for_day` replaced:
the same day-keyed draw matrix, routed one candidate at a time into a
``datetime`` and a :class:`~repro.crawler.seeds.ShareEvent`. Kept as the
oracle ``tests/test_share_batch.py`` pins every batch column against.
"""

from __future__ import annotations

import datetime as dt
from typing import Iterator, Tuple

import numpy as np

from repro.crawler.seeds import ShareEvent, SocialShareStream
from repro.net.url import URL
from repro.web.serving import make_short_link


def oracle_day_events(
    stream: SocialShareStream, day: dt.date
) -> Iterator[Tuple[int, ShareEvent]]:
    """``(draw row, event)`` for every share event of *day*, in order."""
    config = stream.config
    np_rng = np.random.default_rng(
        (config.seed * 1_000_003 + day.toordinal()) % (2**63)
    )
    n = config.events_per_day
    u = np_rng.random((n, 5))
    ranks = np.searchsorted(stream._cdf, u[:, 0], side="left") + 1
    seconds = np.sort(np_rng.integers(0, 86_400, size=n))
    u_index = u[:, 1].tolist()
    depth = (-np.log1p(-u[:, 2])).tolist()
    u_short = u[:, 3].tolist()
    u_platform = u[:, 4].tolist()

    landing_prob = config.landing_page_prob
    privacy_cut = landing_prob + 0.01 * (1.0 - landing_prob)
    world = stream.world
    for i, (rank, sec) in enumerate(zip(ranks.tolist(), seconds.tolist())):
        site = world.site(rank)
        if site.share_weight <= 0.0:
            continue
        ui = u_index[i]
        if ui < landing_prob:
            index = 0
        elif ui < privacy_cut:
            index = site.privacy_policy_index
        else:
            index = 1 + min(
                int(depth[i] * site.n_subsites / 3), site.n_subsites - 1
            )
        if u_short[i] < config.shortener_prob:
            url = make_short_link(world, site, index)
        else:
            url = URL(
                scheme="http" if site.reachability != "https" else "https",
                host=site.domain,
                path=site.subsite_path(index),
            )
        h, rem = divmod(sec, 3600)
        m, s = divmod(rem, 60)
        yield i, ShareEvent(
            at=dt.datetime(day.year, day.month, day.day, h, m, s),
            url=url,
            platform=(
                "twitter" if u_platform[i] < config.twitter_share else "reddit"
            ),
        )
