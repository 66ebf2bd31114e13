"""Market concentration and jurisdictional dominance (Section 5.2).

The discussion predicts that consent-sharing creates winner-takes-all
dynamics, but that "jurisdictional boundaries will likely lead to
multiple distinct coalitions given Quantcast and OneTrust appear to be
establishing dominance in the EU+UK and the US respectively". This
module quantifies both claims over the synthetic ecosystem:

* the Herfindahl-Hirschman index (HHI) of the CMP market over time;
* per-jurisdiction market leaders, splitting sites into EU+UK TLDs and
  the rest (the paper's Section 4.1 operationalization).
"""

from __future__ import annotations

import datetime as dt
from collections import Counter
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.web.worldgen import World


def hhi(counts: Mapping[str, int]) -> float:
    """Herfindahl-Hirschman index of a market, in [1/n, 1].

    1.0 is a monopoly; 1/n is a perfectly even n-firm split. Raises on
    an empty market.
    """
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("empty market")
    return sum((n / total) ** 2 for n in counts.values())


def cmp_counts(
    world: World, date: dt.date, *, max_rank: Optional[int] = None
) -> Counter:
    """Ground-truth CMP counts over the top *max_rank* sites."""
    limit = max_rank if max_rank is not None else world.n_domains
    counts: Counter = Counter()
    for rank in range(1, limit + 1):
        key = world.cmp_history(rank).cmp_on(date)
        if key is not None:
            counts[key] += 1
    return counts


def hhi_series(
    world: World,
    dates: Sequence[dt.date],
    *,
    max_rank: int = 10_000,
) -> List[Tuple[dt.date, float]]:
    """The CMP market's HHI over time (empty markets are skipped)."""
    out: List[Tuple[dt.date, float]] = []
    for date in dates:
        counts = cmp_counts(world, date, max_rank=max_rank)
        if counts:
            out.append((date, hhi(counts)))
    return out


@dataclass(frozen=True)
class JurisdictionReport:
    """Market structure split by jurisdiction proxy (TLD)."""

    date: dt.date
    eu_uk_counts: Counter
    other_counts: Counter

    @property
    def eu_uk_leader(self) -> str:
        return self.eu_uk_counts.most_common(1)[0][0]

    @property
    def other_leader(self) -> str:
        return self.other_counts.most_common(1)[0][0]

    @property
    def distinct_coalitions(self) -> bool:
        """True if the two jurisdictions have different market leaders --
        the paper's counterpoint to the single-global-coalition
        prediction."""
        return self.eu_uk_leader != self.other_leader

    def leader_share(self, jurisdiction: str) -> float:
        counts = (
            self.eu_uk_counts if jurisdiction == "eu-uk" else self.other_counts
        )
        total = sum(counts.values())
        if total == 0:
            raise ValueError(f"no CMP sites in {jurisdiction!r}")
        return counts.most_common(1)[0][1] / total


def jurisdiction_report(
    world: World, date: dt.date, *, max_rank: int = 10_000
) -> JurisdictionReport:
    """Split the CMP market by EU+UK vs other TLDs at *date*."""
    eu: Counter = Counter()
    other: Counter = Counter()
    for rank in range(1, min(max_rank, world.n_domains) + 1):
        site = world.site(rank)
        key = site.cmp_on(date)
        if key is None:
            continue
        (eu if site.is_eu_uk_tld else other)[key] += 1
    return JurisdictionReport(date=date, eu_uk_counts=eu, other_counts=other)
