"""Cumulative CMP marketshare by toplist size (I1, Figures 5 / A.4--A.6).

For a toplist prefix of size *n*, the marketshare of a CMP is the
percentage of those *n* domains embedding it on the analysis date. The
paper plots this cumulatively over sizes from 100 to one million,
showing the mid-market adoption hump (4% in the top 100, 13% in the top
1k, 1.51% in the top 1M -- Section 5.1).

Toplist prefixes up to ``exact_limit`` are evaluated exactly (every site
is generated); deeper strata are estimated by uniform sampling within
log-spaced rank strata, which keeps million-rank curves tractable while
remaining unbiased.
"""

from __future__ import annotations

import bisect
import datetime as dt
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cmps.base import CMP_KEYS
from repro.toplist.tranco import TrancoList
from repro.web.worldgen import World


@dataclass
class MarketShareCurve:
    """The Figure 5 data: per-CMP cumulative share at each toplist size."""

    date: dt.date
    sizes: List[int]
    #: cmp key -> cumulative count of adopters within each prefix.
    counts: Dict[str, List[float]]

    # ------------------------------------------------------------------
    # Cache serialization (repro.cache marketshare artifacts)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-serializable payload; counts stay in CMP insertion
        order, and the floats round-trip exactly (JSON carries shortest
        repr, which Python parses back to the identical double)."""
        return {
            "date": self.date.isoformat(),
            "sizes": list(self.sizes),
            "counts": [
                [key, list(series)] for key, series in self.counts.items()
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "MarketShareCurve":
        """Exact inverse of :meth:`to_payload`."""
        return cls(
            date=dt.date.fromisoformat(payload["date"]),
            sizes=list(payload["sizes"]),
            counts={key: list(series) for key, series in payload["counts"]},
        )

    def share(self, cmp_key: str, size: int) -> float:
        """Cumulative share (fraction) of *cmp_key* in the top *size*.

        *size* need not be one of the recorded sample sizes: the curve
        is defined for every positive size via interpolate-or-clamp
        semantics (see :meth:`_counts_at`). Recorded sizes reproduce the
        exact recorded value. This used to raise ``ValueError`` for any
        unrecorded size (``sizes.index``) -- pinned by regression tests.
        """
        return self._counts_at(self.counts[cmp_key], size) / size

    def total_share(self, size: int) -> float:
        """Cumulative share of *any* CMP in the top *size* (same
        interpolate-or-clamp semantics as :meth:`share`)."""
        return (
            sum(self._counts_at(series, size) for series in self.counts.values())
            / size
        )

    def _counts_at(self, series: Sequence[float], size: int) -> float:
        """Cumulative adopter count at *size*, for any positive size.

        * a recorded size returns the recorded count exactly;
        * between two recorded sizes the count interpolates linearly
          (adoption density assumed uniform within the gap);
        * below the smallest recorded size the count interpolates
          linearly from ``(0, 0)`` -- i.e. the share clamps to the
          smallest prefix's share instead of silently reading another
          bucket;
        * above the largest recorded size the count clamps to the last
          recorded value (no adopters are invented beyond the data).
        """
        if size < 1:
            raise ValueError("toplist size must be positive")
        sizes = self.sizes
        idx = bisect.bisect_left(sizes, size)
        if idx < len(sizes) and sizes[idx] == size:
            return series[idx]
        if idx == 0:
            # Below the smallest sample: density clamped to its share.
            return series[0] * (size / sizes[0])
        if idx == len(sizes):
            return series[-1]
        lo_size, hi_size = sizes[idx - 1], sizes[idx]
        lo, hi = series[idx - 1], series[idx]
        return lo + (hi - lo) * (size - lo_size) / (hi_size - lo_size)

    def rows(self) -> List[Tuple[int, float, Dict[str, float]]]:
        """(size, total share, per-CMP share) rows for reporting."""
        out = []
        for i, size in enumerate(self.sizes):
            per_cmp = {k: self.counts[k][i] / size for k in self.counts}
            out.append((size, sum(per_cmp.values()), per_cmp))
        return out


def default_sizes(max_size: int) -> List[int]:
    """Log-spaced toplist sizes from 100 up to *max_size*."""
    sizes = []
    x = 2.0
    while True:
        size = int(round(10**x))
        if size > max_size:
            break
        sizes.append(size)
        x += 0.25
    if sizes and sizes[-1] != max_size:
        sizes.append(max_size)
    return sizes


def marketshare_by_toplist_size(
    world: World,
    tranco: TrancoList,
    date: dt.date,
    sizes: Optional[Sequence[int]] = None,
    *,
    exact_limit: int = 10_000,
    samples_per_stratum: int = 2_000,
    seed: int = 5,
) -> MarketShareCurve:
    """Compute the cumulative marketshare curve at *date*."""
    true_ranks = tranco.top_true_ranks(len(tranco))
    return stratified_marketshare(
        len(true_ranks),
        lambda position: world.site(int(true_ranks[position])).cmp_on(date),
        date,
        sizes,
        exact_limit=exact_limit,
        samples_per_stratum=samples_per_stratum,
        seed=seed,
    )


def stratified_marketshare(
    n: int,
    cmp_at: Callable[[int], Optional[str]],
    date: dt.date,
    sizes: Optional[Sequence[int]] = None,
    *,
    exact_limit: int = 10_000,
    samples_per_stratum: int = 2_000,
    seed: int = 5,
) -> MarketShareCurve:
    """The Figure 5 estimator over any ranked list of *n* domains.

    ``cmp_at(position)`` is the CMP of the domain at 0-based
    *position* on *date* (``None`` for none). Prefixes up to
    *exact_limit* (and strata no larger than *samples_per_stratum*)
    are counted exactly; deeper strata are estimated from a seeded
    uniform sample of positions, scaled up to the stratum size.
    """
    if sizes is None:
        sizes = default_sizes(n)
    sizes = sorted(set(min(s, n) for s in sizes))
    if sizes and sizes[0] < 1:
        raise ValueError("toplist sizes must be positive")

    rng = random.Random(seed)
    cum: Counter = Counter()
    counts: Dict[str, List[float]] = {k: [] for k in CMP_KEYS}
    prev = 0
    for size in sizes:
        length = size - prev
        if size <= exact_limit or length <= samples_per_stratum:
            for position in range(prev, size):
                cmp_key = cmp_at(position)
                if cmp_key is not None:
                    cum[cmp_key] += 1
        else:
            sampled = rng.sample(range(length), samples_per_stratum)
            stratum_counts: Counter = Counter()
            for idx in sampled:
                cmp_key = cmp_at(prev + idx)
                if cmp_key is not None:
                    stratum_counts[cmp_key] += 1
            scale = length / samples_per_stratum
            for key, n_sampled in stratum_counts.items():
                cum[key] += n_sampled * scale
        for key in CMP_KEYS:
            counts[key].append(float(cum[key]))
        prev = size
    return MarketShareCurve(date=date, sizes=list(sizes), counts=counts)


# ----------------------------------------------------------------------
# Observed (capture-derived) marketshare -- batch + incremental paths
# ----------------------------------------------------------------------
def observed_marketshare(
    series,
    ranks: Mapping[str, int],
    date: dt.date,
    sizes: Sequence[int],
) -> MarketShareCurve:
    """Marketshare curve from *observed* adoption state, not worldgen.

    The Figure 5 batch path asks the synthetic world directly
    (:func:`marketshare_by_toplist_size`); production measurement only
    has captures. This derives the same curve shape from an
    :class:`~repro.core.adoption.AdoptionSeries`: a domain counts for a
    CMP in prefix *n* when its interpolated timeline classifies it with
    that CMP on *date* and its toplist rank is <= *n*. *ranks* maps
    domain -> 1-based toplist rank.

    This is the batch counterpart of :class:`MarketShareAccumulator`;
    the streaming property tests pin byte-identical payloads between
    the two over any row feed.
    """
    sizes = sorted(set(int(s) for s in sizes))
    if not sizes or sizes[0] < 1:
        raise ValueError("toplist sizes must be positive")
    per_bucket: Dict[str, List[int]] = {k: [0] * len(sizes) for k in CMP_KEYS}
    max_size = sizes[-1]
    timelines = series.timelines
    for domain, rank in ranks.items():
        if rank > max_size:
            continue
        timeline = timelines.get(domain)
        if timeline is None:
            continue
        state = timeline.state_on(date)
        buckets = per_bucket.get(state) if state is not None else None
        if buckets is not None:
            buckets[bisect.bisect_left(sizes, rank)] += 1
    return _curve_from_buckets(date, sizes, per_bucket)


def _curve_from_buckets(
    date: dt.date, sizes: List[int], per_bucket: Mapping[str, Sequence[int]]
) -> MarketShareCurve:
    """Cumulative-sum integer rank-bucket counts into a curve.

    Counts are exact integers, so the cumulative float series is
    order-independent and byte-stable across batch and streaming."""
    counts: Dict[str, List[float]] = {}
    for key in CMP_KEYS:
        cum = 0
        series = []
        for n in per_bucket[key]:
            cum += n
            series.append(float(cum))
        counts[key] = series
    return MarketShareCurve(date=date, sizes=list(sizes), counts=counts)


class MarketShareAccumulator:
    """Incremental observed-marketshare state (streaming path).

    Maintains per-CMP adopter counts bucketed by toplist-rank stratum
    (bucket *i* covers ranks ``(sizes[i-1], sizes[i]]``), updated in
    O(1) per domain state transition instead of O(toplist) per query.
    Feed it the streaming engine's finalized state transitions
    (:meth:`transition`); :meth:`curve` materializes the
    :class:`MarketShareCurve` at the engine's watermark. Byte-identical
    to :func:`observed_marketshare` over the same state by the shared
    :func:`_curve_from_buckets` encoding.
    """

    def __init__(self, ranks: Mapping[str, int], sizes: Sequence[int]):
        self.sizes = sorted(set(int(s) for s in sizes))
        if not self.sizes or self.sizes[0] < 1:
            raise ValueError("toplist sizes must be positive")
        max_size = self.sizes[-1]
        #: domain -> bucket index (domains beyond the deepest prefix
        #: never contribute and are dropped here once).
        self._bucket: Dict[str, int] = {
            domain: bisect.bisect_left(self.sizes, rank)
            for domain, rank in ranks.items()
            if rank <= max_size
        }
        self._per_bucket: Dict[str, List[int]] = {
            k: [0] * len(self.sizes) for k in CMP_KEYS
        }

    def transition(
        self, domain: str, old: Optional[str], new: Optional[str]
    ) -> None:
        """Apply one finalized domain state change (``old -> new``)."""
        if old == new:
            return
        bucket = self._bucket.get(domain)
        if bucket is None:
            return
        if old is not None:
            series = self._per_bucket.get(old)
            if series is not None:
                series[bucket] -= 1
        if new is not None:
            series = self._per_bucket.get(new)
            if series is not None:
                series[bucket] += 1

    def curve(self, date: dt.date) -> MarketShareCurve:
        """The observed curve at *date* (the engine's watermark)."""
        return _curve_from_buckets(date, self.sizes, self._per_bucket)


def peak_band(
    curve: MarketShareCurve, band_edges: Sequence[int] = (50, 1000, 10_000)
) -> Tuple[int, int]:
    """The rank band with the highest adoption *density*.

    Returns the ``(lo, hi]`` band among consecutive curve sizes whose
    per-rank density of CMP sites is highest -- the paper's "most
    prevalent among the 50-10,000th websites" claim (Section 4.1).
    """
    best = None
    best_density = -math.inf
    totals = [sum(curve.counts[k][i] for k in curve.counts)
              for i in range(len(curve.sizes))]
    prev_size, prev_total = 0, 0.0
    for size, total in zip(curve.sizes, totals):
        density = (total - prev_total) / (size - prev_size)
        if density > best_density:
            best_density = density
            best = (prev_size, size)
        prev_size, prev_total = size, total
    assert best is not None
    return best
