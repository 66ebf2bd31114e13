"""Longitudinal CMP-adoption analysis (I1/I2, Figure 6).

Implements the paper's handling of irregular sampling (Section 3.2):

* per-day aggregation with the subsite heuristic -- a site counts as
  CMP-using on a day if the CMP appears in at least every third capture
  of that day;
* **interpolation**: a gap between two equally-classified observations
  is filled with that classification; disagreeing boundaries leave the
  gap unclassified;
* **right-censoring / fade-out**: after the last observation, the state
  is extended for at most 30 days, then fades to "unknown".
"""

from __future__ import annotations

import bisect
import datetime as dt
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.crawler.capture import Observation

#: Fade-out horizon for right-censored domains (Section 3.2).
FADE_OUT_DAYS = 30

#: "At least every third capture" subsite heuristic (Section 3.5).
SUBSITE_THRESHOLD = 1 / 3


@dataclass(frozen=True)
class _Interval:
    start: dt.date  # inclusive
    end: dt.date  # exclusive
    cmp_key: Optional[str]


@dataclass(frozen=True)
class DomainTimeline:
    """One domain's interpolated CMP state over time."""

    domain: str
    intervals: Tuple[_Interval, ...]
    n_observations: int

    # ------------------------------------------------------------------
    @classmethod
    def from_observations(
        cls,
        domain: str,
        observations: Sequence[Observation],
        *,
        interpolate: bool = True,
        fade_out_days: int = FADE_OUT_DAYS,
    ) -> "DomainTimeline":
        """:meth:`from_day_rows` over ``Observation`` objects."""
        return cls.from_day_rows(
            domain,
            [(obs.date.toordinal(), obs.cmp_key) for obs in observations],
            interpolate=interpolate,
            fade_out_days=fade_out_days,
        )

    @classmethod
    def from_day_rows(
        cls,
        domain: str,
        rows: Sequence[Tuple[int, Optional[str]]],
        *,
        interpolate: bool = True,
        fade_out_days: int = FADE_OUT_DAYS,
    ) -> "DomainTimeline":
        """Build the interpolated timeline from ``(date_ordinal,
        cmp_key)`` capture rows in capture order.

        Row order matters: the per-day capture lists -- and therefore
        the 1/3 vote and its ``Counter`` tie-breaking -- are sequenced
        as the rows arrive. ``interpolate=False`` and/or
        ``fade_out_days=0`` disable the two estimator components --
        used by the ablation benchmarks to show how much of the
        Figure 6 series each rule contributes.
        """
        daily = _daily_states_from_rows(rows)
        if not daily:
            return cls(domain=domain, intervals=(), n_observations=0)
        days = sorted(daily)
        intervals: List[_Interval] = []

        for today, next_day in zip(days, days[1:]):
            state = daily[today]
            if interpolate and daily[next_day] == state:
                # Equal boundaries: interpolate straight through the gap.
                _append(intervals, today, next_day, state)
            else:
                # Disagreeing boundaries: the observation day itself keeps
                # its state; the gap stays unclassified ("we do not assume
                # the presence of the CMP in the intermediate period").
                _append(intervals, today, today + dt.timedelta(days=1), state)
        last = days[-1]
        # Fade-out horizon, audited: interval ends are *exclusive*, so
        # ``last + fade_out_days + 1`` keeps the state alive on the
        # observation day itself plus exactly ``fade_out_days`` extension
        # days -- day ``last + 30`` is still classified, day ``last + 31``
        # is unknown. The ``+ 1`` is the inclusive->exclusive conversion,
        # not an off-by-one (pinned by the day-30/31 boundary tests).
        _append(
            intervals,
            last,
            last + dt.timedelta(days=fade_out_days + 1),
            daily[last],
        )
        return cls(
            domain=domain,
            intervals=tuple(intervals),
            n_observations=len(rows),
        )

    # ------------------------------------------------------------------
    def state_on(self, date: dt.date) -> Optional[str]:
        """The domain's CMP on *date*, or ``None``.

        ``None`` means either "no CMP" or "unknown" -- the adoption
        counts treat both as absence, exactly like the paper's fade-out.
        Queries outside the materialized window are always absence:
        any *date* before :attr:`first_observed` or on/after
        ``last + fade_out_days + 1`` returns ``None``, never raises and
        never leaks an expired classification (pinned by the 30/31
        boundary tests, batch and streaming).
        """
        starts = self._starts
        idx = bisect.bisect_right(starts, date) - 1
        if idx < 0:
            return None
        iv = self.intervals[idx]
        if iv.start <= date < iv.end:
            return iv.cmp_key
        return None

    @property
    def _starts(self) -> List[dt.date]:
        """Interval start dates, built once per timeline.

        ``state_on`` used to rebuild this list on every call -- O(n)
        per query, which the streaming query server would pay per
        domain per request. Timelines are immutable after construction,
        so the list is cached on first use (written through
        ``object.__setattr__`` to bypass the frozen guard; equality and
        hashing never see it)."""
        cached = self.__dict__.get("_starts_cache")
        if cached is None:
            cached = [iv.start for iv in self.intervals]
            object.__setattr__(self, "_starts_cache", cached)
        return cached

    @property
    def first_observed(self) -> Optional[dt.date]:
        return self.intervals[0].start if self.intervals else None

    # ------------------------------------------------------------------
    # Cache serialization (repro.cache adoption artifacts)
    # ------------------------------------------------------------------
    def to_record(self) -> list:
        """This timeline as a JSON-serializable record."""
        return [
            self.domain,
            self.n_observations,
            [
                [iv.start.isoformat(), iv.end.isoformat(), iv.cmp_key]
                for iv in self.intervals
            ],
        ]

    @classmethod
    def from_record(cls, record: list) -> "DomainTimeline":
        """Exact inverse of :meth:`to_record`."""
        domain, n_observations, intervals = record
        return cls(
            domain=domain,
            n_observations=n_observations,
            intervals=tuple(
                _Interval(
                    dt.date.fromisoformat(start),
                    dt.date.fromisoformat(end),
                    cmp_key,
                )
                for start, end, cmp_key in intervals
            ),
        )

    @property
    def cmp_stints(self) -> Tuple[Tuple[str, dt.date, dt.date], ...]:
        """Maximal (cmp, start, end) runs with a CMP present."""
        out: List[Tuple[str, dt.date, dt.date]] = []
        for iv in self.intervals:
            if iv.cmp_key is None:
                continue
            if out and out[-1][0] == iv.cmp_key and out[-1][2] >= iv.start:
                out[-1] = (iv.cmp_key, out[-1][1], iv.end)
            else:
                out.append((iv.cmp_key, iv.start, iv.end))
        return tuple(out)


def day_vote(states: Sequence[Optional[str]]) -> Optional[str]:
    """One day's CMP classification from its capture states, in order.

    The "at least every third capture" subsite heuristic (Section 3.5):
    the day counts as CMP-using when >= 1/3 of its captures saw a CMP,
    classified as the most common CMP key. Ties break by first
    appearance in *states* (``Counter.most_common`` insertion order),
    so callers must pass states in capture order. Shared by the batch
    estimators and the streaming engine's day-watermark finalization --
    one vote implementation, bit-identical on both paths.
    """
    with_cmp = [s for s in states if s is not None]
    if len(with_cmp) / len(states) >= SUBSITE_THRESHOLD:
        return Counter(with_cmp).most_common(1)[0][0]
    return None


def _daily_states_from_rows(
    rows: Sequence[Tuple[int, Optional[str]]],
) -> Dict[dt.date, Optional[str]]:
    """Aggregate ``(date_ordinal, cmp_key)`` rows into one state per day
    via the 1/3 heuristic; per-day lists keep row order."""
    per_day: Dict[int, List[Optional[str]]] = defaultdict(list)
    for ordinal, cmp_key in rows:
        per_day[ordinal].append(cmp_key)
    return {
        dt.date.fromordinal(ordinal): day_vote(states)
        for ordinal, states in per_day.items()
    }


def _append(
    intervals: List[_Interval],
    start: dt.date,
    end: dt.date,
    state: Optional[str],
) -> None:
    if intervals and intervals[-1].cmp_key == state and intervals[-1].end >= start:
        intervals[-1] = _Interval(intervals[-1].start, max(intervals[-1].end, end), state)
    else:
        intervals.append(_Interval(start, end, state))


# ----------------------------------------------------------------------
# The adoption time series (Figure 6)
# ----------------------------------------------------------------------
@dataclass
class AdoptionSeries:
    """CMP counts over time across a set of domains."""

    timelines: Dict[str, DomainTimeline]

    @classmethod
    def from_day_rows(
        cls,
        per_domain_rows: Mapping[str, Sequence[Tuple[int, Optional[str]]]],
        restrict_to: Optional[Iterable[str]] = None,
        *,
        interpolate: bool = True,
        fade_out_days: int = FADE_OUT_DAYS,
    ) -> "AdoptionSeries":
        """Build timelines for every (or a restricted set of) domain(s).

        *per_domain_rows* maps each domain, in first-capture order, to
        its ``(date_ordinal, cmp_key)`` rows in capture order; the
        series keeps that domain order (its payload serialization order).
        *restrict_to* is how the Figure 6 analysis narrows the social
        media dataset down to the Tranco-10k domains. The estimator
        knobs are forwarded to :meth:`DomainTimeline.from_day_rows`.
        """
        wanted = set(restrict_to) if restrict_to is not None else None
        timelines = {}
        for domain, rows in per_domain_rows.items():
            if wanted is not None and domain not in wanted:
                continue
            timelines[domain] = DomainTimeline.from_day_rows(
                domain,
                rows,
                interpolate=interpolate,
                fade_out_days=fade_out_days,
            )
        return cls(timelines=timelines)

    @classmethod
    def from_columnar(
        cls,
        store,
        restrict_to: Optional[Iterable[str]] = None,
        *,
        interpolate: bool = True,
        fade_out_days: int = FADE_OUT_DAYS,
    ) -> "AdoptionSeries":
        """:meth:`from_day_rows` over a capture store's
        :meth:`~repro.crawler.columnar.CaptureStore.domain_day_rows`,
        which drops domains outside *restrict_to* inside its scan."""
        return cls.from_day_rows(
            store.domain_day_rows(restrict_to),
            interpolate=interpolate,
            fade_out_days=fade_out_days,
        )

    # ------------------------------------------------------------------
    # Cache serialization (repro.cache adoption artifacts)
    # ------------------------------------------------------------------
    def to_payload(self) -> list:
        """JSON-serializable payload, domain insertion order preserved.

        Insertion order matters: downstream reports iterate
        ``timelines`` directly, so a cache round-trip must reproduce it
        for bit-identical exports.
        """
        return [tl.to_record() for tl in self.timelines.values()]

    @classmethod
    def from_payload(cls, payload: list) -> "AdoptionSeries":
        """Exact inverse of :meth:`to_payload`."""
        timelines = {}
        for record in payload:
            tl = DomainTimeline.from_record(record)
            timelines[tl.domain] = tl
        return cls(timelines=timelines)

    # ------------------------------------------------------------------
    def counts_on(self, date: dt.date) -> Counter:
        """Number of domains per CMP on *date*."""
        counts: Counter = Counter()
        for tl in self.timelines.values():
            state = tl.state_on(date)
            if state is not None:
                counts[state] += 1
        return counts

    def total_on(self, date: dt.date) -> int:
        return sum(self.counts_on(date).values())

    def series(
        self, dates: Sequence[dt.date]
    ) -> List[Tuple[dt.date, Counter]]:
        """The Figure 6 series: per-date CMP counts."""
        return [(d, self.counts_on(d)) for d in dates]

class AdoptionAccumulator:
    """Incremental :class:`AdoptionSeries` construction (streaming path).

    The batch constructor (:meth:`AdoptionSeries.from_day_rows`)
    re-derives every timeline from the full capture history --
    O(window) per run. This accumulator is the O(delta) equivalent:
    feed it ``(domain, date_ordinal, cmp_key)`` rows as they arrive
    (insertion order, exactly as the columnar store appends them) and
    only domains touched since the last snapshot have their timelines
    rebuilt.

    Equivalence contract (pinned by the streaming property tests): after
    any prefix of a row feed, :meth:`series` is byte-identical -- same
    domain order, same ``to_payload()`` bytes -- to
    ``AdoptionSeries.from_columnar`` over a store holding the same rows.
    Domain order is first-appearance order on both paths; per-domain row
    order is feed order, so the per-day 1/3 vote and its ``Counter``
    tie-breaking see identical sequences.
    """

    def __init__(
        self,
        restrict_to: Optional[Iterable[str]] = None,
        *,
        interpolate: bool = True,
        fade_out_days: int = FADE_OUT_DAYS,
    ):
        self._wanted = set(restrict_to) if restrict_to is not None else None
        self._interpolate = interpolate
        self._fade_out_days = fade_out_days
        #: domain -> (date_ordinal, cmp_key) rows in feed order.
        self._rows: Dict[str, List[Tuple[int, Optional[str]]]] = {}
        #: domain -> cached timeline (insertion order == first-appearance
        #: order; rebuilding in place keeps a domain's position).
        self._timelines: Dict[str, DomainTimeline] = {}
        #: Domains with rows newer than their cached timeline, in
        #: first-dirtied order (a dict, not a set, so rebuild order --
        #: and therefore new-domain insertion order -- is deterministic).
        self._dirty: Dict[str, None] = {}
        self.rows_seen = 0

    def add(
        self, domain: str, date_ordinal: int, cmp_key: Optional[str]
    ) -> None:
        """Ingest one capture row (the streaming hot path)."""
        self.rows_seen += 1
        if self._wanted is not None and domain not in self._wanted:
            return
        bucket = self._rows.get(domain)
        if bucket is None:
            self._rows[domain] = [(date_ordinal, cmp_key)]
        else:
            bucket.append((date_ordinal, cmp_key))
        self._dirty[domain] = None

    def add_rows(
        self, rows: Iterable[Tuple[int, Optional[str], str]]
    ) -> None:
        """Ingest ``(date_ordinal, cmp_key, domain)`` rows in feed order."""
        for ordinal, cmp_key, domain in rows:
            self.add(domain, ordinal, cmp_key)

    def series(self) -> AdoptionSeries:
        """The adoption series over every row ingested so far.

        Rebuilds only dirty domains; untouched timelines are reused.
        The returned series owns a snapshot dict, so later ingestion
        never mutates it.
        """
        for domain in self._dirty:
            self._timelines[domain] = DomainTimeline.from_day_rows(
                domain,
                self._rows[domain],
                interpolate=self._interpolate,
                fade_out_days=self._fade_out_days,
            )
        self._dirty.clear()
        return AdoptionSeries(timelines=dict(self._timelines))

    @property
    def n_domains(self) -> int:
        return len(self._rows)


def daily_share_consistency(
    per_domain_rows: Mapping[str, Sequence[Tuple[int, Optional[str]]]]
) -> float:
    """Fraction of domains whose daily share of CMP captures is
    consistently below 5% or above 95% (the paper reports 99.8% --
    Section 3.5, "Subsites"). Computed on raw per-day capture mixes,
    before any interpolation, from per-domain ``(date_ordinal,
    cmp_key)`` rows (:meth:`CaptureStore.domain_day_rows`)."""
    consistent = 0
    total = 0
    for rows in per_domain_rows.values():
        if not rows:
            continue
        per_day: Dict[int, List[Optional[str]]] = defaultdict(list)
        for ordinal, cmp_key in rows:
            per_day[ordinal].append(cmp_key)
        total += 1
        ok = True
        for states in per_day.values():
            share = sum(1 for s in states if s is not None) / len(states)
            if 0.05 < share < 0.95:
                ok = False
                break
        consistent += ok
    return consistent / total if total else 1.0


def month_starts(start: dt.date, end: dt.date) -> List[dt.date]:
    """The first day of every month in ``[start, end]`` -- the sampling
    grid used for the Figure 6 series."""
    out = []
    current = dt.date(start.year, start.month, 1)
    if current < start:
        current = _next_month(current)
    while current <= end:
        out.append(current)
        current = _next_month(current)
    return out


def _next_month(d: dt.date) -> dt.date:
    if d.month == 12:
        return dt.date(d.year + 1, 1, 1)
    return dt.date(d.year, d.month + 1, 1)
