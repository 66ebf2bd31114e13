"""Live per-domain adoption state with watermark finalization.

The batch estimator (:mod:`repro.core.adoption`) classifies a domain on
a date by *retrospective* interpolation over the whole capture history.
A streaming engine cannot interpolate into the future, so the live view
uses **watermark semantics**: a day's captures are folded into per-domain
votes only once the day is *final* (the watermark has passed it -- no
earlier-dated capture can still arrive), and a domain stays classified
under its most recent finalized vote for at most ``fade_out_days`` days,
after which it expires to unknown. The fade-out boundary is identical to
the batch rule: a vote on day L classifies days ``[L, L + fade + 1)``
exclusive -- day ``L + 30`` still classified, day ``L + 31`` unknown
(the 30/31 pin, mirrored by ``tests/test_boundary_fixes.py`` on this
path).

Determinism: expiry is a heap keyed on ``(expiry_ordinal, domain)`` with
lazy staleness checks, so pop order -- and therefore the transition feed
driving the marketshare accumulator -- is a pure function of the row
feed. All bookkeeping iterates insertion-ordered dicts, never sets.
"""

from __future__ import annotations

import datetime as dt
import heapq
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.core.adoption import FADE_OUT_DAYS, day_vote

#: One finalized state change: ``(domain, old, new)`` where old/new are
#: CMP keys or ``None`` (unknown / no CMP / expired).
Transition = Tuple[str, Optional[str], Optional[str]]


class LiveAdoptionState:
    """Per-domain CMP state at the watermark, with expiring fade-out.

    Feed captures with :meth:`buffer_row` as they arrive (they may be
    dated up to one day past the current event day -- the crawl delay
    crosses midnight); advance the watermark with
    :meth:`finalize_through` once an event day is fully ingested. Rows
    dated beyond the watermark stay pending; finalization votes each
    pending day with the same :func:`~repro.core.adoption.day_vote` the
    batch estimator uses and returns the resulting state transitions in
    deterministic order (per day: vote transitions in first-capture
    order, then expiries in ``(ordinal, domain)`` heap order).
    """

    def __init__(
        self,
        *,
        fade_out_days: int = FADE_OUT_DAYS,
    ) -> None:
        self.fade_out_days = fade_out_days
        #: Pending (not yet final) captures: ordinal -> domain -> states
        #: in capture order.
        self._pending: Dict[int, Dict[str, List[Optional[str]]]] = {}
        #: domain -> (last finalized vote ordinal, voted state).
        self._state: Dict[str, Tuple[int, Optional[str]]] = {}
        #: Expiry heap: ``(last_ordinal + fade + 1, domain)``. Entries
        #: are never removed on re-vote; stale ones are skipped on pop
        #: by comparing against the domain's current last ordinal.
        self._heap: List[Tuple[int, str]] = []
        #: Live CMP counts over classified domains. Zero entries are
        #: deleted on decrement (``Counter`` equality on Python 3.9
        #: distinguishes explicit zeros).
        self.counts: Counter = Counter()
        #: Highest finalized day ordinal (0 before any finalization).
        self.watermark_ordinal = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def buffer_row(
        self, domain: str, date_ordinal: int, cmp_key: Optional[str]
    ) -> None:
        """Buffer one capture row until its day is finalized."""
        if date_ordinal <= self.watermark_ordinal:
            raise ValueError(
                f"capture dated ordinal {date_ordinal} arrived at or "
                f"behind the watermark ({self.watermark_ordinal}); rows "
                "must be buffered before their day is finalized"
            )
        day = self._pending.get(date_ordinal)
        if day is None:
            day = self._pending[date_ordinal] = {}
        bucket = day.get(domain)
        if bucket is None:
            day[domain] = [cmp_key]
        else:
            bucket.append(cmp_key)

    def finalize_through(self, watermark_ordinal: int) -> List[Transition]:
        """Advance the watermark, voting every newly-final day.

        Processes days in ascending order; within a day, expiries whose
        boundary falls on or before that day pop from the heap *first*
        (a state faded exactly at day ``o`` must release its count
        before a day-``o`` vote can reinstate the domain -- voting first
        would strand the old count behind a then-stale heap entry), then
        the day's votes land in first-capture domain order. Returns
        every state transition, in processing order.
        """
        if watermark_ordinal < self.watermark_ordinal:
            raise ValueError("watermark cannot move backwards")
        transitions: List[Transition] = []
        fade = self.fade_out_days
        # Pending days arrive in ascending insertion order (the feed is
        # day-ordered and rollover only reaches one day ahead), but sort
        # defensively: vote order across days must be ascending.
        due = sorted(
            o for o in self._pending if o <= watermark_ordinal
        )
        for ordinal in due:
            self._expire_through(ordinal, transitions)
            for domain, states in self._pending.pop(ordinal).items():
                vote = day_vote(states)
                old = self._classified(domain, ordinal)
                self._state[domain] = (ordinal, vote)
                if vote is not None:
                    heapq.heappush(self._heap, (ordinal + fade + 1, domain))
                if old != vote:
                    self._shift(domain, old, vote, transitions)
        self._expire_through(watermark_ordinal, transitions)
        self.watermark_ordinal = watermark_ordinal
        return transitions

    def _expire_through(
        self, ordinal: int, transitions: List[Transition]
    ) -> None:
        heap = self._heap
        while heap and heap[0][0] <= ordinal:
            expiry, domain = heapq.heappop(heap)
            last, state = self._state[domain]
            if last + self.fade_out_days + 1 != expiry or state is None:
                continue  # stale entry: the domain re-voted since
            self._state[domain] = (last, None)
            self._shift(domain, state, None, transitions)

    def _shift(
        self,
        domain: str,
        old: Optional[str],
        new: Optional[str],
        transitions: List[Transition],
    ) -> None:
        if old is not None:
            self.counts[old] -= 1
            if not self.counts[old]:
                del self.counts[old]
        if new is not None:
            self.counts[new] += 1
        transitions.append((domain, old, new))

    def _classified(self, domain: str, ordinal: int) -> Optional[str]:
        entry = self._state.get(domain)
        if entry is None:
            return None
        last, state = entry
        if state is None or ordinal >= last + self.fade_out_days + 1:
            return None
        return state

    # ------------------------------------------------------------------
    # Queries (at the watermark)
    # ------------------------------------------------------------------
    def state_of(self, domain: str) -> Optional[str]:
        """The domain's live CMP at the watermark, or ``None``.

        Absence semantics match the batch ``state_on`` contract: unseen
        domains, voted-no-CMP domains and faded-out domains all answer
        ``None`` -- never a stale classification.
        """
        return self._classified(domain, self.watermark_ordinal)

    @property
    def watermark(self) -> Optional[dt.date]:
        if not self.watermark_ordinal:
            return None
        return dt.date.fromordinal(self.watermark_ordinal)

    @property
    def n_tracked(self) -> int:
        """Domains with at least one finalized vote."""
        return len(self._state)

    @property
    def n_pending_days(self) -> int:
        return len(self._pending)
