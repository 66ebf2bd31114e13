"""The incremental study engine behind ``study --follow``.

One :class:`StreamingStudyEngine` owns a persistent serial platform
(queue cooldowns, capture-id counter and run stats thread from day to
day exactly as in one batch run), a columnar store it appends into, and
the incremental analysis state:

* an :class:`~repro.core.adoption.AdoptionAccumulator` fed every row as
  it arrives -- :meth:`adoption_series` is byte-identical to the batch
  ``AdoptionSeries.from_columnar`` over the same store at any cut;
* a :class:`~repro.core.vantage.VantageAccumulator` (same contract
  against ``VantageTable.from_stream_rows``);
* a :class:`~repro.stream.state.LiveAdoptionState` consuming only
  *finalized* days (watermark semantics), whose transitions drive a
  :class:`~repro.core.marketshare.MarketShareAccumulator` for O(1)
  live marketshare curves.

Each query answer is derived once per watermark (:meth:`query`): the
first query after :meth:`advance_day` builds the adoption-series
snapshot, every retrospective answer is memoized under the engine
lock, and the next :meth:`advance_day` drops them all when it publishes
its watermark. The snapshot is built lazily, at the first query, not
at each day: ingest pays nothing for answers nobody asks for.

Checkpoints reuse :mod:`repro.cache`: the store is saved under the
exact ``social-crawl`` fingerprint a batch run over the ingested prefix
would use (so batch and follow runs serve each other's cache entries),
and the engine's serial state -- queue cooldowns, capture counter,
watermark -- lands under the ``stream-checkpoint`` stage next to a
``latest`` pointer. Resuming replays the restored store's rows through
fresh accumulators (pure functions of the feed), so a resumed run is
byte-identical to an uninterrupted one; ``scripts/streaming_smoke.py``
asserts both directions.
"""

from __future__ import annotations

import datetime as dt
import threading
from collections import Counter
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from repro.cache import CacheError, Fingerprint
from repro.core.adoption import AdoptionAccumulator, AdoptionSeries
from repro.core.marketshare import (
    MarketShareAccumulator,
    MarketShareCurve,
    default_sizes,
    observed_marketshare,
)
from repro.core.vantage import VantageAccumulator, VantageTable
from repro.crawler.columnar import VANTAGE_STRS
from repro.crawler.spill import Store, new_store
from repro.memo import MISSING, BoundedMemo
from repro.stream.state import LiveAdoptionState
from repro.toplist.tranco import TrancoRanks

if TYPE_CHECKING:  # pragma: no cover - typing only (cycle guard)
    from repro.core.pipeline import Study

_ONE_DAY = dt.timedelta(days=1)

#: Bound on the answers memoized at one watermark: ``?date=`` may name
#: any day, and each distinct ``(query, date)`` is one entry.
ANSWER_MEMO_SIZE = 256

#: A memoized query answer.
Answer = Union[Counter, MarketShareCurve, VantageTable]


def _own_curve(curve: MarketShareCurve) -> MarketShareCurve:
    return MarketShareCurve.from_payload(curve.to_payload())


def _own_table(table: VantageTable) -> VantageTable:
    # Not through the payload, which sorts every domain set: the sets
    # are frozensets, so the copy shares them.
    return VantageTable(
        {name: Counter(counts) for name, counts in table.counts.items()},
        dict(table.cmp_domains),
    )


#: How a caller gets its own copy of each memoized query's answer, so
#: mutating it cannot change a later answer.
_COPIES = {
    "counts_on": Counter,
    "marketshare_curve": _own_curve,
    "vantage_table": _own_table,
}


class StreamingStudyEngine:
    """Consume the share stream day by day, maintaining results online."""

    def __init__(
        self,
        study: "Study",
        *,
        checkpoint_every: int = 0,
        restrict_to_toplist: bool = True,
        marketshare_sizes: Optional[Sequence[int]] = None,
    ) -> None:
        cfg = study.config
        self.study = study
        self.obs = study.obs
        self.start = cfg.study_start
        #: Next event day to ingest; ``watermark`` trails it by one day.
        self.next_day = cfg.study_start
        self.watermark: Optional[dt.date] = None
        #: Checkpoint cadence in ingested days (0 = explicit only).
        self.checkpoint_every = checkpoint_every
        self.days_ingested = 0
        #: Guards engine state between the follow loop and the query
        #: server's handler threads.
        self.lock = threading.RLock()
        #: The watermark's adoption-series snapshot and memoized query
        #: answers (:meth:`query`); :meth:`advance_day` drops both.
        self._series: Optional[AdoptionSeries] = None
        self._answers = BoundedMemo(ANSWER_MEMO_SIZE)
        self.platform = study.platform()
        #: The append-only capture log; ``memory_budget`` bounds its
        #: resident rows by spilling full segments to disk (the follow
        #: loop only ever reads the suffix via ``rows_since``, so long
        #: follows stay flat-RSS). Bit-invisible either way.
        self.store: Store = new_store(cfg.memory_budget)
        self._cursor = 0
        #: The toplist's domain -> Tranco rank lookup: the restriction
        #: of the series and the ranks of the marketshare curves. It
        #: resolves a domain from its name, so building the engine
        #: generates none of the toplist's sites.
        self._ranks = TrancoRanks(study.tranco, cfg.toplist_size)
        #: The domains whose rows feed the adoption series and the live
        #: state (``None``: every domain), asked once per row.
        self._wanted = self._ranks if restrict_to_toplist else None
        self.adoption = AdoptionAccumulator()
        self.vantage = VantageAccumulator()
        self.live = LiveAdoptionState()
        self._sizes = list(
            marketshare_sizes
            if marketshare_sizes is not None
            else default_sizes(cfg.toplist_size)
        )
        self.marketshare = MarketShareAccumulator(self._ranks, self._sizes)
        metrics = self.obs.metrics
        self._m_rows = metrics.counter(
            "stream_rows_total", "capture rows ingested by the follow engine"
        )
        self._m_days = metrics.counter(
            "stream_days_total", "event days finalized by the follow engine"
        )
        self._m_checkpoints = metrics.counter(
            "stream_checkpoints_total", "engine checkpoints written"
        )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def advance_day(self) -> int:
        """Ingest the next event day and finalize it; returns the
        number of capture rows the day produced.

        One call = one ``platform.ingest_day`` (dedup + crawl, identical
        to the batch serial loop), the new rows drained into the
        accumulators via ``rows_since``, then watermark finalization:
        the live state votes the newly-final day and its transitions
        drive the marketshare accumulator. Publishing the new watermark
        drops the previous one's memoized answers. A
        ``checkpoint_every`` > 0 writes a checkpoint every that-many
        ingested days.
        """
        with self.lock:
            day = self.next_day
            with self.obs.span(
                "stream.ingest_day", day=day.isoformat()
            ) as span:
                self.platform.ingest_day(day, self.store)
                rows = self.store.rows_since(self._cursor)
                self._cursor = self.store.n_rows
                self._ingest_rows(rows)
                transitions = self.live.finalize_through(day.toordinal())
                for domain, old, new in transitions:
                    self.marketshare.transition(domain, old, new)
                span.set(rows=len(rows), transitions=len(transitions))
            self.watermark = day
            self._series = None
            self._answers = BoundedMemo(ANSWER_MEMO_SIZE)
            self.next_day = day + _ONE_DAY
            self.days_ingested += 1
            self._m_rows.inc(len(rows))
            self._m_days.inc()
            if (
                self.checkpoint_every
                and self.days_ingested % self.checkpoint_every == 0
            ):
                self.checkpoint()
            return len(rows)

    def run_until(self, end: dt.date) -> "StreamingStudyEngine":
        """Ingest every event day in ``[next_day, end)``; returns self."""
        while self.next_day < end:
            self.advance_day()
        return self

    def _ingest_rows(
        self, rows: List[Tuple[str, int, Optional[str], int]]
    ) -> None:
        """Feed decoded store rows to every accumulator, in feed order:
        the vantage table takes every row, the adoption series and the
        live state only the wanted domains'."""
        adoption_add = self.adoption.add
        vantage_add = self.vantage.add
        buffer_row = self.live.buffer_row
        wanted = self._wanted
        for domain, ordinal, cmp_key, vantage_id in rows:
            vantage_add(VANTAGE_STRS[vantage_id], domain, cmp_key)
            if wanted is None or domain in wanted:
                adoption_add(domain, ordinal, cmp_key)
                buffer_row(domain, ordinal, cmp_key)

    # ------------------------------------------------------------------
    # Queries (thread-safe; the query server calls these)
    # ------------------------------------------------------------------
    def adoption_series(self) -> AdoptionSeries:
        """The retrospective series over every ingested row --
        byte-identical to the batch derivation at this cut point."""
        with self.lock:
            return AdoptionSeries(timelines=dict(self._snapshot().timelines))

    def counts_on(self, date: dt.date) -> Counter:
        """Retrospective per-CMP domain counts on *date*."""
        return self.query("counts_on", date)[0]

    def live_counts(self) -> Counter:
        """Per-CMP counts of the live (watermark-finalized) state."""
        with self.lock:
            return Counter(self.live.counts)

    def vantage_table(self) -> VantageTable:
        return self.query("vantage_table")[0]

    def marketshare_curve(
        self, date: Optional[dt.date] = None
    ) -> MarketShareCurve:
        """Retrospective observed-marketshare curve (default: at the
        watermark), derived from the interpolated timelines."""
        return self.query("marketshare_curve", date)[0]

    def query(
        self, name: str, date: Optional[dt.date] = None
    ) -> Tuple[Answer, bool]:
        """``(answer, cached)`` of a retrospective query at the current
        watermark: ``counts_on`` (on *date*), ``marketshare_curve`` (on
        *date*, default the watermark) or ``vantage_table``.

        The first call per ``(name, date)`` at a watermark derives the
        answer under the lock and memoizes it; ``cached`` says whether
        this call found it memoized. Either way the caller gets its own
        copy.
        """
        with self.lock:
            if date is None and name == "marketshare_curve":
                date = self._watermark_or_raise()
            key = (name, date)
            answer = self._answers.get(key, MISSING)
            cached = answer is not MISSING
            if not cached:
                answer = self._derive(name, date)
                self._answers[key] = answer
            return _COPIES[name](answer), cached

    def _derive(self, name: str, date: Optional[dt.date]) -> Answer:
        """One query answer from the watermark's state (lock held)."""
        if name == "vantage_table":
            return self.vantage.table()
        if name == "counts_on":
            return self._snapshot().counts_on(date)
        if name == "marketshare_curve":
            return observed_marketshare(
                self._snapshot(), self._ranks, date, self._sizes
            )
        raise ValueError(f"unknown query {name!r}")

    def _snapshot(self) -> AdoptionSeries:
        """The watermark's adoption series, built by its first query
        (lock held)."""
        if self._series is None:
            self._series = self.adoption.series()
        return self._series

    def live_marketshare_curve(self) -> MarketShareCurve:
        """The O(1) live curve at the watermark (expiring-state view)."""
        with self.lock:
            return self.marketshare.curve(self._watermark_or_raise())

    def _watermark_or_raise(self) -> dt.date:
        if self.watermark is None:
            raise ValueError("no day ingested yet")
        return self.watermark

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def _crawl_fingerprint(self, end: dt.date) -> Fingerprint:
        """The *batch* store fingerprint for the ingested prefix -- the
        entry a batch ``run_social_crawl(start, end)`` would look up."""
        return self.study.fingerprint(
            "social-crawl", key=(self.start.isoformat(), end.isoformat())
        )

    def _state_fingerprint(self, label: str) -> Fingerprint:
        return self.study.fingerprint(
            "stream-checkpoint", key=(self.start.isoformat(), label)
        )

    def checkpoint(self) -> Optional[Fingerprint]:
        """Persist the engine so a later process can resume at the
        watermark; returns the state fingerprint (``None`` when the
        study has no cache or nothing is ingested yet).

        Three writes: the store under the batch ``social-crawl``
        fingerprint of ``[start, watermark + 1)`` (shared with batch
        runs in both directions), the serial engine state under
        ``stream-checkpoint``, and a ``latest`` pointer naming the
        newest watermark.
        """
        cache = self.study.cache
        with self.lock:
            if cache is None or self.watermark is None:
                return None
            with self.obs.span(
                "stream.checkpoint", watermark=self.watermark.isoformat()
            ):
                end = self.watermark + _ONE_DAY
                cache.save_capture_store(
                    self._crawl_fingerprint(end), self.store
                )
                state_fp = self._state_fingerprint(self.watermark.isoformat())
                cache.save_payload(
                    state_fp,
                    {
                        "watermark": self.watermark.isoformat(),
                        "rows": self.store.n_rows,
                        "platform": self.platform.state_payload(),
                    },
                )
                cache.save_payload(
                    self._state_fingerprint("latest"),
                    {"watermark": self.watermark.isoformat()},
                )
                self._m_checkpoints.inc()
            return state_fp

    @classmethod
    def from_checkpoint(
        cls,
        study: "Study",
        watermark: Optional[dt.date] = None,
        **kwargs: object,
    ) -> "StreamingStudyEngine":
        """An engine resumed from a saved checkpoint.

        *watermark* selects a specific checkpoint; the default follows
        the ``latest`` pointer. The store comes back through the batch
        ``social-crawl`` entry, the platform's serial state from the
        ``stream-checkpoint`` payload, and every accumulator is rebuilt
        by replaying the restored rows -- they are pure functions of the
        feed, so the resumed engine is byte-identical to one that never
        stopped (pinned by the equivalence smoke and property tests).
        """
        cache = study.cache
        if cache is None:
            raise CacheError("resuming requires a study cache_dir")
        engine = cls(study, **kwargs)
        if watermark is None:
            pointer = cache.load_payload(engine._state_fingerprint("latest"))
            if pointer is None:
                raise CacheError("no streaming checkpoint to resume from")
            watermark = dt.date.fromisoformat(pointer["watermark"])
        payload = cache.load_payload(
            engine._state_fingerprint(watermark.isoformat())
        )
        if payload is None:
            raise CacheError(
                f"no streaming checkpoint at watermark {watermark.isoformat()}"
            )
        end = watermark + _ONE_DAY
        store = cache.load_capture_store(
            engine._crawl_fingerprint(end), study.config.memory_budget
        )
        if store is None:
            raise CacheError(
                f"streaming checkpoint at {watermark.isoformat()} has no "
                "store entry"
            )
        if store.n_rows != payload["rows"]:
            raise CacheError(
                f"streaming checkpoint row count mismatch: state says "
                f"{payload['rows']}, store holds {store.n_rows}"
            )
        engine.store = store
        engine.platform.restore_state(payload["platform"])
        engine._ingest_rows(store.rows_since(0))
        engine._cursor = store.n_rows
        for domain, old, new in engine.live.finalize_through(
            watermark.toordinal()
        ):
            engine.marketshare.transition(domain, old, new)
        engine.watermark = watermark
        engine.next_day = end
        engine.days_ingested = (end - engine.start).days
        return engine

    # ------------------------------------------------------------------
    @property
    def rows_ingested(self) -> int:
        return self._cursor

    def stats_payload(self) -> dict:
        """Engine progress counters (the query server's ``/stats``)."""
        with self.lock:
            return {
                "watermark": (
                    self.watermark.isoformat() if self.watermark else None
                ),
                "days_ingested": self.days_ingested,
                "rows_ingested": self._cursor,
                "events_seen": self.platform.stats.events,
                "crawls": self.platform.stats.crawls,
                "domains_tracked": self.live.n_tracked,
                "skip_rate": round(self.platform.queue.stats.skip_rate, 4),
            }
