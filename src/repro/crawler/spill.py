"""Bounded-memory capture storage via on-disk spill segments.

A :class:`SpillingCaptureStore` keeps one active in-memory
:class:`~repro.crawler.columnar.CaptureStore` and, whenever it reaches
the row budget, writes it as a segment file
(:func:`repro.crawler.storage.save_store`) and starts a fresh one, so
peak RSS is set by the budget, not by the study size. The budget is an
*execution* knob (:class:`SpillSettings`, ``StudyConfig.memory_budget``)
that is never fingerprinted: spilling cannot change results.

Spilling is **bit-invisible**: segments concatenated in spill order
reproduce the insertion order, and the segments' interning tables,
interned in order, are exactly the tables of a store that never spilled
(the columnar merge invariant). Every whole-store read therefore
streams the segments one at a time instead of folding them back into
memory; ``store_digest`` and ``unique_domains`` first intern the
segment headers' tables (O(domains)), then hash each column one segment
at a time through that segment's id translation.

Segment files live in ``SpillSettings.directory`` when one is
configured (its owner cleans it up), or else in a private temporary
directory created at the first spill and removed when the owning store
is dropped. Pickling hands that ownership to the unpickled copy, which
is how a shard store travels from a worker process to the parent.
"""

from __future__ import annotations

import shutil
import tempfile
import weakref
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from repro.crawler.columnar import (
    CaptureStore,
    DayRows,
    Row,
    digest_stream,
    remapped,
)
from repro.crawler.storage import (
    load_store,
    read_header,
    save_store,
    segment_path,
)

__all__ = ["SpillSettings", "SpillingCaptureStore"]


@dataclass(frozen=True)
class SpillSettings:
    """Execution-level memory bounds for a crawl-phase store.

    Never fingerprinted: a budgeted run and an unbounded run of the
    same study produce byte-identical stores, so cache entries are
    shared freely between them.
    """

    #: Rows the active in-memory segment may hold before it spills.
    row_budget: int
    #: Where segment files land; ``None`` allocates a private temporary
    #: directory per store at its first spill.
    directory: Optional[str] = None

    def __post_init__(self) -> None:
        if self.row_budget < 1:
            raise ValueError("row_budget must be >= 1")


@dataclass(frozen=True)
class _Segment:
    """Bookkeeping for one spilled segment file."""

    path: str
    n_rows: int
    n_captures: int
    total_requests: int


class SpillingCaptureStore:
    """A :class:`CaptureStore` facade with bounded resident rows.

    Drop-in for the plain store's writes (``append_batch``, ``merge``)
    and reads (``iter_rows``, ``rows_since``, ``domain_day_rows``,
    ``unique_domains``, ``digest_parts``).
    """

    def __init__(self, settings: SpillSettings):
        self.settings = settings
        self._directory: Optional[str] = (
            None if settings.directory is None else str(settings.directory)
        )
        #: Removes the private directory once this store is dropped;
        #: ``None`` for a configured directory or before the first spill.
        self._finalizer: Optional[weakref.finalize] = None
        self._segments: List[_Segment] = []
        self._active = CaptureStore()
        self._spilled_rows = 0
        self._spilled_captures = 0
        self._spilled_requests = 0

    # ------------------------------------------------------------------
    # Counters (read-only views over segments + active)
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self._spilled_rows + self._active.n_rows

    @property
    def n_captures(self) -> int:
        return self._spilled_captures + self._active.n_captures

    @property
    def total_requests(self) -> int:
        return self._spilled_requests + self._active.total_requests

    @property
    def n_segments(self) -> int:
        """Spilled segments so far (excluding the active one)."""
        return len(self._segments)

    def segment_paths(self) -> List[str]:
        """Spilled segment files, in spill (= insertion) order."""
        return [segment.path for segment in self._segments]

    def active_store(self) -> CaptureStore:
        """The resident tail segment (rows appended since last spill)."""
        return self._active

    # ------------------------------------------------------------------
    # Writes (delegate to the active segment, then maybe spill)
    # ------------------------------------------------------------------
    def append_batch(self, *args, **kwargs) -> None:
        self._active.append_batch(*args, **kwargs)
        self._maybe_spill()

    def merge(self, other) -> None:
        """Fold *other* (plain or spilling) in after this store's rows.

        A spilling *other* is consumed one segment at a time, so the
        transient footprint stays near one budget's worth of rows; a
        plain *other* lands in the active segment whole before the
        post-merge spill check runs.
        """
        if isinstance(other, SpillingCaptureStore):
            for store in other.iter_segment_stores():
                self._active.merge(store)
                self._maybe_spill()
        else:
            self._active.merge(other)
            self._maybe_spill()

    def _maybe_spill(self) -> None:
        active = self._active
        if active.n_rows < self.settings.row_budget:
            return
        path = segment_path(self._segment_directory(), len(self._segments))
        save_store(active, path)
        self._segments.append(
            _Segment(
                path=str(path),
                n_rows=active.n_rows,
                n_captures=active.n_captures,
                total_requests=active.total_requests,
            )
        )
        self._spilled_rows += active.n_rows
        self._spilled_captures += active.n_captures
        self._spilled_requests += active.total_requests
        self._active = CaptureStore()

    def _segment_directory(self) -> str:
        if self._directory is None:
            self._directory = tempfile.mkdtemp(prefix="repro-spill-")
            self._own_directory()
        else:
            Path(self._directory).mkdir(parents=True, exist_ok=True)
        return self._directory

    def _own_directory(self) -> None:
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, self._directory, True
        )

    # ------------------------------------------------------------------
    # Reads (one segment resident at a time)
    # ------------------------------------------------------------------
    def iter_segment_stores(self) -> Iterator[CaptureStore]:
        """Every segment (spilled, then active) as a store, in order."""
        for segment in self._segments:
            yield load_store(segment.path, context="spill segment")
        yield self._active

    def iter_rows(self) -> Iterator[Row]:
        for store in self.iter_segment_stores():
            yield from store.iter_rows()

    def rows_since(self, cursor: int) -> List[Row]:
        """Rows at global index >= *cursor*, across segment boundaries.

        The streaming engine's drain: a spill may land mid-day, so the
        suffix can span the newest on-disk segment plus the active one.
        Only overlapping segments are reloaded.
        """
        if cursor < 0:
            raise ValueError("cursor must be >= 0")
        out: List[Row] = []
        offset = 0
        for segment in self._segments:
            end = offset + segment.n_rows
            if cursor < end:
                store = load_store(segment.path, context="spill segment")
                out.extend(store.rows_since(max(0, cursor - offset)))
            offset = end
        out.extend(self._active.rows_since(max(0, cursor - offset)))
        return out

    def domain_day_rows(self, restrict_to=None) -> DayRows:
        """:meth:`CaptureStore.domain_day_rows` of the whole store.

        Each segment's groups are appended to the running groups, so
        domains keep first-capture order and rows keep insertion order.
        """
        wanted = None if restrict_to is None else set(restrict_to)
        out: DayRows = {}
        for store in self.iter_segment_stores():
            for domain, rows in store.domain_day_rows(wanted).items():
                bucket = out.get(domain)
                if bucket is None:
                    out[domain] = rows
                else:
                    bucket.extend(rows)
        return out

    @property
    def unique_domains(self) -> int:
        return self._merged_tables()[0].unique_domains

    def digest_parts(self) -> Iterator[bytes]:
        """The digest stream of the folded store, without folding it:
        the merged tables first, then each whole column assembled one
        segment at a time."""
        merged, id_maps = self._merged_tables()

        def pieces(index: int) -> Iterator[array]:
            # Domain (0) and CMP (2) ids go through each segment's id
            # maps; dates (1) and vantages (3) are global already.
            for store, maps in zip(self.iter_segment_stores(), id_maps):
                column = store.columns()[index]
                yield column if index % 2 else remapped(
                    column, maps[index // 2]
                )

        return digest_stream(*merged.tables(), map(pieces, range(4)))

    def _merged_tables(
        self,
    ) -> Tuple[CaptureStore, List[Tuple[List[int], List[int]]]]:
        """An empty store holding the tables a fold would have, interned
        from the segment headers, plus each segment's domain and CMP id
        maps into them."""
        merged = CaptureStore()
        id_maps = [
            merged.intern_tables(header["domains"], header["cmp_keys"])
            for header in (
                read_header(segment.path, context="spill segment")
                for segment in self._segments
            )
        ]
        id_maps.append(merged.intern_tables(*self._active.tables()))
        return merged, id_maps

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def cleanup(self) -> None:
        """Delete the spilled segment files now, and the private
        directory with them (a configured one stays with its owner)."""
        for segment in self._segments:
            Path(segment.path).unlink(missing_ok=True)
        if self._finalizer is not None:
            self._finalizer()

    def __getstate__(self) -> dict:
        """Pickle without the finalizer; the private directory's
        ownership moves to the copy that unpickles this state."""
        state = self.__dict__.copy()
        finalizer = state.pop("_finalizer")
        state["_owns_directory"] = (
            finalizer is not None and finalizer.detach() is not None
        )
        return state

    def __setstate__(self, state: dict) -> None:
        owns_directory = state.pop("_owns_directory")
        self.__dict__.update(state)
        self._finalizer = None
        if owns_directory:
            self._own_directory()
