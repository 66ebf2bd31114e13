"""Columnar (struct-of-arrays) capture storage.

The paper's platform keeps no page contents, only what the longitudinal
analyses consume (Section 3.2). A :class:`CaptureStore` holds exactly
that, one row per crawl, as four parallel integer columns plus two
small interning tables:

* **domains** are interned in first-appearance order;
* **vantages** come from a fixed six-entry table (2 regions x 3 address
  spaces), so a vantage is one byte;
* **CMP keys** are interned with id 0 reserved for "no CMP";
* **dates** are stored as proleptic-Gregorian ordinals
  (``datetime.date.toordinal``).

This is the store's only representation: the segment files of
:mod:`repro.crawler.storage` hold the same tables and the same columns
verbatim, and readers get rows back as ``(domain, date_ordinal,
cmp_key, vantage_id)`` tuples, never as objects.

Segments merge by concatenation: :meth:`CaptureStore.merge` extends each
column with the other store's column, remapping interned ids through a
per-merge translation table. Row order is preserved exactly -- merging
a spilled store's segments in spill order reproduces its insertion
order. Partitions of a parallel run interleave instead:
:func:`merge_keyed` merges their stores by each row's serial feed
position, interning in first-appearance order of the merged sequence,
which is the argument that keeps partitioned runs bit-identical to
serial ones (docs/ARCHITECTURE.md, "Columnar capture store").
"""

from __future__ import annotations

import json
import sys
from array import array
from itertools import compress
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.crawler.capture import Vantage

#: The fixed vantage id table: ``id = region_id * 3 + space_id``.
VANTAGE_TABLE: Tuple[Vantage, ...] = tuple(
    Vantage(region=region, address_space=space)
    for region in ("EU", "US")
    for space in ("cloud", "university", "residential")
)
VANTAGE_IDS: Dict[Vantage, int] = {v: i for i, v in enumerate(VANTAGE_TABLE)}
#: ``str(vantage)`` per id (fault schedules key on the string form).
VANTAGE_STRS: Tuple[str, ...] = tuple(str(v) for v in VANTAGE_TABLE)

#: A decoded row: ``(domain, date_ordinal, cmp_key, vantage_id)``.
Row = Tuple[str, int, Optional[str], int]
#: Per-domain ``(date_ordinal, cmp_key)`` pairs, the adoption input.
DayRows = Dict[str, List[Tuple[int, Optional[str]]]]
Columns = Tuple[array, array, array, array]


def vantage_id(region: str, address_space: str) -> int:
    """The table id of ``Vantage(region, address_space)``."""
    return VANTAGE_IDS[Vantage(region=region, address_space=address_space)]


def le_bytes(column: array) -> bytes:
    """*column*'s items as little-endian bytes (digest and segment
    encoding, so both are architecture-stable)."""
    if sys.byteorder != "little":  # pragma: no cover - x86/arm are LE
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


def remapped(column: array, id_map: List[int]) -> array:
    """*column* with every id translated through *id_map* (the column
    itself when the map is the identity)."""
    if id_map == list(range(len(id_map))):
        return column
    return array(column.typecode, map(id_map.__getitem__, column))


def digest_stream(
    domains: Sequence[str],
    cmp_keys: Sequence[Optional[str]],
    columns: Iterable[Iterable[array]],
) -> Iterator[bytes]:
    """The byte stream :func:`repro.crawler.storage.store_digest` hashes
    after its identity header: the tables, then each whole column, given
    as consecutive pieces (a spilled store hashes one segment at a time).

    The tables are first-appearance ordered under both serial appends
    and :meth:`CaptureStore.merge` (which walks the other store's
    first-appearance ordered table), so ``(tables, id columns)`` is a
    *canonical* encoding: equal streams iff equal rows.
    """
    yield b"\n"
    yield json.dumps(list(domains)).encode("utf-8")
    yield b"\n"
    yield json.dumps(list(cmp_keys)).encode("utf-8")
    for pieces in columns:
        yield b"\n"
        for piece in pieces:
            yield le_bytes(piece)


class CaptureStore:
    """The platform's queryable capture database, stored columnarly.

    Writes append whole batches (:meth:`append_batch`) or concatenate
    another store (:meth:`merge`); reads hand out decoded row tuples
    (:meth:`iter_rows`, :meth:`rows_since`) or the per-domain adoption
    input (:meth:`domain_day_rows`). Every read builds fresh containers,
    so later writes never mutate something a caller holds.
    """

    def __init__(self) -> None:
        self.total_requests = 0
        self.n_captures = 0
        # Interning tables.
        self._domains: List[str] = []
        self._domain_ids: Dict[str, int] = {}
        self._cmp_keys: List[Optional[str]] = [None]
        self._cmp_ids: Dict[Optional[str], int] = {None: 0}
        # Row columns.
        self._col_domain = array("i")
        self._col_date = array("i")  # date ordinals
        self._col_cmp = array("b")
        self._col_vantage = array("b")

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def _domain_id(self, domain: str) -> int:
        i = self._domain_ids.get(domain)
        if i is None:
            i = len(self._domains)
            self._domain_ids[domain] = i
            self._domains.append(domain)
        return i

    def _cmp_id(self, cmp_key: Optional[str]) -> int:
        i = self._cmp_ids.get(cmp_key)
        if i is None:
            i = len(self._cmp_keys)
            self._cmp_ids[cmp_key] = i
            self._cmp_keys.append(cmp_key)
        return i

    def intern_tables(
        self, domains: Iterable[str], cmp_keys: Iterable[Optional[str]]
    ) -> Tuple[List[int], List[int]]:
        """Intern another store's tables into this one, in their order;
        returns the domain and CMP id translation lists."""
        return (
            [self._domain_id(d) for d in domains],
            [self._cmp_id(k) for k in cmp_keys],
        )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append_batch(
        self,
        domains: Sequence[str],
        date_ordinals: Sequence[int],
        cmp_keys: Sequence[Optional[str]],
        vantage_ids: Sequence[int],
        n_requests: Sequence[int],
    ) -> None:
        """Append one row per crawl, in argument order.

        The columns are extended with one C-level call each; each crawl
        counts as one capture and adds its requests to the total.
        """
        domain_id = self._domain_id
        cmp_id = self._cmp_id
        self._col_domain.extend([domain_id(d) for d in domains])
        self._col_date.extend(date_ordinals)
        self._col_cmp.extend([cmp_id(k) for k in cmp_keys])
        self._col_vantage.extend(vantage_ids)
        self.total_requests += sum(n_requests)
        self.n_captures += len(domains)

    def merge(self, other: "CaptureStore") -> None:
        """Fold *other* (e.g. a shard segment) into this store.

        Pure concatenation: this store's rows first, then *other*'s in
        their original order, with *other*'s interned ids remapped
        through a translation table built once per merge. Merging shard
        segments in shard order therefore reproduces the serial
        insertion order exactly.
        """
        dom_map, cmp_map = self.intern_tables(other._domains, other._cmp_keys)
        self._col_domain.extend(remapped(other._col_domain, dom_map))
        self._col_date.extend(other._col_date)
        self._col_cmp.extend(remapped(other._col_cmp, cmp_map))
        self._col_vantage.extend(other._col_vantage)
        self.total_requests += other.total_requests
        self.n_captures += other.n_captures

    # ------------------------------------------------------------------
    # Raw access (persistence and digests)
    # ------------------------------------------------------------------
    def tables(self) -> Tuple[List[str], List[Optional[str]]]:
        """The domain and CMP interning tables (do not mutate)."""
        return self._domains, self._cmp_keys

    def columns(self) -> Columns:
        """The live domain, date, CMP and vantage id columns (the segment
        loader fills a fresh store's columns in place)."""
        return (
            self._col_domain, self._col_date, self._col_cmp,
            self._col_vantage,
        )

    def digest_parts(self) -> Iterator[bytes]:
        """:func:`digest_stream` of this store's tables and columns."""
        return digest_stream(
            self._domains,
            self._cmp_keys,
            ([column] for column in self.columns()),
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return len(self._col_domain)

    def iter_segment_stores(self) -> Iterator["CaptureStore"]:
        """The store as segments in row order: itself (a spilling store
        yields each of its segments)."""
        yield self

    @property
    def unique_domains(self) -> int:
        return len(self._domains)

    def iter_rows(self) -> Iterator[Row]:
        """Every row as ``(domain, date_ordinal, cmp_key, vantage_id)``,
        in insertion order."""
        domains = self._domains
        cmps = self._cmp_keys
        return (
            (domains[d], o, cmps[c], v)
            for d, o, c, v in zip(*self.columns())
        )

    def rows_since(self, cursor: int) -> List[Row]:
        """Decoded rows appended at index >= *cursor*, in insertion order.

        The streaming engine's ingestion tail: after each per-day crawl
        it drains ``rows_since(previous n_rows)`` into its incremental
        accumulators and advances the cursor, so each row is decoded
        exactly once over the life of a follow run -- :meth:`iter_rows`
        restricted to the suffix.
        """
        if cursor < 0:
            raise ValueError("cursor must be >= 0")
        domains = self._domains
        cmps = self._cmp_keys
        return [
            (domains[d], o, cmps[c], v)
            for d, o, c, v in zip(
                *(column[cursor:] for column in self.columns())
            )
        ]

    def domain_day_rows(
        self, restrict_to: Optional[Iterable[str]] = None
    ) -> DayRows:
        """Per-domain ``(date_ordinal, cmp_key)`` pairs, no objects.

        The adoption estimator's whole input. Domains appear in
        first-capture order and each domain's rows keep insertion order,
        so :meth:`repro.core.adoption.AdoptionSeries.from_columnar` sees
        captures in the same sequence under every write path (the
        per-day state vote and its ``Counter`` tie-breaking depend on
        it). With *restrict_to*, rows of other domains are skipped
        inside the scan.
        """
        cmps = self._cmp_keys
        rows: Iterator[Tuple[int, int, int]] = zip(
            self._col_domain, self._col_date, self._col_cmp
        )
        if restrict_to is not None:
            ids = self._domain_ids
            wanted = {ids[d] for d in restrict_to if d in ids}
            rows = compress(rows, map(wanted.__contains__, self._col_domain))
        by_id: Dict[int, List[Tuple[int, Optional[str]]]] = {}
        for d, o, c in rows:
            bucket = by_id.get(d)
            if bucket is None:
                by_id[d] = [(o, cmps[c])]
            else:
                bucket.append((o, cmps[c]))
        domains = self._domains
        return {domains[d]: rows for d, rows in by_id.items()}


# ----------------------------------------------------------------------
# Keyed merge (partitioned runs)
# ----------------------------------------------------------------------
class _Run:
    """One store of a keyed merge: the unconsumed rows of its current
    segment, decoded to value columns, and their keys."""

    def __init__(self, segments: Iterable[CaptureStore], keys: np.ndarray):
        self._segments = iter(segments)
        self._keys = keys
        #: Key index of the next segment's first row.
        self._next = 0
        #: Requests of the segments decoded since the last :meth:`take`.
        self.requests = 0
        self.keys: Optional[np.ndarray] = None
        self._columns: Tuple[np.ndarray, ...] = ()
        self._load()

    def _load(self) -> None:
        """Decode the next non-empty segment (``keys`` is ``None`` once
        every segment is consumed)."""
        self.keys = None
        for segment in self._segments:
            self.requests += segment.total_requests
            n = segment.n_rows
            if not n:
                continue
            ids = [np.frombuffer(c, dtype=c.typecode) for c in segment.columns()]
            domains, cmp_keys = segment.tables()
            self._columns = (
                np.asarray(domains, dtype=object)[ids[0]],
                ids[1],
                np.asarray(cmp_keys, dtype=object)[ids[2]],
                ids[3],
            )
            self.keys = self._keys[self._next:self._next + n]
            self._next += n
            return

    def take(self, cut: int) -> Tuple[np.ndarray, ...]:
        """Pop the rows keyed at most *cut*: ``(keys, domains, date
        ordinals, CMP keys, vantage ids)``."""
        n = int(np.searchsorted(self.keys, cut, side="right"))
        taken = (self.keys[:n],) + tuple(c[:n] for c in self._columns)
        self.keys = self.keys[n:]
        self._columns = tuple(c[n:] for c in self._columns)
        if not len(self.keys):
            self._load()
        return taken


def merge_keyed(
    parts: Sequence[Tuple[Iterable[CaptureStore], np.ndarray]],
    out,
    batch_rows: Optional[int] = None,
) -> None:
    """Merge stores into *out* (plain or spilling) in ascending key
    order.

    Each part is a store, given as its segments in row order, and one
    int64 key per row: ascending within a part, unique across parts.
    One segment per part is decoded at a time. Every round emits the
    rows keyed up to the smallest last key of the decoded segments, so
    it uses up at least one segment; its rows reach *out* sorted, in
    batches of at most *batch_rows*, each appended to a fresh store
    (interning in first-appearance order) and merged in. *out*'s tables
    therefore come out exactly as if every row had been appended in key
    order. Request totals travel with the batch that decoded their
    segment.
    """
    runs = [_Run(segments, np.asarray(keys)) for segments, keys in parts]
    runs = [run for run in runs if run.keys is not None]
    while runs:
        cut = min(int(run.keys[-1]) for run in runs)
        taken = [run.take(cut) for run in runs]
        keys, domains, dates, cmp_keys, vantages = (
            np.concatenate(column) for column in zip(*taken)
        )
        order = np.argsort(keys, kind="stable")
        step = batch_rows or len(order)
        for lo in range(0, len(order), step):
            index = order[lo:lo + step]
            piece = CaptureStore()
            piece.append_batch(
                domains[index].tolist(), dates[index].tolist(),
                cmp_keys[index].tolist(), vantages[index].tolist(), (),
            )
            if lo + step >= len(order):
                piece.total_requests = sum(run.requests for run in runs)
                for run in runs:
                    run.requests = 0
            out.merge(piece)
        runs = [run for run in runs if run.keys is not None]
