"""Persistence for capture stores.

The paper's platform stores no page contents "due to storage
constraints" (Section 3.2), and neither do we: a store file holds the
:class:`CaptureStore`'s own columns. A *segment* is one such file -- a
spill segment or a cache shard:

* one JSON header line: ``{"format": "repro.capture-store", "version":
  3, "n_rows", "n_captures", "total_requests", "domains", "cmp_keys"}``
  (``n_captures`` counts failed captures too) with the interning tables;
* then the domain, date, CMP and vantage id columns verbatim as
  little-endian ``array.tobytes()`` (typecodes ``i``, ``i``, ``b``,
  ``b``): 10 bytes per row.

Segments are written through :func:`repro.ioutil.atomic_write`, so a
killed writer never leaves a truncated file. :func:`load_store` checks
the header, the body length, the tables and that every id lies inside
its table; any failure is a :class:`StorageError` naming the file (and
the caller's context), so a cache treats a bad entry as a miss.

JSON Lines survive only as the ``repro crawl --out`` export
(:func:`write_export` / :func:`read_export`): a version-2 header, then
one ``{"domain", "date", "cmp", "region", "address_space"}`` record per
row. :func:`store_digest` hashes that header, the tables and the
columns, so no digest depends on the file format.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import os
import sys
from itertools import islice
from pathlib import Path
from typing import IO, Iterator, Optional, Tuple, Union

import numpy as np

from repro.crawler.columnar import (
    VANTAGE_TABLE,
    CaptureStore,
    le_bytes,
    vantage_id,
)
from repro.ioutil import atomic_write

PathLike = Union[str, Path]

#: Identifies a capture-store header (segment files and the export).
STORE_FORMAT = "repro.capture-store"
#: Version of the segment format (header line + raw id columns).
SEGMENT_VERSION = 3
#: Version of the JSONL export, and of the identity header every
#: digest starts with. Older builds wrote stores in this format too.
EXPORT_VERSION = 2
#: File suffix of segment files; never ``.jsonl``, so an export is not
#: mistaken for a segment.
SEGMENT_SUFFIX = ".seg"
#: Body bytes per row: two 4-byte and two 1-byte id columns.
ROW_BYTES = sum(column.itemsize for column in CaptureStore().columns())

#: Rows per ``append_batch`` call when reading an export.
_EXPORT_BATCH = 65_536


class StorageError(ValueError):
    """Raised on malformed store files."""


def segment_path(directory: PathLike, index: int) -> Path:
    """Where segment number *index* lives under *directory*."""
    return Path(directory) / f"segment-{index:04d}{SEGMENT_SUFFIX}"


def export_header(store) -> dict:
    """A store's identity: the export's header record, which is also
    the first thing :func:`store_digest` hashes."""
    return {
        "format": STORE_FORMAT,
        "version": EXPORT_VERSION,
        "n_captures": store.n_captures,
        "total_requests": store.total_requests,
        "n_observations": store.n_rows,
    }


def store_digest(store) -> str:
    """Content digest (hex SHA-256) of a store's rows and counters.

    Hashes the identity header, then the interning tables and each
    whole id column (``store.digest_parts()``; the columnar encoding is
    canonical, see :func:`repro.crawler.columnar.digest_stream`). Two
    stores share a digest iff their exports are byte-identical, however
    they were written, sharded or spilled. This is how derived-analysis
    cache fingerprints (:mod:`repro.cache`) name the store they were
    computed from without trusting file paths.
    """
    hasher = hashlib.sha256()
    hasher.update(json.dumps(export_header(store), sort_keys=True).encode())
    for chunk in store.digest_parts():
        hasher.update(chunk)
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# Segments
# ----------------------------------------------------------------------
def save_store(store: CaptureStore, path: PathLike) -> int:
    """Write *store* to *path* as one segment; returns the row count."""
    domains, cmp_keys = store.tables()
    header = {
        "format": STORE_FORMAT,
        "version": SEGMENT_VERSION,
        "n_rows": store.n_rows,
        "n_captures": store.n_captures,
        "total_requests": store.total_requests,
        "domains": domains,
        "cmp_keys": cmp_keys,
    }
    with atomic_write(path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        handle.write(b"\n")
        for column in store.columns():
            handle.write(le_bytes(column))
    return store.n_rows


def read_header(path: PathLike, *, context: Optional[str] = None) -> dict:
    """The checked header of the segment at *path*, without its body
    (whose ids only :func:`load_store` reads and checks)."""
    with open(path, "rb") as handle:
        return _read_header(handle, _label(path, context))


def load_store(
    path: PathLike, *, context: Optional[str] = None
) -> CaptureStore:
    """Rebuild the capture store saved at *path*.

    Full captures are not persisted -- like the real platform, which
    stores no page contents. The counters come back verbatim.

    *context* prefixes every error message -- pass the unit being
    restored (e.g. ``"spill segment"``) so a corrupt file names both
    the unit and the file.
    """
    label = _label(path, context)
    with open(path, "rb") as handle:
        header = _read_header(handle, label)
        body = memoryview(handle.read())
    store = CaptureStore()
    tables = (header["domains"], header["cmp_keys"])
    store.intern_tables(*tables)
    if store.tables() != tables:
        raise StorageError(
            f"{label}: interning tables hold duplicates or do not start "
            "with the no-CMP entry"
        )
    offset = 0
    for column in store.columns():
        end = offset + column.itemsize * header["n_rows"]
        column.frombytes(body[offset:end])
        offset = end
        if sys.byteorder != "little":  # pragma: no cover - x86/arm are LE
            column.byteswap()
    domain_col, _dates, cmp_col, vantage_col = store.columns()
    for column, size, what in (
        (domain_col, len(tables[0]), "domain"),
        (cmp_col, len(tables[1]), "CMP"),
        (vantage_col, len(VANTAGE_TABLE), "vantage"),
    ):
        ids = np.frombuffer(column, dtype=column.typecode)
        if len(ids) and (ids.min() < 0 or ids.max() >= size):
            raise StorageError(
                f"{label}: {what} id outside its table of {size}"
            )
    store.n_captures = header["n_captures"]
    store.total_requests = header["total_requests"]
    return store


def _label(path: PathLike, context: Optional[str]) -> str:
    return f"{context}: {path}" if context else str(path)


def _read_header(handle: IO[bytes], label: str) -> dict:
    """Parse and check the header line and the body length the header
    promises; leaves *handle* at the body."""
    try:
        header = json.loads(handle.readline())
    except ValueError as exc:  # JSON and UTF-8 decoding errors
        raise StorageError(f"{label}: unreadable header: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != STORE_FORMAT:
        raise StorageError(f"{label}: not a capture-store segment")
    version = header.get("version")
    if version == EXPORT_VERSION:
        raise StorageError(
            f"{label}: JSON Lines store (version {EXPORT_VERSION}) written "
            f"by an older build; this build reads version "
            f"{SEGMENT_VERSION} segments -- delete it and recompute"
        )
    if version != SEGMENT_VERSION:
        raise StorageError(
            f"{label}: unsupported segment version {version!r} "
            f"(this build reads version {SEGMENT_VERSION})"
        )
    for field in ("n_rows", "n_captures", "total_requests"):
        value = header.get(field)
        if type(value) is not int or value < 0:
            raise StorageError(
                f"{label}: header field {field!r} is {value!r}, "
                "expected a non-negative integer"
            )
    domains = header.get("domains")
    cmp_keys = header.get("cmp_keys")
    if not (
        isinstance(domains, list)
        and isinstance(cmp_keys, list)
        and set(map(type, domains)) <= {str}
        and set(map(type, cmp_keys)) <= {str, type(None)}
    ):
        raise StorageError(f"{label}: malformed interning tables")
    size = os.fstat(handle.fileno()).st_size - handle.tell()
    if size != ROW_BYTES * header["n_rows"]:
        raise StorageError(
            f"{label}: body holds {size} bytes, header promises "
            f"{header['n_rows']} rows ({ROW_BYTES * header['n_rows']} bytes)"
        )
    return header


# ----------------------------------------------------------------------
# JSON Lines export (the CLI's interchange format)
# ----------------------------------------------------------------------
def write_export(
    store, destination: Union[PathLike, IO[str]]
) -> int:
    """Write *store* as the JSONL export; returns the record count.

    Rows stream from ``store.iter_rows()`` (one spilled segment resident
    at a time). Path destinations are written atomically, so a crash
    mid-write leaves any previous file intact.
    """
    if isinstance(destination, (str, Path)):
        with atomic_write(destination) as handle:
            return write_export(store, handle)
    destination.write(json.dumps(export_header(store), sort_keys=True) + "\n")
    dates = {}
    for domain, ordinal, cmp_key, vid in store.iter_rows():
        date = dates.get(ordinal) or dates.setdefault(
            ordinal, dt.date.fromordinal(ordinal).isoformat()
        )
        vantage = VANTAGE_TABLE[vid]
        record = {
            "domain": domain,
            "date": date,
            "cmp": cmp_key,
            "region": vantage.region,
            "address_space": vantage.address_space,
        }
        destination.write(json.dumps(record) + "\n")
    return store.n_rows


def read_export(source: Union[PathLike, IO[str]]) -> CaptureStore:
    """Load a JSONL export back into a store, through ``append_batch``.

    The header is required and its counters are restored verbatim; the
    record count must match its promise (catching truncated copies).
    Bad JSON or a malformed record names the file and the line.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return read_export(handle)
    name = getattr(source, "name", None)
    label = name if isinstance(name, str) else "<stream>"
    records = _records(source, label)
    header = _export_header(next(records, (0, None))[1], label)
    rows = (_export_row(record, label, line_no) for line_no, record in records)
    store = CaptureStore()
    for chunk in iter(lambda: list(islice(rows, _EXPORT_BATCH)), []):
        store.append_batch(*zip(*chunk), ())
    if store.n_rows != header["n_observations"]:
        raise StorageError(
            f"{label}: truncated store: header promises "
            f"{header['n_observations']} observations, found {store.n_rows}"
        )
    store.n_captures = header["n_captures"]
    store.total_requests = header["total_requests"]
    return store


def _records(handle: IO[str], label: str) -> Iterator[Tuple[int, object]]:
    """``(line_no, parsed record)`` per non-blank line."""
    try:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise StorageError(
                    f"{label}: invalid JSON on line {line_no}: {exc}"
                ) from None
            yield line_no, record
    except UnicodeDecodeError as exc:
        raise StorageError(f"{label}: not a UTF-8 text file: {exc}") from None


def _export_header(record: object, label: str) -> dict:
    if not isinstance(record, dict) or record.get("format") != STORE_FORMAT:
        raise StorageError(
            f"{label}: the first record is not an export header; files "
            "without one are not read"
        )
    if record.get("version") != EXPORT_VERSION:
        raise StorageError(
            f"{label}: unsupported export version {record.get('version')!r} "
            f"(this build reads version {EXPORT_VERSION})"
        )
    for field in ("n_captures", "total_requests", "n_observations"):
        if type(record.get(field)) is not int:
            raise StorageError(f"{label}: header field {field!r} missing")
    return record


def _export_row(
    record, label: str, line_no: int
) -> Tuple[str, int, Optional[str], int]:
    try:
        domain = record["domain"]
        cmp_key = record["cmp"]
        ordinal = dt.date.fromisoformat(record["date"]).toordinal()
        vid = vantage_id(record["region"], record["address_space"])
        if not isinstance(domain, str) or not (
            cmp_key is None or isinstance(cmp_key, str)
        ):
            raise TypeError("domain and cmp must be strings")
    except (KeyError, ValueError, TypeError) as exc:
        raise StorageError(
            f"{label}: line {line_no}: malformed observation record: {exc!r}"
        ) from None
    return domain, ordinal, cmp_key, vid
