"""Persistence for capture stores.

The real platform keeps 161M captures in a central database queried via
a custom API (Section 3.2). For a library, the equivalent is a compact
on-disk format: observations are serialized as JSON Lines -- one record
per capture with the fields the longitudinal analyses consume -- so a
multi-hour crawl can be run once and re-analyzed many times.

Two properties matter for trustworthy accounting:

* **Crash safety.** Files are written via :func:`repro.ioutil.atomic_write`
  (temp file + ``os.replace``), so a writer killed mid-run can never
  leave a truncated-but-parseable JSONL behind -- readers see either the
  old complete file or the new complete file.
* **Exact round-trips.** ``save_store`` prepends a metadata header
  recording the store's counters (``n_captures`` includes failed
  captures, which observation counting alone would understate) and the
  expected observation count, so ``load_store`` restores failure-rate
  accounting exactly and detects externally truncated files. Headerless
  files from older versions still load, with counters derived the
  legacy way.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import io
import json
from pathlib import Path
from typing import IO, Dict, Iterable, Iterator, Optional, Tuple, Union

from repro.crawler.capture import Observation, Vantage
from repro.crawler.columnar import CaptureStore
from repro.ioutil import atomic_write

PathLike = Union[str, Path]

#: Identifies a metadata header record (first line of a store file).
STORE_FORMAT = "repro.capture-store"
#: Bump when the on-disk schema changes incompatibly.
STORE_VERSION = 2


class StorageError(ValueError):
    """Raised on malformed observation files."""


def observation_to_record(obs: Observation) -> dict:
    """One observation as a JSON-serializable dict."""
    return {
        "domain": obs.domain,
        "date": obs.date.isoformat(),
        "cmp": obs.cmp_key,
        "region": obs.vantage.region,
        "address_space": obs.vantage.address_space,
    }


def observation_from_record(record: dict) -> Observation:
    try:
        return Observation(
            domain=record["domain"],
            date=dt.date.fromisoformat(record["date"]),
            cmp_key=record["cmp"],
            vantage=Vantage(
                region=record["region"],
                address_space=record["address_space"],
            ),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise StorageError(f"malformed observation record: {exc}") from exc


def store_header(store: CaptureStore) -> dict:
    """The metadata record persisted as the first line of a store file."""
    return {
        "format": STORE_FORMAT,
        "version": STORE_VERSION,
        "n_captures": store.n_captures,
        "total_requests": store.total_requests,
        "n_observations": len(store.observations),
    }


def is_store_header(record: dict) -> bool:
    return isinstance(record, dict) and record.get("format") == STORE_FORMAT


def store_digest(store: CaptureStore) -> str:
    """Content digest (hex SHA-256) of a store's persisted identity.

    Covers exactly what :func:`save_store` writes -- the counter header
    and every observation record in order -- so two stores share a
    digest iff their on-disk serializations are byte-identical. This is
    how derived-analysis cache fingerprints (:mod:`repro.cache`) name
    the store they were computed from without trusting file paths.
    """
    hasher = hashlib.sha256()
    hasher.update(json.dumps(store_header(store), sort_keys=True).encode())
    # Hash the interned tables and raw id columns instead of
    # re-serializing every row: the columnar encoding is canonical
    # (see CaptureStore.digest_parts), so digest equality is unchanged
    # while the cost drops from one json.dumps per observation to a few
    # memory-speed hash updates per store.
    for chunk in store.digest_parts():
        hasher.update(b"\n")
        hasher.update(chunk)
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# Record-level helpers (shared by the observation and store loaders)
# ----------------------------------------------------------------------
def _source_label(source: Union[PathLike, IO[str]]) -> str:
    if isinstance(source, (str, Path)):
        return str(source)
    name = getattr(source, "name", None)
    return name if isinstance(name, str) else "<stream>"


def _iter_records(
    handle: IO[str], label: str
) -> Iterator[Tuple[int, dict]]:
    """Yield ``(line_no, parsed_record)``, labeling parse errors with the
    source filename so multi-file loads stay debuggable."""
    for line_no, line in enumerate(handle, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            yield line_no, json.loads(line)
        except json.JSONDecodeError as exc:
            raise StorageError(
                f"{label}: invalid JSON on line {line_no}: {exc}"
            ) from exc


def _observation_at(record: dict, label: str, line_no: int) -> Observation:
    try:
        return observation_from_record(record)
    except StorageError as exc:
        raise StorageError(f"{label}: line {line_no}: {exc}") from exc


def dump_observations(
    observations: Iterable[Observation], destination: Union[PathLike, IO[str]]
) -> int:
    """Write observations as JSON Lines; returns the record count.

    Path destinations are written atomically: the data lands in a
    temporary sibling file that replaces *destination* only once every
    record has been flushed, so a crash mid-write leaves any previous
    file intact instead of a silently truncated one.
    """
    if isinstance(destination, (str, Path)):
        with atomic_write(destination) as handle:
            return _write_observations(observations, handle)
    return _write_observations(observations, destination)


def _write_observations(
    observations: Iterable[Observation], handle: IO[str]
) -> int:
    count = 0
    for obs in observations:
        handle.write(json.dumps(observation_to_record(obs)))
        handle.write("\n")
        count += 1
    return count


def load_observations(
    source: Union[PathLike, IO[str]]
) -> Iterator[Observation]:
    """Stream observations back from a JSON Lines file.

    A store metadata header on the first line is skipped, so plain
    observation files and full store files both load.
    """
    label = _source_label(source)
    close = False
    if isinstance(source, (str, Path)):
        handle: IO[str] = open(source, "r", encoding="utf-8")
        close = True
    else:
        handle = source
    try:
        first = True
        for line_no, record in _iter_records(handle, label):
            if first:
                first = False
                if is_store_header(record):
                    continue
            yield _observation_at(record, label, line_no)
    finally:
        if close:
            handle.close()


def save_store(store: CaptureStore, path: PathLike) -> int:
    """Persist a capture store to *path*; returns the observation count.

    Atomic (crash-safe) and exact: a metadata header preserves the
    capture/request counters so failed-capture accounting survives the
    round-trip.
    """
    with atomic_write(path) as handle:
        handle.write(json.dumps(store_header(store), sort_keys=True))
        handle.write("\n")
        count = _write_observations(store.observations, handle)
    return count


def load_store(
    path: PathLike, *, context: Optional[str] = None
) -> CaptureStore:
    """Rebuild a (observation-only) capture store from *path*.

    Full captures are not persisted -- like the real platform, which
    stores no page contents "due to storage constraints". With a
    metadata header the original counters are restored verbatim and the
    observation count is checked against the header's promise (catching
    truncated copies); headerless legacy files fall back to counting one
    capture per observation.

    *context* prefixes every error message -- pass the work unit being
    restored (e.g. ``"shard 3"``) so a corrupt file in a multi-file
    resume names both the unit and the file, not just one of them.
    """
    label = f"{context}: {path}" if context else str(path)
    store = CaptureStore()
    header: Optional[dict] = None
    first = True
    with open(path, "r", encoding="utf-8") as handle:
        records = _iter_records(handle, label)
        for line_no, record in records:
            # Header detection looks at the first record only; probing
            # ``store.observations`` per line (as an earlier version
            # did) materializes the object view each time and turns the
            # load quadratic.
            if first:
                first = False
                if is_store_header(record):
                    header = _validated_header(record, label)
                    continue
            store.add_observation(_observation_at(record, label, line_no))
            store.n_captures += 1
    if header is not None:
        expected = header.get("n_observations")
        if isinstance(expected, int) and expected != store.n_rows:
            raise StorageError(
                f"{label}: truncated store: header promises {expected} "
                f"observations, found {store.n_rows}"
            )
        n_captures = header.get("n_captures")
        if isinstance(n_captures, int):
            store.n_captures = n_captures
        total_requests = header.get("total_requests")
        if isinstance(total_requests, int):
            store.total_requests = total_requests
    return store


def _validated_header(record: dict, label: str) -> dict:
    version = record.get("version")
    if not isinstance(version, int) or version > STORE_VERSION:
        raise StorageError(
            f"{label}: unsupported store format version {version!r} "
            f"(this build reads <= {STORE_VERSION})"
        )
    return record


# ----------------------------------------------------------------------
# Shard checkpoints (crash/resume persistence for chaos runs)
# ----------------------------------------------------------------------
def shard_checkpoint_path(directory: PathLike, shard_id: int) -> Path:
    """Where shard *shard_id*'s checkpoint store lives under *directory*."""
    return Path(directory) / f"shard-{shard_id:04d}.jsonl"


def save_shard_checkpoint(
    store: CaptureStore, directory: PathLike, shard_id: int
) -> Path:
    """Persist a shard's partial store as its checkpoint file (atomic)."""
    path = shard_checkpoint_path(directory, shard_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_store(store, path)
    return path


def load_shard_checkpoint(directory: PathLike, shard_id: int) -> CaptureStore:
    """Restore one shard's checkpoint store.

    Errors name both the shard and the file: a resume reads many
    checkpoint files, and "invalid JSON on line 7" alone does not say
    which shard's progress is lost.
    """
    path = shard_checkpoint_path(directory, shard_id)
    return load_store(path, context=f"shard {shard_id}")


def resume_from_checkpoints(directory: PathLike) -> Dict[int, CaptureStore]:
    """Load every shard checkpoint under *directory*, keyed by shard id.

    The scan is sorted so resume order (and any error encountered) is
    deterministic across filesystems.
    """
    stores: Dict[int, CaptureStore] = {}
    for path in sorted(Path(directory).glob("shard-*.jsonl")):
        stem = path.stem[len("shard-"):]
        try:
            shard_id = int(stem)
        except ValueError:
            raise StorageError(
                f"{path}: not a shard checkpoint (expected "
                f"shard-<number>.jsonl)"
            ) from None
        stores[shard_id] = load_store(path, context=f"shard {shard_id}")
    return stores


def dumps_observations(observations: Iterable[Observation]) -> str:
    """Serialize to an in-memory JSONL string."""
    buffer = io.StringIO()
    dump_observations(observations, buffer)
    return buffer.getvalue()


def loads_observations(text: str) -> Iterator[Observation]:
    """Deserialize from an in-memory JSONL string."""
    return load_observations(io.StringIO(text))
