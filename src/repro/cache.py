"""Persistent content-addressed artifact cache with warm-start reruns.

The paper's pipeline re-derives every figure from 161M crawls; this
module makes repeat runs of the reproduction *warm starts* instead of
full recomputations. Two artifact classes are cached:

* **Crawl-phase stores** -- the social platform's capture store,
  persisted as one or more segment files of :mod:`repro.crawler.storage`
  (a JSON header, then the raw id columns; crash-safe). The manifest
  lists each segment's row count and SHA-256, checked before a load
  merges the segment;
* **Derived analyses** -- :class:`~repro.core.adoption.AdoptionSeries`,
  :class:`~repro.core.vantage.VantageTable`,
  :class:`~repro.core.marketshare.MarketShareCurve` and the aggregate
  :class:`~repro.toplist.tranco.TrancoList` order (the ``toplist``
  stage), serialized as a single header + payload JSON artifact. The
  header records the SHA-256 of the payload line, checked before the
  payload is parsed.

:class:`~repro.core.pipeline.Study` is the cache's one client: it
decides what is looked up, under which fingerprint, and what a miss
computes. The crawlers take no cache. The streaming engine
(:mod:`repro.stream`) also reads and writes its own checkpoints here.

Correctness model
-----------------

Every entry is keyed by a :class:`Fingerprint` that digests *everything
that can change the result*: the :class:`~repro.core.pipeline.StudyConfig`
scale knobs, the world seed, the fault-schedule digest, the CMP registry
version, and a per-stage code-version constant (:data:`CODE_VERSIONS`,
bumped whenever a stage's logic changes).  Deliberately **excluded** are
the execution knobs that the determinism contract guarantees cannot
change results: ``parallelism`` and the cache location itself -- an
entry written by a 16-worker process run serves a serial rerun
bit-identically.

Invalidation is purely fingerprint-based: an entry whose stored
fingerprint digest disagrees with the requested one is evicted and
recomputed. File mtimes are never consulted (the determinism linter's
DET002 wall-clock rule stays clean).

Cache *hits must be bit-identical to a cold run*; the chaos-style
identity suite in ``tests/test_cache.py`` and the cache-identity step of
``scripts/verify.sh`` enforce byte-equal exports between cold and warm
runs.  Misses populate atomically: artifact files land first (each via
:func:`repro.ioutil.atomic_write`), and the ``entry.json`` manifest --
the commit point a lookup requires -- is written last, so a writer
killed mid-populate leaves a harmless partial directory, never a
readable-but-wrong entry.  Corrupt or truncated entries degrade to a
cold compute; only a fingerprint *schema* bump (entries written by an
incompatible build) raises, naming the offending entry so the operator
knows to clear the directory.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.crawler.spill import SpillingCaptureStore, Store, new_store
from repro.crawler.storage import (
    StorageError,
    load_store,
    read_header,
    save_store,
    segment_path,
)
from repro.ioutil import PathLike, atomic_write
from repro.obs import Observability, resolve_obs

#: Identifies a cache entry manifest (``entry.json``).
CACHE_FORMAT = "repro.artifact-cache"

#: Version of the *fingerprint schema* -- the set and meaning of the
#: fields a fingerprint digests. Bump whenever fields are added, removed
#: or reinterpreted: entries written under another schema cannot be
#: trusted (their digests are not comparable) and are rejected with a
#: :class:`CacheSchemaError` instead of silently recomputed, so stale
#: directories get cleaned up rather than accumulating dead entries.
SCHEMA_VERSION = 1

#: Per-stage code-version constants. Bump a stage's entry whenever its
#: result-affecting logic changes; every fingerprint for that stage then
#: changes, invalidating cached artifacts computed by the old code.
CODE_VERSIONS: Dict[str, int] = {
    # v2: the columnar crawl path re-derived the visit/event randomness
    # (keyed counter streams + the structural compact visit); every
    # crawl-derived artifact changed value, so all stages bump together.
    # social-crawl v3: store entries are binary segments, no longer
    # JSON Lines; older entries are evicted by fingerprint instead of
    # being parsed.
    # social-crawl v4, vantage v3: fault affliction, crash points and
    # retry jitter are repro.det keyed draws, so a faulted run's rows
    # come from other keys than before.
    "social-crawl": 4,
    "adoption": 2,
    "vantage": 3,
    "marketshare": 2,
    # Streaming engine checkpoints (repro.stream): engine state (queue
    # cooldowns, watermark, capture counter) saved beside a store entry
    # written under the batch "social-crawl" fingerprint for the same
    # prefix window, so batch and follow runs share crawl artifacts.
    "stream-checkpoint": 1,
    # The aggregate Tranco order of the study's world.
    "toplist": 1,
}

#: Static stage -> module-closure map: the modules whose code
#: determines each stage's output. ``repro.lint`` phase 2 digests the
#: closure (normalized ASTs -- docstrings/comments/positions stripped)
#: and compares it against the committed ``cache-versions.lock.json``:
#: a digest change while the stage's :data:`CODE_VERSIONS` entry stays
#: put fails CI with CACHE001 (the forgotten-bump hazard); after a bump
#: or a reviewed result-neutral refactor, re-record the lock with
#: ``python -m repro.lint --update-lock`` (CACHE002 guards the record).
#: Values must stay literal lists of module names -- the analyzer reads
#: this declaration statically, without importing the package.
STAGE_CLOSURES: Dict[str, List[str]] = {
    "social-crawl": [
        "repro.cmps.base",
        "repro.cmps.cookiebot",
        "repro.cmps.crownpeak",
        "repro.cmps.liveramp",
        "repro.cmps.onetrust",
        "repro.cmps.quantcast",
        "repro.cmps.trustarc",
        "repro.core.pipeline",
        "repro.crawler.browser",
        "repro.crawler.capture",
        "repro.crawler.columnar",
        "repro.crawler.executor",
        "repro.crawler.platform",
        "repro.crawler.queue",
        "repro.crawler.seeds",
        "repro.crawler.spill",
        "repro.crawler.storage",
        "repro.datasets",
        "repro.det",
        "repro.detect.engine",
        "repro.detect.fingerprints",
        "repro.faults.inject",
        "repro.faults.retry",
        "repro.faults.schedule",
        "repro.memo",
        "repro.net.psl",
        "repro.net.url",
        "repro.valueclass",
        "repro.web.adoption",
        "repro.web.serving",
        "repro.web.website",
        "repro.web.worldgen",
    ],
    "adoption": [
        "repro.core.adoption",
        "repro.core.pipeline",
        "repro.crawler.columnar",
    ],
    "vantage": [
        "repro.cmps.base",
        "repro.cmps.cookiebot",
        "repro.cmps.crownpeak",
        "repro.cmps.liveramp",
        "repro.cmps.onetrust",
        "repro.cmps.quantcast",
        "repro.cmps.trustarc",
        "repro.core.pipeline",
        "repro.core.vantage",
        "repro.crawler.browser",
        "repro.crawler.platform",
        "repro.crawler.toplist_crawl",
        "repro.datasets",
        "repro.det",
        "repro.detect.engine",
        "repro.detect.fingerprints",
        "repro.faults.inject",
        "repro.faults.retry",
        "repro.faults.schedule",
        "repro.memo",
        "repro.net.probe",
        "repro.net.psl",
        "repro.net.url",
        "repro.toplist.providers",
        "repro.toplist.tranco",
        "repro.valueclass",
        "repro.web.adoption",
        "repro.web.serving",
        "repro.web.website",
        "repro.web.worldgen",
    ],
    "marketshare": [
        "repro.cmps.base",
        "repro.core.marketshare",
        "repro.core.pipeline",
        "repro.datasets",
        "repro.det",
        "repro.toplist.providers",
        "repro.toplist.tranco",
        "repro.web.adoption",
        "repro.web.worldgen",
    ],
    "stream-checkpoint": [
        "repro.core.pipeline",
        "repro.stream.engine",
        "repro.stream.state",
    ],
    "toplist": [
        "repro.core.pipeline",
        "repro.det",
        "repro.toplist.providers",
        "repro.toplist.tranco",
        "repro.web.worldgen",
    ],
}

#: The cache's obs counter family. Registered in a loop (names reach
#: ``metrics.counter`` through a variable), which is why ``repro/cache.py``
#: is on the OBS001 allowlist -- the names stay grep-able literals here.
_CACHE_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("cache_hits_total", "cache lookups served from a valid entry"),
    ("cache_misses_total", "cache lookups finding no usable entry"),
    (
        "cache_invalidations_total",
        "stale entries evicted on fingerprint mismatch",
    ),
)

_SLOT_SANITIZE = re.compile(r"[^a-z0-9._-]+")


class CacheError(ValueError):
    """Raised on malformed cache state that cannot be recovered from."""


class CacheSchemaError(CacheError):
    """An entry was written under an incompatible fingerprint schema."""


def _sanitize(part: str) -> str:
    return _SLOT_SANITIZE.sub("-", part.lower()).strip("-")


def digest_text(text: str) -> str:
    """SHA-256 hexdigest of *text* (UTF-8)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_domains(domains) -> str:
    """Content digest of an ordered domain list (toplist identity)."""
    return digest_text("\n".join(domains))


class Fingerprint:
    """Digest of everything that can change one stage's result.

    A fingerprint has two parts:

    * the **slot** -- the stage name plus the artifact's *identity* key
      (e.g. the crawl window, the analysis date), which names the entry
      directory. Two runs asking for the same logical artifact share a
      slot even when their parameters differ;
    * the **digest** -- a SHA-256 over *all* fields (identity key,
      result-affecting parameters, schema/code/CMP-registry versions).
      A slot whose stored digest disagrees is stale and gets evicted.

    Build via :meth:`build`; field values are canonicalized to strings
    so digests are stable across Python versions.
    """

    def __init__(
        self, stage: str, key: Tuple[str, ...], fields: Tuple[Tuple[str, str], ...]
    ):
        if stage not in CODE_VERSIONS:
            raise CacheError(
                f"unknown cache stage {stage!r}; expected one of "
                f"{sorted(CODE_VERSIONS)}"
            )
        self.stage = stage
        self.key = key
        self.fields = fields

    @classmethod
    def build(
        cls, stage: str, key: Tuple[str, ...] = (), **fields: object
    ) -> "Fingerprint":
        """Canonicalize *fields* (sorted, stringified) into a fingerprint."""
        canonical = tuple(
            sorted((name, str(value)) for name, value in fields.items())
        )
        return cls(stage, tuple(str(k) for k in key), canonical)

    # ------------------------------------------------------------------
    def manifest_fields(self) -> Dict[str, str]:
        """The full field map persisted into the entry manifest."""
        from repro.cmps.base import REGISTRY_VERSION

        out = {name: value for name, value in self.fields}
        out["stage"] = self.stage
        out["key"] = "/".join(self.key)
        out["code_version"] = str(CODE_VERSIONS[self.stage])
        out["cmp_registry_version"] = str(REGISTRY_VERSION)
        return out

    def digest(self) -> str:
        """The content-address of this fingerprint (hex SHA-256)."""
        return digest_text(
            json.dumps(self.manifest_fields(), sort_keys=True)
        )

    def slot(self) -> str:
        """The entry-directory name: stage plus sanitized identity key."""
        parts = [self.stage] + [_sanitize(k) for k in self.key if k]
        return "-".join(p for p in parts if p)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Fingerprint({self.slot()!r}, {self.digest()[:12]})"


class ArtifactCache:
    """A directory of fingerprint-keyed artifacts with obs instrumentation.

    Layout (one directory per slot)::

        <root>/<slot>/entry.json        # manifest; written last
        <root>/<slot>/segment-0000.seg  # store artifacts (1..N segments)
        <root>/<slot>/artifact.json     # JSON artifacts

    Lookups are traced as ``cache.lookup`` spans and counted by the
    ``cache_{hits,misses,invalidations}_total`` counters, labeled by
    stage. A *miss* is an absent or unreadable entry (cold compute
    repopulates it); an *invalidation* is a readable entry whose
    fingerprint digest disagrees -- it is evicted on the spot.
    """

    def __init__(self, root: PathLike, obs: Optional[Observability] = None):
        self.root = Path(root)
        self.obs = resolve_obs(obs)
        metrics = self.obs.metrics
        self._meters = {
            name: metrics.counter(name, help_text)
            for name, help_text in _CACHE_COUNTERS
        }

    # ------------------------------------------------------------------
    # Store artifacts (crawl phase, one or more segment files)
    # ------------------------------------------------------------------
    def load_capture_store(
        self, fingerprint: Fingerprint, row_budget: Optional[int] = None
    ) -> Optional[Store]:
        """The cached store for *fingerprint*, or ``None`` (cold compute).

        The entry's segments are merged in order, which reproduces the
        insertion order -- a hit is bit-identical to the run that
        populated it. With a *row_budget* they fill a
        :class:`~repro.crawler.spill.SpillingCaptureStore` one segment
        at a time, so a warm run stays under the budget a cold one
        keeps.
        """
        with self.obs.span(
            "cache.lookup", stage=fingerprint.stage, artifact="store"
        ) as span:
            manifest = self._usable_manifest(fingerprint, "store")
            if manifest is None:
                span.set(outcome="miss")
                return None
            entry_dir = self.root / fingerprint.slot()
            segments = manifest.get("segments")
            merged = new_store(row_budget)
            try:
                if not isinstance(segments, list) or not segments:
                    raise StorageError("manifest lists no segments")
                for index, saved in enumerate(segments):
                    path = segment_path(entry_dir, index)
                    segment = load_store(
                        path, context=f"cache {fingerprint.slot()}"
                    )
                    if _segment_record(path, segment.n_rows) != saved:
                        raise StorageError(f"{path}: not the saved segment")
                    merged.merge(segment)
            except (StorageError, OSError):
                # A changed, truncated or unlisted segment: fall back to
                # a cold compute; the repopulate overwrites the entry.
                self._miss(fingerprint, "corrupt")
                span.set(outcome="miss")
                return None
            self._hit(fingerprint)
            span.set(outcome="hit", shards=len(segments))
            return merged

    def save_capture_store(self, fingerprint: Fingerprint, store: Store) -> Path:
        """Persist *store* under *fingerprint*; returns the entry
        directory.

        Segment files are written first (each atomically); the manifest
        commits the entry last, so a crash mid-populate never leaves a
        readable entry pointing at incomplete segments. It lists every
        segment's row count and the SHA-256 of its bytes, so a segment
        changed afterwards is a ``corrupt`` miss, not a hit.

        A :class:`~repro.crawler.spill.SpillingCaptureStore` is written
        as its spilled segments (copied verbatim -- a spill segment and
        a cache segment are the same file format) plus its active tail,
        so populating the cache never folds the store back into memory.
        Loads merge segments in order either way, which reproduces the
        insertion order exactly; whether the populating run spilled is
        invisible to a warm hit.
        """
        entry_dir = self._fresh_entry_dir(fingerprint)
        segments: List[dict] = []
        tail = store
        if isinstance(store, SpillingCaptureStore):
            for spilled in store.segment_paths():
                path = segment_path(entry_dir, len(segments))
                shutil.copyfile(spilled, path)
                rows = read_header(path)["n_rows"]
                segments.append(_segment_record(path, rows))
            tail = store.active_store()
        path = segment_path(entry_dir, len(segments))
        segments.append(_segment_record(path, save_store(tail, path)))
        self._commit(fingerprint, entry_dir, "store", segments=segments)
        return entry_dir

    # ------------------------------------------------------------------
    # JSON artifacts (derived analyses, engine checkpoints)
    # ------------------------------------------------------------------
    def load_payload(self, fingerprint: Fingerprint) -> Optional[object]:
        """The cached JSON payload for *fingerprint*, or ``None``."""
        with self.obs.span(
            "cache.lookup", stage=fingerprint.stage, artifact="json"
        ) as span:
            manifest = self._usable_manifest(fingerprint, "json")
            if manifest is None:
                span.set(outcome="miss")
                return None
            path = self.root / fingerprint.slot() / "artifact.json"
            try:
                with open(path, "rb") as handle:
                    header = json.loads(handle.readline())
                    body = handle.readline()
                valid = (
                    isinstance(header, dict)
                    and header.get("format") == CACHE_FORMAT
                    and header.get("digest") == fingerprint.digest()
                    and header.get("payload_sha256")
                    == hashlib.sha256(body).hexdigest()
                )
                payload = json.loads(body) if valid else None
            except (OSError, ValueError):
                valid = False
            if not valid:
                # Unreadable, or out of step with the manifest, or the
                # payload line changed (a byte flip, or truncation).
                self._miss(fingerprint, "corrupt")
                span.set(outcome="miss")
                return None
            self._hit(fingerprint)
            span.set(outcome="hit")
            return payload

    def save_payload(self, fingerprint: Fingerprint, payload: object) -> Path:
        """Persist *payload* (JSON-serializable) under *fingerprint*."""
        entry_dir = self._fresh_entry_dir(fingerprint)
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        header = {
            "format": CACHE_FORMAT,
            "schema": SCHEMA_VERSION,
            "digest": fingerprint.digest(),
            "payload_sha256": hashlib.sha256(body).hexdigest(),
        }
        with atomic_write(entry_dir / "artifact.json", mode="wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            handle.write(b"\n")
            handle.write(body)
        self._commit(fingerprint, entry_dir, "json")
        return entry_dir

    # ------------------------------------------------------------------
    # Entry plumbing
    # ------------------------------------------------------------------
    def _manifest_path(self, fingerprint: Fingerprint) -> Path:
        return self.root / fingerprint.slot() / "entry.json"

    def _usable_manifest(
        self, fingerprint: Fingerprint, artifact: str
    ) -> Optional[dict]:
        """The entry manifest if it commits a valid, current artifact.

        Returns ``None`` after metering the miss/invalidation; raises
        :class:`CacheSchemaError` for entries from an incompatible
        fingerprint schema (those must be cleared, not recomputed over).
        """
        path = self._manifest_path(fingerprint)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.loads(handle.read())
        except FileNotFoundError:
            self._miss(fingerprint, "absent")
            return None
        except (OSError, ValueError):
            self._miss(fingerprint, "corrupt")
            return None
        if not isinstance(manifest, dict) or manifest.get("format") != CACHE_FORMAT:
            self._miss(fingerprint, "corrupt")
            return None
        schema = manifest.get("schema")
        if schema != SCHEMA_VERSION:
            raise CacheSchemaError(
                f"{path}: cache entry written under fingerprint schema "
                f"{schema!r}, this build uses schema {SCHEMA_VERSION}; "
                f"clear the cache directory to rebuild it"
            )
        if manifest.get("digest") != fingerprint.digest():
            # Stale entry: same slot, different parameters/code. Evict
            # by fingerprint mismatch (never by mtime) and recompute.
            _clear_slot(self.root / fingerprint.slot())
            self._meters["cache_invalidations_total"].inc(
                stage=fingerprint.stage
            )
            return None
        if manifest.get("artifact") != artifact:
            self._miss(fingerprint, "corrupt")
            return None
        return manifest

    def _fresh_entry_dir(self, fingerprint: Fingerprint) -> Path:
        """The slot directory, emptied of every file a previous entry
        (committed or not) left behind."""
        entry_dir = self.root / fingerprint.slot()
        _clear_slot(entry_dir)
        entry_dir.mkdir(parents=True, exist_ok=True)
        return entry_dir

    def _commit(
        self,
        fingerprint: Fingerprint,
        entry_dir: Path,
        artifact: str,
        segments: Optional[List[dict]] = None,
    ) -> None:
        manifest = {
            "format": CACHE_FORMAT,
            "schema": SCHEMA_VERSION,
            "stage": fingerprint.stage,
            "artifact": artifact,
            "digest": fingerprint.digest(),
            "fingerprint": fingerprint.manifest_fields(),
        }
        if segments is not None:
            manifest["segments"] = segments
        with atomic_write(entry_dir / "entry.json") as handle:
            handle.write(json.dumps(manifest, sort_keys=True, indent=1))
            handle.write("\n")

    # ------------------------------------------------------------------
    def _hit(self, fingerprint: Fingerprint) -> None:
        self._meters["cache_hits_total"].inc(stage=fingerprint.stage)

    def _miss(self, fingerprint: Fingerprint, reason: str) -> None:
        self._meters["cache_misses_total"].inc(
            stage=fingerprint.stage, reason=reason
        )

    # ------------------------------------------------------------------
    def hits(self) -> float:
        """Total hits so far (0 under the null obs backend)."""
        return self._meters["cache_hits_total"].total


def _segment_record(path: Path, rows: int) -> dict:
    """What an entry's manifest records of a segment file of *rows*
    rows: the count and the SHA-256 of the file's bytes."""
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        # 64 KiB blocks stay under glibc's initial mmap threshold: a
        # larger buffer, once freed, raises the threshold, and later
        # allocations then fragment the heap (~0.5 MB more peak RSS on
        # a warm 20k-domain study).
        for block in iter(lambda: handle.read(1 << 16), b""):
            sha.update(block)
    return {"rows": rows, "sha256": sha.hexdigest()}


def _clear_slot(entry_dir: Path) -> None:
    """Delete every file in a slot directory, the manifest first, so a
    crash midway leaves an uncommitted -- therefore invisible -- slot."""
    manifest = entry_dir / "entry.json"
    if manifest.exists():
        manifest.unlink()
    for path in sorted(entry_dir.glob("*")):
        if path.is_file():
            path.unlink()


def resolve_cache(
    cache_dir: Optional[PathLike], obs: Optional[Observability] = None
) -> Optional[ArtifactCache]:
    """``None``-propagating :class:`ArtifactCache` constructor."""
    if cache_dir is None:
        return None
    return ArtifactCache(cache_dir, obs=obs)


__all__ = [
    "ArtifactCache",
    "CacheError",
    "CacheSchemaError",
    "CACHE_FORMAT",
    "CODE_VERSIONS",
    "Fingerprint",
    "SCHEMA_VERSION",
    "digest_domains",
    "digest_text",
    "resolve_cache",
]
