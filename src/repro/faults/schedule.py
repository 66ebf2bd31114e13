"""Seeded fault schedules.

A :class:`FaultSchedule` answers one question deterministically: *is
this crawl attempt faulted, and how?* The decision is keyed on
``(schedule seed, fault kind, domain, vantage)`` -- whether a given
``(domain, vantage)`` is afflicted by a spec -- plus the attempt number,
which turns afflictions into transient (first ``attempts`` tries fail)
or permanent (every try fails) faults. Like every other source of
randomness in the pipeline, the decision is independent of execution
order, so fault injection composes with the sharded executor without
breaking its determinism contract.

Every draw is a :mod:`repro.det` keyed draw, not a seeded
``random.Random``: ``(domain, vantage)`` is folded once onto a prefix
the schedule folds from its seed, and each spec then takes one
:func:`~repro.det.mix64` of that key salted by its kind. A spec's
afflicted keys therefore depend on the seed, its kind and its rate
only, never on the schedule's other specs or their order.

Only the attempt check runs per call: which specs afflict a key does
not depend on the attempt, so each schedule draws a key once per
process and memoizes the answer, one bounded memo per vantage label
keyed by domain. The memo is not part of the schedule's value: ``==``,
``hash``, ``repr``, :meth:`FaultSchedule.digest` and pickles never see
it, so shard tasks ship only the fields and every worker process fills
its own.

Worker crashes are scheduled the same way, keyed on
``(seed, shard_id, shard attempt)``: an afflicted shard raises
:class:`repro.faults.inject.WorkerCrash` before a scheduled task index,
carrying a checkpoint the executor resumes from.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.det import KeyedRand, fold64, key64, mix64
from repro.memo import MISSING, BoundedMemo, CountMap

#: The transient failure classes of the live web that shaped the
#: paper's captures (Sections 3.2 and 3.5).
FAULT_KINDS = (
    "dns-error",
    "connection-reset",
    "slow-response",
    "antibot-challenge",
)

#: Bound on the domains one schedule memoizes per vantage label. A
#: key's afflictions are a pure function of the schedule and the key,
#: so an eviction only costs the key's redraw.
AFFLICTION_MEMO_SIZE = 32_768

#: Bound on the vantage labels one schedule memoizes. The pipeline
#: crawls from four vantages and probes under a fifth label; keys of
#: any further label are drawn on every call.
MEMO_VANTAGES = 8

#: The memo value of every key no spec afflicts (most keys): one shared
#: empty tuple instead of one per key.
_UNAFFLICTED: Tuple["FaultSpec", ...] = ()

#: Per-kind salt of the affliction draw: two specs of different kinds
#: draw independently from the same ``(domain, vantage)`` key.
KIND_SALTS = {kind: key64("fault-kind", kind) for kind in FAULT_KINDS}

#: 2**-53: a 64-bit mix's top 53 bits as a uniform in [0, 1).
_UNIT = 1.1102230246251565e-16


@dataclass(frozen=True)
class Fault:
    """One injected fault occurrence."""

    kind: str


@dataclass(frozen=True)
class FaultSpec:
    """One class of fault and how often/long it strikes.

    ``rate`` is the fraction of ``(domain, vantage)`` keys afflicted;
    an afflicted key fails its first ``attempts`` tries (transient) or
    every try (``persistent=True``).
    """

    kind: str
    rate: float
    #: Leading attempts that fail for an afflicted key (ignored when
    #: ``persistent``).
    attempts: int = 1
    persistent: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")


@dataclass(frozen=True)
class CrashSpec:
    """How often shard workers die mid-shard.

    ``rate`` is the fraction of shards afflicted; an afflicted shard
    crashes on its first ``attempts`` executions (so the default of 1
    models a transient crash that a single resume recovers from).
    """

    rate: float
    attempts: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")


@dataclass(frozen=True)
class FaultSchedule:
    """A deterministic plan of faults for one chaos run.

    Frozen and built from primitives only, so it crosses process
    boundaries inside shard tasks unchanged. The affliction memo that
    :meth:`fault_for` fills stays behind: each process starts its own.
    Like the world's memos it takes no lock; the crawl paths consult a
    schedule from one thread.
    """

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = ()
    crash: Optional[CrashSpec] = None

    def __post_init__(self) -> None:
        # vantage -> domain -> the specs afflicting the key. Not a
        # field, so ==, hash, repr and digest() never see it.
        object.__setattr__(self, "_afflicted", {})
        # The affliction draw's key prefix and each spec's kind salt,
        # derived from the fields once per schedule (and per process).
        object.__setattr__(self, "_prefix", key64(self.seed, "fault"))
        object.__setattr__(
            self,
            "_salted",
            tuple((spec, KIND_SALTS[spec.kind]) for spec in self.specs),
        )

    def __reduce__(self):
        """Pickle the fields only: an unpickled copy starts with an
        empty memo, and a populated schedule pickles to the same bytes
        as a fresh one."""
        return type(self), (self.seed, self.specs, self.crash)

    def memo_counts(self) -> CountMap:
        """This process's affliction-memo counters by vantage label."""
        return {
            vantage: memo.counts()
            for vantage, memo in self._afflicted.items()
        }

    @property
    def transient_only(self) -> bool:
        """True if every scheduled fault is recoverable by retrying."""
        return not any(spec.persistent for spec in self.specs)

    def digest(self) -> str:
        """Content digest of the whole schedule (hex SHA-256).

        Used as a cache fingerprint field (:mod:`repro.cache`): two
        schedules injecting the same faults share a digest, so a cached
        crawl is reused exactly when its chaos plan is unchanged.
        """
        payload = {
            "seed": self.seed,
            "specs": [dataclasses.asdict(spec) for spec in self.specs],
            "crash": (
                dataclasses.asdict(self.crash)
                if self.crash is not None
                else None
            ),
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()

    def fault_for(
        self, domain: str, vantage: str, attempt: int
    ) -> Optional[Fault]:
        """The fault injected into try *attempt* (0-based) of a crawl of
        *domain* from *vantage*, or ``None``.

        Specs are consulted in declaration order; the first afflicted
        one whose attempt budget covers *attempt* wins, so overlapping
        specs stay deterministic.
        """
        memo = self._afflicted.get(vantage)
        if memo is None:
            memo = BoundedMemo(AFFLICTION_MEMO_SIZE)
            if len(self._afflicted) < MEMO_VANTAGES:
                self._afflicted[vantage] = memo
        afflicting = memo.get(domain, MISSING)
        if afflicting is MISSING:
            afflicting = memo[domain] = self._afflicting(domain, vantage)
        for spec in afflicting:
            if spec.persistent or attempt < spec.attempts:
                return Fault(spec.kind)
        return None

    def _afflicting(
        self, domain: str, vantage: str
    ) -> Tuple[FaultSpec, ...]:
        """The specs afflicting ``(domain, vantage)``, in declaration
        order: the key folded once, then one salted mix per spec."""
        key = fold64(self._prefix, domain, vantage)
        afflicting = _UNAFFLICTED
        for spec, salt in self._salted:
            if (mix64(key ^ salt) >> 11) * _UNIT < spec.rate:
                afflicting += (spec,)
        return afflicting

    def crash_point(
        self, shard_id: int, n_tasks: int, attempt: int
    ) -> Optional[int]:
        """The task index before which shard *shard_id* crashes on its
        *attempt*-th execution (0-based), or ``None``.

        The afflicted-or-not draw is keyed on the shard alone so a shard
        either crashes or not regardless of resume history; the crash
        position is re-drawn per attempt so a resumed shard that crashes
        again does so at a fresh point.
        """
        if self.crash is None or n_tasks <= 0:
            return None
        if attempt >= self.crash.attempts:
            return None
        key = key64(self.seed, "crash", shard_id)
        if KeyedRand(key).random() >= self.crash.rate:
            return None
        return KeyedRand(fold64(key, attempt)).randrange(n_tasks)
