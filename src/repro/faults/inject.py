"""Fault accounting and the generic retry loop.

:class:`FaultTally` is the faults counterpart of
:class:`repro.crawler.queue.QueueStats`: every injected fault, retry and
exhaustion is counted so chaos runs conserve the Section 3.4 accounting
-- a crawl whose retries are exhausted is still recorded (as a failed
capture) and surfaces under an explicit skip-style reason instead of
disappearing. Tallies merge shard-wise exactly like capture counts.

:func:`run_with_retries` is the one retry loop used by the crawl paths:
attempt, check for an injected fault, back off through the injectable
clock, attempt again. It is generic over the result type so the probe,
browser and shard layers share identical retry semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.faults.clock import Clock
from repro.faults.retry import RetryPolicy

#: The skip-reason label under which retry exhaustion is reported,
#: alongside the queue's ``skipped_domain``/``skipped_url`` reasons.
EXHAUSTED_REASON = "retries_exhausted"


@dataclass
class FaultTally:
    """Counters over one run's injected faults and retries."""

    #: Fault occurrences by kind (one occurrence per faulted attempt).
    by_kind: Dict[str, int] = field(default_factory=dict)
    #: Retry attempts performed (backoff waits taken).
    retries: int = 0
    #: Work items that recovered within their retry budget.
    recovered: int = 0
    #: Work items whose retry budget ran out while still faulted.
    exhausted: int = 0

    @property
    def injected(self) -> int:
        """Total fault occurrences across all kinds."""
        return sum(self.by_kind.values())

    def count_fault(self, kind: str) -> None:
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1

    def merge(self, other: "FaultTally") -> None:
        """Fold *other* (e.g. a shard tally) into this tally."""
        for kind, count in other.by_kind.items():
            self.by_kind[kind] = self.by_kind.get(kind, 0) + count
        self.retries += other.retries
        self.recovered += other.recovered
        self.exhausted += other.exhausted

    def skip_reasons(self) -> Dict[str, int]:
        """Queue-style ``reason -> count`` view of lost work."""
        if not self.exhausted:
            return {}
        return {EXHAUSTED_REASON: self.exhausted}

    def summary(self) -> str:
        kinds = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.by_kind.items())
        )
        return (
            f"{self.injected} faults injected ({kinds or 'none'}), "
            f"{self.retries} retries, {self.recovered} recovered, "
            f"{self.exhausted} exhausted"
        )


class WorkerCrash(Exception):
    """A scheduled worker death, carrying the shard's checkpoint.

    Raised by shard functions at the schedule's crash point and caught
    by the executor, which builds a resumed payload from ``checkpoint``
    and re-submits the shard. Constructed exclusively from its three
    positional arguments so it survives pickling across the worker
    process boundary.
    """

    def __init__(self, shard_id: int, done: int, checkpoint: Any = None):
        super().__init__(shard_id, done, checkpoint)
        self.shard_id = shard_id
        #: Tasks completed before the crash (the resume start index).
        self.done = done
        #: Partial shard state to resume from (shape is shard-specific).
        self.checkpoint = checkpoint

    def __str__(self) -> str:
        return (
            f"worker crashed in shard {self.shard_id} after "
            f"{self.done} task(s)"
        )


def _default_faulted(result: Any) -> Optional[str]:
    """The injected-fault kind of *result*, if any (captures carry it
    in their ``fault`` field)."""
    return getattr(result, "fault", None)


def run_with_retries(
    attempt_fn: Callable[[int], Any],
    *,
    key: str,
    policy: Optional[RetryPolicy] = None,
    clock: Optional[Clock] = None,
    tally: Optional[FaultTally] = None,
    faulted: Callable[[Any], Optional[str]] = _default_faulted,
) -> Any:
    """Run ``attempt_fn(attempt)`` until it is fault-free or retries run
    out; returns the last result.

    ``attempt_fn`` receives the 0-based attempt number (which the fault
    schedule keys on). Only *injected* faults are retried -- organic
    failures of the synthetic world are permanent by construction, so
    retrying them would waste budget without changing the outcome.
    """
    result = attempt_fn(0)
    kind = faulted(result)
    if kind is None:
        return result
    if tally is not None:
        tally.count_fault(kind)
    delays = policy.delays(key) if policy is not None else ()
    for retry_no, delay in enumerate(delays, start=1):
        if clock is not None:
            clock.sleep(delay)
        if tally is not None:
            tally.retries += 1
        result = attempt_fn(retry_no)
        kind = faulted(result)
        if kind is None:
            if tally is not None:
                tally.recovered += 1
            return result
        if tally is not None:
            tally.count_fault(kind)
    if tally is not None:
        tally.exhausted += 1
    return result
