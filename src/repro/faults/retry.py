"""Retry policies: capped exponential backoff with deterministic jitter.

The schedule for a given work item is a pure function of
``(policy seed, item key, attempt)`` -- the same keying discipline as
the executor's per-event RNGs -- so retry timing can never depend on
run order, worker count or wall-clock state. Three contract properties
are locked by the hypothesis tests in ``tests/test_properties.py``:

* same seed and key -> identical schedule, call after call;
* delays are monotone non-decreasing and never exceed ``max_delay``;
* the schedule length never exceeds ``max_retries``.

The jitter of retry *n* is the *n*-th draw of a :mod:`repro.det` keyed
stream over ``(seed, key)``: a counter-based draw, so it is derived
only when retry *n* is taken and costs a few integer operations, not
the seeding of a ``random.Random``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Tuple

from repro.det import KeyedRand, key64


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with seeded, bounded jitter.

    ``delay(key, n)`` is the wait before retry *n* (1-based). The base
    curve is ``base_delay * multiplier**(n-1)`` capped at ``max_delay``;
    jitter scales each delay by a deterministic factor in
    ``[1-jitter, 1+jitter]`` drawn from ``(seed, key, n)``. Delays are
    clamped monotone non-decreasing after jitter, so a jittered schedule
    keeps the backoff shape.
    """

    max_retries: int = 3
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0
    #: Fractional jitter amplitude in [0, 1).
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_delay < 0:
            raise ValueError("base_delay must be >= 0")
        if self.multiplier < 1:
            raise ValueError("multiplier must be >= 1")
        if self.max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must be in [0, 1)")

    def delays(self, key: str) -> Iterator[float]:
        """The backoff delays for *key*, one per permitted retry, each
        derived only when asked for: with jitter, delay *n* takes draw
        *n* of the key's stream, so a caller that stops after retry *n*
        draws *n* values."""
        previous = 0.0
        raw = self.base_delay
        rng = None
        if self.jitter:
            rng = KeyedRand(key64(self.seed, "retry", key))
        for _attempt in range(self.max_retries):
            value = min(raw, self.max_delay)
            if rng is not None:
                value *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            previous = max(previous, min(value, self.max_delay))
            yield previous
            raw *= self.multiplier

    def schedule(self, key: str) -> Tuple[float, ...]:
        """All backoff delays for *key*, one per permitted retry."""
        return tuple(self.delays(key))

    def delay(self, key: str, attempt: int) -> float:
        """Backoff before retry *attempt* (1-based) of *key*."""
        if not 1 <= attempt <= self.max_retries:
            raise ValueError(
                f"attempt {attempt} outside [1, {self.max_retries}]"
            )
        return next(islice(self.delays(key), attempt - 1, None))


#: A policy for tests and docs: plenty of retries, tiny virtual delays.
FAST_TEST_POLICY = RetryPolicy(
    max_retries=5, base_delay=0.01, max_delay=0.1, jitter=0.0
)
