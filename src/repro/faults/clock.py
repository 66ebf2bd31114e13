"""Injectable clocks for retry backoff.

Backoff delays are *computed* by :class:`repro.faults.retry.RetryPolicy`
but *waited out* by a clock object, so the wait is a seam:

* :class:`VirtualClock` (the default everywhere) only accumulates the
  requested seconds. The synthetic web has no real I/O to wait for, and
  tests must never sleep.
* :class:`SystemClock` really sleeps. It exists for deployments that
  crawl something real; this module is the one place in the tree where
  ``time.sleep`` may be called (the DET005 lint rule flags it anywhere
  else).
"""

from __future__ import annotations

import time
from typing import Protocol


class Clock(Protocol):
    """What the retry machinery needs from a clock."""

    def sleep(self, seconds: float) -> None:
        """Wait for *seconds* (really, or virtually)."""
        ...


class VirtualClock:
    """Accumulates sleeps instead of performing them.

    The tally doubles as the test probe for backoff behaviour: after a
    retry loop, ``slept`` is exactly the sum of the policy's schedule
    prefix that was consumed. It holds two numbers however long it
    lives -- a follow engine's platform keeps one clock for the whole
    session -- so it keeps no per-sleep record.
    """

    __slots__ = ("slept", "n_sleeps")

    def __init__(self) -> None:
        #: Total virtual seconds slept.
        self.slept = 0.0
        #: Sleep requests taken.
        self.n_sleeps = 0

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot sleep {seconds!r} seconds")
        self.slept += seconds
        self.n_sleeps += 1


class SystemClock:
    """Really sleeps; only for crawling a real, rate-limited target."""

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)
