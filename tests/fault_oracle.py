"""Per-call reference derivation for :meth:`FaultSchedule.fault_for`.

The derivation the memoized schedule replaced: on every call, one
fresh ``random.Random`` per spec, seeded from ``(schedule seed, kind,
domain, vantage)``, decides whether the spec afflicts the key, and the
attempt check picks the first afflicted spec whose budget covers the
attempt. Kept as the oracle ``tests/test_faults.py`` pins the memo
against.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.faults import Fault, FaultSchedule


def oracle_fault_for(
    schedule: FaultSchedule, domain: str, vantage: str, attempt: int
) -> Optional[Fault]:
    for spec in schedule.specs:
        rng = random.Random(
            f"{schedule.seed}:fault:{spec.kind}:{domain}:{vantage}"
        )
        if rng.random() >= spec.rate:
            continue
        if spec.persistent or attempt < spec.attempts:
            return Fault(spec.kind)
    return None
