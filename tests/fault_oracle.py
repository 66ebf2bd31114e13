"""Per-call reference derivation for :meth:`FaultSchedule.fault_for`.

On every call, each spec draws whether it afflicts the key: the
splitmix64 mix of ``key64(seed, "fault", domain, vantage)`` salted with
``key64("fault-kind", kind)``, read as a 53-bit uniform below the
spec's rate. The attempt check then picks the first afflicted spec
whose budget covers the attempt. Written from the :mod:`repro.det`
primitives alone -- no folded prefix, no salt table, nothing kept
between calls -- as the oracle ``tests/test_faults.py`` pins the
schedule against.
"""

from __future__ import annotations

from typing import Optional

from repro.det import key64, mix64
from repro.faults import Fault, FaultSchedule


def oracle_afflicts(
    seed: int, kind: str, rate: float, domain: str, vantage: str
) -> bool:
    """Whether a spec of *kind* and *rate* afflicts ``(domain,
    vantage)`` under schedule seed *seed*."""
    draw = mix64(key64(seed, "fault", domain, vantage) ^ key64("fault-kind", kind))
    return (draw >> 11) / 2**53 < rate


def oracle_fault_for(
    schedule: FaultSchedule, domain: str, vantage: str, attempt: int
) -> Optional[Fault]:
    for spec in schedule.specs:
        if not oracle_afflicts(
            schedule.seed, spec.kind, spec.rate, domain, vantage
        ):
            continue
        if spec.persistent or attempt < spec.attempts:
            return Fault(spec.kind)
    return None
