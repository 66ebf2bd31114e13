"""Reachability probing for toplist seed-URL resolution.

Section 3.2 ("Toplist-Based Web Measurement") describes how the bare
domains of the Tranco list are converted into crawlable URLs:

1. attempt a TLS connection to ``www.<domain>:443`` and validate the
   certificate hostname against Mozilla's trust store; on success use
   ``https://www.<domain>/``;
2. otherwise attempt a TCP connection to port 80 and use
   ``http://www.<domain>/``;
3. otherwise fall back to ``http://<domain>/``.

The process is repeated three times over a week to catch temporarily
unavailable domains.

Probe results are not cached on their own: every toplist crawl probes
afresh, and the Table 1 it feeds is the cached artifact
(:meth:`~repro.core.pipeline.Study.vantage_table`).

This module implements that protocol against an abstract
:class:`ReachabilityOracle`, which the synthetic web implements. The retry
schedule is modelled explicitly so that transient unavailability (which the
synthetic world can inject) is genuinely recovered from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

from repro.faults.schedule import FaultSchedule
from repro.net.url import URL

#: Vantage label under which probe faults are scheduled (probing has no
#: crawl vantage; DNS/TLS faults strike the resolver itself).
PROBE_VANTAGE = "probe"


class ReachabilityOracle(Protocol):
    """What the prober needs to know about the network.

    ``attempt`` is a monotonically increasing retry counter so that
    implementations can model *temporary* unavailability.
    """

    def tls_ok(self, host: str, attempt: int) -> bool:
        """True if a TLS connection to ``host:443`` succeeds with a
        certificate that validates for *host*."""
        ...

    def tcp80_ok(self, host: str, attempt: int) -> bool:
        """True if a TCP connection to ``host:80`` succeeds."""
        ...


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of resolving one toplist domain to a seed URL."""

    domain: str
    seed_url: Optional[URL]
    #: 1-based attempt on which the resolution succeeded, 0 if never.
    succeeded_on_attempt: int
    #: Which rule produced the seed: "https-www", "http-www", "http-bare"
    #: or "unreachable".
    method: str

    @property
    def reachable(self) -> bool:
        return self.seed_url is not None


def resolve_seed_url(
    domain: str,
    oracle: ReachabilityOracle,
    attempts: int = 3,
    faults: Optional[FaultSchedule] = None,
) -> ProbeResult:
    """Resolve one domain to a seed URL using the paper's protocol.

    An injected fault (scheduled against the :data:`PROBE_VANTAGE`
    label) burns one of the *attempts* without querying the oracle at
    all -- the resolver never got an answer. Crucially the oracle's own
    attempt counter advances only on fault-free tries, so a faulted run
    queries a strict *prefix* of the fault-free oracle sequence: a
    domain either resolves with the identical seed URL and method, or
    (if faults consume too much of the budget) is conservatively lost as
    unreachable. Faults can shrink the probe result, never change it.
    """
    www = f"www.{domain}"
    oracle_attempt = 0
    for try_no in range(1, attempts + 1):
        if (
            faults is not None
            and faults.fault_for(domain, PROBE_VANTAGE, try_no - 1)
            is not None
        ):
            continue
        oracle_attempt += 1
        if oracle.tls_ok(www, oracle_attempt):
            return ProbeResult(
                domain, URL.parse(f"https://{www}/"), try_no, "https-www"
            )
        if oracle.tcp80_ok(www, oracle_attempt):
            return ProbeResult(
                domain, URL.parse(f"http://{www}/"), try_no, "http-www"
            )
        if oracle.tcp80_ok(domain, oracle_attempt) or oracle.tls_ok(
            domain, oracle_attempt
        ):
            return ProbeResult(
                domain, URL.parse(f"http://{domain}/"), try_no, "http-bare"
            )
    return ProbeResult(domain, None, 0, "unreachable")


def resolve_toplist(
    domains: Sequence[str],
    oracle: ReachabilityOracle,
    attempts: int = 3,
    faults: Optional[FaultSchedule] = None,
) -> "list[ProbeResult]":
    """Resolve every domain in a toplist to a seed URL."""
    return [resolve_seed_url(d, oracle, attempts, faults) for d in domains]

