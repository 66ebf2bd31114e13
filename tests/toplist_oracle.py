"""Per-capture reference for the toplist crawl.

The loop :class:`~repro.crawler.toplist_crawl.ToplistCrawler` ran before
its configurations went through the platform's row step: every
``(config, domain)`` is a chain of full
:func:`~repro.crawler.browser.crawl_url` captures, retried over a week,
with injected faults retried within each date and one fault-attempt
counter spanning all dates. Kept as the oracle
``tests/test_toplist_crawl.py`` pins the compact rows, the fault tally,
the crawl metrics and the rendered captures against.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.crawler.browser import CrawlProfile, crawl_url
from repro.crawler.capture import Capture, Vantage
from repro.crawler.toplist_crawl import CRAWL_CONFIGS, ToplistRow
from repro.detect.engine import detect_cmp
from repro.faults import (
    Clock,
    FaultSchedule,
    FaultTally,
    RetryPolicy,
    VirtualClock,
    run_with_retries,
)
from repro.net.probe import ProbeResult, resolve_toplist
from repro.net.url import URL
from repro.obs import Observability
from repro.web.worldgen import World


@dataclass
class OracleRun:
    """What the reference crawl of a toplist produces."""

    probes: List[ProbeResult]
    #: Config name -> domain -> final capture, domains in toplist order.
    captures: Dict[str, Dict[str, Capture]]
    faults: FaultTally
    #: ``toplist_crawls_total`` records, as the metrics registry
    #: exports them.
    crawl_records: List[dict]

    def rows(self) -> Dict[str, Dict[str, ToplistRow]]:
        """Each final capture compacted to the row the crawler keeps."""
        return {
            name: {
                domain: ToplistRow(
                    capture.final_domain,
                    detect_cmp(capture).cmp_key,
                    capture.status,
                    capture.fault,
                    capture.captured_at.date(),
                )
                for domain, capture in captures.items()
            }
            for name, captures in self.captures.items()
        }


def crawl_with_retries(
    world: World,
    url: URL,
    when: dt.date,
    vantage: Vantage,
    profile: CrawlProfile,
    retries: int = 3,
    faults: Optional[FaultSchedule] = None,
    retry: Optional[RetryPolicy] = None,
    clock: Optional[Clock] = None,
    tally: Optional[FaultTally] = None,
) -> Capture:
    """The final capture of *url* after the week of retries."""
    capture: Optional[Capture] = None
    # The fault-schedule attempt counter spans both retry loops, so a
    # transient fault burning the same-date budget stays burnt when
    # the crawl moves on to a later date.
    fault_attempts = [0]
    for attempt in range(retries + 1):
        ts = dt.datetime.combine(
            when + dt.timedelta(days=2 * attempt), dt.time(hour=12)
        )

        def attempt_fn(_retry_no: int, ts: dt.datetime = ts) -> Capture:
            n = fault_attempts[0]
            fault_attempts[0] += 1
            return crawl_url(
                world, url, when=ts, vantage=vantage, profile=profile,
                faults=faults, attempt=n,
            )

        if faults is None:
            capture = attempt_fn(0)
        else:
            capture = run_with_retries(
                attempt_fn,
                key=f"{url}@{ts.isoformat()}",
                policy=retry,
                clock=clock,
                tally=tally,
            )
        if capture.succeeded:
            return capture
    assert capture is not None
    return capture


def oracle_run(
    world: World,
    domains: Sequence[str],
    when: dt.date,
    configs: Sequence[str],
    retries: int = 3,
    faults: Optional[FaultSchedule] = None,
    retry: Optional[RetryPolicy] = None,
) -> OracleRun:
    """Probe *domains*, then crawl every crawlable one under *configs*
    (in Table 1 order), capture by capture."""
    probes = resolve_toplist(domains, world, attempts=retries, faults=faults)
    tally = FaultTally()
    clock = VirtualClock()
    counter = Observability().metrics.counter("toplist_crawls_total")
    captures: Dict[str, Dict[str, Capture]] = {}
    for name, vantage, profile in CRAWL_CONFIGS:
        if name not in configs:
            continue
        per_domain = captures[name] = {
            probe.domain: crawl_with_retries(
                world, probe.seed_url, when, vantage, profile, retries,
                faults, retry, clock, tally,
            )
            for probe in probes
            if probe.seed_url is not None
        }
        outcomes = {"ok": 0, "failed": 0, "retries_exhausted": 0}
        for capture in per_domain.values():
            if capture.succeeded:
                outcomes["ok"] += 1
            elif capture.fault is None:
                outcomes["failed"] += 1
            else:
                outcomes["retries_exhausted"] += 1
        for outcome, count in outcomes.items():
            if count:
                counter.inc(count, config=name, outcome=outcome)
    return OracleRun(probes, captures, tally, counter.records())
