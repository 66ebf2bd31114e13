"""The toplist-based crawl protocol (Section 3.2).

To compare with related work, the paper crawls the Tranco top 10k with a
dedicated setup:

1. every domain is resolved to a seed URL via the TLS/TCP probe protocol
   (:mod:`repro.net.probe`), retried three times over a week;
2. every URL is crawled six times in immediate succession:

   * from a European university network with the crawler's default
     configuration,
   * again with an extended timeout,
   * with German and with British English as the browser language,
   * and from the US and EU cloud task queues as a control group;

3. unsuccessful captures are retried three times over the span of a
   week.

The crawl runs through the social crawl's row step
(:func:`~repro.crawler.platform.visit_rows`): per configuration, up to
four date rounds of compact visits (same-date retries of injected
faults included), then one batch detection. The result keeps one
compact row per configuration and domain -- the final domain and CMP
Table 1 counts. The toplist crawls also store the DOM tree and a
full-page screenshot, which the customization analysis (I3) consumes;
:meth:`ToplistCrawlResult.captures_for` renders those full captures on
demand, bit-identical to the crawl that produced each row.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.crawler.browser import CrawlProfile, crawl_url, faulted_capture
from repro.crawler.capture import Capture, Vantage
from repro.crawler.platform import meter_crawls, meter_faults, visit_rows
from repro.detect.engine import DetectionEngine
from repro.faults import (
    Clock,
    FaultSchedule,
    FaultTally,
    RetryPolicy,
    VirtualClock,
)
from repro.net import publish_cache_gauges
from repro.net.probe import (
    ProbeResult,
    probe_from_record,
    probe_to_record,
    resolve_toplist,
)
from repro.obs import Observability, resolve_obs
from repro.web.worldgen import World

if TYPE_CHECKING:  # pragma: no cover - import cycle (cache uses storage)
    from repro.cache import ArtifactCache, Fingerprint

#: The six crawl configurations, in Table 1 column order.
CRAWL_CONFIGS: Tuple[Tuple[str, Vantage, CrawlProfile], ...] = (
    (
        "us-cloud",
        Vantage("US", "cloud"),
        CrawlProfile(name="default", cutoff=10.0, store_dom=True),
    ),
    (
        "eu-cloud",
        Vantage("EU", "cloud"),
        CrawlProfile(name="default", cutoff=10.0, store_dom=True),
    ),
    (
        "eu-univ-default",
        Vantage("EU", "university"),
        CrawlProfile(name="default", cutoff=10.0, store_dom=True,
                     full_page_screenshot=True),
    ),
    (
        "eu-univ-extended",
        Vantage("EU", "university"),
        CrawlProfile(name="extended", cutoff=120.0, store_dom=True,
                     full_page_screenshot=True),
    ),
    (
        "eu-univ-de",
        Vantage("EU", "university"),
        CrawlProfile(name="extended", cutoff=120.0, language="de-DE",
                     store_dom=True, full_page_screenshot=True),
    ),
    (
        "eu-univ-en-gb",
        Vantage("EU", "university"),
        CrawlProfile(name="extended", cutoff=120.0, language="en-GB",
                     store_dom=True, full_page_screenshot=True),
    ),
)

CONFIG_NAMES: Tuple[str, ...] = tuple(name for name, _, _ in CRAWL_CONFIGS)

_CONFIG_BY_NAME: Dict[str, Tuple[Vantage, CrawlProfile]] = {
    name: (vantage, profile) for name, vantage, profile in CRAWL_CONFIGS
}

#: Toplist crawls run at noon of each crawl date.
_NOON = dt.time(hour=12)


class ToplistRow(NamedTuple):
    """One domain's final capture under one configuration, compacted."""

    #: Registrable domain of the final address-bar URL.
    final_domain: str
    #: The CMP the network fingerprints detect, or ``None``.
    cmp_key: Optional[str]
    #: Final document status (``None``: no response received).
    status: Optional[int]
    #: Kind of the injected fault the final crawl ended on, if any.
    fault: Optional[str]
    #: Date of the final crawl (at noon).
    date: dt.date

    @property
    def succeeded(self) -> bool:
        return self.status is not None and 200 <= self.status < 400


@dataclass
class ToplistCrawlResult:
    """Everything a toplist crawl produces."""

    #: Probe outcome per toplist domain.
    probes: List[ProbeResult]
    #: The world crawled; :meth:`captures_for` renders against it.
    world: World = field(compare=False, repr=False)
    #: Config name -> domain -> final row (after retries), domains in
    #: toplist order.
    rows: Dict[str, Dict[str, ToplistRow]] = field(default_factory=dict)
    #: Fault/retry accounting of the run (empty outside chaos).
    faults: FaultTally = field(default_factory=FaultTally)

    @property
    def reachable_domains(self) -> Tuple[str, ...]:
        return tuple(p.domain for p in self.probes if p.reachable)

    def captures_for(self, config_name: str) -> Dict[str, Capture]:
        """Config *config_name*'s final captures, domain -> capture in
        toplist order, each rendered from its row: the page crawl of
        the row's date, or the faulted capture the row ended on."""
        if config_name not in self.rows:
            raise KeyError(
                f"unknown config {config_name!r}; ran: {sorted(self.rows)}"
            )
        vantage, profile = _CONFIG_BY_NAME[config_name]
        seed_urls = {p.domain: p.seed_url for p in self.probes}
        captures: Dict[str, Capture] = {}
        for domain, row in self.rows[config_name].items():
            url = seed_urls[domain]
            when = dt.datetime.combine(row.date, _NOON)
            captures[domain] = (
                crawl_url(self.world, url, when=when, vantage=vantage,
                          profile=profile)
                if row.fault is None
                else faulted_capture(url, when, vantage, profile, row.fault)
            )
        return captures


class ToplistCrawler:
    """Runs the six-configuration protocol over a toplist."""

    def __init__(
        self,
        world: World,
        retries: int = 3,
        obs: Optional[Observability] = None,
        faults: Optional[FaultSchedule] = None,
        retry: Optional[RetryPolicy] = None,
        clock: Optional[Clock] = None,
    ):
        self.world = world
        self.retries = retries
        self.obs = resolve_obs(obs)
        #: Chaos schedule injected into probes and crawls; ``None`` (the
        #: default) keeps the protocol bit-identical to a build without
        #: repro.faults.
        self.faults = faults
        #: Backoff policy for same-date retries of injected faults.
        self.retry = retry
        #: Waits out retry backoff; virtual by default so chaos runs
        #: never sleep for real.
        self.clock: Clock = clock if clock is not None else VirtualClock()
        metrics = self.obs.metrics
        self._m_crawls = metrics.counter(
            "toplist_crawls_total",
            "final toplist captures by config and outcome",
        )
        self._m_probes = metrics.counter(
            "toplist_probes_total", "toplist domains by probe outcome"
        )

    def run(
        self,
        domains: Sequence[str],
        when: dt.date,
        configs: Sequence[str] = CONFIG_NAMES,
        cache: Optional["ArtifactCache"] = None,
        probe_fingerprint: Optional["Fingerprint"] = None,
    ) -> ToplistCrawlResult:
        """Crawl *domains* around date *when* under the given configs.

        With a *cache* and *probe_fingerprint*, the seed-URL resolution
        phase is served from the artifact cache when a fresh entry
        exists (probing is deterministic, so cached probes are
        bit-identical to recomputed ones) and populated on a miss. The
        crawl phase itself is cached one level up, where whole derived
        analyses can be skipped (:mod:`repro.core.pipeline`).
        """
        with self.obs.span(
            "toplist.run", domains=len(domains), configs=len(configs)
        ):
            with self.obs.span("toplist.probe") as probe_span:
                probes = self._resolve_probes(
                    domains, cache, probe_fingerprint
                )
            result = ToplistCrawlResult(probes=probes, world=self.world)
            wanted = [name for name in CONFIG_NAMES if name in configs]
            missing = set(configs) - set(wanted)
            if missing:
                raise KeyError(f"unknown crawl configs: {sorted(missing)}")
            crawlable = [p for p in probes if p.seed_url is not None]
            if self.obs.enabled:
                reachable = sum(1 for p in probes if p.reachable)
                probe_span.set(
                    domains=len(probes), reachable=reachable,
                    crawlable=len(crawlable),
                )
                if reachable:
                    self._m_probes.inc(reachable, outcome="reachable")
                if len(probes) - reachable:
                    self._m_probes.inc(
                        len(probes) - reachable, outcome="unreachable"
                    )
            # Detection is metered by the social crawl only.
            engine = DetectionEngine()
            for name in wanted:
                with self.obs.span("toplist.config", config=name) as cfg_span:
                    rows = self._crawl_config(
                        name, crawlable, when, engine, result.faults
                    )
                    failed = sum(
                        1 for row in rows.values() if not row.succeeded
                    )
                    exhausted = sum(
                        1 for row in rows.values() if row.fault is not None
                    )
                    meter_crawls(
                        self._m_crawls, len(rows) - failed,
                        failed - exhausted, exhausted, config=name,
                    )
                    cfg_span.set(domains=len(rows), failures=failed)
                result.rows[name] = rows
            meter_faults(self.obs, result.faults)
            publish_cache_gauges(self.obs)
        return result

    def _crawl_config(
        self,
        name: str,
        crawlable: List[ProbeResult],
        when: dt.date,
        engine: DetectionEngine,
        tally: FaultTally,
    ) -> Dict[str, ToplistRow]:
        """One configuration's final rows over the crawlable probes.

        Unsuccessful crawls are retried over the span of a week: round
        *r* crawls every row still unsuccessful on ``when + 2r`` days
        (the date re-rolls temporary unavailability), with injected
        faults retried within the date first. A row's fault attempts
        count on across its rounds, so a transient fault that burnt one
        date's retry budget stays burnt on the next.
        """
        vantage, profile = _CONFIG_BY_NAME[name]
        urls = [probe.seed_url for probe in crawlable]
        n = len(urls)
        attempts = [0] * n
        masks = [0] * n
        # Row index -> its latest crawl (the CMP is detected last).
        latest: Dict[int, ToplistRow] = {}
        pending = list(range(n))
        for round_no in range(self.retries + 1):
            if not pending:
                break
            date = when + dt.timedelta(days=2 * round_no)
            stamp = dt.datetime.combine(date, _NOON).isoformat()
            batch = [urls[i] for i in pending]
            tries = [attempts[i] for i in pending]
            k = len(batch)
            visits = visit_rows(
                self.world, batch, [date] * k, [vantage.region] * k,
                vantage.address_space, [None] * k, profile.cutoff,
                self.faults, self.retry, lambda j: f"{batch[j]}@{stamp}",
                self.clock, tally, tries,
            )
            for j, i in enumerate(pending):
                attempts[i] = tries[j]
                masks[i] = visits.masks[j]
                latest[i] = ToplistRow(
                    visits.domains[j], None, visits.statuses[j],
                    visits.faults[j], date,
                )
            pending = [i for i in pending if not latest[i].succeeded]
        rows = [latest[i] for i in range(n)]
        cmp_keys = engine.detect_batch(
            masks, [row.date.toordinal() for row in rows]
        )
        return {
            probe.domain: row._replace(cmp_key=cmp_key)
            for probe, row, cmp_key in zip(crawlable, rows, cmp_keys)
        }

    def _resolve_probes(
        self,
        domains: Sequence[str],
        cache: Optional["ArtifactCache"],
        fingerprint: Optional["Fingerprint"],
    ) -> List[ProbeResult]:
        """Seed-URL resolution, served from the artifact cache if possible."""
        caching = cache is not None and fingerprint is not None
        if caching:
            payload = cache.load_payload(fingerprint)
            if payload is not None:
                return [probe_from_record(rec) for rec in payload]
        probes = resolve_toplist(
            domains, self.world, attempts=self.retries, faults=self.faults
        )
        if caching:
            cache.save_payload(
                fingerprint, [probe_to_record(p) for p in probes]
            )
        return probes
