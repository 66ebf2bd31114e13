"""The six-configuration toplist crawl protocol."""

import datetime as dt

import pytest

from repro.crawler import platform as platform_module
from repro.crawler.toplist_crawl import (
    CONFIG_NAMES,
    CRAWL_CONFIGS,
    ToplistCrawler,
)
from repro.faults import FaultSchedule, FaultSpec, RetryPolicy, run_with_retries
from repro.faults.retry import FAST_TEST_POLICY
from repro.obs import Observability
from tests.test_chaos_invariants import PERMANENT, TOPLIST_TRANSIENT
from tests.toplist_oracle import oracle_run

MAY = dt.date(2020, 5, 15)

#: A transient fault that outlasts one date's retry budget: an afflicted
#: row exhausts ``max_retries=1`` on the first date and, because its
#: fault attempts count on, recovers on the second.
CARRY_OVER = FaultSchedule(
    seed=13, specs=(FaultSpec("connection-reset", rate=0.4, attempts=3),)
)
ONE_RETRY = RetryPolicy(max_retries=1, jitter=0.0)

#: Schedule name -> (faults, retry policy) of the oracle parity matrix.
SCHEDULES = {
    "none": (None, None),
    "transient": (TOPLIST_TRANSIENT, FAST_TEST_POLICY),
    "permanent": (PERMANENT, ONE_RETRY),
    "carry-over": (CARRY_OVER, ONE_RETRY),
    # Lost rows end on an anti-bot interstitial (status 403).
    "permanent-antibot": (
        FaultSchedule(
            seed=13,
            specs=(
                FaultSpec("antibot-challenge", rate=0.3, persistent=True),
            ),
        ),
        ONE_RETRY,
    ),
}


@pytest.fixture(scope="module")
def crawl(study):
    return ToplistCrawler(study.world).run(study.tranco.top(200), MAY)


class TestProtocol:
    def test_six_configs(self):
        assert len(CONFIG_NAMES) == 6
        assert CONFIG_NAMES[0] == "us-cloud"

    def test_all_configs_ran(self, crawl):
        assert list(crawl.rows) == list(CONFIG_NAMES)

    def test_reachable_domains_crawled(self, crawl):
        reachable = list(crawl.reachable_domains)
        for rows in crawl.rows.values():
            assert list(rows) == reachable

    def test_unreachable_domains_skipped(self, crawl):
        unreachable = [p for p in crawl.probes if not p.reachable]
        for probe in unreachable:
            for rows in crawl.rows.values():
                assert probe.domain not in rows

    def test_dom_stored_for_all_configs(self, crawl):
        # "For all toplist crawls, we additionally stored the browser's
        # DOM tree" (Section 3.2).
        for name, _, profile in CRAWL_CONFIGS:
            assert profile.store_dom

    def test_unknown_config_rejected(self, study):
        with pytest.raises(KeyError):
            ToplistCrawler(study.world).run(
                ["example.com"], MAY, configs=("warp-drive",)
            )

    def test_captures_for_unknown_config(self, crawl):
        with pytest.raises(KeyError):
            crawl.captures_for("warp-drive")

    def test_vantages_match_config(self, crawl):
        for cap in crawl.captures_for("us-cloud").values():
            assert cap.vantage.region == "US"
            assert cap.vantage.address_space == "cloud"
        for cap in crawl.captures_for("eu-univ-default").values():
            assert cap.vantage.region == "EU"
            assert cap.vantage.address_space == "university"

    def test_retries_recover_transient_failures(self, crawl, study):
        # Every capture of a reachable HTTPS site should eventually
        # succeed thanks to the retry schedule (anti-bot blocks aside).
        failures = [
            cap
            for cap in crawl.captures_for("eu-univ-extended").values()
            if not cap.succeeded and not cap.blocked_by_antibot
        ]
        site_states = [
            study.world.site_by_domain(c.seed_url.host.removeprefix("www."))
            for c in failures
        ]
        # Allow only sites that are genuinely erroring (http-error etc.).
        for site in site_states:
            if site is not None:
                assert site.reachability != "https" or site.blocks_eu_visitors


@pytest.fixture(scope="module", params=sorted(SCHEDULES))
def parity_runs(request, world):
    """``(schedule, crawler result, its metrics, oracle run)`` over the
    top 150 domains, all six configs."""
    faults, retry = SCHEDULES[request.param]
    domains = [world.site(rank).domain for rank in range(1, 151)]
    obs = Observability()
    result = ToplistCrawler(world, obs=obs, faults=faults, retry=retry).run(
        domains, MAY
    )
    oracle = oracle_run(
        world, domains, MAY, CONFIG_NAMES, faults=faults, retry=retry
    )
    return request.param, result, obs, oracle


@pytest.mark.chaos
class TestOracleParity:
    """The compact crawl equals the per-capture oracle, config by config
    and under every schedule: rows, rendered captures (values and
    order), probes, fault tally and outcome metrics."""

    @pytest.mark.parametrize("config", CONFIG_NAMES)
    def test_rows_and_captures_match_oracle(self, parity_runs, config):
        _name, result, _obs, oracle = parity_runs
        assert result.rows[config] == oracle.rows()[config]
        assert list(result.rows[config]) == list(oracle.captures[config])
        captures = result.captures_for(config)
        assert captures == oracle.captures[config]
        assert list(captures) == list(oracle.captures[config])

    def test_probes_faults_and_metrics_match_oracle(self, parity_runs):
        name, result, obs, oracle = parity_runs
        assert result.probes == oracle.probes
        assert result.faults == oracle.faults
        assert (
            obs.metrics.get("toplist_crawls_total").records()
            == oracle.crawl_records
        )
        if name != "none":
            assert result.faults.injected > 0

    def test_fault_budget_carries_across_dates(self, world):
        domains = [world.site(rank).domain for rank in range(1, 151)]
        result = ToplistCrawler(
            world, faults=CARRY_OVER, retry=ONE_RETRY
        ).run(domains, MAY)
        # Every afflicted row burns its retry on the first date and
        # recovers on the second; none ends on the fault.
        assert result.faults.exhausted > 0
        assert result.faults.recovered == result.faults.exhausted
        assert all(
            row.fault is None
            for rows in result.rows.values()
            for row in rows.values()
        )


class TestToplistRetryKey:
    """A faulted row's backoff is keyed on ``"<seed url>@<date>T12:00:00"``
    of the date it is crawled on."""

    def test_retry_key_is_seed_url_at_noon(self, monkeypatch, world):
        keys = []

        def recording(attempt_fn, *, key, **kwargs):
            keys.append(key)
            return run_with_retries(attempt_fn, key=key, **kwargs)

        monkeypatch.setattr(platform_module, "run_with_retries", recording)
        # Every row is faulted on attempts 0-2: it exhausts its one retry
        # on May 15 and recovers on May 17 after one more. Four probe
        # tries outlast the three faulted ones.
        schedule = FaultSchedule(
            seed=13,
            specs=(FaultSpec("connection-reset", rate=1.0, attempts=3),),
        )
        domains = [world.site(rank).domain for rank in range(1, 31)]
        result = ToplistCrawler(
            world, retries=4, faults=schedule, retry=ONE_RETRY
        ).run(domains, MAY, configs=("eu-cloud",))
        seeds = [p.seed_url for p in result.probes if p.seed_url is not None]
        assert seeds
        assert keys == [f"{url}@2020-05-15T12:00:00" for url in seeds] + [
            f"{url}@2020-05-17T12:00:00" for url in seeds
        ]
