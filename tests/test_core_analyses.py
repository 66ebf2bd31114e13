"""Marketshare, switching, vantage, GVL analysis, timing, timeline."""

import datetime as dt
from collections import Counter

import pytest

from repro.core.adoption import DomainTimeline
from repro.core.gvl_analysis import GvlAnalysis
from repro.core.marketshare import (
    default_sizes,
    marketshare_by_toplist_size,
    peak_band,
)
from repro.core.relatedwork import (
    comparison_rows,
    figure1_series,
    this_paper_dominates,
)
from repro.core.switching import SwitchingFlows
from repro.core.timing import OptOutStudy, TimingStudy
from repro.core.vantage import VantageTable
from repro.crawler.capture import EU_CLOUD, Observation
from repro.users.behavior import DialogConfig
from repro.users.experiment import run_quantcast_experiment

MAY = dt.date(2020, 5, 15)


def obs(domain, day, cmp_key):
    return Observation(
        domain=domain,
        date=dt.date.fromisoformat(day),
        cmp_key=cmp_key,
        vantage=EU_CLOUD,
    )


class TestMarketshare:
    def test_default_sizes_log_spaced(self):
        sizes = default_sizes(10_000)
        assert sizes[0] == 100
        assert sizes[-1] == 10_000
        assert sizes == sorted(sizes)

    def test_curve_shape(self, study):
        curve = study.marketshare_curve(MAY)
        # The mid-market hump: share at ~1000 exceeds share at 100.
        assert curve.total_share(1_000) > curve.total_share(100)

    def test_counts_are_cumulative(self, study):
        curve = study.marketshare_curve(MAY)
        for series in curve.counts.values():
            assert series == sorted(series)

    def test_sampling_approximates_exact(self, study):
        exact = marketshare_by_toplist_size(
            study.world, study.tranco, MAY, sizes=[5_000],
            exact_limit=5_000,
        )
        sampled = marketshare_by_toplist_size(
            study.world, study.tranco, MAY, sizes=[5_000],
            exact_limit=100, samples_per_stratum=1_500,
        )
        assert sampled.total_share(5_000) == pytest.approx(
            exact.total_share(5_000), rel=0.3
        )

    def test_peak_band_in_mid_market(self, study):
        curve = study.marketshare_curve(MAY)
        lo, hi = peak_band(curve)
        assert lo >= 50 and hi <= 10_000

    def test_bad_sizes_rejected(self, study):
        with pytest.raises(ValueError):
            marketshare_by_toplist_size(
                study.world, study.tranco, MAY, sizes=[0]
            )


class TestSwitching:
    def make_flows(self):
        timelines = {}
        specs = [
            ("a.com", [("cookiebot", "2019-01-01"), ("onetrust", "2019-03-01")]),
            ("b.com", [("cookiebot", "2019-01-01"), ("quantcast", "2019-03-01")]),
            ("c.com", [("quantcast", "2019-01-01"), ("onetrust", "2019-02-10")]),
            ("d.com", [("onetrust", "2019-01-01")]),
        ]
        for domain, stints in specs:
            observations = []
            for cmp_key, start in stints:
                d0 = dt.date.fromisoformat(start)
                observations.append(obs(domain, str(d0), cmp_key))
                observations.append(
                    obs(domain, str(d0 + dt.timedelta(days=20)), cmp_key)
                )
            timelines[domain] = DomainTimeline.from_observations(
                domain, observations
            )
        return SwitchingFlows.from_timelines(timelines)

    def test_flows_counted(self):
        flows = self.make_flows()
        assert flows.flows[("cookiebot", "onetrust")] == 1
        assert flows.flows[("cookiebot", "quantcast")] == 1

    def test_gained_lost_net(self):
        flows = self.make_flows()
        assert flows.lost("cookiebot") == 2
        assert flows.gained("cookiebot") == 0
        assert flows.net("cookiebot") == -2
        assert flows.gained("onetrust") == 2

    def test_loss_ratio_infinite_when_nothing_gained(self):
        flows = self.make_flows()
        assert flows.loss_ratio("cookiebot") == float("inf")

    def test_loss_ratio_zero_for_uninvolved(self):
        flows = self.make_flows()
        assert flows.loss_ratio("crownpeak") == 0.0

    def test_rows_cover_all_cmps(self):
        rows = self.make_flows().rows()
        assert len(rows) == 6

    def test_matrix_view(self):
        matrix = self.make_flows().matrix()
        assert matrix["cookiebot"]["onetrust"] == 1

    def test_distant_episodes_not_switches(self):
        observations = [
            obs("x.com", "2019-01-01", "cookiebot"),
            obs("x.com", "2019-01-10", "cookiebot"),
            # Long dark gap, then a different CMP: drop + re-adopt.
            obs("x.com", "2020-05-01", "onetrust"),
        ]
        tl = DomainTimeline.from_observations("x.com", observations)
        flows = SwitchingFlows.from_timelines({"x.com": tl})
        assert flows.total_switches == 0


class TestVantageTable:
    @pytest.fixture(scope="class")
    def table(self, study):
        return study.vantage_table(MAY, size=300)

    def test_eu_sees_more_than_us(self, table):
        assert table.total("eu-cloud") >= table.total("us-cloud")

    def test_university_sees_more_than_cloud(self, table):
        assert table.total("eu-univ-extended") >= table.total("eu-cloud")

    def test_coverage_ordering(self, table):
        assert table.coverage("us-cloud") <= table.coverage("eu-cloud")
        assert table.coverage(table.best_config) == 1.0

    def test_language_has_no_big_effect(self, table):
        de = table.total("eu-univ-de")
        gb = table.total("eu-univ-en-gb")
        assert abs(de - gb) <= max(2, int(0.05 * max(de, gb)))

    def test_format_table_renders(self, table):
        text = table.format_table()
        assert "OneTrust" in text and "Coverage" in text

    def test_config_without_captures_keeps_its_column(self, study):
        crawl = study.run_toplist_crawl(
            MAY, configs=("eu-cloud", "us-cloud"), size=60
        )
        crawl.rows = {
            "eu-cloud": crawl.rows["eu-cloud"],
            "idle": {},
            "us-cloud": crawl.rows["us-cloud"],
        }
        table = VantageTable.from_crawl(crawl)
        assert list(table.counts) == ["eu-cloud", "idle", "us-cloud"]
        assert table.counts["idle"] == Counter()
        assert table.cmp_domains["idle"] == frozenset()
        assert table.total("eu-cloud") > 0


class TestGvlAnalysisUnit:
    def test_needs_two_versions(self, gvl_history):
        with pytest.raises(ValueError):
            GvlAnalysis(gvl_history[:1])

    def test_vendor_series_monotone_dates(self, gvl_history):
        analysis = GvlAnalysis(gvl_history)
        series = analysis.vendor_count_series()
        dates = [d for d, _ in series]
        assert dates == sorted(dates)

    def test_purpose_series_shapes(self, gvl_history):
        analysis = GvlAnalysis(gvl_history)
        per_purpose = analysis.purpose_series()
        assert set(per_purpose) == {1, 2, 3, 4, 5}
        assert all(
            len(s) == len(gvl_history) for s in per_purpose.values()
        )

    def test_most_declared_purpose_is_one(self, gvl_history):
        assert GvlAnalysis(gvl_history).most_declared_purpose() == 1

    def test_membership_series(self, gvl_history):
        analysis = GvlAnalysis(gvl_history)
        series = analysis.membership_series()
        assert len(series) == len(gvl_history) - 1
        assert all(j >= 0 and l >= 0 for _, j, l in series)


class TestTimingStudies:
    @pytest.fixture(scope="class")
    def timing(self):
        return TimingStudy(run_quantcast_experiment(n_visitors=2910, seed=42))

    def test_reject_slower_without_direct_button(self, timing):
        direct = timing.median_time(DialogConfig.DIRECT_REJECT, "reject")
        options = timing.median_time(DialogConfig.MORE_OPTIONS, "reject")
        assert options > 1.5 * direct

    def test_consent_rate_rises_with_friction(self, timing):
        assert (
            timing.consent_rate(DialogConfig.MORE_OPTIONS)
            > timing.consent_rate(DialogConfig.DIRECT_REJECT)
        )

    def test_tests_significant(self, timing):
        t1 = timing.accept_vs_reject_test(DialogConfig.DIRECT_REJECT)
        t2 = timing.accept_vs_reject_test(DialogConfig.MORE_OPTIONS)
        assert t1.significant(0.01)
        assert t2.significant(0.001)
        assert abs(t2.z) > abs(t1.z)

    def test_summary_keys(self, timing):
        summary = timing.summary()
        assert set(summary) >= {
            "direct/accept-median",
            "options/reject-median",
            "direct/consent-rate",
            "options/z",
        }

    def test_optout_study_rows(self):
        study = OptOutStudy.run(n_runs=40, seed=9)
        rows = dict(study.rows())
        assert rows["median clicks to opt out"] >= 7
        assert rows["median opt-out duration (s)"] > 25
        assert rows["median accept duration (s)"] < 2


class TestRelatedWork:
    def test_rows(self):
        rows = comparison_rows()
        assert len(rows) == 6

    def test_snapshots_flagged(self):
        rows = comparison_rows()
        snapshot_names = {
            r.study.name for r in rows if r.is_snapshot
        }
        assert "Utz et al." in snapshot_names
        assert "Hils et al. (this paper)" not in snapshot_names

    def test_figure1_series(self):
        series = figure1_series()
        assert any(n == 4_200_000 for _, n, _ in series)

    def test_dominance(self):
        assert this_paper_dominates()
