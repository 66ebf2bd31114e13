"""Interpolation, fade-out and the adoption series (Figure 6 machinery)."""

import datetime as dt

import pytest

from repro.core.adoption import (
    FADE_OUT_DAYS,
    AdoptionSeries,
    DomainTimeline,
    daily_share_consistency,
    month_starts,
)
from repro.crawler.capture import EU_CLOUD, Observation


def obs(day, cmp_key=None, domain="example.com"):
    return Observation(
        domain=domain,
        date=dt.date.fromisoformat(day),
        cmp_key=cmp_key,
        vantage=EU_CLOUD,
    )


def timeline(*observations):
    return DomainTimeline.from_observations("example.com", observations)


def day_rows(by_domain):
    """``domain -> (date_ordinal, cmp_key)`` rows of observation lists."""
    return {
        domain: [(o.date.toordinal(), o.cmp_key) for o in observations]
        for domain, observations in by_domain.items()
    }


class TestInterpolation:
    def test_equal_boundaries_interpolated(self):
        # The paper's example: Quantcast a month ago and today -> assume
        # Quantcast throughout.
        tl = timeline(
            obs("2020-01-01", "quantcast"), obs("2020-02-01", "quantcast")
        )
        assert tl.state_on(dt.date(2020, 1, 15)) == "quantcast"

    def test_disagreeing_boundaries_not_interpolated(self):
        tl = timeline(
            obs("2020-01-01", "quantcast"), obs("2020-02-01", "onetrust")
        )
        assert tl.state_on(dt.date(2020, 1, 1)) == "quantcast"
        assert tl.state_on(dt.date(2020, 1, 15)) is None
        assert tl.state_on(dt.date(2020, 2, 1)) == "onetrust"

    def test_none_to_cmp_not_interpolated(self):
        tl = timeline(obs("2020-01-01"), obs("2020-02-01", "quantcast"))
        assert tl.state_on(dt.date(2020, 1, 15)) is None

    def test_none_boundaries_stay_none(self):
        tl = timeline(obs("2020-01-01"), obs("2020-02-01"))
        assert tl.state_on(dt.date(2020, 1, 15)) is None

    def test_before_first_observation_unknown(self):
        tl = timeline(obs("2020-01-01", "quantcast"))
        assert tl.state_on(dt.date(2019, 12, 31)) is None


class TestFadeOut:
    def test_state_extends_30_days(self):
        tl = timeline(obs("2020-02-01", "quantcast"))
        assert tl.state_on(dt.date(2020, 2, 20)) == "quantcast"
        assert tl.state_on(
            dt.date(2020, 2, 1) + dt.timedelta(days=FADE_OUT_DAYS)
        ) == "quantcast"

    def test_state_fades_after_30_days(self):
        # The paper's example: last measured February 1st -> no CMP
        # presence assumed as of March 1st... strictly, after 30 days.
        tl = timeline(obs("2020-02-01", "quantcast"))
        assert tl.state_on(dt.date(2020, 3, 5)) is None

    def test_fadeout_applies_after_last_of_many(self):
        tl = timeline(
            obs("2020-01-01", "quantcast"), obs("2020-02-01", "quantcast")
        )
        assert tl.state_on(dt.date(2020, 2, 25)) == "quantcast"
        assert tl.state_on(dt.date(2020, 4, 1)) is None

    def test_fadeout_boundary_inclusive_convention(self):
        # Pins the audited "+ 1" in DomainTimeline.from_observations:
        # interval ends are exclusive, so the extension interval covers
        # the observation day plus exactly FADE_OUT_DAYS extra days.
        # Day last+30 is the final classified day; day last+31 is the
        # first unknown one.
        last = dt.date(2020, 2, 1)
        tl = timeline(obs("2020-02-01", "quantcast"))
        day_30 = last + dt.timedelta(days=30)
        day_31 = last + dt.timedelta(days=31)
        assert FADE_OUT_DAYS == 30
        assert tl.state_on(day_30) == "quantcast"
        assert tl.state_on(day_31) is None
        (interval,) = tl.intervals
        assert interval.end - interval.start == dt.timedelta(
            days=FADE_OUT_DAYS + 1
        )

    def test_fadeout_boundary_for_no_cmp_state(self):
        # The convention applies to the "no CMP" state symmetrically:
        # intervals record None explicitly, and state_on returns None
        # both inside and past the horizon (absence vs. unknown both
        # count as absence, like the paper's counting).
        last = dt.date(2020, 2, 1)
        tl = timeline(obs("2020-02-01"))
        (interval,) = tl.intervals
        assert interval.cmp_key is None
        assert interval.end == last + dt.timedelta(days=FADE_OUT_DAYS + 1)

    def test_fadeout_zero_keeps_observation_day(self):
        # fade_out_days=0 (the ablation knob) must still classify the
        # observation day itself -- the "+ 1" is what keeps it alive.
        tl = DomainTimeline.from_observations(
            "example.com", [obs("2020-02-01", "quantcast")], fade_out_days=0
        )
        assert tl.state_on(dt.date(2020, 2, 1)) == "quantcast"
        assert tl.state_on(dt.date(2020, 2, 2)) is None


class TestDailyAggregation:
    def test_third_capture_heuristic(self):
        # 1 of 3 captures with the CMP on one day -> counts as using it.
        tl = timeline(
            obs("2020-01-01", "quantcast"),
            obs("2020-01-01"),
            obs("2020-01-01"),
        )
        assert tl.state_on(dt.date(2020, 1, 1)) == "quantcast"

    def test_below_threshold_is_no_cmp(self):
        tl = timeline(
            obs("2020-01-01", "quantcast"),
            obs("2020-01-01"),
            obs("2020-01-01"),
            obs("2020-01-01"),
        )
        assert tl.state_on(dt.date(2020, 1, 1)) is None

    def test_majority_cmp_wins_the_day(self):
        tl = timeline(
            obs("2020-01-01", "onetrust"),
            obs("2020-01-01", "onetrust"),
            obs("2020-01-01", "quantcast"),
        )
        assert tl.state_on(dt.date(2020, 1, 1)) == "onetrust"

    def test_empty_timeline(self):
        tl = timeline()
        assert tl.state_on(dt.date(2020, 1, 1)) is None
        assert tl.first_observed is None


class TestCmpStints:
    def test_single_stint(self):
        tl = timeline(
            obs("2020-01-01", "quantcast"), obs("2020-02-01", "quantcast")
        )
        stints = tl.cmp_stints
        assert len(stints) == 1
        assert stints[0][0] == "quantcast"

    def test_switch_produces_two_stints(self):
        tl = timeline(
            obs("2020-01-01", "cookiebot"),
            obs("2020-01-20", "cookiebot"),
            obs("2020-02-01", "onetrust"),
            obs("2020-03-01", "onetrust"),
        )
        assert [s[0] for s in tl.cmp_stints] == ["cookiebot", "onetrust"]


class TestAdoptionSeries:
    def make_series(self):
        by_domain = {
            "a.com": [
                obs("2020-01-01", "quantcast", "a.com"),
                obs("2020-03-01", "quantcast", "a.com"),
            ],
            "b.com": [
                obs("2020-02-01", "onetrust", "b.com"),
                obs("2020-03-01", "onetrust", "b.com"),
            ],
            "c.com": [obs("2020-01-01", None, "c.com")],
        }
        return AdoptionSeries.from_day_rows(day_rows(by_domain))

    def test_counts_on(self):
        series = self.make_series()
        counts = series.counts_on(dt.date(2020, 2, 15))
        assert counts == {"quantcast": 1, "onetrust": 1}

    def test_total_on(self):
        series = self.make_series()
        assert series.total_on(dt.date(2020, 1, 15)) == 1
        assert series.total_on(dt.date(2020, 6, 1)) == 0  # faded out

    def test_restriction(self):
        by_domain = {
            "a.com": [obs("2020-01-01", "quantcast", "a.com")],
            "b.com": [obs("2020-01-01", "onetrust", "b.com")],
        }
        series = AdoptionSeries.from_day_rows(
            day_rows(by_domain), restrict_to=["a.com"]
        )
        assert set(series.timelines) == {"a.com"}

    def test_series_over_dates(self):
        series = self.make_series()
        points = series.series(
            [dt.date(2020, 1, 15), dt.date(2020, 2, 15)]
        )
        assert len(points) == 2
        assert points[0][1]["quantcast"] == 1


class TestConsistencyStat:
    DAY = dt.date(2020, 1, 1).toordinal()

    def test_consistent_domains(self):
        per_domain = {
            "a.com": [(self.DAY, "quantcast"), (self.DAY, "quantcast")],
            "b.com": [(self.DAY, None)],
        }
        assert daily_share_consistency(per_domain) == 1.0

    def test_mixed_domain_detected(self):
        per_domain = {"a.com": [(self.DAY, "quantcast"), (self.DAY, None)]}
        assert daily_share_consistency(per_domain) == 0.0

    def test_empty_domains_skipped(self):
        assert daily_share_consistency({"a.com": []}) == 1.0


class TestMonthStarts:
    def test_range(self):
        months = month_starts(dt.date(2018, 3, 1), dt.date(2018, 6, 15))
        assert months == [
            dt.date(2018, 3, 1),
            dt.date(2018, 4, 1),
            dt.date(2018, 5, 1),
            dt.date(2018, 6, 1),
        ]

    def test_midmonth_start(self):
        months = month_starts(dt.date(2018, 3, 15), dt.date(2018, 5, 1))
        assert months[0] == dt.date(2018, 4, 1)

    def test_year_boundary(self):
        months = month_starts(dt.date(2019, 12, 1), dt.date(2020, 1, 31))
        assert months == [dt.date(2019, 12, 1), dt.date(2020, 1, 1)]
