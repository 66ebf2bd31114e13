"""The Study facade and the event-timeline analysis."""

import datetime as dt

import pytest

from repro.core.pipeline import Study, StudyConfig
from repro.core.timeline import (
    event_impacts,
    law_effective_events_spike,
)
from repro.datasets import PRIVACY_LAW_EVENTS, Event


class TestStudyConfigValidation:
    @pytest.mark.parametrize(
        "knobs, field",
        [
            ({"parallelism": 0}, "parallelism"),
            ({"parallelism": -2}, "parallelism"),
            ({"memory_budget": 0}, "memory_budget"),
            ({"memory_budget": -1}, "memory_budget"),
            ({"backend": "fork"}, "backend"),
            ({"checkpoint_every_days": -1}, "checkpoint_every_days"),
            ({"backend": "thread"}, "backend"),
            ({"backend": "serial"}, "backend"),
            # No cache_dir: the checkpoints would have nowhere to go.
            ({"checkpoint_every_days": 2}, "checkpoint_every_days"),
        ],
    )
    def test_bad_execution_knob_fails_loudly(self, knobs, field):
        with pytest.raises(ValueError, match=field):
            StudyConfig(**knobs)

    def test_edge_values_accepted(self):
        config = StudyConfig(
            parallelism=1,
            memory_budget=1,
            backend="process",
            checkpoint_every_days=0,
        )
        assert config.memory_budget == 1
        assert StudyConfig(memory_budget=None).memory_budget is None
        assert StudyConfig(
            checkpoint_every_days=2, cache_dir="cache"
        ).checkpoint_every_days == 2


class TestStudyFacade:
    def test_toplist_domains_cached(self, study):
        assert study.toplist_domains is study.toplist_domains
        assert len(study.toplist_domains) == study.config.toplist_size

    def test_monthly_dates_span_study(self, study):
        dates = study.monthly_dates()
        assert dates[0] >= study.config.study_start
        assert dates[-1] <= study.config.study_end
        assert len(dates) >= 30

    def test_adoption_series_from_store(self, study, social_store):
        series = study.adoption_series(social_store, restrict_to_toplist=False)
        assert len(series.timelines) == social_store.unique_domains

    def test_restriction_to_toplist(self, study, social_store):
        series = study.adoption_series(social_store, restrict_to_toplist=True)
        assert set(series.timelines) <= set(study.toplist_domains)


class TestEventTimeline:
    @pytest.fixture(scope="class")
    def series(self):
        # A longer run over the GDPR and CCPA windows; small world.
        study = Study(
            StudyConfig(
                seed=11, n_domains=3_000, toplist_size=500,
                events_per_day=120,
            )
        )
        store = study.run_social_crawl(
            dt.date(2018, 3, 15), dt.date(2020, 3, 1)
        )
        return study.adoption_series(store, restrict_to_toplist=False)

    def test_impacts_computed_for_all_events(self, series):
        impacts = event_impacts(series)
        in_window = [
            e for e in PRIVACY_LAW_EVENTS if e.date < dt.date(2020, 2, 1)
        ]
        assert len(impacts) == len(PRIVACY_LAW_EVENTS)
        for impact in impacts:
            if impact.event in in_window:
                assert impact.after >= 0 and impact.before >= 0

    def test_gdpr_spike_detected(self, series):
        impacts = event_impacts(series)
        gdpr = next(
            i for i in impacts if "GDPR comes into effect" in i.event.label
        )
        assert gdpr.growth > 0
        assert gdpr.excess_growth > 0

    def test_law_spike_helper_raises_without_events(self, series):
        with pytest.raises(ValueError):
            law_effective_events_spike([])

    def test_enforcement_events_lower_than_laws(self, series):
        impacts = {i.event.label: i for i in event_impacts(series)}
        gdpr = impacts["GDPR comes into effect"]
        fine = impacts["CNIL fines Google 50M EUR"]
        assert gdpr.growth > fine.growth
