"""Targeted coverage for smaller surfaces: stream iteration, platform
callbacks, CLI subcommands, store queries."""

import datetime as dt

import pytest

from repro.cli import main as cli_main
from repro.crawler.platform import NetographPlatform
from repro.crawler.seeds import SocialShareStream, StreamConfig


class TestStreamIteration:
    def test_batch_events_fall_on_their_day(self, world):
        stream = SocialShareStream(
            world, StreamConfig(seed=2, events_per_day=50)
        )
        for offset in range(3):
            day = dt.date(2020, 4, 1) + dt.timedelta(days=offset)
            batch = stream.events_for_day(day)
            assert batch.ordinal == day.toordinal()
            assert {e.at.date() for e in batch} == {day}
            assert [batch.at(i) for i in range(len(batch))] == [
                e.at for e in batch
            ]

    def test_empty_row_selection(self, world):
        stream = SocialShareStream(world)
        batch = stream.events_for_day(dt.date(2020, 4, 1), rows=())
        assert len(batch) == 0
        assert list(batch) == []


class TestPlatformCallbacks:
    def test_on_day_called_per_day(self, study):
        platform = NetographPlatform(study.world)
        days = []
        platform.run(
            dt.date(2020, 4, 1),
            dt.date(2020, 4, 4),
            on_day=days.append,
        )
        assert days == [
            dt.date(2020, 4, 1),
            dt.date(2020, 4, 2),
            dt.date(2020, 4, 3),
        ]


class TestStoreQueries:
    def test_observations_for_unknown_domain(self, social_store):
        assert social_store.domain_day_rows(["nope.example"]) == {}


class TestCliSubcommands:
    def test_gvl(self, capsys):
        rc = cli_main(["--domains", "1000", "gvl"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "vendors" in out
        assert "net LI -> consent" in out

    def test_timing(self, capsys):
        rc = cli_main(["--domains", "1000", "timing"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "consent-rate" in out or "consent" in out
        assert "opt-out" in out

    def test_compliance(self, capsys):
        rc = cli_main(
            ["--domains", "2000", "--toplist", "300", "compliance"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "asymmetric-choice" in out

    def test_burden(self, capsys):
        rc = cli_main(
            ["--domains", "2000", "burden", "--visits", "200"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "global" in out and "service" in out

    def test_seed_changes_output(self, capsys):
        cli_main(["--seed", "1", "--domains", "1000", "--toplist", "200",
                  "table1"])
        out1 = capsys.readouterr().out
        cli_main(["--seed", "2", "--domains", "1000", "--toplist", "200",
                  "table1"])
        out2 = capsys.readouterr().out
        assert out1 != out2
