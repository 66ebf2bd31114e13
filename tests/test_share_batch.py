"""The columnar share stream: every ``ShareBatch`` column against the
per-event oracle (``tests/share_oracle.py``), across seeds and days."""

import datetime as dt

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crawler.seeds import SocialShareStream, StreamConfig
from repro.web.worldgen import World, WorldConfig
from tests.share_oracle import oracle_day_events

WORLD = World(WorldConfig(seed=11, n_domains=400))
FIRST_DAY = dt.date(2019, 6, 1)

_stream_config = st.builds(
    StreamConfig,
    seed=st.integers(0, 2**20),
    events_per_day=st.sampled_from([1, 9, 120, 600]),
    shortener_prob=st.sampled_from([0.06, 0.5]),
)
_day = st.integers(0, 900).map(lambda k: FIRST_DAY + dt.timedelta(days=k))


def columns(batch):
    return (
        batch.ordinal,
        batch.rows.tolist(),
        batch.urls,
        batch.seconds.tolist(),
        batch.twitter.tolist(),
    )


@settings(max_examples=40, deadline=None)
@given(config=_stream_config, day=_day)
def test_batch_columns_match_oracle(config, day):
    stream = SocialShareStream(WORLD, config)
    batch = stream.events_for_day(day)
    expected = list(oracle_day_events(stream, day))
    assert batch.ordinal == day.toordinal()
    assert batch.rows.tolist() == [row for row, _event in expected]
    assert batch.urls == [event.url for _row, event in expected]
    assert batch.seconds.tolist() == [
        event.at.hour * 3600 + event.at.minute * 60 + event.at.second
        for _row, event in expected
    ]
    assert batch.twitter.tolist() == [
        event.platform == "twitter" for _row, event in expected
    ]
    assert list(batch) == [event for _row, event in expected]


@settings(max_examples=40, deadline=None)
@given(config=_stream_config, day=_day, parts=st.integers(1, 5), data=st.data())
def test_row_selection_equals_taking_rows_of_full_batch(
    config, day, parts, data
):
    stream = SocialShareStream(WORLD, config)
    full = stream.events_for_day(day)
    # A partition's candidate rows, kept or skipped: skipped rows stay
    # skipped.
    part = data.draw(st.integers(0, parts - 1), label="part")
    wanted = set(stream.partition_rows(day, part, parts).tolist())
    positions = [i for i, row in enumerate(full.rows.tolist()) if row in wanted]
    selected = stream.events_for_day(day, part, parts)
    assert columns(selected) == columns(full.take(positions))
    events = list(full)
    assert list(selected) == [events[i] for i in positions]


def test_oracle_days_exercise_skips_and_shortener_links():
    """The pinned days really contain zero-weight skips and short links."""
    stream = SocialShareStream(WORLD, StreamConfig(seed=3, events_per_day=600))
    batch = stream.events_for_day(FIRST_DAY)
    assert len(batch) < 600  # some candidates landed on unshared sites
    assert batch.rows.tolist() == [row for row, _e in oracle_day_events(
        stream, FIRST_DAY
    )]
    assert any(url.host == WORLD.config.shortener_domain for url in batch.urls)
    assert batch.twitter.any() and not batch.twitter.all()


def test_take_selects_positions_in_order():
    batch = SocialShareStream(WORLD).events_for_day(FIRST_DAY)
    positions = [7, 3, 40]
    events = list(batch)
    assert list(batch.take(positions)) == [events[i] for i in positions]
    assert columns(batch.take(range(0))) == (batch.ordinal, [], [], [], [])
