"""Hypothesis equivalence properties for the streaming path.

Random row feeds, random watermark cuts: the incremental accumulators
and the live expiring state must be byte-identical to the batch
derivations over the same prefix -- including after a checkpoint
save/restore cycle at the engine level.
"""

import datetime as dt
import json
import shutil
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adoption import AdoptionAccumulator, AdoptionSeries, DomainTimeline
from repro.core.marketshare import MarketShareAccumulator
from repro.core.vantage import VantageAccumulator, VantageTable
from repro.stream.state import LiveAdoptionState
from tests.store_oracle import store_from_rows

DOMAINS = [f"d{i}.example" for i in range(8)]
CMPS = [None, "onetrust", "quantcast", "cookiebot"]
CONFIGS = ["eu-univ", "us-univ", "eu-univ-extended"]
BASE = dt.date(2020, 1, 1).toordinal()

rows_st = st.lists(
    st.tuples(
        st.sampled_from(DOMAINS),
        st.integers(min_value=0, max_value=45),
        st.sampled_from(CMPS),
    ),
    max_size=120,
)


def _payload_bytes(payload) -> str:
    return json.dumps(payload, sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(rows=rows_st, cuts=st.tuples(st.floats(0, 1), st.floats(0, 1)))
def test_adoption_accumulator_matches_batch_at_any_cut(rows, cuts):
    """Incremental series == from_columnar over the same prefix, with a
    mid-feed snapshot to exercise the dirty-domain rebuild path."""
    mid, end = sorted(int(c * len(rows)) for c in cuts)
    acc = AdoptionAccumulator()
    for i, (domain, off, cmp_key) in enumerate(rows[:end]):
        acc.add(domain, BASE + off, cmp_key)
        if i + 1 == mid:
            acc.series()  # snapshot mid-feed; must not perturb later ones
    store = store_from_rows(
        (domain, BASE + off, cmp_key, 0) for domain, off, cmp_key in rows[:end]
    )
    batch = AdoptionSeries.from_columnar(store)
    assert _payload_bytes(acc.series().to_payload()) == _payload_bytes(
        batch.to_payload()
    )


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(CONFIGS),
            st.sampled_from(DOMAINS),
            st.sampled_from(CMPS),
        ),
        max_size=100,
    ),
    cut=st.floats(0, 1),
)
def test_vantage_accumulator_matches_batch_at_any_cut(rows, cut):
    prefix = rows[: int(cut * len(rows))]
    acc = VantageAccumulator()
    for config, domain, cmp_key in prefix:
        acc.add(config, domain, cmp_key)
    batch = VantageTable.from_stream_rows(prefix)
    assert _payload_bytes(acc.table().to_payload()) == _payload_bytes(
        batch.to_payload()
    )


@settings(max_examples=60, deadline=None)
@given(rows=rows_st, watermark=st.integers(min_value=0, max_value=50))
def test_live_state_matches_batch_timeline_at_watermark(rows, watermark):
    """The expiring-state view at watermark W equals, for every domain,
    the batch interpolated timeline built from the rows finalized by W."""
    live = LiveAdoptionState()
    for domain, off, cmp_key in rows:
        live.buffer_row(domain, BASE + off, cmp_key)
    live.finalize_through(BASE + watermark)

    when = dt.date.fromordinal(BASE + watermark)
    expected = Counter()
    for domain in DOMAINS:
        final = [
            (BASE + off, cmp_key)
            for d, off, cmp_key in rows
            if d == domain and off <= watermark
        ]
        state = DomainTimeline.from_day_rows(domain, final).state_on(when)
        assert live.state_of(domain) == state
        if state is not None:
            expected[state] += 1
    assert live.counts == expected


@settings(max_examples=40, deadline=None)
@given(
    rows=rows_st,
    w1=st.integers(min_value=0, max_value=50),
    w2=st.integers(min_value=0, max_value=50),
)
def test_live_state_watermark_cut_invariance(rows, w1, w2):
    """Finalizing in two steps (random interior cut) is identical to
    finalizing once -- the watermark is a pure cut point."""
    w1, w2 = sorted((w1, w2))
    stepped = LiveAdoptionState()
    direct = LiveAdoptionState()
    for domain, off, cmp_key in rows:
        stepped.buffer_row(domain, BASE + off, cmp_key)
        direct.buffer_row(domain, BASE + off, cmp_key)
    transitions = stepped.finalize_through(BASE + w1)
    transitions += stepped.finalize_through(BASE + w2)
    assert direct.finalize_through(BASE + w2) == transitions
    assert stepped.counts == direct.counts
    for domain in DOMAINS:
        assert stepped.state_of(domain) == direct.state_of(domain)
    assert stepped.n_pending_days == direct.n_pending_days


@settings(max_examples=40, deadline=None)
@given(rows=rows_st, watermark=st.integers(min_value=0, max_value=50))
def test_marketshare_accumulator_tracks_live_state(rows, watermark):
    """Feeding the live state's transitions into the O(1) accumulator
    reproduces the per-prefix counts computed from scratch."""
    ranks = {domain: i + 1 for i, domain in enumerate(DOMAINS)}
    sizes = [2, 5, len(DOMAINS)]
    live = LiveAdoptionState()
    acc = MarketShareAccumulator(ranks, sizes)
    for domain, off, cmp_key in rows:
        live.buffer_row(domain, BASE + off, cmp_key)
    for domain, old, new in live.finalize_through(BASE + watermark):
        acc.transition(domain, old, new)

    curve = acc.curve(dt.date.fromordinal(BASE + watermark))
    for i, size in enumerate(sizes):
        expected = Counter()
        for domain, rank in ranks.items():
            state = live.state_of(domain)
            if state is not None and rank <= size:
                expected[state] += 1
        for cmp_key, series in curve.counts.items():
            assert series[i] == expected.get(cmp_key, 0)


# ----------------------------------------------------------------------
# Engine-level: random checkpoint/resume cuts stay byte-identical
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def engine_ctx():
    """Shared world/cache for the engine-level property. One cache dir
    serves every example (checkpoints are keyed by watermark, so
    re-writing one is a deterministic overwrite); it is removed when
    the module's tests are done."""
    import dataclasses

    from repro.core.pipeline import Study, StudyConfig

    tmp = tempfile.mkdtemp(prefix="stream-prop-")
    cfg = StudyConfig(
        seed=23,
        n_domains=800,
        toplist_size=200,
        events_per_day=60,
        study_start=dt.date(2020, 3, 1),
        study_end=dt.date(2020, 3, 11),
    )
    yield dict(
        Study=Study,
        cfg=dataclasses.replace(cfg, cache_dir=tmp),
        batch_study=Study(cfg),
        batch_refs={},
        checkpoints={},
    )
    shutil.rmtree(tmp, ignore_errors=True)


def _batch_reference(ctx, end):
    ref = ctx["batch_refs"].get(end)
    if ref is None:
        from repro.crawler.storage import store_digest

        store = ctx["batch_study"].run_social_crawl(ctx["cfg"].study_start, end)
        series = ctx["batch_study"].adoption_series(store)
        ref = (store_digest(store), _payload_bytes(series.to_payload()))
        ctx["batch_refs"][end] = ref
    return ref


@settings(max_examples=6, deadline=None)
@given(cut=st.integers(min_value=1, max_value=8), extra=st.integers(1, 4))
def test_engine_checkpoint_resume_byte_identity(engine_ctx, cut, extra):
    """Checkpoint at a random day, resume in a fresh engine, run to a
    random later day: store digest and adoption payload match a batch
    run over the same window."""
    from repro.crawler.storage import store_digest

    ctx = engine_ctx
    start = ctx["cfg"].study_start
    checkpoint_day = start + dt.timedelta(days=cut)
    end = min(
        start + dt.timedelta(days=cut + extra), ctx["cfg"].study_end
    )

    if cut not in ctx["checkpoints"]:
        cold = ctx["Study"](ctx["cfg"]).streaming_engine()
        cold.run_until(checkpoint_day)
        assert cold.checkpoint() is not None
        ctx["checkpoints"][cut] = True

    resumed = ctx["Study"](ctx["cfg"]).streaming_engine(
        resume=True, watermark=checkpoint_day - dt.timedelta(days=1)
    )
    resumed.run_until(end)

    digest, adoption = _batch_reference(ctx, end)
    assert store_digest(resumed.store) == digest
    assert _payload_bytes(resumed.adoption_series().to_payload()) == adoption
