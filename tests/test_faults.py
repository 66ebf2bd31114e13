"""Unit tests for ``repro.faults`` -- schedules, retry policies, clocks,
tallies -- and their wiring into the probe and browser layers.

The end-to-end chaos invariants (fault-free bit-identity, transient
recovery, conservative degradation) live in
``tests/test_chaos_invariants.py``; this module locks the component
contracts they build on.
"""

import datetime as dt
import math
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.faults.retry as retry_module
import repro.faults.schedule as schedule_module
from repro.crawler.browser import crawl_url
from repro.crawler.capture import EU_CLOUD, EU_UNIVERSITY
from repro.faults import (
    FAULT_KINDS,
    CrashSpec,
    Fault,
    FaultSchedule,
    FaultSpec,
    FaultTally,
    RetryPolicy,
    SystemClock,
    VirtualClock,
    WorkerCrash,
    run_with_retries,
)
from repro.faults.inject import EXHAUSTED_REASON
from repro.net.probe import resolve_seed_url, resolve_toplist
from repro.net.url import URL
from repro.det import KeyedRand, key64
from tests.fault_oracle import oracle_afflicts, oracle_fault_for

NOON = dt.datetime(2020, 5, 15, 12)


# ---------------------------------------------------------------------------
# FaultSchedule
# ---------------------------------------------------------------------------


class TestFaultSchedule:
    def test_no_specs_never_faults(self):
        schedule = FaultSchedule(seed=1)
        for attempt in range(5):
            assert schedule.fault_for("x.com", "EU-cloud", attempt) is None

    def test_rate_one_afflicts_everyone(self):
        schedule = FaultSchedule(
            seed=1, specs=(FaultSpec("dns-error", rate=1.0),)
        )
        assert schedule.fault_for("x.com", "EU-cloud", 0) == Fault("dns-error")

    def test_transient_fault_clears_after_attempts(self):
        schedule = FaultSchedule(
            seed=1, specs=(FaultSpec("dns-error", rate=1.0, attempts=2),)
        )
        assert schedule.fault_for("x.com", "EU-cloud", 0) is not None
        assert schedule.fault_for("x.com", "EU-cloud", 1) is not None
        assert schedule.fault_for("x.com", "EU-cloud", 2) is None

    def test_persistent_fault_never_clears(self):
        schedule = FaultSchedule(
            seed=1,
            specs=(FaultSpec("antibot-challenge", rate=1.0, persistent=True),),
        )
        assert schedule.fault_for("x.com", "EU-cloud", 99) is not None
        assert not schedule.transient_only

    def test_decisions_are_deterministic_and_key_dependent(self):
        schedule = FaultSchedule(
            seed=3, specs=(FaultSpec("connection-reset", rate=0.5),)
        )
        domains = [f"site{i}.com" for i in range(200)]
        first = [schedule.fault_for(d, "EU-cloud", 0) for d in domains]
        second = [schedule.fault_for(d, "EU-cloud", 0) for d in domains]
        assert first == second
        afflicted = sum(1 for f in first if f is not None)
        # rate=0.5 over 200 keys: both outcomes must actually occur.
        assert 0 < afflicted < 200

    def test_vantage_is_part_of_the_key(self):
        schedule = FaultSchedule(
            seed=3, specs=(FaultSpec("connection-reset", rate=0.5),)
        )
        domains = [f"site{i}.com" for i in range(200)]
        eu = [schedule.fault_for(d, "EU-cloud", 0) for d in domains]
        us = [schedule.fault_for(d, "US-cloud", 0) for d in domains]
        assert eu != us

    def test_first_afflicted_spec_wins(self):
        schedule = FaultSchedule(
            seed=1,
            specs=(
                FaultSpec("slow-response", rate=1.0),
                FaultSpec("dns-error", rate=1.0),
            ),
        )
        assert schedule.fault_for("x.com", "EU-cloud", 0) == Fault(
            "slow-response"
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("cosmic-ray", rate=0.5)

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("dns-error", rate=1.5)
        with pytest.raises(ValueError):
            CrashSpec(rate=-0.1)

    def test_crash_point_is_deterministic_and_in_range(self):
        schedule = FaultSchedule(seed=5, crash=CrashSpec(rate=1.0))
        point = schedule.crash_point(0, 10, 0)
        assert point is not None and 0 <= point < 10
        assert schedule.crash_point(0, 10, 0) == point

    def test_crash_point_respects_attempt_budget(self):
        schedule = FaultSchedule(
            seed=5, crash=CrashSpec(rate=1.0, attempts=2)
        )
        assert schedule.crash_point(0, 10, 0) is not None
        assert schedule.crash_point(0, 10, 1) is not None
        assert schedule.crash_point(0, 10, 2) is None

    def test_no_crash_spec_or_empty_shard(self):
        assert FaultSchedule(seed=5).crash_point(0, 10, 0) is None
        schedule = FaultSchedule(seed=5, crash=CrashSpec(rate=1.0))
        assert schedule.crash_point(0, 0, 0) is None

    def test_crash_rate_spares_some_shards(self):
        schedule = FaultSchedule(seed=5, crash=CrashSpec(rate=0.5))
        points = [schedule.crash_point(s, 10, 0) for s in range(100)]
        crashed = sum(1 for p in points if p is not None)
        assert 0 < crashed < 100

    def test_crash_draws_are_keyed_on_seed_shard_and_attempt(self):
        schedule = FaultSchedule(seed=5, crash=CrashSpec(rate=0.5, attempts=3))
        for shard in range(40):
            key = key64(5, "crash", shard)
            afflicted = KeyedRand(key).random() < 0.5
            for attempt in range(3):
                expected = (
                    KeyedRand(key64(5, "crash", shard, attempt)).randrange(7)
                    if afflicted
                    else None
                )
                assert schedule.crash_point(shard, 7, attempt) == expected


# ---------------------------------------------------------------------------
# Keyed affliction: one draw per (seed, kind, domain, vantage)
# ---------------------------------------------------------------------------


def afflicted_keys(schedule, spec, keys):
    """The keys of *keys* that *spec* of *schedule* afflicts."""
    return {key for key in keys if spec in schedule._afflicting(*key)}


class TestKeyedAffliction:
    def test_rate_is_the_afflicted_fraction(self):
        spec = FaultSpec("dns-error", rate=0.1)
        schedule = FaultSchedule(seed=13, specs=(spec,))
        n = 20_000
        keys = [(f"site{i}.com", "EU-cloud") for i in range(n)]
        fraction = len(afflicted_keys(schedule, spec, keys)) / n
        sigma = math.sqrt(0.1 * 0.9 / n)
        assert abs(fraction - 0.1) < 5 * sigma

    def test_a_spec_afflicts_the_same_keys_in_any_schedule(self):
        spec = FaultSpec("dns-error", rate=0.3)
        other = FaultSpec("connection-reset", rate=0.5, attempts=2)
        keys = [
            (f"site{i}.com", vantage)
            for i in range(500)
            for vantage in ("EU-cloud", "US-university")
        ]
        alone, first, second = (
            afflicted_keys(FaultSchedule(seed=13, specs=specs), spec, keys)
            for specs in ((spec,), (spec, other), (other, spec))
        )
        assert alone == first == second
        assert 0 < len(alone) < len(keys)
        assert alone == {
            key for key in keys if oracle_afflicts(13, "dns-error", 0.3, *key)
        }

    def test_kinds_draw_apart(self):
        """Two specs of one rate but different kinds afflict different
        keys: each kind salts its own draw."""
        specs = (
            FaultSpec("dns-error", rate=0.3),
            FaultSpec("slow-response", rate=0.3),
        )
        schedule = FaultSchedule(seed=13, specs=specs)
        keys = [(f"site{i}.com", "EU-cloud") for i in range(500)]
        dns, slow = (afflicted_keys(schedule, spec, keys) for spec in specs)
        assert dns and slow and dns != slow

    def test_the_seed_is_part_of_the_key(self):
        spec = FaultSpec("connection-reset", rate=0.1)
        keys = [(f"site{i}.com", "EU-cloud") for i in range(2_000)]
        by_seed = [
            afflicted_keys(FaultSchedule(seed=seed, specs=(spec,)), spec, keys)
            for seed in (13, 14)
        ]
        assert by_seed[0] and by_seed[1] and by_seed[0] != by_seed[1]


# ---------------------------------------------------------------------------
# The affliction memo: fault_for draws each key once per process
# ---------------------------------------------------------------------------

_spec = st.builds(
    FaultSpec,
    kind=st.sampled_from(FAULT_KINDS),
    rate=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    attempts=st.integers(1, 3),
    persistent=st.booleans(),
)
_VANTAGES = ("EU-cloud", "US-cloud", "EU-university", "probe")


def _populated(schedule: FaultSchedule) -> FaultSchedule:
    for i in range(50):
        for vantage in _VANTAGES:
            for attempt in range(3):
                schedule.fault_for(f"site{i}.com", vantage, attempt)
    return schedule


class TestAfflictionMemo:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        specs=st.lists(_spec, min_size=1, max_size=3).map(tuple),
        lookups=st.lists(
            st.tuples(
                st.integers(0, 12),
                st.sampled_from(_VANTAGES),
                st.integers(0, 5),
            ),
            min_size=1,
            max_size=60,
        ),
    )
    def test_matches_the_per_call_derivation(self, seed, specs, lookups):
        """Every answer, repeated keys and attempts past the budget
        included, equals the oracle's fresh per-call draws."""
        schedule = FaultSchedule(seed=seed, specs=specs)
        for rank, vantage, attempt in lookups:
            domain = f"site{rank}.com"
            assert schedule.fault_for(
                domain, vantage, attempt
            ) == oracle_fault_for(schedule, domain, vantage, attempt)
        keys = {(f"site{r}.com", v) for r, v, _a in lookups}
        counts = schedule.memo_counts()
        assert sum(c.entries for c in counts.values()) == len(keys)
        assert sum(c.hits + c.misses for c in counts.values()) == len(
            lookups
        )

    def test_each_key_is_drawn_once(self, monkeypatch):
        schedule = FaultSchedule(
            seed=4,
            specs=(
                FaultSpec("dns-error", rate=0.5),
                FaultSpec("connection-reset", rate=0.5, attempts=2),
            ),
        )
        folded = []
        real = schedule_module.fold64

        def counting(prefix, *parts):
            folded.append(parts)
            return real(prefix, *parts)

        monkeypatch.setattr(schedule_module, "fold64", counting)
        for attempt in range(4):
            for i in range(20):
                schedule.fault_for(f"site{i}.com", "EU-cloud", attempt)
        # One fold per key, shared by both specs' draws.
        assert folded == [(f"site{i}.com", "EU-cloud") for i in range(20)]

    def test_unafflicted_keys_share_one_empty_tuple(self):
        schedule = _populated(
            FaultSchedule(seed=2, specs=(FaultSpec("dns-error", rate=0.2),))
        )
        values = [
            value
            for memo in schedule._afflicted.values()
            for value in memo._data.values()
            if not value
        ]
        assert values and all(value is values[0] for value in values)

    def test_memo_is_not_part_of_the_value(self):
        specs = (
            FaultSpec("dns-error", rate=0.3),
            FaultSpec("antibot-challenge", rate=0.2, persistent=True),
        )
        fresh = FaultSchedule(seed=9, specs=specs, crash=CrashSpec(0.5))
        used = _populated(
            FaultSchedule(seed=9, specs=specs, crash=CrashSpec(0.5))
        )
        assert sum(c.entries for c in used.memo_counts().values()) == 200
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert used.digest() == fresh.digest()
        assert pickle.dumps(used) == pickle.dumps(fresh)
        # An unpickled copy starts with an empty memo and answers alike.
        copy = pickle.loads(pickle.dumps(used))
        assert copy == used and copy.memo_counts() == {}
        assert copy.fault_for("site3.com", "probe", 0) == used.fault_for(
            "site3.com", "probe", 0
        )

    def test_bound_holds_under_churn_and_answers_stay_exact(
        self, monkeypatch
    ):
        monkeypatch.setattr(schedule_module, "AFFLICTION_MEMO_SIZE", 16)
        monkeypatch.setattr(schedule_module, "MEMO_VANTAGES", 2)
        schedule = FaultSchedule(
            seed=6,
            specs=(
                FaultSpec("slow-response", rate=0.4, attempts=2),
                FaultSpec("dns-error", rate=0.6),
            ),
        )
        vantages = ("EU-cloud", "US-cloud", "EU-university")
        for round_no in range(3):
            for i in range(100):
                domain = f"site{(i * 7 + round_no) % 61}.com"
                for vantage in vantages:
                    attempt = (i + round_no) % 4
                    assert schedule.fault_for(
                        domain, vantage, attempt
                    ) == oracle_fault_for(schedule, domain, vantage, attempt)
            counts = schedule.memo_counts()
            # The third label is never memoized, the others stay bounded.
            assert sorted(counts) == ["EU-cloud", "US-cloud"]
            assert all(c.entries <= 16 for c in counts.values())
        assert all(c.evictions > 0 for c in counts.values())

    def test_worker_crawls_give_the_serial_store(self):
        """A 2-worker faulted crawl (each worker fills its own memo from
        an unpickled schedule) stores the serial crawl's rows, and the
        platform publishes both sides' memo counters."""
        from repro.core.pipeline import Study, StudyConfig
        from repro.crawler.platform import NetographPlatform, PlatformConfig
        from repro.crawler.storage import store_digest
        from repro.obs import Observability

        schedule = FaultSchedule(
            seed=13,
            specs=(
                FaultSpec("dns-error", rate=0.1),
                FaultSpec("connection-reset", rate=0.1, attempts=2),
            ),
        )
        world = Study(StudyConfig(seed=5, n_domains=1_500)).world
        start = dt.date(2020, 3, 1)
        end = start + dt.timedelta(days=4)
        digests, gauges = [], []
        for workers in (1, 2):
            obs = Observability()
            config = PlatformConfig(
                faults=FaultSchedule(schedule.seed, schedule.specs),
                retry=RetryPolicy(max_retries=5, jitter=0.0),
            )
            platform = NetographPlatform(world, config=config, obs=obs)
            store = platform.run(start, end, workers=workers)
            assert platform.stats.faults.injected > 0
            digests.append(store_digest(store))
            gauges.append(
                {
                    (r["metric"], r["labels"]["vantage"]): r["value"]
                    for r in obs.metrics.snapshot()
                    if r["metric"].startswith("fault_memo_")
                }
            )
            if workers == 2:
                # The workers did every lookup; the parent's copy none.
                assert config.faults.memo_counts() == {}
        assert digests[0] == digests[1]
        # Both runs drew every key once; the partitioned one per worker.
        assert gauges[0] == gauges[1]
        assert gauges[0][("fault_memo_entries", "EU-cloud")] > 0
        assert gauges[0][("fault_memo_hits", "EU-cloud")] > 0


# ---------------------------------------------------------------------------
# Clocks
# ---------------------------------------------------------------------------


class RecordingClock(VirtualClock):
    """A virtual clock that also records every sleep request, in order:
    the probe for tests that check which backoff delays were taken."""

    __slots__ = ("sleeps",)

    def __init__(self) -> None:
        super().__init__()
        self.sleeps = []

    def sleep(self, seconds: float) -> None:
        super().sleep(seconds)
        self.sleeps.append(seconds)


class TestClocks:
    def test_virtual_clock_accumulates(self):
        clock = RecordingClock()
        clock.sleep(0.5)
        clock.sleep(1.25)
        assert clock.slept == pytest.approx(1.75)
        assert clock.n_sleeps == 2
        assert clock.sleeps == [0.5, 1.25]

    def test_virtual_clock_size_does_not_grow_with_sleeps(self):
        clock = VirtualClock()
        clock.sleep(0.01)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(10_000):
                clock.sleep(0.01)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert not hasattr(clock, "__dict__")
        assert grown < 1_024
        assert clock.n_sleeps == 10_001
        assert clock.slept == pytest.approx(100.01)

    def test_virtual_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().sleep(-1)

    def test_system_clock_skips_nonpositive(self):
        # Must return immediately -- a real wait would hang the suite.
        SystemClock().sleep(0)
        SystemClock().sleep(-5)


# ---------------------------------------------------------------------------
# RetryPolicy (the hypothesis contract tests live in test_properties.py)
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_schedule_without_jitter_is_the_capped_curve(self):
        policy = RetryPolicy(
            max_retries=5, base_delay=1.0, multiplier=2.0, max_delay=6.0,
            jitter=0.0,
        )
        assert policy.schedule("k") == (1.0, 2.0, 4.0, 6.0, 6.0)

    def test_delay_matches_schedule(self):
        policy = RetryPolicy(max_retries=3, seed=9)
        schedule = policy.schedule("x.com")
        assert [policy.delay("x.com", n) for n in (1, 2, 3)] == list(schedule)

    def test_delay_rejects_out_of_range_attempts(self):
        policy = RetryPolicy(max_retries=2)
        with pytest.raises(ValueError):
            policy.delay("k", 0)
        with pytest.raises(ValueError):
            policy.delay("k", 3)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)

    def test_zero_retries_means_empty_schedule(self):
        assert RetryPolicy(max_retries=0).schedule("k") == ()

    def test_delays_are_the_schedule_derived_one_at_a_time(self, monkeypatch):
        draws = count_retry_draws(monkeypatch)
        policy = RetryPolicy(max_retries=4, base_delay=0.3, seed=5)
        delays = policy.delays("x.com")
        assert draws == []
        first = next(delays)
        assert draws == [key64(5, "retry", "x.com")]
        assert (first, *delays) == policy.schedule("x.com")
        draws.clear()
        assert policy.delay("x.com", 2) == policy.schedule("x.com")[1]
        assert len(draws) == 2 + 4  # delay() stops at retry 2

    def test_jitter_is_the_keyed_stream_of_seed_and_key(self):
        policy = RetryPolicy(
            max_retries=4, base_delay=1.0, multiplier=1.0, max_delay=2.0,
            jitter=0.5, seed=9,
        )
        rng = KeyedRand(key64(9, "retry", "k"))
        factors = [1.0 + 0.5 * (2.0 * rng.random() - 1.0) for _ in range(4)]
        expected, previous = [], 0.0
        for factor in factors:
            previous = max(previous, min(factor, 2.0))
            expected.append(previous)
        assert policy.schedule("k") == tuple(expected)
        assert policy.schedule("k") != policy.schedule("k2")
        assert policy.schedule("k") != RetryPolicy(
            max_retries=4, base_delay=1.0, multiplier=1.0, max_delay=2.0,
            jitter=0.5, seed=10,
        ).schedule("k")


def count_retry_draws(monkeypatch):
    """Record the key of every jitter draw ``repro.faults.retry`` makes."""
    draws = []

    class CountingRand(KeyedRand):
        __slots__ = ()

        def random(self):
            draws.append(self._key)
            return super().random()

    monkeypatch.setattr(retry_module, "KeyedRand", CountingRand)
    return draws


# ---------------------------------------------------------------------------
# FaultTally / run_with_retries
# ---------------------------------------------------------------------------


class TestRunWithRetries:
    def _flaky(self, fail_first):
        """A result factory faulted on its first *fail_first* attempts."""

        class Result:
            def __init__(self, attempt):
                self.attempt = attempt
                self.fault = "dns-error" if attempt < fail_first else None

        return lambda attempt: Result(attempt)

    def test_fault_free_result_returns_immediately(self):
        tally = FaultTally()
        clock = VirtualClock()
        result = run_with_retries(
            self._flaky(0), key="k", policy=RetryPolicy(), clock=clock,
            tally=tally,
        )
        assert result.attempt == 0
        assert clock.slept == 0.0
        assert tally.injected == 0

    def test_recovery_within_budget(self):
        policy = RetryPolicy(max_retries=3, jitter=0.0, base_delay=1.0)
        tally = FaultTally()
        clock = RecordingClock()
        result = run_with_retries(
            self._flaky(2), key="k", policy=policy, clock=clock, tally=tally
        )
        assert result.attempt == 2 and result.fault is None
        assert tally.by_kind == {"dns-error": 2}
        assert (tally.retries, tally.recovered, tally.exhausted) == (2, 1, 0)
        # Backoff consumed exactly the schedule prefix, virtually.
        assert clock.sleeps == list(policy.schedule("k"))[:2]

    def test_exhaustion_returns_last_faulted_result(self):
        policy = RetryPolicy(max_retries=2, jitter=0.0)
        tally = FaultTally()
        result = run_with_retries(
            self._flaky(10), key="k", policy=policy, tally=tally
        )
        assert result.fault == "dns-error"
        assert (tally.retries, tally.recovered, tally.exhausted) == (2, 0, 1)
        assert tally.injected == 3  # initial try + 2 retries

    def test_first_retry_recovery_seeds_one_rng(self, monkeypatch):
        draws = count_retry_draws(monkeypatch)
        policy = RetryPolicy(
            max_retries=5, base_delay=0.01, max_delay=0.1, jitter=0.1
        )
        tally = FaultTally()
        clock = RecordingClock()
        result = run_with_retries(
            self._flaky(1), key="k", policy=policy, clock=clock, tally=tally
        )
        assert result.attempt == 1 and result.fault is None
        assert (tally.retries, tally.recovered) == (1, 1)
        assert draws == [key64(0, "retry", "k")]
        assert clock.sleeps == [policy.delay("k", 1)]

    def test_no_policy_means_no_retries(self):
        tally = FaultTally()
        result = run_with_retries(self._flaky(1), key="k", tally=tally)
        assert result.fault == "dns-error"
        assert (tally.retries, tally.exhausted) == (0, 1)

    def test_tally_merge_and_skip_reasons(self):
        a = FaultTally(by_kind={"dns-error": 2}, retries=3, recovered=1,
                       exhausted=1)
        b = FaultTally(by_kind={"dns-error": 1, "slow-response": 4},
                       retries=2, recovered=2, exhausted=0)
        a.merge(b)
        assert a.by_kind == {"dns-error": 3, "slow-response": 4}
        assert (a.retries, a.recovered, a.exhausted) == (5, 3, 1)
        assert a.skip_reasons() == {EXHAUSTED_REASON: 1}
        assert FaultTally().skip_reasons() == {}
        assert "7 faults injected" in a.summary()

    def test_worker_crash_pickles(self):
        import pickle

        crash = WorkerCrash(3, done=17, checkpoint={"partial": True})
        clone = pickle.loads(pickle.dumps(crash))
        assert (clone.shard_id, clone.done) == (3, 17)
        assert clone.checkpoint == {"partial": True}
        assert "shard 3" in str(clone)


# ---------------------------------------------------------------------------
# Browser-layer injection
# ---------------------------------------------------------------------------


class TestBrowserFaults:
    def _crawl(self, world, kind, attempt=0):
        site = world.site(5)
        schedule = FaultSchedule(
            seed=1, specs=(FaultSpec(kind, rate=1.0, persistent=True),)
        )
        return crawl_url(
            world,
            URL.parse(f"https://www.{site.domain}/"),
            when=NOON,
            vantage=EU_UNIVERSITY,
            faults=schedule,
            attempt=attempt,
        )

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_faulted_captures_are_conservative(self, world, kind):
        capture = self._crawl(world, kind)
        assert capture.fault == kind
        assert not capture.succeeded
        assert capture.cookies == ()
        assert capture.storage_records == ()
        # No CMP fingerprint can survive a faulted capture.
        assert capture.transactions == ()

    def test_fault_kinds_shape_the_capture(self, world):
        assert self._crawl(world, "slow-response").timed_out
        antibot = self._crawl(world, "antibot-challenge")
        assert antibot.status == 403 and antibot.blocked_by_antibot
        assert self._crawl(world, "dns-error").status is None

    def test_cleared_fault_renders_identically_to_fault_free(self, world):
        site = world.site(5)
        url = URL.parse(f"https://www.{site.domain}/")
        schedule = FaultSchedule(
            seed=1, specs=(FaultSpec("dns-error", rate=1.0, attempts=1),)
        )
        organic = crawl_url(world, url, when=NOON, vantage=EU_UNIVERSITY)
        retried = crawl_url(
            world, url, when=NOON, vantage=EU_UNIVERSITY,
            faults=schedule, attempt=1,
        )
        assert retried == organic

    def test_no_schedule_leaves_capture_unmarked(self, world):
        site = world.site(5)
        capture = crawl_url(
            world,
            URL.parse(f"https://www.{site.domain}/"),
            when=NOON,
            vantage=EU_CLOUD,
        )
        assert capture.fault is None


# ---------------------------------------------------------------------------
# Probe-layer injection
# ---------------------------------------------------------------------------


class _SteadyOracle:
    """TLS always works; records how often it was asked."""

    def __init__(self):
        self.calls = []

    def tls_ok(self, host, attempt):
        self.calls.append((host, attempt))
        return True

    def tcp80_ok(self, host, attempt):
        return False


class TestProbeFaults:
    def test_faulted_tries_never_reach_the_oracle(self):
        schedule = FaultSchedule(
            seed=1, specs=(FaultSpec("dns-error", rate=1.0, attempts=1),)
        )
        oracle = _SteadyOracle()
        result = resolve_seed_url("x.com", oracle, attempts=3,
                                  faults=schedule)
        # Try 1 burnt by the fault; the oracle sees attempt 1 on try 2.
        assert result.succeeded_on_attempt == 2
        assert result.method == "https-www"
        assert oracle.calls == [("www.x.com", 1)]

    def test_fault_free_prefix_means_identical_resolution(self, world):
        domains = [world.site(r).domain for r in range(1, 40)]
        baseline = resolve_toplist(domains, world, attempts=3)
        transient = FaultSchedule(
            seed=11,
            specs=(FaultSpec("connection-reset", rate=0.4, attempts=1),),
        )
        faulted = resolve_toplist(domains, world, attempts=3,
                                  faults=transient)
        for before, after in zip(baseline, faulted):
            if after.reachable:
                # Recovered probes resolve to the identical seed URL.
                assert after.seed_url == before.seed_url
                assert after.method == before.method
            else:
                # Conservatively lost, never changed.
                assert after.method == "unreachable"

    def test_permanent_probe_faults_lose_domains(self):
        schedule = FaultSchedule(
            seed=1,
            specs=(FaultSpec("dns-error", rate=1.0, persistent=True),),
        )
        oracle = _SteadyOracle()
        result = resolve_seed_url("x.com", oracle, attempts=3,
                                  faults=schedule)
        assert not result.reachable
        assert oracle.calls == []
