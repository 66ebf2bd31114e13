"""Synthetic GVL history generator: shape and invariants."""

import datetime as dt
import hashlib
import json

import pytest

from repro.core.gvl_analysis import GvlAnalysis
from repro.tcf.gvlgen import GvlGenConfig, generate_gvl_history
from repro.tcf.purposes import PURPOSE_IDS

#: :func:`history_digest` of the full default-config history, by seed.
#: Any change to the draw order or to the vendors a draw produces shows
#: here.
PINNED_HISTORY_DIGESTS = {
    5: "3e7822020101fc8aa9aaa157c35b10b464b3f9f3b37203e943ae294a9c342cb7",
    7: "16c4c52c52e98c4f3a2d678ae7efccadb9554358f90511adca89970a4231f84f",
    20: "9de1d58d630fae9dddf212d608bedb6a1b9437623dd8045a0573bd5e64f30f44",
}


@pytest.fixture(scope="module")
def full_histories(full_gvl_history):
    """The full default-config history at every pinned seed (20 is the
    default)."""
    histories = {
        seed: generate_gvl_history(GvlGenConfig(seed=seed)) for seed in (5, 7)
    }
    histories[20] = full_gvl_history
    return histories


def history_digest(history):
    """sha256 over every version: its number and date, then each vendor
    in list order with the fields ``to_json()`` writes. Each distinct
    vendor is encoded once (``to_json``'s indented output needs the
    pure-Python JSON encoder, ~20x slower over a full history)."""
    rows = {}
    digest = hashlib.sha256()
    for version in history:
        digest.update(f"{version.version} {version.last_updated}\n".encode("utf-8"))
        for vendor in version.vendors:
            row = rows.get(vendor)
            if row is None:
                row = rows[vendor] = json.dumps(
                    [
                        vendor.id,
                        vendor.name,
                        vendor.policy_url,
                        sorted(vendor.purpose_ids),
                        sorted(vendor.leg_int_purpose_ids),
                        sorted(vendor.feature_ids),
                    ]
                ).encode("utf-8") + b"\n"
            digest.update(row)
    return digest.hexdigest()


class TestStructure:
    def test_versions_are_sequential(self, gvl_history):
        versions = [g.version for g in gvl_history]
        assert versions == list(range(1, len(gvl_history) + 1))

    def test_dates_are_increasing(self, gvl_history):
        dates = [g.last_updated for g in gvl_history]
        assert dates == sorted(dates)
        assert len(set(dates)) == len(dates)

    def test_deterministic(self):
        cfg = GvlGenConfig(seed=3, initial_vendors=30,
                           last_date=dt.date(2018, 8, 1))
        a = generate_gvl_history(cfg)
        b = generate_gvl_history(cfg)
        assert [v.to_json() for v in a] == [v.to_json() for v in b]

    def test_seed_changes_history(self):
        kwargs = dict(initial_vendors=30, last_date=dt.date(2018, 8, 1))
        a = generate_gvl_history(GvlGenConfig(seed=1, **kwargs))
        b = generate_gvl_history(GvlGenConfig(seed=2, **kwargs))
        assert a[-1].vendor_ids != b[-1].vendor_ids

    def test_vendor_ids_never_reused(self, full_histories):
        # A vendor that left keeps its id forever (the real list's
        # behaviour); new vendors always get fresh ids.
        for seed, history in full_histories.items():
            seen, previous = frozenset(), frozenset()
            for version in history:
                ids = version.vendor_ids
                first_seen = ids - seen
                # Every id that was not on the previous version is new:
                # an id that left never reappears.
                assert ids - previous == first_seen, (seed, version.version)
                if first_seen and seen:
                    assert min(first_seen) > max(seen), (seed, version.version)
                seen, previous = seen | ids, ids

    def test_full_history_digests_pinned(self, full_histories):
        for seed, history in full_histories.items():
            assert history_digest(history) == PINNED_HISTORY_DIGESTS[seed], seed

    def test_json_roundtrip_of_generated(self, gvl_history):
        from repro.tcf.gvl import GlobalVendorList

        v = gvl_history[-1]
        assert GlobalVendorList.from_json(v.to_json()) == v


class TestDynamics:
    def test_gdpr_spike(self, gvl_history):
        analysis = GvlAnalysis(gvl_history)
        spike = analysis.growth_between(
            dt.date(2018, 5, 1), dt.date(2018, 8, 1)
        )
        steady = analysis.growth_between(
            dt.date(2019, 2, 1), dt.date(2019, 5, 1)
        )
        assert spike > 3 * max(1, steady)

    def test_list_grows_overall(self, gvl_history):
        assert len(gvl_history[-1]) > len(gvl_history[0])

    def test_purpose_one_most_popular(self, gvl_history):
        for version in (gvl_history[0], gvl_history[-1]):
            hist = version.purpose_histogram("any")
            assert hist[1] == max(hist.values())

    def test_every_vendor_declares_something(self, gvl_history):
        for v in gvl_history[-1].vendors:
            assert v.declared_purposes

    def test_weekly_cadence_after_2019(self):
        cfg = GvlGenConfig(
            seed=5,
            initial_vendors=20,
            first_date=dt.date(2019, 1, 2),
            last_date=dt.date(2019, 3, 1),
        )
        history = generate_gvl_history(cfg)
        gaps = {
            (b.last_updated - a.last_updated).days
            for a, b in zip(history, history[1:])
        }
        assert gaps == {7}

    def test_dense_cadence_in_2018(self, gvl_history):
        early = [g for g in gvl_history if g.last_updated.year == 2018]
        gaps = {
            (b.last_updated - a.last_updated).days
            for a, b in zip(early, early[1:])
        }
        assert gaps == {2}
