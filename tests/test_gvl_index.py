"""The on-demand vendor index of the GVL list models, and the diffs
over it.

* A generated v1 or v2 history builds no id -> vendor dict until a
  version is looked up; lookups then agree with a dict built eagerly
  from ``vendors``, and duplicate ids still fail at construction.
* :func:`diff_history` over a generated history, whose versions share
  every vendor no draw changed, equals a plain per-purpose diff of
  every common vendor, and its own diffs over the same versions
  rebuilt through ``from_json`` (which share nothing).
"""

import datetime as dt
import json

import pytest

from repro.tcf.gvl import (
    GlobalVendorList,
    GvlDiff,
    PurposeChange,
    Vendor,
    diff_history,
)
from repro.tcf.gvlgen import GvlGenConfig, generate_gvl_history
from repro.tcf.purposes import PURPOSE_IDS
from repro.tcf.v2.gvl2 import GlobalVendorListV2, VendorV2
from repro.tcf.v2.gvl2gen import generate_gvl2_history

DAY = dt.date(2019, 1, 1)


@pytest.fixture(scope="module")
def histories():
    """A fresh short v1 history and the v2 history migrated from it."""
    v1 = generate_gvl_history(
        GvlGenConfig(seed=3, initial_vendors=40, last_date=dt.date(2018, 9, 1))
    )
    return {"v1": v1, "v2": generate_gvl2_history(v1[-1])}


def indexed(version) -> bool:
    return "_by_id" in vars(version)


@pytest.mark.parametrize("model", ["v1", "v2"])
def test_a_generated_history_indexes_no_version(histories, model):
    assert len(histories[model]) > 10
    assert not any(map(indexed, histories[model]))


@pytest.mark.parametrize("model", ["v1", "v2"])
def test_lazy_lookups_equal_eager_ones(histories, model):
    for version in histories[model][::3]:
        eager = {vendor.id: vendor for vendor in version.vendors}
        assert version.max_vendor_id == max(eager)
        assert not indexed(version)
        assert version.vendor_ids == frozenset(eager)
        assert indexed(version)
        assert all(version.get(vid) is vendor for vid, vendor in eager.items())
        assert all(vid in version for vid in eager)
        assert version.get(max(eager) + 1) is None
        assert 0 not in version
        assert len(version) == len(eager)


def v1_vendor(vid):
    return Vendor(vid, f"V{vid}", "https://v.example", frozenset({1}), frozenset())


def v2_vendor(vid):
    return VendorV2(vid, f"V{vid}", "https://v.example", frozenset({1}), frozenset())


@pytest.mark.parametrize(
    "make, vendor, where",
    [
        (GlobalVendorList, v1_vendor, "GVL v4"),
        (GlobalVendorListV2, v2_vendor, "GVL v2 #4"),
    ],
)
def test_duplicate_ids_still_fail_at_construction(make, vendor, where):
    vendors = (vendor(1), vendor(2), vendor(3), vendor(2))
    with pytest.raises(ValueError, match=f"duplicate vendor id 2 in {where}$"):
        make(version=4, last_updated=DAY, vendors=vendors)
    assert make(version=4, last_updated=DAY, vendors=()).max_vendor_id == 0


def plain_diff(old, new):
    """Every purpose change of every vendor in both versions."""
    changes = []
    for vid in old.vendor_ids & new.vendor_ids:
        before_v, after_v = old.get(vid), new.get(vid)
        for pid in PURPOSE_IDS:
            before, after = before_v.basis_for(pid), after_v.basis_for(pid)
            if before != after:
                changes.append(PurposeChange(vid, pid, before, after))
    return GvlDiff(
        old.version,
        new.version,
        new.last_updated,
        new.vendor_ids - old.vendor_ids,
        old.vendor_ids - new.vendor_ids,
        tuple(changes),
    )


def compact_json(version: GlobalVendorList) -> str:
    """``to_json`` without its indentation, which takes the pure-Python
    encoder."""
    payload = {
        "vendorListVersion": version.version,
        "lastUpdated": version.last_updated.isoformat(),
        "vendors": [
            {
                "id": v.id,
                "name": v.name,
                "policyUrl": v.policy_url,
                "purposeIds": sorted(v.purpose_ids),
                "legIntPurposeIds": sorted(v.leg_int_purpose_ids),
                "featureIds": sorted(v.feature_ids),
            }
            for v in sorted(version.vendors, key=lambda v: v.id)
        ],
    }
    return json.dumps(payload)


def test_full_history_diffs_equal_plain_diffs(full_gvl_history):
    versions = full_gvl_history
    diffs = diff_history(versions)
    assert diffs == [plain_diff(a, b) for a, b in zip(versions, versions[1:])]
    assert sum(len(diff.purpose_changes) for diff in diffs) > 1_000


def test_diffs_equal_over_json_round_tripped_versions():
    # Through the GDPR burst: 34 versions, 221 purpose changes.
    versions = generate_gvl_history(
        GvlGenConfig(seed=7, initial_vendors=30, last_date=dt.date(2018, 7, 1))
    )
    assert json.loads(compact_json(versions[0])) == json.loads(
        versions[0].to_json()
    )
    copies = [GlobalVendorList.from_json(compact_json(v)) for v in versions]
    assert copies == versions
    assert not {id(v) for v in copies[-1].vendors} & {
        id(v) for v in versions[-1].vendors
    }
    diffs = diff_history(versions)
    assert diff_history(copies) == diffs
    assert diffs == [plain_diff(a, b) for a, b in zip(versions, versions[1:])]
    assert sum(len(diff.purpose_changes) for diff in diffs) > 200
