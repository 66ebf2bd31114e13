"""Global Vendor List (GVL) data model and version diffing.

The GVL is the IAB-maintained master list of advertisers participating in
the TCF (Section 2.2). For each vendor it records the purposes for which
the vendor requests *consent*, the purposes for which it claims a
*legitimate interest* (processing without consent, GDPR Art. 6.1b-f), and
the features it relies on.

The paper systematically analyzes all 215 published versions of the list
and measures "every instance when an ad-tech vendor joins or leaves the
GVL, claims a new purpose falls under legitimate interest, begins
requesting consent for a new purpose, stops claiming either, or changes
from collecting consent to claiming legitimate interest or the other way
round" (Section 3.2). :func:`diff_versions` computes exactly those events.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.tcf.purposes import (
    PURPOSE_IDS,
    validate_feature_ids,
    validate_purpose_ids,
)


@dataclass(frozen=True)
class Vendor:
    """One advertiser on the Global Vendor List."""

    id: int
    name: str
    policy_url: str
    #: Purposes the vendor requests user consent for.
    purpose_ids: FrozenSet[int]
    #: Purposes the vendor claims legitimate interest for (no consent
    #: needed under the GDPR).
    leg_int_purpose_ids: FrozenSet[int]
    feature_ids: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        if self.id < 1:
            raise ValueError("vendor ids are 1-based")
        object.__setattr__(
            self, "purpose_ids", validate_purpose_ids(self.purpose_ids)
        )
        object.__setattr__(
            self,
            "leg_int_purpose_ids",
            validate_purpose_ids(self.leg_int_purpose_ids),
        )
        object.__setattr__(
            self, "feature_ids", validate_feature_ids(self.feature_ids)
        )
        overlap = self.purpose_ids & self.leg_int_purpose_ids
        if overlap:
            raise ValueError(
                f"vendor {self.id} declares purposes {sorted(overlap)} as "
                "both consent and legitimate interest"
            )

    @property
    def declared_purposes(self) -> FrozenSet[int]:
        """All purposes the vendor processes data for, on either basis."""
        return self.purpose_ids | self.leg_int_purpose_ids

    def basis_for(self, purpose_id: int) -> Optional[str]:
        """Return ``"consent"``, ``"legitimate-interest"`` or ``None``."""
        if purpose_id in self.purpose_ids:
            return "consent"
        if purpose_id in self.leg_int_purpose_ids:
            return "legitimate-interest"
        return None


class VendorIndex:
    """Vendor lookup by id for the frozen GVL list dataclasses (v1 and
    v2), over their ``vendors`` tuple.

    The id -> vendor dict is built on the first lookup, not at
    construction: a generated history holds hundreds of versions, and
    most callers look up vendors in only a few of them. Construction
    still rejects duplicate ids (:meth:`_check_ids`).
    """

    vendors: Tuple

    def _check_ids(self, where: str) -> None:
        """Raise ``ValueError`` on the first repeated vendor id."""
        if len(set(map(attrgetter("id"), self.vendors))) < len(self.vendors):
            seen: set = set()
            for vendor in self.vendors:
                if vendor.id in seen:
                    raise ValueError(f"duplicate vendor id {vendor.id} in {where}")
                seen.add(vendor.id)

    @cached_property
    def _by_id(self) -> Dict[int, object]:
        return {vendor.id: vendor for vendor in self.vendors}

    def __len__(self) -> int:
        return len(self.vendors)

    def __contains__(self, vendor_id: int) -> bool:
        return vendor_id in self._by_id

    def get(self, vendor_id: int):
        return self._by_id.get(vendor_id)

    @property
    def vendor_ids(self) -> FrozenSet[int]:
        return frozenset(self._by_id)

    @property
    def max_vendor_id(self) -> int:
        return max(map(attrgetter("id"), self.vendors), default=0)


@dataclass(frozen=True)
class GlobalVendorList(VendorIndex):
    """One published version of the GVL."""

    version: int
    last_updated: dt.date
    vendors: Tuple[Vendor, ...]

    def __post_init__(self) -> None:
        self._check_ids(f"GVL v{self.version}")

    def purpose_histogram(self, basis: str = "any") -> Dict[int, int]:
        """Count vendors declaring each purpose.

        Args:
            basis: ``"consent"``, ``"legitimate-interest"`` or ``"any"``.
        """
        counts = {pid: 0 for pid in PURPOSE_IDS}
        for vendor in self.vendors:
            if basis == "consent":
                declared = vendor.purpose_ids
            elif basis == "legitimate-interest":
                declared = vendor.leg_int_purpose_ids
            elif basis == "any":
                declared = vendor.declared_purposes
            else:
                raise ValueError(f"unknown basis {basis!r}")
            for pid in declared:
                counts[pid] += 1
        return counts

    # ------------------------------------------------------------------
    # JSON round-trip in the shape of vendorlist.consensu.org/vXXX/
    # vendor-list.json, which is how the paper archived the real list.
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "vendorListVersion": self.version,
            "lastUpdated": self.last_updated.isoformat(),
            "vendors": [
                {
                    "id": v.id,
                    "name": v.name,
                    "policyUrl": v.policy_url,
                    "purposeIds": sorted(v.purpose_ids),
                    "legIntPurposeIds": sorted(v.leg_int_purpose_ids),
                    "featureIds": sorted(v.feature_ids),
                }
                for v in sorted(self.vendors, key=lambda v: v.id)
            ],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "GlobalVendorList":
        payload = json.loads(text)
        vendors = tuple(
            Vendor(
                id=v["id"],
                name=v["name"],
                policy_url=v["policyUrl"],
                purpose_ids=frozenset(v["purposeIds"]),
                leg_int_purpose_ids=frozenset(v["legIntPurposeIds"]),
                feature_ids=frozenset(v.get("featureIds", ())),
            )
            for v in payload["vendors"]
        )
        return cls(
            version=payload["vendorListVersion"],
            last_updated=dt.date.fromisoformat(payload["lastUpdated"]),
            vendors=vendors,
        )


# ----------------------------------------------------------------------
# Version diffing (the events Figure 8 is built from)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PurposeChange:
    """A change to one vendor's declaration for one purpose."""

    vendor_id: int
    purpose_id: int
    #: Legal basis before the change: "consent", "legitimate-interest" or
    #: None (purpose not declared).
    before: Optional[str]
    #: Legal basis after the change.
    after: Optional[str]

    @property
    def kind(self) -> str:
        """Classify per the taxonomy of Section 3.2.

        One of ``"new-consent"``, ``"new-li"``, ``"dropped-consent"``,
        ``"dropped-li"``, ``"li-to-consent"``, ``"consent-to-li"``.
        """
        table = {
            (None, "consent"): "new-consent",
            (None, "legitimate-interest"): "new-li",
            ("consent", None): "dropped-consent",
            ("legitimate-interest", None): "dropped-li",
            ("legitimate-interest", "consent"): "li-to-consent",
            ("consent", "legitimate-interest"): "consent-to-li",
        }
        return table[(self.before, self.after)]


@dataclass(frozen=True)
class GvlDiff:
    """All changes between two consecutive GVL versions."""

    from_version: int
    to_version: int
    date: dt.date
    joined: FrozenSet[int]
    left: FrozenSet[int]
    purpose_changes: Tuple[PurposeChange, ...]

    def changes_of_kind(self, kind: str) -> List[PurposeChange]:
        return [c for c in self.purpose_changes if c.kind == kind]

    @property
    def net_li_to_consent(self) -> int:
        """Net number of purpose declarations moving LI -> consent.

        Positive values mean vendors are, on net, obtaining consent for
        purposes they previously claimed as legitimate interest -- the
        paper's headline finding for I5 (Figure 8).
        """
        return len(self.changes_of_kind("li-to-consent")) - len(
            self.changes_of_kind("consent-to-li")
        )


def diff_versions(
    old: GlobalVendorList,
    new: GlobalVendorList,
    purpose_ids: Tuple[int, ...] = PURPOSE_IDS,
) -> GvlDiff:
    """Compute every vendor event between two GVL versions.

    Purpose changes are only tracked for vendors present in both versions
    ("changes made by existing members", Section 4.2); joins and leaves
    are reported separately. *purpose_ids* defaults to TCF v1's five
    purposes; pass v2's ten to diff v2 lists (the function takes either
    list model: any :class:`VendorIndex` whose vendors have
    ``basis_for``).
    """
    return _diff(old, new, old.vendor_ids, new.vendor_ids, purpose_ids)


def _diff(
    old: GlobalVendorList,
    new: GlobalVendorList,
    old_ids: FrozenSet[int],
    new_ids: FrozenSet[int],
    purpose_ids: Tuple[int, ...],
) -> GvlDiff:
    """:func:`diff_versions`, given each version's ``vendor_ids``. A
    vendor object both versions share (the generator shares every
    vendor no draw changed) has no purpose change to find."""
    common = old_ids & new_ids
    changes: List[PurposeChange] = []
    for vid, before_v, after_v in zip(
        common,
        map(old._by_id.__getitem__, common),
        map(new._by_id.__getitem__, common),
    ):
        if before_v is after_v:
            continue
        for pid in purpose_ids:
            before = before_v.basis_for(pid)
            after = after_v.basis_for(pid)
            if before != after:
                changes.append(PurposeChange(vid, pid, before, after))
    return GvlDiff(
        from_version=old.version,
        to_version=new.version,
        date=new.last_updated,
        joined=new_ids - old_ids,
        left=old_ids - new_ids,
        purpose_changes=tuple(changes),
    )


def diff_history(
    versions: Iterable[GlobalVendorList],
    purpose_ids: Tuple[int, ...] = PURPOSE_IDS,
) -> List[GvlDiff]:
    """Diff every consecutive pair in a version history."""
    versions = sorted(versions, key=lambda g: g.version)
    ids = [version.vendor_ids for version in versions]
    return [
        _diff(a, b, a_ids, b_ids, purpose_ids)
        for a, b, a_ids, b_ids in zip(versions, versions[1:], ids, ids[1:])
    ]
