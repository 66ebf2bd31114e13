"""Global Vendor List v2 model and the v1 -> v2 list migration.

With TCF v2, vendor declarations became richer: besides purposes
(consent) and legitimate-interest purposes, vendors declare *flexible*
purposes (where the publisher may override the legal basis via publisher
restrictions), *special purposes*, features and *special features*.

:func:`migrate_vendor` / :func:`migrate_list` implement the ecosystem's
August 2020 transition: every v1 vendor's declarations are mapped onto
the v2 vocabulary with the same purpose correspondence used for consent
strings (:mod:`repro.tcf.v2.migrate`), which lets the longitudinal
Figure 7/8 analyses extend past the paper's observation window.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from repro.tcf.gvl import GlobalVendorList, Vendor, VendorIndex
from repro.tcf.v2.migrate import upgrade_purposes
from repro.tcf.v2.purposes import (
    PURPOSE_IDS_V2,
    validate_purpose_ids_v2,
    validate_special_feature_ids,
)


@dataclass(frozen=True)
class VendorV2:
    """One advertiser on the v2 Global Vendor List."""

    id: int
    name: str
    policy_url: str
    purpose_ids: FrozenSet[int]
    leg_int_purpose_ids: FrozenSet[int]
    #: Purposes whose legal basis the publisher may flip via a publisher
    #: restriction (must be declared under consent or LI as well).
    flexible_purpose_ids: FrozenSet[int] = frozenset()
    special_purpose_ids: FrozenSet[int] = frozenset()
    feature_ids: FrozenSet[int] = frozenset()
    special_feature_ids: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        if self.id < 1:
            raise ValueError("vendor ids are 1-based")
        for name in ("purpose_ids", "leg_int_purpose_ids",
                     "flexible_purpose_ids"):
            object.__setattr__(
                self, name, validate_purpose_ids_v2(getattr(self, name))
            )
        sp = frozenset(int(i) for i in self.special_purpose_ids)
        if sp - {1, 2}:
            raise ValueError(f"unknown special purposes {sorted(sp - {1, 2})}")
        object.__setattr__(self, "special_purpose_ids", sp)
        ft = frozenset(int(i) for i in self.feature_ids)
        if ft - {1, 2, 3}:
            raise ValueError(f"unknown features {sorted(ft - {1, 2, 3})}")
        object.__setattr__(self, "feature_ids", ft)
        object.__setattr__(
            self,
            "special_feature_ids",
            validate_special_feature_ids(self.special_feature_ids),
        )
        overlap = self.purpose_ids & self.leg_int_purpose_ids
        if overlap:
            raise ValueError(
                f"vendor {self.id} declares purposes {sorted(overlap)} on "
                "both bases"
            )
        stray = self.flexible_purpose_ids - (
            self.purpose_ids | self.leg_int_purpose_ids
        )
        if stray:
            raise ValueError(
                f"flexible purposes {sorted(stray)} not declared at all"
            )

    @property
    def declared_purposes(self) -> FrozenSet[int]:
        return self.purpose_ids | self.leg_int_purpose_ids

    def basis_for(self, purpose_id: int) -> Optional[str]:
        if purpose_id in self.purpose_ids:
            return "consent"
        if purpose_id in self.leg_int_purpose_ids:
            return "legitimate-interest"
        return None


@dataclass(frozen=True)
class GlobalVendorListV2(VendorIndex):
    """One published version of the v2 GVL."""

    #: v2 restarted its version counter; ``gvl_specification_version`` is
    #: fixed at 2.
    version: int
    last_updated: dt.date
    vendors: Tuple[VendorV2, ...]
    gvl_specification_version: int = 2

    def __post_init__(self) -> None:
        self._check_ids(f"GVL v2 #{self.version}")

    def purpose_histogram(self, basis: str = "any") -> Dict[int, int]:
        counts = {pid: 0 for pid in PURPOSE_IDS_V2}
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

    def to_json(self) -> str:
        payload = {
            "gvlSpecificationVersion": self.gvl_specification_version,
            "vendorListVersion": self.version,
            "lastUpdated": self.last_updated.isoformat(),
            "vendors": {
                str(v.id): {
                    "id": v.id,
                    "name": v.name,
                    "policyUrl": v.policy_url,
                    "purposes": sorted(v.purpose_ids),
                    "legIntPurposes": sorted(v.leg_int_purpose_ids),
                    "flexiblePurposes": sorted(v.flexible_purpose_ids),
                    "specialPurposes": sorted(v.special_purpose_ids),
                    "features": sorted(v.feature_ids),
                    "specialFeatures": sorted(v.special_feature_ids),
                }
                for v in sorted(self.vendors, key=lambda v: v.id)
            },
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "GlobalVendorListV2":
        payload = json.loads(text)
        vendors = tuple(
            VendorV2(
                id=v["id"],
                name=v["name"],
                policy_url=v["policyUrl"],
                purpose_ids=frozenset(v["purposes"]),
                leg_int_purpose_ids=frozenset(v["legIntPurposes"]),
                flexible_purpose_ids=frozenset(v.get("flexiblePurposes", ())),
                special_purpose_ids=frozenset(v.get("specialPurposes", ())),
                feature_ids=frozenset(v.get("features", ())),
                special_feature_ids=frozenset(v.get("specialFeatures", ())),
            )
            for v in payload["vendors"].values()
        )
        return cls(
            version=payload["vendorListVersion"],
            last_updated=dt.date.fromisoformat(payload["lastUpdated"]),
            vendors=vendors,
        )


# ----------------------------------------------------------------------
# v1 -> v2 migration
# ----------------------------------------------------------------------
#: v1 features map onto v2 features 1/2 and special feature 1 (precise
#: geolocation became an opt-in special feature).
_V1_FEATURE_TO_V2 = {1: ("feature", 1), 2: ("feature", 2), 3: ("special", 1)}


def migrate_vendor(vendor: Vendor) -> VendorV2:
    """Translate one v1 vendor declaration into the v2 vocabulary.

    Purposes map through the consent correspondence; a purpose whose v2
    images split across both bases stays on its v1 basis for all of
    them. Every migrated vendor gains special purpose 1 (security /
    fraud prevention), which v2 made explicit for the whole ecosystem.
    """
    consent = upgrade_purposes(vendor.purpose_ids)
    leg_int = upgrade_purposes(vendor.leg_int_purpose_ids) - consent
    features: set = set()
    special_features: set = set()
    for fid in vendor.feature_ids:
        kind, target = _V1_FEATURE_TO_V2[fid]
        if kind == "feature":
            features.add(target)
        else:
            special_features.add(target)
    return VendorV2(
        id=vendor.id,
        name=vendor.name,
        policy_url=vendor.policy_url,
        purpose_ids=consent,
        leg_int_purpose_ids=leg_int,
        flexible_purpose_ids=frozenset(),
        special_purpose_ids=frozenset({1}),
        feature_ids=frozenset(features),
        special_feature_ids=frozenset(special_features),
    )


def migrate_list(
    v1_list: GlobalVendorList,
    *,
    version: int = 1,
    migrated_on: Optional[dt.date] = None,
) -> GlobalVendorListV2:
    """Migrate a whole v1 GVL into a v2 list (the August 2020 cut-over)."""
    return GlobalVendorListV2(
        version=version,
        last_updated=migrated_on or v1_list.last_updated,
        vendors=tuple(migrate_vendor(v) for v in v1_list.vendors),
    )
