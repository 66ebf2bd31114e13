"""Synthetic Global Vendor List history generator.

The paper downloads all 215 published versions of the real GVL
(Section 3.4). Offline, we generate a synthetic history with the same
observable dynamics, calibrated against Figures 7 and 8:

* the list starts small in spring 2018 and spikes sharply as the GDPR
  comes into effect (2018-05-25), then keeps growing slowly;
* purpose 1 ("Information storage and access") is always the most
  declared purpose;
* for every purpose, at least a fifth of vendors claim legitimate
  interest rather than asking for consent (Section 5.2);
* among existing members, strictly more purpose declarations move from
  legitimate interest to consent than the other way round, with activity
  bursts around GDPR enforcement and again in March/April 2020.

The generator is fully deterministic given a seed, and produces
:class:`~repro.tcf.gvl.GlobalVendorList` objects that round-trip through
the JSON archive format.
"""

from __future__ import annotations

import datetime as dt
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.tcf.gvl import GlobalVendorList, Vendor
from repro.tcf.purposes import FEATURE_IDS, PURPOSE_IDS

#: The real list's first public version appeared in late April 2018.
GVL_FIRST_DATE = dt.date(2018, 4, 25)
GVL_LAST_DATE = dt.date(2020, 9, 16)
GDPR_EFFECTIVE = dt.date(2018, 5, 25)

_NAME_PREFIXES = (
    "Ad", "Bid", "Click", "Data", "Pixel", "Reach", "Tag", "Track",
    "Audience", "Churn", "Funnel", "Yield", "Spark", "Nova", "Omni",
    "Meta", "Hyper", "Smart", "Deep", "True", "Pure", "Prime", "Vertex",
)
_NAME_SUFFIXES = (
    "metrics", "works", "lab", "ly", "stream", "grid", "mob", "nexus",
    "matic", "scale", "loop", "logic", "mind", "pulse", "spot", "base",
    "wave", "forge", "lens", "path", "sense", "sync", "verse",
)
_NAME_LEGAL = ("Inc.", "GmbH", "Ltd.", "S.A.", "B.V.", "LLC", "AG")

#: Per-purpose probability that a newly joining vendor declares the
#: purpose at all; purpose 1 is near-universal (Figure 7).
_DECLARE_PROB = {1: 0.97, 2: 0.62, 3: 0.80, 4: 0.38, 5: 0.70}

#: Per-purpose probability that a declaring vendor claims legitimate
#: interest instead of requesting consent. Calibrated so that at least a
#: fifth of vendors claim LI for every purpose (Section 5.2).
_LI_PROB = {1: 0.27, 2: 0.30, 3: 0.31, 4: 0.34, 5: 0.38}


@dataclass(frozen=True)
class GvlGenConfig:
    """Tunable parameters of the synthetic GVL history."""

    seed: int = 20
    first_date: dt.date = GVL_FIRST_DATE
    last_date: dt.date = GVL_LAST_DATE
    #: Vendors on the very first published version.
    initial_vendors: int = 120
    #: Weekly join rate outside any burst window.
    base_join_rate: float = 3.0
    #: Weekly leave probability per vendor.
    leave_prob: float = 0.0020
    #: Weekly probability per (vendor, declared purpose) of an LI->consent
    #: switch outside burst windows; the reverse direction is rarer.
    li_to_consent_prob: float = 0.0030
    consent_to_li_prob: float = 0.0005
    #: Weekly probability of declaring a new purpose / dropping one.
    new_purpose_prob: float = 0.0012
    drop_purpose_prob: float = 0.0005


#: (start, end, join-rate multiplier, switch-rate multiplier) burst
#: windows: the GDPR rush and the March/April 2020 activity the paper
#: observes in Figure 8.
_BURSTS: Tuple[Tuple[dt.date, dt.date, float, float], ...] = (
    (dt.date(2018, 4, 25), dt.date(2018, 7, 15), 18.0, 20.0),
    (dt.date(2020, 3, 1), dt.date(2020, 4, 30), 1.5, 5.0),
)


def _burst_multipliers(date: dt.date) -> Tuple[float, float]:
    join_mult = switch_mult = 1.0
    for start, end, jm, sm in _BURSTS:
        if start <= date <= end:
            join_mult = max(join_mult, jm)
            switch_mult = max(switch_mult, sm)
    return join_mult, switch_mult


class GvlHistoryGenerator:
    """Generates a full synthetic GVL version history."""

    def __init__(self, config: Optional[GvlGenConfig] = None):
        self.config = config or GvlGenConfig()
        self._rng = random.Random(self.config.seed)
        self._next_vendor_id = 1
        self._used_names: Set[str] = set()

    # ------------------------------------------------------------------
    def generate(self) -> List[GlobalVendorList]:
        """Produce the weekly version history, oldest first."""
        vendors: Dict[int, Vendor] = {}
        for _ in range(self.config.initial_vendors):
            v = self._new_vendor()
            vendors[v.id] = v

        # The real list was updated every couple of days in 2018 and
        # weekly from 2019 on, totalling 215 versions over the study
        # window; we mirror that publishing cadence.
        versions: List[GlobalVendorList] = []
        date = self.config.first_date
        version = 1
        while date <= self.config.last_date:
            versions.append(
                GlobalVendorList(
                    version=version,
                    last_updated=date,
                    vendors=tuple(vendors.values()),
                )
            )
            step = 2 if date < dt.date(2019, 1, 1) else 7
            date += dt.timedelta(days=step)
            version += 1
            self._advance(vendors, date, days=step)
        return versions

    # ------------------------------------------------------------------
    def _advance(
        self, vendors: Dict[int, Vendor], date: dt.date, days: int
    ) -> None:
        rng = self._rng
        join_mult, switch_mult = _burst_multipliers(date)
        # Config rates are per week; scale to the publishing interval.
        scale = days / 7.0
        join_mult *= scale
        switch_mult *= scale

        # Joins (Poisson-ish via repeated Bernoulli draws).
        expected_joins = self.config.base_join_rate * join_mult
        n_joins = _poisson(rng, expected_joins)
        for _ in range(n_joins):
            v = self._new_vendor()
            vendors[v.id] = v

        # Leaves.
        random = rng.random
        leave_prob = self.config.leave_prob * scale
        drop_prob = self.config.drop_purpose_prob * scale
        new_prob = self.config.new_purpose_prob * scale
        li_to_consent = self.config.li_to_consent_prob * switch_mult
        consent_to_li = self.config.consent_to_li_prob * switch_mult
        for vid in list(vendors):
            if random() < leave_prob:
                del vendors[vid]

        # Purpose-declaration changes of existing members. A draw for
        # purpose `pid` only ever moves `pid`, so every membership test
        # can read the vendor's own frozensets; the mutable copies (and
        # a new Vendor) are made only once a draw changes something.
        for vid, vendor in list(vendors.items()):
            consent_ids = vendor.purpose_ids
            leg_int_ids = vendor.leg_int_purpose_ids
            purposes: Optional[Set[int]] = None
            leg_int: Optional[Set[int]] = None
            for pid in PURPOSE_IDS:
                # The purpose's new basis: "consent", "li" or None (dropped).
                if pid in leg_int_ids:
                    if random() < li_to_consent:
                        basis = "consent"
                    elif random() < drop_prob:
                        basis = None
                    else:
                        continue
                elif pid in consent_ids:
                    if random() < consent_to_li:
                        basis = "li"
                    elif random() < drop_prob:
                        basis = None
                    else:
                        continue
                elif random() < new_prob:
                    basis = "li" if random() < _LI_PROB[pid] else "consent"
                else:
                    continue
                if purposes is None:
                    purposes, leg_int = set(consent_ids), set(leg_int_ids)
                purposes.discard(pid)
                leg_int.discard(pid)
                if basis == "consent":
                    purposes.add(pid)
                elif basis == "li":
                    leg_int.add(pid)
            if purposes is not None:
                vendors[vid] = Vendor(
                    id=vendor.id,
                    name=vendor.name,
                    policy_url=vendor.policy_url,
                    purpose_ids=frozenset(purposes),
                    leg_int_purpose_ids=frozenset(leg_int),
                    feature_ids=vendor.feature_ids,
                )

    # ------------------------------------------------------------------
    def _new_vendor(self) -> Vendor:
        rng = self._rng
        name = self._fresh_name()
        purposes: Set[int] = set()
        leg_int: Set[int] = set()
        for pid in PURPOSE_IDS:
            if rng.random() < _DECLARE_PROB[pid]:
                if rng.random() < _LI_PROB[pid]:
                    leg_int.add(pid)
                else:
                    purposes.add(pid)
        if not purposes and not leg_int:
            purposes.add(1)
        features = frozenset(
            fid for fid in FEATURE_IDS if rng.random() < 0.25
        )
        slug = name.split()[0].lower()
        vendor = Vendor(
            id=self._next_vendor_id,
            name=name,
            policy_url=f"https://{slug}.example/privacy",
            purpose_ids=frozenset(purposes),
            leg_int_purpose_ids=frozenset(leg_int),
            feature_ids=features,
        )
        self._next_vendor_id += 1
        return vendor

    def _fresh_name(self) -> str:
        rng = self._rng
        for _ in range(1000):
            name = "{}{} {}".format(
                rng.choice(_NAME_PREFIXES),
                rng.choice(_NAME_SUFFIXES),
                rng.choice(_NAME_LEGAL),
            )
            if name not in self._used_names:
                self._used_names.add(name)
                return name
        # Fall back to a numbered name once combinations are exhausted.
        name = f"Vendor {self._next_vendor_id} Inc."
        self._used_names.add(name)
        return name


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's Poisson sampler; fine for the small rates used here."""
    if lam <= 0:
        return 0
    threshold = 2.718281828459045 ** (-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def generate_gvl_history(
    config: Optional[GvlGenConfig] = None,
) -> List[GlobalVendorList]:
    """Convenience wrapper around :class:`GvlHistoryGenerator`."""
    return GvlHistoryGenerator(config).generate()
