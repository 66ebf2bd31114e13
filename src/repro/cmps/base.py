"""Common CMP model types and the registry of the six CMPs under study.

A :class:`CmpModel` describes one consent-management product as the
crawler can observe it. The concrete instances live in the per-vendor
modules (:mod:`repro.cmps.quantcast` etc.) and are collected in the
:data:`CMPS` registry.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

#: Regions distinguished by the geo-dependent behaviour in the paper.
REGIONS = ("EU", "US")


@dataclass(frozen=True)
class DialogButton:
    """One button (or link) in a consent dialog.

    ``action`` is one of:

    * ``accept-all`` -- consent to everything in one click;
    * ``reject-all`` -- refuse everything in one click;
    * ``more-options`` -- open a second page with fine-grained controls;
    * ``settings-link`` -- a link (not a button) to settings / policy;
    * ``confirm-reject`` -- the final opt-out confirmation on page >= 2;
    * ``save`` -- persist per-purpose choices from a settings page.
    """

    label: str
    action: str
    page: int = 1

    _ACTIONS = (
        "accept-all",
        "reject-all",
        "more-options",
        "settings-link",
        "confirm-reject",
        "save",
    )

    def __post_init__(self) -> None:
        if self.action not in self._ACTIONS:
            raise ValueError(f"unknown button action {self.action!r}")
        if self.page < 1:
            raise ValueError("dialog pages are 1-based")


@dataclass(frozen=True)
class DialogDescriptor:
    """A publisher's concrete dialog configuration.

    This is what the EU-university crawl reconstructs from the DOM tree
    and full-page screenshots for the customization analysis (I3).

    ``kind`` is one of ``modal``, ``banner``, ``script-banner``,
    ``footer-link`` or ``none`` (CMP embedded for its API only).
    """

    cmp_key: str
    kind: str
    buttons: Tuple[DialogButton, ...] = ()
    #: Regions of the visitor for which the dialog is rendered at all.
    shown_regions: FrozenSet[str] = frozenset(REGIONS)
    #: Publisher replaced the CMP's UI with a custom one (uses API only).
    custom_api_only: bool = False
    #: A first-page opt-out that must contact multiple partners before
    #: the dialog closes (TrustArc-style waterfall, measured in Fig 9).
    opt_out_waterfall: bool = False
    #: Free-text label of the primary accept control (open customization).
    accept_wording: str = "I ACCEPT"

    _KINDS = ("modal", "banner", "script-banner", "footer-link", "none")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown dialog kind {self.kind!r}")
        bad = set(self.shown_regions) - set(REGIONS)
        if bad:
            raise ValueError(f"unknown regions {sorted(bad)}")

    # -- derived properties used by the customization classifier ------
    def buttons_on_page(self, page: int) -> Tuple[DialogButton, ...]:
        return tuple(b for b in self.buttons if b.page == page)

    @property
    def has_first_page_reject(self) -> bool:
        """True if the user can fully opt out with a single click."""
        return any(
            b.action == "reject-all" and b.page == 1 for b in self.buttons
        )

    @property
    def clicks_to_reject(self) -> int:
        """Minimum number of clicks to a full opt-out, 0 if impossible."""
        if self.has_first_page_reject:
            return 1
        page = 1
        clicks = 0
        while True:
            page_buttons = self.buttons_on_page(page)
            opener = next(
                (
                    b
                    for b in page_buttons
                    if b.action in ("more-options", "settings-link")
                ),
                None,
            )
            closer = next(
                (
                    b
                    for b in page_buttons
                    if b.action in ("reject-all", "confirm-reject")
                ),
                None,
            )
            if closer is not None:
                return clicks + 1
            if opener is None:
                return 0
            clicks += 1
            page += 1
            if page > 10:  # defensive: malformed config
                return 0

    def shown_to(self, region: str) -> bool:
        return region in self.shown_regions and self.kind not in ("none",)


@dataclass(frozen=True)
class CmpModel:
    """Everything the measurement pipeline knows about one CMP product."""

    #: Stable lowercase key used across the codebase, e.g. ``"onetrust"``.
    key: str
    #: Display name as used in the paper's tables.
    name: str
    #: The unique fingerprint hostname from Table A.2.
    fingerprint_host: str
    #: Additional hostnames the embed contacts (non-unique, shared infra).
    auxiliary_hosts: Tuple[str, ...] = ()
    #: Date the product became available on the market.
    launch_date: dt.date = dt.date(2018, 1, 1)
    #: Whether the product implements the IAB TCF (not all do: products
    #: targeting the US market often skip it, Section 2.2).
    implements_tcf: bool = True
    #: TCF CMP id (only meaningful when implements_tcf).
    tcf_cmp_id: int = 0
    #: Primary jurisdiction the product is tailored to ("EU", "US", or
    #: "global"); drives the EU+UK TLD share observed in Section 4.1.
    primary_market: str = "global"
    #: Share of this CMP's customers with an EU+UK TLD (Section 4.1 gives
    #: 38.3% for Quantcast and 16.3% for OneTrust).
    eu_tld_share: float = 0.25

    def __post_init__(self) -> None:
        if self.primary_market not in ("EU", "US", "global"):
            raise ValueError(f"unknown market {self.primary_market!r}")
        if not 0.0 <= self.eu_tld_share <= 1.0:
            raise ValueError("eu_tld_share must be a fraction")

    @property
    def all_hosts(self) -> Tuple[str, ...]:
        return (self.fingerprint_host,) + self.auxiliary_hosts

    def available_on(self, date: dt.date) -> bool:
        return date >= self.launch_date


def _build_registry() -> Dict[str, CmpModel]:
    # Imported lazily to avoid circular imports between base and the
    # per-vendor modules.
    from repro.cmps import (
        cookiebot,
        crownpeak,
        liveramp,
        onetrust,
        quantcast,
        trustarc,
    )

    # Fixed tuple, so the dict's insertion (= iteration) order is the
    # paper's table order (CMP_KEYS) on every run and in every worker
    # process -- values()/items()/__iter__ below rely on that.
    models = (
        onetrust.MODEL,
        quantcast.MODEL,
        trustarc.MODEL,
        cookiebot.MODEL,
        liveramp.MODEL,
        crownpeak.MODEL,
    )
    return {m.key: m for m in models}


_REGISTRY: Optional[Dict[str, CmpModel]] = None


def _registry() -> Dict[str, CmpModel]:
    global _REGISTRY
    if _REGISTRY is None:
        # A process-local memo: _build_registry() is deterministic, so
        # every worker process builds an equal registry.
        _REGISTRY = _build_registry()  # repro-lint: disable=RACE001
    return _REGISTRY


def cmp_by_key(key: str) -> CmpModel:
    """Look up a CMP model by its stable key."""
    try:
        return _registry()[key]
    except KeyError:
        raise KeyError(f"unknown CMP {key!r}; known: {sorted(_registry())}")


class _CmpRegistryView:
    """Lazy, read-only view over the CMP registry."""

    def __iter__(self):
        return iter(_registry().values())

    def __len__(self) -> int:
        return len(_registry())

    def __getitem__(self, key: str) -> CmpModel:
        return cmp_by_key(key)

    def keys(self):
        # Sorted so callers can't bake the registry's insertion order
        # into an export; iteration in the paper's table order goes
        # through CMP_KEYS instead.
        return tuple(sorted(_registry().keys()))

    def values(self):
        return _registry().values()

    def items(self):
        return _registry().items()


#: Registry of the six CMPs under study, keyed by :attr:`CmpModel.key`.
CMPS = _CmpRegistryView()

#: Stable ordering used in tables: descending Tranco-10k occurrence.
CMP_KEYS = (
    "onetrust",
    "quantcast",
    "trustarc",
    "cookiebot",
    "liveramp",
    "crownpeak",
)

#: Version of the CMP registry contents. Part of every cache
#: fingerprint (:mod:`repro.cache`): bump when CMPs are added/removed or
#: a model's detection-relevant behaviour changes, so cached detection
#: results computed against the old registry are invalidated.
REGISTRY_VERSION = 1
