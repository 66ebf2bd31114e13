"""The capture schema.

A :class:`Capture` records everything Netograph stores for one browser
visit (Section 3.2): HTTP headers for all requests and responses,
connection metadata, cookies and client-side storage, a viewport
screenshot descriptor, and -- for toplist crawls only -- the DOM tree
(here: the structured dialog descriptor) and a full-page screenshot.

Because the longitudinal analyses only need ``(domain, date, cmp)``
triples, a capture can be compacted into an :class:`Observation`, the
unit the adoption/switching analyses operate on.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

from repro.cmps.base import DialogDescriptor
from repro.net.http import Cookie, HttpTransaction
from repro.net.psl import DOMAINS
from repro.net.url import URL


@dataclass(frozen=True)
class Vantage:
    """Where a crawl was performed from."""

    region: str  # "EU" | "US"
    address_space: str  # "cloud" | "university" | "residential"

    def __post_init__(self) -> None:
        if self.region not in ("EU", "US"):
            raise ValueError(f"unknown region {self.region!r}")
        if self.address_space not in ("cloud", "university", "residential"):
            raise ValueError(f"unknown address space {self.address_space!r}")

    def __str__(self) -> str:
        return f"{self.region}-{self.address_space}"


EU_CLOUD = Vantage("EU", "cloud")
US_CLOUD = Vantage("US", "cloud")
EU_UNIVERSITY = Vantage("EU", "university")


@dataclass(frozen=True)
class ScreenshotInfo:
    """Descriptor of a stored screenshot (contents are not modelled)."""

    width: int = 1024
    height: int = 800
    full_page: bool = False


@dataclass(frozen=True)
class Capture:
    """One completed browser crawl."""

    capture_id: int
    seed_url: URL
    final_url: URL
    captured_at: dt.datetime
    vantage: Vantage
    #: Final document status; ``None`` when no response was received.
    status: Optional[int]
    transactions: Tuple[HttpTransaction, ...] = ()
    cookies: Tuple[Cookie, ...] = ()
    #: LocalStorage/SessionStorage/IndexedDB/WebSQL entries present when
    #: the crawl ended (Section 3.2).
    storage_records: Tuple = ()
    screenshot: ScreenshotInfo = field(default_factory=ScreenshotInfo)
    #: Visible page text (used by the GDPR phrase scan).
    page_text: str = ""
    #: The crawl was cut short by the aggressive timeout.
    timed_out: bool = False
    #: DOM-derived dialog descriptor; only stored for toplist crawls
    #: ("these extended features are not stored for the social media
    #: dataset due to their storage requirements", Section 3.2).
    dom_dialog: Optional[DialogDescriptor] = None
    dialog_shown: bool = False
    blocked_by_antibot: bool = False
    #: Kind of the injected fault that produced this capture, if any
    #: (see :mod:`repro.faults`). ``None`` for every organic capture,
    #: so fault-free runs are bit-identical with the module wired in.
    fault: Optional[str] = None

    @property
    def succeeded(self) -> bool:
        return self.status is not None and 200 <= self.status < 400

    @cached_property
    def final_domain(self) -> str:
        """Effective second-level domain of the final address-bar URL.

        This is the paper's unit of counting: the domain is taken from
        the final website address (not the seed URL, which would be
        imprecise due to redirects) and normalized via the Public Suffix
        List (Section 3.2).

        Cached per capture: adoption, marketshare and vantage derivation
        all read it repeatedly, and the PSL lookup is not free. (The
        cache lives in the instance ``__dict__``, which the frozen
        dataclass permits because the write bypasses ``__setattr__``;
        equality and hashing only consider declared fields.)
        """
        return DOMAINS(self.final_url.host)

    @property
    def contacted_hosts(self) -> Tuple[str, ...]:
        return tuple(tx.request.url.host for tx in self.transactions)

    @property
    def n_requests(self) -> int:
        return len(self.transactions)

    def to_observation(self, cmp_key: Optional[str]) -> "Observation":
        """Compact this capture into an observation for the longitudinal
        analyses, given the CMP-detection result."""
        return Observation(
            domain=self.final_domain,
            date=self.captured_at.date(),
            cmp_key=cmp_key,
            vantage=self.vantage,
        )


@dataclass(frozen=True, order=True)
class Observation:
    """The compact unit of the longitudinal analyses."""

    domain: str
    date: dt.date
    cmp_key: Optional[str]
    vantage: Vantage = field(compare=False, default=EU_CLOUD)
