"""The browser simulator.

Wraps :func:`repro.web.serving.render_page` with crawl behaviour:

* **timeout profiles** -- Netograph crawls with "relatively aggressive
  timeouts" (an idle timeout of five seconds and a total page timeout of
  45 seconds, under heavy CPU load); the toplist study repeats captures
  with an extended timeout (Section 3.2). We model a profile as an
  effective transaction cutoff: requests that start after the cutoff are
  not recorded, which is exactly how late-loading CMP scripts get missed
  (2% of CMP usage, Section 3.5);
* **redirect following** -- the final address-bar URL is computed from
  the document transactions;
* capture assembly (screenshots, storage, page text).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Dict, Optional

from repro.crawler.capture import Capture, ScreenshotInfo, Vantage
from repro.faults.schedule import FaultSchedule
from repro.net.psl import DOMAINS
from repro.net.url import URL
from repro.web.serving import VisitSettings, render_page
from repro.web.worldgen import World


@dataclass(frozen=True)
class CrawlProfile:
    """A crawl configuration.

    ``cutoff`` abstracts the combined effect of the idle and total page
    timeouts under crawler load: transactions starting later than this
    many seconds after navigation are missed.
    """

    name: str
    cutoff: float
    language: str = "en-US"
    full_page_screenshot: bool = False
    store_dom: bool = False

    def __post_init__(self) -> None:
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")


#: Netograph's default aggressive profile (social-media crawls).
DEFAULT_PROFILE = CrawlProfile(name="default", cutoff=10.0)

#: The toplist study's extended-timeout profile.
EXTENDED_PROFILE = CrawlProfile(
    name="extended", cutoff=120.0, full_page_screenshot=True, store_dom=True
)


def crawl_url(
    world: World,
    url: URL,
    *,
    when: dt.datetime,
    vantage: Vantage,
    profile: CrawlProfile = DEFAULT_PROFILE,
    capture_id: int = 0,
    faults: Optional[FaultSchedule] = None,
    attempt: int = 0,
) -> Capture:
    """Crawl one URL and assemble a capture.

    With a fault schedule, the schedule is consulted for
    ``(registrable domain of url, vantage, attempt)`` before the page is
    rendered; a scheduled fault short-circuits into a failed capture
    whose ``fault`` field names the kind, which is what the retry loops
    key their decisions on. ``attempt`` only feeds that lookup -- the
    render itself is attempt-independent, so a recovered retry is
    bit-identical to the crawl that would have happened fault-free.
    """
    if faults is not None:
        fault = faults.fault_for(
            _schedule_domain(url), str(vantage), attempt
        )
        if fault is not None:
            return faulted_capture(
                url, when, vantage, profile, fault.kind, capture_id
            )
    settings = VisitSettings(
        date=when.date(),
        region=vantage.region,
        address_space=vantage.address_space,
        language=profile.language,
    )
    page = render_page(world, url, settings)
    kept, final_url, timed_out = page.cut(profile.cutoff)
    # Storage entries only exist if the writing script ran before the
    # crawl was cut off.
    kept_storage = tuple(
        r for r in page.storage_records if r.written_at < profile.cutoff
    )

    return Capture(
        capture_id=capture_id,
        seed_url=url,
        final_url=final_url,
        captured_at=when,
        vantage=vantage,
        status=page.status,
        transactions=kept,
        cookies=page.cookies,
        storage_records=kept_storage,
        screenshot=ScreenshotInfo(
            full_page=profile.full_page_screenshot
        ),
        page_text=page.page_text,
        timed_out=timed_out,
        dom_dialog=page.dialog if profile.store_dom else None,
        dialog_shown=page.dialog_shown if profile.store_dom else False,
        blocked_by_antibot=page.blocked_by_antibot,
    )


def _schedule_domain(url: URL) -> str:
    """The domain a fault schedule keys on: the registrable domain of
    the seed URL (the queue's dedup unit, Section 3.4)."""
    return DOMAINS(url.host)


#: Document status a faulted capture records, by fault kind; kinds
#: absent here received no HTTP response at all (status ``None``).
FAULT_STATUS: Dict[str, int] = {"antibot-challenge": 403}


def faulted_capture(
    url: URL,
    when: dt.datetime,
    vantage: Vantage,
    profile: CrawlProfile,
    kind: str,
    capture_id: int = 0,
) -> Capture:
    """The capture an injected fault of *kind* produces instead of a
    page render.

    Every kind fails conservatively: no transactions beyond an anti-bot
    interstitial, no cookies, no CMP-bearing page text -- a faulted
    capture can only ever *under*count CMP presence.
    """
    timed_out = False
    page_text = ""
    blocked = False
    if kind == "slow-response":
        # The response outlasted even the extended page timeout: the
        # crawl is cut off before any transaction completes.
        timed_out = True
    elif kind == "antibot-challenge":
        page_text = "Checking your browser before accessing the site."
        blocked = True
    return Capture(
        capture_id=capture_id,
        seed_url=url,
        final_url=url,
        captured_at=when,
        vantage=vantage,
        status=FAULT_STATUS.get(kind),
        transactions=(),
        cookies=(),
        storage_records=(),
        screenshot=ScreenshotInfo(full_page=profile.full_page_screenshot),
        page_text=page_text,
        timed_out=timed_out,
        dom_dialog=None,
        dialog_shown=False,
        blocked_by_antibot=blocked,
        fault=kind,
    )
