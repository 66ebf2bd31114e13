"""The capture queue with the paper's deduplication rules.

Section 3.4: "We skip a URL if we have captured the same domain in the
last hour or the precise URL in the last 48 hours. This applies to about
40% of all submitted URLs."

The queue tracks submission decisions so the skip rate can be reported
and compared against the paper's 40%.

Implementation notes (this is the one inherently serial phase of a run,
so its per-submit cost is on the critical path):

* Cooldown bookkeeping uses integer epoch-day seconds instead of
  ``datetime`` values -- one conversion per submit replaces a
  ``timedelta`` allocation per cooldown comparison.
* ``host -> registrable domain`` is memoized per queue; the PSL walk
  runs once per distinct host instead of once per submit.
* Decision metrics are accumulated as plain ints and flushed to the
  observability counters on :meth:`prune` (once per simulated day),
  not per submit.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Dict, Optional

from repro.net.psl import default_psl
from repro.net.url import URL
from repro.obs import Observability, resolve_obs

DOMAIN_COOLDOWN = dt.timedelta(hours=1)
URL_COOLDOWN = dt.timedelta(hours=48)

_DOMAIN_COOLDOWN_S = int(DOMAIN_COOLDOWN.total_seconds())
_URL_COOLDOWN_S = int(URL_COOLDOWN.total_seconds())


@dataclass
class QueueStats:
    """Counters over the queue's lifetime."""

    submitted: int = 0
    accepted: int = 0
    skipped_domain: int = 0
    skipped_url: int = 0

    @property
    def skipped(self) -> int:
        return self.skipped_domain + self.skipped_url

    @property
    def skip_rate(self) -> float:
        return self.skipped / self.submitted if self.submitted else 0.0


def _ts(when: dt.datetime) -> int:
    """*when* as integer seconds since day-ordinal zero."""
    return (
        when.toordinal() * 86_400
        + when.hour * 3_600
        + when.minute * 60
        + when.second
    )


class CaptureQueue:
    """Decides which submitted URLs are actually crawled."""

    def __init__(self, obs: Optional[Observability] = None) -> None:
        self._last_domain_capture: Dict[str, int] = {}
        self._last_url_capture: Dict[URL, int] = {}
        self._domain_memo: Dict[str, str] = {}
        self.stats = QueueStats()
        self._m_decisions = resolve_obs(obs).metrics.counter(
            "queue_submissions_total",
            "URL submissions by dedup decision (Section 3.4 skip rules)",
        )
        # Metric deltas since the last flush (see module docstring).
        self._pend_accepted = 0
        self._pend_skip_url = 0
        self._pend_skip_domain = 0

    def submit(self, url: URL, now: dt.datetime) -> bool:
        """Submit *url* at time *now*; returns True if it should be
        crawled, False if the dedup rules skip it."""
        return self.submit_at(url, _ts(now))

    def submit_at(self, url: URL, ts: int) -> bool:
        """:meth:`submit` with *ts* already converted by the caller.

        The platform's day loop derives the integer timestamp once and
        shares it with the crawl-phase key derivation, skipping the
        per-submit datetime field reads.
        """
        stats = self.stats
        stats.submitted += 1
        if url.fragment:
            url = url.without_fragment()

        last_url = self._last_url_capture.get(url)
        if last_url is not None and ts - last_url < _URL_COOLDOWN_S:
            stats.skipped_url += 1
            self._pend_skip_url += 1
            return False
        domain = self._domain_memo.get(url.host)
        if domain is None:
            reg = default_psl().registrable_domain(url.host)
            domain = reg if reg is not None else url.host
            self._domain_memo[url.host] = domain
        last_domain = self._last_domain_capture.get(domain)
        if last_domain is not None and ts - last_domain < _DOMAIN_COOLDOWN_S:
            stats.skipped_domain += 1
            self._pend_skip_domain += 1
            return False

        stats.accepted += 1
        self._pend_accepted += 1
        # Delete-before-set keeps both dicts ordered by timestamp even
        # when a key is re-accepted after its cooldown (a plain value
        # update would leave it at its original insertion position).
        # Submissions arrive chronologically, so insertion order ==
        # timestamp order -- the invariant prune() relies on. Equal
        # integer timestamps (events colliding on the same second, e.g.
        # at day boundaries) tie-break by feed order: the earlier
        # submission is inserted first and stays first, which the
        # streaming engine's watermark finalization depends on (pinned
        # by tests/test_boundary_fixes.py).
        urls = self._last_url_capture
        if url in urls:
            del urls[url]
        urls[url] = ts
        domains = self._last_domain_capture
        if domain in domains:
            del domains[domain]
        domains[domain] = ts
        return True

    def prune(self, now: dt.datetime) -> None:
        """Drop expired cooldown entries to bound memory on long runs.

        Both dicts are timestamp-ordered (see :meth:`submit_at`), so the
        expired entries form a prefix: the scan stops at the first live
        entry, making each prune O(expired) instead of O(tracked). Also
        flushes the accumulated decision metrics.
        """
        ts = _ts(now)
        for tracked, cooldown in (
            (self._last_url_capture, _URL_COOLDOWN_S),
            (self._last_domain_capture, _DOMAIN_COOLDOWN_S),
        ):
            expired = []
            for key, t in tracked.items():
                if ts - t < cooldown:
                    break
                expired.append(key)
            for key in expired:
                del tracked[key]
        self.flush_metrics()

    def flush_metrics(self) -> None:
        """Publish decision deltas accumulated since the last flush."""
        if self._pend_accepted:
            self._m_decisions.inc(self._pend_accepted, decision="accepted")
            self._pend_accepted = 0
        if self._pend_skip_url:
            self._m_decisions.inc(self._pend_skip_url, decision="skipped_url")
            self._pend_skip_url = 0
        if self._pend_skip_domain:
            self._m_decisions.inc(
                self._pend_skip_domain, decision="skipped_domain"
            )
            self._pend_skip_domain = 0

    # ------------------------------------------------------------------
    # Checkpoint serialization (repro.stream)
    # ------------------------------------------------------------------
    def state_payload(self) -> dict:
        """JSON-serializable cooldown + stats state.

        The cooldown dicts are serialized as ordered ``[key, ts]`` pair
        lists -- their insertion (== timestamp) order is load-bearing
        for :meth:`prune`'s prefix-scan invariant and for tie-breaking,
        so :meth:`restore_state` re-inserts in payload order. Pending
        metric deltas are flushed first so the payload never carries
        half-published counters.
        """
        self.flush_metrics()
        return {
            "urls": [
                [str(url), ts] for url, ts in self._last_url_capture.items()
            ],
            "domains": list(
                [d, ts] for d, ts in self._last_domain_capture.items()
            ),
            "stats": {
                "submitted": self.stats.submitted,
                "accepted": self.stats.accepted,
                "skipped_domain": self.stats.skipped_domain,
                "skipped_url": self.stats.skipped_url,
            },
        }

    def restore_state(self, payload: dict) -> None:
        """Exact inverse of :meth:`state_payload` (fresh queue only)."""
        if self._last_url_capture or self._last_domain_capture:
            raise ValueError("restore_state requires a fresh queue")
        self._last_url_capture = {
            URL.parse(raw): ts for raw, ts in payload["urls"]
        }
        self._last_domain_capture = {d: ts for d, ts in payload["domains"]}
        stats = payload["stats"]
        self.stats = QueueStats(
            submitted=stats["submitted"],
            accepted=stats["accepted"],
            skipped_domain=stats["skipped_domain"],
            skipped_url=stats["skipped_url"],
        )
