"""The CMP detection engine.

Applies the network fingerprints to captures. Detection deliberately
relies on HTTP request patterns only -- no HTML or DOM parsing -- which
the paper found far more reliable, and which detects CMPs even when no
dialog is shown (e.g. a EU-centric site visited from the US).

Includes the one documented manual correction: for a two-day period in
July 2018, Quantcast embedded parts of its CMP script for all customers
of its *analytics* product, a different line of the firm's business; the
paper manually excludes this outlier (Section 3.5, "CMP Detection").

Detection is bitmask-based: each fingerprint owns one bit (in
``FINGERPRINTS`` table order), every distinct host resolves -- once,
memoized -- to the mask of fingerprints it matches, and a capture's
detection state is the OR of its contacted hosts' masks. All per-mask
derived values (matched keys, first match, overcount flag) come from
precomputed 64-entry tables, which is what makes the columnar batch
path (:meth:`DetectionEngine.detect_batch`) a table lookup per crawl
instead of a fingerprint loop per capture.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crawler.capture import Capture
from repro.detect.fingerprints import FINGERPRINTS
from repro.obs import Observability, resolve_obs

#: The two-day Quantcast analytics outlier window (Section 3.5).
QUANTCAST_OUTLIER_WINDOW = (dt.date(2018, 7, 10), dt.date(2018, 7, 11))

_WIN_LO = QUANTCAST_OUTLIER_WINDOW[0].toordinal()
_WIN_HI = QUANTCAST_OUTLIER_WINDOW[1].toordinal()

#: Fingerprint bit i <-> FINGERPRINTS[i] (table order == match order).
_FP_KEYS: Tuple[str, ...] = tuple(fp.cmp_key for fp in FINGERPRINTS)
_QBIT = 1 << _FP_KEYS.index("quantcast")

#: Per-mask derived tables (2**len(FINGERPRINTS) == 64 entries).
_MASK_KEYS: Tuple[Tuple[str, ...], ...] = tuple(
    tuple(key for i, key in enumerate(_FP_KEYS) if mask & (1 << i))
    for mask in range(1 << len(_FP_KEYS))
)
_MASK_FIRST: Tuple[Optional[str], ...] = tuple(
    keys[0] if keys else None for keys in _MASK_KEYS
)
_MASK_COUNT: Tuple[int, ...] = tuple(len(keys) for keys in _MASK_KEYS)

#: host -> fingerprint mask, filled on first sight of each host.
_HOST_MASKS: Dict[str, int] = {}


def host_mask(host: str) -> int:
    """The fingerprint bitmask of one host (memoized).

    The host vocabulary of a run is small (site domains plus a handful
    of CMP/third-party hosts), so after warm-up this is one dict hit
    per contacted host.
    """
    mask = _HOST_MASKS.get(host)
    if mask is None:
        mask = 0
        for i, fp in enumerate(FINGERPRINTS):
            if fp.matches_host(host):
                mask |= 1 << i
        # Benign race: the mask is a pure function of the host, so
        # thread workers racing here store equal values.
        _HOST_MASKS[host] = mask  # repro-lint: disable=RACE001
    return mask


def hosts_mask(hosts: Sequence[str]) -> int:
    """The combined fingerprint mask of a host sequence."""
    mask = 0
    masks = _HOST_MASKS
    for host in hosts:
        m = masks.get(host)
        if m is None:
            m = host_mask(host)
        mask |= m
    return mask


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of running detection on one capture."""

    #: All CMPs whose unique hostname was contacted.
    matched: Tuple[str, ...]
    #: Matches dropped by manual corrections (the Quantcast outlier).
    excluded: Tuple[str, ...] = ()

    @property
    def cmp_key(self) -> Optional[str]:
        """The detected CMP (first match), or ``None``."""
        return self.matched[0] if self.matched else None

    @property
    def overcounted(self) -> bool:
        """More than one CMP present -- affects 0.01% of captures."""
        return len(self.matched) > 1


class DetectionEngine:
    """Stateful wrapper tracking detection statistics."""

    def __init__(
        self,
        apply_outlier_exclusion: bool = True,
        obs: "Optional[Observability]" = None,
    ):
        self.apply_outlier_exclusion = apply_outlier_exclusion
        self.captures_seen = 0
        self.overcounted = 0
        metrics = resolve_obs(obs).metrics
        self._m_captures = metrics.counter(
            "detect_captures_total", "captures run through CMP detection"
        )
        self._m_matches = metrics.counter(
            "detect_matches_total", "fingerprint matches by CMP"
        )
        self._m_overcounted = metrics.counter(
            "detect_overcounted_total", "captures matching >1 CMP"
        )
        self._m_excluded = metrics.counter(
            "detect_excluded_total",
            "matches dropped by manual corrections (Section 3.5)",
        )

    def detect(self, capture: Capture) -> DetectionResult:
        result = detect_cmp(
            capture, apply_outlier_exclusion=self.apply_outlier_exclusion
        )
        self.captures_seen += 1
        self._m_captures.inc()
        if result.cmp_key is not None:
            self._m_matches.inc(cmp=result.cmp_key)
        for excluded in result.excluded:
            self._m_excluded.inc(cmp=excluded)
        if result.overcounted:
            self.overcounted += 1
            self._m_overcounted.inc()
        return result

    def detect_batch(
        self, masks: Sequence[int], date_ordinals: Sequence[int]
    ) -> List[Optional[str]]:
        """Detect a whole column batch; metrics are metered in aggregate
        (one counter update per label instead of per crawl)."""
        exclusion = self.apply_outlier_exclusion
        first = _MASK_FIRST
        count = _MASK_COUNT
        keys: List[Optional[str]] = []
        append = keys.append
        matches: Dict[str, int] = {}
        excluded = 0
        overcounted = 0
        for mask, ordinal in zip(masks, date_ordinals):
            if exclusion and mask & _QBIT and _WIN_LO <= ordinal <= _WIN_HI:
                mask &= ~_QBIT
                excluded += 1
            key = first[mask]
            if key is not None:
                matches[key] = matches.get(key, 0) + 1
                if count[mask] > 1:
                    overcounted += 1
            append(key)
        n = len(keys)
        self.captures_seen += n
        self.overcounted += overcounted
        if n:
            self._m_captures.inc(n)
        for key, hits in matches.items():
            self._m_matches.inc(hits, cmp=key)
        if excluded:
            self._m_excluded.inc(excluded, cmp="quantcast")
        if overcounted:
            self._m_overcounted.inc(overcounted)
        return keys

    def absorb(
        self,
        captures_seen: int,
        overcounted: int,
        matches: Optional[Dict[str, int]] = None,
    ) -> None:
        """Fold counts from a shard-local engine into this one.

        Shard workers run their own engine without observability; the
        parent replays the aggregate counts here so process-level
        metrics stay complete. Per-CMP match counts are reconstructed
        from the merged observations by the caller; exclusion events are
        not persisted in shard results and are only metered where
        detection runs in-process.
        """
        self.captures_seen += captures_seen
        self.overcounted += overcounted
        if captures_seen:
            self._m_captures.inc(captures_seen)
        if overcounted:
            self._m_overcounted.inc(overcounted)
        for cmp_key, count in (matches or {}).items():
            self._m_matches.inc(count, cmp=cmp_key)

    @property
    def overcount_rate(self) -> float:
        return self.overcounted / self.captures_seen if self.captures_seen else 0.0


def detect_cmp(
    capture: Capture, *, apply_outlier_exclusion: bool = True
) -> DetectionResult:
    """Detect the CMP(s) present in one capture from its network traffic."""
    mask = hosts_mask(capture.contacted_hosts)
    excluded: Tuple[str, ...] = ()
    if (
        apply_outlier_exclusion
        and mask & _QBIT
        and _in_quantcast_outlier_window(capture.captured_at.date())
    ):
        mask &= ~_QBIT
        excluded = ("quantcast",)
    return DetectionResult(matched=_MASK_KEYS[mask], excluded=excluded)


def _in_quantcast_outlier_window(date: dt.date) -> bool:
    start, end = QUANTCAST_OUTLIER_WINDOW
    return start <= date <= end
