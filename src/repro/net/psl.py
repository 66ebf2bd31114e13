"""Public Suffix List (PSL) lookup.

The paper normalizes every captured hostname to its *effective second-level
domain* (also called eTLD+1 or "registrable domain") using Mozilla's Public
Suffix List, so that ``foo.example.github.io`` is counted as
``example.github.io`` and ``shop.example.co.uk`` as ``example.co.uk``
(Section 3.2).

This module implements the PSL matching algorithm from
https://publicsuffix.org/list/ -- including wildcard rules (``*.ck``) and
exception rules (``!www.ck``) -- against a bundled snapshot of rules in
:mod:`repro.datasets`. The snapshot covers every suffix the synthetic web
generator emits plus the common real-world suffixes, so the lookup code
path is identical to one backed by the full list.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Tuple


class PublicSuffixList:
    """A compiled Public Suffix List.

    Args:
        rules: iterable of rule lines in PSL syntax. Comment lines
            (``// ...``) and blank lines are ignored.
    """

    #: Cached lookups per instance; sized for crawl workloads, where the
    #: same third-party and toplist hosts recur millions of times.
    CACHE_SIZE = 65_536

    def __init__(self, rules: Iterable[str]):
        self._exact: set = set()
        self._wildcard: set = set()  # rule "*.ck" stored as "ck"
        self._exception: set = set()  # rule "!www.ck" stored as "www.ck"
        for line in rules:
            line = line.strip().lower()
            if not line or line.startswith("//"):
                continue
            if line.startswith("!"):
                self._exception.add(line[1:])
            elif line.startswith("*."):
                self._wildcard.add(line[2:])
            else:
                self._exact.add(line)
        if not self._exact and not self._wildcard:
            raise ValueError("empty public suffix list")
        self._install_caches()

    def _install_caches(self) -> None:
        # Per-instance memoization keeps the caches with the rule set
        # they were computed from (and lets them die with the instance).
        self._suffix_cached = lru_cache(maxsize=self.CACHE_SIZE)(
            self._public_suffix_uncached
        )
        self._registrable_cached = lru_cache(maxsize=self.CACHE_SIZE)(
            self._registrable_domain_uncached
        )

    # ------------------------------------------------------------------
    # Pickling: the lru_cache wrappers close over bound methods and are
    # not picklable, which used to make any object graph holding a PSL
    # (e.g. payloads shipped to shard worker processes) fail to
    # serialize. The caches are dropped on pickle and rebuilt cold on
    # unpickle -- memoized state is per-process by design.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_suffix_cached"]
        del state["_registrable_cached"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._install_caches()

    def cache_info(self) -> dict:
        """Per-cache hit/miss/size statistics (for the obs gauges)."""
        return {
            "suffix": self._suffix_cached.cache_info(),
            "registrable": self._registrable_cached.cache_info(),
        }

    def __len__(self) -> int:
        return len(self._exact) + len(self._wildcard) + len(self._exception)

    # ------------------------------------------------------------------
    def public_suffix(self, host: str) -> str:
        """Return the public suffix of *host* (memoized).

        Follows the PSL algorithm: the longest matching rule wins,
        exception rules beat wildcard rules, and if no rule matches the
        suffix is the last label (the "``*``" implicit rule).
        """
        return self._suffix_cached(host)

    def _public_suffix_uncached(self, host: str) -> str:
        labels = _labels(host)
        suffix_len = 1  # implicit "*" rule
        for i in range(len(labels)):
            candidate = ".".join(labels[i:])
            rest = ".".join(labels[i + 1:])
            if candidate in self._exception:
                # Exception rules mark the registrable domain itself, so
                # the public suffix is one label shorter.
                suffix_len = max(suffix_len, len(labels) - i - 1)
                break
            if candidate in self._exact:
                suffix_len = max(suffix_len, len(labels) - i)
            if rest and rest in self._wildcard:
                suffix_len = max(suffix_len, len(labels) - i)
        return ".".join(labels[-suffix_len:])

    def registrable_domain(self, host: str) -> Optional[str]:
        """Return the eTLD+1 for *host*, or ``None`` for bare suffixes
        (memoized).

        This is the paper's unit of counting: the "effective second-level
        domain" under which internet users can directly register names.

        >>> default_psl().registrable_domain("foo.example.github.io")
        'example.github.io'
        >>> default_psl().registrable_domain("github.io") is None
        True
        """
        return self._registrable_cached(host)

    def _registrable_domain_uncached(self, host: str) -> Optional[str]:
        labels = _labels(host)
        suffix = self.public_suffix(host)
        n_suffix = suffix.count(".") + 1
        if len(labels) <= n_suffix:
            return None
        return ".".join(labels[-(n_suffix + 1):])

    def split(self, host: str) -> Tuple[str, str]:
        """Split *host* into ``(prefix, registrable_domain)``.

        The prefix is everything left of the registrable domain (without a
        trailing dot), or ``""``. For bare public suffixes the whole host
        is returned as the registrable part, mirroring how the crawler
        treats infrastructure domains.
        """
        reg = self.registrable_domain(host)
        if reg is None:
            return "", host.lower().rstrip(".")
        prefix = host.lower().rstrip(".")[: -(len(reg) + 1)]
        return prefix, reg

    def is_public_suffix(self, host: str) -> bool:
        """True if *host* itself is a public suffix (e.g. ``co.uk``)."""
        return self.registrable_domain(host) is None


def _labels(host: str) -> list:
    host = host.strip().lower().rstrip(".")
    if not host:
        raise ValueError("empty hostname")
    labels = host.split(".")
    if any(not lbl for lbl in labels):
        raise ValueError(f"malformed hostname {host!r}")
    return labels


@lru_cache(maxsize=1)
def default_psl() -> PublicSuffixList:
    """Return the PSL compiled from the bundled snapshot (cached)."""
    from repro.datasets import load_psl_snapshot

    return PublicSuffixList(load_psl_snapshot())
