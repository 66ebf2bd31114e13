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

The PSL itself memoizes nothing. Every caller that maps hosts to
registrable domains repeatedly -- the capture queue, the crawl kernel,
the fault schedule's keys and :class:`~repro.crawler.capture.Capture`
-- reads them through :data:`DOMAINS`, one bounded process-wide
host -> domain memo.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Tuple

from repro.memo import FunctionMemo


class PublicSuffixList:
    """A compiled Public Suffix List.

    Args:
        rules: iterable of rule lines in PSL syntax. Comment lines
            (``// ...``) and blank lines are ignored.
    """

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

    def __len__(self) -> int:
        return len(self._exact) + len(self._wildcard) + len(self._exception)

    # ------------------------------------------------------------------
    def public_suffix(self, host: str) -> str:
        """Return the public suffix of *host*.

        Follows the PSL algorithm: the longest matching rule wins,
        exception rules beat wildcard rules, and if no rule matches the
        suffix is the last label (the "``*``" implicit rule).
        """
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
        """Return the eTLD+1 for *host*, or ``None`` for bare suffixes.

        This is the paper's unit of counting: the "effective second-level
        domain" under which internet users can directly register names.

        >>> default_psl().registrable_domain("foo.example.github.io")
        'example.github.io'
        >>> default_psl().registrable_domain("github.io") is None
        True
        """
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


def registrable_or_host(host: str) -> str:
    """The registrable domain of *host*, or *host* itself for a bare
    public suffix (the crawl's counting unit)."""
    reg = default_psl().registrable_domain(host)
    return reg if reg is not None else host


#: Bound of :data:`DOMAINS`: far above the distinct hosts of a
#: 3.7M-crawl run over 20k domains, so it only caps a pathological host
#: universe.
DOMAIN_MEMO_SIZE = 65_536

#: The crawl path's one host -> :func:`registrable_or_host` memo. The
#: capture queue and the crawl kernel read it with ``DOMAINS.data.get``
#: and call it on a miss. Process-wide: the mapping is pure, so every
#: worker process holds equal entries, and partition queues carry none.
DOMAINS = FunctionMemo(registrable_or_host, DOMAIN_MEMO_SIZE)
