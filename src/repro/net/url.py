"""URL parsing and canonicalization.

A small, dependency-free URL implementation covering everything the crawler
and the analyses need: parsing absolute URLs, canonicalizing them the way a
browser address bar would (lower-cased scheme and host, default ports
stripped, empty path normalized to ``/``), and resolving relative
references against a base URL.

The implementation deliberately rejects exotic inputs (userinfo, IPv6
literals with zone ids, non-http schemes other than a small allowlist)
instead of guessing, because every URL in this system is produced by our
own synthetic web or by the seed streams, both of which stick to the
common subset.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import field, replace
from functools import lru_cache
from typing import Optional, Tuple

from repro.valueclass import value_class

_SCHEME_RE = re.compile(r"^([a-zA-Z][a-zA-Z0-9+.-]*):")
_HOST_RE = re.compile(r"^[a-z0-9]([a-z0-9._-]*[a-z0-9])?$")

#: Schemes the crawler is willing to fetch.
FETCHABLE_SCHEMES = ("http", "https")

#: Upper bound of the ``URL.parse`` memoization cache. Bounded (LRU) on
#: purpose: multi-million-URL crawls see mostly-unique share URLs, and
#: an unbounded cache would grow with the workload instead of with the
#: working set (the shortener and CMP asset URLs that actually recur).
#: Hit/size are exported as the ``net_cache_*`` obs gauges via
#: :func:`parse_cache_info`.
PARSE_CACHE_SIZE = 8_192

#: Default ports per scheme; these are stripped during canonicalization.
DEFAULT_PORTS = {"http": 80, "https": 443}


class UrlError(ValueError):
    """Raised when a string cannot be parsed as a supported URL."""


#: Writes a slot past the value class's refusing ``__setattr__``.
_set = object.__setattr__


@value_class(order=True, memos=("_hash", "_h64"))
class URL:
    """An absolute, canonicalized URL.

    Instances are immutable and hashable, so they can be used as dictionary
    keys in the capture queue's deduplication maps. A URL is a slotted
    value class (:mod:`repro.valueclass`): its six fields and the memos
    of its hash and :attr:`h64` live in fixed slots, with no
    per-instance ``__dict__`` -- a crawl holds thousands of URLs. The
    string is not kept: it is built on demand.

    Attributes:
        scheme: ``http`` or ``https``.
        host: lower-cased hostname, no trailing dot.
        port: explicit port, or ``None`` when the scheme default applies.
        path: absolute path, always starting with ``/``.
        query: query string without the leading ``?``, or ``""``.
        fragment: fragment without the leading ``#``, or ``""``.
    """

    scheme: str
    host: str
    port: Optional[int] = None
    path: str = "/"
    query: str = ""
    fragment: str = field(default="", compare=False)

    def __init__(
        self,
        scheme: str,
        host: str,
        port: Optional[int] = None,
        path: str = "/",
        query: str = "",
        fragment: str = "",
    ) -> None:
        _set(self, "scheme", scheme)
        _set(self, "host", host)
        _set(self, "port", port)
        _set(self, "path", path)
        _set(self, "query", query)
        _set(self, "fragment", fragment)
        _set(self, "_hash", None)
        _set(self, "_h64", None)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, raw: str) -> "URL":
        """Parse an absolute URL string (memoized).

        Crawl workloads parse the same strings over and over -- the
        shortener and CMP asset URLs rebuilt for every page render --
        so results are cached. URLs are immutable, which makes sharing
        the parsed instances safe.

        Raises:
            UrlError: if *raw* is relative, uses an unsupported scheme, or
                has a malformed authority component.
        """
        if not isinstance(raw, str):
            raise UrlError(f"expected str, got {type(raw).__name__}")
        return _parse_url(raw.strip())

    @classmethod
    def _parse_uncached(cls, raw: str) -> "URL":
        m = _SCHEME_RE.match(raw)
        if not m:
            raise UrlError(f"not an absolute URL: {raw!r}")
        scheme = m.group(1).lower()
        if scheme not in FETCHABLE_SCHEMES:
            raise UrlError(f"unsupported scheme {scheme!r} in {raw!r}")
        rest = raw[m.end():]
        if not rest.startswith("//"):
            raise UrlError(f"missing authority in {raw!r}")
        rest = rest[2:]

        # Split off fragment, then query, then path.
        rest, _, fragment = rest.partition("#")
        rest, _, query = rest.partition("?")
        authority, slash, path = rest.partition("/")
        path = slash + path if slash else "/"

        if "@" in authority:
            raise UrlError(f"userinfo not supported: {raw!r}")
        host, port = cls._split_host_port(authority, raw)
        if DEFAULT_PORTS.get(scheme) == port:
            port = None
        return cls(
            scheme=scheme,
            host=host,
            port=port,
            path=_normalize_path(path),
            query=query,
            fragment=fragment,
        )

    @staticmethod
    def _split_host_port(authority: str, raw: str) -> Tuple[str, Optional[int]]:
        host, colon, port_s = authority.partition(":")
        host = host.lower().rstrip(".")
        if not host or not _HOST_RE.match(host):
            raise UrlError(f"malformed host {host!r} in {raw!r}")
        if not colon:
            return host, None
        if not port_s.isdigit():
            raise UrlError(f"malformed port {port_s!r} in {raw!r}")
        port = int(port_s)
        if not 1 <= port <= 65535:
            raise UrlError(f"port out of range in {raw!r}")
        return host, port

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def origin(self) -> str:
        """The URL's origin, e.g. ``https://example.com``."""
        if self.port is not None:
            return f"{self.scheme}://{self.host}:{self.port}"
        return f"{self.scheme}://{self.host}"

    @property
    def effective_port(self) -> int:
        """The port actually used on the wire."""
        return self.port if self.port is not None else DEFAULT_PORTS[self.scheme]

    @property
    def is_landing_page(self) -> bool:
        """True if this URL points at a site's front page."""
        return self.path == "/" and not self.query

    def without_fragment(self) -> "URL":
        """Return the same URL with the fragment removed."""
        if not self.fragment:
            return self
        return replace(self, fragment="")

    def with_path(self, path: str, query: str = "") -> "URL":
        """Return a copy of this URL pointing at *path* (and *query*)."""
        return replace(self, path=_normalize_path(path), query=query, fragment="")

    def with_host(self, host: str) -> "URL":
        """Return a copy of this URL on a different host."""
        host = host.lower().rstrip(".")
        if not _HOST_RE.match(host):
            raise UrlError(f"malformed host {host!r}")
        return replace(self, host=host)

    def sibling(self, scheme: str) -> "URL":
        """Return the same URL under a different scheme."""
        if scheme not in FETCHABLE_SCHEMES:
            raise UrlError(f"unsupported scheme {scheme!r}")
        return replace(self, scheme=scheme, port=None)

    def resolve(self, reference: str) -> "URL":
        """Resolve a (possibly relative) reference against this URL.

        Supports the reference forms that occur in practice on the
        synthetic web: absolute URLs, scheme-relative (``//host/...``),
        absolute-path (``/foo``) and relative-path (``foo/bar``)
        references.
        """
        reference = reference.strip()
        if not reference:
            return self.without_fragment()
        if _SCHEME_RE.match(reference):
            return URL.parse(reference)
        if reference.startswith("//"):
            return URL.parse(f"{self.scheme}:{reference}")
        if reference.startswith("#"):
            return replace(self, fragment=reference[1:])
        ref_path, _, query = reference.partition("?")
        query, _, fragment = query.partition("#")
        if ref_path.startswith("/"):
            path = ref_path
        else:
            base_dir = self.path.rsplit("/", 1)[0]
            path = f"{base_dir}/{ref_path}"
        return replace(
            self, path=_normalize_path(path), query=query, fragment=fragment
        )

    def __str__(self) -> str:
        # Not memoized: the crawl reads a URL's string once, for its
        # h64 memo; retry keys and queue checkpoints are rare.
        s = f"{self.origin}{self.path}"
        if self.query:
            s += f"?{self.query}"
        if self.fragment:
            s += f"#{self.fragment}"
        return s

    def __hash__(self) -> int:
        # Memoized with the same field tuple the generated dataclass
        # hash would use (fragment is compare=False and excluded); URLs
        # key the capture queue's dedup maps, so this runs per event.
        h = self._hash
        if h is None:
            # Process-local dict keying only (mirrors the hash the
            # dataclass would generate); never persisted or compared
            # across processes, so the per-process salt is fine.
            h = hash(  # repro-lint: disable=DET003
                (self.scheme, self.host, self.port, self.path, self.query)
            )
            _set(self, "_hash", h)
        return h

    def __reduce__(self):
        # Pickle the fields only: the memoized hash is salted per
        # process, and a copy unpickled in another process (a partition
        # queue travelling to or from a worker) must key dicts by its
        # own process's hash. Unpickling runs the constructor, which
        # leaves every memo empty.
        return (
            URL,
            (self.scheme, self.host, self.port, self.path, self.query,
             self.fragment),
        )

    @property
    def h64(self) -> int:
        """This URL's :func:`repro.det.key64` part, precomputed.

        Exactly the value ``key64`` derives for ``str(self)``, so
        ``key64(..., url.h64, ...)`` equals ``key64(..., str(url), ...)``
        while skipping the string encode/CRC on every use.
        """
        h = self._h64
        if h is None:
            s = str(self)
            h = zlib.crc32(s.encode("utf-8")) ^ (len(s) << 32)
            _set(self, "_h64", h)
        return h


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse_url(raw: str) -> URL:
    return URL._parse_uncached(raw)


def parse_cache_info():
    """Hit/miss/size statistics of the ``URL.parse`` memoization cache.

    Note the cache is per-process: shard worker processes each warm
    their own (module state never pickles across), so a sharded run
    reports the parent process's cache only.
    """
    return _parse_url.cache_info()


def _normalize_path(path: str) -> str:
    """Collapse ``.``/``..`` segments and duplicate slashes in *path*."""
    if not path.startswith("/"):
        path = "/" + path
    segments = path.split("/")
    out: list = []
    for seg in segments[1:]:
        if seg in ("", ".") and seg != segments[-1]:
            continue
        if seg == ".":
            seg = ""
        if seg == "..":
            if out:
                out.pop()
            continue
        out.append(seg)
    normalized = "/" + "/".join(out)
    return normalized or "/"
