"""Low-level network substrate.

This package provides the networking primitives that the rest of the
reproduction is built on:

* :mod:`repro.net.url` -- URL parsing, normalization and resolution,
  tailored to the needs of a web crawler (scheme/host canonicalization,
  default-port stripping, relative reference resolution).
* :mod:`repro.net.psl` -- a Public Suffix List implementation used to
  normalize hostnames to their *effective second-level domain* (eTLD+1),
  which is the unit the paper counts CMP adoption by (Section 3.2).
* :mod:`repro.net.http` -- immutable HTTP request/response/cookie models
  matching the fields Netograph records for every capture.
* :mod:`repro.net.probe` -- the TLS/TCP reachability probe used to turn a
  toplist of bare domains into crawlable seed URLs (Section 3.2,
  "Toplist-Based Web Measurement").
"""

from repro.net.http import Cookie, HttpRequest, HttpResponse, HttpTransaction
from repro.net.psl import DOMAINS, PublicSuffixList, default_psl
from repro.net.url import URL, UrlError, parse_cache_info

__all__ = [
    "URL",
    "UrlError",
    "PublicSuffixList",
    "default_psl",
    "Cookie",
    "HttpRequest",
    "HttpResponse",
    "HttpTransaction",
    "publish_cache_gauges",
]


def publish_cache_gauges(obs) -> None:
    """Snapshot the net-layer memoization caches into obs gauges.

    Point-in-time counts of the bounded ``URL.parse`` cache and of the
    crawl path's host -> registrable-domain memo
    (:data:`~repro.net.psl.DOMAINS`, label ``domains``) -- the knobs
    that decide whether a multi-million-URL run stays memoized or
    thrashes. A domain-memo hit is a bare dict lookup and counts
    nothing, so that memo publishes misses and entries only: every
    miss inserted one entry, and misses past the entries were evicted.
    Called at the end of every platform/toplist run; a no-op under the
    null obs backend. The caches are per-process, so sharded
    ``process`` runs report the parent's caches only.
    """
    if not obs.enabled:
        return
    hits = obs.metrics.gauge(
        "net_cache_hits", "memoization hits in the net layer, by cache"
    )
    misses = obs.metrics.gauge(
        "net_cache_misses", "memoization misses in the net layer, by cache"
    )
    entries = obs.metrics.gauge(
        "net_cache_entries", "memoized entries in the net layer, by cache"
    )
    info = parse_cache_info()
    hits.set(info.hits, cache="url_parse")
    misses.set(info.misses, cache="url_parse")
    entries.set(info.currsize, cache="url_parse")
    domains = DOMAINS.counts()
    misses.set(domains.misses, cache="domains")
    entries.set(domains.entries, cache="domains")
