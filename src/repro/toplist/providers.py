"""Synthetic toplist providers.

Four ranking providers over the synthetic web, standing in for the four
lists Tranco aggregates. Each provider observes the true popularity rank
through its own noisy lens, mirroring the real providers' differing
methodologies (Scheitle et al., IMC '18):

* **alexa** -- panel-based browsing data: moderate noise;
* **umbrella** -- DNS resolver volume: noisier, and it up-ranks
  infrastructure domains (CDNs, API endpoints) that users never visit
  directly -- the reason toplists contain domains that are never shared
  on social media (Section 3.5, "Missing Data");
* **majestic** -- backlink counts: the noisiest, slow-moving lens;
* **quantcast** -- measured site traffic: the least noisy but with
  partial coverage of the long tail.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.web.worldgen import World

PROVIDER_NAMES: Tuple[str, ...] = ("alexa", "umbrella", "majestic", "quantcast")

#: Log-normal rank-noise scale per provider.
_NOISE_SCALE = {
    "alexa": 0.35,
    "umbrella": 0.55,
    "majestic": 0.75,
    "quantcast": 0.25,
}

#: Umbrella's boost factor for infrastructure domains.
_INFRA_BOOST = 8.0

#: Quantcast's long-tail coverage: sites beyond this true rank are
#: randomly dropped with 50% probability.
_QUANTCAST_TAIL_START = 20_000


@dataclass(frozen=True, eq=False)
class ProviderRanking:
    """One provider's ranking: ``order[i]`` is the true rank of the
    domain the provider puts in position ``i + 1``. Providers with
    partial coverage list fewer domains than the world contains.
    Equality is identity; compare ``order`` with ``np.array_equal``."""

    provider: str
    order: np.ndarray  # int64, shape (n_listed,)
    n_domains: int

    def __len__(self) -> int:
        return len(self.order)

    def position_of(self) -> np.ndarray:
        """Inverse permutation: ``position_of()[true_rank - 1]`` is this
        provider's 1-based rank of that domain (0 = not listed)."""
        pos = np.zeros(self.n_domains, dtype=np.int64)
        pos[self.order - 1] = np.arange(1, len(self.order) + 1)
        return pos


def provider_ranking(
    world: World, provider: str, *, infra_scan_limit: int = 50_000
) -> ProviderRanking:
    """Compute one provider's ranking of the whole world."""
    if provider not in PROVIDER_NAMES:
        raise KeyError(f"unknown provider {provider!r}")
    n = world.config.n_domains
    rng = np.random.default_rng(
        zlib.crc32(f"{world.config.seed}:toplist:{provider}".encode("utf-8"))
    )
    ranks = np.arange(1, n + 1, dtype=np.float64)
    scores = 1.0 / ranks
    scores *= np.exp(rng.normal(0.0, _NOISE_SCALE[provider], size=n))

    if provider == "umbrella":
        # Boost infrastructure domains; scanning the site class is
        # bounded to the head of the list, which is where it matters.
        limit = min(infra_scan_limit, n)
        for rank in range(1, limit + 1):
            if world._class_of(rank) == "infrastructure":
                scores[rank - 1] *= _INFRA_BOOST
    elif provider == "quantcast":
        tail = np.arange(n) + 1 > _QUANTCAST_TAIL_START
        drop = rng.random(n) < 0.5
        scores[tail & drop] = 0.0

    order = np.argsort(-scores, kind="stable") + 1
    order = order[scores[order - 1] > 0.0]
    return ProviderRanking(
        provider=provider, order=order.astype(np.int64), n_domains=n
    )


# ----------------------------------------------------------------------
# Per-country, rank-magnitude-bucketed lists (the CrUX shape)
# ----------------------------------------------------------------------
#: TLD -> ISO country of registration. EU ccTLDs map to their member
#: state; the generic TLDs the synthetic world hands to non-EU sites
#: are attributed to the US (where CrUX's generic-TLD traffic is
#: heaviest); anything unknown falls into the "ZZ" (unattributed)
#: bucket rather than being dropped.
COUNTRY_OF_TLD: Dict[str, str] = {
    "de": "DE", "co.uk": "GB", "fr": "FR", "it": "IT", "nl": "NL",
    "es": "ES", "pl": "PL", "se": "SE", "eu": "EU", "at": "AT",
    "dk": "DK", "ie": "IE",
    "com": "US", "org": "US", "net": "US", "io": "US", "co": "US",
    "us": "US", "ca": "CA", "com.au": "AU", "co.jp": "JP",
    "com.br": "BR", "in": "IN",
}

#: Countries whose ccTLD belongs to an EU/EEA member (region edges in
#: the consent graph; the EU-vantage crawls "see" these natively).
EU_COUNTRIES: Tuple[str, ...] = (
    "AT", "DE", "DK", "ES", "EU", "FR", "IE", "IT", "NL", "PL", "SE",
)

#: CrUX-style rank-magnitude buckets: a listed domain's rank is only
#: known up to the smallest of these magnitudes covering it.
RANK_BUCKETS: Tuple[int, ...] = (1_000, 10_000, 100_000, 1_000_000)


def country_of_domain(domain: str) -> str:
    """The registration country of a synthetic-world domain (by TLD)."""
    _, _, tld = domain.partition(".")
    return COUNTRY_OF_TLD.get(tld, "ZZ")


def rank_bucket(rank: int, buckets: Tuple[int, ...] = RANK_BUCKETS) -> int:
    """The smallest magnitude bucket covering a 1-based rank."""
    if rank < 1:
        raise ValueError("ranks are 1-based")
    for bucket in buckets:
        if rank <= bucket:
            return bucket
    return buckets[-1]


@dataclass(frozen=True)
class CountryToplist:
    """One country's rank-bucketed toplist (the CrUX shape).

    ``entries`` are ``(bucket, domain)`` pairs sorted by ``(bucket,
    domain)``: within a bucket every domain shares the same published
    rank magnitude, so the domain name is the only deterministic
    tie-break. (An earlier cut emitted entries in per-country dict
    insertion order, which leaked the aggregate list's ordering into
    the bucketed output -- pinned by the regression test.)
    """

    country: str
    entries: Tuple[Tuple[int, str], ...]

    def __len__(self) -> int:
        return len(self.entries)

    def domains_within(self, bucket: int) -> List[str]:
        """Domains whose rank magnitude is at most *bucket*, sorted by
        ``(bucket, domain)`` -- the prefix the per-country Figure 5
        analysis evaluates."""
        return [d for b, d in self.entries if b <= bucket]

    def buckets(self) -> List[int]:
        """The distinct magnitudes present, ascending."""
        return sorted({b for b, _ in self.entries})


def per_country_toplists(
    world: World,
    tranco,
    *,
    max_rank: Optional[int] = None,
    buckets: Tuple[int, ...] = RANK_BUCKETS,
) -> Dict[str, CountryToplist]:
    """Bucket the aggregate toplist into per-country CrUX-style lists.

    Walks the Tranco order to *max_rank* (default: the whole list),
    attributes each domain to its registration country, assigns its
    1-based *country rank* (position among that country's domains) and
    publishes only the rank's magnitude bucket. Returns one
    :class:`CountryToplist` per country, keyed by country code, with
    entries deterministically ordered by ``(bucket, domain)``.
    """
    depth = len(tranco) if max_rank is None else min(max_rank, len(tranco))
    collected: Dict[str, List[Tuple[int, str]]] = {}
    for domain in tranco.top(depth):
        country = country_of_domain(domain)
        entries = collected.setdefault(country, [])
        entries.append((rank_bucket(len(entries) + 1, buckets), domain))
    return {
        country: CountryToplist(
            country=country,
            # Deterministic tie-break: equal-rank (same-bucket) domains
            # order by name, never by aggregate-list/dict order.
            entries=tuple(sorted(collected[country])),
        )
        for country in sorted(collected)
    }
