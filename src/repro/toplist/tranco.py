"""Tranco list construction (Dowdall-rule aggregation).

Tranco combines the provider lists with the Dowdall rule: every domain
scores the sum of the reciprocals of its ranks across providers, and the
aggregate list orders domains by descending score (Le Pochat et al.,
NDSS '19). The result is hardened against manipulation of any single
provider and less susceptible to daily fluctuation -- properties we
inherit by construction.

Following the paper, domains with the same TLD+1 are *not* collapsed
("services may vary in their behavior across TLDs", Section 3.5); on the
synthetic web every site already is a distinct eTLD+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.toplist.providers import PROVIDER_NAMES, provider_ranking
from repro.web.worldgen import World


@dataclass(frozen=True, eq=False)
class TrancoList:
    """An aggregated toplist over a world.

    ``order[i]`` is the *true* popularity rank of the domain at Tranco
    rank ``i + 1``. Domain names are materialized lazily via the world.
    Equality is identity, as for :class:`World`: compare ``order``
    arrays with ``np.array_equal``.
    """

    world: World
    order: np.ndarray

    def __len__(self) -> int:
        return len(self.order)

    # ------------------------------------------------------------------
    # Cache serialization (repro.cache toplist artifacts)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-serializable payload: the order as a list of ints."""
        return {"order": self.order.tolist()}

    @classmethod
    def from_payload(cls, world: World, payload: dict) -> "TrancoList":
        """Inverse of :meth:`to_payload` over *world*; raises
        ``ValueError`` unless the order is a permutation of
        ``1..world.n_domains``."""
        order = np.asarray(payload["order"], dtype=np.int64)
        n = world.n_domains
        if order.shape != (n,) or not np.array_equal(
            np.sort(order), np.arange(1, n + 1)
        ):
            raise ValueError(
                f"toplist payload is not a permutation of 1..{n}"
            )
        return cls(world=world, order=order)

    def true_rank_at(self, tranco_rank: int) -> int:
        """True popularity rank of the site at 1-based *tranco_rank*."""
        if not 1 <= tranco_rank <= len(self.order):
            raise IndexError(f"tranco rank {tranco_rank} out of range")
        return int(self.order[tranco_rank - 1])

    def top(self, n: int) -> List[str]:
        """Domain names of the Tranco top *n* (generates those sites)."""
        n = min(n, len(self.order))
        return [
            self.world.site(int(true_rank)).domain
            for true_rank in self.order[:n]
        ]

    def top_true_ranks(self, n: int) -> np.ndarray:
        """True ranks of the Tranco top *n*, without site generation."""
        return self.order[: min(n, len(self.order))].copy()

    def tranco_rank_of_true(self, true_rank: int) -> Optional[int]:
        """Tranco rank of a site given its true rank, or ``None``."""
        matches = np.nonzero(self.order == true_rank)[0]
        if len(matches) == 0:
            return None
        return int(matches[0]) + 1


class TrancoRanks:
    """A read-only ``domain -> Tranco rank`` lookup over a Tranco top *n*.

    Answers ``in`` and :meth:`get` exactly as
    ``{d: r for r, d in enumerate(tranco.top(n), 1)}`` would, without
    generating the *n* sites for their names: a domain's base-36 tag
    names its world rank (:meth:`World._rank_from_domain`), the inverse
    of the Tranco order turns that into a Tranco rank, and a hit is
    confirmed against ``world.site(rank).domain`` -- a site the crawl
    that produced the domain has already memoized. It does not iterate;
    :meth:`TrancoList.top` lists the names.
    """

    __slots__ = ("_world", "_positions")

    def __init__(self, tranco: TrancoList, n: int) -> None:
        self._world = tranco.world
        #: World rank -> Tranco rank, for the top *n* only.
        self._positions: Dict[int, int] = dict(
            zip(tranco.order[:n].tolist(), range(1, n + 1))
        )

    def __contains__(self, domain: str) -> bool:
        return self.get(domain) is not None

    def get(self, domain: str) -> Optional[int]:
        """The Tranco rank of *domain*, or ``None`` outside the top
        *n*."""
        world = self._world
        rank = world._rank_from_domain(domain)
        position = self._positions.get(rank)
        if position is None or world.site(rank).domain != domain:
            return None
        return position


def build_tranco(
    world: World, providers: Sequence[str] = PROVIDER_NAMES
) -> TrancoList:
    """Aggregate the provider rankings into a Tranco list."""
    if not providers:
        raise ValueError("need at least one provider")
    n = world.config.n_domains
    scores = np.zeros(n, dtype=np.float64)
    for name in providers:
        ranking = provider_ranking(world, name)
        positions = ranking.position_of().astype(np.float64)
        listed = positions > 0
        # Dowdall: 1 / rank for listed domains, nothing otherwise.
        scores[listed] += 1.0 / positions[listed]
    order = np.argsort(-scores, kind="stable") + 1
    return TrancoList(world=world, order=order.astype(np.int64))
