"""Composable ingestors populating a :class:`ConsentGraph`.

Mirrors the Internet Yellow Pages model (PAPERS.md): many small
crawler-shaped ingestors, each folding one existing store into the
shared typed graph --

* :func:`ingest_captures` -- detection results from the columnar
  :class:`~repro.crawler.columnar.CaptureStore` (one ``CAPTURED`` edge
  per row, carrying the row's global sequence number so capture order
  survives canonicalization);
* :func:`ingest_world_adoption` -- per-domain CMP episodes from the
  synthetic world (``ADOPTED`` interval edges, the Figure 5 substrate);
* :func:`ingest_toplist` -- the aggregate Tranco ranking (``RANK``
  edges with exact positions);
* :func:`ingest_country_rankings` -- CrUX-style per-country bucketed
  lists (``RANK`` edges with magnitude buckets, ``COUNTRY`` edges,
  TLD-derived ``REGISTERED_IN`` assignments);
* :func:`ingest_gvl` -- the Global Vendor List version history
  (``MEMBER_OF`` edges whose properties carry each vendor's per-version
  consent/LI purpose declarations as canonical CSV strings);
* :func:`ingest_vantages` -- the fixed vantage table and its region
  assignments.

Every ingestor is **idempotent** (nodes and edges dedupe on identity;
re-ingesting the same source leaves the digest unchanged) and
**commutes** with every other (no ingestor reads graph state another
wrote; property writes never conflict) -- the two properties
``tests/test_graph_properties.py`` pins for any ingestor permutation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.crawler.columnar import VANTAGE_STRS, VANTAGE_TABLE, CaptureStore
from repro.graph.model import ConsentGraph
from repro.toplist.providers import EU_COUNTRIES, CountryToplist

#: ``cmp`` property value for a CMP-less capture row (edge property
#: values are JSON scalars; ``None`` round-trips fine but an explicit
#: sentinel keeps sorts total on Python 3.9).
NO_CMP = ""


def ingest_captures(graph: ConsentGraph, store: CaptureStore) -> None:
    """Fold a capture store's detection rows into the graph.

    One ``CAPTURED`` edge per row, ``domain -> vantage``, with the
    row's 0-based global sequence number, day ordinal and detected CMP
    key as properties. The ``seq`` property is what lets queries
    re-derive exact capture order (and therefore byte-identical
    adoption/vantage results) from a canonically-sorted edge set; it is
    also why re-ingesting the same store is a no-op. Sharded crawls
    merge their stores first (``CaptureStore.merge``, in shard order)
    and ingest the merged store once.

    Deduplicated ``OBSERVES`` edges (``domain -> cmp``) record the
    "ever seen with" relation, making observed CMP marketshare a plain
    node-degree query.
    """
    domain_nodes: Dict[str, int] = {}
    vantage_nodes = {
        i: graph.add_node(
            "vantage",
            VANTAGE_STRS[i],
            region=VANTAGE_TABLE[i].region,
            address_space=VANTAGE_TABLE[i].address_space,
        )
        for i in range(len(VANTAGE_TABLE))
    }
    cmp_nodes: Dict[str, int] = {}
    for seq, (domain, ordinal, cmp_key, vantage) in enumerate(
        store.iter_rows()
    ):
        src = domain_nodes.get(domain)
        if src is None:
            src = domain_nodes[domain] = graph.add_node("domain", domain)
        graph.add_edge(
            "CAPTURED",
            src,
            vantage_nodes[vantage],
            seq=seq,
            day=ordinal,
            cmp=cmp_key if cmp_key is not None else NO_CMP,
        )
        if cmp_key is not None:
            dst = cmp_nodes.get(cmp_key)
            if dst is None:
                dst = cmp_nodes[cmp_key] = graph.add_node("cmp", cmp_key)
            graph.add_edge("OBSERVES", src, dst)


def ingest_world_adoption(
    graph: ConsentGraph, world, true_ranks: Iterable[int]
) -> None:
    """Fold the worldgen CMP episodes of *true_ranks* into the graph.

    One ``ADOPTED`` interval edge per CMP episode, ``domain -> cmp``,
    with ISO start/end dates (``end=""`` for an episode still open at
    the study end). This is the ground-truth substrate the Figure 5
    marketshare queries count over -- marketshare at a date is the
    time-windowed in-degree of the CMP nodes.
    """
    for rank in true_ranks:
        site = world.site(int(rank))
        src = graph.add_node("domain", site.domain)
        for episode in site.episodes:
            graph.add_edge(
                "ADOPTED",
                src,
                graph.add_node("cmp", episode.cmp_key),
                start=episode.start.isoformat(),
                end="" if episode.end is None else episode.end.isoformat(),
            )


def ingest_toplist(
    graph: ConsentGraph, tranco, *, depth: Optional[int] = None
) -> None:
    """Fold the aggregate Tranco ranking (to *depth*) into the graph.

    ``domain -[RANK {rank}]-> ranking:"tranco"`` with the exact 1-based
    aggregate position. Queries that need "the toplist in order" sort
    these edges by their ``rank`` property.
    """
    n = len(tranco) if depth is None else min(depth, len(tranco))
    ranking = graph.add_node("ranking", "tranco", provider="tranco")
    for position, domain in enumerate(tranco.top(n), start=1):
        graph.add_edge(
            "RANK", graph.add_node("domain", domain), ranking, rank=position
        )


def ingest_country_rankings(
    graph: ConsentGraph, toplists: Mapping[str, CountryToplist]
) -> None:
    """Fold per-country CrUX-style bucketed lists into the graph.

    Per country: a ``ranking:"crux:CC"`` node linked to its
    ``country:CC`` node, one ``RANK {bucket}`` edge per listed domain,
    and a ``REGISTERED_IN`` edge assigning the domain to the country.
    Country nodes carry their region membership via ``IN_REGION``.
    """
    region_nodes = {
        "EU": graph.add_node("region", "EU"),
        "US": graph.add_node("region", "US"),
    }
    for country in sorted(toplists):
        toplist = toplists[country]
        country_node = graph.add_node("country", country)
        region = "EU" if country in EU_COUNTRIES else "US"
        graph.add_edge("IN_REGION", country_node, region_nodes[region])
        ranking = graph.add_node(
            "ranking", f"crux:{country}", provider="crux"
        )
        graph.add_edge("COUNTRY", ranking, country_node)
        for bucket, domain in toplist.entries:
            domain_node = graph.add_node("domain", domain)
            graph.add_edge("RANK", domain_node, ranking, bucket=bucket)
            graph.add_edge("REGISTERED_IN", domain_node, country_node)


def ingest_gvl(graph: ConsentGraph, versions: Sequence) -> None:
    """Fold a GVL version history into the graph.

    Per published version: a ``gvl_version`` node (key ``v<version>``,
    properties ``version``/``last_updated``) and one ``MEMBER_OF`` edge
    per listed vendor whose properties carry the vendor's declarations
    *in that version* as sorted CSV strings (``consent="1,3"``,
    ``li="2"``). Encoding declarations on the membership edge keeps the
    edge count at O(vendors x versions) instead of O(vendors x versions
    x purposes); the churn queries diff the CSVs per purpose, which is
    exactly the per-purpose basis diff :func:`repro.tcf.gvl.diff_versions`
    computes. Deduplicated ``DECLARES`` edges (``vendor -> purpose``,
    labeled by basis) keep "which vendors ever declared purpose p"
    a one-hop degree query; each is added once, not once per version
    that repeats the declaration.
    """
    declared = set()
    for version in sorted(versions, key=lambda v: v.version):
        vnode = graph.add_node(
            "gvl_version",
            f"v{version.version:05d}",
            version=version.version,
            last_updated=version.last_updated.isoformat(),
        )
        for vendor in sorted(version.vendors, key=lambda v: v.id):
            vendor_node = graph.add_node(
                "vendor", f"{vendor.id:06d}", vendor_id=vendor.id
            )
            graph.add_edge(
                "MEMBER_OF",
                vendor_node,
                vnode,
                consent=_purpose_csv(vendor.purpose_ids),
                li=_purpose_csv(vendor.leg_int_purpose_ids),
            )
            for basis, purpose_ids in (
                ("consent", vendor.purpose_ids),
                ("legitimate-interest", vendor.leg_int_purpose_ids),
            ):
                for pid in sorted(purpose_ids):
                    if (vendor_node, pid, basis) in declared:
                        continue
                    declared.add((vendor_node, pid, basis))
                    graph.add_edge(
                        "DECLARES",
                        vendor_node,
                        graph.add_node("purpose", f"{pid:02d}", purpose_id=pid),
                        basis=basis,
                    )


def ingest_vantages(graph: ConsentGraph) -> None:
    """Fold the fixed vantage table and its region assignment in."""
    region_nodes = {
        "EU": graph.add_node("region", "EU"),
        "US": graph.add_node("region", "US"),
    }
    for i, vantage in enumerate(VANTAGE_TABLE):
        node = graph.add_node(
            "vantage",
            VANTAGE_STRS[i],
            region=vantage.region,
            address_space=vantage.address_space,
        )
        graph.add_edge("IN_REGION", node, region_nodes[vantage.region])


def _purpose_csv(purpose_ids: Iterable[int]) -> str:
    return ",".join(str(pid) for pid in sorted(purpose_ids))


def parse_purpose_csv(text: str) -> frozenset:
    """Inverse of the ``MEMBER_OF`` declaration encoding."""
    if not text:
        return frozenset()
    return frozenset(int(part) for part in text.split(","))
