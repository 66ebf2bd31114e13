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

from itertools import repeat
from operator import add, mul
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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
    also why re-ingesting the same store is a no-op. Partitioned crawls
    merge their stores first (``merge_keyed``, in serial feed order)
    and ingest the merged store once.

    Deduplicated ``OBSERVES`` edges (``domain -> cmp``) record the
    "ever seen with" relation, making observed CMP marketshare a plain
    node-degree query.

    The store is read one segment at a time, as id columns: each
    segment's domain and CMP tables are interned once and its rows
    become edge columns through those tables. All segments' rows then
    go into the graph in one ``CAPTURED`` and one ``OBSERVES``
    insertion: rows inserted into an empty table in one call are
    appended without building the table's key index, which a second
    insertion into a table already larger than it would build.
    """
    vantage_nodes = [
        graph.add_node(
            "vantage",
            VANTAGE_STRS[i],
            region=VANTAGE_TABLE[i].region,
            address_space=VANTAGE_TABLE[i].address_space,
        )
        for i in range(len(VANTAGE_TABLE))
    ]
    src: List[int] = []
    dst: List[int] = []
    days: List[int] = []
    cmps: List[str] = []
    # Distinct (domain node, CMP node) pairs, first appearance first.
    observed: Dict[Tuple[int, int], None] = {}
    for segment in store.iter_segment_stores():
        domains, cmp_keys = segment.tables()
        col_domain, col_date, col_cmp, col_vantage = segment.columns()
        domain_nodes = graph.add_nodes("domain", domains)
        cmp_nodes = [
            None if key is None else graph.add_node("cmp", key)
            for key in cmp_keys
        ]
        cmp_props = [NO_CMP if key is None else key for key in cmp_keys]
        src.extend(map(domain_nodes.__getitem__, col_domain))
        dst.extend(map(vantage_nodes.__getitem__, col_vantage))
        days.extend(col_date)
        cmps.extend(map(cmp_props.__getitem__, col_cmp))
        # The segment's distinct (domain, CMP) id pairs, each coded as
        # one int: domain id * width + CMP id.
        width = len(cmp_keys)
        for code in dict.fromkeys(
            map(add, map(mul, col_domain, repeat(width)), col_cmp)
        ):
            cmp_node = cmp_nodes[code % width]
            if cmp_node is not None:
                observed[domain_nodes[code // width], cmp_node] = None
    graph.add_edges(
        "CAPTURED", src, dst, seq=range(len(src)), day=days, cmp=cmps
    )
    graph.add_edges(
        "OBSERVES",
        [domain for domain, _cmp in observed],
        [cmp for _domain, cmp in observed],
    )


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
    src, dst, start, end = [], [], [], []
    for rank in true_ranks:
        site = world.site(int(rank))
        domain_node = graph.add_node("domain", site.domain)
        for episode in site.episodes:
            src.append(domain_node)
            dst.append(graph.add_node("cmp", episode.cmp_key))
            start.append(episode.start.isoformat())
            end.append("" if episode.end is None else episode.end.isoformat())
    graph.add_edges("ADOPTED", src, dst, start=start, end=end)


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
    src = graph.add_nodes("domain", tranco.top(n))
    graph.add_edges(
        "RANK", src, [ranking] * len(src), rank=range(1, len(src) + 1)
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
    domain_nodes, rankings, buckets, countries = [], [], [], []
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
            domain_nodes.append(graph.add_node("domain", domain))
            rankings.append(ranking)
            buckets.append(bucket)
            countries.append(country_node)
    graph.add_edges("RANK", domain_nodes, rankings, bucket=buckets)
    graph.add_edges("REGISTERED_IN", domain_nodes, countries)


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

    A vendor declaration (vendor id, consent and LI purpose sets) is
    interned, CSV-encoded and expanded into ``DECLARES`` edges the first
    time a version lists it; later versions reuse its ``MEMBER_OF`` row.
    Each purpose set is encoded once, and each edge type is added in one
    call.
    """
    purpose_nodes: Dict[int, int] = {}
    csvs: Dict[frozenset, str] = {}

    def csv(purpose_ids: frozenset) -> str:
        text = csvs.get(purpose_ids)
        if text is None:
            text = csvs[purpose_ids] = _purpose_csv(purpose_ids)
        return text

    #: (vendor id, consent ids, LI ids) -> (vendor node, consent CSV,
    #: LI CSV): the MEMBER_OF row of a vendor declaring exactly that.
    rows: Dict[Tuple[int, frozenset, frozenset], Tuple[int, str, str]] = {}
    members, version_nodes = [], []
    #: (vendor node, purpose node, basis), first declaration first.
    declares: Dict[Tuple[int, int, str], None] = {}
    for version in sorted(versions, key=lambda v: v.version):
        vnode = graph.add_node(
            "gvl_version",
            f"v{version.version:05d}",
            version=version.version,
            last_updated=version.last_updated.isoformat(),
        )
        for vendor in version.vendors:
            declared = (
                vendor.id, vendor.purpose_ids, vendor.leg_int_purpose_ids
            )
            row = rows.get(declared)
            if row is None:
                node = graph.add_node(
                    "vendor", f"{vendor.id:06d}", vendor_id=vendor.id
                )
                row = rows[declared] = (
                    node,
                    csv(vendor.purpose_ids),
                    csv(vendor.leg_int_purpose_ids),
                )
                for basis, purpose_ids in (
                    ("consent", vendor.purpose_ids),
                    ("legitimate-interest", vendor.leg_int_purpose_ids),
                ):
                    for pid in sorted(purpose_ids):
                        purpose = purpose_nodes.get(pid)
                        if purpose is None:
                            purpose = purpose_nodes[pid] = graph.add_node(
                                "purpose", f"{pid:02d}", purpose_id=pid
                            )
                        declares[(node, purpose, basis)] = None
            members.append(row)
            version_nodes.append(vnode)
    graph.add_edges(
        "MEMBER_OF",
        [node for node, _, _ in members],
        version_nodes,
        consent=[consent for _, consent, _ in members],
        li=[li for _, _, li in members],
    )
    graph.add_edges(
        "DECLARES",
        [vendor for vendor, _, _ in declares],
        [purpose for _, purpose, _ in declares],
        basis=[basis for _, _, basis in declares],
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
