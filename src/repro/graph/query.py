"""Paper analyses as projections of the consent graph.

Each analysis query reshapes the graph into the input of the one
:mod:`repro.core` function that defines the analysis, then calls it:

=========================  ==================================  ==================================
graph query                projection                          core function
=========================  ==================================  ==================================
:func:`adoption_series`    :func:`domain_day_rows`             ``AdoptionSeries.from_day_rows``
:func:`vantage_table`      :func:`capture_rows`                ``VantageTable.from_stream_rows``
:func:`observed_curve`     the adoption series and             ``observed_marketshare``
                           :func:`toplist_ranks`
:func:`fig5_curve`         :func:`toplist_order`               ``stratified_marketshare``
:func:`country_fig5`       bucket-ordered ``RANK`` edges       ``stratified_marketshare``, exact
:func:`gvl_churn`          :func:`gvl_history`                 ``GvlAnalysis`` (Figures 7/8)
=========================  ==================================  ==================================

The graph's canonical form is insertion-order free, but the core
analyses are order-*sensitive* (per-day CMP votes tie-break by capture
order; payloads serialize dicts in first-appearance order). Projections
therefore never read graph insertion order -- they re-derive the order
the core function expects from edge *properties*: capture order from the
``CAPTURED`` ``seq`` numbers, toplist order from ``RANK`` positions,
version order from ``gvl_version`` numbers. ``tests/test_graph_parity.py``
pins each query's output to the core function run on the original
source.
"""

from __future__ import annotations

import datetime as dt
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.adoption import AdoptionSeries
from repro.core.gvl_analysis import GvlAnalysis
from repro.core.marketshare import (
    MarketShareCurve,
    observed_marketshare,
    stratified_marketshare,
)
from repro.core.vantage import VantageTable
from repro.graph.ingest import parse_purpose_csv
from repro.graph.model import ConsentGraph, GraphError
from repro.tcf.gvl import GlobalVendorList, Vendor


# ----------------------------------------------------------------------
# Capture-order reconstruction (the shared substrate)
# ----------------------------------------------------------------------
def capture_rows(
    graph: ConsentGraph,
) -> List[Tuple[str, int, Optional[str], str]]:
    """Capture rows in original order, recovered from ``seq`` properties.

    Returns ``(domain, date_ordinal, cmp_key, vantage_key)`` tuples
    sorted by the global sequence number each ``CAPTURED`` edge carries
    -- exactly ``CaptureStore.iter_rows()`` order. Reads the edge
    columns: the ``seq`` sort is the only order that matters here.
    """
    src, dst, seq, day, cmp = graph.edge_columns("CAPTURED", "seq", "day", "cmp")
    key = graph.node_key
    rows = sorted(zip(seq, map(key, src), day, cmp, map(key, dst)))
    return [(d, o, c or None, v) for _, d, o, c, v in rows]


def domain_day_rows(
    graph: ConsentGraph,
) -> Dict[str, List[Tuple[int, Optional[str]]]]:
    """``domain -> [(date_ordinal, cmp_key), ...]`` in capture order,
    domains in first-capture order -- the projection
    ``CaptureStore.domain_day_rows()`` gives of the same rows."""
    per_domain: Dict[str, List[Tuple[int, Optional[str]]]] = {}
    for domain, ordinal, cmp_key, _vantage in capture_rows(graph):
        per_domain.setdefault(domain, []).append((ordinal, cmp_key))
    return per_domain


def adoption_series(
    graph: ConsentGraph, restrict_to: Optional[Sequence[str]] = None
) -> AdoptionSeries:
    """Figure 6 over the ``CAPTURED`` edges."""
    return AdoptionSeries.from_day_rows(domain_day_rows(graph), restrict_to)


def vantage_table(graph: ConsentGraph) -> VantageTable:
    """Table 1 over the ``CAPTURED`` edges, replayed in ``seq`` order."""
    return VantageTable.from_stream_rows(
        (vantage, domain, cmp_key)
        for domain, _ordinal, cmp_key, vantage in capture_rows(graph)
    )


# ----------------------------------------------------------------------
# Toplist / marketshare projections
# ----------------------------------------------------------------------
def _tranco_rank_edges(graph: ConsentGraph) -> List[Tuple[int, dict]]:
    node = graph.node_id("ranking", "tranco")
    if node is None:
        raise GraphError("ranking 'tranco' not ingested")
    return graph.adjacency(node, "RANK", direction="in")


def toplist_ranks(graph: ConsentGraph) -> Dict[str, int]:
    """``domain -> 1-based rank`` from the Tranco ``RANK`` edges."""
    return {
        graph.node_key(domain_node): props["rank"]
        for domain_node, props in _tranco_rank_edges(graph)
    }


def toplist_order(graph: ConsentGraph) -> List[int]:
    """Domain node ids of the Tranco ranking in rank order (position 1
    first)."""
    order = sorted(
        (props["rank"], domain_node)
        for domain_node, props in _tranco_rank_edges(graph)
    )
    return [domain_node for _, domain_node in order]


def observed_curve(
    graph: ConsentGraph, date: dt.date, sizes: Sequence[int]
) -> MarketShareCurve:
    """Observed (capture-derived) marketshare over the ``CAPTURED`` and
    Tranco ``RANK`` edges."""
    return observed_marketshare(
        adoption_series(graph), toplist_ranks(graph), date, sizes
    )


def adopted_cmp_on(
    graph: ConsentGraph, domain_node: int, date_iso: str
) -> Optional[str]:
    """The CMP a domain's ``ADOPTED`` interval edges put it on at a date.

    Interval properties are ISO strings (start inclusive, ``""`` end =
    open), so the containment test is a plain lexicographic compare;
    worldgen episodes never overlap, so at most one edge matches --
    bit-equal to ``Website.cmp_on``.
    """
    for cmp_node, props in graph.adjacency(domain_node, "ADOPTED"):
        if props["start"] <= date_iso and (
            props["end"] == "" or date_iso < props["end"]
        ):
            return graph.node_key(cmp_node)
    return None


def fig5_curve(
    graph: ConsentGraph,
    date: dt.date,
    sizes: Optional[Sequence[int]] = None,
    *,
    exact_limit: int = 10_000,
    samples_per_stratum: int = 2_000,
    seed: int = 5,
) -> MarketShareCurve:
    """Figure 5 over the Tranco ``RANK`` order, each domain's CMP read
    from its ``ADOPTED`` edges."""
    order = toplist_order(graph)
    date_iso = date.isoformat()
    return stratified_marketshare(
        len(order),
        lambda position: adopted_cmp_on(graph, order[position], date_iso),
        date,
        sizes,
        exact_limit=exact_limit,
        samples_per_stratum=samples_per_stratum,
        seed=seed,
    )


def observes_degree(graph: ConsentGraph) -> Dict[str, int]:
    """Per CMP: domains ever observed with it -- marketshare as plain
    CMP-node in-degree over the deduplicated ``OBSERVES`` edges."""
    return {
        graph.node_key(node): graph.degree(node, "OBSERVES")
        for node in graph.nodes_of_type("cmp")
    }


# ----------------------------------------------------------------------
# Per-country Figure 5 (CrUX-shaped rankings)
# ----------------------------------------------------------------------
def graph_countries(graph: ConsentGraph) -> List[str]:
    """Country codes with an ingested CrUX-style ranking, sorted."""
    out = []
    for node in graph.nodes_of_type("ranking"):
        key = graph.node_key(node)
        if key.startswith("crux:"):
            out.append(key.partition(":")[2])
    return out


def country_fig5(
    graph: ConsentGraph, country: str, date: dt.date
) -> MarketShareCurve:
    """The Figure 5 analysis over one country's bucketed ranking.

    A CrUX-shaped list only reveals rank *magnitudes*, so the curve is
    sampled at each bucket boundary: prefix = every domain whose bucket
    is <= the boundary, size = that prefix's cardinality, CMP state
    from the ``ADOPTED`` edges, every prefix counted exactly (country
    lists are small). Cross-country comparisons then read like the
    paper's Figures A.4-A.6.
    """
    node = graph.node_id("ranking", f"crux:{country}")
    if node is None:
        raise GraphError(
            f"no ranking for country {country!r}; ingested countries: "
            f"{graph_countries(graph)}"
        )
    by_bucket: Dict[int, List[int]] = {}
    for domain_node, props in graph.adjacency(node, "RANK", direction="in"):
        by_bucket.setdefault(props["bucket"], []).append(domain_node)
    nodes: List[int] = []
    sizes: List[int] = []
    for bucket in sorted(by_bucket):
        nodes.extend(by_bucket[bucket])
        sizes.append(len(nodes))
    date_iso = date.isoformat()
    return stratified_marketshare(
        len(nodes),
        lambda position: adopted_cmp_on(graph, nodes[position], date_iso),
        date,
        sizes,
        exact_limit=len(nodes),
    )


# ----------------------------------------------------------------------
# GVL history (Figures 7/8)
# ----------------------------------------------------------------------
def gvl_history(graph: ConsentGraph) -> List[GlobalVendorList]:
    """The ingested GVL versions, in version order, rebuilt from each
    version's ``MEMBER_OF`` edges.

    The graph holds each vendor's per-version consent/LI declarations,
    not its name, policy URL or features, so those come back empty. A
    vendor whose declarations do not change between versions is one
    shared :class:`~repro.tcf.gvl.Vendor`, as in a generated history.
    """
    vendors: Dict[Tuple[int, str, str], Vendor] = {}
    versions = []
    for node in graph.nodes_of_type("gvl_version"):
        members = []
        for vendor_node, eprops in graph.adjacency(
            node, "MEMBER_OF", direction="in"
        ):
            key = (vendor_node, eprops["consent"], eprops["li"])
            vendor = vendors.get(key)
            if vendor is None:
                vendor = vendors[key] = Vendor(
                    id=graph.props(vendor_node)["vendor_id"],
                    name="",
                    policy_url="",
                    purpose_ids=parse_purpose_csv(eprops["consent"]),
                    leg_int_purpose_ids=parse_purpose_csv(eprops["li"]),
                )
            members.append(vendor)
        props = graph.props(node)
        versions.append(
            GlobalVendorList(
                version=props["version"],
                last_updated=dt.date.fromisoformat(props["last_updated"]),
                vendors=tuple(members),
            )
        )
    return versions


def gvl_churn(graph: ConsentGraph) -> GvlAnalysis:
    """Figures 7/8 (vendor counts, purpose series, membership and
    purpose-change churn) over the graph's GVL history."""
    return GvlAnalysis(gvl_history(graph))
