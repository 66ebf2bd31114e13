"""The consent ecosystem as one typed property graph.

``repro.graph`` unifies every entity the paper's analyses touch --
domains, CMPs, TCF vendors, GVL versions, rankings, countries, vantages
-- behind a single deterministic graph (:mod:`~repro.graph.model`),
populated by composable ingestors (:mod:`~repro.graph.ingest`). Its
queries (:mod:`~repro.graph.query`) are projections: each reshapes the
graph into the input of one :mod:`repro.core` analysis and calls it.
See the "Consent ecosystem graph" section of ARCHITECTURE.md for the
schema and contracts.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.graph.ingest import (
    NO_CMP,
    ingest_captures,
    ingest_country_rankings,
    ingest_gvl,
    ingest_toplist,
    ingest_vantages,
    ingest_world_adoption,
)
from repro.graph.model import (
    EDGE_TYPES,
    NODE_TYPES,
    ConsentGraph,
    GraphError,
)
from repro.graph.query import (
    adoption_series,
    capture_rows,
    country_fig5,
    domain_day_rows,
    fig5_curve,
    graph_countries,
    gvl_churn,
    gvl_history,
    observed_curve,
    observes_degree,
    toplist_ranks,
    vantage_table,
)

__all__ = [
    "NO_CMP",
    "EDGE_TYPES",
    "NODE_TYPES",
    "ConsentGraph",
    "GraphError",
    "adoption_series",
    "build_study_graph",
    "capture_rows",
    "country_fig5",
    "domain_day_rows",
    "fig5_curve",
    "graph_countries",
    "gvl_churn",
    "gvl_history",
    "ingest_captures",
    "ingest_country_rankings",
    "ingest_gvl",
    "ingest_toplist",
    "ingest_vantages",
    "ingest_world_adoption",
    "observed_curve",
    "observes_degree",
    "toplist_ranks",
    "vantage_table",
]


def build_study_graph(
    *,
    store=None,
    world=None,
    tranco=None,
    ranking_depth: Optional[int] = None,
    country_toplists: Optional[Mapping] = None,
    gvl_versions: Optional[Sequence] = None,
) -> ConsentGraph:
    """Build the full consent-ecosystem graph for one study.

    The fixed vantage table is always ingested; every other source is
    optional -- pass what the study has and the matching ingestors run
    (the ingestors commute, so the result is the same graph whichever
    subset is present). *ranking_depth* bounds the ``RANK`` edges
    ingested from *tranco* (and, when *world* is also given, which
    domains get ground-truth ``ADOPTED`` edges).
    """
    graph = ConsentGraph()
    ingest_vantages(graph)
    if store is not None:
        ingest_captures(graph, store)
    if tranco is not None:
        ingest_toplist(graph, tranco, depth=ranking_depth)
        if world is not None:
            depth = (
                len(tranco)
                if ranking_depth is None
                else min(ranking_depth, len(tranco))
            )
            ingest_world_adoption(
                graph, world, tranco.top_true_ranks(depth).tolist()
            )
    if country_toplists is not None:
        ingest_country_rankings(graph, country_toplists)
    if gvl_versions is not None:
        ingest_gvl(graph, gvl_versions)
    return graph
