"""The columnar edge storage of `repro.graph.model`, and a pinned study
graph.

* An independent oracle (a plain sort of ``json.dumps`` lines over the
  public read API) pins :meth:`ConsentGraph.digest` byte for byte, and
  :meth:`ConsentGraph.add_edges` to a row-by-row :meth:`add_edge` loop.
* The whole-text digest it replaced (``tests/graph_digest_oracle.py``)
  pins the chunked digest and canonical edge order on graphs with
  several tables per edge type and long runs of equal endpoints, at
  chunk sizes small enough that each graph spans several chunks; the
  chunked digest's memory stays flat when the edge count grows
  tenfold.
* Every read hands out fresh property dicts: mutating one changes no
  graph state.
* A small study graph, built through every ingestor from a spilled
  capture store, keeps the digest and counts recorded before the
  columnar storage existed.
"""

import datetime as dt
import hashlib
import json
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import Study, StudyConfig
from repro.graph import ConsentGraph, GraphError, model
from repro.obs import Observability
from repro.tcf.gvlgen import GvlGenConfig, generate_gvl_history
from tests import graph_digest_oracle


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def types_in(graph, kind):
    return sorted(
        name.partition(":")[2]
        for name in graph.stats()
        if name.startswith(kind + ":")
    )


def reference_digest(graph: ConsentGraph) -> str:
    """SHA-256 over one ``json.dumps`` line per node, sorted by
    ``(type, key)``, then one per edge, sorted by ``(etype, src
    (type, key), dst (type, key), sorted props)``."""
    hasher = hashlib.sha256()
    for ntype in types_in(graph, "nodes"):
        for node in graph.nodes_of_type(ntype):
            line = [ntype, graph.node_key(node), graph.props(node)]
            hasher.update(json.dumps(line, sort_keys=True).encode() + b"\n")
    hasher.update(b"--edges--\n")
    rows = [
        (etype, graph.node(src), graph.node(dst), sorted(props.items()), props)
        for etype in types_in(graph, "edges")
        for src, dst, props in graph.edges_of_type(etype)
    ]
    rows.sort(key=lambda row: row[:4])
    for etype, src, dst, _, props in rows:
        line = [etype, list(src), list(dst), props]
        hasher.update(json.dumps(line, sort_keys=True).encode() + b"\n")
    return hasher.hexdigest()


# One value type per property name, so every sort stays total.
PROP_VALUES = {
    "n": st.integers(-3, 3),
    "t": st.text(alphabet="abé中\"\\", max_size=2),
    "f": st.floats(allow_nan=False, width=16),
    "b": st.booleans(),
    "z": st.none(),
}
NODE_KEYS = st.tuples(
    st.sampled_from(("domain", "cmp", "vendor")),
    st.text(alphabet="xyü", max_size=2),
)
EDGES = st.lists(
    st.tuples(
        st.sampled_from(("RANK", "OBSERVES", "MEMBER_OF")),
        st.integers(0, 5),
        st.integers(0, 5),
        st.fixed_dictionaries(
            {}, optional={name: values for name, values in PROP_VALUES.items()}
        ),
        st.booleans(),  # added by add_edge (True) or in a batch (False)
    ),
    max_size=40,
)


def build(nodes, edges):
    graph = ConsentGraph()
    ids = [graph.add_node(ntype, key) for ntype, key in nodes]
    for etype, src, dst, props, single in edges:
        src, dst = ids[src % len(ids)], ids[dst % len(ids)]
        if single:
            graph.add_edge(etype, src, dst, **props)
        else:
            graph.add_edges(
                etype, [src], [dst], **{name: [v] for name, v in props.items()}
            )
    return graph


@settings(max_examples=60, deadline=None)
@given(nodes=st.lists(NODE_KEYS, min_size=1, max_size=6), edges=EDGES)
def test_digest_matches_the_json_lines_oracle(nodes, edges):
    graph = build(nodes, edges)
    assert graph.digest() == reference_digest(graph)
    distinct = {
        (etype, graph.node(s), graph.node(d), tuple(sorted(p.items())))
        for etype in types_in(graph, "edges")
        for s, d, p in graph.edges_of_type(etype)
    }
    assert graph.n_edges == len(distinct)


#: Edges among at most three nodes, so most share their endpoints with
#: others: ``RANK`` in a ``{rank}`` and a ``{bucket}`` table, and
#: ``CAPTURED`` in a three-property and a property-less table.
TIED_EDGES = st.lists(
    st.tuples(
        st.sampled_from(("RANK", "CAPTURED")),
        st.integers(0, 2),
        st.integers(0, 2),
        st.one_of(
            st.fixed_dictionaries({"rank": st.integers(0, 40)}),
            st.fixed_dictionaries({"bucket": st.integers(0, 5)}),
            st.fixed_dictionaries(
                {
                    "seq": st.integers(0, 40),
                    "day": st.integers(0, 3),
                    "cmp": st.sampled_from(("", "onetrust", "quantcast")),
                }
            ),
            st.just({}),
        ),
        st.booleans(),
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(
    nodes=st.lists(NODE_KEYS, min_size=1, max_size=6),
    edges=st.one_of(EDGES, TIED_EDGES),
    chunk=st.integers(1, 9),
)
def test_chunked_digest_matches_the_whole_text_oracle(nodes, edges, chunk):
    graph = build(nodes, edges)
    with mock.patch.object(model, "_CHUNK", chunk):
        assert graph.digest() == graph_digest_oracle.digest(graph)
        for etype in types_in(graph, "edges"):
            assert graph.edges_of_type(etype) == (
                graph_digest_oracle.edges_of_type(graph, etype)
            )
    assert graph.digest() == reference_digest(graph)


def captured_edges_graph(n_edges: int) -> ConsentGraph:
    """2,000 domains and 6 vantages joined by *n_edges* ``CAPTURED``
    rows; from 6,000 rows on, every (domain, vantage) pair repeats."""
    graph = ConsentGraph()
    domains = graph.add_nodes(
        "domain", [f"d{i:05d}.example" for i in range(2_000)]
    )
    vantages = graph.add_nodes("vantage", [f"EU/v{i}" for i in range(6)])
    rows = range(n_edges)
    graph.add_edges(
        "CAPTURED",
        [domains[i % 2_000] for i in rows],
        [vantages[i % 6] for i in rows],
        seq=list(rows),
        day=[18_000 + i % 90 for i in rows],
        cmp=[("", "onetrust", "quantcast")[i % 3] for i in rows],
    )
    return graph


def digest_transient_bytes(graph: ConsentGraph) -> int:
    """Peak memory :meth:`ConsentGraph.digest` allocates beyond what the
    graph holds."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph.digest()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_digest_memory_stays_flat_as_edges_grow_tenfold():
    small, large = (
        digest_transient_bytes(captured_edges_graph(n))
        for n in (5_000, 50_000)
    )
    # Chunks of text and key tuples are bounded by model._CHUNK; what
    # grows is ~13 bytes of integer arrays per edge. The whole-text
    # digest held ~2.6 MB at 5k edges and ~22 MB at 50k.
    assert large < 2_000_000
    assert large - small < 45_000 * 25


@settings(max_examples=40, deadline=None)
@given(nodes=st.lists(NODE_KEYS, min_size=1, max_size=6), edges=EDGES)
def test_adjacency_and_degree_follow_edges_of_type(nodes, edges):
    graph = build(nodes, edges)
    for etype in ("RANK", "OBSERVES", "MEMBER_OF"):
        rows = graph.edges_of_type(etype)
        for node in range(graph.n_nodes):
            for direction, mine, other in (("out", 0, 1), ("in", 1, 0)):
                expected = sorted(
                    ((row[other], row[2]) for row in rows if row[mine] == node),
                    key=lambda p: (graph.node(p[0]), sorted(p[1].items())),
                )
                got = graph.adjacency(node, etype, direction=direction)
                assert got == expected
                assert graph.degree(node, etype, direction=direction) == len(
                    expected
                )


def test_add_edges_is_add_edge_per_row():
    rows = [(0, 1, 5), (0, 1, 5), (1, 0, 5), (0, 1, 6)]
    one_by_one = ConsentGraph()
    batched = ConsentGraph()
    for graph in (one_by_one, batched):
        graph.add_node("domain", "a.com")
        graph.add_node("ranking", "tranco")
    ids = [one_by_one.add_edge("RANK", s, d, rank=r) for s, d, r in rows]
    assert ids == [0, 0, 1, 2]
    batched.add_edges(
        "RANK", [s for s, _, _ in rows], [d for _, d, _ in rows],
        rank=[r for _, _, r in rows],
    )
    assert batched.n_edges == one_by_one.n_edges == 3
    assert batched.digest() == one_by_one.digest()
    assert [batched.edge(i) for i in range(3)] == [
        ("RANK", 0, 1, {"rank": 5}),
        ("RANK", 1, 0, {"rank": 5}),
        ("RANK", 0, 1, {"rank": 6}),
    ]
    # Edge ids run across tables in insertion order.
    assert batched.add_edge("RANK", 0, 1, bucket=2) == 3
    assert batched.add_edge("RANK", 1, 0, rank=5) == 1
    assert batched.edge(3) == ("RANK", 0, 1, {"bucket": 2})
    with pytest.raises(IndexError):
        batched.edge(4)


def test_add_edges_rejects_bad_columns_without_a_trace():
    graph = ConsentGraph()
    node = graph.add_node("domain", "a.com")
    graph.add_edges("OBSERVES", [node], [node])
    before = graph.digest()
    with pytest.raises(GraphError, match="differ in length"):
        graph.add_edges("RANK", [node, node], [node], rank=[1, 2])
    with pytest.raises(GraphError, match="unknown node id 7"):
        graph.add_edges("RANK", [node, node], [node, 7], rank=[1, 2])
    with pytest.raises(GraphError, match="unknown node id -1"):
        graph.add_edges("OBSERVES", [-1], [node])
    assert graph.n_edges == 1
    assert graph.stats() == {"nodes:domain": 1, "edges:OBSERVES": 1}
    assert graph.digest() == before


# ----------------------------------------------------------------------
# Reads never alias graph state
# ----------------------------------------------------------------------
def captured_graph():
    graph = ConsentGraph()
    domain = graph.add_node("domain", "a.com")
    vantage = graph.add_node("vantage", "EU/cloud")
    graph.add_edge("CAPTURED", domain, vantage, seq=0, day=1, cmp="")
    return graph, domain, vantage


def test_mutating_returned_props_changes_nothing():
    reference, _, _ = captured_graph()
    for read in (
        lambda g, d, v: g.edges_of_type("CAPTURED")[0][2],
        lambda g, d, v: g.adjacency(d, "CAPTURED")[0][1],
        lambda g, d, v: g.adjacency(v, "CAPTURED", direction="in")[0][1],
        lambda g, d, v: g.edge(0)[3],
    ):
        graph, domain, vantage = captured_graph()
        read(graph, domain, vantage)["seq"] = 99
        # The digest is computed for the first time after the mutation.
        assert graph.digest() == reference.digest()
        assert graph.edges_of_type("CAPTURED")[0][2]["seq"] == 0
        assert graph.adjacency(domain, "CAPTURED") == [
            (vantage, {"seq": 0, "day": 1, "cmp": ""})
        ]
        assert graph.add_edge(
            "CAPTURED", domain, vantage, seq=0, day=1, cmp=""
        ) == 0
        assert graph.n_edges == 1


# ----------------------------------------------------------------------
# A pinned study graph
# ----------------------------------------------------------------------
#: Recorded with the per-edge storage the columnar tables replaced.
PINNED_DIGEST = "370458bcd63c563fad3202b9f49b86e204f2a6e0e7202bdfe1182739e7e3dcbb"
PINNED_STATS = {
    "nodes:cmp": 6,
    "nodes:country": 16,
    "nodes:domain": 658,
    "nodes:gvl_version": 19,
    "nodes:purpose": 5,
    "nodes:ranking": 17,
    "nodes:region": 2,
    "nodes:vantage": 6,
    "nodes:vendor": 324,
    "edges:ADOPTED": 13,
    "edges:CAPTURED": 1551,
    "edges:COUNTRY": 16,
    "edges:DECLARES": 1192,
    "edges:IN_REGION": 22,
    "edges:MEMBER_OF": 3153,
    "edges:OBSERVES": 75,
    "edges:RANK": 300,
    "edges:REGISTERED_IN": 150,
}


def test_spilled_study_graph_keeps_its_digest():
    study = Study(
        StudyConfig(
            seed=3,
            n_domains=1_500,
            toplist_size=150,
            events_per_day=60,
            study_start=dt.date(2020, 3, 1),
            study_end=dt.date(2020, 4, 1),
            memory_budget=400,
        )
    )
    store = study.run_social_crawl()
    assert store.n_segments >= 3 and store.n_rows > 400
    versions = generate_gvl_history(
        GvlGenConfig(seed=20, initial_vendors=30, last_date=dt.date(2018, 6, 1))
    )
    graph = study.build_graph(store, gvl_versions=versions)
    assert graph.digest() == PINNED_DIGEST
    assert graph.stats() == PINNED_STATS
    # Every segment's rows went in by one insertion per edge type, so
    # neither table built a key index.
    for etype in ("CAPTURED", "OBSERVES"):
        tables = graph._tables[etype].values()
        assert [table._keys for table in tables] == [None]


def test_graph_build_span_reports_the_clamped_depth():
    graphs = []
    for ranking_depth in (None, 1_000):
        obs = Observability()
        study = Study(
            StudyConfig(seed=7, n_domains=300, toplist_size=1_000), obs=obs
        )
        assert len(study.tranco) == 300
        graphs.append(study.build_graph(ranking_depth=ranking_depth))
        (span,) = [
            record
            for record in obs.tracer.export_records()
            if record["name"] == "graph.build"
        ]
        assert span["attrs"]["depth"] == 300
    assert graphs[0].digest() == graphs[1].digest()
