"""Unit tests for the typed property graph (`repro.graph.model`)."""

import pytest

from repro.graph.model import (
    EDGE_TYPES,
    NODE_TYPES,
    ConsentGraph,
    GraphError,
)


def small_graph():
    g = ConsentGraph()
    a = g.add_node("domain", "a.com", color="blue")
    b = g.add_node("domain", "b.com")
    c = g.add_node("cmp", "quantcast")
    g.add_edge("OBSERVES", a, c)
    g.add_edge("OBSERVES", b, c)
    g.add_edge("CAPTURED", a, c, seq=0, day=1)
    g.add_edge("CAPTURED", a, c, seq=1, day=1)
    return g


def test_node_interning_returns_same_id():
    g = ConsentGraph()
    first = g.add_node("domain", "a.com")
    again = g.add_node("domain", "a.com")
    assert first == again
    assert g.n_nodes == 1
    # Same key under a different type is a different node.
    assert g.add_node("cmp", "a.com") != first
    assert g.n_nodes == 2


def test_property_merge_and_conflict():
    g = ConsentGraph()
    node = g.add_node("domain", "a.com", color="blue")
    g.add_node("domain", "a.com", color="blue", size=3)  # merge is fine
    assert g.props(node) == {"color": "blue", "size": 3}
    with pytest.raises(GraphError, match="conflict"):
        g.add_node("domain", "a.com", color="red")
    # props() hands out a copy, never the internal dict.
    g.props(node)["color"] = "green"
    assert g.props(node)["color"] == "blue"


def test_edge_identity_includes_props():
    g = small_graph()
    a = g.node_id("domain", "a.com")
    c = g.node_id("cmp", "quantcast")
    n = g.n_edges
    # Re-adding an identical edge is a no-op...
    assert g.add_edge("OBSERVES", a, c) == g.add_edge("OBSERVES", a, c)
    assert g.n_edges == n
    # ...but different props make a distinct edge.
    g.add_edge("CAPTURED", a, c, seq=2, day=1)
    assert g.n_edges == n + 1


def test_add_edge_rejects_unknown_node():
    g = ConsentGraph()
    node = g.add_node("domain", "a.com")
    with pytest.raises(GraphError, match="unknown node"):
        g.add_edge("OBSERVES", node, node + 1)


def test_lookup_surface():
    g = small_graph()
    a = g.node_id("domain", "a.com")
    assert g.node(a) == ("domain", "a.com")
    assert g.node_key(a) == "a.com"
    assert g.node_id("domain", "missing") is None
    assert [g.node_key(n) for n in g.nodes_of_type("domain")] == [
        "a.com",
        "b.com",
    ]
    assert g.nodes_of_type("vendor") == []
    etype, src, dst, props = g.edge(0)
    assert etype == "OBSERVES" and props == {}


def test_adjacency_and_degree():
    g = small_graph()
    a = g.node_id("domain", "a.com")
    c = g.node_id("cmp", "quantcast")
    assert g.degree(c, "OBSERVES") == 2
    assert g.degree(a, "OBSERVES", direction="out") == 1
    assert [n for n, _ in g.adjacency(a, "OBSERVES")] == [c]
    incoming = g.adjacency(c, "OBSERVES", direction="in")
    assert [g.node_key(n) for n, _ in incoming] == ["a.com", "b.com"]
    assert g.adjacency(a, "ADOPTED") == []
    with pytest.raises(GraphError, match="direction"):
        g.adjacency(a, "OBSERVES", direction="sideways")


def test_edges_of_type_sorted_canonically():
    g = small_graph()
    rows = g.edges_of_type("CAPTURED")
    assert [p["seq"] for _, _, p in rows] == [0, 1]
    assert g.edges_of_type("MEMBER_OF") == []


def test_digest_insertion_order_independent():
    g1 = ConsentGraph()
    g2 = ConsentGraph()
    for ntype, key in [("domain", "a.com"), ("cmp", "onetrust")]:
        g1.add_node(ntype, key)
    for ntype, key in [("cmp", "onetrust"), ("domain", "a.com")]:
        g2.add_node(ntype, key)
    g1.add_edge("OBSERVES", 0, 1)
    g2.add_edge("OBSERVES", 1, 0)  # same endpoints, other intern order
    assert g1.digest() == g2.digest()
    # Any new fact changes the digest (the cache-address contract).
    g2.add_node("domain", "b.com")
    assert g1.digest() != g2.digest()


def test_stats_counts_per_type():
    g = small_graph()
    assert g.stats() == {
        "nodes:cmp": 1,
        "nodes:domain": 2,
        "edges:CAPTURED": 2,
        "edges:OBSERVES": 2,
    }


def test_declared_schema_stays_sorted():
    # Docs/tests rely on the declared type tuples being duplicate-free.
    assert len(set(NODE_TYPES)) == len(NODE_TYPES)
    assert len(set(EDGE_TYPES)) == len(EDGE_TYPES)
