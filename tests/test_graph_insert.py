"""Edge insertion without per-row key tuples (`repro.graph.model`).

An edge table keeps its rows as columns only. An insertion whose rows
have pairwise different hashes, among themselves and against the
table's rows, appends them as they are. A repeated row, or rows whose
hashes merely collide, take the exact path: it dedups the rows'
``(src, dst, *values)`` tuples against the table's identity index,
built from the columns the first time it is needed.

* The study graph is built without any identity index, and re-running
  every ingestor over it adds nothing.
* ``add_edge`` finds a bulk-inserted row's id; repeated rows are added
  once; rows whose hashes collide are both kept.
* A study graph holds a bounded number of bytes per edge.
* ``capture_rows`` reads the ``CAPTURED`` columns and matches the
  canonical-edge derivation it replaced, also when ``CAPTURED`` rows
  sit in several tables.
"""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    ConsentGraph,
    capture_rows,
    ingest_captures,
    ingest_country_rankings,
    ingest_gvl,
    ingest_toplist,
    ingest_vantages,
    ingest_world_adoption,
)
from repro.graph import model
from repro.toplist.providers import per_country_toplists


def tables_of(graph):
    return [
        table for tables in graph._tables.values() for table in tables.values()
    ]


@pytest.fixture(scope="module")
def study_graph(study, social_store, gvl_history):
    return study.build_graph(social_store, gvl_versions=gvl_history)


def rank_graph(n_domains=20):
    graph = ConsentGraph()
    ranking = graph.add_node("ranking", "tranco")
    domains = graph.add_nodes("domain", [f"d{i}.example" for i in range(n_domains)])
    return graph, ranking, domains


# ----------------------------------------------------------------------
# The study graph
# ----------------------------------------------------------------------
def test_study_graph_holds_no_key_index(study_graph):
    assert study_graph.n_edges > 5_000
    assert [table._keys for table in tables_of(study_graph)] == [None] * len(
        tables_of(study_graph)
    )


def test_rerunning_every_ingestor_adds_nothing(
    study, social_store, gvl_history, study_graph
):
    graph = study.build_graph(social_store, gvl_versions=gvl_history)
    depth = min(study.config.toplist_size, len(study.tranco))
    ingest_vantages(graph)
    ingest_captures(graph, social_store)
    ingest_toplist(graph, study.tranco, depth=depth)
    ingest_world_adoption(
        graph, study.world, study.tranco.top_true_ranks(depth).tolist()
    )
    ingest_country_rankings(
        graph, per_country_toplists(study.world, study.tranco, max_rank=depth)
    )
    ingest_gvl(graph, gvl_history)
    assert graph.n_edges == study_graph.n_edges
    assert graph.stats() == study_graph.stats()
    assert graph.digest() == study_graph.digest()


def test_study_graph_holds_a_bounded_number_of_bytes_per_edge(
    study, social_store, gvl_history, study_graph
):
    """Columns cost about 55 bytes per edge here (most rows are
    ``MEMBER_OF`` rows, whose values are shared strings); the dedup
    tuple and dict entry every row carried before took it to about
    200."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = study.build_graph(social_store, gvl_versions=gvl_history)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert graph.n_edges == study_graph.n_edges
    assert held / graph.n_edges < 100


# ----------------------------------------------------------------------
# add_edge / add_edges
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [5, 3 * model._REHASH_ROWS])
def test_add_edge_finds_the_bulk_rows_id(n):
    graph, ranking, domains = rank_graph(n)
    graph.add_edges("RANK", domains, [ranking] * n, rank=range(1, n + 1))
    (table,) = tables_of(graph)
    assert table._keys is None
    for position in (0, n // 2, n - 1):
        assert graph.add_edge(
            "RANK", domains[position], ranking, rank=position + 1
        ) == table.ids[position]
    assert graph.n_edges == n
    # The first lookup of an existing row built the index, from the
    # columns; new rows keep it up to date.
    assert table._keys is not None
    assert graph.add_edge("RANK", domains[0], ranking, rank=n + 1) == n
    assert table._keys[(domains[0], ranking, n + 1)] == n


@pytest.mark.parametrize("existing", [0, 3, 3 * model._REHASH_ROWS])
def test_repeated_rows_are_added_once(existing):
    graph, ranking, domains = rank_graph(10)
    if existing:
        graph.add_edges(
            "RANK", [domains[0]] * existing, [ranking] * existing,
            rank=range(100, 100 + existing),
        )
    src = [domains[1], domains[2], domains[1], domains[0], domains[2]]
    ranks = [1, 2, 1, 100, 2]
    graph.add_edges("RANK", src, [ranking] * 5, rank=ranks)
    new_rows = 2 if existing else 3  # (d0, 100) is there when existing
    assert graph.n_edges == existing + new_rows
    added = graph.edges_of_type("RANK")
    assert sorted(
        (graph.node_key(s), props["rank"]) for s, _, props in added
    ) == sorted(
        {(graph.node_key(s), r) for s, r in zip(src, ranks)}
        | {("d0.example", r) for r in range(100, 100 + existing)}
    )
    # First occurrence first: the new rows take the next ids in order.
    assert [graph.edge(existing + i)[1:] for i in range(2)] == [
        (domains[1], ranking, {"rank": 1}),
        (domains[2], ranking, {"rank": 2}),
    ]


def test_hash_collision_keeps_both_rows():
    assert hash(-1) == hash(-2)  # CPython: -1 is reserved for errors
    graph, ranking, domains = rank_graph(2)
    graph.add_edges("RANK", [domains[0]] * 2, [ranking] * 2, rank=[-1, -2])
    assert graph.n_edges == 2
    # A colliding row in a later call is kept as well, and an equal one
    # is found.
    assert graph.add_edge("RANK", domains[1], ranking, rank=-1) == 2
    graph.add_edges("RANK", [domains[1]], [ranking], rank=[-2])
    assert graph.n_edges == 4
    assert graph.add_edge("RANK", domains[0], ranking, rank=-2) == 1
    assert sorted(
        (graph.node_key(s), props["rank"])
        for s, _, props in graph.edges_of_type("RANK")
    ) == [
        ("d0.example", -2), ("d0.example", -1),
        ("d1.example", -2), ("d1.example", -1),
    ]


# ----------------------------------------------------------------------
# capture_rows
# ----------------------------------------------------------------------
def oracle_capture_rows(graph):
    """The derivation ``capture_rows`` replaced: every ``CAPTURED``
    edge in canonical order with a props dict, re-sorted by ``seq``."""
    rows = [
        (
            props["seq"],
            graph.node_key(src),
            props["day"],
            props["cmp"] or None,
            graph.node_key(dst),
        )
        for src, dst, props in graph.edges_of_type("CAPTURED")
    ]
    rows.sort()
    return [(d, o, c, v) for _, d, o, c, v in rows]


def test_capture_rows_match_the_oracle_on_the_study_graph(study_graph):
    rows = capture_rows(study_graph)
    assert len(rows) == study_graph.stats()["edges:CAPTURED"]
    assert rows == oracle_capture_rows(study_graph)


CAPTURE_ROWS = st.lists(
    st.tuples(
        st.integers(0, 5),  # domain
        st.integers(737_000, 737_010),  # day ordinal
        st.sampled_from(("", "quantcast", "onetrust")),  # cmp
        st.integers(0, 2),  # vantage
        st.sampled_from(((), ("note",), ("note", "retry"))),  # extra props
    ),
    max_size=30,
)


@settings(max_examples=80, deadline=None)
@given(rows=CAPTURE_ROWS, data=st.data())
def test_capture_rows_match_the_oracle_across_tables(rows, data):
    """``CAPTURED`` rows whose property-name sets differ sit in
    different tables; inserted in any order, one batch or one row at a
    time, they come back in ``seq`` order."""
    graph = ConsentGraph()
    domains = graph.add_nodes("domain", [f"d{i}.example" for i in range(6)])
    vantages = graph.add_nodes("vantage", ["EU-cloud", "US-cloud", "EU-home"])
    order = data.draw(st.permutations(range(len(rows))))
    for seq in order:
        domain, day, cmp, vantage, extra = rows[seq]
        props = dict(seq=seq, day=day, cmp=cmp, **{name: 1 for name in extra})
        if data.draw(st.booleans()):
            graph.add_edge("CAPTURED", domains[domain], vantages[vantage], **props)
        else:
            graph.add_edges(
                "CAPTURED", [domains[domain]], [vantages[vantage]],
                **{name: [value] for name, value in props.items()},
            )
    assert capture_rows(graph) == oracle_capture_rows(graph)
    assert [row[1] for row in capture_rows(graph)] == [row[1] for row in rows]
