"""Hypothesis properties of the consent-graph ingestors.

Three contracts every ingestor must honor (ingest.py docstring):

* **idempotence** -- re-ingesting the same source leaves the canonical
  digest unchanged;
* **order independence** -- any permutation of ingestors produces the
  identical graph;
* **shard-merge associativity** -- capture shards merged as stores (in
  shard order, the executor's path) and then ingested give the same
  graph as one serial build over the concatenated rows.
"""

import datetime as dt
from dataclasses import dataclass
from typing import Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmps.base import CMP_KEYS
from repro.crawler.columnar import CaptureStore
from repro.graph import (
    ConsentGraph,
    country_fig5,
    ingest_captures,
    ingest_country_rankings,
    ingest_gvl,
    ingest_toplist,
    ingest_vantages,
    ingest_world_adoption,
)
from repro.toplist.providers import RANK_BUCKETS, CountryToplist
from tests.store_oracle import store_from_rows

# ----------------------------------------------------------------------
# Tiny stand-ins for the worldgen / tranco / GVL sources (the ingestors
# only touch the attributes stubbed here).
# ----------------------------------------------------------------------
DOMAINS = tuple(f"d{i}.example" for i in range(10))
ORDINAL_0 = dt.date(2020, 3, 1).toordinal()


@dataclass(frozen=True)
class StubEpisode:
    cmp_key: str
    start: dt.date
    end: Optional[dt.date]


@dataclass(frozen=True)
class StubSite:
    domain: str
    episodes: Tuple[StubEpisode, ...]


class StubWorld:
    def __init__(self, sites):
        self._sites = {i + 1: site for i, site in enumerate(sites)}

    def site(self, rank):
        return self._sites[rank]


class StubTranco:
    def __init__(self, domains):
        self._domains = list(domains)

    def __len__(self):
        return len(self._domains)

    def top(self, n):
        return self._domains[:n]


@dataclass(frozen=True)
class StubVendor:
    id: int
    purpose_ids: frozenset
    leg_int_purpose_ids: frozenset


@dataclass(frozen=True)
class StubVersion:
    version: int
    last_updated: dt.date
    vendors: Tuple[StubVendor, ...]


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
capture_rows = st.lists(
    st.tuples(
        st.sampled_from(DOMAINS),
        st.integers(ORDINAL_0, ORDINAL_0 + 30),
        st.sampled_from(CMP_KEYS + (None,)),
        st.integers(0, 5),
    ),
    max_size=50,
)

episodes = st.lists(
    st.tuples(st.sampled_from(CMP_KEYS), st.integers(0, 60), st.integers(1, 90)),
    max_size=3,
).map(
    lambda specs: tuple(
        StubEpisode(
            cmp_key,
            dt.date(2020, 1, 1) + dt.timedelta(days=start),
            None
            if length > 60
            else dt.date(2020, 1, 1) + dt.timedelta(days=start + length),
        )
        for cmp_key, start, length in specs
    )
)

worlds = st.lists(episodes, min_size=1, max_size=6).map(
    lambda eps: StubWorld(
        [StubSite(DOMAINS[i], e) for i, e in enumerate(eps)]
    )
)

gvl_histories = st.lists(
    st.lists(
        st.tuples(
            st.integers(1, 8),
            st.frozensets(st.integers(1, 5), max_size=3),
            st.frozensets(st.integers(1, 5), max_size=2),
        ),
        max_size=5,
        unique_by=lambda v: v[0],
    ),
    max_size=4,
).map(
    lambda versions: tuple(
        StubVersion(
            i + 1,
            dt.date(2019, 1, 1) + dt.timedelta(days=14 * i),
            tuple(StubVendor(*v) for v in vendors),
        )
        for i, vendors in enumerate(versions)
    )
)

country_toplists = st.dictionaries(
    st.sampled_from(("DE", "FR", "US", "GB")),
    st.lists(
        st.tuples(st.sampled_from(RANK_BUCKETS), st.sampled_from(DOMAINS)),
        max_size=8,
        unique_by=lambda e: e[1],
    ),
    max_size=3,
).map(
    lambda d: {
        country: CountryToplist(country=country, entries=tuple(sorted(entries)))
        for country, entries in d.items()
    }
)


def store_from(rows) -> CaptureStore:
    return store_from_rows(rows)


def ingestor_closures(rows, world, n_ranked, toplists, versions):
    """One thunk per ingestor, each closing over its own source."""
    store = store_from(rows)
    tranco = StubTranco(DOMAINS[: max(n_ranked, 1)])
    return [
        lambda g: ingest_vantages(g),
        lambda g: ingest_captures(g, store),
        lambda g: ingest_toplist(g, tranco),
        lambda g: ingest_world_adoption(
            g, world, range(1, len(world._sites) + 1)
        ),
        lambda g: ingest_country_rankings(g, toplists),
        lambda g: ingest_gvl(g, versions),
    ]


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    rows=capture_rows,
    world=worlds,
    n_ranked=st.integers(1, len(DOMAINS)),
    toplists=country_toplists,
    versions=gvl_histories,
)
def test_every_ingestor_is_idempotent(
    rows, world, n_ranked, toplists, versions
):
    closures = ingestor_closures(rows, world, n_ranked, toplists, versions)
    graph = ConsentGraph()
    for ingest in closures:
        ingest(graph)
    once = graph.digest()
    n_nodes, n_edges = graph.n_nodes, graph.n_edges
    for ingest in closures:
        ingest(graph)  # re-ingest every source
        assert graph.digest() == once
    assert (graph.n_nodes, graph.n_edges) == (n_nodes, n_edges)


@settings(max_examples=40, deadline=None)
@given(
    rows=capture_rows,
    world=worlds,
    n_ranked=st.integers(1, len(DOMAINS)),
    toplists=country_toplists,
    versions=gvl_histories,
    order=st.permutations(range(6)),
)
def test_ingest_order_independence(
    rows, world, n_ranked, toplists, versions, order
):
    closures = ingestor_closures(rows, world, n_ranked, toplists, versions)
    reference = ConsentGraph()
    for ingest in closures:
        ingest(reference)
    permuted = ConsentGraph()
    for i in order:
        closures[i](permuted)
    assert permuted.digest() == reference.digest()
    assert permuted.stats() == reference.stats()


@settings(max_examples=40, deadline=None)
@given(rows=capture_rows, data=st.data())
def test_shard_merge_associativity(rows, data):
    i = data.draw(st.integers(0, len(rows)), label="split1")
    j = data.draw(st.integers(i, len(rows)), label="split2")
    shards = [rows[:i], rows[i:j], rows[j:]]

    serial = ConsentGraph()
    ingest_captures(serial, store_from(rows))

    # Merging the *stores* first (the executor's path: concatenation in
    # shard order) then ingesting serially is the same graph.
    merged_store = store_from(shards[0])
    for shard in shards[1:]:
        merged_store.merge(store_from(shard))
    from_merged = ConsentGraph()
    ingest_captures(from_merged, merged_store)
    assert from_merged.digest() == serial.digest()


# ----------------------------------------------------------------------
# Ingest cost and edge cases
# ----------------------------------------------------------------------
def test_gvl_adds_each_declares_edge_once():
    # Vendor 1 repeats its declarations in every version, then moves
    # purpose 2 to legitimate interest: 5 distinct DECLARES edges.
    steady = (
        StubVendor(1, frozenset({1, 2}), frozenset({3})),
        StubVendor(2, frozenset({1}), frozenset()),
    )
    history = tuple(
        StubVersion(v, dt.date(2019, 1, 1) + dt.timedelta(days=14 * v), steady)
        for v in range(1, 5)
    ) + (
        StubVersion(
            5,
            dt.date(2019, 4, 1),
            (StubVendor(1, frozenset({1}), frozenset({2, 3})),),
        ),
    )
    graph = ConsentGraph()
    calls = []
    add_edge = graph.add_edge

    def counting_add_edge(etype, src, dst, **props):
        calls.append(etype)
        return add_edge(etype, src, dst, **props)

    graph.add_edge = counting_add_edge
    ingest_gvl(graph, history)
    assert len(graph.edges_of_type("DECLARES")) == 5
    assert calls.count("DECLARES") == 5


def test_country_fig5_over_an_empty_ranking_is_empty():
    graph = ConsentGraph()
    ingest_country_rankings(graph, {"DE": CountryToplist("DE", entries=())})
    curve = country_fig5(graph, "DE", dt.date(2020, 5, 15))
    assert curve.sizes == []
    assert curve.counts == {key: [] for key in CMP_KEYS}
