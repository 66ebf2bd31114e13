"""Differential parity: graph queries vs the `core/` functions.

Every query in :mod:`repro.graph.query` projects the graph onto the
input of one `core/` function and calls it; run on the original source,
that function must produce **byte-identical** payloads -- over the
default study fixtures, over a faulted/retried run, and serially and
on worker processes. Parity is always asserted on canonical
JSON bytes, never on floats with tolerance.
"""

import dataclasses
import datetime as dt
import json

import pytest

from repro.core.adoption import AdoptionSeries
from repro.core.marketshare import (
    default_sizes,
    marketshare_by_toplist_size,
    observed_marketshare,
)
from repro.core.pipeline import Study, StudyConfig
from repro.core.vantage import VantageTable
from repro.crawler.columnar import VANTAGE_STRS
from repro.crawler.storage import store_digest
from repro.faults import FaultSpec, FaultSchedule
from repro.faults.retry import FAST_TEST_POLICY
from repro.graph import (
    adoption_series,
    build_study_graph,
    country_fig5,
    fig5_curve,
    graph_countries,
    gvl_churn,
    gvl_history as graph_gvl_history,
    observed_curve,
    observes_degree,
    toplist_ranks,
    vantage_table,
)
from repro.toplist.providers import per_country_toplists

MAY_2020 = dt.date(2020, 5, 15)

#: Transient faults the retry policy always recovers (same shape as the
#: chaos invariants), so the faulted run exercises the retry machinery
#: while staying deterministic.
TRANSIENT = FaultSchedule(
    seed=13,
    specs=(
        FaultSpec("dns-error", rate=0.15, attempts=1),
        FaultSpec("connection-reset", rate=0.12, attempts=2),
    ),
)


def canon(payload) -> str:
    """Canonical JSON bytes -- the unit of every parity assertion."""
    return json.dumps(payload, sort_keys=True)


def gvl_facts(versions):
    """What the graph ingests of a GVL history: per version, its number,
    date and each vendor's consent/LI declarations."""
    return [
        (
            version.version,
            version.last_updated,
            sorted(
                (vendor.id, vendor.purpose_ids, vendor.leg_int_purpose_ids)
                for vendor in version.vendors
            ),
        )
        for version in sorted(versions, key=lambda v: v.version)
    ]


def store_rows_for_vantage(store):
    return (
        (VANTAGE_STRS[vantage], domain, cmp_key)
        for domain, _ordinal, cmp_key, vantage in store.iter_rows()
    )


@pytest.fixture(scope="module")
def graph(study, social_store, gvl_history):
    """The default study's graph, through the `Study` facade."""
    return study.build_graph(social_store, gvl_versions=gvl_history)


class TestDefaultStudyParity:
    def test_adoption_series_bit_identical(self, graph, social_store):
        ref = AdoptionSeries.from_columnar(social_store)
        assert canon(adoption_series(graph).to_payload()) == canon(
            ref.to_payload()
        )

    def test_adoption_series_restricted_bit_identical(
        self, graph, study, social_store
    ):
        restrict = study.toplist_domains[:100]
        ref = AdoptionSeries.from_columnar(social_store, set(restrict))
        got = adoption_series(graph, restrict)
        assert canon(got.to_payload()) == canon(ref.to_payload())

    def test_vantage_table_bit_identical(self, graph, social_store):
        ref = VantageTable.from_stream_rows(
            store_rows_for_vantage(social_store)
        )
        assert canon(vantage_table(graph).to_payload()) == canon(
            ref.to_payload()
        )

    def test_observed_marketshare_bit_identical(
        self, graph, study, social_store
    ):
        depth = study.config.toplist_size
        ranks = {
            domain: position
            for position, domain in enumerate(
                study.tranco.top(depth), start=1
            )
        }
        assert toplist_ranks(graph) == ranks
        sizes = default_sizes(depth)
        ref = observed_marketshare(
            AdoptionSeries.from_columnar(social_store), ranks, MAY_2020, sizes
        )
        got = observed_curve(graph, MAY_2020, sizes)
        assert canon(got.to_payload()) == canon(ref.to_payload())

    def test_fig5_exact_path_bit_identical(self, graph, study):
        # The graph holds RANK/ADOPTED edges to the study's toplist
        # depth; evaluate the reference over the same prefixes.
        sizes = default_sizes(study.config.toplist_size)
        ref = marketshare_by_toplist_size(
            study.world, study.tranco, MAY_2020, sizes
        )
        got = fig5_curve(graph, MAY_2020, sizes)
        assert canon(got.to_payload()) == canon(ref.to_payload())

    def test_fig5_sampling_path_bit_identical(self, study):
        # Force the seeded-sampling strata with a tiny exact limit; the
        # graph query must replay the reference's exact rng sequence.
        graph = build_study_graph(
            world=study.world, tranco=study.tranco, ranking_depth=None
        )
        sizes = [100, 2_000, len(study.tranco)]
        kwargs = dict(exact_limit=150, samples_per_stratum=50)
        ref = marketshare_by_toplist_size(
            study.world, study.tranco, MAY_2020, sizes, **kwargs
        )
        got = fig5_curve(graph, MAY_2020, sizes, **kwargs)
        assert canon(got.to_payload()) == canon(ref.to_payload())

    def test_gvl_churn_bit_identical(self, graph, gvl_history):
        assert gvl_facts(graph_gvl_history(graph)) == gvl_facts(gvl_history)
        assert gvl_facts(gvl_churn(graph).versions) == gvl_facts(gvl_history)

    def test_observes_degree_matches_store(self, graph, social_store):
        seen = {}
        for domain, _ordinal, cmp_key, _vantage in social_store.iter_rows():
            if cmp_key is not None:
                seen.setdefault(cmp_key, set()).add(domain)
        degrees = observes_degree(graph)
        for cmp_key, domains in seen.items():
            assert degrees[cmp_key] == len(domains)


class TestPerCountryFig5:
    def test_at_least_three_countries_end_to_end(self, graph, study):
        countries = graph_countries(graph)
        assert len(countries) >= 3
        toplists = per_country_toplists(
            study.world, study.tranco, max_rank=study.config.toplist_size
        )
        # Ground truth per country: walk the bucketed prefixes directly
        # against the synthetic world's episode state.
        depth = study.config.toplist_size
        site_of = {
            domain: study.world.site(int(rank))
            for domain, rank in zip(
                study.tranco.top(depth),
                study.tranco.top_true_ranks(depth).tolist(),
            )
        }
        checked = 0
        for country in countries:
            curve = country_fig5(graph, country, MAY_2020)
            toplist = toplists[country]
            assert curve.sizes == [
                len(toplist.domains_within(b)) for b in toplist.buckets()
            ]
            for i, bucket in enumerate(toplist.buckets()):
                expected = {}
                for domain in toplist.domains_within(bucket):
                    cmp_key = site_of[domain].cmp_on(MAY_2020)
                    if cmp_key is not None:
                        expected[cmp_key] = expected.get(cmp_key, 0) + 1
                for cmp_key, series in curve.counts.items():
                    assert series[i] == float(expected.get(cmp_key, 0))
            checked += 1
        assert checked >= 3

    def test_unknown_country_lists_available(self, graph):
        from repro.graph import GraphError

        with pytest.raises(GraphError, match="XX"):
            country_fig5(graph, "XX", MAY_2020)


class TestFaultedAndBackendParity:
    """Parity must survive fault injection/retries and executor choice."""

    WINDOW = (dt.date(2020, 3, 1), dt.date(2020, 4, 1))

    def faulted_config(self, **overrides):
        return StudyConfig(
            seed=11,
            n_domains=1_500,
            toplist_size=150,
            events_per_day=60,
            study_start=self.WINDOW[0],
            study_end=self.WINDOW[1],
            faults=TRANSIENT,
            retry=FAST_TEST_POLICY,
            **overrides,
        )

    @pytest.fixture(scope="class")
    def serial_run(self):
        study = Study(self.faulted_config())
        store = study.run_social_crawl()
        return study, store

    def assert_query_parity(self, study, store):
        graph = study.build_graph(store)
        ref = AdoptionSeries.from_columnar(store)
        assert canon(adoption_series(graph).to_payload()) == canon(
            ref.to_payload()
        )
        ref_table = VantageTable.from_stream_rows(store_rows_for_vantage(store))
        assert canon(vantage_table(graph).to_payload()) == canon(
            ref_table.to_payload()
        )
        depth = study.config.toplist_size
        ranks = {
            domain: position
            for position, domain in enumerate(
                study.tranco.top(depth), start=1
            )
        }
        date = self.WINDOW[1]
        sizes = default_sizes(depth)
        ref_curve = observed_marketshare(ref, ranks, date, sizes)
        assert canon(observed_curve(graph, date, sizes).to_payload()) == canon(
            ref_curve.to_payload()
        )
        return graph

    def test_faulted_serial_parity(self, serial_run):
        self.assert_query_parity(*serial_run)

    @pytest.mark.parametrize("parallelism", [2], ids=["process"])
    def test_faulted_parallel_backend_parity(self, serial_run, parallelism):
        _, serial_store = serial_run
        study = Study(
            dataclasses.replace(self.faulted_config(), parallelism=parallelism)
        )
        store = study.run_social_crawl()
        # The determinism contract: workers produce the serial store...
        assert store_digest(store) == store_digest(serial_store)
        # ...and therefore the same graph and the same query bytes.
        graph = self.assert_query_parity(study, store)
        serial_graph = serial_run[0].build_graph(serial_store)
        assert graph.digest() == serial_graph.digest()
