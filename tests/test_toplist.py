"""Provider rankings and the Tranco (Dowdall) aggregation."""

import numpy as np
import pytest

from repro.toplist.providers import PROVIDER_NAMES, provider_ranking
from repro.toplist.tranco import TrancoList, build_tranco


class TestProviders:
    def test_all_providers_build(self, world):
        for name in PROVIDER_NAMES:
            ranking = provider_ranking(world, name)
            assert len(ranking) > 0
            assert ranking.provider == name

    def test_unknown_provider(self, world):
        with pytest.raises(KeyError):
            provider_ranking(world, "bing")

    def test_order_is_permutation(self, world):
        ranking = provider_ranking(world, "alexa")
        assert len(set(ranking.order.tolist())) == len(ranking)
        assert ranking.order.min() >= 1
        assert ranking.order.max() <= world.n_domains

    def test_ranks_correlate_with_truth(self, world):
        ranking = provider_ranking(world, "quantcast")
        positions = ranking.position_of()
        # The provider's rank of the true top-100 should be far better
        # than that of a random deep slice.
        top = [positions[r - 1] for r in range(1, 101) if positions[r - 1]]
        deep = [
            positions[r - 1]
            for r in range(2000, 2100)
            if positions[r - 1]
        ]
        assert np.median(top) < np.median(deep)

    def test_noise_scales_differ(self, world):
        # Majestic is noisier than Quantcast: its top-100 should agree
        # less with the truth.
        def agreement(name):
            order = provider_ranking(world, name).order[:100]
            return sum(1 for true_rank in order if true_rank <= 100)

        assert agreement("quantcast") > agreement("majestic")

    def test_quantcast_partial_tail_coverage(self):
        from repro.web.worldgen import World, WorldConfig

        big = World(WorldConfig(seed=3, n_domains=30_000))
        ranking = provider_ranking(big, "quantcast")
        assert len(ranking) < big.n_domains

    def test_umbrella_boosts_infrastructure(self, world):
        umbrella = provider_ranking(world, "umbrella")
        alexa = provider_ranking(world, "alexa")
        infra_ranks = [
            r for r in range(1, 2001) if world.site(r).is_infrastructure
        ]
        assert infra_ranks, "world should contain infrastructure sites"
        u_pos = umbrella.position_of()
        a_pos = alexa.position_of()
        u_median = np.median([u_pos[r - 1] for r in infra_ranks])
        a_median = np.median([a_pos[r - 1] for r in infra_ranks])
        assert u_median < a_median


class TestTranco:
    def test_build_and_length(self, study):
        assert len(study.tranco) == study.world.n_domains

    def test_top_generates_domains(self, study):
        top = study.tranco.top(50)
        assert len(top) == 50
        assert len(set(top)) == 50

    def test_tranco_correlates_with_truth(self, study):
        top_true = study.tranco.top_true_ranks(100)
        assert np.median(top_true) < 200

    def test_true_rank_at(self, study):
        assert study.tranco.true_rank_at(1) == int(study.tranco.order[0])
        with pytest.raises(IndexError):
            study.tranco.true_rank_at(0)

    def test_tranco_rank_of_true(self, study):
        true_rank = study.tranco.true_rank_at(5)
        assert study.tranco.tranco_rank_of_true(true_rank) == 5

    def test_aggregation_beats_single_provider(self, world):
        # Dowdall aggregation should be at least as accurate as the
        # noisiest input list on the top-100.
        tranco = build_tranco(world)
        majestic = provider_ranking(world, "majestic")

        def top100_agreement(order):
            return sum(1 for true_rank in order[:100] if true_rank <= 100)

        assert top100_agreement(tranco.order) >= top100_agreement(
            majestic.order
        )

    def test_needs_a_provider(self, world):
        with pytest.raises(ValueError):
            build_tranco(world, providers=())

    def test_deterministic(self, world):
        a = build_tranco(world)
        b = build_tranco(world)
        assert np.array_equal(a.order, b.order)


class TestIdentityAndPayload:
    def test_equality_and_hash_are_identity(self, world):
        # Both wrap numpy arrays: value equality would be ambiguous.
        pairs = [
            (build_tranco(world), build_tranco(world)),
            (provider_ranking(world, "alexa"), provider_ranking(world, "alexa")),
        ]
        for value, twin in pairs:
            assert value == value
            assert value != twin
            assert hash(value) == hash(value)
            assert np.array_equal(value.order, twin.order)

    def test_payload_roundtrip(self, world):
        tranco = build_tranco(world)
        loaded = TrancoList.from_payload(world, tranco.to_payload())
        assert loaded.world is world
        assert np.array_equal(loaded.order, tranco.order)

    def test_payload_must_be_a_permutation(self, world):
        order = build_tranco(world).order.tolist()
        bad_orders = [
            order[:-1],  # too short
            order + [len(order) + 1],  # too long
            [order[1]] + order[1:],  # a duplicate, one rank missing
            [0] + order[1:],  # out of range
        ]
        for bad in bad_orders:
            with pytest.raises(ValueError, match="permutation"):
                TrancoList.from_payload(world, {"order": bad})
