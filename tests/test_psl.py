"""Public Suffix List matching."""

import pytest

from repro.net.psl import PublicSuffixList, default_psl


@pytest.fixture(scope="module")
def psl():
    return default_psl()


class TestPublicSuffix:
    def test_simple_tld(self, psl):
        assert psl.public_suffix("example.com") == "com"

    def test_two_level_suffix(self, psl):
        assert psl.public_suffix("example.co.uk") == "co.uk"

    def test_private_suffix(self, psl):
        assert psl.public_suffix("foo.github.io") == "github.io"

    def test_unknown_tld_falls_back_to_last_label(self, psl):
        assert psl.public_suffix("example.zzunknown") == "zzunknown"

    def test_wildcard_rule(self, psl):
        # *.ck makes any.ck a public suffix.
        assert psl.public_suffix("example.any.ck") == "any.ck"

    def test_exception_rule(self, psl):
        # !www.ck overrides *.ck.
        assert psl.public_suffix("www.ck") == "ck"

    def test_case_insensitive(self, psl):
        assert psl.public_suffix("EXAMPLE.CO.UK") == "co.uk"

    def test_longest_rule_wins(self, psl):
        # com.de is listed as well as de.
        assert psl.public_suffix("example.com.de") == "com.de"


class TestRegistrableDomain:
    def test_basic(self, psl):
        assert psl.registrable_domain("www.example.com") == "example.com"

    def test_deep_subdomain(self, psl):
        assert (
            psl.registrable_domain("a.b.c.example.co.uk") == "example.co.uk"
        )

    def test_private_suffix_paper_example(self, psl):
        # The paper's example: foo.example.github.io -> example.github.io.
        assert (
            psl.registrable_domain("foo.example.github.io")
            == "example.github.io"
        )

    def test_bare_suffix_is_none(self, psl):
        assert psl.registrable_domain("co.uk") is None
        assert psl.registrable_domain("com") is None
        assert psl.registrable_domain("github.io") is None

    def test_exception_rule_domain(self, psl):
        # www.ck is itself registrable (the exception rule).
        assert psl.registrable_domain("www.ck") == "www.ck"
        assert psl.registrable_domain("sub.www.ck") == "www.ck"

    def test_wildcard_domain(self, psl):
        assert psl.registrable_domain("foo.any.ck") == "foo.any.ck"


class TestSplit:
    def test_with_prefix(self, psl):
        assert psl.split("www.shop.example.com") == ("www.shop", "example.com")

    def test_without_prefix(self, psl):
        assert psl.split("example.com") == ("", "example.com")

    def test_bare_suffix(self, psl):
        assert psl.split("co.uk") == ("", "co.uk")

    def test_is_public_suffix(self, psl):
        assert psl.is_public_suffix("co.uk")
        assert not psl.is_public_suffix("example.co.uk")


class TestConstruction:
    def test_empty_rules_rejected(self):
        with pytest.raises(ValueError):
            PublicSuffixList(["// only comments"])

    def test_comments_and_blanks_ignored(self):
        psl = PublicSuffixList(["// c", "", "com"])
        assert len(psl) == 1

    def test_custom_rules(self):
        psl = PublicSuffixList(["com", "!special.weird", "*.weird"])
        assert psl.registrable_domain("a.b.weird") == "a.b.weird"
        assert psl.registrable_domain("special.weird") == "special.weird"

    def test_malformed_hostname_raises(self, psl):
        with pytest.raises(ValueError):
            psl.public_suffix("")
        with pytest.raises(ValueError):
            psl.public_suffix("a..b")

    def test_default_psl_is_cached(self):
        assert default_psl() is default_psl()


class TestPickling:
    """A used PSL must survive the trip to a shard worker process.

    Regression: per-instance ``lru_cache`` wrappers (since removed)
    closed over bound methods and were unpicklable, so any payload
    holding a warmed PSL failed to serialize to process-pool workers.
    """

    def test_warm_psl_roundtrips_through_pickle(self):
        import pickle

        psl = PublicSuffixList(["com", "co.uk", "*.ck", "!www.ck"])
        # Use it first: a warmed PSL once carried unpicklable state.
        assert psl.registrable_domain("shop.example.co.uk") == "example.co.uk"
        assert psl.public_suffix("a.b.ck") == "b.ck"
        clone = pickle.loads(pickle.dumps(psl))
        assert clone.registrable_domain("shop.example.co.uk") == "example.co.uk"
        assert clone.public_suffix("a.b.ck") == "b.ck"
        assert clone.registrable_domain("www.ck") == "www.ck"

    def test_warm_default_psl_roundtrips(self):
        import pickle

        psl = default_psl()
        psl.registrable_domain("foo.example.github.io")
        clone = pickle.loads(pickle.dumps(psl))
        assert (
            clone.registrable_domain("foo.example.github.io")
            == "example.github.io"
        )

    def test_process_backend_ships_memoized_psl(self):
        """A warmed PSL crosses the process boundary inside a payload."""
        import pickle
        from concurrent.futures import ProcessPoolExecutor

        psl = default_psl()
        psl.registrable_domain("shop.example.co.uk")  # warm
        payload = pickle.dumps({"psl": psl, "host": "shop.example.co.uk"})
        with ProcessPoolExecutor(max_workers=1) as pool:
            result = pool.submit(_registrable_in_worker, payload).result()
        assert result == "example.co.uk"


def _registrable_in_worker(payload: bytes) -> str:
    import pickle

    data = pickle.loads(payload)
    return data["psl"].registrable_domain(data["host"])
