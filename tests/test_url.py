"""URL parsing and canonicalization."""

import os
import subprocess
import sys

import pytest

from repro.net.url import URL, UrlError, _normalize_path


class TestParse:
    def test_basic(self):
        u = URL.parse("https://example.com/path?x=1#frag")
        assert u.scheme == "https"
        assert u.host == "example.com"
        assert u.path == "/path"
        assert u.query == "x=1"
        assert u.fragment == "frag"

    def test_scheme_is_lowercased(self):
        assert URL.parse("HTTPS://example.com/").scheme == "https"

    def test_host_is_lowercased(self):
        assert URL.parse("https://EXAMPLE.com/").host == "example.com"

    def test_trailing_dot_stripped(self):
        assert URL.parse("https://example.com./").host == "example.com"

    def test_empty_path_becomes_slash(self):
        assert URL.parse("https://example.com").path == "/"

    def test_default_port_stripped_https(self):
        assert URL.parse("https://example.com:443/").port is None

    def test_default_port_stripped_http(self):
        assert URL.parse("http://example.com:80/").port is None

    def test_explicit_port_kept(self):
        assert URL.parse("https://example.com:8443/").port == 8443

    def test_effective_port(self):
        assert URL.parse("https://example.com/").effective_port == 443
        assert URL.parse("http://example.com/").effective_port == 80
        assert URL.parse("http://example.com:8080/").effective_port == 8080

    def test_whitespace_stripped(self):
        assert URL.parse("  https://example.com/  ").host == "example.com"

    @pytest.mark.parametrize(
        "raw",
        [
            "example.com/path",  # relative
            "ftp://example.com/",  # unsupported scheme
            "mailto:user@example.com",
            "https:/example.com/",  # missing authority
            "https://user@example.com/",  # userinfo
            "https://exa mple.com/",  # bad host
            "https://example.com:0/",  # port out of range
            "https://example.com:99999/",
            "https://example.com:abc/",
            "https://-example.com/",
            "https:///path",
        ],
    )
    def test_rejects_malformed(self, raw):
        with pytest.raises(UrlError):
            URL.parse(raw)

    def test_rejects_non_string(self):
        with pytest.raises(UrlError):
            URL.parse(12345)  # type: ignore[arg-type]


class TestViews:
    def test_origin_without_port(self):
        assert URL.parse("https://example.com/a").origin == "https://example.com"

    def test_origin_with_port(self):
        assert (
            URL.parse("http://example.com:8080/a").origin
            == "http://example.com:8080"
        )

    def test_str_roundtrip(self):
        raw = "https://example.com/path?x=1#f"
        assert str(URL.parse(raw)) == raw

    def test_is_landing_page(self):
        assert URL.parse("https://example.com/").is_landing_page
        assert not URL.parse("https://example.com/a").is_landing_page
        assert not URL.parse("https://example.com/?q=1").is_landing_page

    def test_without_fragment(self):
        u = URL.parse("https://example.com/a#frag")
        assert u.without_fragment().fragment == ""
        # Already-clean URLs are returned as-is.
        clean = URL.parse("https://example.com/a")
        assert clean.without_fragment() is clean

    def test_fragment_not_compared(self):
        a = URL.parse("https://example.com/a#x")
        b = URL.parse("https://example.com/a#y")
        assert a == b
        assert hash(a) == hash(b)

    def test_with_path(self):
        u = URL.parse("https://example.com/a?x=1")
        v = u.with_path("/b", "y=2")
        assert v.path == "/b" and v.query == "y=2"

    def test_with_host(self):
        assert (
            URL.parse("https://a.com/x").with_host("b.org").host == "b.org"
        )

    def test_with_host_rejects_malformed(self):
        with pytest.raises(UrlError):
            URL.parse("https://a.com/").with_host("bad host")

    def test_sibling_scheme(self):
        u = URL.parse("https://example.com:8443/a")
        v = u.sibling("http")
        assert v.scheme == "http" and v.port is None

    def test_sibling_rejects_unknown_scheme(self):
        with pytest.raises(UrlError):
            URL.parse("https://a.com/").sibling("gopher")


class TestResolve:
    BASE = URL.parse("https://example.com/dir/page?q=1")

    def test_absolute(self):
        assert (
            self.BASE.resolve("http://other.org/x").host == "other.org"
        )

    def test_scheme_relative(self):
        r = self.BASE.resolve("//other.org/x")
        assert r.scheme == "https" and r.host == "other.org"

    def test_absolute_path(self):
        assert self.BASE.resolve("/root").path == "/root"

    def test_relative_path(self):
        assert self.BASE.resolve("sub").path == "/dir/sub"

    def test_dotdot(self):
        assert self.BASE.resolve("../top").path == "/top"

    def test_fragment_only(self):
        r = self.BASE.resolve("#sec")
        assert r.path == "/dir/page" and r.fragment == "sec"

    def test_empty_reference(self):
        assert self.BASE.resolve("").path == "/dir/page"

    def test_query_in_reference(self):
        r = self.BASE.resolve("/x?a=2#b")
        assert r.query == "a=2" and r.fragment == "b"


class TestNormalizePath:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("/a/b", "/a/b"),
            ("/a//b", "/a/b"),
            ("/a/./b", "/a/b"),
            ("/a/../b", "/b"),
            ("/../a", "/a"),
            ("/", "/"),
            ("a/b", "/a/b"),
            ("/a/b/", "/a/b/"),
        ],
    )
    def test_cases(self, raw, expected):
        assert _normalize_path(raw) == expected


class TestParseCache:
    def test_parse_cache_is_bounded(self):
        from repro.net.url import PARSE_CACHE_SIZE, parse_cache_info

        assert parse_cache_info().maxsize == PARSE_CACHE_SIZE

    def test_parse_cache_serves_hits(self):
        from repro.net.url import parse_cache_info

        before = parse_cache_info().hits
        URL.parse("https://cache-probe.example.com/x")
        URL.parse("https://cache-probe.example.com/x")
        assert parse_cache_info().hits > before

    def test_cached_instances_are_shared(self):
        a = URL.parse("https://shared.example.com/p?q=1")
        b = URL.parse("https://shared.example.com/p?q=1")
        assert a is b


class TestPickle:
    def test_pickled_url_keys_work_under_another_hash_seed(self):
        """A queue dict pickled in one process (hash memos warm) must key
        lookups in a process with a different string-hash salt."""
        script = (
            "import pickle, sys\n"
            "from repro.net.url import URL\n"
            "u = URL.parse('https://a.example/p?q=1#f')\n"
            "if sys.argv[1] == 'dump':\n"
            "    sys.stdout.buffer.write(pickle.dumps({u: 7}))\n"
            "else:\n"
            "    d = pickle.loads(sys.stdin.buffer.read())\n"
            "    print(d.get(u), next(iter(d)).fragment)\n"
        )

        def child(mode, seed, data=b""):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            return subprocess.run(
                [sys.executable, "-c", script, mode], input=data, env=env,
                capture_output=True, check=True, timeout=60,
            ).stdout

        loaded = child("load", "2", child("dump", "1"))
        assert loaded.split() == [b"7", b"f"]
