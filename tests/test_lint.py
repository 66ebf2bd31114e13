"""Tests for ``repro.lint`` -- the determinism & contract linter.

Three layers:

* per-rule positive/negative fixture snippets run through
  :func:`lint_source` with an empty allowlist (so rules apply to the
  virtual fixture path);
* framework behaviour -- suppressions, unused-suppression detection,
  baseline round-trips, reporters, the CLI and its exit codes;
* the meta-test: the repository's own ``src`` and ``scripts`` trees
  are lint-clean against the committed (empty) baseline.
"""

import io
import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    DEFAULT_CONFIG,
    Baseline,
    LintConfig,
    lint_paths,
    lint_source,
)
from repro.lint.cli import main
from repro.lint.engine import PARSE_ERROR
from repro.lint.rules import RULES, WHOLE_PROGRAM_RULES
from repro.lint.suppress import UNUSED_SUPPRESSION

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Config with no allowlists: fixture snippets always get the rule.
STRICT = LintConfig()


def check(code, path="fixture.py", config=STRICT):
    """Lint a dedented snippet; return the list of rule ids found."""
    result = lint_source(textwrap.dedent(code), path, config)
    return [f.rule for f in result.findings]


# ---------------------------------------------------------------------------
# DET001 -- unseeded randomness
# ---------------------------------------------------------------------------


class TestDet001:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import random\nrng = random.Random()\n",
            "import random\nx = random.random()\n",
            "import random\nx = random.randint(1, 6)\n",
            "import random\nrandom.shuffle(items)\n",
            "import random\nrandom.seed(42)\n",
            "import random\nrng = random.SystemRandom()\n",
        ],
    )
    def test_positive(self, snippet):
        assert check(snippet) == ["DET001"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "import random\nrng = random.Random(7)\n",
            'import random\nrng = random.Random(f"{seed}:x")\n',
            "import random\nrng = random.Random(seed=seed)\n",
            "x = rng.random()\n",  # instance call, not module-level
            "x = rng.shuffle(items)\n",
        ],
    )
    def test_negative(self, snippet):
        assert check(snippet) == []


# ---------------------------------------------------------------------------
# DET002 -- wall-clock reads
# ---------------------------------------------------------------------------


class TestDet002:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\nt = time.time()\n",
            "import time\nt = time.monotonic()\n",
            "import time\nt = time.perf_counter()\n",
            "import datetime\nnow = datetime.datetime.now()\n",
            "import datetime as dt\ntoday = dt.date.today()\n",
            "from datetime import datetime\nx = datetime.utcnow()\n",
        ],
    )
    def test_positive(self, snippet):
        assert check(snippet) == ["DET002"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "import datetime as dt\nd = dt.date(2020, 5, 15)\n",
            "d = window.start\n",
        ],
    )
    def test_negative(self, snippet):
        assert check(snippet) == []

    def test_sleeping_is_not_reading(self):
        # Waiting is DET005's business, never a DET002 wall-clock read.
        rules = check("import time\ntime.sleep(0.1)\n")
        assert "DET002" not in rules

    def test_allowlisted_path_is_skipped(self):
        code = "import time\nt = time.time()\n"
        allowed = LintConfig(allow={"DET002": ("src/repro/obs/trace.py",)})
        assert check(code, path="src/repro/obs/trace.py", config=allowed) == []
        assert check(code, path="src/repro/x.py", config=allowed) == ["DET002"]


# ---------------------------------------------------------------------------
# DET003 -- salted hash()
# ---------------------------------------------------------------------------


class TestDet003:
    def test_positive(self):
        assert check('bucket = hash(domain) % 100\n') == ["DET003"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "buckets = list(map(hash, rows))\n",
            "ordered = sorted(xs, key=hash)\n",
            "h = hash\n",
        ],
    )
    def test_builtin_passed_as_a_value(self, snippet):
        """The builtin handed on uncalled is called all the same."""
        assert check(snippet) == ["DET003"]

    def test_suppressed_value_use(self):
        code = "hashes = map(hash, rows)  # repro-lint: disable=DET003\n"
        assert check(code) == []

    @pytest.mark.parametrize(
        "snippet",
        [
            "import zlib\nbucket = zlib.crc32(domain.encode()) % 100\n",
            "import hashlib\nd = hashlib.sha256(b'x').hexdigest()\n",
            "h = obj.hash()\n",  # method, not the builtin
            "def __hash__(self):\n    return 3\n",
            "from dataclasses import field\nx = field(hash=False)\n",
            "h = obj.__hash__\n",
            "h = obj.__hash__()\n",
        ],
    )
    def test_negative(self, snippet):
        assert check(snippet) == []


# ---------------------------------------------------------------------------
# DET004 -- unordered iteration
# ---------------------------------------------------------------------------


class TestDet004:
    @pytest.mark.parametrize(
        "snippet",
        [
            "for x in {1, 2, 3}:\n    use(x)\n",
            "for x in set(xs):\n    use(x)\n",
            "ys = [f(x) for x in frozenset(xs)]\n",
            "ys = list(set(xs))\n",
            "ys = tuple({x for x in xs})\n",
            "s = ','.join({str(x) for x in xs})\n",
            "import os\nfor name in os.listdir(path):\n    use(name)\n",
            "import glob\nfor p in glob.glob('*.json'):\n    use(p)\n",
            "for p in path.iterdir():\n    use(p)\n",
            "def f(d):\n    return d.keys()\n",
            "def f(d):\n    return list(d.keys())\n",
        ],
    )
    def test_positive(self, snippet):
        assert check(snippet) == ["DET004"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "for x in sorted(set(xs)):\n    use(x)\n",
            "n = len(set(xs))\n",
            "m = max({1, 2, 3})\n",
            "ok = x in {1, 2, 3}\n",
            "def f(xs):\n    return frozenset(xs)\n",  # set-typed API value
            "def f(xs):\n    return {g(x) for x in xs}\n",
            "def f(d):\n    return sorted(d.keys())\n",
            "for k in d:\n    use(k)\n",  # plain dict iteration is ordered
            "import os\nnames = sorted(os.listdir(path))\n",
            "seen = set(xs)\n",  # storing a set is fine; use-sites lint
        ],
    )
    def test_negative(self, snippet):
        assert check(snippet) == []


# ---------------------------------------------------------------------------
# DET005 -- bare time.sleep outside the injectable-clock seam
# ---------------------------------------------------------------------------


class TestDet005:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\ntime.sleep(0.1)\n",
            "import time\ntime.sleep(delay)\n",
            "from time import sleep\nsleep(2)\n",
        ],
    )
    def test_positive(self, snippet):
        assert check(snippet) == ["DET005"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "clock.sleep(0.5)\n",  # the injectable seam
            "self.clock.sleep(delay)\n",
            "await asyncio.sleep(0)\n",  # not the blocking builtin
            "import time\nt = time.perf_counter\n",  # no call
        ],
    )
    def test_negative(self, snippet):
        assert "DET005" not in check(snippet)

    def test_clock_module_is_allowlisted_by_default(self):
        code = "import time\ntime.sleep(seconds)\n"
        path = "src/repro/faults/clock.py"
        assert check(code, path=path, config=DEFAULT_CONFIG) == []
        assert check(code, path="src/repro/crawler/browser.py") == ["DET005"]


# ---------------------------------------------------------------------------
# MUT001 -- mutable defaults
# ---------------------------------------------------------------------------


class TestMut001:
    @pytest.mark.parametrize(
        "snippet",
        [
            "def f(a=[]):\n    pass\n",
            "def f(a={}):\n    pass\n",
            "def f(a=set()):\n    pass\n",
            "def f(a=dict()):\n    pass\n",
            "def f(*, a=[]):\n    pass\n",
            "import collections\ndef f(a=collections.defaultdict(int)):\n"
            "    pass\n",
            "async def f(a=[]):\n    pass\n",
        ],
    )
    def test_positive(self, snippet):
        assert check(snippet) == ["MUT001"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "def f(a=None):\n    pass\n",
            "def f(a=()):\n    pass\n",
            "def f(a='x', b=3):\n    pass\n",
            "def f(a=frozenset()):\n    pass\n",
        ],
    )
    def test_negative(self, snippet):
        assert check(snippet) == []


# ---------------------------------------------------------------------------
# OBS001 -- obs names must be literals
# ---------------------------------------------------------------------------


class TestObs001:
    @pytest.mark.parametrize(
        "snippet",
        [
            "c = metrics.counter(name)\n",
            'c = metrics.counter(f"crawls_{kind}", "help")\n',
            "g = metrics.gauge(prefix + '_depth')\n",
            "h = metrics.histogram(NAME)\n",
            "with obs.span(label):\n    pass\n",
            "obs.event(name, url=url)\n",
        ],
    )
    def test_positive(self, snippet):
        assert check(snippet) == ["OBS001"]

    @pytest.mark.parametrize(
        "snippet",
        [
            'c = metrics.counter("detect_captures_total", "help")\n',
            'with obs.span("platform.run", parallel=True):\n    pass\n',
            'obs.event("shard.done", shard=3)\n',
            "c.inc(cmp=key)\n",  # labels may be variables
        ],
    )
    def test_negative(self, snippet):
        assert check(snippet) == []

    def test_obs_layer_itself_is_allowlisted_by_default(self):
        code = "def span(self, name):\n    return self.tracer.span(name)\n"
        path = "src/repro/obs/__init__.py"
        assert check(code, path=path, config=DEFAULT_CONFIG) == []
        assert check(code, path="src/repro/web/dom.py") == ["OBS001"]


# ---------------------------------------------------------------------------
# Framework: suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_same_line_suppression(self):
        code = (
            "import time\n"
            "t = time.time()  # repro-lint: disable=DET002\n"
        )
        result = lint_source(code, "x.py", STRICT)
        assert result.findings == []
        assert result.suppressed == 1

    def test_suppression_list_and_all(self):
        code = (
            "import time, random\n"
            "t = time.time() + random.random()"
            "  # repro-lint: disable=DET001,DET002\n"
            "u = time.time() + random.random()  # repro-lint: disable=all\n"
        )
        result = lint_source(code, "x.py", STRICT)
        assert result.findings == []
        assert result.suppressed == 4

    def test_unused_suppression_is_reported(self):
        code = "x = 1  # repro-lint: disable=DET002\n"
        result = lint_source(code, "x.py", STRICT)
        assert [f.rule for f in result.findings] == [UNUSED_SUPPRESSION]
        assert result.findings[0].line == 1

    def test_wrong_rule_suppression_keeps_finding(self):
        code = (
            "import time\n"
            "t = time.time()  # repro-lint: disable=DET001\n"
        )
        rules = sorted(f.rule for f in lint_source(code, "x.py", STRICT).findings)
        assert rules == ["DET002", UNUSED_SUPPRESSION]

    def test_directive_on_other_line_does_not_apply(self):
        code = (
            "# repro-lint: disable=DET002\n"
            "import time\n"
            "t = time.time()\n"
        )
        rules = sorted(f.rule for f in lint_source(code, "x.py", STRICT).findings)
        assert rules == ["DET002", UNUSED_SUPPRESSION]

    def test_directive_inside_string_is_ignored(self):
        code = 's = "# repro-lint: disable=DET002"\n'
        assert lint_source(code, "x.py", STRICT).findings == []


# ---------------------------------------------------------------------------
# Framework: parse errors, baseline
# ---------------------------------------------------------------------------


def test_parse_error_is_a_finding():
    result = lint_source("def broken(:\n", "bad.py", STRICT)
    assert [f.rule for f in result.findings] == [PARSE_ERROR]


class TestBaseline:
    def _findings(self):
        code = "import time\nt = time.time()\nu = time.time()\n"
        return lint_source(code, "mod.py", STRICT).findings

    def test_round_trip(self, tmp_path):
        findings = self._findings()
        baseline = Baseline.from_findings(findings)
        path = tmp_path / "baseline.json"
        baseline.write(path)
        loaded = Baseline.load(path)
        assert loaded.entries == baseline.entries
        assert len(loaded) == 2

    def test_written_file_is_deterministic(self, tmp_path):
        baseline = Baseline.from_findings(self._findings())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        baseline.write(a)
        baseline.write(b)
        assert a.read_text() == b.read_text()

    def test_apply_consumes_counts(self):
        findings = self._findings()
        baseline = Baseline.from_findings(findings[:1])  # budget of 1
        new, baselined = baseline.apply(findings)
        assert baselined == 1
        assert len(new) == 1  # second identical finding is new

    def test_missing_file_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "nope.json")
        assert len(baseline) == 0
        new, baselined = baseline.apply(self._findings())
        assert (len(new), baselined) == (2, 0)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99, "findings": []}')
        with pytest.raises(ValueError):
            Baseline.load(path)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    code = main(args, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestCli:
    @pytest.fixture
    def project(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "dirty.py").write_text(
            "import random\nrng = random.Random()\n"
        )
        (tmp_path / "pkg" / "clean.py").write_text(
            "import random\nrng = random.Random(7)\n"
        )
        return tmp_path

    def test_findings_exit_1(self, project):
        code, out, _ = run_cli([str(project / "pkg")])
        assert code == 1
        assert "DET001" in out

    def test_clean_exit_0(self, project):
        code, out, _ = run_cli([str(project / "pkg" / "clean.py")])
        assert code == 0
        assert "clean" in out

    def test_write_baseline_then_clean(self, project):
        baseline = project / "baseline.json"
        code, _, _ = run_cli(
            [str(project / "pkg"), "--baseline", str(baseline),
             "--write-baseline"]
        )
        assert code == 0 and baseline.exists()
        code, out, _ = run_cli(
            [str(project / "pkg"), "--baseline", str(baseline)]
        )
        assert code == 0
        assert "1 baselined" in out

    def test_json_format(self, project):
        code, out, _ = run_cli(
            [str(project / "pkg"), "--format", "json"]
        )
        assert code == 1
        document = json.loads(out)
        assert document["clean"] is False
        assert document["counts"] == {"DET001": 1}
        assert document["findings"][0]["rule"] == "DET001"

    def test_select_and_ignore(self, project):
        code, _, _ = run_cli(
            [str(project / "pkg"), "--select", "DET002"]
        )
        assert code == 0
        code, _, _ = run_cli(
            [str(project / "pkg"), "--ignore", "DET001"]
        )
        assert code == 0

    def test_unknown_rule_exit_2(self, project):
        code, _, err = run_cli([str(project), "--select", "NOPE99"])
        assert code == 2
        assert "unknown rule" in err

    def test_missing_path_exit_2(self, tmp_path):
        code, _, err = run_cli([str(tmp_path / "missing")])
        assert code == 2
        assert "no such path" in err

    def test_list_rules(self):
        code, out, _ = run_cli(["--list-rules"])
        assert code == 0
        for rule_id in RULES:
            assert rule_id in out
        for rule_id in WHOLE_PROGRAM_RULES:
            assert rule_id in out

    def test_family_prefix_select(self, project):
        # "DET" selects the whole family; the fixture violation is DET001.
        code, out, _ = run_cli([str(project / "pkg"), "--select", "DET"])
        assert code == 1
        assert "DET001" in out
        # Selecting a different family runs zero matching rules here.
        code, _, _ = run_cli([str(project / "pkg"), "--select", "MUT"])
        assert code == 0

    def test_family_prefix_ignore(self, project):
        code, _, _ = run_cli([str(project / "pkg"), "--ignore", "DET"])
        assert code == 0

    def test_family_prefix_validation(self, project):
        # A prefix matching nothing is rejected like an unknown id.
        code, _, err = run_cli([str(project / "pkg"), "--select", "ZZZ"])
        assert code == 2
        assert "unknown rule" in err

    @pytest.mark.parametrize("rule_id", ["DET001", "XMOD001", "CACHE001"])
    def test_explain_prints_rationale_and_example(self, rule_id):
        code, out, _ = run_cli(["--explain", rule_id])
        assert code == 0
        assert rule_id in out
        assert "Example:" in out
        # The rationale is the rule's docstring: multi-line prose.
        assert len(out.strip().splitlines()) > 3

    def test_explain_every_registered_rule(self):
        for rule_id in list(RULES) + list(WHOLE_PROGRAM_RULES):
            code, out, _ = run_cli(["--explain", rule_id])
            assert code == 0, rule_id
            assert "Example:" in out, rule_id

    def test_explain_unknown_rule_exit_2(self):
        code, _, err = run_cli(["--explain", "NOPE99"])
        assert code == 2
        assert "unknown rule" in err

    def test_unused_suppression_fails_run(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("x = 1  # repro-lint: disable=DET002\n")
        code, out, _ = run_cli([str(target)])
        assert code == 1
        assert UNUSED_SUPPRESSION in out


# ---------------------------------------------------------------------------
# Meta: this repository obeys its own contract
# ---------------------------------------------------------------------------


class TestRepoIsClean:
    def test_committed_baseline_is_empty(self):
        data = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
        assert data["findings"] == []

    def test_src_and_scripts_are_lint_clean(self):
        result = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "scripts"],
            DEFAULT_CONFIG,
            root=REPO_ROOT,
        )
        formatted = "\n".join(f.format() for f in result.findings)
        assert result.clean, f"lint findings in tree:\n{formatted}"
        assert result.files >= 90

    def test_seeded_violation_in_src_would_be_caught(self, tmp_path):
        # The acceptance scenario: a random.Random() slips into a
        # pipeline module -> CI's `make lint` run must fail.
        bad = tmp_path / "src" / "repro" / "sneaky.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n_RNG = random.Random()\n")
        result = lint_paths([tmp_path / "src"], DEFAULT_CONFIG, root=tmp_path)
        assert [f.rule for f in result.findings] == ["DET001"]

    def test_report_is_deterministic(self):
        runs = [
            lint_paths(
                [REPO_ROOT / "src" / "repro" / "crawler"],
                DEFAULT_CONFIG,
                root=REPO_ROOT,
            )
            for _ in range(2)
        ]
        assert (
            [f.format() for f in runs[0].findings]
            == [f.format() for f in runs[1].findings]
        )
        assert runs[0].suppressed == runs[1].suppressed
