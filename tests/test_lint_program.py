"""Whole-program analyzer (phase 2) tests.

Covers, per the contract of :mod:`repro.lint`:

* the phase-1 index: module naming, normalized digests (docstring/
  comment/position-invariant, body-sensitive);
* XMOD cross-module taint with fixture packages -- a known taint chain
  caught with its full call chain, and sanctioned variants (same-line
  DET suppression at the source, sorted() wrapping, barrier modules);
* RACE worker-reachability -- a seeded worker-reachable global write
  and a class-attribute write, plus the justified-suppression path;
* the CACHE001/CACHE002 lock workflow on a fixture project and the
  mutation test on the real tree: edit a fingerprinted stage's code
  without bumping CODE_VERSIONS and the guard must fail, naming the
  stage and the changed module;
* PARSE001 hardening (a broken file is a finding, not a crash);
* repo-root-relative path resolution: the CLI gives identical results
  from any cwd.
"""

from __future__ import annotations

import ast
import io
import json
import shutil
from pathlib import Path

import pytest

from repro.lint import DEFAULT_CONFIG, LintConfig, lint_paths
from repro.lint.cli import find_repo_root, main
from repro.lint.engine import PARSE_ERROR, analyze_paths
from repro.lint.index import Program, module_name_for, normalized_digest
from repro.lint.rules.cachecheck import LOCK_FILENAME, build_lock

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Config whose XMOD entry points / barriers match the fixture trees.
FIXTURE_CONFIG = LintConfig(
    entry_points=("pipeline.Study.*",),
    barrier_modules=("obs", "obs.*"),
)


def run_cli(args, cwd=None, monkeypatch=None):
    if cwd is not None:
        monkeypatch.chdir(cwd)
    out, err = io.StringIO(), io.StringIO()
    code = main(args, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def rules_of(result):
    return [f.rule for f in result.findings]


# ---------------------------------------------------------------------------
# Phase-1 index: naming and normalized digests
# ---------------------------------------------------------------------------


class TestModuleNaming:
    def test_src_prefix_stripped(self):
        assert module_name_for("src/repro/lint/engine.py") == (
            "repro.lint.engine"
        )

    def test_init_names_the_package(self):
        assert module_name_for("src/repro/lint/__init__.py") == "repro.lint"

    def test_scripts_keep_their_root(self):
        assert module_name_for("scripts/cache_smoke.py") == (
            "scripts.cache_smoke"
        )


class TestNormalizedDigest:
    BODY = "def f(x):\n    return x + 1\n"

    def digest(self, source):
        return normalized_digest(ast.parse(source))

    def test_docstrings_do_not_count(self):
        with_doc = 'def f(x):\n    """Doc."""\n    return x + 1\n'
        assert self.digest(self.BODY) == self.digest(with_doc)

    def test_comments_and_positions_do_not_count(self):
        shifted = "\n\n# a comment\ndef f(x):\n    return x + 1\n"
        assert self.digest(self.BODY) == self.digest(shifted)

    def test_code_changes_count(self):
        changed = "def f(x):\n    return x + 2\n"
        assert self.digest(self.BODY) != self.digest(changed)

    def test_module_docstring_does_not_count(self):
        assert self.digest('"""Mod."""\n' + self.BODY) == self.digest(
            self.BODY
        )


# ---------------------------------------------------------------------------
# Fixture builders
# ---------------------------------------------------------------------------


def write_tree(root: Path, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


def taint_fixture(tmp_path: Path, helper_source: str) -> Path:
    """A two-module package with a Study entry point calling a helper."""
    return write_tree(
        tmp_path,
        {
            "pipeline.py": (
                "import helpers\n\n\n"
                "class Study:\n"
                "    def adoption_series(self, store):\n"
                "        return helpers.summarize(store)\n"
            ),
            "helpers.py": helper_source,
        },
    )


# ---------------------------------------------------------------------------
# XMOD: cross-module taint
# ---------------------------------------------------------------------------


class TestCrossModuleTaint:
    def test_value_taint_caught_with_chain(self, tmp_path):
        root = taint_fixture(
            tmp_path,
            "import time\n\n\n"
            "def summarize(store):\n"
            "    return stamp()\n\n\n"
            "def stamp():\n"
            "    return time.time()\n",
        )
        result = lint_paths([root], FIXTURE_CONFIG, root=root)
        assert "XMOD001" in rules_of(result)
        finding = next(f for f in result.findings if f.rule == "XMOD001")
        assert finding.path == "helpers.py"
        assert "time.time()" in finding.message
        # The full explanatory chain, entry point first.
        assert (
            "pipeline.Study.adoption_series -> helpers.summarize "
            "-> helpers.stamp" in finding.message
        )

    def test_order_taint_caught(self, tmp_path):
        root = taint_fixture(
            tmp_path,
            "import os\n\n\n"
            "def summarize(store):\n"
            "    return list(os.listdir(store))\n",
        )
        result = lint_paths([root], FIXTURE_CONFIG, root=root)
        assert "XMOD002" in rules_of(result)

    def test_det_suppression_at_source_sanctions_the_chain(self, tmp_path):
        root = taint_fixture(
            tmp_path,
            "import time\n\n\n"
            "def summarize(store):\n"
            "    return stamp()\n\n\n"
            "def stamp():\n"
            "    # timing metadata only, never folded into results\n"
            "    return time.time()  # repro-lint: disable=DET002\n",
        )
        result = lint_paths([root], FIXTURE_CONFIG, root=root)
        assert rules_of(result) == []  # neither DET002 nor XMOD001

    def test_xmod_suppression_at_source_line(self, tmp_path):
        # Suppressing only XMOD001 keeps the per-file DET002 finding:
        # phase-2 findings go through the same directive machinery.
        root = taint_fixture(
            tmp_path,
            "import time\n\n\n"
            "def summarize(store):\n"
            "    return stamp()\n\n\n"
            "def stamp():\n"
            "    return time.time()  # repro-lint: disable=XMOD001\n",
        )
        result = lint_paths([root], FIXTURE_CONFIG, root=root)
        assert rules_of(result) == ["DET002"]
        assert result.suppressed == 1

    def test_sorted_wrapping_sanctions_order_source(self, tmp_path):
        root = taint_fixture(
            tmp_path,
            "import os\n\n\n"
            "def summarize(store):\n"
            "    return sorted(os.listdir(store))\n",
        )
        result = lint_paths([root], FIXTURE_CONFIG, root=root)
        assert "XMOD002" not in rules_of(result)

    def test_barrier_module_does_not_seed(self, tmp_path):
        # The same clock read inside a barrier module is sanctioned.
        root = write_tree(
            tmp_path,
            {
                "pipeline.py": (
                    "import obs\n\n\n"
                    "class Study:\n"
                    "    def adoption_series(self, store):\n"
                    "        return obs.stamp()\n"
                ),
                "obs.py": (
                    "import time\n\n\n"
                    "def stamp():\n"
                    "    return time.time()  # repro-lint: disable=DET002\n"
                ),
            },
        )
        result = lint_paths([root], FIXTURE_CONFIG, root=root)
        assert "XMOD001" not in rules_of(result)

    def test_unreachable_source_not_flagged(self, tmp_path):
        # A clock read nothing on an entry path calls: DET002 only.
        root = taint_fixture(
            tmp_path,
            "import time\n\n\n"
            "def summarize(store):\n"
            "    return len(store)\n\n\n"
            "def unrelated():\n"
            "    return time.time()\n",
        )
        result = lint_paths([root], FIXTURE_CONFIG, root=root)
        assert rules_of(result) == ["DET002"]


# ---------------------------------------------------------------------------
# RACE: worker-reachable shared-state writes
# ---------------------------------------------------------------------------


def race_fixture(tmp_path: Path, worker_body: str, extra: str = "") -> Path:
    return write_tree(
        tmp_path,
        {
            "executor.py": (
                "class Executor:\n"
                "    def map_shards(self, fn, payloads):\n"
                "        return [fn(p) for p in payloads]\n"
            ),
            "driver.py": (
                "from executor import Executor\n\n"
                "_SEEN = {}\n\n\n"
                f"{extra}"
                "def worker(task):\n"
                f"{worker_body}"
                "    return task\n\n\n"
                "def run_all(tasks):\n"
                "    ex = Executor()\n"
                "    return ex.map_shards(worker, tasks)\n"
            ),
        },
    )


class TestWorkerSharedWrites:
    def test_global_write_caught_with_chain(self, tmp_path):
        root = race_fixture(tmp_path, "    _SEEN[task] = 1\n")
        result = lint_paths([root], DEFAULT_CONFIG, root=root)
        assert rules_of(result) == ["RACE001"]
        finding = result.findings[0]
        assert finding.path == "driver.py"
        assert "_SEEN" in finding.message
        assert "driver.worker" in finding.message
        assert "spawned by driver.run_all" in finding.message

    def test_global_statement_rebinding_caught(self, tmp_path):
        root = race_fixture(
            tmp_path,
            "    global _SEEN\n    _SEEN = {task: 1}\n",
        )
        result = lint_paths([root], DEFAULT_CONFIG, root=root)
        assert rules_of(result) == ["RACE001"]

    def test_transitive_write_caught(self, tmp_path):
        root = race_fixture(
            tmp_path,
            "    note(task)\n",
            extra="def note(task):\n    _SEEN[task] = 1\n\n\n",
        )
        result = lint_paths([root], DEFAULT_CONFIG, root=root)
        assert rules_of(result) == ["RACE001"]
        assert "driver.worker -> driver.note" in result.findings[0].message

    def test_mutating_method_call_caught(self, tmp_path):
        root = race_fixture(tmp_path, "    _SEEN.update({task: 1})\n")
        result = lint_paths([root], DEFAULT_CONFIG, root=root)
        assert rules_of(result) == ["RACE001"]

    def test_class_attribute_write_is_race002(self, tmp_path):
        root = race_fixture(
            tmp_path,
            "    Tally.count += 1\n",
            extra="class Tally:\n    count = 0\n\n\n",
        )
        result = lint_paths([root], DEFAULT_CONFIG, root=root)
        assert rules_of(result) == ["RACE002"]
        assert "class attribute 'count'" in result.findings[0].message

    def test_local_and_instance_state_not_flagged(self, tmp_path):
        root = race_fixture(
            tmp_path,
            "    seen = {}\n    seen[task] = 1\n",
        )
        result = lint_paths([root], DEFAULT_CONFIG, root=root)
        assert rules_of(result) == []

    def test_non_worker_write_not_flagged(self, tmp_path):
        # The same write outside any worker path is out of scope.
        root = write_tree(
            tmp_path,
            {
                "driver.py": (
                    "_SEEN = {}\n\n\n"
                    "def not_a_worker(task):\n"
                    "    _SEEN[task] = 1\n"
                ),
            },
        )
        result = lint_paths([root], DEFAULT_CONFIG, root=root)
        assert rules_of(result) == []

    def test_justified_suppression_is_honored(self, tmp_path):
        root = race_fixture(
            tmp_path,
            "    _SEEN[task] = 1  # repro-lint: disable=RACE001\n",
        )
        result = lint_paths([root], DEFAULT_CONFIG, root=root)
        assert rules_of(result) == []
        assert result.suppressed == 1


# ---------------------------------------------------------------------------
# CACHE: the staleness guard and the lock workflow
# ---------------------------------------------------------------------------


def cache_project(tmp_path: Path) -> Path:
    return write_tree(
        tmp_path,
        {
            "pyproject.toml": "[project]\nname = 'fixture'\n",
            "src/cachemod.py": (
                'CODE_VERSIONS = {"stage-a": 1}\n'
                'STAGE_CLOSURES = {"stage-a": ["stagea"]}\n'
            ),
            "src/stagea.py": "def compute(x):\n    return x + 1\n",
        },
    )


class TestCacheGuard:
    def lint(self, project):
        return lint_paths(
            [project / "src"], DEFAULT_CONFIG, root=project
        )

    def update_lock(self, project, monkeypatch):
        code, out, err = run_cli(
            ["src", "--update-lock"], cwd=project, monkeypatch=monkeypatch
        )
        assert code == 0, err
        return project / LOCK_FILENAME

    def test_missing_lock_is_cache002(self, tmp_path):
        project = cache_project(tmp_path)
        result = self.lint(project)
        assert rules_of(result) == ["CACHE002"]
        assert "--update-lock" in result.findings[0].message

    def test_update_lock_then_clean(self, tmp_path, monkeypatch):
        project = cache_project(tmp_path)
        lock = self.update_lock(project, monkeypatch)
        document = json.loads(lock.read_text())
        assert document["stages"]["stage-a"]["code_version"] == 1
        assert "stagea" in document["stages"]["stage-a"]["modules"]
        assert rules_of(self.lint(project)) == []

    def test_editing_stage_code_without_bump_is_cache001(
        self, tmp_path, monkeypatch
    ):
        project = cache_project(tmp_path)
        self.update_lock(project, monkeypatch)
        (project / "src" / "stagea.py").write_text(
            "def compute(x):\n    return x + 2\n"
        )
        result = self.lint(project)
        assert rules_of(result) == ["CACHE001"]
        message = result.findings[0].message
        assert "stage-a" in message and "stagea" in message
        assert result.findings[0].path == "src/cachemod.py"

    def test_docstring_edit_does_not_trip_the_guard(
        self, tmp_path, monkeypatch
    ):
        project = cache_project(tmp_path)
        self.update_lock(project, monkeypatch)
        (project / "src" / "stagea.py").write_text(
            '"""Now documented."""\n\n\n'
            "def compute(x):\n"
            "    # with a comment\n"
            "    return x + 1\n"
        )
        assert rules_of(self.lint(project)) == []

    def test_bump_without_update_lock_is_cache002(
        self, tmp_path, monkeypatch
    ):
        project = cache_project(tmp_path)
        self.update_lock(project, monkeypatch)
        (project / "src" / "cachemod.py").write_text(
            'CODE_VERSIONS = {"stage-a": 2}\n'
            'STAGE_CLOSURES = {"stage-a": ["stagea"]}\n'
        )
        result = self.lint(project)
        assert rules_of(result) == ["CACHE002"]
        assert "--update-lock" in result.findings[0].message
        # ...and --update-lock resolves it.
        self.update_lock(project, monkeypatch)
        assert rules_of(self.lint(project)) == []

    def test_undeclared_stage_is_cache001(self, tmp_path, monkeypatch):
        project = cache_project(tmp_path)
        self.update_lock(project, monkeypatch)
        (project / "src" / "cachemod.py").write_text(
            'CODE_VERSIONS = {"stage-a": 1, "stage-b": 1}\n'
            'STAGE_CLOSURES = {"stage-a": ["stagea"]}\n'
        )
        result = self.lint(project)
        assert "CACHE001" in rules_of(result)
        assert any("stage-b" in f.message for f in result.findings)


# ---------------------------------------------------------------------------
# The real tree: mutation test against the committed lock
# ---------------------------------------------------------------------------


def copy_repo_tree(tmp_path: Path) -> Path:
    clone = tmp_path / "clone"
    clone.mkdir()
    shutil.copytree(
        REPO_ROOT / "src",
        clone / "src",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(REPO_ROOT / "pyproject.toml", clone / "pyproject.toml")
    shutil.copy(REPO_ROOT / LOCK_FILENAME, clone / LOCK_FILENAME)
    return clone


class TestRealTreeMutation:
    def test_committed_lock_matches_head(self):
        result = lint_paths(
            [REPO_ROOT / "src"],
            LintConfig(select=frozenset({"CACHE"})),
            root=REPO_ROOT,
        )
        formatted = "\n".join(f.format() for f in result.findings)
        assert result.clean, f"stale cache lock:\n{formatted}"

    def test_editing_platform_without_bump_fails_guard(self, tmp_path):
        clone = copy_repo_tree(tmp_path)
        platform = clone / "src" / "repro" / "crawler" / "platform.py"
        platform.write_text(
            platform.read_text() + "\n\n_MUTATION_PROBE = 1\n"
        )
        result = lint_paths(
            [clone / "src"],
            LintConfig(select=frozenset({"CACHE"})),
            root=clone,
        )
        cache001 = [f for f in result.findings if f.rule == "CACHE001"]
        assert cache001, "mutation escaped the staleness guard"
        # The finding names the stage and the changed module.
        assert any(
            "social-crawl" in f.message
            and "repro.crawler.platform" in f.message
            for f in cache001
        )

    def test_editing_package_data_without_bump_fails_guard(self, tmp_path):
        """Package data decides results like code does: without the
        ``co.uk`` rule the PSL snapshot maps ``shop.example.co.uk`` to
        ``co.uk``, which changes the rows of every stage that resolves
        registrable domains."""
        clone = copy_repo_tree(tmp_path)
        snapshot = clone / "src" / "repro" / "datasets" / "psl_snapshot.dat"
        rules = snapshot.read_text(encoding="utf-8").splitlines()
        assert "co.uk" in rules
        snapshot.write_text(
            "\n".join(rule for rule in rules if rule != "co.uk") + "\n",
            encoding="utf-8",
        )
        result = lint_paths(
            [clone / "src"],
            LintConfig(select=frozenset({"CACHE"})),
            root=clone,
        )
        flagged = {
            stage
            for f in result.findings
            if f.rule == "CACHE001" and "repro.datasets" in f.message
            for stage in ("social-crawl", "vantage", "marketshare")
            if f"'{stage}'" in f.message
        }
        assert flagged == {"social-crawl", "vantage", "marketshare"}

    @pytest.fixture(scope="class")
    def src_program(self) -> Program:
        _, program, _ = analyze_paths(
            [REPO_ROOT / "src"], DEFAULT_CONFIG, root=REPO_ROOT
        )
        return program

    @staticmethod
    def stages_changed_by(program: Program, module: str) -> set:
        """The stages whose closure digest changes when *module*'s
        digest is perturbed in the analyzed program."""
        before, problems = build_lock(program)
        assert problems == []
        info = program.modules[module]
        digest, info.digest = info.digest, "perturbed"
        try:
            after, _ = build_lock(program)
        finally:
            info.digest = digest
        return {
            stage
            for stage, entry in before["stages"].items()
            if after["stages"][stage]["digest"] != entry["digest"]
        }

    @pytest.mark.parametrize(
        "module", ["repro.web.adoption", "repro.web.worldgen"]
    )
    def test_site_draws_are_in_every_drawing_closure(
        self, src_program, module
    ):
        """Every site is drawn by repro.web.worldgen, its CMP history by
        repro.web.adoption, so a change in either must change each
        stage whose result depends on site draws: the crawl, Table 1
        (its probes resolve hosts to sites) and Fig 5."""
        assert {
            "social-crawl", "vantage", "marketshare"
        } <= self.stages_changed_by(src_program, module)

    @pytest.mark.parametrize(
        "module, stages",
        [
            ("repro.faults.schedule", {"social-crawl", "vantage"}),
            ("repro.faults.inject", {"social-crawl", "vantage"}),
            ("repro.faults.retry", {"social-crawl", "vantage"}),
            (
                "repro.det",
                {"social-crawl", "vantage", "marketshare", "toplist"},
            ),
            ("repro.crawler.browser", {"social-crawl", "vantage"}),
        ],
    )
    def test_fault_and_visit_modules_are_in_their_closures(
        self, src_program, module, stages
    ):
        """Each of these decides cached rows: the schedule picks which
        crawls (and probes) fail, run_with_retries and RetryPolicy how
        many retries a row gets, repro.det keys every visit draw (and
        its first_randoms rolls the site classes Umbrella boosts, so it
        shapes the Tranco order) and browser.FAULT_STATUS sets a
        faulted row's status. A change in any of them must change the
        digest of every stage it feeds."""
        assert stages <= self.stages_changed_by(src_program, module)

    @pytest.mark.parametrize(
        "module", ["repro.toplist.providers", "repro.toplist.tranco"]
    )
    def test_toplist_modules_are_in_every_closure_that_reads_the_order(
        self, src_program, module
    ):
        """The Tranco order picks Table 1's crawled domains and Fig 5's
        toplist prefixes. Raising Umbrella's infrastructure boost from
        8 to 9 changes the Fig-5 payload, and 100 changes Table 1, so
        a change to a provider or to the aggregation must change the
        digest of vantage and marketshare as well as toplist."""
        assert {"vantage", "marketshare", "toplist"} <= self.stages_changed_by(
            src_program, module
        )

    @pytest.mark.parametrize(
        "module, stages",
        [
            ("repro.net.url", {"social-crawl", "vantage"}),
            ("repro.net.psl", {"social-crawl", "vantage"}),
            (
                "repro.cmps.base",
                {"social-crawl", "vantage", "marketshare"},
            ),
            ("repro.detect.fingerprints", {"social-crawl", "vantage"}),
            (
                "repro.datasets",
                {"social-crawl", "vantage", "marketshare"},
            ),
            ("repro.valueclass", {"social-crawl", "vantage"}),
            (
                "repro.core.pipeline",
                {
                    "social-crawl", "stream-checkpoint", "vantage",
                    "adoption", "marketshare", "toplist",
                },
            ),
        ],
    )
    def test_row_deciding_modules_are_in_their_closures(
        self, src_program, module, stages
    ):
        """Each of these decides cached rows: URL.h64 keys every visit
        draw (and repro.net.probe builds URLs), the PSL picks the
        registrable domain rows are deduped and stored under, the CMP
        registry's launch dates and EU-TLD shares shape site histories,
        FINGERPRINTS attributes a capture to its CMP, STUDY_END bounds
        the CMP drop windows, repro.valueclass builds the URL, site
        and dialog classes (their pickled form travels between crawl
        processes), and Study.platform() seeds the share stream and
        the crawl of both the batch run and the follow engine, while
        Study also decides the toplist crawler's faults and retries,
        the adoption restrict set and the world the Tranco order and
        Fig 5 are drawn from."""
        assert stages <= self.stages_changed_by(src_program, module)


# ---------------------------------------------------------------------------
# PARSE001 hardening
# ---------------------------------------------------------------------------


class TestParseHardening:
    def test_broken_file_is_a_finding_not_a_crash(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "broken.py": "def f(:\n    pass\n",
                "dirty.py": "import random\nrng = random.Random()\n",
            },
        )
        result = lint_paths([root], DEFAULT_CONFIG, root=root)
        assert sorted(rules_of(result)) == ["DET001", PARSE_ERROR]
        parse = next(f for f in result.findings if f.rule == PARSE_ERROR)
        assert parse.path == "broken.py"
        assert parse.line >= 1
        assert "does not parse" in parse.message

    def test_broken_file_excluded_from_phase2(self, tmp_path):
        root = write_tree(tmp_path, {"broken.py": "def f(:\n"})
        result, program, _ = analyze_paths(
            [root], DEFAULT_CONFIG, root=root
        )
        assert rules_of(result) == [PARSE_ERROR]
        assert program.modules == {}


# ---------------------------------------------------------------------------
# Repo-root-relative resolution: identical results from any cwd
# ---------------------------------------------------------------------------


class TestCwdIndependence:
    def test_repo_root_found_from_anywhere(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert find_repo_root() == REPO_ROOT

    def test_cli_from_tmp_cwd_matches_repo_cwd(self, tmp_path, monkeypatch):
        code_repo, out_repo, _ = run_cli(
            [], cwd=REPO_ROOT, monkeypatch=monkeypatch
        )
        code_tmp, out_tmp, _ = run_cli(
            [], cwd=tmp_path, monkeypatch=monkeypatch
        )
        assert (code_repo, out_repo) == (code_tmp, out_tmp)
        assert code_repo == 0

    def test_phase_timings_are_recorded(self):
        result, _, _ = analyze_paths(
            [REPO_ROOT / "src" / "repro" / "lint"],
            DEFAULT_CONFIG,
            root=REPO_ROOT,
        )
        assert set(result.timings) == {"phase1", "phase2"}
        assert all(value >= 0.0 for value in result.timings.values())


# ---------------------------------------------------------------------------
# Program-level odds and ends
# ---------------------------------------------------------------------------


class TestProgramResolution:
    def test_build_lock_round_trip(self, tmp_path):
        project = cache_project(tmp_path)
        _, program, _ = analyze_paths(
            [project / "src"], DEFAULT_CONFIG, root=project
        )
        lock, problems = build_lock(program)
        assert problems == []
        assert set(lock["stages"]) == {"stage-a"}
        # Rebuilding from an identical tree gives identical digests.
        _, program2, _ = analyze_paths(
            [project / "src"], DEFAULT_CONFIG, root=project
        )
        lock2, _ = build_lock(program2)
        assert lock == lock2

    def test_worker_entries_resolved_on_real_tree(self):
        _, program, _ = analyze_paths(
            [REPO_ROOT / "src"], DEFAULT_CONFIG, root=REPO_ROOT
        )
        workers = {worker for worker, _ in program.worker_entries()}
        assert "repro.crawler.platform.crawl_social_shard" in workers

    def test_method_resolution_through_instance_attr(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "engine.py": (
                    "import time\n\n\n"
                    "class Clock:\n"
                    "    def read(self):\n"
                    "        return time.time()\n\n\n"
                    "class Runner:\n"
                    "    def __init__(self):\n"
                    "        self.clock = Clock()\n\n"
                    "    def tick(self):\n"
                    "        return self.clock.read()\n"
                ),
            },
        )
        config = LintConfig(entry_points=("engine.Runner.tick",))
        result = lint_paths([root], config, root=root)
        assert "XMOD001" in rules_of(result)
        finding = next(f for f in result.findings if f.rule == "XMOD001")
        assert (
            "engine.Runner.tick -> engine.Clock.read" in finding.message
        )
