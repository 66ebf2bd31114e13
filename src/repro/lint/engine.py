"""The two-phase analysis engine.

**Phase 1** walks each file's AST exactly once, offering every node to
every enabled per-file rule, and simultaneously builds the module's
whole-program index (:mod:`repro.lint.index`). **Phase 2** merges the
indexes into a :class:`~repro.lint.index.Program` and runs the
whole-program rules (XMOD/RACE/CACHE) over it.

Inline suppressions are applied *after* both phases: a
``# repro-lint: disable=RULE`` directive silences phase-2 findings
anchored on its line exactly as it does per-file ones, and SUP001
(unused suppression) is only decided once every finding is known.

:func:`lint_source` checks one module with the per-file rules only --
there is no program to analyze for a lone string. :func:`lint_paths`
runs both phases. Findings are plain data -- ``path:line:col RULE
message`` -- so reporters and the baseline treat both phases
uniformly. A file that does not parse yields a ``PARSE001`` finding
naming its path and line instead of aborting the run.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.index import (
    ModuleIndex,
    Program,
    ProgramContext,
    build_module_index,
    with_package_data,
)
from repro.lint.rules import RULES, WHOLE_PROGRAM_RULES, Rule, RuleContext
from repro.lint.suppress import (
    ALL,
    UNUSED_SUPPRESSION,
    Suppression,
    parse_suppressions,
)

#: Pseudo-rule id for files that do not parse. Always enabled: a file
#: the analyzer cannot read is a finding, never a crash.
PARSE_ERROR = "PARSE001"


@dataclass(frozen=True, order=True)
class Finding:
    """One lint hit, formatted as ``path:line:col RULE message``."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass
class LintResult:
    """Aggregated outcome of a lint run."""

    findings: List[Finding] = field(default_factory=list)
    #: Findings silenced by an inline suppression.
    suppressed: int = 0
    #: Number of files checked.
    files: int = 0
    #: Wall-time per phase (``"phase1"``/``"phase2"``), seconds.
    timings: Dict[str, float] = field(default_factory=dict)

    def extend(self, other: "LintResult") -> None:
        self.findings.extend(other.findings)
        self.suppressed += other.suppressed
        self.files += other.files
        for key, value in other.timings.items():
            self.timings[key] = self.timings.get(key, 0.0) + value

    def sorted_findings(self) -> List[Finding]:
        return sorted(self.findings)

    @property
    def clean(self) -> bool:
        return not self.findings


class _OnePassVisitor(ast.NodeVisitor):
    """Walks the tree once, maintaining the ancestor stack for rules."""

    def __init__(self, path: str, rules: List[Rule]):
        self.path = path
        self.rules = rules
        self._stack: List[ast.AST] = []
        self.raw: List[Tuple[ast.AST, str, str]] = []  # node, rule id, msg

    def visit(self, node: ast.AST) -> None:
        ctx = RuleContext(self.path, tuple(self._stack))
        for rule in self.rules:
            for offender, message in rule.check(node, ctx):
                self.raw.append((offender, rule.id, message))
        self._stack.append(node)
        try:
            self.generic_visit(node)
        finally:
            self._stack.pop()


def _position(node: ast.AST) -> Tuple[int, int]:
    line = getattr(node, "lineno", 1)
    col = getattr(node, "col_offset", 0) + 1  # 1-based like compilers
    return line, col


#: A finding awaiting suppression resolution: (line, col, rule, message).
_Pending = Tuple[int, int, str, str]


@dataclass
class FileAnalysis:
    """Phase-1 output for one file, before suppressions are applied."""

    path: str
    pending: List[_Pending] = field(default_factory=list)
    suppressions: Dict[int, Suppression] = field(default_factory=dict)
    index: Optional[ModuleIndex] = None
    parse_failed: bool = False


def _analyze_file(
    source: str,
    path: str,
    config: LintConfig,
    build_index: bool = True,
) -> FileAnalysis:
    """Run phase 1 on one module: per-file rules plus the index."""
    analysis = FileAnalysis(path=path)
    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError) as exc:
        line = getattr(exc, "lineno", 1) or 1
        col = getattr(exc, "offset", 1) or 1
        msg = exc.msg if isinstance(exc, SyntaxError) else str(exc)
        analysis.pending.append(
            (line, col, PARSE_ERROR, f"file does not parse: {msg}")
        )
        analysis.parse_failed = True
        return analysis

    analysis.suppressions = parse_suppressions(source)

    rules = [
        rule
        for rule_id, rule in RULES.items()
        if config.rule_enabled(rule_id)
        and not config.rule_allows_path(rule_id, path)
    ]
    visitor = _OnePassVisitor(path, rules)
    visitor.visit(tree)
    for node, rule_id, message in visitor.raw:
        line, col = _position(node)
        analysis.pending.append((line, col, rule_id, message))

    if build_index:
        analysis.index = build_module_index(
            tree, path, analysis.suppressions, config.spawn_methods
        )
    return analysis


def _resolve_file(
    analysis: FileAnalysis, result: LintResult, config: LintConfig
) -> None:
    """Apply suppressions to one file's pending findings, emit SUP001."""
    for line, col, rule_id, message in sorted(analysis.pending):
        directive = analysis.suppressions.get(line)
        if (
            directive is not None
            and rule_id != PARSE_ERROR
            and directive.covers(rule_id)
        ):
            directive.mark_used(rule_id)
            result.suppressed += 1
            continue
        result.findings.append(
            Finding(analysis.path, line, col, rule_id, message)
        )
    result.findings.extend(
        _unused_suppressions(analysis.path, analysis.suppressions, config)
    )


def lint_source(
    source: str,
    path: str,
    config: LintConfig = DEFAULT_CONFIG,
) -> LintResult:
    """Lint one module's *source* with the per-file (phase 1) rules.

    *path* is used for reports and allowlists. Whole-program rules
    need the full tree; use :func:`lint_paths` for those.
    """
    result = LintResult(files=1)
    analysis = _analyze_file(source, path, config, build_index=False)
    _resolve_file(analysis, result, config)
    result.findings.sort()
    return result


def _unused_suppressions(
    path: str, suppressions: Dict[int, Suppression], config: LintConfig
) -> Iterable[Finding]:
    for line in sorted(suppressions):
        directive = suppressions[line]
        for rule_id in directive.unused_rules():
            # A directive for a rule this run did not evaluate cannot
            # be judged unused: a --select subset must not flood the
            # report with the other families' (legitimately idle)
            # suppressions.
            if rule_id == ALL:
                if config.select:
                    continue
            elif not config.rule_enabled(rule_id) or config.rule_allows_path(
                rule_id, path
            ):
                continue
            label = "all rules" if rule_id == ALL else rule_id
            yield Finding(
                path,
                line,
                1,
                UNUSED_SUPPRESSION,
                f"suppression for {label} silences nothing on this line; "
                "remove it",
            )


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
        else:
            files.append(path)
    # De-duplicate while keeping a deterministic order.
    seen = set()
    unique: List[Path] = []
    for p in sorted(files):
        key = str(p)
        if key not in seen:
            seen.add(key)
            unique.append(p)
    return unique


def analyze_paths(
    paths: Iterable[Path],
    config: LintConfig = DEFAULT_CONFIG,
    root: Optional[Path] = None,
    lock_path: Optional[Path] = None,
) -> Tuple[LintResult, Program, ProgramContext]:
    """Run both phases over every ``.py`` file under *paths*.

    Reported paths are made relative to *root* (default: the current
    directory) when possible, so reports and baselines are stable
    across checkouts; *root* also anchors the cache-versions lock.
    Returns the result plus the merged program, so callers (the
    ``--update-lock`` writer, tests) can inspect the index.
    """
    root = Path.cwd() if root is None else root
    result = LintResult()
    analyses: Dict[str, FileAnalysis] = {}

    started = time.perf_counter()  # repro-lint: disable=DET002
    for file_path in iter_python_files([Path(p) for p in paths]):
        try:
            rel = file_path.resolve().relative_to(root.resolve())
            report_path = rel.as_posix()
        except ValueError:
            report_path = file_path.as_posix()
        source = file_path.read_text(encoding="utf-8")
        result.files += 1
        analysis = analyses[report_path] = _analyze_file(
            source, report_path, config
        )
        if file_path.name == "__init__.py" and analysis.index is not None:
            analysis.index.digest = with_package_data(
                analysis.index.digest, file_path.parent
            )
    phase1 = time.perf_counter() - started  # repro-lint: disable=DET002

    started = time.perf_counter()  # repro-lint: disable=DET002
    program = Program(
        analysis.index
        for analysis in analyses.values()
        if analysis.index is not None
    )
    ctx = ProgramContext(config=config, root=root, lock_path=lock_path)
    for rule_id, rule in WHOLE_PROGRAM_RULES.items():
        if not config.rule_enabled(rule_id):
            continue
        for path, line, col, message in rule.check_program(program, ctx):
            if config.rule_allows_path(rule_id, path):
                continue
            analysis = analyses.get(path)
            if analysis is None:
                analysis = analyses[path] = FileAnalysis(path=path)
            analysis.pending.append((line, col, rule_id, message))
    phase2 = time.perf_counter() - started  # repro-lint: disable=DET002

    for path in sorted(analyses):
        _resolve_file(analyses[path], result, config)
    result.findings.sort()
    result.timings = {"phase1": phase1, "phase2": phase2}
    return result, program, ctx


def lint_paths(
    paths: Iterable[Path],
    config: LintConfig = DEFAULT_CONFIG,
    root: Optional[Path] = None,
    lock_path: Optional[Path] = None,
) -> LintResult:
    """Lint every ``.py`` file under *paths*, both phases."""
    result, _, _ = analyze_paths(paths, config, root, lock_path)
    return result
