"""Cross-module nondeterminism taint (XMOD001 / XMOD002).

The per-file DET rules flag a nondeterminism source at its own call
site, but a wall-clock read two helpers deep behind an innocuous
function escapes them: the file that calls the helper looks clean.
These rules close that gap. Phase 2 seeds taint at every *unsanctioned*
source recorded in the index -- a source is sanctioned where it stands
when a same-line ``# repro-lint: disable=DET00x`` directive covers it
(a reviewed justification) or, for order sources, when ``sorted()``
consumes it directly -- and walks the project call graph backwards
from the result-affecting entry points (`NetographPlatform.run`,
`ToplistCrawler.run`, the streaming engine, `Study` derivations). Any
entry point that transitively reaches a live source is a determinism
leak, and the finding prints the full call chain so the reviewer can
see *how* the clock or RNG reaches the result.

Barrier modules (``repro.obs*``, ``repro.faults.clock``) neither seed
nor propagate taint: they are the sanctioned homes of wall-clock and
randomness, exporting them only through the injected/seeded interfaces
the determinism contract allows.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Iterator, List, Tuple

from repro.lint.index import Program, ProgramContext
from repro.lint.rules.base import (
    ProgramFinding,
    WholeProgramRule,
    register_whole_program,
)


def _matches_any(name: str, patterns) -> bool:
    return any(fnmatchcase(name, pattern) for pattern in patterns)


def entry_functions(program: Program, ctx: ProgramContext) -> List[str]:
    """Qualnames matching the configured entry-point patterns, sorted."""
    patterns = tuple(getattr(ctx.config, "entry_points", ()) or ())
    return sorted(
        qualname
        for qualname in program.functions
        if _matches_any(qualname, patterns)
    )


def _barrier_predicate(ctx: ProgramContext):
    patterns = tuple(getattr(ctx.config, "barrier_modules", ()) or ())

    def skip(module: str) -> bool:
        return _matches_any(module, patterns)

    return skip


def _taint_findings(
    program: Program, ctx: ProgramContext, kind: str
) -> Iterator[ProgramFinding]:
    entries = entry_functions(program, ctx)
    if not entries:
        return
    skip = _barrier_predicate(ctx)
    parents = program.reachable(entries, skip_module=skip)
    emitted = set()
    for qualname in sorted(parents):
        func = program.functions[qualname]
        if skip(func.module):
            continue
        index = program.modules[func.module]
        for source in func.sources:
            if source.kind != kind or source.sanctioned:
                continue
            key = (index.path, source.line, source.col, source.detail)
            if key in emitted:
                continue
            emitted.add(key)
            chain = program.chain(parents, qualname)
            noun = (
                "nondeterministic value source"
                if kind == "value"
                else "filesystem-order source"
            )
            message = (
                f"{noun} {source.detail} is reachable from entry point "
                f"{chain[0]} via call chain: {' -> '.join(chain)}"
            )
            yield (index.path, source.line, source.col, message)


@register_whole_program
class CrossModuleValueTaintRule(WholeProgramRule):
    """Entry points must not transitively reach wall-clock/RNG/hash.

    The reproduction promises bit-identical results across worker
    counts and re-runs; any unseeded RNG draw, wall-clock read, or salted ``hash()``
    on a path from ``NetographPlatform.run``, ``ToplistCrawler.run``,
    the streaming engine, or a ``Study`` derivation can leak into a
    result. Per-file DET rules only see the source's own file; this
    rule follows the call graph, so a clock read hidden behind two
    helpers in another module is still caught, with the call chain
    printed. Sanction a genuinely result-neutral site with a same-line
    ``# repro-lint: disable=DET002`` (etc.) at the *source*, which both
    silences the per-file rule and stops the taint seed.
    """

    id = "XMOD001"
    summary = (
        "entry point transitively reaches an unsanctioned "
        "nondeterministic value source (wall-clock/RNG/hash)"
    )
    example = (
        "# helpers.py\n"
        "def stamp():\n"
        "    return time.time()     # looks result-neutral...\n"
        "# platform.py\n"
        "def run(self):\n"
        "    row.ts = stamp()       # ...but reaches the result here"
    )

    def check_program(
        self, program: Program, ctx: ProgramContext
    ) -> Iterator[ProgramFinding]:
        return _taint_findings(program, ctx, "value")


@register_whole_program
class CrossModuleOrderTaintRule(WholeProgramRule):
    """Entry points must not transitively depend on filesystem order.

    ``os.listdir`` / ``glob`` / ``Path.iterdir`` return entries in an
    OS-dependent order; iterating them unsorted anywhere on a path from
    a result-affecting entry point makes output ordering depend on the
    machine. The per-file DET004 rule catches direct for-loops over
    these calls; this rule follows call edges so a helper that returns
    an unsorted listing to a distant consumer is caught too. Wrapping
    the producer in ``sorted(...)`` at the source site sanctions it.
    """

    id = "XMOD002"
    summary = (
        "entry point transitively reaches unsorted filesystem-order "
        "iteration"
    )
    example = (
        "# store.py\n"
        "def shard_files(root):\n"
        "    return os.listdir(root)   # OS-dependent order escapes\n"
        "# platform.py: run() -> load_all() -> shard_files()"
    )

    def check_program(
        self, program: Program, ctx: ProgramContext
    ) -> Iterator[ProgramFinding]:
        return _taint_findings(program, ctx, "order")
