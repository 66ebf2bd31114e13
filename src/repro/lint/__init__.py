"""``repro.lint`` -- the two-phase determinism & contract analyzer.

The reproduction rests on a determinism contract: crawl outcomes are
order-independent (per-event RNGs keyed on ``(seed, url, share_time)``)
and bit-identical across re-runs, worker counts and cache hits, with or
without observability. That contract is easy to break silently -- one
``random.random()``, one ``datetime.now()`` two helpers deep, one
worker writing a module global -- and regression tests only catch the
breakage after the fact, on whichever code path they happen to
exercise.

``repro.lint`` enforces the contract *statically*, in two phases:

* **Phase 1** walks each file once, running the per-file rules and
  emitting a per-module index (functions, classes, imports, call
  edges, nondeterminism sources, shared writes, spawn sites, and a
  normalized code digest -- :mod:`repro.lint.index`).
* **Phase 2** merges the indexes into a whole-program view and runs
  the cross-module analyses: call-graph nondeterminism taint (XMOD),
  shard-worker shared-state writes (RACE), and the static
  ``CODE_VERSIONS`` staleness guard against the committed
  ``cache-versions.lock.json`` (CACHE).

Both phases share the suppression (:mod:`repro.lint.suppress`),
baseline (:mod:`repro.lint.baseline`), reporter and exit-code
machinery, and the CLI::

    python -m repro.lint                  # both phases, repo-root paths
    python -m repro.lint --explain XMOD001
    python -m repro.lint --update-lock    # re-record the cache lock

Shipped rules (``--list-rules`` / ``--explain RULE``):

========  ========================================================
DET001    unseeded ``random.Random()`` / module-level ``random.*``
DET002    wall-clock reads outside the explicit allowlist
DET003    built-in ``hash()`` (salted per process for str/bytes)
DET004    unordered iteration (set / ``dict.keys()`` /
          ``os.listdir`` / glob) reaching loops or returns
DET005    ``time.sleep`` outside the injectable-clock seam
MUT001    mutable default arguments
OBS001    ``repro.obs`` metric/span names must be string literals
XMOD001   entry point transitively reaches a wall-clock/RNG/hash
          source (with the explanatory call chain)
XMOD002   entry point transitively reaches unsorted FS-order
          iteration
RACE001   shard-worker-reachable write to a module global
RACE002   shard-worker-reachable write to a class attribute
CACHE001  cache-stage code changed without a ``CODE_VERSIONS`` bump
CACHE002  ``cache-versions.lock.json`` missing or stale
PARSE001  file does not parse (emitted by the engine itself)
SUP001    unused inline suppression (emitted by the engine itself)
========  ========================================================
"""

from __future__ import annotations

from repro.lint.baseline import Baseline
from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.engine import (
    Finding,
    LintResult,
    analyze_paths,
    lint_paths,
    lint_source,
)
from repro.lint.index import Program, ProgramContext
from repro.lint.rules import (
    RULES,
    WHOLE_PROGRAM_RULES,
    Rule,
    WholeProgramRule,
)

__all__ = [
    "Baseline",
    "DEFAULT_CONFIG",
    "Finding",
    "LintConfig",
    "LintResult",
    "Program",
    "ProgramContext",
    "RULES",
    "Rule",
    "WHOLE_PROGRAM_RULES",
    "WholeProgramRule",
    "analyze_paths",
    "lint_paths",
    "lint_source",
]
