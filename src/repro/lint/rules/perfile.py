"""The shipped per-file determinism rules (phase 1).

All checks are syntactic single-pass heuristics: they flag the direct
hazard pattern at the site where it appears and deliberately do not
attempt inter-statement data-flow. Anything a per-file rule cannot see
(a wall-clock read behind a helper in another module, a worker writing
shared state) is the whole-program phase's job (:mod:`~repro.lint.rules.xmod`,
:mod:`~repro.lint.rules.race`, :mod:`~repro.lint.rules.cachecheck`).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.index import (
    DATETIME_FNS,
    FS_ORDER_CALLS,
    FS_ORDER_METHODS,
    RANDOM_FNS,
    TIME_FNS,
)
from repro.lint.rules.base import (
    RawFinding,
    Rule,
    RuleContext,
    _call_func_name,
    dotted_name,
    register,
)

# ---------------------------------------------------------------------------
# DET001 -- nondeterministic randomness
# ---------------------------------------------------------------------------


@register
class UnseededRandomRule(Rule):
    """Randomness must come from an explicitly seeded ``random.Random``.

    The executor's order-independence proof relies on every stochastic
    decision being keyed on ``(seed, url, share_time)``-style derived
    seeds; the module-level stream (and an argument-less ``Random()``,
    which seeds from the OS) reintroduces call-order and run-to-run
    dependence.
    """

    id = "DET001"
    summary = "unseeded random.Random() or module-level random.* call"
    example = "rng = random.Random()          # seeds from the OS\nx = random.randint(1, 6)       # shared hidden stream"

    def check(self, node: ast.AST, ctx: RuleContext) -> Iterator[RawFinding]:
        name = _call_func_name(node)
        if name is None:
            return
        if name in ("random.Random", "Random"):
            assert isinstance(node, ast.Call)
            if not node.args and not node.keywords:
                yield node, (
                    "random.Random() without a seed argument seeds from "
                    "the OS; derive the seed from the study config instead"
                )
        elif name == "random.SystemRandom":
            yield node, (
                "random.SystemRandom draws OS entropy and can never be "
                "reproduced; use a seeded random.Random"
            )
        else:
            mod, _, fn = name.rpartition(".")
            if mod == "random" and fn in RANDOM_FNS:
                yield node, (
                    f"module-level random.{fn}() uses the shared hidden "
                    "stream; call it on a seeded random.Random instance"
                )


# ---------------------------------------------------------------------------
# DET002 -- wall-clock reads
# ---------------------------------------------------------------------------


@register
class WallClockRule(Rule):
    """Pipeline code must not read the wall clock.

    Simulated time comes from the study window (``share_time``, crawl
    dates); real time may only enter through the injectable tracer
    clock (allowlisted in :data:`repro.lint.config.DEFAULT_ALLOW`) or a
    site-level suppression justifying a duration measurement.
    """

    id = "DET002"
    summary = "wall-clock read (time.*, datetime.now/today/utcnow)"
    example = "t = time.time()\nnow = datetime.datetime.now()"

    def check(self, node: ast.AST, ctx: RuleContext) -> Iterator[RawFinding]:
        name = _call_func_name(node)
        if name is None:
            return
        mod, _, fn = name.rpartition(".")
        if mod == "time" and fn in TIME_FNS:
            yield node, (
                f"time.{fn}() reads a process clock; pipeline results "
                "must be a function of the seed and the study window"
            )
        elif mod and fn in DATETIME_FNS:
            # Any dotted ``.now()/.today()/.utcnow()`` call: catches
            # datetime.now, datetime.datetime.now, dt.date.today, ...
            yield node, (
                f"{name}() reads the wall clock; derive dates from the "
                "study window instead"
            )


# ---------------------------------------------------------------------------
# DET003 -- salted built-in hash()
# ---------------------------------------------------------------------------


@register
class SaltedHashRule(Rule):
    """Built-in ``hash()`` is salted per process for str/bytes.

    ``PYTHONHASHSEED`` randomises it, so any bucketing or ordering
    derived from ``hash()`` differs between runs and between shard
    worker processes. Use ``zlib.crc32`` (as ``website.py`` does for
    subsite CMP coverage) or ``hashlib`` for stable digests.

    Every load of the name counts, not only the call form: the builtin
    handed on as a value (``map(hash, rows)``, ``sorted(xs, key=hash)``,
    ``h = hash``) is called just the same, out of the rule's sight.
    """

    id = "DET003"
    summary = "built-in hash() is process-salted; use crc32/hashlib"
    example = 'bucket = hash(domain) % 64\nbuckets = map(hash, domains)'

    def check(self, node: ast.AST, ctx: RuleContext) -> Iterator[RawFinding]:
        if (
            isinstance(node, ast.Name)
            and node.id == "hash"
            and isinstance(node.ctx, ast.Load)
        ):
            yield node, (
                "built-in hash() is salted per process (PYTHONHASHSEED); "
                "use zlib.crc32 or hashlib for a stable digest"
            )


# ---------------------------------------------------------------------------
# DET004 -- unordered iteration reaching loops / materialisations / returns
# ---------------------------------------------------------------------------

#: Callees producing unordered (or filesystem-ordered) collections.
_UNORDERED_CALLS = {
    "set": "set()",
    "frozenset": "frozenset()",
    **FS_ORDER_CALLS,
}

#: Wrappers that make consuming an unordered collection safe: they are
#: order-insensitive aggregates or impose an order themselves.
_NEUTRAL_CALLS = frozenset(
    {"all", "any", "bool", "frozenset", "len", "max", "min", "set",
     "sorted", "sum"}
)

#: Wrappers that freeze whatever arbitrary order the producer emitted.
_MATERIALIZERS = frozenset({"iter", "list", "tuple"})


def _unordered_reason(node: ast.AST) -> Optional[str]:
    """Human label if *node* produces an unordered collection."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    name = _call_func_name(node)
    if name in _UNORDERED_CALLS:
        return _UNORDERED_CALLS[name]
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in FS_ORDER_METHODS
        and not node.args
        and not node.keywords
    ):
        return FS_ORDER_METHODS[node.func.attr]
    return None


def _is_keys_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
        and not node.args
    )


@register
class UnorderedIterationRule(Rule):
    """Unordered producers must be ``sorted(...)`` before their order
    can matter.

    Flags a set literal/comprehension, ``set()``/``frozenset()`` call,
    ``os.listdir``/``os.scandir``/glob result at the point where an
    arbitrary order is *observed or frozen*: used directly as a loop or
    comprehension source, or materialised via ``list``/``tuple``/
    ``iter``/``str.join``. Returning a set-typed value is fine -- it
    stays explicitly unordered and the consumer site gets linted
    instead. ``dict.keys()`` however is an insertion-ordered view, so
    returning/yielding one silently promises an order the builder may
    not control; that escape must be ``sorted(...)``.
    Order-insensitive consumers (``len``, ``min``, ``sum``, membership
    tests, ``sorted`` itself, set-to-set conversions) are not flagged.
    """

    id = "DET004"
    summary = "unordered iteration (set/keys/listdir/glob) without sorted()"
    example = "for name in os.listdir(path):  # filesystem order\n    process(name)"

    def check(self, node: ast.AST, ctx: RuleContext) -> Iterator[RawFinding]:
        reason = _unordered_reason(node)
        if reason is not None:
            context = self._flagged_context(node, ctx)
            if context is not None:
                yield node, (
                    f"iteration order of {reason} is not deterministic "
                    f"here ({context}); wrap it in sorted(...)"
                )
        elif _is_keys_call(node) and self._escapes(node, ctx):
            yield node, (
                "dict.keys() returned to the caller leaks insertion "
                "order into whatever they export; return "
                "sorted(...) instead"
            )

    def _flagged_context(
        self, node: ast.AST, ctx: RuleContext
    ) -> Optional[str]:
        parent = ctx.parent()
        if parent is None:
            return None
        if isinstance(parent, ast.For) and parent.iter is node:
            return "for-loop source"
        if isinstance(parent, ast.comprehension) and parent.iter is node:
            return "comprehension source"
        if isinstance(parent, ast.Call) and node in parent.args:
            callee = dotted_name(parent.func)
            if callee in _NEUTRAL_CALLS:
                return None
            if callee in _MATERIALIZERS:
                return f"materialised by {callee}()"
            if (
                isinstance(parent.func, ast.Attribute)
                and parent.func.attr == "join"
            ):
                return "joined into a string"
        return None

    def _escapes(self, node: ast.AST, ctx: RuleContext) -> bool:
        """True if a ``.keys()`` result reaches a return/yield, possibly
        through order-freezing wrappers like ``list``/``tuple``/``iter``."""
        child: ast.AST = node
        for depth in range(1, len(ctx.parents) + 1):
            parent = ctx.parent(depth)
            if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
                return parent.value is child
            if isinstance(parent, ast.Call) and child in parent.args:
                callee = dotted_name(parent.func)
                if callee in _MATERIALIZERS:
                    child = parent
                    continue
                return False  # sorted()/len()/... neutralise the escape
            return False
        return False


# ---------------------------------------------------------------------------
# DET005 -- bare time.sleep outside the injectable-clock seam
# ---------------------------------------------------------------------------


@register
class BareSleepRule(Rule):
    """Backoff waits must run through an injectable clock.

    A literal ``time.sleep`` in pipeline code makes every chaos/retry
    test pay the wait for real and hides the delay from the virtual
    clock's accounting. The one sanctioned call site is
    ``repro.faults.clock.SystemClock`` (allowlisted in
    :data:`repro.lint.config.DEFAULT_ALLOW`); everything else takes a
    :class:`~repro.faults.clock.Clock` and calls ``clock.sleep(...)``,
    which this rule deliberately does not match.
    """

    id = "DET005"
    summary = "bare time.sleep(); route waits through an injectable Clock"
    example = "time.sleep(backoff_seconds)"

    def check(self, node: ast.AST, ctx: RuleContext) -> Iterator[RawFinding]:
        name = _call_func_name(node)
        if name == "time.sleep" or name == "sleep":
            yield node, (
                "bare sleep blocks for real and bypasses the virtual "
                "clock; accept a repro.faults.Clock and call "
                "clock.sleep(...) instead"
            )


# ---------------------------------------------------------------------------
# MUT001 -- mutable default arguments
# ---------------------------------------------------------------------------

_MUTABLE_CTORS = frozenset(
    {
        "bytearray", "collections.OrderedDict", "collections.defaultdict",
        "collections.deque", "defaultdict", "deque", "dict", "list", "set",
    }
)


def _is_mutable_default(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    return _call_func_name(node) in _MUTABLE_CTORS


@register
class MutableDefaultRule(Rule):
    """Mutable default arguments are shared across calls.

    One call's mutation leaks into the next -- classic action-at-a-
    distance that makes results depend on call history. Use ``None``
    and construct inside the function.
    """

    id = "MUT001"
    summary = "mutable default argument"
    example = "def crawl(urls, seen=[]):  # shared across calls\n    ..."

    def check(self, node: ast.AST, ctx: RuleContext) -> Iterator[RawFinding]:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                yield default, (
                    f"mutable default argument in {node.name}() is shared "
                    "across calls; default to None and construct inside"
                )


# ---------------------------------------------------------------------------
# OBS001 -- obs metric/span names must be string literals
# ---------------------------------------------------------------------------

#: ``repro.obs`` factory/entry methods whose first argument is a name.
_OBS_NAME_METHODS = frozenset(
    {"counter", "event", "gauge", "histogram", "span"}
)


@register
class ObsLiteralNameRule(Rule):
    """Metric and span names must be string literals at the call site.

    Literal names keep the JSONL exports byte-stable across runs and
    make every series grep-able from the source tree. Variable labels
    belong in label kwargs (``.inc(cmp=...)``), never in the name.
    """

    id = "OBS001"
    summary = "repro.obs metric/span name must be a string literal"
    example = 'obs.metrics.counter(f"crawl_{phase}_total")  # f-string name'

    def check(self, node: ast.AST, ctx: RuleContext) -> Iterator[RawFinding]:
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _OBS_NAME_METHODS
        ):
            return
        if not node.args:
            return  # wrong arity; not this rule's business
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return
        kind = "f-string" if isinstance(first, ast.JoinedStr) else "non-literal"
        yield first, (
            f"{kind} name passed to .{node.func.attr}(); obs names must "
            "be string literals (put variable parts in label kwargs)"
        )
