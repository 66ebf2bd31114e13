"""Phase 1's per-module index and the merged whole-program view.

While the per-file rules walk a module's AST, the engine also builds a
:class:`ModuleIndex` for it: defined functions and classes, resolved
imports, call edges, nondeterminism-source uses, shared-state writes,
``map_shards`` spawn sites, and a normalized code digest. Phase 2
merges the indexes into a :class:`Program`, which resolves dotted call
chains into a project call graph for the whole-program rules
(XMOD/RACE) and exposes the statically-declared cache-stage closures
(CACHE).

Resolution is deliberately conservative and purely syntactic:

* imports (including aliased and relative ones) map local names to
  fully-qualified ones;
* ``self.method()`` / ``cls.method()`` resolve through the class and
  its resolvable bases;
* one-step type inference covers the common construction idioms --
  ``self.attr = ClassName(...)`` in any method, ``var = ClassName(...)``
  locally, simple parameter/field annotations, module-level singletons;
* as a last resort, an attribute call resolves to a method name defined
  by exactly **one** indexed class (unique-name fallback) unless the
  name is a common container-protocol name.

Anything unresolvable contributes no edge: the analyzer under-
approximates the graph rather than flooding the tree with speculative
findings. The determinism bar is the same as the rest of the linter:
identical trees produce byte-identical indexes, graphs and findings.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.suppress import Suppression

#: Module-level dict assignments captured verbatim into the index; the
#: cache staleness rules read these two declarations statically.
TRACKED_DECLS = ("CODE_VERSIONS", "STAGE_CLOSURES")

#: Method names whose call mutates the receiver in place.
MUTATING_METHODS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "insert", "pop", "popitem", "popleft", "remove", "reverse",
        "setdefault", "sort", "update",
    }
)

#: Attribute-call names never resolved through the unique-name fallback:
#: they are container/file-protocol names whose receiver is almost
#: always a builtin, so a single class defining one must not attract
#: every such call in the program.
_FALLBACK_STOPLIST = frozenset(
    {
        "append", "add", "clear", "close", "copy", "extend", "format",
        "get", "index", "items", "join", "keys", "pop", "read", "remove",
        "sort", "split", "update", "values", "write",
    }
) | MUTATING_METHODS

#: ``random.<fn>`` / clock / hash callees seeding *value* taint, and the
#: filesystem-order producers seeding *order* taint. Kept in sync with
#: the per-file DET rules by the rule-family tests.
_VALUE_SOURCE_TIME = frozenset(
    {
        "ctime", "gmtime", "localtime", "monotonic", "monotonic_ns",
        "perf_counter", "perf_counter_ns", "process_time",
        "process_time_ns", "time", "time_ns",
    }
)
_VALUE_SOURCE_DATETIME = frozenset({"now", "today", "utcnow"})
_VALUE_SOURCE_RANDOM = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate",
        "weibullvariate",
    }
)
_ORDER_SOURCE_CALLS = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)
_ORDER_SOURCE_METHODS = frozenset({"iterdir", "glob", "rglob"})


# ---------------------------------------------------------------------------
# Index data model
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CallSite:
    """One dotted call chain observed inside a function body."""

    parts: Tuple[str, ...]
    line: int
    col: int


@dataclass(frozen=True)
class SourceUse:
    """A nondeterminism source used directly in a function body."""

    #: ``"value"`` (clock/RNG/hash) or ``"order"`` (FS-order iteration).
    kind: str
    #: Human label, e.g. ``time.time()``.
    detail: str
    line: int
    col: int
    #: True when the site is sanctioned where it stands: covered by a
    #: same-line DET suppression (a reviewed justification) or, for
    #: order sources, consumed directly by ``sorted(...)``.
    sanctioned: bool
    #: The per-file rule family the sanction maps to (DET001..DET004).
    det_rule: str


@dataclass(frozen=True)
class SharedWrite:
    """A write that may target state shared beyond the function."""

    #: Dotted chain of the written base, e.g. ``("_WORLD_CACHE",)`` or
    #: ``("self", "__class__")``.
    base: Tuple[str, ...]
    #: Attribute being assigned on the base, or ``None`` for subscript
    #: assignment / mutating method calls on the base itself.
    member: Optional[str]
    #: How the write happens, e.g. ``"assignment"`` or ``".append(...)"``.
    via: str
    line: int
    col: int
    #: True when the base name was declared ``global`` in this function.
    declared_global: bool = False


@dataclass(frozen=True)
class SpawnSite:
    """A call shipping a worker function to the shard executor."""

    method: str
    worker: Optional[Tuple[str, ...]]
    line: int
    col: int


@dataclass
class FunctionInfo:
    """Everything phase 2 needs to know about one function."""

    qualname: str
    module: str
    name: str
    line: int
    #: Owning class qualname for methods, else ``None``.
    owner: Optional[str] = None
    first_arg: Optional[str] = None
    calls: List[CallSite] = field(default_factory=list)
    sources: List[SourceUse] = field(default_factory=list)
    writes: List[SharedWrite] = field(default_factory=list)
    spawns: List[SpawnSite] = field(default_factory=list)
    #: Local variable -> raw dotted constructor/annotation name.
    local_types: Dict[str, str] = field(default_factory=dict)
    #: Names assigned locally (shadow detection for write resolution).
    local_names: Set[str] = field(default_factory=set)
    #: Names declared ``global`` anywhere in the function body.
    globals_declared: Set[str] = field(default_factory=set)


@dataclass
class ClassInfo:
    """One class: its methods, bases and inferred attribute types."""

    qualname: str
    module: str
    name: str
    line: int
    bases: Tuple[str, ...] = ()
    #: method name -> function qualname.
    methods: Dict[str, str] = field(default_factory=dict)
    #: ``self.attr`` -> raw dotted type name (constructor assignment in
    #: any method, or a simple class-body annotation).
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class DictDecl:
    """A tracked module-level ``NAME = {...literal...}`` declaration."""

    name: str
    line: int
    value: dict
    #: literal key -> line of the key in the dict display.
    key_lines: Dict[str, int] = field(default_factory=dict)


@dataclass
class ModuleIndex:
    """Phase-1 output for one parsed module."""

    module: str
    path: str
    digest: str
    imports: Dict[str, str] = field(default_factory=dict)
    #: Names bound at module level (defs, classes, assignments).
    module_names: Set[str] = field(default_factory=set)
    #: Module-level ``X = ClassName(...)`` singleton types.
    var_types: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    decls: Dict[str, DictDecl] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Module naming & normalized digests
# ---------------------------------------------------------------------------
def module_name_for(path: str) -> str:
    """Dotted module name for a reported *path*.

    ``src/repro/lint/engine.py`` -> ``repro.lint.engine``;
    ``src/repro/lint/__init__.py`` -> ``repro.lint``;
    ``scripts/cache_smoke.py`` -> ``scripts.cache_smoke``. A leading
    ``src`` component is dropped so names match import statements.
    Paths outside the repo keep every component, which still yields a
    unique, deterministic name.
    """
    parts = [p for p in PurePosixPath(path.replace("\\", "/")).parts
             if p not in ("/", "\\")]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    while parts and parts[0] in ("src", "..", "."):
        parts = parts[1:]
    return ".".join(p.replace(".", "_") if i < len(parts) - 1 else p
                    for i, p in enumerate(parts)) or "unknown"


_DIGEST_SKIP_FIELDS = frozenset(
    {"type_comment", "type_ignores", "type_params"}
)


def _normalized_dump(node) -> str:
    """A canonical, version-stable dump of an AST fragment.

    Unlike :func:`ast.dump` this drops position attributes, empty and
    defaulted fields (so interpreter versions that *add* optional
    fields -- e.g. ``type_params`` in 3.12 -- produce identical dumps),
    and module/function/class docstrings. Comments never reach the AST.
    The result changes iff the executable shape of the code changes.
    """
    if isinstance(node, ast.AST):
        body = getattr(node, "body", None)
        skip_doc = (
            isinstance(
                node,
                (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef,
                 ast.ClassDef),
            )
            and isinstance(body, list)
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        )
        rendered: List[str] = []
        for name in node._fields:
            if name in _DIGEST_SKIP_FIELDS:
                continue
            value = getattr(node, name, None)
            if name == "body" and skip_doc:
                value = value[1:]
            if isinstance(node, ast.Constant) and name == "value":
                rendered.append(
                    f"value={type(value).__name__}:{value!r}"
                )
                continue
            if value is None or (isinstance(value, list) and not value):
                continue
            rendered.append(f"{name}={_normalized_dump(value)}")
        return f"{type(node).__name__}({','.join(rendered)})"
    if isinstance(node, list):
        return "[" + ",".join(_normalized_dump(item) for item in node) + "]"
    return f"{type(node).__name__}:{node!r}"


def normalized_digest(tree: ast.AST) -> str:
    """SHA-256 over the normalized dump of *tree*."""
    dump = _normalized_dump(tree)
    return hashlib.sha256(dump.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Index construction
# ---------------------------------------------------------------------------
def _dotted_parts(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``("a", "b", "c")`` for an ``a.b.c`` Name/Attribute chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "type"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == "self"
    ):
        # ``type(self).attr = ...`` is a class-attribute write.
        parts.append("__class__")
        parts.append("self")
        return tuple(reversed(parts))
    return None


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """Raw dotted name for a simple ``x: ClassName`` annotation."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        return text if text.replace(".", "").replace("_", "").isalnum() else None
    parts = _dotted_parts(node)
    return ".".join(parts) if parts else None


class _FunctionScanner(ast.NodeVisitor):
    """Collects calls/sources/writes/spawns from one function body.

    Nested functions and lambdas are folded into the enclosing
    function: a closure passed as a callback executes on behalf of its
    definer, so for taint and reachability purposes the definer
    "contains" the closure's calls.
    """

    def __init__(
        self,
        info: FunctionInfo,
        suppressions: Dict[int, Suppression],
        spawn_methods: Sequence[str],
    ):
        self.info = info
        self.suppressions = suppressions
        self.spawn_methods = frozenset(spawn_methods)
        self.globals_declared: Set[str] = set()
        self._parents: List[ast.AST] = []

    # -- generic walk with a parent stack -------------------------------
    def visit(self, node: ast.AST) -> None:
        self._collect(node)
        self._parents.append(node)
        try:
            self.generic_visit(node)
        finally:
            self._parents.pop()

    def _parent(self) -> Optional[ast.AST]:
        return self._parents[-1] if self._parents else None

    # -- collection -----------------------------------------------------
    def _collect(self, node: ast.AST) -> None:
        if isinstance(node, ast.Global):
            self.globals_declared.update(node.names)
        elif isinstance(node, ast.Call):
            self._collect_call(node)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                self._collect_write_target(target, "assignment")
            self._collect_local_type(node)
        elif isinstance(node, ast.AugAssign):
            self._collect_write_target(node.target, "augmented assignment")
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._collect_write_target(node.target, "assignment")
            if isinstance(node.target, ast.Name):
                self.info.local_names.add(node.target.id)
                ann = _annotation_name(node.annotation)
                if ann:
                    self.info.local_types.setdefault(node.target.id, ann)
        elif isinstance(node, ast.For):
            self._collect_write_target(node.target, "loop rebinding")

    def _collect_call(self, node: ast.Call) -> None:
        parts = _dotted_parts(node.func)
        if parts is not None:
            self.info.calls.append(
                CallSite(parts, node.lineno, node.col_offset + 1)
            )
            self._collect_source(node, parts)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in self.spawn_methods
            and node.args
        ):
            worker = _dotted_parts(node.args[0])
            self.info.spawns.append(
                SpawnSite(
                    node.func.attr, worker, node.lineno, node.col_offset + 1
                )
            )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
        ):
            base = _dotted_parts(node.func.value)
            if base is not None:
                self._record_write(
                    base, None, f".{node.func.attr}(...) call",
                    node.lineno, node.col_offset + 1,
                )

    # -- nondeterminism sources ----------------------------------------
    def _collect_source(self, node: ast.Call, parts: Tuple[str, ...]) -> None:
        name = ".".join(parts)
        mod, _, fn = name.rpartition(".")
        detail: Optional[str] = None
        kind = "value"
        det_rule = ""
        if mod == "random" and fn in _VALUE_SOURCE_RANDOM:
            detail, det_rule = f"random.{fn}()", "DET001"
        elif name in ("random.Random", "Random") and not node.args \
                and not node.keywords:
            detail, det_rule = "unseeded random.Random()", "DET001"
        elif name == "random.SystemRandom":
            detail, det_rule = "random.SystemRandom()", "DET001"
        elif mod == "time" and fn in _VALUE_SOURCE_TIME:
            detail, det_rule = f"time.{fn}()", "DET002"
        elif mod and fn in _VALUE_SOURCE_DATETIME:
            detail, det_rule = f"{name}()", "DET002"
        elif name == "hash" and len(parts) == 1:
            detail, det_rule = "builtin hash()", "DET003"
        elif name in _ORDER_SOURCE_CALLS:
            detail, kind, det_rule = f"{name}()", "order", "DET004"
        elif (
            len(parts) > 1
            and parts[-1] in _ORDER_SOURCE_METHODS
            and not node.args
            and not node.keywords
        ):
            detail, kind, det_rule = f".{parts[-1]}()", "order", "DET004"
        if detail is None:
            return
        sanctioned = self._sanctioned(node, kind, det_rule)
        self.info.sources.append(
            SourceUse(
                kind, detail, node.lineno, node.col_offset + 1,
                sanctioned, det_rule,
            )
        )

    def _sanctioned(self, node: ast.Call, kind: str, det_rule: str) -> bool:
        directive = self.suppressions.get(node.lineno)
        if directive is not None and directive.covers(det_rule):
            return True
        if kind == "order":
            parent = self._parent()
            if (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in ("sorted", "len", "sum", "min", "max")
                and node in parent.args
            ):
                return True
        return False

    # -- shared-state writes -------------------------------------------
    def _collect_write_target(self, target: ast.AST, via: str) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._collect_write_target(element, via)
            return
        if isinstance(target, ast.Starred):
            self._collect_write_target(target.value, via)
            return
        if isinstance(target, ast.Name):
            if target.id not in self.globals_declared:
                self.info.local_names.add(target.id)
            if target.id in self.globals_declared:
                self._record_write(
                    (target.id,), None, f"global {via}",
                    target.lineno, target.col_offset + 1,
                    declared_global=True,
                )
            return
        if isinstance(target, ast.Subscript):
            base = _dotted_parts(target.value)
            if base is not None:
                self._record_write(
                    base, None, f"subscript {via}",
                    target.lineno, target.col_offset + 1,
                )
            return
        if isinstance(target, ast.Attribute):
            base = _dotted_parts(target.value)
            if base is not None:
                self._record_write(
                    base, target.attr, f"attribute {via}",
                    target.lineno, target.col_offset + 1,
                )

    def _record_write(
        self,
        base: Tuple[str, ...],
        member: Optional[str],
        via: str,
        line: int,
        col: int,
        declared_global: bool = False,
    ) -> None:
        self.info.writes.append(
            SharedWrite(base, member, via, line, col, declared_global)
        )

    # -- one-step local type inference ---------------------------------
    def _collect_local_type(self, node: ast.Assign) -> None:
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            return
        value = node.value
        if isinstance(value, ast.Call):
            ctor = _dotted_parts(value.func)
            if ctor is not None:
                self.info.local_types[node.targets[0].id] = ".".join(ctor)


def _scan_function(
    node,
    qualname: str,
    module: str,
    owner: Optional[str],
    suppressions: Dict[int, Suppression],
    spawn_methods: Sequence[str],
) -> Tuple[FunctionInfo, Set[str]]:
    """Index one (async) function def, folding nested defs/lambdas in."""
    info = FunctionInfo(
        qualname=qualname, module=module, name=node.name, line=node.lineno,
        owner=owner,
    )
    args = node.args
    positional = list(args.posonlyargs) + list(args.args)
    if positional:
        info.first_arg = positional[0].arg
    for arg in positional + list(args.kwonlyargs):
        info.local_names.add(arg.arg)
        ann = _annotation_name(arg.annotation)
        if ann:
            info.local_types.setdefault(arg.arg, ann)
    scanner = _FunctionScanner(info, suppressions, spawn_methods)
    for statement in node.body:
        scanner.visit(statement)
    info.globals_declared = scanner.globals_declared
    return info, scanner.globals_declared


def _literal_dict_decl(node) -> Optional[DictDecl]:
    if isinstance(node, ast.Assign):
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            return None
        name = node.targets[0].id
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        name = node.target.id
    else:
        return None
    if name not in TRACKED_DECLS or not isinstance(node.value, ast.Dict):
        return None
    try:
        value = ast.literal_eval(node.value)
    except (ValueError, TypeError):
        return None
    key_lines: Dict[str, int] = {}
    for key in node.value.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            key_lines[key.value] = key.lineno
    return DictDecl(name=name, line=node.lineno, value=value,
                    key_lines=key_lines)


def _relative_base(module: str, is_package: bool, level: int) -> str:
    """The package a level-*level* relative import resolves against."""
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop:
        parts = parts[: max(0, len(parts) - drop)]
    return ".".join(parts)


class _ModuleScanner:
    """Builds the :class:`ModuleIndex` for one parsed file."""

    def __init__(
        self,
        tree: ast.Module,
        path: str,
        suppressions: Dict[int, Suppression],
        spawn_methods: Sequence[str],
    ):
        self.tree = tree
        self.path = path
        self.is_package = path.replace("\\", "/").endswith("/__init__.py")
        self.index = ModuleIndex(
            module=module_name_for(path),
            path=path,
            digest=normalized_digest(tree),
        )
        self.suppressions = suppressions
        self.spawn_methods = spawn_methods

    def build(self) -> ModuleIndex:
        self._collect_imports(self.tree)
        for node in self.tree.body:
            self._top_level(node)
        return self.index

    # -- imports anywhere in the file ----------------------------------
    def _collect_imports(self, tree: ast.Module) -> None:
        # Function-local imports matter too (deferred imports are the
        # idiom for cycle-breaking in this codebase), so imports are
        # collected over the whole file, not just the module body.
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else bound
                    self.index.imports[bound] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = _relative_base(
                        self.index.module, self.is_package, node.level
                    )
                    source = (
                        f"{base}.{node.module}" if node.module else base
                    )
                else:
                    source = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.index.imports[bound] = f"{source}.{alias.name}"

    # -- module body ----------------------------------------------------
    def _top_level(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{self.index.module}.{node.name}"
            info, _ = _scan_function(
                node, qualname, self.index.module, None,
                self.suppressions, self.spawn_methods,
            )
            self.index.functions[qualname] = info
            self.index.module_names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            self._scan_class(node)
            self.index.module_names.add(node.name)
        elif isinstance(node, ast.Assign):
            decl = _literal_dict_decl(node)
            if decl is not None:
                self.index.decls[decl.name] = decl
            for target in node.targets:
                for element in (
                    target.elts if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                ):
                    if isinstance(element, ast.Name):
                        self.index.module_names.add(element.id)
            if (
                len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                ctor = _dotted_parts(node.value.func)
                if ctor is not None:
                    self.index.var_types[node.targets[0].id] = ".".join(ctor)
        elif isinstance(node, ast.AnnAssign):
            decl = _literal_dict_decl(node)
            if decl is not None:
                self.index.decls[decl.name] = decl
            if isinstance(node.target, ast.Name):
                self.index.module_names.add(node.target.id)
                ann = _annotation_name(node.annotation)
                if ann:
                    self.index.var_types.setdefault(node.target.id, ann)
        elif isinstance(node, (ast.If, ast.Try)):
            # TYPE_CHECKING / try-import guards: index their bodies too.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._top_level(child)

    def _scan_class(self, node: ast.ClassDef) -> None:
        qualname = f"{self.index.module}.{node.name}"
        bases = []
        for base in node.bases:
            parts = _dotted_parts(base)
            if parts is not None:
                bases.append(".".join(parts))
        cls = ClassInfo(
            qualname=qualname, module=self.index.module, name=node.name,
            line=node.lineno, bases=tuple(bases),
        )
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_qual = f"{qualname}.{child.name}"
                info, _ = _scan_function(
                    child, method_qual, self.index.module, qualname,
                    self.suppressions, self.spawn_methods,
                )
                cls.methods[child.name] = method_qual
                self.index.functions[method_qual] = info
                self._infer_attr_types(child, cls)
            elif isinstance(child, ast.AnnAssign) and isinstance(
                child.target, ast.Name
            ):
                ann = _annotation_name(child.annotation)
                if ann:
                    cls.attr_types.setdefault(child.target.id, ann)
        self.index.classes[qualname] = cls

    def _infer_attr_types(self, method, cls: ClassInfo) -> None:
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if isinstance(node.value, ast.Call):
                ctor = _dotted_parts(node.value.func)
                if ctor is not None:
                    cls.attr_types.setdefault(target.attr, ".".join(ctor))


def build_module_index(
    tree: ast.Module,
    path: str,
    suppressions: Dict[int, Suppression],
    spawn_methods: Sequence[str] = ("map_shards",),
) -> ModuleIndex:
    """Index one parsed module for the whole-program phase."""
    return _ModuleScanner(tree, path, suppressions, spawn_methods).build()


# ---------------------------------------------------------------------------
# The merged program
# ---------------------------------------------------------------------------
@dataclass
class ProgramContext:
    """What the whole-program rules may consult besides the index."""

    config: object
    #: Repo root the reported paths are relative to (lock resolution).
    root: Optional[Path] = None
    #: ``cache-versions.lock.json`` location, or ``None`` for
    #: ``<root>/cache-versions.lock.json``.
    lock_path: Optional[Path] = None

    def resolved_lock_path(self) -> Optional[Path]:
        if self.lock_path is not None:
            return self.lock_path
        if self.root is not None:
            return self.root / "cache-versions.lock.json"
        return None


class Program:
    """The merged per-module indexes plus call-chain resolution."""

    def __init__(self, modules: Iterable[ModuleIndex]):
        self.modules: Dict[str, ModuleIndex] = {}
        for index in modules:
            self.modules[index.module] = index
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        for index in self.modules.values():
            self.functions.update(index.functions)
            self.classes.update(index.classes)
        self._method_owners: Dict[str, List[str]] = {}
        for cls_qual in sorted(self.classes):
            for method in self.classes[cls_qual].methods:
                self._method_owners.setdefault(method, []).append(cls_qual)
        self._edges: Dict[str, Tuple[str, ...]] = {}

    # -- name resolution ------------------------------------------------
    def _expand(
        self, index: ModuleIndex, parts: Tuple[str, ...]
    ) -> Optional[str]:
        """Fully-qualified dotted name for *parts* in *index*'s scope."""
        first = parts[0]
        if first in index.imports:
            return ".".join((index.imports[first],) + parts[1:])
        if first in index.module_names:
            return ".".join((index.module, ) + parts)
        return None

    def _resolve_class(
        self, index: ModuleIndex, raw: str
    ) -> Optional[str]:
        fqn = self._expand(index, tuple(raw.split(".")))
        if fqn in self.classes:
            return fqn
        if raw in self.classes:
            return raw
        return None

    def _resolve_method(
        self, cls_qual: str, name: str, _seen: Optional[Set[str]] = None
    ) -> List[str]:
        """Resolve *name* on *cls_qual*, walking resolvable bases."""
        seen = _seen if _seen is not None else set()
        if cls_qual in seen or cls_qual not in self.classes:
            return []
        seen.add(cls_qual)
        cls = self.classes[cls_qual]
        if name in cls.methods:
            return [cls.methods[name]]
        index = self.modules.get(cls.module)
        for base in cls.bases:
            base_qual = (
                self._resolve_class(index, base) if index is not None
                else None
            )
            if base_qual is not None:
                found = self._resolve_method(base_qual, name, seen)
                if found:
                    return found
        return []

    def resolve_call(
        self, func: FunctionInfo, call_parts: Tuple[str, ...]
    ) -> List[str]:
        """Candidate callee qualnames for a call chain in *func*."""
        index = self.modules.get(func.module)
        if index is None or not call_parts:
            return []
        first = call_parts[0]
        # self.method() / cls.method() / self.attr.method()
        if first in ("self", "cls") and func.owner is not None:
            if len(call_parts) == 2:
                return self._resolve_method(func.owner, call_parts[1])
            if len(call_parts) == 3:
                owner = self.classes.get(func.owner)
                attr_raw = owner.attr_types.get(call_parts[1]) if owner else None
                if attr_raw:
                    cls_qual = self._resolve_class(index, attr_raw)
                    if cls_qual:
                        return self._resolve_method(cls_qual, call_parts[2])
                return self._unique_fallback(call_parts[-1])
        # var.method() through one-step local / module-singleton types
        if len(call_parts) == 2:
            raw = func.local_types.get(first) or index.var_types.get(first)
            if raw:
                cls_qual = self._resolve_class(index, raw)
                if cls_qual:
                    resolved = self._resolve_method(cls_qual, call_parts[1])
                    if resolved:
                        return resolved
        # plain function / imported callable / class constructor
        fqn = self._expand(index, call_parts)
        if fqn is not None:
            if fqn in self.functions:
                return [fqn]
            if fqn in self.classes:
                init = self.classes[fqn].methods.get("__init__")
                return [init] if init else []
        if len(call_parts) == 1 and first in self.functions:
            return [first]
        # unique-method-name fallback
        if len(call_parts) >= 2:
            return self._unique_fallback(call_parts[-1])
        return []

    def _unique_fallback(self, method: str) -> List[str]:
        if method.startswith("__") or method in _FALLBACK_STOPLIST:
            return []
        owners = self._method_owners.get(method, [])
        if len(owners) == 1:
            return [self.classes[owners[0]].methods[method]]
        return []

    # -- call graph -----------------------------------------------------
    def edges(self, qualname: str) -> Tuple[str, ...]:
        """Sorted, de-duplicated callee qualnames of one function."""
        cached = self._edges.get(qualname)
        if cached is not None:
            return cached
        func = self.functions.get(qualname)
        targets: Set[str] = set()
        if func is not None:
            for call in func.calls:
                for target in self.resolve_call(func, call.parts):
                    if target != qualname:
                        targets.add(target)
        result = tuple(sorted(targets))
        self._edges[qualname] = result
        return result

    def reachable(
        self,
        roots: Sequence[str],
        skip_module=None,
    ) -> Dict[str, Optional[str]]:
        """BFS over call edges from *roots*; maps qualname -> parent.

        Roots map to ``None``. *skip_module* (module name -> bool)
        prunes whole modules -- taint neither seeds in nor propagates
        through them. Deterministic: the frontier is processed sorted.
        """
        parents: Dict[str, Optional[str]] = {}
        frontier: List[str] = []
        for root in sorted(set(roots)):
            if root in self.functions and root not in parents:
                parents[root] = None
                frontier.append(root)
        while frontier:
            frontier.sort()
            current = frontier.pop(0)
            for callee in self.edges(current):
                if callee in parents:
                    continue
                func = self.functions.get(callee)
                if func is None:
                    continue
                if skip_module is not None and skip_module(func.module):
                    continue
                parents[callee] = current
                frontier.append(callee)
        return parents

    def chain(
        self, parents: Dict[str, Optional[str]], qualname: str
    ) -> List[str]:
        """Root-first call chain ending at *qualname*."""
        path = [qualname]
        seen = {qualname}
        while True:
            parent = parents.get(path[-1])
            if parent is None or parent in seen:
                break
            path.append(parent)
            seen.add(parent)
        return list(reversed(path))

    # -- worker entries -------------------------------------------------
    def worker_entries(self) -> List[Tuple[str, str]]:
        """``(worker qualname, spawning function qualname)`` pairs."""
        out: List[Tuple[str, str]] = []
        for qualname in sorted(self.functions):
            func = self.functions[qualname]
            index = self.modules.get(func.module)
            if index is None:
                continue
            for spawn in func.spawns:
                if spawn.worker is None:
                    continue
                for target in self.resolve_call(func, spawn.worker):
                    out.append((target, qualname))
        return sorted(set(out))
