"""Shard-worker shared-state write detection (RACE001 / RACE002).

``executor.map_shards`` runs the worker function in a pool of worker
processes, while a one-worker run executes the same code inline in the
parent. A worker that writes a module global or a class attribute
therefore changes only its own process's copy: the parent and the
sibling workers never see the write, yet the serial path does -- so
results can silently depend on the worker count, breaking the
bit-identity guarantee. Only the serial-vs-parallel regression tests
would catch such a write, and only on the paths they exercise;
statically it escapes every per-file rule because the write looks like
ordinary code.

Phase 2 finds every ``map_shards`` call site, resolves its worker
argument to a function, computes the set of functions reachable from
those workers over the project call graph, and flags:

* **RACE001** -- writes to module-level state: ``global`` rebinding,
  subscript/attribute assignment on a module-level name, or an
  in-place mutating call (``.append``, ``.update``, ...) on one.
* **RACE002** -- writes to class attributes (``cls.attr = ...``,
  ``self.__class__.attr = ...``, ``SomeClass.attr = ...``).

Writes to ``self`` instance state are deliberately out of scope: which
instances cross the worker boundary is not statically knowable, and
the shard protocol already requires workers to receive their own task
objects. A worker-side write that is genuinely safe (e.g. a
process-local memo of a pure function, where every process stores an
equal value) is sanctioned with a same-line
``# repro-lint: disable=RACE001`` and a justifying comment.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.index import (
    FunctionInfo,
    ModuleIndex,
    Program,
    ProgramContext,
    SharedWrite,
)
from repro.lint.rules.base import (
    ProgramFinding,
    WholeProgramRule,
    register_whole_program,
)


def worker_reachable(
    program: Program,
) -> Tuple[Dict[str, Optional[str]], Dict[str, str]]:
    """Functions reachable from resolved worker entries.

    Returns ``(parents, spawners)``: the BFS parent map over the call
    graph rooted at every worker function, and worker entry ->
    spawning function (for the explanatory message).
    """
    entries = program.worker_entries()
    spawners: Dict[str, str] = {}
    for worker, spawner in entries:
        spawners.setdefault(worker, spawner)
    parents = program.reachable(sorted(spawners))
    return parents, spawners


def _classify(
    program: Program,
    index: ModuleIndex,
    func: FunctionInfo,
    write: SharedWrite,
) -> Optional[Tuple[str, str]]:
    """``(rule_id, target description)`` when *write* hits shared state."""
    base = write.base
    if write.declared_global:
        return "RACE001", f"module global '{base[0]}'"
    first = base[0]
    if first in ("self", "cls"):
        if len(base) >= 2 and base[1] == "__class__":
            target = write.member or ".".join(base[2:]) or "<attr>"
            return "RACE002", f"class attribute '{target}' via self.__class__"
        if first == "cls" and func.first_arg == "cls":
            target = write.member or ".".join(base[1:]) or "<attr>"
            owner = func.owner or "its class"
            return "RACE002", f"class attribute '{target}' on {owner}"
        return None  # instance state: out of scope by design
    if first in func.globals_declared:
        return "RACE001", f"module global '{'.'.join(base)}'"
    if first in func.local_names:
        return None  # local rebinding shadows any module-level name
    fqn = program._expand(index, base)
    if fqn is not None:
        if fqn in program.classes:
            target = write.member or base[-1]
            return "RACE002", f"class attribute '{target}' on {fqn}"
        if first in index.module_names:
            return "RACE001", f"module global '{'.'.join(base)}'"
        if first in index.imports:
            # A name imported from another module: mutating it in place
            # still hits that module's shared object.
            imported = index.imports[first]
            owner_module, _, name = imported.rpartition(".")
            owner = program.modules.get(owner_module)
            if owner is not None and name in owner.module_names:
                return "RACE001", f"imported module global '{imported}'"
            if imported in program.modules and len(base) >= 2:
                owner = program.modules[imported]
                if base[1] in owner.module_names:
                    return (
                        "RACE001",
                        f"module global '{imported}.{'.'.join(base[1:])}'",
                    )
    return None


def _race_findings(
    program: Program, ctx: ProgramContext, rule_id: str
) -> Iterator[ProgramFinding]:
    parents, spawners = worker_reachable(program)
    if not parents:
        return
    emitted = set()
    for qualname in sorted(parents):
        func = program.functions[qualname]
        index = program.modules[func.module]
        for write in func.writes:
            classified = _classify(program, index, func, write)
            if classified is None or classified[0] != rule_id:
                continue
            key = (index.path, write.line, write.col, classified[1])
            if key in emitted:
                continue
            emitted.add(key)
            chain = program.chain(parents, qualname)
            spawner = spawners.get(chain[0], "")
            spawned = f" (spawned by {spawner})" if spawner else ""
            message = (
                f"worker-reachable {write.via} to {classified[1]}; in a "
                f"worker process the write never reaches the parent or "
                f"the sibling shards. Chain from worker "
                f"entry{spawned}: {' -> '.join(chain)}"
            )
            yield (index.path, write.line, write.col, message)


@register_whole_program
class WorkerGlobalWriteRule(WholeProgramRule):
    """Shard workers must not write module-level state.

    Every worker process has its own copy of each module global, while
    a one-worker run writes the parent's, so a write from
    worker-reachable code makes a parallel run silently diverge from
    the serial one. Workers communicate results exclusively through
    their return values; anything else breaks the serial-equivalence
    guarantee the executor tests pin. A process-local memo of a pure
    function, where every process stores an equal value, may be
    sanctioned with an inline ``# repro-lint: disable=RACE001`` and a
    comment explaining why the write is safe.
    """

    id = "RACE001"
    summary = (
        "worker-reachable function writes a module global (lost in a "
        "worker process)"
    )
    example = (
        "_SEEN = {}\n"
        "def crawl_shard(task):      # shipped to map_shards\n"
        "    _SEEN[task.day] = 1     # never reaches the parent"
    )

    def check_program(
        self, program: Program, ctx: ProgramContext
    ) -> Iterator[ProgramFinding]:
        return _race_findings(program, ctx, "RACE001")


@register_whole_program
class WorkerClassAttributeWriteRule(WholeProgramRule):
    """Shard workers must not write class attributes.

    A class attribute is one interpreter-wide slot: ``cls.counter += 1``
    or ``self.__class__.cache = ...`` from worker-reachable code lands
    in the worker process's copy only, exactly like a module global,
    just harder to spot. Keep per-shard state on the task or the
    worker's own instances.
    """

    id = "RACE002"
    summary = (
        "worker-reachable function writes a class attribute (lost in a "
        "worker process)"
    )
    example = (
        "class Engine:\n"
        "    hits = 0\n"
        "    def detect(self, row):          # worker-reachable\n"
        "        self.__class__.hits += 1    # one shared slot"
    )

    def check_program(
        self, program: Program, ctx: ProgramContext
    ) -> Iterator[ProgramFinding]:
        return _race_findings(program, ctx, "RACE002")
