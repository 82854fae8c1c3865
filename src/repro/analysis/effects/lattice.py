"""Effect inference over the call graph: seed, propagate, witness.

Every function gets an *effect set* drawn from a fixed lattice of
atoms (:data:`EFFECTS`).  Effects enter the graph two ways:

* **primitive effects** — the engine's ground-truth mutators, assigned
  by qualified name (:data:`PRIMITIVE_EFFECTS`): the simulated disk's
  page I/O, the WAL append, the clock's advance/rewind, the catalog's
  DDL surface.  A call resolved to one of these functions inherits its
  effect transitively, no matter how many helper wrappers sit between.
* **syntactic effects** — patterns visible in a single body
  (:class:`_IntrinsicVisitor`): ``raise SimulatedCrash``, raising the
  media-error family, host-clock reads, global-RNG use, mutating a
  foreign ``.stats``, writing a module-level name.  These mirror the
  direct-call lint rules of :mod:`repro.analysis.code_lint` — which
  stay as the fast first line — but here they become *sources* whose
  effects flow to every transitive caller.

Propagation runs to a fixpoint with **barriers**
(:data:`DEFAULT_BARRIERS`): the sanctioned delivery mechanisms absorb
an effect instead of exporting it.  ``SimulatedDisk.read_page`` raising
``TransientReadError`` is the *designed* fault surface — every function
that reads a page must not inherit ``media_error.raise`` from it, or
the contract table would flag the whole engine.  A barrier absorbs
only the listed effects; everything else still flows through.

:func:`witness_chain` reconstructs, for one ``(function, effect)``
pair, the shortest call chain to a function that *introduces* the
effect — that chain is the finding message the contract engine reports.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.analysis.code_lint import (
    MEDIA_ERROR_NAMES,
    ImportAliases,
    dotted_name,
)
from repro.analysis.effects.callgraph import CallGraph, FunctionNode

#: The effect lattice (a powerset; these are its atoms).
EFFECTS: FrozenSet[str] = frozenset(
    {
        "disk.read",
        "disk.write",
        "wal.append",
        "clock.advance",
        "clock.rewind",
        "crash.raise",
        "media_error.raise",
        "rng",
        "wall_clock",
        "metrics.mutate",
        "global.mutate",
        "catalog.mutate",
        "lsm.compact",
    }
)

#: Ground-truth effect assignment by qualified name.  Key suffixes are
#: matched against function qualnames (endswith, at a dot boundary), so
#: the table works for any root package name.
PRIMITIVE_EFFECTS: Dict[str, FrozenSet[str]] = {
    "storage.disk.SimulatedDisk.read_page": frozenset({"disk.read"}),
    "storage.disk.SimulatedDisk.write_page": frozenset({"disk.write"}),
    "storage.disk.SimulatedDisk.allocate_page": frozenset({"disk.write"}),
    "storage.disk.SimulatedDisk.free_page": frozenset({"disk.write"}),
    "storage.disk.SimClock.advance_ms": frozenset({"clock.advance"}),
    "storage.disk.SimClock.rewind_to": frozenset({"clock.rewind"}),
    "recovery.wal.WriteAheadLog.append": frozenset({"wal.append"}),
    # The catalog's DDL surface: anything that changes which structures
    # exist (or their online state) mutates shared metadata.
    "catalog.database.Database.create_table": frozenset({"catalog.mutate"}),
    "catalog.database.Database.drop_table": frozenset({"catalog.mutate"}),
    "catalog.database.Database.create_index": frozenset({"catalog.mutate"}),
    "catalog.database.Database.create_hash_index": frozenset(
        {"catalog.mutate"}
    ),
    "catalog.database.Database.drop_index": frozenset({"catalog.mutate"}),
    "catalog.catalog.Catalog.add_table": frozenset({"catalog.mutate"}),
    "catalog.catalog.Catalog.drop_table": frozenset({"catalog.mutate"}),
    "catalog.catalog.TableInfo.add_index": frozenset({"catalog.mutate"}),
    "catalog.catalog.TableInfo.drop_index": frozenset({"catalog.mutate"}),
    "catalog.catalog.IndexInfo.set_offline": frozenset({"catalog.mutate"}),
    "catalog.catalog.IndexInfo.set_online": frozenset({"catalog.mutate"}),
    # LSM compaction rewrites runs wholesale; scheduling one is an
    # effect so the contract table can confine it to repro/lsm/.
    "lsm.tree.LsmTree.compact_once": frozenset({"lsm.compact"}),
}

#: Sanctioned absorption points: ``qualname suffix -> effects that do
#: NOT propagate to callers``.  Each is the one designed mechanism for
#: delivering that effect; see the module docstring and
#: ``docs/static_analysis.md`` for the rationale per entry.
DEFAULT_BARRIERS: Dict[str, FrozenSet[str]] = {
    # Injected crashes and media faults surface *at the device*; the
    # callers' contract is with the verified read/write path, not with
    # the injector behind it.
    "storage.disk.SimulatedDisk.read_page": frozenset(
        {"crash.raise", "media_error.raise"}
    ),
    "storage.disk.SimulatedDisk.write_page": frozenset(
        {"crash.raise", "media_error.raise"}
    ),
    "storage.disk.SimulatedDisk.allocate_page": frozenset(
        {"crash.raise", "media_error.raise"}
    ),
    "storage.disk.SimulatedDisk.free_page": frozenset(
        {"crash.raise", "media_error.raise"}
    ),
    # WAL forces are the other injectable durable event.
    "recovery.wal.WriteAheadLog.append": frozenset({"crash.raise"}),
    # The injector's hook methods are the crash-point delivery API:
    # instrumented code (recovery staging, redo replay) calls them so
    # sweeps can kill it mid-operation.  Calling a hook is sanctioned
    # everywhere; raising SimulatedCrash directly is not.
    "faults.injector.FaultInjector.stage": frozenset({"crash.raise"}),
    "faults.injector.FaultInjector.redo_record": frozenset(
        {"crash.raise"}
    ),
    "faults.injector.FaultInjector.on_wal_append": frozenset(
        {"crash.raise"}
    ),
    "faults.injector.FaultInjector.on_page_read": frozenset(
        {"crash.raise"}
    ),
    "faults.injector.FaultInjector.on_page_write": frozenset(
        {"crash.raise"}
    ),
    # The scrub gate's QuarantinedPage re-raise is its contract: "you
    # asked for a verified-clean disk and it is not".
    "media.scrub.require_scrubbed": frozenset({"media_error.raise"}),
    # The retry/repair/quarantine policy layer terminates media faults;
    # its typed aborts (RetriesExhausted, QuarantinedPage) are the
    # sanctioned failure surface for everyone above the pool.
    "media.retry.MediaRecovery.read": frozenset({"media_error.raise"}),
    # run_region is the one sanctioned clock-repositioning surface: the
    # rewind happens only between whole lanes, under the scheduler's
    # reconciliation invariants.
    "parallel.lanes.LaneScheduler.run_region": frozenset({"clock.rewind"}),
    # The LSM tree's public write/maintenance surface absorbs the
    # compactions it schedules internally: callers get upsert/delete/
    # vacuum semantics, never a handle on run selection.  Reaching
    # compact_once any other way violates effect/lsm-compaction-
    # confined.
    "lsm.tree.LsmTree.put": frozenset({"lsm.compact"}),
    "lsm.tree.LsmTree.delete": frozenset({"lsm.compact"}),
    "lsm.tree.LsmTree.delete_range": frozenset({"lsm.compact"}),
    "lsm.tree.LsmTree.flush_memtable": frozenset({"lsm.compact"}),
    "lsm.tree.LsmTree.compact_all": frozenset({"lsm.compact"}),
    "lsm.tree.LsmTree.delete_aware_compactions": frozenset(
        {"lsm.compact"}
    ),
    "lsm.engine.lsm_bulk_delete": frozenset({"lsm.compact"}),
}

class _IntrinsicVisitor(ast.NodeVisitor):
    """Seed syntactic effects for one function body.

    ``module_names`` are the module's top-level bindings: a store into
    one of them (directly under ``global``, or through a subscript /
    attribute on one) is a ``global.mutate``.  ``aliases`` are the
    module's ``from time/datetime/random import`` names, shared with
    the line lint.
    """

    def __init__(
        self,
        node: FunctionNode,
        module_names: Set[str],
        aliases: ImportAliases,
    ) -> None:
        self.node = node
        self.module_names = module_names
        self.aliases = aliases
        self.locals: Set[str] = set()
        self.globals_declared: Set[str] = set()

    def _seed(self, effect: str, why: str) -> None:
        self.node.intrinsic.add(effect)
        self.node.intrinsic_why.setdefault(effect, why)

    # -- scope tracking ------------------------------------------------
    def visit_Global(self, node: ast.Global) -> None:
        self.globals_declared.update(node.names)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs are their own FunctionNode

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is not None:
            if self.aliases.reads_clock(dotted):
                self._seed("wall_clock", f"calls {dotted}()")
            if self.aliases.global_random(dotted):
                self._seed("rng", f"calls module-global {dotted}()")
            if (
                self.aliases.random_class_call(dotted)
                and not node.args
                and not node.keywords
            ):
                self._seed("rng", "constructs unseeded random.Random()")
        self.generic_visit(node)

    # -- raises --------------------------------------------------------
    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        target = exc.func if isinstance(exc, ast.Call) else exc
        dotted = dotted_name(target) if target is not None else None
        name = dotted.split(".")[-1] if dotted else None
        if name == "SimulatedCrash":
            self._seed("crash.raise", "raises SimulatedCrash")
        elif name in MEDIA_ERROR_NAMES:
            self._seed("media_error.raise", f"raises {name}")
        self.generic_visit(node)

    # -- stores --------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store(node.target, augmented=True)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_store(node.target)
        self.generic_visit(node)

    def _check_store(
        self, target: ast.expr, augmented: bool = False
    ) -> None:
        # foreign `.stats` mutation (the adhoc-metrics shape)
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Attribute)
            and target.value.attr == "stats"
            and not (
                isinstance(target.value.value, ast.Name)
                and target.value.value.id == "self"
            )
        ):
            self._seed(
                "metrics.mutate",
                f"mutates foreign counters "
                f"{dotted_name(target) or target.attr}",
            )
        # module-global mutation
        root = target
        via_container = False
        while isinstance(root, (ast.Subscript, ast.Attribute)):
            root = root.value
            via_container = True
        if isinstance(root, ast.Name):
            name = root.id
            if not via_container:
                if name in self.globals_declared:
                    self._seed(
                        "global.mutate",
                        f"assigns module global {name!r}",
                    )
                elif not augmented:
                    self.locals.add(name)
                elif name in self.module_names and name not in self.locals:
                    self._seed(
                        "global.mutate",
                        f"augments module-level name {name!r}",
                    )
            elif (
                name in self.module_names
                and name not in self.locals
                and name != "self"
            ):
                self._seed(
                    "global.mutate",
                    f"writes into module-level container {name!r}",
                )


def qual_suffix_matches(qualname: str, suffix: str) -> bool:
    """``qualname`` ends with ``suffix`` at a dot boundary."""
    return qualname == suffix or qualname.endswith("." + suffix)


def _suffix_lookup(
    table: Mapping[str, FrozenSet[str]], qualname: str
) -> FrozenSet[str]:
    for suffix, effects in table.items():
        if qual_suffix_matches(qualname, suffix):
            return effects
    return frozenset()


def seed_effects(graph: CallGraph, root: Path) -> None:
    """Assign intrinsic effects to every function in ``graph``.

    Re-parses each module once to run the syntactic visitor (the graph
    does not retain ASTs); primitives come from the table.
    """
    by_file: Dict[str, List[FunctionNode]] = {}
    for node in graph.functions.values():
        node.intrinsic.clear()
        node.intrinsic_why.clear()
        prim = _suffix_lookup(PRIMITIVE_EFFECTS, node.qualname)
        for effect in prim:
            node.intrinsic.add(effect)
            node.intrinsic_why.setdefault(
                effect, "primitive effect of this function"
            )
        by_file.setdefault(node.file, []).append(node)
    for file, nodes in by_file.items():
        path = Path(root) / file
        try:
            tree = ast.parse(path.read_text(), filename=file)
        except (OSError, SyntaxError):
            continue
        module_names = set(graph.bindings.get(nodes[0].module, {}))
        aliases = ImportAliases.of(tree)
        by_line = {n.line: n for n in nodes}
        for fn_ast in ast.walk(tree):
            if not isinstance(
                fn_ast, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            node = by_line.get(fn_ast.lineno)
            if node is None or node.name != fn_ast.name:
                continue
            visitor = _IntrinsicVisitor(node, module_names, aliases)
            for arg in fn_ast.args.args + fn_ast.args.kwonlyargs:
                visitor.locals.add(arg.arg)
            for stmt in fn_ast.body:
                visitor.visit(stmt)


def propagate(
    graph: CallGraph,
    barriers: Optional[Mapping[str, FrozenSet[str]]] = None,
) -> None:
    """Flow effects to a fixpoint: ``effects(f) = intrinsic(f) ∪
    ⋃ (effects(g) − absorbed(g))`` over every resolved callee ``g``."""
    barrier_table = DEFAULT_BARRIERS if barriers is None else barriers
    absorbed: Dict[str, FrozenSet[str]] = {
        q: _suffix_lookup(barrier_table, q) for q in graph.functions
    }
    callers: Dict[str, Set[str]] = {q: set() for q in graph.functions}
    for node in graph.functions.values():
        node.effects = set(node.intrinsic)
        for callee in node.calls:
            if callee in callers:
                callers[callee].add(node.qualname)
    worklist = [q for q, n in graph.functions.items() if n.effects]
    while worklist:
        qual = worklist.pop()
        node = graph.functions[qual]
        outgoing = node.effects - absorbed[qual]
        for caller_qual in callers[qual]:
            caller = graph.functions[caller_qual]
            if not outgoing <= caller.effects:
                caller.effects |= outgoing
                worklist.append(caller_qual)


def witness_chain(
    graph: CallGraph,
    start: str,
    effect: str,
    barriers: Optional[Mapping[str, FrozenSet[str]]] = None,
) -> List[str]:
    """Shortest call chain from ``start`` to an introduction of
    ``effect`` — the explanation the contract findings carry.

    Intermediate hops must not absorb the effect (an absorbed path
    cannot be how ``start`` acquired it).  Returns ``[start]`` when the
    effect is intrinsic to ``start`` itself, ``[]`` when no chain
    exists (stale effect sets).
    """
    barrier_table = DEFAULT_BARRIERS if barriers is None else barriers
    node = graph.functions.get(start)
    if node is None:
        return []
    if effect in node.intrinsic:
        return [start]
    parents: Dict[str, str] = {}
    queue = [start]
    seen = {start}
    while queue:
        current = queue.pop(0)
        for callee in sorted(graph.callees(current)):
            if callee in seen or callee not in graph.functions:
                continue
            if effect in _suffix_lookup(barrier_table, callee):
                continue
            callee_node = graph.functions[callee]
            if effect not in callee_node.effects:
                continue
            seen.add(callee)
            parents[callee] = current
            if effect in callee_node.intrinsic:
                chain = [callee]
                while chain[-1] != start:
                    chain.append(parents[chain[-1]])
                return list(reversed(chain))
            queue.append(callee)
    return []


def render_chain(graph: CallGraph, chain: List[str], effect: str) -> str:
    """``a -> b -> c (raises SimulatedCrash)`` — for finding messages."""
    if not chain:
        return "(no witness chain; effect set may be conservative)"
    pkg_prefix = graph.package + "."
    short = [
        q[len(pkg_prefix):] if q.startswith(pkg_prefix) else q
        for q in chain
    ]
    last = graph.functions.get(chain[-1])
    why = (
        last.intrinsic_why.get(effect, effect)
        if last is not None
        else effect
    )
    return " -> ".join(short) + f" ({why})"
