"""Module-level call graph over the ``repro`` package, from the AST.

The per-file lint of :mod:`repro.analysis.code_lint` only sees *direct*
calls: a one-line helper wrapper defeats every confinement rule.  The
effect engine (:mod:`repro.analysis.effects.lattice`) needs the next
level up — who calls whom across the whole package — so this module
builds that graph statically:

* every ``def`` becomes a :class:`FunctionNode`, qualified as
  ``package.module.func``, ``package.module.Class.method``, or
  ``package.module.outer.<locals>.inner`` for closures,
* calls are resolved through module bindings (imports, including
  package ``__init__`` re-exports), class-qualified names for methods
  (``self.m()`` walks the class and its in-repo bases),
* attribute receivers are typed three ways, in order: parameter / local
  annotations (``disk: SimulatedDisk``), local constructor assignments
  (``tree = BLinkTree(...)``), and a small :data:`KNOWN_ALIASES` table
  for the engine's pervasive attribute idioms (``self.disk``,
  ``db.pool``, ``...clock``),
* a ``typing.Protocol`` types nothing: its stubs are not bodies anyone
  runs, so a receiver annotated with one is treated as untyped and
  dispatches structurally, by the rule below (this is how the sweep
  kernel's calls reach every scenario's ``issue``/``restart``),
* anything still unresolved falls back conservatively: a method name
  defined by a handful of known classes resolves to *all* of them —
  unless the name is a common container/builtin method
  (:data:`AMBIGUOUS_METHODS`), where that union would connect
  ``somelist.append`` to ``WriteAheadLog.append`` and drown the graph.
  Such calls are counted per function (``FunctionNode.unresolved``) so
  the analysis can report how much it did not see.

Lambdas are attributed to their enclosing function (their bodies are
rarely more than an expression here); module-level statements (import
time) are outside the graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Attribute name -> class name, for receivers neither annotations nor
#: local assignments can type.  These are the engine's idioms: the
#: attribute is named after the one structure it holds.
KNOWN_ALIASES: Dict[str, str] = {
    "disk": "SimulatedDisk",
    "clock": "SimClock",
    "pool": "BufferPool",
    "wal": "WriteAheadLog",
    "log": "WriteAheadLog",
    "tree": "BLinkTree",
    "heap": "HeapFile",
    "hash_index": "HashIndex",
    "fault_injector": "FaultInjector",
    "injector": "FaultInjector",
    "media": "MediaRecovery",
    "observer": "Observer",
    "obs": "Observer",
    "metrics": "MetricsRegistry",
    "tracer": "Tracer",
    "scheduler": "LaneScheduler",
    "db": "Database",
    "catalog": "Catalog",
    "sorter": "ExternalSorter",
    "side_file": "SideFile",
    "sidefile": "SideFile",
    "locks": "LockManager",
    "serializer": "RecordSerializer",
    "freespace": "FreeSpaceMap",
}

#: Method names shared with builtin containers / file objects: the
#: resolve-by-name fallback must not connect ``somelist.append`` to
#: ``WriteAheadLog.append``.  Calls on these names resolve only through
#: a typed receiver (annotation, constructor assignment, alias table).
AMBIGUOUS_METHODS: Set[str] = {
    "append", "add", "extend", "insert", "remove", "pop", "clear",
    "update", "get", "setdefault", "keys", "values", "items", "copy",
    "sort", "reverse", "count", "index", "join", "split", "strip",
    "startswith", "endswith", "format", "encode", "decode", "read",
    "write", "readline", "readlines", "close", "flush", "seek", "tell",
    "popitem", "discard", "union", "intersection", "difference",
    "group", "match", "search", "sub", "findall", "set", "next",
}

#: Resolve-by-name fallback gives up above this many candidate classes:
#: a name that common carries no signal.
FALLBACK_LIMIT = 4


@dataclass
class FunctionNode:
    """One ``def`` in the package, with its resolved outgoing calls."""

    qualname: str
    module: str
    name: str
    cls: Optional[str]  #: class qualname when this is a method
    file: str
    line: int
    #: Effects seeded directly in this body (filled by the lattice).
    intrinsic: Set[str] = field(default_factory=set)
    #: Human-readable reasons per intrinsic effect (for witnesses).
    intrinsic_why: Dict[str, str] = field(default_factory=dict)
    #: Resolved callee qualnames.
    calls: Set[str] = field(default_factory=set)
    #: Dynamic calls nothing could resolve (callbacks, builtins with
    #: ambiguous names) — the graph's honesty counter.
    unresolved: int = 0
    #: Transitive effect set (filled by the lattice fixpoint).
    effects: Set[str] = field(default_factory=set)
    #: Return-annotation class *name*, for local type inference at
    #: call sites (``t = db.table("R")`` types ``t`` as TableInfo).
    returns_name: Optional[str] = None


@dataclass
class ClassNode:
    """One ``class`` with its methods and in-repo bases."""

    qualname: str
    module: str
    name: str
    bases: List[str] = field(default_factory=list)  #: base *names*
    methods: Dict[str, str] = field(default_factory=dict)


@dataclass
class LaneDispatch:
    """One ``LaneTask(...)`` construction site.

    ``entry`` kinds:

    * ``"function"`` — ``run=`` referenced a function directly,
    * ``"factory"`` — ``run=`` called a factory; the dispatched code is
      the factory's closures (``factory.<locals>.*``),
    * ``"unresolved"`` — a callable the graph cannot see through.
    """

    owner: str  #: qualname of the function constructing the task
    file: str
    line: int
    kind: str
    entry: Optional[str]  #: function or factory qualname


class CallGraph:
    """The whole-package graph: functions, classes, lane dispatches."""

    def __init__(self, package: str) -> None:
        self.package = package
        self.functions: Dict[str, FunctionNode] = {}
        self.classes: Dict[str, ClassNode] = {}
        #: class *name* -> class qualnames (for alias/base resolution)
        self.class_names: Dict[str, List[str]] = {}
        #: method name -> defining function qualnames (fallback index)
        self.method_index: Dict[str, List[str]] = {}
        #: module -> {local name -> fully qualified target}
        self.bindings: Dict[str, Dict[str, str]] = {}
        self.lane_dispatches: List[LaneDispatch] = []

    # -- lookups -------------------------------------------------------
    def resolve_binding(self, dotted: str, hops: int = 8) -> str:
        """Follow import re-export chains (``repro.faults.FaultInjector``
        -> ``repro.faults.injector.FaultInjector``) to a terminal name."""
        seen = set()
        current = dotted
        while hops > 0 and current not in seen:
            seen.add(current)
            hops -= 1
            if current in self.functions or current in self.classes:
                return current
            module, _, leaf = current.rpartition(".")
            target = self.bindings.get(module, {}).get(leaf)
            if target is None:
                return current
            current = target
        return current

    def method_of(self, class_qualname: str, method: str) -> Optional[str]:
        """Resolve ``method`` on a class, walking in-repo bases."""
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            cq = stack.pop()
            if cq in seen:
                continue
            seen.add(cq)
            cls = self.classes.get(cq)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            for base in cls.bases:
                for candidate in self.class_names.get(base, []):
                    stack.append(candidate)
        return None

    def class_by_name(self, name: str) -> Optional[str]:
        candidates = self.class_names.get(name, [])
        return candidates[0] if len(candidates) == 1 else None

    def callees(self, qualname: str) -> Set[str]:
        node = self.functions.get(qualname)
        return node.calls if node is not None else set()

    def nested_functions(self, qualname: str) -> List[str]:
        prefix = qualname + ".<locals>."
        return [q for q in self.functions if q.startswith(prefix)]

    def to_dot(self) -> str:
        """GraphViz rendering (``repro effects --dot``)."""
        lines = ["digraph effects {", "  rankdir=LR;", "  node [shape=box];"]
        for node in sorted(self.functions.values(), key=lambda n: n.qualname):
            effects = ",".join(sorted(node.effects))
            label = node.qualname[len(self.package) + 1:]
            lines.append(
                f'  "{node.qualname}" [label="{label}'
                + (f'\\n{{{effects}}}' if effects else "")
                + '"];'
            )
            for callee in sorted(node.calls):
                lines.append(f'  "{node.qualname}" -> "{callee}";')
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_callgraph(root: Path, package: Optional[str] = None) -> CallGraph:
    """Parse every ``*.py`` under ``root`` and build the graph.

    ``root`` is the package directory (``src/repro``); ``package``
    defaults to its basename.  Two passes: declarations and bindings
    first, then call resolution (which needs the full class index).
    """
    root = Path(root)
    pkg = package or root.name
    graph = CallGraph(pkg)
    modules: List[Tuple[str, Path, ast.Module]] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        module = _module_name(pkg, rel)
        try:
            tree = ast.parse(path.read_text(), filename=str(rel))
        except SyntaxError:
            continue  # the code lint reports this; nothing to graph
        modules.append((module, rel, tree))
        _collect_declarations(graph, module, str(rel), tree)
    for module, rel, tree in modules:
        _resolve_module(graph, module, str(rel), tree)
    return graph


def _module_name(pkg: str, rel: Path) -> str:
    parts = list(rel.parts)
    parts[-1] = parts[-1][:-3]  # strip .py
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join([pkg] + parts) if parts else pkg


# -- pass 1: declarations ---------------------------------------------------

def _collect_declarations(
    graph: CallGraph, module: str, file: str, tree: ast.Module
) -> None:
    bindings = graph.bindings.setdefault(module, {})

    def add_function(
        node: ast.AST, scope: List[str], cls: Optional[str]
    ) -> str:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        qual = ".".join([module] + scope + [node.name])
        graph.functions[qual] = FunctionNode(
            qualname=qual,
            module=module,
            name=node.name,
            cls=cls,
            file=file,
            line=node.lineno,
            returns_name=_annotation_name(node.returns),
        )
        return qual

    def walk_body(
        body: Sequence[ast.stmt], scope: List[str], cls: Optional[str]
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = add_function(stmt, scope, cls)
                if cls is not None and not scope[-1:] == ["<locals>"] \
                        and "Protocol" not in graph.classes[cls].bases:
                    # (A Protocol's stubs are not methods anyone runs:
                    # a receiver typed by one dispatches by name, below.)
                    cls_node = graph.classes[cls]
                    cls_node.methods.setdefault(stmt.name, qual)
                    graph.method_index.setdefault(stmt.name, []).append(qual)
                if not scope and cls is None:
                    bindings[stmt.name] = qual
                walk_body(
                    stmt.body,
                    scope + [stmt.name, "<locals>"],
                    None,
                )
            elif isinstance(stmt, ast.ClassDef):
                cq = ".".join([module] + scope + [stmt.name])
                graph.classes[cq] = ClassNode(
                    qualname=cq,
                    module=module,
                    name=stmt.name,
                    bases=[
                        _annotation_name(
                            b.value if isinstance(b, ast.Subscript) else b
                        ) or ""
                        for b in stmt.bases
                    ],
                )
                graph.class_names.setdefault(stmt.name, []).append(cq)
                if not scope:
                    bindings[stmt.name] = cq
                walk_body(stmt.body, scope + [stmt.name], cq)
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    local = alias.asname or alias.name.split(".")[0]
                    bindings[local] = (
                        alias.name if alias.asname else
                        alias.name.split(".")[0]
                    )
            elif isinstance(stmt, ast.ImportFrom):
                if stmt.level:
                    # For a package __init__ the module name *is* the
                    # package, so one level of "up" is already applied.
                    up = stmt.level - (
                        1 if file.endswith("__init__.py") else 0
                    )
                    base = (
                        module.rsplit(".", up)[0] if up > 0 else module
                    )
                    src = f"{base}.{stmt.module}" if stmt.module else base
                else:
                    src = stmt.module or ""
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    bindings[alias.asname or alias.name] = (
                        f"{src}.{alias.name}" if src else alias.name
                    )
            elif isinstance(stmt, (ast.If, ast.Try)):
                walk_body(list(ast.iter_child_nodes(stmt)), scope, cls)  # type: ignore[arg-type]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                if not scope and cls is None:
                    for name in _assigned_names(stmt):
                        bindings.setdefault(name, f"{module}.{name}")

    walk_body(tree.body, [], None)


def _annotation_name(annotation: Optional[ast.expr]) -> Optional[str]:
    """Trailing class name of a return/param annotation, if any."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        text = annotation.value.strip().strip('"').split("[")[0]
        return text.split(".")[-1] or None
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    return None


def _assigned_names(stmt: ast.stmt) -> List[str]:
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


# -- pass 2: call resolution ------------------------------------------------

class _FunctionResolver(ast.NodeVisitor):
    """Resolve every call in one function body (closures excluded —
    they are their own :class:`FunctionNode`)."""

    def __init__(
        self,
        graph: CallGraph,
        module: str,
        node: FunctionNode,
        fn_ast: ast.AST,
        cls: Optional[str],
    ) -> None:
        self.graph = graph
        self.module = module
        self.node = node
        self.cls = cls
        #: local name -> class qualname (annotations + ctor assignments)
        self.local_types: Dict[str, str] = {}
        #: function-local imports (deferred imports inside bodies)
        self.local_bindings: Dict[str, str] = {}
        assert isinstance(fn_ast, (ast.FunctionDef, ast.AsyncFunctionDef))
        self._seed_param_types(fn_ast)

    # -- typing locals -------------------------------------------------
    def _seed_param_types(
        self, fn: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        args = list(fn.args.args) + list(fn.args.kwonlyargs)
        if fn.args.vararg:
            args.append(fn.args.vararg)
        for arg in args:
            cq = self._annotation_class(arg.annotation)
            if cq is not None:
                self.local_types[arg.arg] = cq

    def _annotation_class(
        self, annotation: Optional[ast.expr]
    ) -> Optional[str]:
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            name: Optional[str] = annotation.value.strip().split("[")[0]
        elif isinstance(annotation, ast.Name):
            name = annotation.id
        elif isinstance(annotation, ast.Attribute):
            name = annotation.attr
        elif isinstance(annotation, ast.Subscript):
            # Optional[SimulatedDisk] / "Optional[X]" — unwrap one level.
            inner = annotation.slice
            if isinstance(inner, ast.Name):
                name = inner.id
            elif isinstance(inner, ast.Attribute):
                name = inner.attr
            else:
                name = None
        else:
            name = None
        if not name:
            return None
        name = name.split(".")[-1].strip('"')
        return self._class_for_name(name)

    def _class_for_name(self, name: str) -> Optional[str]:
        bound = self._binding(name)
        if bound is not None:
            resolved = self.graph.resolve_binding(bound)
            if resolved in self.graph.classes:
                return resolved
        return self.graph.class_by_name(name)

    # -- statements that type locals -----------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        cq = self._value_class(node.value)
        if cq is not None:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.local_types[target.id] = cq
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            cq = self._annotation_class(node.annotation) or (
                self._value_class(node.value) if node.value else None
            )
            if cq is not None:
                self.local_types[node.target.id] = cq
        self.generic_visit(node)

    def visit_withitem(self, node: ast.withitem) -> None:
        if isinstance(node.optional_vars, ast.Name):
            cq = self._value_class(node.context_expr)
            if cq is not None:
                self.local_types[node.optional_vars.id] = cq
        self.generic_visit(node)

    def _value_class(self, value: Optional[ast.expr]) -> Optional[str]:
        """Class of an assigned value: a constructor call or an aliased
        attribute chain (``db.disk``)."""
        if isinstance(value, ast.Call):
            callee = self._resolve_callable(value.func)
            if callee is None:
                return None
            if callee in self.graph.classes:
                return callee
            fn = self.graph.functions.get(callee)
            if fn is not None and fn.returns_name:
                return self._class_for_name(fn.returns_name)
            return None
        if isinstance(value, ast.Attribute):
            return self._receiver_class(value)
        if isinstance(value, ast.Name):
            return self.local_types.get(value.id)
        return None

    # -- function-local (deferred) imports -----------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self.local_bindings[local] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            return  # no relative imports in this codebase
        src = node.module or ""
        for alias in node.names:
            if alias.name == "*":
                continue
            self.local_bindings[alias.asname or alias.name] = (
                f"{src}.{alias.name}" if src else alias.name
            )

    def _binding(self, name: str) -> Optional[str]:
        local = self.local_bindings.get(name)
        if local is not None:
            return local
        return self.graph.bindings.get(self.module, {}).get(name)

    # -- skip nested defs (they are separate nodes) --------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    # Lambdas stay attributed to this function.

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        target = self._resolve_callable(node.func)
        if target is not None:
            if target in self.graph.classes:
                self._note_lane_dispatch(node, target)
                init = self.graph.method_of(target, "__init__")
                if init is not None:
                    self.node.calls.add(init)
            elif target in self.graph.functions:
                self.node.calls.add(target)
        elif isinstance(node.func, ast.Attribute):
            self._fallback_method(node.func.attr)
        self.generic_visit(node)

    def _resolve_callable(self, func: ast.expr) -> Optional[str]:
        """Qualname of a called function/class, or None."""
        graph = self.graph
        if isinstance(func, ast.Name):
            bound = self._binding(func.id)
            if bound is None:
                return None
            resolved = graph.resolve_binding(bound)
            if resolved in graph.functions or resolved in graph.classes:
                return resolved
            return None
        if isinstance(func, ast.Attribute):
            method = func.attr
            receiver = func.value
            # Module alias: `mod.func(...)`.
            if isinstance(receiver, ast.Name):
                bound = self._binding(receiver.id)
                if bound is not None:
                    dotted = graph.resolve_binding(f"{bound}.{method}")
                    if dotted in graph.functions or dotted in graph.classes:
                        return dotted
                    # Class reference: `RID.unpack(...)`.
                    resolved = graph.resolve_binding(bound)
                    if resolved in graph.classes:
                        return graph.method_of(resolved, method)
            cq = self._receiver_class(receiver)
            if cq is not None:
                resolved_method = graph.method_of(cq, method)
                if resolved_method is not None:
                    return resolved_method
            return None
        return None

    def _receiver_class(self, receiver: ast.expr) -> Optional[str]:
        """Class of an attribute receiver, via self/locals/aliases."""
        if isinstance(receiver, ast.Name):
            if receiver.id in ("self", "cls") and self.cls is not None:
                return self.cls
            local = self.local_types.get(receiver.id)
            if local is not None:
                return local
            alias = KNOWN_ALIASES.get(receiver.id)
            if alias is not None:
                return self.graph.class_by_name(alias)
            return None
        if isinstance(receiver, ast.Attribute):
            alias = KNOWN_ALIASES.get(receiver.attr)
            if alias is not None:
                return self.graph.class_by_name(alias)
            return None
        if isinstance(receiver, ast.Call):
            # Fluent style: `BoundedHashSet(n).build(...)`.
            return self._value_class(receiver)
        return None

    def _fallback_method(self, method: str) -> None:
        """Type-blind fallback: resolve by method name across all known
        classes, unless the name is container-ambiguous."""
        if method in AMBIGUOUS_METHODS:
            self.node.unresolved += 1
            return
        candidates = self.graph.method_index.get(method, [])
        if 0 < len(candidates) <= FALLBACK_LIMIT:
            self.node.calls.update(candidates)
        else:
            self.node.unresolved += 1

    # -- lane dispatch sites -------------------------------------------
    def _note_lane_dispatch(self, node: ast.Call, target: str) -> None:
        cls = self.graph.classes.get(target)
        if cls is None or cls.name != "LaneTask":
            return
        run_arg: Optional[ast.expr] = None
        for kw in node.keywords:
            if kw.arg == "run":
                run_arg = kw.value
        if run_arg is None and len(node.args) >= 2:
            run_arg = node.args[1]
        kind, entry = "unresolved", None
        if run_arg is not None:
            if isinstance(run_arg, (ast.Name, ast.Attribute)):
                resolved = self._resolve_callable(run_arg)
                if resolved is None and isinstance(run_arg, ast.Attribute):
                    cq = self._receiver_class(run_arg.value)
                    if cq is not None:
                        resolved = self.graph.method_of(cq, run_arg.attr)
                if resolved is not None:
                    kind, entry = "function", resolved
            elif isinstance(run_arg, ast.Call):
                factory = self._resolve_callable(run_arg.func)
                if factory is not None and factory in self.graph.functions:
                    kind, entry = "factory", factory
            elif isinstance(run_arg, ast.Lambda):
                # The lambda's body is attributed to the constructing
                # function; analyze from there.
                kind, entry = "function", self.node.qualname
        self.graph.lane_dispatches.append(
            LaneDispatch(
                owner=self.node.qualname,
                file=self.node.file,
                line=node.lineno,
                kind=kind,
                entry=entry,
            )
        )


def _resolve_module(
    graph: CallGraph, module: str, file: str, tree: ast.Module
) -> None:
    """Run the resolver over every function declared in ``module``."""

    def walk(
        body: Sequence[ast.stmt], scope: List[str], cls: Optional[str]
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = ".".join([module] + scope + [stmt.name])
                node = graph.functions.get(qual)
                if node is not None:
                    resolver = _FunctionResolver(
                        graph, module, node, stmt, cls
                    )
                    for child in stmt.body:
                        resolver.visit(child)
                walk(stmt.body, scope + [stmt.name, "<locals>"], cls)
            elif isinstance(stmt, ast.ClassDef):
                cq = ".".join([module] + scope + [stmt.name])
                walk(stmt.body, scope + [stmt.name], cq)
            elif isinstance(stmt, (ast.If, ast.Try)):
                walk(list(ast.iter_child_nodes(stmt)), scope, cls)  # type: ignore[arg-type]

    walk(tree.body, [], None)
