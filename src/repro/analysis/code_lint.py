"""AST lint enforcing the simulation invariants of ``src/repro``.

The reproduction's results are *deterministic simulated costs*: every
I/O goes through the buffer pool onto the simulated disk, every clock
is the :class:`~repro.storage.disk.SimClock`, and every random stream
is seeded.  Code that reaches for the host's wall clock, the shared
(unseeded) ``random`` module state, or the raw page API would silently
corrupt that determinism — so these are lint rules, not review notes:

* ``code/wall-clock`` — no ``time.time``/``perf_counter``/
  ``datetime.now`` & friends in simulation paths,
* ``code/unseeded-random`` — no module-level ``random.*`` calls (they
  share one unseeded global RNG) and no argument-less
  ``random.Random()``,
* ``code/raw-page-io`` — ``disk.read_page``/``write_page`` only inside
  ``repro/storage/`` (everything else goes through the
  :class:`~repro.storage.buffer.BufferPool` so caching is accounted),
* ``code/float-cost-eq`` — no ``==``/``!=`` between float cost
  estimates (``*_ms``, ``*_seconds``, ``*_minutes``, ``*cost*``),
* ``code/adhoc-metrics`` — no mutating *another* object's ``.stats``
  counters outside ``repro/storage/`` and ``repro/obs/``; metric
  emission goes through the :mod:`repro.obs` observer hooks,
* ``code/clock-rewind`` — ``SimClock.rewind_to`` exists solely so the
  lane scheduler can reposition simulated time between lanes; calling
  it anywhere outside ``repro/parallel/`` would let ordinary operators
  rewrite history,
* ``code/media-error-outside-media`` — the typed media-error family
  may only be raised inside ``repro/media/`` and ``repro/storage/``,
  so every media failure flows through the one retry/repair/quarantine
  policy layer,
* ``code/compaction-outside-lsm`` — ``LsmTree.compact_once`` /
  ``maybe_compact`` are run-selection internals; outside ``repro/lsm/``
  compactions are triggered only through the tree's public write and
  maintenance surface so the FADE policy stays in charge.

A deliberate exception carries a per-line pragma::

    wall = time.perf_counter()  # lint: allow(wall-clock)

with a neighbouring comment explaining the constraint.  For a call
spanning several lines, the pragma goes on the statement's *opening*
line and covers the whole statement (simple statements only — it never
bleeds into the body of a ``def``/``if``/``with``).  A test module
whose very purpose is exercising a raw surface can allow one rule for
the entire file::

    # lint: allow-file(raw-page-io)
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.analysis.findings import Finding, Severity

#: rule id -> one-line description (the catalogue; docs render this)
CODE_RULES: Dict[str, str] = {
    "code/wall-clock": (
        "simulation paths must use SimClock, never the host clock "
        "(time.time/perf_counter/monotonic, datetime.now/utcnow/today)"
    ),
    "code/unseeded-random": (
        "randomness must come from a seeded random.Random(seed) "
        "instance; module-level random.* calls and random.Random() "
        "share or create unseeded state"
    ),
    "code/raw-page-io": (
        "disk.read_page/write_page bypass the BufferPool's caching and "
        "accounting; only repro/storage/ may call them directly"
    ),
    "code/float-cost-eq": (
        "float cost estimates (*_ms, *_seconds, *_minutes, *cost*) "
        "must not be compared with == / != ; use ordering or a "
        "tolerance"
    ),
    "code/adhoc-metrics": (
        "operators must not poke another object's .stats counters "
        "directly; metric emission goes through the repro.obs observer "
        "hooks (a structure may still maintain its own self.stats)"
    ),
    "code/crash-outside-faults": (
        "SimulatedCrash may only be raised inside repro/faults/; crash "
        "injection goes through a FaultPlan + FaultInjector so every "
        "crash point is visible to the crash sweep and loses the "
        "buffer pool consistently"
    ),
    "code/clock-rewind": (
        "SimClock.rewind_to repositions simulated time between lanes; "
        "only the lane scheduler in repro/parallel/ may call it — "
        "anywhere else it rewrites history and corrupts every span "
        "and cost downstream"
    ),
    "code/media-error-outside-media": (
        "the MediaError family (ChecksumMismatch, TransientReadError, "
        "RetriesExhausted, QuarantinedPage) may only be raised inside "
        "repro/media/ and repro/storage/; anywhere else a media "
        "failure must surface through the verified read path so "
        "retry/repair/quarantine policy applies uniformly"
    ),
    "code/compaction-outside-lsm": (
        "compact_once/maybe_compact hand-pick LSM runs; outside "
        "repro/lsm/ compaction is reached only through the tree's "
        "public surface (put/delete/delete_range, flush_memtable, "
        "compact_all, delete_aware_compactions, lsm_bulk_delete) so "
        "the FADE picker and its accounting stay authoritative"
    ),
}

WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
}
_WALL_CLOCK_NAMES = {
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns",
}

#: module-level functions of ``random`` that use the shared global RNG
#: (also read by the effect lattice's ``rng`` seed)
GLOBAL_RANDOM_FUNCS = {
    "random", "randint", "randrange", "randbytes", "choice", "choices",
    "shuffle", "sample", "uniform", "triangular", "gauss", "seed",
    "getrandbits", "betavariate", "expovariate", "gammavariate",
    "lognormvariate", "normalvariate", "paretovariate", "vonmisesvariate",
    "weibullvariate",
}

_RAW_IO_ATTRS = {"read_page", "write_page"}

#: LSM compaction internals: callable only inside ``repro/lsm/``.
_COMPACTION_ATTRS = {"compact_once", "maybe_compact"}

#: The typed media-error family (repro.errors).  CorruptLogError is
#: deliberately absent: it is a RecoveryError sibling raised by the WAL.
MEDIA_ERROR_NAMES = {
    "MediaError", "ChecksumMismatch", "TransientReadError",
    "RetriesExhausted", "QuarantinedPage",
}

_COST_NAME = re.compile(
    r"(_ms|_seconds|_minutes)$|cost", re.IGNORECASE
)

_PRAGMA = re.compile(r"#\s*lint:\s*allow\(([^)]*)\)")
_FILE_PRAGMA = re.compile(r"#\s*lint:\s*allow-file\(([^)]*)\)")


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_cost_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return bool(_COST_NAME.search(node.id))
    if isinstance(node, ast.Attribute):
        return bool(_COST_NAME.search(node.attr))
    return False


@dataclass
class _Visitor(ast.NodeVisitor):
    filename: str
    in_storage: bool
    #: inside repro/obs/ — the metrics layer itself is exempt from
    #: code/adhoc-metrics (it is the sanctioned emission path)
    in_obs: bool = False
    #: inside repro/faults/ — the injector is the one sanctioned place
    #: that raises SimulatedCrash
    in_faults: bool = False
    #: inside repro/parallel/ — the lane scheduler is the one
    #: sanctioned caller of SimClock.rewind_to
    in_parallel: bool = False
    #: inside repro/media/ — with repro/storage/, the sanctioned origin
    #: of the MediaError family
    in_media: bool = False
    #: inside repro/lsm/ — the one place compaction internals
    #: (compact_once/maybe_compact) may be called
    in_lsm: bool = False
    #: names bound by ``from time/datetime/random import X``
    clock_aliases: Set[str] = field(default_factory=set)
    random_aliases: Set[str] = field(default_factory=set)
    random_class_aliases: Set[str] = field(default_factory=set)
    findings: List[Finding] = field(default_factory=list)

    def _emit(self, rule: str, node: ast.AST, label: str, msg: str) -> None:
        self.findings.append(
            Finding(
                rule,
                Severity.ERROR,
                label,
                msg,
                file=self.filename,
                line=getattr(node, "lineno", None),
            )
        )

    # -- imports: track aliases so bare calls are caught too ----------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCK_NAMES:
                    self.clock_aliases.add(alias.asname or alias.name)
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self.clock_aliases.add(
                        (alias.asname or alias.name) + ".now"
                    )
        elif node.module == "random":
            for alias in node.names:
                if alias.name in GLOBAL_RANDOM_FUNCS:
                    self.random_aliases.add(alias.asname or alias.name)
                elif alias.name == "Random":
                    self.random_class_aliases.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- calls --------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        self._check_wall_clock(node, dotted)
        self._check_random(node, dotted)
        self._check_raw_io(node)
        self._check_clock_rewind(node)
        self._check_compaction(node)
        self.generic_visit(node)

    def _check_wall_clock(
        self, node: ast.Call, dotted: Optional[str]
    ) -> None:
        hit = dotted is not None and (
            dotted in WALL_CLOCK_CALLS or dotted in self.clock_aliases
        )
        if hit:
            self._emit(
                "code/wall-clock",
                node,
                dotted or "<call>",
                f"{dotted}() reads the host clock; simulated time comes "
                "from db.clock (SimClock) so results stay deterministic",
            )

    def _check_random(self, node: ast.Call, dotted: Optional[str]) -> None:
        if dotted is None:
            return
        if (
            dotted.startswith("random.")
            and dotted.split(".", 1)[1] in GLOBAL_RANDOM_FUNCS
        ) or dotted in self.random_aliases:
            self._emit(
                "code/unseeded-random",
                node,
                dotted,
                f"{dotted}() uses the module-global RNG, which is never "
                "seeded here; construct random.Random(seed) instead",
            )
            return
        is_random_ctor = dotted == "random.Random" or (
            dotted in self.random_class_aliases
        )
        if is_random_ctor and not node.args and not node.keywords:
            self._emit(
                "code/unseeded-random",
                node,
                dotted,
                "random.Random() without a seed is nondeterministic; "
                "pass an explicit seed",
            )

    def _check_raw_io(self, node: ast.Call) -> None:
        if self.in_storage:
            return
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _RAW_IO_ATTRS
        ):
            self._emit(
                "code/raw-page-io",
                node,
                _dotted(node.func) or node.func.attr,
                f".{node.func.attr}() bypasses the BufferPool; outside "
                "repro/storage/ every page access must be pinned "
                "through the pool so hits and evictions are accounted",
            )

    def _check_clock_rewind(self, node: ast.Call) -> None:
        if self.in_parallel:
            return
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "rewind_to"
        ):
            self._emit(
                "code/clock-rewind",
                node,
                _dotted(node.func) or node.func.attr,
                ".rewind_to() moves simulated time backwards; only the "
                "lane scheduler (repro/parallel/) may reposition the "
                "clock, and only between whole lanes of a region",
            )

    def _check_compaction(self, node: ast.Call) -> None:
        if self.in_lsm:
            return
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _COMPACTION_ATTRS
        ):
            self._emit(
                "code/compaction-outside-lsm",
                node,
                _dotted(node.func) or node.func.attr,
                f".{node.func.attr}() hand-picks LSM runs; outside "
                "repro/lsm/ trigger compaction through the tree's "
                "public surface (delete_aware_compactions, "
                "compact_all, or just the write path) so FADE stays "
                "in charge",
            )

    # -- stats mutations ----------------------------------------------
    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_adhoc_metrics(node, node.target)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_adhoc_metrics(node, target)
        self.generic_visit(node)

    def _check_adhoc_metrics(
        self, node: ast.AST, target: ast.expr
    ) -> None:
        """Flag ``other.stats.field op= ...`` outside storage/obs.

        An object updating its *own* counters (``self.stats.x += 1``)
        is the measured code maintaining its statistics — fine.
        Reaching into another object's stats (``db.disk.stats.reads
        += 1``) is ad-hoc metric emission that bypasses the observer
        and corrupts the accounting the spans reconcile against.
        Replacing a whole stats object (``db.disk.stats = DiskStats()``,
        a measurement reset) does not match: the target's *container*
        must be the ``.stats`` attribute itself.
        """
        if self.in_storage or self.in_obs:
            return
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Attribute)
            and target.value.attr == "stats"
        ):
            return
        base = target.value.value
        if isinstance(base, ast.Name) and base.id == "self":
            return
        self._emit(
            "code/adhoc-metrics",
            node,
            f"{_dotted(target) or target.attr}",
            "mutating another object's .stats bypasses repro.obs; "
            "emit through the observer hooks (db.obs / disk.observer) "
            "so span deltas and metric totals stay reconciled",
        )

    # -- raises -------------------------------------------------------
    def visit_Raise(self, node: ast.Raise) -> None:
        """Flag ``raise SimulatedCrash(...)`` outside ``repro/faults/``.

        A hand-rolled raise skips the injector: the crash point is
        invisible to the sweep, the buffer pool is not invalidated, and
        the observer never hears about it.  Crashes are injected by
        arming a :class:`~repro.faults.FaultInjector` with a plan.

        Also flags raising the :data:`MEDIA_ERROR_NAMES` family
        outside ``repro/media/`` and ``repro/storage/``: media failures
        originate at the verified read path (or its policy layer) so
        retries, repair, and quarantine apply everywhere uniformly.
        """
        exc = node.exc
        target = exc.func if isinstance(exc, ast.Call) else exc
        dotted = _dotted(target) if target is not None else None
        name = dotted.split(".")[-1] if dotted is not None else None
        if name == "SimulatedCrash" and not self.in_faults:
            self._emit(
                "code/crash-outside-faults",
                node,
                dotted,
                "raise SimulatedCrash bypasses the fault injector; arm "
                "a FaultInjector(FaultPlan(...)) so the crash point is "
                "sweepable and the pool is invalidated consistently",
            )
        if (
            name in MEDIA_ERROR_NAMES
            and not (self.in_media or self.in_storage)
        ):
            self._emit(
                "code/media-error-outside-media",
                node,
                dotted,
                f"raise {name} outside repro/media/ and repro/storage/ "
                "invents a media failure the retry/repair/quarantine "
                "policy never sees; surface it through the disk's "
                "verified read path or the MediaRecovery layer",
            )
        self.generic_visit(node)

    # -- comparisons --------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_cost_expr(left) or _is_cost_expr(right):
                names = [
                    _dotted(side) or type(side).__name__
                    for side in (left, right)
                ]
                self._emit(
                    "code/float-cost-eq",
                    node,
                    " == ".join(names),
                    "cost estimates are floats; exact equality is "
                    "fragile — compare with <, >, or math.isclose",
                )
        self.generic_visit(node)


def _parse_pragma(match: "re.Match[str]") -> Set[str]:
    return {
        name.strip() for name in match.group(1).split(",")
        if name.strip()
    }


def _allowed_rules(
    lines: Sequence[str], tree: Optional[ast.Module] = None
) -> Dict[int, Set[str]]:
    """``line number -> rule names`` from per-line allow-pragmas.

    With the parsed ``tree``, a pragma on the *opening* line of a
    multi-line **simple** statement (a call split across lines, a long
    assignment) covers every line of that statement via ``end_lineno``.
    Compound statements (``def``/``class``/``if``/``with``/...) are
    excluded so a pragma on their header can never blanket their body.
    """
    allowed: Dict[int, Set[str]] = {}
    for i, line in enumerate(lines, start=1):
        match = _PRAGMA.search(line)
        if match:
            allowed.setdefault(i, set()).update(_parse_pragma(match))
    if tree is not None and allowed:
        for stmt in ast.walk(tree):
            if not isinstance(stmt, ast.stmt) or isinstance(
                stmt,
                (
                    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                    ast.If, ast.For, ast.AsyncFor, ast.While, ast.With,
                    ast.AsyncWith, ast.Try, ast.Match,
                ),
            ):
                continue
            names = allowed.get(stmt.lineno)
            end = getattr(stmt, "end_lineno", None)
            if not names or end is None or end <= stmt.lineno:
                continue
            for covered in range(stmt.lineno + 1, end + 1):
                allowed.setdefault(covered, set()).update(names)
    return allowed


def _file_allowed_rules(lines: Sequence[str]) -> Set[str]:
    """Rules allowed for the whole module by ``allow-file`` pragmas."""
    allowed: Set[str] = set()
    for line in lines:
        match = _FILE_PRAGMA.search(line)
        if match:
            allowed.update(_parse_pragma(match))
    return allowed


def _matches(rule_id: str, names: Set[str]) -> bool:
    short = rule_id.split("/", 1)[-1]
    return rule_id in names or short in names or "*" in names


def _suppressed(
    finding: Finding,
    allowed: Dict[int, Set[str]],
    file_allowed: Optional[Set[str]] = None,
) -> bool:
    if file_allowed and _matches(finding.rule_id, file_allowed):
        return True
    if finding.line is None or finding.line not in allowed:
        return False
    return _matches(finding.rule_id, allowed[finding.line])


def lint_source(
    source: str,
    filename: str = "<string>",
    in_storage: bool = False,
    in_obs: bool = False,
    in_faults: bool = False,
    in_parallel: bool = False,
    in_media: bool = False,
    in_lsm: bool = False,
) -> List[Finding]:
    """Lint one module's source text; returns surviving findings."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [
            Finding(
                "code/syntax",
                Severity.ERROR,
                filename,
                f"cannot parse: {exc.msg}",
                file=filename,
                line=exc.lineno,
            )
        ]
    visitor = _Visitor(
        filename=filename, in_storage=in_storage, in_obs=in_obs,
        in_faults=in_faults, in_parallel=in_parallel, in_media=in_media,
        in_lsm=in_lsm,
    )
    visitor.visit(tree)
    lines = source.splitlines()
    allowed = _allowed_rules(lines, tree)
    file_allowed = _file_allowed_rules(lines)
    return [
        f for f in visitor.findings
        if not _suppressed(f, allowed, file_allowed)
    ]


def lint_tree(root: Path) -> List[Finding]:
    """Lint every ``*.py`` under ``root`` (the ``repro`` package dir).

    A file is "in storage" when any of its path components below
    ``root`` is the ``storage`` package — those modules implement the
    page API and may call it raw.
    """
    findings: List[Finding] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        in_storage = "storage" in rel.parts[:-1]
        in_obs = "obs" in rel.parts[:-1]
        in_faults = "faults" in rel.parts[:-1]
        in_parallel = "parallel" in rel.parts[:-1]
        in_media = "media" in rel.parts[:-1]
        in_lsm = "lsm" in rel.parts[:-1]
        findings.extend(
            lint_source(
                path.read_text(),
                filename=str(rel),
                in_storage=in_storage,
                in_obs=in_obs,
                in_faults=in_faults,
                in_parallel=in_parallel,
                in_media=in_media,
                in_lsm=in_lsm,
            )
        )
    return findings


def default_root() -> Path:
    """The installed ``repro`` package directory."""
    import repro

    return Path(repro.__file__).resolve().parent
