"""Call-graph construction for the effect engine.

Synthetic mini-packages in ``tmp_path`` pin each resolution mechanism
(direct calls, annotated receivers, known aliases, constructor typing,
fluent chains, deferred imports, lane-dispatch discovery); the final
test builds the graph over the real tree and pins coarse shape
invariants so refactors that break resolution are visible.
"""

import textwrap
from pathlib import Path

from repro.analysis.code_lint import default_root
from repro.analysis.effects.callgraph import build_callgraph


def make_pkg(tmp_path: Path, files: dict) -> Path:
    root = tmp_path / "pkg"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    for sub in root.rglob("*"):
        if sub.is_dir() and not (sub / "__init__.py").exists():
            (sub / "__init__.py").write_text("")
    if not (root / "__init__.py").exists():
        (root / "__init__.py").write_text("")
    return root


def test_direct_and_method_calls(tmp_path):
    root = make_pkg(
        tmp_path,
        {
            "a.py": """
            def helper():
                return 1

            class Engine:
                def go(self):
                    return helper()

            def drive(engine: Engine):
                engine.go()
            """,
        },
    )
    graph = build_callgraph(root)
    assert graph.callees("pkg.a.Engine.go") == {"pkg.a.helper"}
    assert graph.callees("pkg.a.drive") == {"pkg.a.Engine.go"}


def test_cross_module_import_resolution(tmp_path):
    root = make_pkg(
        tmp_path,
        {
            "util.py": """
            def compute():
                return 2
            """,
            "main.py": """
            from pkg.util import compute

            def run():
                return compute()
            """,
        },
    )
    graph = build_callgraph(root)
    assert graph.callees("pkg.main.run") == {"pkg.util.compute"}


def test_function_local_import_resolution(tmp_path):
    # Deferred imports inside a body (cycle breakers) must resolve.
    root = make_pkg(
        tmp_path,
        {
            "late.py": """
            def target():
                return 3
            """,
            "caller.py": """
            def run():
                from pkg.late import target

                return target()
            """,
        },
    )
    graph = build_callgraph(root)
    assert graph.callees("pkg.caller.run") == {"pkg.late.target"}


def test_known_alias_attribute_receiver(tmp_path):
    # `self.disk` resolves through the known-aliases table even with
    # no annotation anywhere.
    root = make_pkg(
        tmp_path,
        {
            "storage/disk.py": """
            class SimulatedDisk:
                def read_page(self, pid):
                    return pid
            """,
            "engine.py": """
            class Runner:
                def step(self):
                    self.disk.read_page(1)
            """,
        },
    )
    graph = build_callgraph(root)
    assert graph.callees("pkg.engine.Runner.step") == {
        "pkg.storage.disk.SimulatedDisk.read_page"
    }


def test_constructor_assignment_types_local(tmp_path):
    root = make_pkg(
        tmp_path,
        {
            "w.py": """
            class Widget:
                def spin(self):
                    return 1

            def use():
                w = Widget()
                w.spin()
            """,
        },
    )
    graph = build_callgraph(root)
    assert "pkg.w.Widget.spin" in graph.callees("pkg.w.use")


def test_fluent_constructor_call_receiver(tmp_path):
    # `Widget().spin()` — a Call receiver — must NOT fall back to
    # name-matching (which would union every `spin` in the package).
    root = make_pkg(
        tmp_path,
        {
            "w.py": """
            class Widget:
                def spin(self):
                    return 1

            class Unrelated:
                def spin(self):
                    return 2

            def use():
                Widget().spin()
            """,
        },
    )
    graph = build_callgraph(root)
    assert graph.callees("pkg.w.use") == {"pkg.w.Widget.spin"}


def test_protocol_typed_receiver_dispatches_to_the_implementers(tmp_path):
    # The stub is no one's body: an edge to it would launder every
    # effect of the real implementations out of the caller.
    root = make_pkg(
        tmp_path,
        {
            "k.py": """
            from typing import Protocol, TypeVar

            C = TypeVar("C")

            class Scenario(Protocol[C]):
                def issue(self):
                    ...

            class Heap:
                def issue(self):
                    return 1

            class Lsm:
                def issue(self):
                    return 2

            def sweep(scenario: "Scenario[C]", other: Scenario):
                scenario.issue()
                other.issue()
            """,
        },
    )
    graph = build_callgraph(root)
    assert graph.callees("pkg.k.sweep") == {
        "pkg.k.Heap.issue", "pkg.k.Lsm.issue",
    }


def test_ambiguous_method_names_stay_unresolved(tmp_path):
    # `.append` on an untyped receiver must not connect to an in-repo
    # class that happens to define `append`.
    root = make_pkg(
        tmp_path,
        {
            "log.py": """
            class Journal:
                def append(self, entry):
                    return entry

            def collect(items):
                out = []
                for item in items:
                    out.append(item)
                return out
            """,
        },
    )
    graph = build_callgraph(root)
    node = graph.functions["pkg.log.collect"]
    assert node.calls == set()
    assert node.unresolved >= 1


def test_nested_closures_get_own_nodes(tmp_path):
    root = make_pkg(
        tmp_path,
        {
            "f.py": """
            def leaf():
                return 9

            def factory():
                def run():
                    return leaf()

                return run
            """,
        },
    )
    graph = build_callgraph(root)
    assert "pkg.f.factory.<locals>.run" in graph.functions
    assert graph.callees("pkg.f.factory.<locals>.run") == {"pkg.f.leaf"}
    assert graph.nested_functions("pkg.f.factory") == [
        "pkg.f.factory.<locals>.run"
    ]


def test_lane_dispatch_sites_recorded(tmp_path):
    root = make_pkg(
        tmp_path,
        {
            "lanes.py": """
            class LaneTask:
                def __init__(self, name, run):
                    self.name = name
                    self.run = run
            """,
            "exec.py": """
            from pkg.lanes import LaneTask

            def work():
                return 1

            def make_task():
                def run():
                    return work()

                return run

            def submit():
                direct = LaneTask("d", run=work)
                via_factory = LaneTask("f", run=make_task())
                return direct, via_factory
            """,
        },
    )
    graph = build_callgraph(root)
    kinds = {(d.kind, d.entry) for d in graph.lane_dispatches}
    assert ("function", "pkg.exec.work") in kinds
    assert ("factory", "pkg.exec.make_task") in kinds


def test_real_tree_shape():
    graph = build_callgraph(default_root())
    # Coarse shape pins: resolution collapsing would crater the edge
    # count long before anything else noticed.
    assert len(graph.functions) > 700
    assert sum(len(n.calls) for n in graph.functions.values()) > 1200
    # The executor's one dispatch site (both regions hand stages to
    # lanes through it) + restart's redo region + the sharded
    # executor's fragment region.
    assert {(d.kind, d.entry) for d in graph.lane_dispatches} == {
        ("function", "repro.core.stages.Stage.apply"),
        ("factory",
         "repro.recovery.restart.RecoverableBulkDelete._make_lane_stage"),
        ("factory", "repro.shard.executor._make_fragment_task"),
    }
    assert len(graph.lane_dispatches) == 3
