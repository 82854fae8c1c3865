"""Static lane-safety: shared-state mutation reachable from lanes.

Synthetic packages pin the detector (module-global writes, catalog
mutation, clock rewinds, ad hoc counters — each reachable from a
``LaneTask`` dispatch, directly or through a factory closure), and the
repo gate verifies the executor's lane regions, the recovery redo
region and the shard fragment region analyze clean.
"""

import textwrap
from pathlib import Path

from repro.analysis.code_lint import default_root
from repro.analysis.effects.callgraph import build_callgraph
from repro.analysis.effects.lanesafety import (
    LANE_RULE,
    OPAQUE_RULE,
    check_lane_safety,
    lane_entries,
)
from repro.analysis.effects.lattice import seed_effects


def lane_findings(tmp_path: Path, files: dict):
    root = tmp_path / "pkg"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    for sub in [root] + [d for d in root.rglob("*") if d.is_dir()]:
        if not (sub / "__init__.py").exists():
            (sub / "__init__.py").write_text("")
    graph = build_callgraph(root)
    seed_effects(graph, root)
    return check_lane_safety(graph)


LANES_MODULE = """
class LaneTask:
    def __init__(self, name, run):
        self.name = name
        self.run = run
"""


def test_global_mutation_reachable_from_factory_closure(tmp_path):
    # The ISSUE acceptance case: an injected shared-state mutation
    # reachable from a lane task (through a factory closure and a
    # helper hop) is flagged with its call chain.
    findings = lane_findings(
        tmp_path,
        {
            "lanes.py": LANES_MODULE,
            "exec.py": """
            from pkg.lanes import LaneTask

            COUNTER = 0

            def bump():
                global COUNTER
                COUNTER += 1

            def make_task():
                def run():
                    bump()
                    return COUNTER

                return run

            def submit():
                return [LaneTask("t", run=make_task())]
            """,
        },
    )
    hits = [f for f in findings if f.rule_id == LANE_RULE]
    assert len(hits) == 1
    assert hits[0].node == "pkg.exec.bump"
    assert "global.mutate" in hits[0].message
    assert (
        "exec.make_task.<locals>.run -> exec.bump" in hits[0].message
    )


def test_direct_function_dispatch_checked(tmp_path):
    findings = lane_findings(
        tmp_path,
        {
            "lanes.py": LANES_MODULE,
            "exec.py": """
            from pkg.lanes import LaneTask

            REGISTRY = {}

            def task():
                REGISTRY["k"] = 1

            def submit():
                return LaneTask("t", run=task)
            """,
        },
    )
    hits = [f for f in findings if f.rule_id == LANE_RULE]
    assert [f.node for f in hits] == ["pkg.exec.task"]
    assert "module-level container 'REGISTRY'" in hits[0].message


def test_adhoc_counter_mutation_flagged_outside_storage(tmp_path):
    findings = lane_findings(
        tmp_path,
        {
            "lanes.py": LANES_MODULE,
            "exec.py": """
            from pkg.lanes import LaneTask

            def task(sink):
                sink.stats.reads += 1

            def submit():
                return LaneTask("t", run=task)
            """,
        },
    )
    hits = [f for f in findings if f.rule_id == LANE_RULE]
    assert len(hits) == 1
    assert "metrics.mutate" in hits[0].message


def test_per_lane_accounting_in_storage_is_sanctioned(tmp_path):
    # The same counter mutation inside storage/ is the sanctioned
    # per-lane DiskStats surface.
    findings = lane_findings(
        tmp_path,
        {
            "lanes.py": LANES_MODULE,
            "storage/sink.py": """
            def charge(sink):
                sink.stats.reads += 1
            """,
            "exec.py": """
            from pkg.lanes import LaneTask
            from pkg.storage.sink import charge

            def task():
                charge(None)

            def submit():
                return LaneTask("t", run=task)
            """,
        },
    )
    assert [f for f in findings if f.rule_id == LANE_RULE] == []


def test_clean_task_produces_no_findings(tmp_path):
    findings = lane_findings(
        tmp_path,
        {
            "lanes.py": LANES_MODULE,
            "exec.py": """
            from pkg.lanes import LaneTask

            def pure(values):
                return sum(values)

            def submit():
                return LaneTask("t", run=pure)
            """,
        },
    )
    assert findings == []


def test_opaque_dispatch_warns(tmp_path):
    findings = lane_findings(
        tmp_path,
        {
            "lanes.py": LANES_MODULE,
            "exec.py": """
            from pkg.lanes import LaneTask

            def submit(callback):
                return LaneTask("t", run=callback)
            """,
        },
    )
    assert [f.rule_id for f in findings] == [OPAQUE_RULE]


# ---------------------------------------------------------------------------
# the repo gate: the real lane regions are clean
# ---------------------------------------------------------------------------
def test_real_repo_lane_regions_clean():
    root = default_root()
    graph = build_callgraph(root)
    seed_effects(graph, root)
    findings = check_lane_safety(graph)
    assert findings == [], "\n".join(f.render() for f in findings)
    # And not vacuously: all three dispatch sites resolved to entries
    # (the executor's stages dispatch ``Stage.apply`` directly), and
    # the walk from each reaches the bd primitives and, through them,
    # the one sweep kernel that writes leaves.
    assert len(graph.lane_dispatches) == 3
    assert sorted(d.kind for d in graph.lane_dispatches) == [
        "factory", "factory", "function",
    ]
    sweep = "repro.core.bulk_ops.bd_index_sort_merge"
    kernel = "repro.core.bulk_ops._sweep"
    for dispatch in graph.lane_dispatches:
        reached, queue = set(), lane_entries(graph, dispatch)
        while queue:
            qual = queue.pop()
            if qual not in reached:
                reached.add(qual)
                queue.extend(graph.callees(qual))
        assert sweep in reached and kernel in reached, dispatch
