"""The layering-contract engine: seeding, propagation, contracts.

The headline case (ISSUE acceptance): a helper inside ``faults/``
wraps ``raise SimulatedCrash``, and engine code outside ``faults/``
calls the helper.  The direct-call lint (``code/crash-outside-faults``)
sees no ``raise`` statement outside ``faults/`` and stays silent; the
effect engine propagates ``crash.raise`` through the wrapper and flags
the out-of-layer caller with the full call chain.

The final tests are the repo gate: the real tree has zero
non-baselined contract violations, and every baseline entry still
suppresses something.
"""

import textwrap
from pathlib import Path

from repro.analysis.code_lint import default_root, lint_source
from repro.analysis.effects import (
    STALE_BASELINE_RULE,
    analyze_effects,
    build_effect_graph,
)
from repro.analysis.effects.baseline import BaselineEntry
from repro.analysis.effects.contracts import EFFECT_RULES, check_contracts
from repro.analysis.effects.lattice import witness_chain


def make_pkg(tmp_path: Path, files: dict) -> Path:
    root = tmp_path / "pkg"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    for sub in [root] + [d for d in root.rglob("*") if d.is_dir()]:
        if not (sub / "__init__.py").exists():
            (sub / "__init__.py").write_text("")
    return root


LAUNDERING = {
    "faults/helpers.py": """
    class SimulatedCrash(Exception):
        pass

    def boom():
        # Inside faults/ — the direct-call lint allows this raise.
        raise SimulatedCrash("armed")
    """,
    "core/thing.py": """
    from pkg.faults.helpers import boom

    def sneaky():
        # No raise statement here: the line lint sees nothing, but
        # calling boom() reaches crash.raise transitively.
        return boom()
    """,
}


def test_wrapper_laundering_passes_direct_call_lint(tmp_path):
    root = make_pkg(tmp_path, LAUNDERING)
    findings = lint_source(
        (root / "core" / "thing.py").read_text(),
        filename="core/thing.py",
    )
    assert findings == []  # the case the line lint cannot see


def test_wrapper_laundering_caught_by_effect_engine(tmp_path):
    root = make_pkg(tmp_path, LAUNDERING)
    report = analyze_effects(root, baseline=())
    crash = [
        f
        for f in report.findings
        if f.rule_id == "effect/crash-confinement"
    ]
    assert len(crash) == 1
    finding = crash[0]
    assert finding.node == "pkg.core.thing.sneaky"
    assert finding.file == "core/thing.py"
    # The finding message carries the full call chain to the raise.
    assert "core.thing.sneaky -> faults.helpers.boom" in finding.message
    assert "raises SimulatedCrash" in finding.message


def test_effect_propagates_through_many_wrappers(tmp_path):
    root = make_pkg(
        tmp_path,
        {
            "faults/deep.py": """
            class SimulatedCrash(Exception):
                pass

            def level0():
                raise SimulatedCrash("x")
            """,
            "core/wrap.py": """
            from pkg.faults.deep import level0

            def level1():
                return level0()

            def level2():
                return level1()

            def level3():
                return level2()
            """,
        },
    )
    graph = build_effect_graph(root)
    assert "crash.raise" in graph.functions["pkg.core.wrap.level3"].effects
    chain = witness_chain(graph, "pkg.core.wrap.level3", "crash.raise")
    assert chain == [
        "pkg.core.wrap.level3",
        "pkg.core.wrap.level2",
        "pkg.core.wrap.level1",
        "pkg.faults.deep.level0",
    ]


def test_frontier_reporting_flags_entry_point_only(tmp_path):
    # Three analysis functions call each other then leak into a write;
    # only the innermost (where the effect enters the scope) is
    # flagged, not its whole in-scope caller tree.
    root = make_pkg(
        tmp_path,
        {
            "storage/disk.py": """
            class SimulatedDisk:
                def write_page(self, pid, data):
                    return None
            """,
            "analysis/stack.py": """
            def inner():
                self_disk = None
                disk.write_page(1, b"")

            def middle():
                inner()

            def outer():
                middle()
            """,
        },
    )
    report = analyze_effects(root, baseline=())
    pure = [
        f
        for f in report.findings
        if f.rule_id == "effect/analysis-pure"
    ]
    assert [f.node for f in pure] == ["pkg.analysis.stack.inner"]


def test_barrier_absorbs_effect(tmp_path):
    # read_page raising a media error is the sanctioned fault surface:
    # its callers must NOT inherit media_error.raise.
    root = make_pkg(
        tmp_path,
        {
            "storage/disk.py": """
            class ChecksumMismatch(Exception):
                pass

            class SimulatedDisk:
                def read_page(self, pid):
                    raise ChecksumMismatch(pid)
            """,
            "core/reader.py": """
            def read_all(disk):
                disk.read_page(0)
            """,
        },
    )
    graph = build_effect_graph(root)
    raw = graph.functions["pkg.storage.disk.SimulatedDisk.read_page"]
    caller = graph.functions["pkg.core.reader.read_all"]
    assert "media_error.raise" in raw.effects
    assert "media_error.raise" not in caller.effects


def test_exempt_prefix_not_flagged(tmp_path):
    root = make_pkg(
        tmp_path,
        {
            "faults/own.py": """
            class SimulatedCrash(Exception):
                pass

            def trip():
                raise SimulatedCrash("fine here")
            """,
        },
    )
    report = analyze_effects(root, baseline=())
    assert [
        f
        for f in report.findings
        if f.rule_id == "effect/crash-confinement"
    ] == []


def test_bench_reading_host_time_is_a_finding(tmp_path):
    # No package is exempt from wall-clock confinement: the bench
    # harness reports simulated time only.
    root = make_pkg(
        tmp_path,
        {
            "bench/timing.py": """
            import time

            def stopwatch():
                return time.perf_counter()

            def run():
                return stopwatch()
            """,
        },
    )
    report = analyze_effects(root, baseline=())
    assert [
        f.node
        for f in report.findings
        if f.rule_id == "effect/wall-clock-confinement"
    ] == ["pkg.bench.timing.stopwatch"]


def test_wrapper_around_expovariate_is_a_finding(tmp_path):
    # The effect lattice reads the line lint's table of global-RNG
    # functions, so every one of them seeds ``rng`` behind a wrapper.
    root = make_pkg(
        tmp_path,
        {
            "workload/arrivals.py": """
            import random

            def jitter():
                return random.expovariate(2.0)

            def next_arrival(now):
                return now + jitter()
            """,
        },
    )
    report = analyze_effects(root, baseline=())
    assert [
        f.node
        for f in report.findings
        if f.rule_id == "effect/no-global-rng"
    ] == ["pkg.workload.arrivals.jitter"]


def test_baseline_suppresses_and_reports(tmp_path):
    root = make_pkg(tmp_path, LAUNDERING)
    entry = BaselineEntry(
        rule_id="effect/crash-confinement",
        qualname="core.thing.sneaky",
        reason="test fixture",
    )
    report = analyze_effects(root, baseline=(entry,))
    assert [
        f
        for f in report.findings
        if f.rule_id == "effect/crash-confinement"
    ] == []
    assert any(
        f.rule_id == "effect/crash-confinement"
        for f in report.suppressed
    )


def test_stale_baseline_entry_is_an_error(tmp_path):
    root = make_pkg(
        tmp_path,
        {"core/quiet.py": "def nothing():\n    return 0\n"},
    )
    entry = BaselineEntry(
        rule_id="effect/crash-confinement",
        qualname="core.gone.function",
        reason="the code this excused was deleted",
    )
    report = analyze_effects(root, baseline=(entry,))
    stale = [
        f for f in report.findings if f.rule_id == STALE_BASELINE_RULE
    ]
    assert len(stale) == 1
    assert "core.gone.function" in stale[0].node


def test_contract_table_reexpresses_line_lint_rules():
    # The four direct-call confinement rules all have a reachability
    # counterpart, plus the contracts the line lint cannot express.
    assert {
        "effect/crash-confinement",
        "effect/clock-rewind-confinement",
        "effect/media-error-confinement",
        "effect/metrics-confinement",
        "effect/analysis-pure",
        "effect/obs-passive",
        "effect/planner-estimates-pure",
        "effect/no-global-rng",
        "effect/wall-clock-confinement",
    } <= set(EFFECT_RULES)
    for entry in EFFECT_RULES.values():
        assert entry.description
        assert entry.forbid


# ---------------------------------------------------------------------------
# the repo gate
# ---------------------------------------------------------------------------
def test_real_repo_zero_nonbaselined_violations():
    report = analyze_effects(default_root())
    assert report.findings == [], "\n".join(
        f.render() for f in report.findings
    )


def test_real_repo_baseline_all_used():
    # Covered by the stale-baseline error in the gate above, but pin
    # it separately so a failure names the mechanism.
    report = analyze_effects(default_root())
    assert not [
        f
        for f in report.findings
        if f.rule_id == STALE_BASELINE_RULE
    ]
    assert report.suppressed  # the baseline is earning its keep


def test_real_repo_planner_estimators_are_pure():
    graph = build_effect_graph(default_root())
    for name in (
        "estimate_horizontal_ms",
        "estimate_vertical_ms",
        "estimate_vertical_parallel_ms",
    ):
        node = graph.functions[f"repro.core.planner.{name}"]
        assert not node.effects & {
            "disk.read",
            "disk.write",
            "wal.append",
            "clock.advance",
            "clock.rewind",
        }, (name, node.effects)


def test_real_repo_core_paths_carry_io_effects():
    # Sanity against silent under-approximation: if the engine stopped
    # seeing I/O in the executor, every contract above would pass
    # vacuously.
    graph = build_effect_graph(default_root())
    bulk = graph.functions["repro.core.executor.bulk_delete"]
    assert {"disk.read", "disk.write", "wal.append"} <= bulk.effects
