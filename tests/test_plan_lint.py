"""Gate tests for the static plan linter (repro.analysis.plan_lint).

Planner output must lint clean; hand-corrupted plans must each trip
the rule that guards the violated paper invariant; the executor must
refuse to run an ERROR-severity plan.
"""

import copy

import pytest

from repro import Database
from repro.analysis.findings import Severity, errors
from repro.analysis.plan_lint import PLAN_RULES, lint_plan
from repro.analysis.selfcheck import check_planner_output, iter_case_plans
from repro.core.executor import bulk_delete, execute_plan, validate_plan
from repro.core.planner import choose_plan
from repro.core.plans import (
    TABLE_TARGET,
    BdMethod,
    BdPredicate,
    BulkDeletePlan,
    StepPlan,
)
from repro.errors import PlanValidationError
from tests.conftest import populate


def fresh(**kw):
    db = Database(page_size=512, memory_bytes=64 * 1024)
    values = populate(db, n=300, **kw)
    return db, values


def plan_on_b(db, n_deletes=60):
    """Delete on B: driving index I_R_B, unique secondary I_R_A."""
    return choose_plan(db, "R", "B", n_deletes, force_vertical=True)


def rule_ids(findings):
    return {f.rule_id for f in findings}


# ---------------------------------------------------------------------------
# clean planner output
# ---------------------------------------------------------------------------
def test_planner_output_is_clean():
    db, _ = fresh()
    plan = choose_plan(db, "R", "A", 60, force_vertical=True)
    assert lint_plan(plan, db) == []


def test_planner_output_clean_across_corpus():
    """Every representative planner choice lints free of errors."""
    assert check_planner_output(errors_only=True) == []


def test_corpus_covers_every_method():
    methods = set()
    for _case, _db, plan in iter_case_plans():
        methods |= {s.method for s in plan.steps}
    assert methods == set(BdMethod)


def test_structural_rules_work_without_db():
    db, _ = fresh()
    plan = plan_on_b(db)
    # No catalog: only structural rules run; planner output still clean.
    assert errors(lint_plan(plan)) == []


# ---------------------------------------------------------------------------
# corrupted plans trip the intended rule
# ---------------------------------------------------------------------------
def test_table_before_unique_index_trips_unique_first():
    db, _ = fresh()
    plan = plan_on_b(db)
    unique_steps = [
        s for s in plan.index_steps() if s.target == "I_R_A"
    ]
    assert unique_steps and plan.steps_before_table(), (
        "fixture expects the planner to schedule the unique index first"
    )
    bad = copy.deepcopy(plan)
    step = next(s for s in bad.steps if s.target == "I_R_A")
    bad.steps.remove(step)
    bad.steps.append(step)  # now after the base table
    findings = errors(lint_plan(bad, db))
    assert "plan/unique-index-first" in rule_ids(findings)


def test_skipped_index_trips_coverage():
    db, _ = fresh()
    plan = plan_on_b(db)
    bad = copy.deepcopy(plan)
    bad.steps = [s for s in bad.steps if s.target != "I_R_A"]
    findings = errors(lint_plan(bad, db))
    assert "plan/exactly-once-coverage" in rule_ids(findings)


def test_duplicated_index_step_trips_coverage():
    db, _ = fresh()
    plan = plan_on_b(db)
    bad = copy.deepcopy(plan)
    bad.steps.append(copy.deepcopy(bad.steps[0]))
    findings = errors(lint_plan(bad, db))
    assert "plan/exactly-once-coverage" in rule_ids(findings)


def test_unknown_target_trips_coverage():
    db, _ = fresh()
    bad = copy.deepcopy(plan_on_b(db))
    bad.steps.append(
        StepPlan("I_R_GHOST", BdMethod.SORT_MERGE, BdPredicate.KEY)
    )
    findings = errors(lint_plan(bad, db))
    assert "plan/exactly-once-coverage" in rule_ids(findings)


def test_sort_skip_on_unclustered_driving_index():
    db, _ = fresh()  # no clustered index anywhere
    bad = copy.deepcopy(plan_on_b(db))
    bad.sort_rid_list = False
    findings = errors(lint_plan(bad, db))
    assert "plan/clustered-skip-sort" in rule_ids(findings)


def test_clustered_driving_index_skips_sort_clean():
    db, _ = fresh(clustered_on="B")
    plan = plan_on_b(db)
    assert plan.sort_rid_list is False
    assert errors(lint_plan(plan, db)) == []


def test_redundant_sort_on_clustered_is_warning():
    db, _ = fresh(clustered_on="B")
    bad = copy.deepcopy(plan_on_b(db))
    bad.sort_rid_list = True
    findings = lint_plan(bad, db)
    assert errors(findings) == []
    assert "plan/clustered-skip-sort" in rule_ids(findings)


def test_hash_method_over_memory_budget():
    db, _ = fresh()
    plan = choose_plan(db, "R", "A", 60, prefer_method=BdMethod.HASH,
                       force_vertical=True)
    bad = copy.deepcopy(plan)
    # Pretend the delete list is far larger than the budget allows.
    bad.n_deletes = db.memory_bytes  # * 16 bytes/entry >> budget
    findings = errors(lint_plan(bad, db))
    assert "plan/hash-memory-budget" in rule_ids(findings)


def test_nested_loops_inside_vertical_plan():
    db, _ = fresh()
    bad = copy.deepcopy(plan_on_b(db))
    bad.table_step().method = BdMethod.NESTED_LOOPS
    findings = errors(lint_plan(bad, db))
    assert "plan/nested-loops-vertical-mix" in rule_ids(findings)


def test_missing_driving_step_trips_driving_first():
    bad = BulkDeletePlan(
        table_name="R",
        column="B",
        driving_index="I_R_B",
        steps=[StepPlan(TABLE_TARGET, BdMethod.SORT_MERGE,
                        BdPredicate.RID)],
        sort_rid_list=True,
    )
    findings = errors(lint_plan(bad))
    ids = rule_ids(findings)
    assert "plan/driving-index-first" in ids
    assert "plan/dag-shape" in ids  # the DAG cannot even be built


def test_pre_table_key_probe_is_rejected():
    db, _ = fresh()
    bad = copy.deepcopy(plan_on_b(db))
    pre = next(
        s for s in bad.steps_before_table() if s.target == "I_R_A"
    )
    pre.predicate = BdPredicate.KEY
    findings = errors(lint_plan(bad, db))
    assert "plan/pre-table-rid-probe" in rule_ids(findings)


def test_offline_index_is_rejected():
    db, _ = fresh()
    plan = plan_on_b(db)
    db.table("R").index("I_R_A").set_offline()
    findings = errors(lint_plan(plan, db))
    assert "plan/offline-index" in rule_ids(findings)


@pytest.mark.parametrize("memory_kib", [64, 256, 1024])
def test_no_horizontal_plan_without_an_index_on_the_delete_column(memory_kib):
    """Two keys against 800 rows favour record-at-a-time, but with no
    index on A that plan cannot run: the planner plans vertically."""
    from repro.sql.interpreter import SqlSession

    db = Database(page_size=512, memory_bytes=memory_kib * 1024)
    session = SqlSession(db)
    session.execute("CREATE TABLE R (A INT, B INT)")
    rows = ", ".join(f"({i}, {i * 7 % 800})" for i in range(800))
    session.execute(f"INSERT INTO R VALUES {rows}")
    session.execute("CREATE INDEX ib ON R (B)")
    plan = choose_plan(db, "R", "A", 2)
    assert not (len(plan.steps) == 1 and plan.steps[0].is_table
                and plan.steps[0].method is BdMethod.NESTED_LOOPS)
    result = session.execute("DELETE FROM R WHERE A IN (2, -1)")
    assert result.affected == 1
    assert len(session.execute("SELECT * FROM R").rows) == 799


def test_horizontal_plan_without_an_index_is_rejected():
    db = Database(page_size=512, memory_bytes=64 * 1024)
    populate(db, n=300, indexes=("B",))
    plan = BulkDeletePlan(
        table_name="R", column="A", driving_index=None, n_deletes=2,
        steps=[StepPlan(TABLE_TARGET, BdMethod.NESTED_LOOPS,
                        BdPredicate.KEY)],
    )
    findings = errors(lint_plan(plan, db))
    assert "plan/horizontal-needs-index" in rule_ids(findings)
    db.create_index("R", "A")
    assert "plan/horizontal-needs-index" not in rule_ids(lint_plan(plan, db))


def test_missing_table_step():
    db, _ = fresh()
    bad = copy.deepcopy(plan_on_b(db))
    bad.steps = [s for s in bad.steps if not s.is_table]
    findings = errors(lint_plan(bad, db))
    assert "plan/table-step" in rule_ids(findings)


# ---------------------------------------------------------------------------
# executor wiring
# ---------------------------------------------------------------------------
def corrupt_unique_last(db):
    plan = plan_on_b(db)
    bad = copy.deepcopy(plan)
    step = next(s for s in bad.steps if s.target == "I_R_A")
    bad.steps.remove(step)
    bad.steps.append(step)
    return bad


def test_execute_plan_rejects_error_plans():
    db, values = fresh()
    bad = corrupt_unique_last(db)
    keys = values["B"][:40]
    before_ms = db.clock.now_ms
    with pytest.raises(PlanValidationError) as exc_info:
        execute_plan(db, bad, keys)
    assert any(
        f.rule_id == "plan/unique-index-first"
        for f in exc_info.value.findings
    )
    # No simulated time may have been charged for the rejected plan.
    assert db.clock.now_ms == before_ms  # lint: allow(float-cost-eq)


def test_bulk_delete_rejects_corrupt_caller_plan():
    db, values = fresh()
    bad = corrupt_unique_last(db)
    with pytest.raises(PlanValidationError):
        bulk_delete(db, "R", "B", values["B"][:40], plan=bad)


def test_validate_false_bypasses_the_gate():
    db, values = fresh()
    bad = corrupt_unique_last(db)
    result = execute_plan(db, bad, values["B"][:40], validate=False)
    assert result.records_deleted == 40


def test_validate_plan_passes_clean_plans():
    db, _ = fresh()
    validate_plan(db, plan_on_b(db))  # must not raise


def test_explain_appends_lint_report():
    from repro.sql.interpreter import SqlSession

    db, values = fresh()
    session = SqlSession(db, force_vertical=True)
    keys = ",".join(str(k) for k in values["B"][:20])
    result = session.execute(
        f"EXPLAIN DELETE FROM R WHERE B IN ({keys});"
    )
    assert "plan lint: clean" in result.text


# ---------------------------------------------------------------------------
# registry hygiene
# ---------------------------------------------------------------------------
def test_every_rule_has_description():
    assert PLAN_RULES, "no plan rules registered"
    for rule_id, rule in PLAN_RULES.items():
        assert rule_id.startswith("plan/")
        assert rule.description


def test_findings_are_sorted_errors_first():
    db, _ = fresh()
    bad = copy.deepcopy(plan_on_b(db))
    bad.steps = [s for s in bad.steps if s.target != "I_R_A"]
    bad.sort_rid_list = False  # second error + possibly warnings
    findings = lint_plan(bad, db)
    severities = [f.severity for f in findings]
    first_warning = next(
        (i for i, s in enumerate(severities) if s is Severity.WARNING),
        len(severities),
    )
    assert all(
        s is not Severity.ERROR for s in severities[first_warning:]
    )
