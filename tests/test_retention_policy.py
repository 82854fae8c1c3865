"""Tests for the retention policy compiler (repro.retention.policy).

The headline property (a PR satellite): compilation is deterministic —
the same policy against the same catalog produces a byte-identical DAG
and EXPLAIN text across independent builds, subject-key orderings and
hash seeds.  Hypothesis drives the scenario shape; nothing in the
compiler may depend on set/dict iteration order.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro import Attribute, Database, TableSchema
from repro.analysis.plan_lint import lint_retention_plan
from repro.core.integrity import ConstraintRegistry, OnDelete
from repro.errors import IntegrityViolationError, PlanningError
from repro.faults.sweep import capture_state
from repro.retention import (
    RetentionPolicy,
    RetentionScenario,
    compile_policy,
)


def _dag_fingerprint(case):
    """Everything order-sensitive about the compiled plans."""
    plans = case.compile()
    explains = "\n\n".join(plan.explain() for plan in plans)
    nodes = [
        (n.table, n.column, n.keys, n.action, n.engine, n.via)
        for plan in plans
        for n in plan.nodes
    ]
    coverage = [
        (tuple(plan.reachable), tuple(plan.restricted), tuple(plan.checked))
        for plan in plans
    ]
    return explains, nodes, coverage


scenario_strategy = st.builds(
    RetentionScenario,
    users=st.integers(min_value=3, max_value=9),
    victims=st.integers(min_value=1, max_value=2),
    orders_per_user=st.integers(min_value=1, max_value=3),
    expired_orders=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=1000),
)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenario_strategy)
def test_compiler_is_deterministic(scenario):
    # Two fully independent builds of the same catalog + policies must
    # compile to byte-identical DAGs and EXPLAIN text.
    assert _dag_fingerprint(scenario.build()) == _dag_fingerprint(
        scenario.build()
    )


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenario_strategy, data=st.data())
def test_subject_key_order_is_irrelevant(scenario, data):
    # The subject list is a *set*: any permutation compiles to the
    # same plan (keys are sorted, nodes keyed by (table, column, action)).
    case = scenario.build()
    policy = case.policies[0]
    shuffled = data.draw(st.permutations(list(policy.subject_keys)))
    reordered = RetentionPolicy(
        policy.name, policy.table, policy.column,
        subject_keys=tuple(shuffled),
    )
    assert (
        compile_policy(case.db, case.registry, reordered).explain()
        == compile_policy(case.db, case.registry, policy).explain()
    )


def test_policy_requires_exactly_one_victim_form():
    with pytest.raises(PlanningError):
        RetentionPolicy("p", "users", "UID")
    with pytest.raises(PlanningError):
        RetentionPolicy("p", "users", "UID", subject_keys=(1,), cutoff=2)


def test_restrict_violation_aborts_at_compile_time():
    case = RetentionScenario().build()
    before = capture_state(case.db)
    uid_idx = case.db.table("users").schema.column_index("UID")
    survivor = next(
        values[uid_idx]
        for _, values in case.db.scan("users")
        if values[uid_idx] not in set(case.victims)
    )
    policy = RetentionPolicy(
        "restricted", "users", "UID", subject_keys=(survivor,)
    )
    with pytest.raises(IntegrityViolationError):
        compile_policy(case.db, case.registry, policy)
    # Compile-time abort: nothing durable happened, nothing to undo.
    assert capture_state(case.db) == before


def test_clean_restrict_tables_are_excluded_from_coverage():
    case = RetentionScenario().build()
    plan = compile_policy(case.db, case.registry, case.policies[0])
    assert "audits" in plan.restricted
    assert all(node.table != "audits" for node in plan.nodes)
    # Children-first: every CASCADE child node precedes the root node.
    order = [node.table for node in plan.nodes]
    assert order.index("orders") < order.index("users")
    assert order.index("events") < order.index("users")


@pytest.mark.parametrize("mutate", [
    lambda nodes: nodes[1:],  # a table left uncovered
    lambda nodes: nodes + nodes[:1],  # a table covered twice
], ids=["dropped-node", "duplicated-node"])
def test_retention_coverage_lint(mutate):
    case = RetentionScenario().build()
    plans = case.compile()
    assert all(lint_retention_plan(p, db=case.db) == [] for p in plans)
    broken = plans[0]
    broken.nodes = mutate(list(broken.nodes))
    assert "plan/retention-coverage" in {
        f.rule_id for f in lint_retention_plan(broken, db=case.db)
    }


def test_cascade_cycle_is_rejected():
    db = Database(page_size=512, memory_bytes=32 * 512)
    for name in ("A", "B"):
        db.create_table(TableSchema.of(name, [Attribute.int_("X")]))
        db.load_table(name, [(1,), (2,)])
        db.create_index(name, "X")
    registry = ConstraintRegistry(db)
    registry.add_foreign_key("B", "X", "A", "X", OnDelete.CASCADE)
    registry.add_foreign_key("A", "X", "B", "X", OnDelete.CASCADE)
    with pytest.raises(PlanningError, match="cycle"):
        compile_policy(
            db, registry,
            RetentionPolicy("loop", "A", "X", subject_keys=(1,)),
        )


def test_lsm_root_must_use_its_key_column():
    case = RetentionScenario().build()
    with pytest.raises(PlanningError, match="key column"):
        compile_policy(
            case.db, case.registry,
            RetentionPolicy(
                "bad", "events", "EPAYLOAD", cutoff=1,
            ),
        )


def test_cascade_must_follow_the_delete_column():
    case = RetentionScenario().build()
    with pytest.raises(PlanningError, match="delete column"):
        compile_policy(
            case.db, case.registry,
            RetentionPolicy("bad", "users", "REGION", subject_keys=(100,)),
        )
