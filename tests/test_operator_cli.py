"""Tests for the logical operator DAG and the CLI."""

import inspect
import typing

import pytest

from repro import Database
from repro.bench import experiments
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.harness import Series
from repro.cli import main as cli_main
from repro.core.operator import OpNode, build_dag, render_plan_dag
from repro.core.planner import choose_plan
from repro.core.plans import BdMethod
from tests.conftest import populate


@pytest.fixture
def plan_db(db):
    populate(db, n=300)
    db.create_index("R", "B", name="uniq_b", unique=True)
    return db


def test_opnode_render_tree():
    root = OpNode("root")
    a = root.add(OpNode("a"))
    a.add(OpNode("a1"))
    a.add(OpNode("a2"))
    root.add(OpNode("b"))
    text = "\n".join(root.render())
    assert "|- a" in text or "'- a" in text
    assert "a1" in text and "a2" in text and "b" in text


def test_dag_mirrors_figure_3(plan_db):
    plan = choose_plan(plan_db, "R", "A", 100, force_vertical=True)
    text = render_plan_dag(plan)
    # Driving index feeds a RID list that feeds the table, whose output
    # splits into the remaining indexes.
    assert text.index("I_R_A") < text.index("RID list")
    assert text.index("RID list") < text.index("bd[sort-merge/rid] R")
    assert "I_R_B" in text
    assert "sort_A(D)" in text


def test_dag_hash_plan_mentions_hash(plan_db):
    plan = choose_plan(
        plan_db, "R", "A", 100,
        prefer_method=BdMethod.HASH, force_vertical=True,
    )
    text = render_plan_dag(plan)
    assert "hash(RID list)" in text


def test_dag_without_driving_index():
    db = Database(page_size=512, memory_bytes=64 * 1024)
    populate(db, n=200, indexes=("A",))
    plan = choose_plan(db, "R", "B", 50, force_vertical=True)
    text = render_plan_dag(plan)
    assert "scan(R)" in text
    assert "no index on B" in text


def test_dag_unique_index_fed_by_rids(plan_db):
    # Delete on A: uniq_b is processed before the table via RID probe.
    plan = choose_plan(plan_db, "R", "A", 100, force_vertical=True)
    text = render_plan_dag(plan)
    assert "uniq_b" in text
    assert text.index("uniq_b") < text.index("bd[sort-merge/rid] R")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_sql_script(tmp_path, capsys):
    script = tmp_path / "s.sql"
    script.write_text(
        "CREATE TABLE t (a INT);"
        "INSERT INTO t VALUES (5), (6);"
        "SELECT a FROM t ORDER BY a;"
    )
    assert cli_main(["sql", str(script)]) == 0
    out = capsys.readouterr().out
    assert "table t created" in out
    assert "(2 rows)" in out


def test_cli_experiment_unknown(capsys):
    assert cli_main(["experiment", "figure_42"]) == 2
    assert "unknown experiment" in capsys.readouterr().out


def test_cli_experiment_runs_small(capsys):
    assert cli_main(["experiment", "table_1", "--records", "1200"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "bulk" in out


def test_cli_demo(capsys):
    assert cli_main(["demo", "--records", "1200"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "bd[sort-merge]" in out


def test_every_experiment_function_is_registered():
    """``experiment <name>`` and ``experiment all`` reach every figure."""
    functions = {
        name: fn
        for name, fn in inspect.getmembers(experiments, inspect.isfunction)
        if fn.__module__ == experiments.__name__
        and name.startswith(("figure_", "fig_", "table_"))
        and typing.get_type_hints(fn).get("return") is Series
    }
    assert "fig_retention_overhead" in functions
    assert ALL_EXPERIMENTS == functions


@pytest.mark.parametrize("argv", [
    "lsm --records 200",
    "shard --records 400",
    "oltp --records 400 --sessions 3 --ops 10",
    "scrub --records 24",
])
def test_cli_subsystem_demos_run_small(argv, capsys):
    assert cli_main(argv.split()) == 0
    assert capsys.readouterr().out
