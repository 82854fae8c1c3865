"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``sql [script.sql]`` — run a SQL script against a fresh in-memory
  database, or start an interactive shell (``EXPLAIN DELETE ...`` shows
  plans; ``\\stats`` prints I/O counters; ``\\quit`` exits),
* ``experiment <name>`` — regenerate one of the paper's figures/tables
  (``figure_1``, ``figure_7``, ``figure_8``, ``table_1``, ``figure_9``,
  ``figure_10``, or ``all``),
* ``demo`` — a one-minute tour: build a workload, show the plan, run
  the bulk delete and the traditional baseline,
* ``trace`` — run a traced bulk delete (a generated workload, or the
  planner self-check corpus with ``--selfcheck``) and export the
  per-operator spans as JSON (``docs/trace_schema.json``) or text,
* ``oltp`` — the live-traffic interference harness: seeded multi-
  session OLTP traffic (point reads, pad updates, inserts) runs
  concurrently with a bulk delete on one simulated clock, and the
  per-session latency histograms plus the stall-attribution report
  quantify the interference (``--strategy sidefile|chunked|both``;
  ``--selfcheck`` asserts the methodology's invariants end to end;
  see :mod:`repro.workload.traffic` and ``docs/workloads.md``),
* ``faultsweep`` — the crash sweeps of ``docs/fault_injection.md``:
  crash a recoverable bulk delete after every durable event (WAL
  force / page write), restart, and assert the result matches the
  fault-free oracle.  ``--shards K``, ``--lsm`` and ``--retention``
  pick the sharded statement sequence, the LSM engine or the retention
  run instead of the heap table; a flag the chosen scenario does not
  read (``--lsm --lanes 4``) is a usage error,
* ``shard`` — range-sharded bulk delete: route a delete list across
  key-range shards (each with its own heap and indexes) and run the
  fragments as independent lane tasks (``--lanes``, ``--shards``);
  ``--selfcheck`` asserts exact-once routing, 1-shard bit-identity
  with the unsharded executor, lane speedup, exact rollup
  reconciliation, and hot-range taming (see :mod:`repro.shard` and
  ``docs/sharding.md``),
* ``mediasweep`` — the media-failure analogue: every read-fault kind
  (transient / latent / stuck) on every durable page must self-heal to
  the oracle or abort typed and clean (see :mod:`repro.media.sweep`),
* ``scrub`` — the online amcheck-style scrubber: checksum-sweep every
  live page and cross-reconcile heaps against their indexes;
  ``--selfcheck`` injects known faults and verifies detection,
  healing, and quarantine end to end,
* ``lint`` (alias ``analysis``) — run the static checkers of
  :mod:`repro.analysis`: the simulation-invariant code lint over the
  package and the plan linter over representative planner output,
* ``effects`` — the whole-program effect engine alone: build the call
  graph, infer per-function effect sets, and check the layering
  contracts and lane safety (``--dot`` dumps the annotated graph).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any, List, Optional

from repro import Database
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.report import format_table, shape_checks
from repro.errors import ReproError
from repro.sql.interpreter import SqlSession


def _cmd_sql(args: argparse.Namespace) -> int:
    db = Database(page_size=args.page_size,
                  memory_bytes=args.memory_kb * 1024)
    session = SqlSession(db)
    if args.script:
        with open(args.script) as handle:
            text = handle.read()
        for result in session.execute_script(text):
            _print_result(result)
        return 0
    print("repro sql shell — \\quit to exit, \\stats for I/O counters")
    buffer: List[str] = []
    while True:
        try:
            prompt = "repro> " if not buffer else "  ...> "
            line = input(prompt)
        except EOFError:
            print()
            return 0
        stripped = line.strip()
        if stripped == "\\quit":
            return 0
        if stripped == "\\stats":
            print(db.io_report())
            continue
        buffer.append(line)
        if stripped.endswith(";"):
            statement = "\n".join(buffer)
            buffer = []
            try:
                for result in session.execute_script(statement):
                    _print_result(result)
            except ReproError as exc:
                print(f"error: {exc}")


def _print_result(result) -> None:
    if result.kind == "select":
        for row in result.rows:
            print("  " + "\t".join(str(v) for v in row))
        print(f"({len(result.rows)} rows)")
    elif result.kind == "explain":
        print(result.text)
    elif result.kind == "ddl":
        print(result.text)
    else:
        print(f"{result.kind}: {result.affected} row(s)")


def _cmd_experiment(args: argparse.Namespace) -> int:
    names = (
        list(ALL_EXPERIMENTS) if args.name == "all" else [args.name]
    )
    for name in names:
        if name not in ALL_EXPERIMENTS:
            print(f"unknown experiment {name!r}; one of "
                  f"{', '.join(ALL_EXPERIMENTS)} or 'all'")
            return 2
        print(f"running {name} at {args.records} records ...")
        series = ALL_EXPERIMENTS[name](record_count=args.records)
        columns = {
            approach: series.scaled_minutes(approach)
            for approach in series.rows
        }
        print(format_table(series.title, series.x_label,
                           series.x_values, columns))
        if args.plot:
            from repro.bench.plots import render_series

            print()
            print(render_series(series))
        for note in shape_checks(series):
            print("  " + note)
        print()
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.bench.harness import run_approach
    from repro.core.operator import render_plan_dag
    from repro.core.planner import choose_plan
    from repro.workload.generator import WorkloadConfig, build_workload

    config = WorkloadConfig(record_count=args.records,
                            index_columns=("A", "B", "C"))
    print(f"building R with {config.record_count} records "
          f"(512 B each) and 3 indexes ...")
    workload = build_workload(config)
    keys = workload.delete_keys(0.15)
    plan = choose_plan(workload.db, "R", "A", len(keys),
                       force_vertical=True)
    print("\nthe vertical plan (cf. the paper's Figure 3):")
    print(render_plan_dag(plan))
    print()
    bulk = run_approach("bulk", config, 0.15)
    trad = run_approach("not sorted/trad", config, 0.15)
    print(f"bulk delete:        {bulk.sim_seconds:8.2f}s simulated "
          f"({bulk.scaled_minutes:6.1f} paper-scale minutes)")
    print(f"traditional delete: {trad.sim_seconds:8.2f}s simulated "
          f"({trad.scaled_minutes:6.1f} paper-scale minutes)")
    print(f"speedup: {trad.sim_seconds / bulk.sim_seconds:.1f}x")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.executor import bulk_delete
    from repro.obs.explain import render_trace
    from repro.obs.export import export_document, trace_entry
    from repro.obs.observer import observed
    from repro.obs.trace import Span

    entries = []
    roots = []
    if args.selfcheck:
        # Execute the planner self-check corpus end-to-end: one trace
        # per case.  CI pipes the JSON through repro.obs.schema.
        from repro.analysis.selfcheck import CASES, _build_case_db

        workload = {"corpus": "planner-selfcheck", "cases": len(CASES)}
        for case in CASES:
            db = _build_case_db(case)
            with observed(db) as obs:
                bulk_delete(
                    db,
                    "R",
                    "A",
                    list(range(case.n_deletes)),
                    prefer_method=case.prefer_method,
                    force_vertical=case.force_vertical,
                )
                root = obs.tracer.root
                assert isinstance(root, Span)
                entries.append(
                    trace_entry(case.name, root, obs.metrics.snapshot())
                )
                roots.append((case.name, root))
    else:
        from repro.workload.generator import WorkloadConfig, build_workload

        config = WorkloadConfig(
            record_count=args.records, index_columns=("A", "B", "C")
        )
        generated = build_workload(config)
        keys = generated.delete_keys(args.fraction)
        workload = {
            "records": args.records,
            "fraction": args.fraction,
            "n_deletes": len(keys),
        }
        db = generated.db
        with observed(db) as obs:
            bulk_delete(db, "R", "A", keys, force_vertical=True)
            root = obs.tracer.root
            assert isinstance(root, Span)
            entries.append(
                trace_entry("bulk-delete", root, obs.metrics.snapshot())
            )
            roots.append(("bulk-delete", root))

    if args.format == "json":
        text = json.dumps(
            export_document(entries, workload=workload), indent=2
        )
    else:
        blocks = []
        for label, root in roots:
            blocks.append(f"== {label} ==\n" + render_trace(root))
        text = "\n\n".join(blocks)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {len(entries)} trace(s) to {args.out}")
    else:
        print(text)
    return 0


def _cmd_oltp(args: argparse.Namespace) -> int:
    from repro.workload.traffic import (
        TrafficConfig,
        build_interference_report,
        run_interference_comparison,
    )

    strategies = (
        ["sidefile", "chunked"]
        if args.strategy == "both" or args.selfcheck
        else [args.strategy]
    )
    if args.selfcheck:
        # Small but non-degenerate: enough sessions and ops that both
        # stall kinds occur and the percentile ordering is meaningful.
        records, sessions, ops = 1200, 6, 30
    else:
        records, sessions, ops = args.records, args.sessions, args.ops
    config = TrafficConfig(
        sessions=sessions, ops_per_session=ops, seed=args.seed
    )
    results = run_interference_comparison(
        record_count=records,
        sessions=config.sessions,
        ops_per_session=config.ops_per_session,
        seed=config.seed,
        fraction=args.fraction,
        chunk_rows=args.chunk_rows,
        strategies=tuple(strategies),
    )
    failures: List[str] = []
    for name in strategies:
        result = results[name]
        report = build_interference_report(result)
        print(report.render())
        print()
        problems = result.reconcile(result.workload.db.obs)
        for problem in problems:
            failures.append(f"{name}: {problem}")
    if args.selfcheck:
        p99 = {
            name: results[name].phase_hist("during").percentile(99)
            for name in strategies
        }
        if not p99["sidefile"] < p99["chunked"]:
            failures.append(
                "selfcheck: side-file p99-during "
                f"{p99['sidefile']:.1f}ms is not below chunked "
                f"{p99['chunked']:.1f}ms"
            )
        for name in strategies:
            if results[name].records_deleted == 0:
                failures.append(f"selfcheck: {name} deleted nothing")
        status = "ok" if not failures else f"{len(failures)} failure(s)"
        print(f"oltp selfcheck: {status}")
    for failure in failures:
        print(f"  FAIL: {failure}")
    return 1 if failures else 0


def _sweep_payload(kind: str, report: Any) -> dict:
    """Machine-readable sweep outcome (``faultsweep --format json``)."""
    data = dataclasses.asdict(report)
    data["sweep"] = kind
    data["ok"] = report.ok
    data["failures"] = len(report.failures)
    return data


def _emit_sweep(args: argparse.Namespace, kind: str, report: Any) -> int:
    """Print one sweep report in the selected format; exit status."""
    if args.format == "json":
        print(json.dumps(_sweep_payload(kind, report), indent=2))
    else:
        print(report.summary())
        for failure in report.failures:
            print(f"  {failure}")
    return 0 if report.ok else 1


def _sweep_retention(args: argparse.Namespace, log_fn) -> int:
    from repro.retention import (
        audit_mutation_checks,
        retention_media_sweep,
        retention_sweep,
    )
    from repro.retention.sweep import AUDIT_MUTATIONS

    crash_report = retention_sweep(max_points=args.max_points, log_fn=log_fn)
    media_report = retention_media_sweep(
        max_points=args.max_points, log_fn=log_fn,
    )
    mutation_failures = audit_mutation_checks(log_fn=log_fn)
    ok = crash_report.ok and media_report.ok and not mutation_failures
    if args.format == "json":
        print(json.dumps({
            "sweep": "retention",
            "ok": ok,
            "crash": _sweep_payload("retention-crash", crash_report),
            "media": _sweep_payload("retention-media", media_report),
            "mutations": {
                "ok": not mutation_failures,
                "checks": len(AUDIT_MUTATIONS),
                "failures": mutation_failures,
            },
        }, indent=2))
    else:
        print("crash pass:  " + crash_report.summary())
        print("media pass:  " + media_report.summary())
        print(
            f"mutation pass: {len(AUDIT_MUTATIONS)} planted traces, "
            f"{len(mutation_failures)} missed"
        )
        for failure in mutation_failures:
            print(f"  FAIL {failure}")
    return 0 if ok else 1


#: Scenario flags of ``faultsweep``/``mediasweep`` and their defaults.
_SWEEP_FLAGS = {
    "records": 48, "lanes": 1, "traffic": 0, "no_double": False,
    "torn": False, "wal_tail": "keep",
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.faults.sweep import SweepScenario, crash_point_sweep
    from repro.lsm import LsmSweepScenario, lsm_crash_sweep
    from repro.media import media_sweep
    from repro.shard import ShardSweepScenario, shard_crash_sweep

    given = set()
    for flag, default in _SWEEP_FLAGS.items():
        if getattr(args, flag, None) in (None, False):
            setattr(args, flag, default)
        else:
            given.add(flag)
    log_fn = print if args.verbose and args.format != "json" else None

    def emit(kind, scenario, sweep, **keywords):
        return lambda: _emit_sweep(args, kind, sweep(
            scenario, args.max_points, log_fn=log_fn, **keywords
        ))

    # Sweep -> (the scenario flags it reads, its runner).  ``crash`` and
    # ``media`` are their command's default; the rest are picked by the
    # ``faultsweep`` selector flag of the same name.
    name = next(
        (s for s in ("shards", "lsm", "retention") if getattr(args, s, None)),
        args.sweep,
    )
    fit = dataclasses.replace
    reads, run = {
        "crash": (set(_SWEEP_FLAGS), emit(
            "crash",
            fit(SweepScenario(), records=args.records, lanes=args.lanes,
                traffic_ops=args.traffic),
            crash_point_sweep, double_crash=not args.no_double,
            torn_writes=args.torn, wal_tail=args.wal_tail,
        )),
        "shards": ({"records"}, emit(
            "shard",
            fit(ShardSweepScenario(), records=args.records,
                shards=args.shards),
            shard_crash_sweep,
        )),
        "lsm": ({"records", "torn"}, emit(
            "lsm",
            fit(LsmSweepScenario(), records=args.records, torn=args.torn),
            lsm_crash_sweep,
        )),
        "retention": (set(), lambda: _sweep_retention(args, log_fn)),
        "media": ({"records"}, emit(
            "media", fit(SweepScenario(), records=args.records),
            media_sweep,
        )),
    }[name]
    for flag in sorted(given - reads):
        # It would silently sweep something other than what was asked.
        args.usage_error(
            f"--{flag.replace('_', '-')} is not read by the {name} sweep"
        )
    return run()


def _cmd_shard(args: argparse.Namespace) -> int:
    if args.selfcheck:
        return _shard_selfcheck()
    from repro.shard import sharded_bulk_delete
    from repro.workload.generator import (
        WorkloadConfig,
        build_sharded_workload,
    )

    config = WorkloadConfig(
        record_count=args.records, index_columns=("A",),
        memory_paper_mb=5.0,
    )
    workload = build_sharded_workload(config, shards=args.shards)
    keys = workload.delete_keys(0.15)
    workload.reset_measurements()
    result = sharded_bulk_delete(
        workload.db, "R", "A", keys, lanes=args.lanes
    )
    print(result.plan.explain())
    print(result.summary())
    problems = result.reconciliation_problems()
    for problem in problems:
        print(f"  reconciliation problem: {problem}")
    return 0 if not problems else 1


def _shard_selfcheck() -> int:
    """Assert the sharding layer's invariants on fixed scenarios."""
    from repro.core.executor import bulk_delete
    from repro.shard import choose_sharded_plan, sharded_bulk_delete
    from repro.shard.planning import HOT_SERIALIZE, HOT_SPLIT
    from repro.workload.generator import (
        WorkloadConfig,
        build_sharded_workload,
        build_workload,
    )

    failures: List[str] = []

    def check(label: str, ok: bool) -> None:
        print(f"  {'ok' if ok else 'FAIL'}: {label}")
        if not ok:
            failures.append(label)

    config = WorkloadConfig(
        record_count=2000, index_columns=("A",), memory_paper_mb=5.0
    )

    # 1. Routing covers every key exactly once and the plan lints clean.
    workload = build_sharded_workload(config, shards=4)
    keys = workload.delete_keys(0.15)
    plan = choose_sharded_plan(workload.db, "R", "A", keys, lanes=2)
    routed = [k for frag in plan.fragments for k in frag.keys]
    check(
        "every key routed to exactly one fragment",
        sorted(routed) == sorted(keys),
    )
    from repro.analysis.plan_lint import lint_sharded_plan
    check(
        "sharded plan lints clean",
        not lint_sharded_plan(plan, workload.db),
    )

    # 2. One shard on one lane is bit-identical to the unsharded
    #    executor (same keys, same simulated clock, to the last bit).
    plain = build_workload(config)
    plain_keys = plain.delete_keys(0.15)
    plain.reset_measurements()
    serial_result = bulk_delete(
        plain.db, "R", "A", plain_keys, force_vertical=True
    )
    single = build_sharded_workload(config, shards=1)
    single_keys = single.delete_keys(0.15)
    single.reset_measurements()
    sharded_result = sharded_bulk_delete(
        single.db, "R", "A", single_keys, lanes=1
    )
    check(
        "1 shard x 1 lane is bit-identical to the unsharded executor",
        plain_keys == single_keys
        and sharded_result.elapsed_ms == serial_result.elapsed_ms  # lint: allow(float-cost-eq)
        and single.db.clock.now_ms == plain.db.clock.now_ms  # lint: allow(float-cost-eq)
        and sharded_result.records_deleted == serial_result.records_deleted,
    )

    # 3. Four shards on two dedicated lanes: the region speeds up and
    #    the logical outcome matches the serial sharded run.
    workload = build_sharded_workload(config, shards=4)
    keys = workload.delete_keys(0.15)
    workload.reset_measurements()
    observer = workload.db.observe()
    result = sharded_bulk_delete(workload.db, "R", "A", keys, lanes=2)
    workload.db.unobserve()
    baseline = build_sharded_workload(config, shards=4)
    baseline.reset_measurements()
    serial = sharded_bulk_delete(baseline.db, "R", "A", keys, lanes=1)
    check(
        "2 dedicated lanes beat serial over 4 shards (>=1.9x region)",
        result.region is not None and result.region.speedup >= 1.9,
    )
    check(
        "parallel and serial sharded runs delete the same rows",
        result.records_deleted == serial.records_deleted
        and sorted(r[0] for r in workload.db.scan("R"))
        == sorted(r[0] for r in baseline.db.scan("R")),
    )

    # 4. Rollups reconcile exactly and the shard.* metrics were fed.
    check(
        "lane/fragment/row rollups reconcile exactly",
        not result.reconciliation_problems()
        and not serial.reconciliation_problems(),
    )
    metrics = observer.metrics
    check(
        "shard.* metrics record the routing",
        metrics.value("shard.route.calls") == 1
        and metrics.value("shard.route.keys") == len(keys)
        and metrics.value("shard.accesses") == len(keys),
    )

    # 5. Hot ranges are tamed: an oversized fragment splits, a
    #    traffic-skewed shard serializes.  (The factor-2 threshold
    #    needs the skew to *double* the mean — a fragment can never be
    #    hot-by-size against only one sibling.)
    workload = build_sharded_workload(config, shards=4)
    table = workload.db.table("R")
    bounds = table.shard_map.bounds
    skewed = [a for a in workload.a_values if a < bounds[0]][:200]
    skewed += [
        a for a in workload.a_values if bounds[0] <= a < bounds[1]
    ][:10]
    skewed += [a for a in workload.a_values if a >= bounds[-1]][:10]
    hot_plan = choose_sharded_plan(
        workload.db, "R", "A", skewed, lanes=2, hot_factor=2.0
    )
    check(
        "oversized fragment is split into serialized pieces",
        any(f.policy == HOT_SPLIT for f in hot_plan.fragments),
    )
    for shard_id in (0, 1, 3):
        table.note_shard_access(shard_id, 10)
    for _ in range(70):
        table.note_shard_access(2, 10)
    even = workload.delete_keys(0.15)
    skew_plan = choose_sharded_plan(
        workload.db, "R", "A", even, lanes=2, hot_factor=2.0
    )
    check(
        "traffic-skewed shard is serialized out of the lane region",
        any(
            f.policy == HOT_SERIALIZE and f.shard_id == 2
            for f in skew_plan.fragments
        ),
    )

    status = "ok" if not failures else f"{len(failures)} failure(s)"
    print(f"shard selfcheck: {status}")
    return 0 if not failures else 1


def _cmd_lsm(args: argparse.Namespace) -> int:
    if args.selfcheck:
        return _lsm_selfcheck()
    from repro.catalog.database import Database
    from repro.catalog.schema import Attribute, TableSchema
    from repro.core.planner import choose_plan
    from repro.lsm import LsmConfig, lsm_bulk_delete

    db = Database(page_size=4096, memory_bytes=64 * 4096)
    db.create_table(
        TableSchema.of(
            "R", [Attribute.int_("A"), Attribute.char("PAD", 24)]
        ),
        engine="lsm",
        lsm_config=LsmConfig(memtable_entries=64),
    )
    db.load_table(
        "R", [(a, f"row{a}") for a in range(args.records)]
    )
    # Half the delete list is one contiguous block (compiled to a
    # range tombstone), half is scattered points.
    n_keys = int(args.records * args.fraction)
    block = list(range(args.records // 4, args.records // 4 + n_keys // 2))
    scattered = [
        k for k in range(0, args.records, 5) if k not in set(block)
    ][: n_keys - len(block)]
    keys = block + scattered
    plan = choose_plan(db, "R", "A", keys)
    print(plan.explain())
    result = lsm_bulk_delete(db, "R", "A", keys, plan=plan)
    tree = db.table("R").lsm
    assert tree is not None
    print(
        f"deleted {result.records_deleted} rows in "
        f"{result.elapsed_ms / 1000:.2f}s: "
        f"{result.point_tombstones} point + "
        f"{result.range_tombstones} range tombstones, "
        f"{result.flushes} flushes, {result.compactions} compactions "
        f"({result.tombstones_dropped} tombstones dropped)"
    )
    print(
        f"tree after delete: levels {tree.level_shape()}, "
        f"{tree.data_pages} data pages, "
        f"{tree.tombstone_count} live tombstones"
    )
    return 0


def _lsm_selfcheck() -> int:
    """Exercise the LSM engine end to end on fixed tiny scenarios."""
    from repro.catalog.database import Database
    from repro.catalog.schema import Attribute, TableSchema
    from repro.core.planner import choose_plan
    from repro.lsm import (
        LsmConfig,
        LsmTree,
        lsm_bulk_delete,
    )
    from repro.lsm.planning import LsmDeletePlan

    failures: List[str] = []

    def check(label: str, ok: bool) -> None:
        print(f"  {'ok' if ok else 'FAIL'}: {label}")
        if not ok:
            failures.append(label)

    def fresh() -> Database:
        db = Database(page_size=512, memory_bytes=24 * 512)
        db.create_table(
            TableSchema.of(
                "R", [Attribute.int_("A"), Attribute.char("PAD", 20)]
            ),
            engine="lsm",
            lsm_config=LsmConfig(
                memtable_entries=8, l0_runs=2, run_pages=2,
                level_runs=2, fanout=2,
                tombstone_density_trigger=0.2, tombstone_age_seqs=64,
                max_delete_compactions=4,
            ),
        )
        return db

    def tree_of(db: Database) -> LsmTree:
        tree = db.table("R").lsm
        assert tree is not None
        return tree

    # 1. Inserts through the log path are visible from the memtable,
    #    across flushes, and survive overwrites (last write wins).
    db = fresh()
    model = {}
    for a in range(40):
        db.insert("R", (a, f"row{a}"))
        model[a] = (a, f"row{a}")
    db.insert("R", (7, "seven"))
    model[7] = (7, "seven")
    check(
        "inserts + overwrite visible across memtable flushes",
        dict(db.scan("R")) == model
        and tree_of(db).run_count > 0,
    )

    # 2. Point and range deletes hide rows exactly, scan == dict model.
    for a in (3, 11, 39):
        tree_of(db).delete(a)
        model.pop(a)
    tree_of(db).delete_range(20, 29)
    for a in range(20, 30):
        model.pop(a, None)
    check(
        "point + range tombstones hide exactly the targeted rows",
        dict(db.scan("R")) == model,
    )

    # 3. Flush + compaction preserve the visible state and eventually
    #    drop every tombstone without resurrecting a row.
    tree = tree_of(db)
    tree.flush_memtable()
    tree.compact_all()
    check(
        "compact_all drops every tombstone, resurrects nothing",
        dict(db.scan("R")) == model and tree.tombstone_count == 0,
    )

    # 4. choose_plan dispatches LSM tables to an exact tombstone plan.
    db = fresh()
    db.load_table("R", [(a, f"row{a}") for a in range(64)])
    keys = list(range(16, 36)) + list(range(40, 64, 2))
    plan = choose_plan(db, "R", "A", keys)
    check(
        "choose_plan returns an exact LsmDeletePlan",
        isinstance(plan, LsmDeletePlan)
        and plan.range_tombstones == 1
        and plan.point_tombstones == 12,
    )

    # 5. The executed delete reconciles with its plan and the model.
    result = lsm_bulk_delete(db, "R", "A", keys, plan=plan)
    survivors = {a: (a, f"row{a}") for a in range(64) if a not in set(keys)}
    check(
        "lsm_bulk_delete deletes exactly the targeted live rows",
        result.records_deleted == len(set(keys))
        and dict(db.scan("R")) == survivors,
    )
    check(
        "executed tombstone mix matches the plan",
        result.point_tombstones == plan.point_tombstones
        and result.range_tombstones == plan.range_tombstones,
    )

    # 6. FADE ran during the delete and dropped tombstones at depth.
    check(
        "FADE compactions fired and dropped tombstones",
        result.compactions > 0 and result.tombstones_dropped > 0,
    )

    # 7. Recovery from durable state alone is byte-identical, twice.
    table = db.table("R")
    assert table.lsm is not None
    db.pool.invalidate_all()
    table.lsm = LsmTree.recover(
        db.pool, table.lsm.handle, config=table.lsm.config, name="R"
    )
    once = dict(db.scan("R"))
    db.pool.invalidate_all()
    table.lsm = LsmTree.recover(
        db.pool, table.lsm.handle, config=table.lsm.config, name="R"
    )
    check(
        "recovery is byte-identical and terminal",
        once == survivors and dict(db.scan("R")) == survivors,
    )

    # 8. bulk_load lands the same visible state as the log path.
    loaded = fresh()
    loaded.load_table("R", [(a, f"row{a}") for a in range(40)])
    logged = fresh()
    for a in range(40):
        logged.insert("R", (a, f"row{a}"))
    check(
        "bulk_load state matches the log-path state",
        dict(loaded.scan("R")) == dict(logged.scan("R")),
    )
    check(
        "bulk_load is cheaper than the log path",
        loaded.disk.stats.writes < logged.disk.stats.writes,
    )

    # 9. vacuum compacts to a tombstone-free tree through the facade.
    stats = db.vacuum("R")
    check(
        "vacuum reports compactions and leaves zero tombstones",
        "lsm_compactions" in stats
        and tree_of(db).tombstone_count == 0
        and dict(db.scan("R")) == survivors,
    )

    status = "ok" if not failures else f"{len(failures)} failure(s)"
    print(f"lsm selfcheck: {status}")
    return 0 if not failures else 1


def _cmd_scrub(args: argparse.Namespace) -> int:
    from repro.faults.sweep import SweepScenario
    from repro.media import scrub_database

    scenario = dataclasses.replace(SweepScenario(), records=args.records)
    if args.selfcheck:
        return _scrub_selfcheck(scenario)
    case = scenario.build()
    report = scrub_database(case.db)
    print(report.summary())
    return 0 if report.ok else 1


def _scrub_selfcheck(scenario) -> int:
    """Inject known media faults and verify the scrubber end to end."""
    from repro.errors import QuarantinedPage
    from repro.faults import STUCK, TRANSIENT, FaultInjector, FaultPlan
    from repro.media import MediaRecovery, require_scrubbed, scrub_database

    failures: List[str] = []

    def check(label: str, ok: bool) -> None:
        print(f"  {'ok' if ok else 'FAIL'}: {label}")
        if not ok:
            failures.append(label)

    # 1. A clean database scrubs clean, every live page verified.
    case = scenario.build()
    db, disk = case.db, case.db.disk
    report = scrub_database(db)
    check(
        "clean database scrubs clean",
        report.ok and report.pages_checked == len(disk.page_ids()),
    )

    # 2. Latent corruption is detected even without a media layer ...
    page = disk.page_ids()[len(disk.page_ids()) // 2]
    image = disk.durable_image(page)
    disk.corrupt_page(page, bytes([image[0] ^ 0xFF]) + image[1:])
    report = scrub_database(db)
    check(
        "latent corruption detected (no media layer)",
        page in report.checksum_failures
        and page in report.unrepaired
        and not report.ok,
    )

    # 3. ... and healed in place with one.
    media = MediaRecovery(disk, image_sources=[("backup", {page: image}.get)])
    report = scrub_database(db, media=media)
    check(
        "latent corruption healed from a backup image",
        report.ok and page in report.repaired,
    )
    check("healed bytes match the original", disk.durable_image(page) == image)

    # 4. Transient read faults heal by retrying with simulated backoff.
    case = scenario.build()
    db, disk = case.db, case.db.disk
    page = disk.page_ids()[0]
    injector = FaultInjector(
        FaultPlan(read_fault=TRANSIENT, read_fault_page=page)
    )
    media = MediaRecovery(disk)
    with injector.armed(disk):
        report = scrub_database(db, media=media)
    check(
        "transient fault healed by retry",
        report.ok and media.stats.retries == 2,
    )
    check(
        "backoff charged to the simulated clock",
        media.stats.backoff_ms > 0,
    )

    # 5. Cross-reconciliation catches structures that drift apart.
    table = db.table("R")
    tree = next(iter(table.indexes.values())).tree
    tree._entry_count += 1
    report = scrub_database(db)
    check(
        "entry-count drift detected by reconciliation",
        any("entry_count" in problem for problem in report.problems),
    )
    tree._entry_count -= 1

    # 6. Stuck bits defeat repair: quarantine + typed abort; replacing
    #    the medium (restore_page) lifts the fence.
    case = scenario.build()
    db, disk = case.db, case.db.disk
    page = disk.page_ids()[1]
    backup = {pid: disk.durable_image(pid) for pid in disk.page_ids()}
    injector = FaultInjector(
        FaultPlan(read_fault=STUCK, read_fault_page=page)
    )
    media = MediaRecovery(disk, image_sources=[("backup", backup.get)])
    aborted_on: Optional[int] = None
    with injector.armed(disk):
        try:
            require_scrubbed(db, media=media, check_structures=False)
        except QuarantinedPage as exc:
            aborted_on = exc.page_id
    check(
        "stuck bits abort typed (QuarantinedPage names the page)",
        aborted_on == page and disk.quarantined == {page},
    )
    disk.restore_page(page, backup[page])
    report = scrub_database(db)
    check("restore_page lifts the quarantine", report.ok)

    status = "ok" if not failures else f"{len(failures)} failure(s)"
    print(f"scrub selfcheck: {status}")
    return 0 if not failures else 1


def _cmd_retention(args: argparse.Namespace) -> int:
    from repro.retention import RetentionScenario, audit_erasure

    if args.selfcheck:
        return _retention_selfcheck()

    scenario = RetentionScenario()
    case = scenario.build()
    obs = case.db.observe()
    plans = case.compile()
    print("compiled retention DAG (children-first, engine-dispatched):")
    for plan in plans:
        print()
        print(plan.explain())

    from repro.retention.run import RecoverableRetentionRun

    report = RecoverableRetentionRun(
        case.db, plans, case.log, full_page_writes=True,
    ).run()
    print()
    print(
        f"run @lsn {report.run_lsn}: {report.nodes} node(s), "
        f"{report.records_deleted} record(s) deleted, "
        f"{report.records_nulled} reference(s) nulled"
    )
    erase = report.erase
    print(
        "erase pass: "
        f"{erase.heap_pages_compacted} heap page(s) compacted, "
        f"{erase.btree_pages_scrubbed} B-tree page(s) scrubbed, "
        f"{erase.lsm_compactions} LSM compaction(s), "
        f"{erase.pages_shredded} page(s) shredded, "
        f"{erase.wal_records_redacted} WAL record(s) redacted, "
        f"{erase.wal_images_replaced} WAL image(s) replaced"
    )

    audit = audit_erasure(case.db, case.log, case.witness(plans))
    print(f"audit: {audit.summary()}")
    for finding in audit.findings[:10]:
        print(f"  {finding.describe()}")

    print()
    print("retention.* metrics:")
    for name, value in obs.metrics.snapshot().items():
        if name.startswith("retention."):
            print(f"  {name} = {value}")
    return 0 if audit.ok else 1


def _retention_selfcheck() -> int:
    """End-to-end retention checks on the fixed two-policy scenario."""
    import copy

    from repro.analysis.plan_lint import lint_retention_plan
    from repro.errors import IntegrityViolationError
    from repro.faults import FaultInjector, FaultPlan, SimulatedCrash
    from repro.faults.sweep import capture_state
    from repro.retention import (
        RecoverableRetentionRun,
        RetentionPolicy,
        RetentionScenario,
        audit_erasure,
        audit_mutation_checks,
        compile_policy,
        recover_retention,
        retention_integrity_problems,
        retention_media_sweep,
        retention_sweep,
    )
    from repro.retention.sweep import AUDIT_MUTATIONS

    failures: List[str] = []

    def check(label: str, ok: bool) -> None:
        print(f"  {'ok' if ok else 'FAIL'}: {label}")
        if not ok:
            failures.append(label)

    scenario = RetentionScenario()

    # 1. The compiler is deterministic: two independent builds of the
    #    same scenario produce byte-identical EXPLAIN text.
    def explains() -> str:
        case = scenario.build()
        return "\n\n".join(plan.explain() for plan in case.compile())

    check("policy compiler is deterministic", explains() == explains())

    # 2. A clean run erases everything: zero-finding audit, internal
    #    consistency, and a terminal recovery (nothing left to resume).
    case = scenario.build()
    plans = case.compile()
    report = RecoverableRetentionRun(
        case.db, plans, case.log, full_page_writes=True,
    ).run()
    check(
        "clean run deletes and nulls records",
        report.records_deleted > 0 and report.records_nulled > 0,
    )
    audit = audit_erasure(case.db, case.log, case.witness(plans))
    check("clean run passes the unrecoverability audit", audit.ok)
    check(
        "post-run state is internally consistent",
        not retention_integrity_problems(
            case.db, case.registry, case.victims
        ),
    )
    check(
        "recovery after a complete run is terminal",
        not recover_retention(case.db, case.log).resumed,
    )
    oracle = capture_state(case.db)

    # 3. Resume from a representative mid-run crash point.
    counter = FaultInjector()
    probe = scenario.build()
    RecoverableRetentionRun(
        probe.db, probe.compile(), probe.log,
        faults=counter, full_page_writes=True,
    ).run()
    midpoint = counter.durable_event_count // 2
    case = scenario.build()
    plans = case.compile()
    crashed = False
    try:
        RecoverableRetentionRun(
            case.db, plans, case.log,
            faults=FaultInjector(FaultPlan(crash_after_event=midpoint)),
            full_page_writes=True,
        ).run()
    except SimulatedCrash:
        crashed = True
    recovery = recover_retention(case.db, case.log, full_page_writes=True)
    check(
        "mid-run crash resumes to the oracle state",
        crashed
        and recovery.resumed
        and capture_state(case.db) == oracle,
    )
    check(
        "resumed run passes the audit",
        audit_erasure(case.db, case.log, case.witness(plans)).ok,
    )

    # 4. A RESTRICT violation aborts at compile time, pre-durable.
    case = scenario.build()
    before = capture_state(case.db)
    uid_idx = case.db.table("users").schema.column_index("UID")
    survivor = next(
        values[uid_idx]
        for _, values in case.db.scan("users")
        if values[uid_idx] not in set(case.victims)
    )
    restricted = RetentionPolicy(
        "restricted", "users", "UID", subject_keys=(survivor,),
    )
    aborted = False
    try:
        compile_policy(case.db, case.registry, restricted)
    except IntegrityViolationError:
        aborted = True
    check(
        "RESTRICT aborts at compile time with nothing durable",
        aborted and capture_state(case.db) == before,
    )

    # 5. The coverage lint: clean plans lint clean; a dropped node is
    #    a coverage hole the linter must flag.
    case = scenario.build()
    plans = case.compile()
    check(
        "retention plans lint clean",
        all(not lint_retention_plan(p, db=case.db) for p in plans),
    )
    broken = copy.deepcopy(plans[0])
    broken.nodes = broken.nodes[1:]
    check(
        "lint flags a dropped DAG node",
        bool(lint_retention_plan(broken, db=case.db)),
    )

    # 6. The audit is not vacuously green: planted traces are caught.
    mutation_failures = audit_mutation_checks(scenario)
    check(
        f"audit mutation checks ({len(AUDIT_MUTATIONS)} planted traces)",
        not mutation_failures,
    )
    for failure in mutation_failures:
        print(f"    {failure}")

    # 7. Bounded crash + media sweeps (the CI-sized versions of
    #    `faultsweep --retention`).
    crash_report = retention_sweep(scenario, max_points=6)
    check(
        f"bounded crash sweep ({len(crash_report.points)} points)",
        crash_report.ok,
    )
    media_report = retention_media_sweep(scenario, max_points=4)
    check(
        f"bounded media sweep ({len(media_report.pages)} pages)",
        media_report.ok,
    )

    status = "ok" if not failures else f"{len(failures)} failure(s)"
    print(f"retention selfcheck: {status}")
    return 0 if not failures else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.__main__ import main as analysis_main

    argv: List[str] = ["--format", args.format]
    if args.root:
        argv += ["--root", args.root]
    if args.skip_code:
        argv.append("--skip-code")
    if args.skip_plans:
        argv.append("--skip-plans")
    if args.skip_effects:
        argv.append("--skip-effects")
    if args.strict:
        argv.append("--strict")
    return analysis_main(argv)


def _cmd_effects(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.code_lint import default_root
    from repro.analysis.effects import analyze_effects
    from repro.analysis.findings import Severity, render_findings

    root = Path(args.root) if args.root else default_root()
    # The checked-in baseline describes the repro tree; a custom root
    # runs against an empty baseline (see analysis/__main__.py).
    if root == default_root():
        report = analyze_effects(root)
    else:
        report = analyze_effects(root, baseline=())
    if args.dot:
        try:
            print(report.graph.to_dot())
        except BrokenPipeError:  # `repro effects --dot | head` is fine
            pass
        return 0
    graph = report.graph
    errors = sum(
        1 for f in report.findings if f.severity is Severity.ERROR
    )
    if args.format == "json":
        print(
            json.dumps(
                {
                    "ok": errors == 0,
                    "functions": len(graph.functions),
                    "call_edges": sum(
                        len(n.calls) for n in graph.functions.values()
                    ),
                    "lane_dispatches": len(graph.lane_dispatches),
                    "findings": [f.to_dict() for f in report.findings],
                    "suppressed": [
                        f.to_dict() for f in report.suppressed
                    ],
                },
                indent=2,
            )
        )
    else:
        if report.findings:
            print(render_findings(report.findings))
        print(
            f"repro effects: {len(graph.functions)} functions, "
            f"{len(graph.lane_dispatches)} lane dispatch sites, "
            f"{len(report.findings)} finding(s) "
            f"({len(report.suppressed)} baselined) — "
            + ("FAIL" if errors else "ok")
        )
    return 1 if errors else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Efficient Bulk Deletes in Relational Databases "
        "(ICDE 2001) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sql = sub.add_parser("sql", help="run a SQL script or a shell")
    p_sql.add_argument("script", nargs="?", help="SQL script file")
    p_sql.add_argument("--page-size", type=int, default=4096)
    p_sql.add_argument("--memory-kb", type=int, default=256)
    p_sql.set_defaults(func=_cmd_sql)

    p_exp = sub.add_parser("experiment", help="regenerate a paper figure")
    p_exp.add_argument("name", help="figure_1|figure_7|figure_8|table_1|"
                                    "figure_9|figure_10|all")
    p_exp.add_argument("--records", type=int, default=8000)
    p_exp.add_argument("--plot", action="store_true",
                       help="draw an ASCII chart of the series")
    p_exp.set_defaults(func=_cmd_experiment)

    p_demo = sub.add_parser("demo", help="one-minute guided tour")
    p_demo.add_argument("--records", type=int, default=5000)
    p_demo.set_defaults(func=_cmd_demo)

    p_trace = sub.add_parser(
        "trace",
        help="run a traced bulk delete and export per-operator spans",
    )
    p_trace.add_argument("--selfcheck", action="store_true",
                         help="trace the planner self-check corpus "
                         "instead of a generated workload")
    p_trace.add_argument("--records", type=int, default=2000,
                         help="workload size (ignored with --selfcheck)")
    p_trace.add_argument("--fraction", type=float, default=0.15,
                         help="fraction of records to delete")
    p_trace.add_argument("--format", choices=("json", "text"),
                         default="json")
    p_trace.add_argument("--out", default=None,
                         help="write to a file instead of stdout")
    p_trace.set_defaults(func=_cmd_trace)

    p_oltp = sub.add_parser(
        "oltp",
        help="run seeded multi-session OLTP traffic concurrent with a "
        "bulk delete and print the latency-interference report",
    )
    p_oltp.add_argument("--sessions", type=int, default=8,
                        help="concurrent simulated user sessions")
    p_oltp.add_argument("--ops", type=int, default=40,
                        help="operations per session")
    p_oltp.add_argument("--records", type=int, default=2000,
                        help="rows in the table under traffic")
    p_oltp.add_argument("--seed", type=int, default=1042,
                        help="seed for arrivals, op mix and key choice")
    p_oltp.add_argument("--strategy",
                        choices=("sidefile", "chunked", "both"),
                        default="both",
                        help="delete strategy to run against the "
                        "traffic (default: both, for comparison)")
    p_oltp.add_argument("--fraction", type=float, default=0.15,
                        help="fraction of records the delete removes")
    p_oltp.add_argument("--chunk-rows", type=int, default=64,
                        help="rows per chunk for the chunked strategy")
    p_oltp.add_argument("--selfcheck", action="store_true",
                        help="run both strategies on a fixed small "
                        "scenario and assert the methodology's "
                        "invariants (exact reconciliation, side-file "
                        "beating chunked on p99)")
    p_oltp.set_defaults(func=_cmd_oltp)

    p_sweep = sub.add_parser(
        "faultsweep",
        help="crash the recovery scenario at every durable event and "
        "assert the recovered state matches the fault-free oracle",
    )
    p_sweep.add_argument("--max-points", type=int, default=None,
                         help="bound the sweep to K evenly spaced crash "
                         "points (default: every durable event)")
    p_sweep.add_argument("--records", type=int, default=None,
                         help="rows in the swept table (default 48)")
    p_sweep.add_argument("--no-double", action="store_true",
                         help="skip the crash-during-recovery pass")
    p_sweep.add_argument("--torn", action="store_true",
                         help="make every crashing write a torn (half) "
                         "page write; enables full-page-write logging")
    p_sweep.add_argument("--wal-tail", choices=("keep", "drop", "torn"),
                         default=None,
                         help="what happens to the WAL record being "
                         "forced when the crash lands on it")
    p_sweep.add_argument("--lanes", type=int, default=None,
                         help="run the post-table index stages on K "
                         "concurrent simulated I/O lanes (default 1, "
                         "serial); the seeded scheduler keeps every "
                         "crash point replayable")
    p_sweep.add_argument("--traffic", type=int, default=None,
                         help="commit K concurrent user writes at the "
                         "statement's stage boundaries and require "
                         "zero lost committed writes after recovery")
    p_which = p_sweep.add_mutually_exclusive_group()
    p_which.add_argument("--shards", type=int, default=0,
                         help="sweep a range-sharded delete instead: "
                         "crash after every global durable event of a "
                         "K-shard statement sequence (reads --records)")
    p_which.add_argument("--lsm", action="store_true",
                         help="sweep the LSM engine instead: crash "
                         "after every durable event (log appends, run "
                         "builds, manifest commits, superblock flips) "
                         "of a tombstone bulk delete and require "
                         "recovery to an oracle-consistent state with "
                         "no resurrected rows (reads --records and "
                         "--torn, which tears the crashing write)")
    p_which.add_argument("--retention", action="store_true",
                         help="sweep the retention subsystem instead: "
                         "crash every durable event and transient-fault "
                         "every durable page of a two-policy cascading "
                         "erasure run, require recovery to the oracle "
                         "with a zero-finding unrecoverability audit, "
                         "and mutation-test the audit itself")
    p_sweep.add_argument("--format", choices=("text", "json"),
                         default="text",
                         help="json emits machine-readable outcomes "
                         "(point counts, per-point problems) matching "
                         "`repro lint --format json` conventions")
    p_sweep.add_argument("--verbose", action="store_true",
                         help="print per-point progress (text format)")
    p_sweep.set_defaults(func=_cmd_sweep, sweep="crash",
                         usage_error=p_sweep.error)

    p_shard = sub.add_parser(
        "shard",
        help="range-sharded bulk delete: route a delete list across "
        "key-range shards and run the fragments on parallel lanes",
    )
    p_shard.add_argument("--records", type=int, default=8000,
                         help="rows in the sharded workload")
    p_shard.add_argument("--shards", type=int, default=4,
                         help="equi-depth key ranges on the driving "
                         "column A")
    p_shard.add_argument("--lanes", type=int, default=2,
                         help="dedicated lanes for the shard region "
                         "(1 = the exact serial code path)")
    p_shard.add_argument("--selfcheck", action="store_true",
                         help="assert the sharding invariants on fixed "
                         "scenarios: exact-once routing, 1-shard "
                         "bit-identity, lane speedup, exact rollup "
                         "reconciliation, hot-range taming")
    p_shard.set_defaults(func=_cmd_shard)

    p_lsm = sub.add_parser(
        "lsm",
        help="bulk delete on the delete-aware LSM engine: compile "
        "tombstones, run FADE compactions, report the tree shape",
    )
    p_lsm.add_argument("--records", type=int, default=2000,
                       help="rows bulk-loaded into the LSM table")
    p_lsm.add_argument("--fraction", type=float, default=0.15,
                       help="fraction of records to delete")
    p_lsm.add_argument("--selfcheck", action="store_true",
                       help="exercise the engine on fixed tiny "
                       "scenarios: visibility, tombstone semantics, "
                       "compaction invariants, planner dispatch, "
                       "FADE, recovery, bulk load, vacuum")
    p_lsm.set_defaults(func=_cmd_lsm)

    p_media = sub.add_parser(
        "mediasweep",
        help="inject every read-fault kind on every durable page and "
        "assert the statement self-heals to the fault-free oracle or "
        "aborts typed and clean",
    )
    p_media.add_argument("--max-points", type=int, default=None,
                         help="bound the sweep to K evenly sampled "
                         "pages per fault kind (default: every page)")
    p_media.add_argument("--records", type=int, default=None,
                         help="rows in the swept table (default 48)")
    p_media.add_argument("--verbose", action="store_true",
                         help="print per-point progress")
    p_media.set_defaults(func=_cmd_sweep, sweep="media", format="text",
                         shards=0, usage_error=p_media.error)

    p_scrub = sub.add_parser(
        "scrub",
        help="checksum-sweep every live page and cross-reconcile heaps "
        "against their indexes (amcheck-style)",
    )
    p_scrub.add_argument("--records", type=int, default=48,
                         help="rows in the scrubbed scenario")
    p_scrub.add_argument("--selfcheck", action="store_true",
                         help="inject known media faults and verify "
                         "detection, healing, and quarantine")
    p_scrub.set_defaults(func=_cmd_scrub)

    p_ret = sub.add_parser(
        "retention",
        help="retention/compliance deletion: compile policies into a "
        "cascading multi-engine delete DAG, run it crash-resumably, "
        "erase every trace, and audit unrecoverability",
    )
    p_ret.add_argument("--selfcheck", action="store_true",
                       help="verify the subsystem end to end: compiler "
                       "determinism, clean run + zero-finding audit, "
                       "mid-run crash resume, RESTRICT abort, coverage "
                       "lint, audit mutation tests, bounded sweeps")
    p_ret.set_defaults(func=_cmd_retention)

    for lint_name in ("lint", "analysis"):
        p_lint = sub.add_parser(
            lint_name,
            help="run the static checkers (plan linter + code lint)",
        )
        p_lint.add_argument("--format", choices=("text", "json"),
                            default="text")
        p_lint.add_argument("--root", default=None,
                            help="package dir to code-lint (default: "
                            "the installed repro package)")
        p_lint.add_argument("--skip-code", action="store_true")
        p_lint.add_argument("--skip-plans", action="store_true")
        p_lint.add_argument("--skip-effects", action="store_true")
        p_lint.add_argument("--strict", action="store_true",
                            help="fail on warnings too")
        p_lint.set_defaults(func=_cmd_lint)

    p_eff = sub.add_parser(
        "effects",
        help="whole-program effect inference: layering contracts "
        "and static lane safety",
    )
    p_eff.add_argument("--format", choices=("text", "json"),
                       default="text")
    p_eff.add_argument("--root", default=None,
                       help="package dir to analyze (default: the "
                       "installed repro package)")
    p_eff.add_argument("--dot", action="store_true",
                       help="dump the effect-annotated call graph as "
                       "GraphViz instead of checking")
    p_eff.set_defaults(func=_cmd_effects)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
