"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``sql [script.sql]`` — run a SQL script against a fresh in-memory
  database, or start an interactive shell (``EXPLAIN DELETE ...`` shows
  plans; ``\\stats`` prints I/O counters; ``\\quit`` exits),
* ``experiment <name>`` — regenerate one of the paper's figures/tables
  (a key of :data:`repro.bench.experiments.ALL_EXPERIMENTS`, or ``all``),
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
  fragments as independent lane tasks (``--lanes``, ``--shards``; see
  :mod:`repro.shard` and ``docs/sharding.md``),
* ``mediasweep`` — the media-failure analogue: every read-fault kind
  (transient / latent / stuck) on every durable page must self-heal to
  the oracle or abort typed and clean (see :mod:`repro.media.sweep`),
* ``lsm`` — bulk delete on the delete-aware LSM engine (tombstones,
  FADE compactions; see ``docs/storage_engines.md``),
* ``scrub`` — the online amcheck-style scrubber: checksum-sweep every
  live page and cross-reconcile heaps against their indexes,
* ``retention`` — compile the retention policies into a cascading
  delete DAG, run it crash-resumably, erase and audit (see
  ``docs/retention.md``),
* ``lint`` (alias ``analysis``) — ``python -m repro.analysis`` with the
  same arguments: the simulation-invariant code lint over the package,
  the plan linter over representative planner output and the effect
  engine,
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
    bulk = run_approach("bulk", config, 0.15, workload=workload.fork())
    trad = run_approach(
        "not sorted/trad", config, 0.15, workload=workload.fork()
    )
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
        ["sidefile", "chunked"] if args.strategy == "both"
        else [args.strategy]
    )
    config = TrafficConfig(
        sessions=args.sessions, ops_per_session=args.ops, seed=args.seed
    )
    results = run_interference_comparison(
        record_count=args.records,
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


def _cmd_lsm(args: argparse.Namespace) -> int:
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


def _cmd_scrub(args: argparse.Namespace) -> int:
    from repro.faults.sweep import SweepScenario
    from repro.media import scrub_database

    case = dataclasses.replace(SweepScenario(), records=args.records).build()
    report = scrub_database(case.db)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_retention(args: argparse.Namespace) -> int:
    from repro.retention import RetentionScenario, audit_erasure

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


def _cmd_effects(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.code_lint import default_root
    from repro.analysis.effects import analyze_effects
    from repro.analysis.findings import Severity, render_findings

    report = analyze_effects(Path(args.root) if args.root else default_root())
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


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (``lint``/``analysis`` take the
    arguments of ``python -m repro.analysis`` unparsed; see :func:`main`)."""
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
    p_exp.add_argument("name", help="|".join([*ALL_EXPERIMENTS, "all"]))
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
    p_scrub.set_defaults(func=_cmd_scrub)

    p_ret = sub.add_parser(
        "retention",
        help="retention/compliance deletion: compile policies into a "
        "cascading multi-engine delete DAG, run it crash-resumably, "
        "erase every trace, and audit unrecoverability",
    )
    p_ret.set_defaults(func=_cmd_retention)

    for lint_name in ("lint", "analysis"):
        # No add_help: ``repro lint -h`` prints the gate's own help.
        sub.add_parser(
            lint_name, add_help=False,
            help="run the static checkers (plan linter + code lint + "
            "effect engine); takes the arguments of "
            "`python -m repro.analysis`",
        )

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

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command in ("lint", "analysis"):
        from repro.analysis.__main__ import main as analysis_main

        return analysis_main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
