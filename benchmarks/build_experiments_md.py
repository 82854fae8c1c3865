#!/usr/bin/env python3
"""Rebuild EXPERIMENTS.md from benchmarks/_reports/*.txt.

Run ``pytest benchmarks/ --benchmark-only`` first (it writes one report
per table/figure), then ``python benchmarks/build_experiments_md.py``.
"""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORTS = ROOT / "benchmarks" / "_reports"


def load(name: str) -> str:
    path = REPORTS / f"{name}.txt"
    if not path.exists():
        return f"(missing: run pytest benchmarks/ to regenerate {name})"
    return path.read_text().rstrip()


HEAD = """# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation, regenerated by the
benchmark harness (`pytest benchmarks/ --benchmark-only`).  Measured
values are *simulated minutes, scaled* to the paper's 1M-record table
(simulated seconds x record-count ratio / 60); the workloads below ran
at 8,000 records (`REPRO_BENCH_RECORDS` rescales them; 20,000 sharpens
the curves slightly).

**How to read the numbers.**  The disk model is calibrated to the
paper's testbed (7200 rpm Seagate, ~14.7 ms random access, ~2 MB/s
effective page-at-a-time sequential throughput through a late-90s UNIX
FS — the rate implied by the paper's own bulk-delete times; see
`docs/cost_model.md`).  Absolute agreement is close for the
traditional baselines, whose cost is almost purely random I/O.  Our
*vertical* bulk delete is cheaper than the paper's (~13 vs 24.87
scaled minutes) because the paper's C++ prototype carried a large
constant CPU cost per record (~1.5 ms/record on its 333 MHz SPARC)
that a cost model cannot honestly reconstruct; the *shape* — flat in
every swept parameter — is exact.  Paper numbers for Figures 1 and
7-10 are read off the figures (~10% eyeballing error); Table 1 is
printed in the paper and exact.

## Verdict per experiment

| Exp | Claim in the paper | Reproduced? |
|---|---|---|
| Fig. 1 | traditional explodes with %; drop&create wins above ~5% | yes — crossover between 1% and 15% |
| Fig. 7 | trad grows ~linearly, not-sorted worst, bulk flat & best | yes — all three, baseline magnitudes within ~15% |
| Fig. 8 | every extra index costs trad dearly, bulk barely; prototype drop&create loses even to trad | yes — incl. drop&create once the index rebuild is entry-at-a-time like the prototype's |
| Tab. 1 | bulk independent of index height; trad pays for height | yes — bulk +1%, not-sorted +20% (paper +33%); our sorted/trad flatter than the paper's |
| Fig. 9 | bulk flat from 2 MB up; not-sorted gains most from memory | yes — bulk exactly flat; not-sorted -22% from 2->10 MB (paper -46%: a pure LRU keeps less of the leaf level) |
| Fig. 10 | clustered driving index: sorted/trad beats even bulk | yes — the one crossover, at every fraction |
"""

SECTIONS = [
    ("Figure 1 — introduction: commercial-style system, 3 indexes",
     "figure_1",
     "The 'commercial product' is approximated by our traditional "
     "executor with an unsorted delete list (the paper: its not-sorted "
     "prototype run 'roughly corresponds to the way the database product "
     "studied in the introduction carries out bulk deletes') and by "
     "drop & create with the efficient sort+bulk-load index rebuild a "
     "commercial system has."),
    ("Figure 7 — Experiment 1: vary deleted fraction", "figure_7",
     "One unclustered index, 5 MB (scaled) memory. At 15% the paper's "
     "Table 1 values apply: sorted 64.65, not sorted 102.05, bulk 24.87."),
    ("Figure 8 — Experiment 2: vary number of indexes", "figure_8",
     "15% deletes. drop & create here uses the paper prototype's "
     "entry-at-a-time index rebuild, which is why it loses even to the "
     "traditional plans, exactly as in the paper ('apparently, creating "
     "indices is slower in our prototype than in the commercial database "
     "system')."),
    ("Table 1 — Experiment 3: index height 3 vs 4", "table_1",
     "Height forced by capping inner fan-out, as the paper did by "
     "inflating inner keys to 100/node. Bulk delete never traverses "
     "root-to-leaf per record, so height barely matters; the not-sorted "
     "baseline pays for the extra level. Our sorted/trad is flatter than "
     "the paper's (+1% vs +25%): with a sorted list our upper levels stay "
     "perfectly cached, the paper's prototype apparently lost some."),
    ("Figure 9 — Experiment 4: vary memory", "figure_9",
     "15% deletes, 1 unclustered index, run at 2x scale with a lowered "
     "memory floor so the three scaled budgets genuinely differ."),
    ("Figure 10 — Experiment 5: clustered driving index", "figure_10",
     "Table clustered on A. The best case for the traditional approach: "
     "with sorted keys its heap accesses are sequential and it beats even "
     "the bulk delete — 'the analogon is that index nested-loop joins "
     "perform very well if the index is clustered and the outer table is "
     "sorted accordingly.'"),
]

ABLATIONS_NOTE = """
* **bd method** — the three vertical methods land within ~40% of each
  other, supporting the paper's claim that the hash-vs-sort tradeoff
  mirrors ordinary joins and matters far less than vertical vs
  horizontal.  Because the hash probes locate entries by RID, this is
  simultaneously the key- vs RID-primary-predicate comparison.
* **Leaf compaction (§2.3)** — compacting during the sweep costs ~5%,
  the paper's "very little extra cost", and leaves a dense leaf level.
* **Base-node reorganization ([26])** — cost-neutral with the
  layer-by-layer rebuild at these tree sizes, as expected: both touch
  the same leaves once; they differ only in inner-node handling.
* **Free-at-empty vs merge-at-half ([9] vs [8])** — after a 50% delete,
  an explicit merge pass halves the leaf count for ~0.1 simulated
  seconds; free-at-empty alone leaves the level sparse.  The paper (and
  [8]) argue the merge is usually not worth it for update-heavy
  workloads.
* **Hash secondary index (§5)** — "other kinds of indices are updated
  in the traditional way": with a hash index on B the same 15% bulk
  delete costs ~4x more, because that index pays one random access per
  deleted record.
"""

TAIL = """## Reproducing

```bash
pytest benchmarks/ --benchmark-only                    # all figures
REPRO_BENCH_RECORDS=20000 pytest benchmarks/ --benchmark-only  # sharper
python -m repro experiment figure_7 --plot             # ASCII chart
python benchmarks/build_experiments_md.py              # rebuild this file
```

Each benchmark prints its table and chart and writes them to
`benchmarks/_reports/<name>.txt`; the shape assertions (who wins, what
grows, where the crossover is) are enforced as test assertions, so a
regression in any reproduced behaviour fails the build.
"""


def main() -> None:
    out = [HEAD]
    for title, name, note in SECTIONS:
        out.append(f"## {title}\n\n{note}\n\n```\n{load(name)}\n```\n")
    ablation_blocks = "\n\n".join(
        load(name)
        for name in [
            "ablation_methods", "ablation_compaction",
            "ablation_base_node", "ablation_reclaim_policy",
            "ablation_hash_index",
        ]
    )
    out.append(
        "## Ablations (design choices, not paper figures)\n\n"
        f"```\n{ablation_blocks}\n```\n{ABLATIONS_NOTE}\n"
        "## Extension: the paper's UPDATE application (§1)\n\n"
        f"```\n{load('extension_bulk_update')}\n```\n"
    )
    out.append(
        "## Extension: parallel multi-lane execution "
        "(`docs/parallelism.md`)\n\n"
        "Four near-equal post-table index branches (B, C, D2, E; A drives "
        "the delete), 15% deletes, scheduled on 1/2/4 simulated I/O lanes. "
        "`lanes=1` takes the exact serial code path — bit-identical to the "
        "paper's single-disk testbed.  *Dedicated* lanes (one disk per "
        "lane) make the index-maintenance region speed up near-linearly: "
        "the region makespan is the max over lanes, not the sum.  *Shared* "
        "lanes interleave on one device, which forfeits every "
        "sequentiality discount and serializes the requests — worse than "
        "not parallelizing at all.  End-to-end gains are Amdahl-limited by "
        "the serial RID-list build and base-table sweep.\n\n"
        f"```\n{load('fig_parallel_speedup')}\n```\n"
    )
    out.append(
        "## Extension: live OLTP interference "
        "(`docs/workloads.md`)\n\n"
        "Seeded closed-loop traffic (point reads, pad updates, inserts "
        "from N sessions) interleaves with a 15% bulk delete on one "
        "simulated clock, under two strategies: the paper's §3 "
        "side-file vertical plan and a chunked `DELETE ... LIMIT` "
        "horizontal plan (256-row chunks, durable progress per chunk). "
        "User ops and delete slices share a single FCFS queue, so "
        "every stalled millisecond is attributed — table-lock wait "
        "during the critical phase, engine-busy wait behind a "
        "propagation/chunk slice, or queueing behind peers.  The "
        "side-file plan stalls traffic once (its critical phase sweeps "
        "sequentially, a fraction of a page access per row) and then "
        "yields between short propagation slices; every 256-row chunk "
        "pays ~3 random accesses per row and out-stalls the whole "
        "critical phase, so the chunked plan loses on p99 *and* holds "
        "the interference window open ~10x longer.  All numbers "
        "reconcile exactly against the observer's spans and `oltp.*` "
        "metrics (same addends, same order — no epsilon); "
        "`tests/test_traffic.py` re-checks the methodology end to "
        "end.\n\n"
        f"```\n{load('fig_oltp_interference')}\n```\n"
    )
    out.append(
        "## Extension: range-sharded scaling "
        "(`docs/sharding.md`)\n\n"
        "Table R range-partitioned on the driving column A into four "
        "equi-depth shards, each with its own heap and A-index; a 15% "
        "delete routes into four near-equal fragments that run as "
        "independent lane tasks.  `lanes=1` executes the fragments "
        "back to back on the exact serial code path (a single shard "
        "is bit-identical to the unsharded executor); on dedicated "
        "lanes the `shards` region's speedup approaches the shard "
        "count because the fragments share *nothing* — no RID-list "
        "barrier, no shared pages — so unlike the plan-branch "
        "parallelism above, the whole statement scales, not just the "
        "post-table region.  Per-task lane time must equal each "
        "fragment executor's own elapsed time to the last bit and "
        "fragment row counts must sum to the statement total "
        "(`reconcile_problems` is always 0); `tests/test_shard.py` "
        "re-checks routing, bit-identity, speedup and hot-range "
        "taming end to end.\n\n"
        f"```\n{load('fig_shard_scaling')}\n```\n"
    )
    out.append(
        "## Extension: media robustness overhead "
        "(`docs/media_faults.md`)\n\n"
        "What the read-path robustness machinery costs when nothing is "
        "broken.  A full scrub pass (checksum sweep of every durable "
        "page plus heap/index cross-reconciliation) reads the database "
        "once, mostly sequentially: its cost grows with the table but "
        "stays a fraction of the 15% bulk delete it guards, and a "
        "clean scrub issues no writes at all.  The retry table shows "
        "the latency tail one transient-faulted read gains under the "
        "default `MediaPolicy` (4 attempts, 1 ms backoff doubling): "
        "recovery on attempt k adds k-1 extra charged reads plus "
        "2^(k-1)-1 ms of backoff, and a fault-free read costs exactly "
        "a clean one — the no-fault fast path is free.\n\n"
        f"```\n{load('fig_scrub_overhead')}\n```\n"
    )
    out.append(
        "## Extension: compliance-deletion overhead "
        "(`docs/retention.md`)\n\n"
        "The price of deletion that *stays* deleted.  The bare "
        "FK-guarded cascade removes the victims; the retention run "
        "adds the WAL protocol (begin/node/seal records, full-page "
        "writes) and the erase pass (heap compaction, index-slack "
        "zeroing, LSM compaction + orphan reclaim, freed-page "
        "shredding, WAL redaction) — that gap is the compliance "
        "premium.  The unrecoverability audit then sweeps every live "
        "and freed page, index, LSM run, WAL record and full-page "
        "image for witness traces: read-only, a small fraction of the "
        "run it checks, and required to find nothing.  "
        "`tests/test_retention_run.py` and `python -m repro faultsweep "
        "--retention` re-verify the guarantees the premium buys.\n\n"
        f"```\n{load('fig_retention_overhead')}\n```\n"
    )
    out.append(TAIL)
    (ROOT / "EXPERIMENTS.md").write_text("\n".join(out))
    print(f"wrote {ROOT / 'EXPERIMENTS.md'}")


if __name__ == "__main__":
    main()
