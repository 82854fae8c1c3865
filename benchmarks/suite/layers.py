"""Per-layer attribution of one traced run.

Three sources, all outside ``src/``: (a) public counters read around
the measured statements (exact), (b) ``db.observe()`` spans folded per
operator kind (exact simulated ms), (c) a ``cProfile`` pass aggregated
per engine layer into self-time shares and call counts, plus the layer
probes of :mod:`benchmarks.suite.probes`.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Dict, List, Optional, Sequence

from benchmarks.suite.cycle import OP_KINDS, Statement

#: ``src/repro`` path prefix -> layer label of the ``*.host_share`` /
#: ``*.calls`` metrics.  Longest prefix wins; storage is split by module
#: because its modules are separate rows of the layer table.  Packages
#: not listed (txn, media, parallel, sql, analysis ...) fall under the
#: unreported remainder together with builtins and the standard library.
LAYER_OF_PATH = {
    "storage/disk.py": "disk",
    "storage/buffer.py": "pool",
    "storage/page_formats.py": "page",
    "storage/serializer.py": "serializer",
    "storage/heap.py": "heap",
    "storage/freespace.py": "heap",
    "btree/": "btree",
    "query/": "query",
    "core/": "core",
    "catalog/": "catalog",
    "recovery/": "recovery",
    "faults/": "recovery",
    "lsm/": "lsm",
    "workload/": "traffic",
    "retention/": "retention",
    "obs/": "obs",
}

#: Layers whose call counts are declared metrics (deterministic).
CALL_COUNT_LAYERS = ("disk", "page", "btree")


def _layer_of(filename: str) -> Optional[str]:
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return None
    relative = filename[at + len(marker):]
    best = None
    for prefix, layer in LAYER_OF_PATH.items():
        if relative.startswith(prefix) and (
            best is None or len(prefix) > len(best[0])
        ):
            best = (prefix, layer)
    return best[1] if best else None


def fold_profile(profile: cProfile.Profile) -> Dict[str, Dict[str, float]]:
    """Self time, share of total self time, and calls per layer."""
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    layers: Dict[str, Dict[str, float]] = {}
    total = 0.0
    for (filename, _line, _name), (_cc, calls, self_s, _ct, _) in stats.items():
        total += self_s
        layer = _layer_of(filename)
        if layer is None:
            continue
        into = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
        into["self_s"] += self_s
        into["calls"] += calls
    for into in layers.values():
        into["share"] = into["self_s"] / total if total else 0.0
    return layers


def _sum_field(statements: Sequence[Statement], group: str, name: str) -> float:
    return sum(getattr(s, group).get(name, 0) for s in statements)


def _random_and_sequential(statements: Sequence[Statement]):
    """Random, and sequential + near-sequential, page accesses."""
    disk = lambda name: _sum_field(statements, "disk", name)  # noqa: E731
    return (
        disk("random_reads") + disk("random_writes"),
        disk("sequential_reads") + disk("near_sequential_reads")
        + disk("sequential_writes") + disk("near_sequential_writes"),
    )


def end_to_end_sim(statements: Sequence[Statement]) -> Dict[str, float]:
    """The workload's ``sim_*`` totals over its counted statements."""
    counted = [s for s in statements if s.has_db and s.counts_sim]
    disk = lambda name: _sum_field(counted, "disk", name)  # noqa: E731
    # Space cost: live pages of each database when the last counted
    # statement that ran against it ended.
    space = {s.db_serial: s.space_pages for s in counted}
    random_ios, seq_ios = _random_and_sequential(counted)
    return {
        "space_pages": sum(space.values()),
        "sim_ms": sum(s.sim_ms for s in counted),
        "sim_random_ios": random_ios,
        "sim_seq_ios": seq_ios,
        "sim_pages_read": disk("reads"),
        "sim_pages_written": disk("writes"),
    }


def counter_metrics(statements: Sequence[Statement]) -> Dict[str, float]:
    """``disk.*`` / ``pool.*`` counters over every statement with a
    database (recover() included — these describe the layers' work,
    not the workload's headline cost)."""
    with_db = [s for s in statements if s.has_db]
    disk = lambda name: _sum_field(with_db, "disk", name)  # noqa: E731
    pool = lambda name: _sum_field(with_db, "pool", name)  # noqa: E731
    hits, misses = pool("hits"), pool("misses")
    random_ios, seq_ios = _random_and_sequential(with_db)
    return {
        "disk.reads": disk("reads"),
        "disk.writes": disk("writes"),
        "disk.random_ios": random_ios,
        "disk.seq_ios": seq_ios,
        "disk.io_ms": disk("io_time_ms"),
        "pool.hits": hits,
        "pool.misses": misses,
        "pool.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "pool.evictions": pool("evictions"),
        "pool.dirty_writebacks": pool("dirty_writebacks"),
    }


def derived_host_metrics(
    statements: Sequence[Statement], host_s: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer host metrics the statements feed (``bd.*_row_ns``,
    ``load.row_ns``, ``recover.host_s`` ...): sum of ``host_s * factor``."""
    out: Dict[str, float] = {}
    for stmt in statements:
        for metric, factor in stmt.feeds.items():
            out[metric] = out.get(metric, 0.0) + host_s[stmt.name] * factor
    return out


def observer_metrics(
    observed: Sequence[Statement],
    untraced_host_s: float,
    observed_host_s: float,
) -> Dict[str, float]:
    """``op.*`` exclusive simulated ms per span kind, and what being
    observed cost on the host."""
    counted = [s for s in observed if s.has_db and s.counts_sim]
    out: Dict[str, float] = {}
    for kind in OP_KINDS + ("other",):
        out[f"op.{kind}_sim_ms"] = sum(
            s.ops.get(kind, {}).get("sim_ms", 0.0) for s in counted
        )
    out["obs.spans"] = sum(
        bucket["spans"] for s in observed for bucket in s.ops.values()
    )
    for name in ("sort.runs", "sort.spill_pages"):
        out[name] = sum(s.obs_counters.get(name, 0) for s in observed)
    if untraced_host_s > 0 and observed_host_s > 0:
        out["obs.attached_overhead_pct"] = 100.0 * (
            observed_host_s / untraced_host_s - 1.0
        )
        # Share of the observed run's host time that is the observer:
        # 1 - untraced/observed (the profile pass runs detached).
        out["obs.host_share"] = max(
            0.0, 1.0 - untraced_host_s / observed_host_s
        )
    return out


def profile_metrics(
    layers: Dict[str, Dict[str, float]]
) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for layer, folded in layers.items():
        if layer != "obs":
            out[f"{layer}.host_share"] = folded["share"]
    for layer in CALL_COUNT_LAYERS:
        out[f"{layer}.calls"] = layers.get(layer, {}).get("calls", 0)
    return out


def statement_rows(
    statements: Sequence[Statement], host_s: Dict[str, float]
) -> List[Dict[str, object]]:
    """Per-statement detail for the result file."""
    return [
        {
            "name": s.name,
            "host_s": host_s[s.name],
            "units": s.units,
            "counts_sim": s.counts_sim,
            **(s.simulated() if s.has_db else {}),
        }
        for s in statements
    ]
