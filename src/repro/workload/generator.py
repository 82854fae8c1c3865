"""Synthetic workloads per Section 4.1 of the paper, scaled.

The paper's table R has eleven attributes A..K: ten duplicate-free
random integers plus a padding string bringing each record to 512
bytes; 1,000,000 records ≈ 500 MB.  The delete table D holds a random
sample of R's ``A`` values sized to the delete fraction.

A pure-Python engine cannot load a million 512-byte records per
benchmark run, so workloads are *scaled* while preserving the ratios
that shape the curves:

* record size stays 512 bytes → the same records-per-page fan-out,
* the main-memory budget is specified in *paper megabytes* and scaled
  by the table-size ratio (the paper's 5 MB : 512 MB ≈ 1 %),
* index heights are reproduced by capping inner fan-out, exactly as the
  paper built its height-4 index by storing only 100 keys per node.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.btree.node import node_capacity
from repro.btree.tree import DEFAULT_FILL_FACTOR
from repro.catalog.database import Database
from repro.catalog.schema import Attribute, TableSchema

PAPER_RECORD_COUNT = 1_000_000
PAPER_RECORD_BYTES = 512
PAPER_TABLE_BYTES = PAPER_RECORD_COUNT * PAPER_RECORD_BYTES

INT_COLUMNS = ("A", "B", "C", "D2", "E", "F", "G", "H", "I", "J")


@dataclass
class WorkloadConfig:
    """Knobs of one experiment's database."""

    record_count: int = 20_000
    record_bytes: int = PAPER_RECORD_BYTES
    page_size: int = 4096
    #: Main memory in the *paper's* megabytes; scaled by table size.
    memory_paper_mb: float = 5.0
    #: Columns to index, in creation order ("A" drives the deletes).
    index_columns: Tuple[str, ...] = ("A",)
    #: Index height (including the leaf level); ``None`` (default) keeps
    #: the natural height.  The paper's trees were height 3 with the two
    #: upper levels always cached; at our scale the natural height-2
    #: tree with a cached root is the faithful equivalent.  Experiment 3
    #: (Table 1) forces larger heights explicitly.
    index_height: Optional[int] = None
    #: Cluster the table (and mark the index) on this column.
    clustered_on: Optional[str] = None
    #: Minimum buffer-pool size in pages.  The paper's smallest budget
    #: (2 MB = 512 pages) always held every upper index level plus the
    #: working pages; the scaled-down pool must too, or thrashing that
    #: never happens in the paper dominates.  Experiments that sweep the
    #: memory budget (Figure 9) lower this and raise ``record_count``
    #: instead so the scaled budgets actually differ.
    memory_floor_pages: int = 16
    seed: int = 42

    @property
    def table_bytes(self) -> int:
        return self.record_count * self.record_bytes

    @property
    def memory_bytes(self) -> int:
        """Paper-MB budget scaled by our table : paper table ratio."""
        scaled = (
            self.memory_paper_mb
            * 1024
            * 1024
            * self.table_bytes
            / PAPER_TABLE_BYTES
        )
        return max(self.memory_floor_pages * self.page_size, int(scaled))

    @property
    def scale_factor(self) -> float:
        """Multiply simulated times by this to compare with the paper."""
        return PAPER_RECORD_COUNT / self.record_count


@dataclass
class Workload:
    """A built database plus the generator's ground truth."""

    db: Database
    config: WorkloadConfig
    column_values: Dict[str, List[int]]

    @property
    def a_values(self) -> List[int]:
        return self.column_values["A"]

    def delete_keys(
        self, fraction: float, seed: Optional[int] = None
    ) -> List[int]:
        """A delete list covering ``fraction`` of the records.

        Sampled from the existing ``A`` values in random order (the
        paper's table D is unsorted; ``sorted/trad`` sorts it first).
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        count = int(self.config.record_count * fraction)
        rng = random.Random(self.config.seed + 1 if seed is None else seed)
        return rng.sample(self.a_values, count)

    def fork(self) -> "Workload":
        """This workload on a :meth:`Database.fork` of its database.

        A delete on the fork is billed exactly as on a fresh
        :func:`build_workload` of the same config and leaves this one
        untouched.  The generator's ground truth is read-only and
        shared.
        """
        return Workload(
            db=self.db.fork(),
            config=self.config,
            column_values=self.column_values,
        )

    def reset_measurements(self) -> None:
        """Flush and zero the clock so setup cost is not measured."""
        self.db.flush()
        self.db.clock.reset()
        self.db.disk.stats = type(self.db.disk.stats)()
        self.db.pool.stats = type(self.db.pool.stats)()


def make_schema(record_bytes: int = PAPER_RECORD_BYTES) -> TableSchema:
    """R(A..J INT, K CHAR(pad)) summing to ``record_bytes``."""
    pad = record_bytes - 8 * len(INT_COLUMNS)
    if pad < 1:
        raise ValueError("record_bytes too small for ten INT columns")
    attrs = [Attribute.int_(name) for name in INT_COLUMNS]
    attrs.append(Attribute.char("K", pad))
    return TableSchema.of("R", attrs)


def generate_rows(
    record_count: int, seed: int, record_bytes: int = PAPER_RECORD_BYTES
) -> Tuple[List[Tuple[object, ...]], Dict[str, List[int]]]:
    """Duplicate-free random integers per column + padding, as in §4.1."""
    rng = random.Random(seed)
    space = max(record_count * 10, 1 << 22)
    columns: Dict[str, List[int]] = {
        name: rng.sample(range(space), record_count) for name in INT_COLUMNS
    }
    pad = "x" * min(8, record_bytes - 8 * len(INT_COLUMNS))
    rows: List[Tuple[object, ...]] = []
    for i in range(record_count):
        rows.append(tuple(columns[name][i] for name in INT_COLUMNS) + (pad,))
    return rows, columns


def pick_inner_fanout(
    leaf_count: int,
    desired_height: int,
    physical_capacity: int,
    strict: bool = True,
) -> Optional[int]:
    """Largest inner fan-out giving ``desired_height`` over ``leaf_count``.

    Mirrors the paper's Experiment 3, which shrank inner nodes to 100
    keys to grow the index from height 3 to height 4.  Returns ``None``
    when the natural height already matches.  With ``strict=False`` an
    unreachable height falls back to the tallest achievable tree
    instead of raising (tiny workloads cannot reach height 4).
    """
    def height_with(fanout: int) -> int:
        per_node = max(2, int(fanout * DEFAULT_FILL_FACTOR))
        levels = 1  # the leaf level
        nodes = leaf_count
        while nodes > 1:
            nodes = math.ceil(nodes / per_node)
            levels += 1
        return levels

    if height_with(physical_capacity) == desired_height:
        return None
    for fanout in range(physical_capacity, 3, -1):
        if height_with(fanout) == desired_height:
            return fanout
    if strict:
        raise ValueError(
            f"no inner fan-out yields height {desired_height} over "
            f"{leaf_count} leaves"
        )
    # Fallback: the tallest achievable tree (smallest legal fan-out).
    return 4


def build_workload(config: WorkloadConfig) -> Workload:
    """Create and load the database for one experiment.

    Setup (loading, index builds) happens at full speed and is then
    excluded from measurements via :meth:`Workload.reset_measurements`.
    """
    db = Database(
        page_size=config.page_size, memory_bytes=config.memory_bytes
    )
    schema = make_schema(config.record_bytes)
    db.create_table(schema)
    rows, columns = generate_rows(
        config.record_count, config.seed, config.record_bytes
    )
    if config.clustered_on is not None:
        order = schema.column_index(config.clustered_on)
        paired = sorted(range(len(rows)), key=lambda i: rows[i][order])
        rows = [rows[i] for i in paired]
    db.load_table("R", rows)

    cap = node_capacity(config.page_size)
    leaf_per_node = max(2, int(cap * DEFAULT_FILL_FACTOR))
    leaf_count = math.ceil(config.record_count / leaf_per_node)
    inner_fanout = (
        pick_inner_fanout(leaf_count, config.index_height, cap, strict=False)
        if config.index_height is not None
        else None
    )
    for column in config.index_columns:
        db.create_index(
            "R",
            column,
            clustered=(column == config.clustered_on),
            max_inner_entries=inner_fanout,
        )
    workload = Workload(db=db, config=config, column_values=columns)
    workload.reset_measurements()
    return workload


def build_sharded_workload(
    config: WorkloadConfig, shards: int
) -> Workload:
    """Create and load a *range-sharded* variant of the workload.

    The same rows as :func:`build_workload` land in ``shards``
    equi-depth ranges of the driving column ``A`` (bounds from the
    generated values' order statistics), with every configured index
    created per shard.  Setup cost is excluded from measurements, as
    in the unsharded builder.
    """
    from repro.shard.map import ShardMap

    db = Database(
        page_size=config.page_size, memory_bytes=config.memory_bytes
    )
    schema = make_schema(config.record_bytes)
    rows, columns = generate_rows(
        config.record_count, config.seed, config.record_bytes
    )
    shard_map = ShardMap.from_quantiles("A", columns["A"], shards)
    db.create_sharded_table(schema, "A", shard_map.bounds)
    if config.clustered_on is not None:
        order = schema.column_index(config.clustered_on)
        paired = sorted(range(len(rows)), key=lambda i: rows[i][order])
        rows = [rows[i] for i in paired]
    db.load_table("R", rows)

    cap = node_capacity(config.page_size)
    leaf_per_node = max(2, int(cap * DEFAULT_FILL_FACTOR))
    leaf_count = math.ceil(
        config.record_count / max(1, shards) / leaf_per_node
    )
    inner_fanout = (
        pick_inner_fanout(leaf_count, config.index_height, cap, strict=False)
        if config.index_height is not None
        else None
    )
    for column in config.index_columns:
        db.create_sharded_index(
            "R",
            column,
            clustered=(column == config.clustered_on),
            max_inner_entries=inner_fanout,
        )
    workload = Workload(db=db, config=config, column_values=columns)
    workload.reset_measurements()
    return workload
