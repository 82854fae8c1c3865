"""A delete-aware LSM storage engine on the simulated cost model.

The package reproduces the comparison the source paper could not make
in 2001: vertical bulk deletes on heap + B+-tree storage versus
tombstone + compaction deletes on a log-structured merge tree.  The
design follows Lethe ("Lethe: A Tunable Delete-Aware LSM Engine",
PAPERS.md): deletes write point/range tombstones instead of touching
data in place, and a FADE-style compaction picker chases
tombstone-dense and tombstone-old runs so deleted space and lookup
amplification are reclaimed promptly, not eventually.

Layers (see ``docs/storage_engines.md``):

* :mod:`repro.lsm.memtable` — the in-memory write buffer (point
  entries + range tombstones, resolved by sequence number),
* :mod:`repro.lsm.sstable` — immutable sorted runs on buffer-pool
  pages, with in-memory fence keys,
* :mod:`repro.lsm.tree` — the leveled tree: write-ahead log pages,
  memtable flushes, leveled + delete-aware compaction, a
  double-buffered superblock/manifest commit protocol,
* :mod:`repro.lsm.engine` — :func:`lsm_bulk_delete`, the branch
  ``bulk_delete`` takes for ``engine="lsm"`` tables,
* :mod:`repro.lsm.planning` — pure-arithmetic cost estimation
  (``choose_plan`` dispatches here for LSM tables),
* :mod:`repro.lsm.sweep` — the crash-mid-compaction sweep
  (``python -m repro faultsweep --lsm``).
"""

from repro.lsm.engine import LsmDeleteResult, lsm_bulk_delete
from repro.lsm.memtable import Memtable, RangeTombstone
from repro.lsm.planning import LsmDeletePlan, choose_lsm_plan
from repro.lsm.sstable import RunMeta
from repro.lsm.sweep import LsmSweepScenario, lsm_crash_sweep
from repro.lsm.tree import LsmConfig, LsmStats, LsmTree

__all__ = [
    "LsmConfig",
    "LsmDeletePlan",
    "LsmDeleteResult",
    "LsmStats",
    "LsmSweepScenario",
    "LsmTree",
    "Memtable",
    "RangeTombstone",
    "RunMeta",
    "choose_lsm_plan",
    "lsm_bulk_delete",
    "lsm_crash_sweep",
]
