"""Forensic unrecoverability auditor.

After a retention run, :func:`audit_erasure` plays the adversary from
the privacy-deletion threat model: someone with the disk image and the
WAL, looking for any durable trace of the erased rows.  It sweeps

* **every durable page** — live *and* freed-but-retained — via the
  disk's uncharged :meth:`~repro.storage.disk.SimulatedDisk.durable_image`
  (the "platter" view: freed bytes linger until overwritten, whatever
  the access policy says about reading them through the normal path),
  byte-scanning for the witness's distinctive payload patterns,
* the **heap** of every witness table: live records whose witness
  column still holds an erased key,
* every **B+-tree** and **hash** index leaf: entries keyed by an
  erased value (stale slack bytes past the live entry region are
  caught by the raw page scan above),
* **side-files**: pending index updates naming an erased key,
* the **WAL**: logical redo records (``heap_deletes``/``leaf_deletes``)
  and retention records still carrying erased keys, full-page images
  containing witness bytes, and the materialized key spill pages of
  every bulk statement (scanned as packed int64s — they hold nothing
  but victim keys),
* the **LSM trees**: memtable entries, point and range tombstones that
  still *name* an erased key (a tombstone advertises that the key
  existed — Lethe's motivation for bounded tombstone lifetimes), every
  run's items, run metadata whose key bounds are erased keys, and the
  manifest/log pages (covered by the raw page scan).

Every hit becomes a typed :class:`ErasureFinding`; a clean audit is an
empty findings list.  The audit itself is mutation-tested (see
``repro.retention.sweep``): planted traces must be caught, so a green
audit is evidence, not vacuity.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.catalog.database import Database
from repro.recovery.wal import WriteAheadLog
from repro.retention.policy import ACTION_DELETE, RetentionPlan
from repro.txn.sidefile import SideFile

_INT64 = struct.Struct("<q")


#: Trie key marking "a pattern ends here" (no byte has this value).
_END = -1


def _any_of(patterns: Sequence[bytes]) -> bytes:
    """A regular expression for "some pattern occurs", as a byte trie.

    Shared prefixes are factored into nested ``(?:...)`` groups, so the
    matcher decides each image position by walking one trie path; a flat
    ``a|b|c`` alternation would retry every alternative at every
    position that starts like a pattern, which is most of a page full of
    the victims' surviving neighbours.  A pattern that extends a shorter
    one adds nothing to the question and is pruned.
    """
    if not patterns:
        return b"(?!)"  # nothing to look for: never matches
    trie: Dict[int, dict] = {}
    for pattern in sorted(patterns):  # a prefix sorts before its extensions
        node = trie
        for byte in pattern:
            if _END in node:
                break
            node = node.setdefault(byte, {})
        else:
            node.clear()
            node[_END] = {}

    def emit(node: Dict[int, dict]) -> bytes:
        out = b""
        while len(node) == 1:  # an unbranched run needs no group
            ((byte, node),) = node.items()
            if byte == _END:
                return out
            out += re.escape(bytes([byte]))
        if node:
            out += b"(?:" + b"|".join(
                re.escape(bytes([byte])) + emit(child)
                for byte, child in node.items()
            ) + b")"
        return out

    return emit(trie)


@dataclass(frozen=True)
class ErasureWitness:
    """What the auditor hunts for.

    ``keys`` maps ``(table, column)`` to the erased key values of that
    column; ``patterns`` are distinctive payload byte strings (e.g. the
    victims' CHAR field contents) searched for on every durable page
    and WAL image.  Patterns should be unique enough not to occur in
    surviving rows — the *scenario* guarantees that, not the auditor.
    """

    keys: Dict[Tuple[str, str], frozenset] = field(default_factory=dict)
    patterns: Tuple[bytes, ...] = ()

    @cached_property
    def pattern_gate(self) -> re.Pattern[bytes]:
        """One expression that matches wherever *any* pattern occurs.

        Built once per witness and used as a negative gate: almost every
        image holds no witness bytes, and saying so takes one pass over
        the image instead of one ``in`` per pattern.
        """
        return re.compile(_any_of(self.patterns))

    def keys_for(self, table: str, column: str) -> frozenset:
        return self.keys.get((table, column), frozenset())

    def tables(self) -> List[Tuple[str, str]]:
        return sorted(self.keys)


def build_witness(
    plans: Sequence[RetentionPlan],
    patterns: Sequence[bytes] = (),
) -> ErasureWitness:
    """Witness for the *delete* nodes of compiled plans.

    SET NULL nodes are excluded: their rows survive (with the key
    column nulled), so the erased parent key legitimately stays absent
    rather than erased from those tables.
    """
    keys: Dict[Tuple[str, str], Set[int]] = {}
    for plan in plans:
        for node in plan.nodes:
            if node.action != ACTION_DELETE or not node.keys:
                continue
            keys.setdefault((node.table, node.column), set()).update(
                node.keys
            )
    return ErasureWitness(
        keys={slot: frozenset(values) for slot, values in keys.items()},
        patterns=tuple(patterns),
    )


@dataclass(frozen=True)
class ErasureFinding:
    """One durable trace of an erased value."""

    #: Where the trace lives: ``heap``, ``btree``, ``hash``, ``page``,
    #: ``freed-page``, ``wal``, ``wal-image``, ``spill``, ``lsm``,
    #: ``side-file``.
    location: str
    detail: str
    table: str = ""
    page_id: Optional[int] = None

    def describe(self) -> str:
        where = f" page={self.page_id}" if self.page_id is not None else ""
        target = f" [{self.table}]" if self.table else ""
        return f"{self.location}{target}{where}: {self.detail}"


@dataclass
class ErasureReport:
    """Outcome of one audit sweep."""

    findings: List[ErasureFinding] = field(default_factory=list)
    pages_scanned: int = 0
    wal_records_scanned: int = 0
    structures_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        head = (
            f"erasure audit: {len(self.findings)} finding(s) over "
            f"{self.pages_scanned} pages, {self.wal_records_scanned} WAL "
            f"records, {self.structures_scanned} structures"
        )
        lines = [head]
        for finding in self.findings[:20]:
            lines.append(f"  - {finding.describe()}")
        if len(self.findings) > 20:
            lines.append(f"  ... and {len(self.findings) - 20} more")
        return "\n".join(lines)


def audit_erasure(
    db: Database,
    log: WriteAheadLog,
    witness: ErasureWitness,
    side_files: Optional[Dict[str, SideFile]] = None,
) -> ErasureReport:
    """Sweep every durable surface for traces of ``witness``."""
    report = ErasureReport()
    _scan_all_pages(db, witness, report)
    _scan_heaps(db, witness, report)
    _scan_indexes(db, witness, report)
    _scan_lsm(db, witness, report)
    _scan_wal(db, log, witness, report)
    _scan_side_files(side_files or {}, witness, report)
    obs = db.obs
    if obs is not None:
        obs.on_retention_audit(  # type: ignore[attr-defined]
            report.pages_scanned, len(report.findings)
        )
    return report


# ----------------------------------------------------------------------
# physical surface: every durable page, live or freed
# ----------------------------------------------------------------------
def _scan_image(
    image: bytes,
    witness: ErasureWitness,
    report: ErasureReport,
    location: str,
    page_id: Optional[int],
    detail_prefix: str = "",
) -> None:
    if witness.pattern_gate.search(image) is None:
        return
    # Something is there: name every pattern present, in witness order.
    for pattern in witness.patterns:
        if pattern in image:
            report.findings.append(ErasureFinding(
                location=location,
                detail=(
                    f"{detail_prefix}witness bytes {pattern!r} present"
                ),
                page_id=page_id,
            ))


def _scan_all_pages(
    db: Database, witness: ErasureWitness, report: ErasureReport
) -> None:
    disk = db.disk
    for page_id in disk.page_ids():
        report.pages_scanned += 1
        _scan_image(
            disk.durable_image(page_id), witness, report, "page", page_id
        )
    for page_id in disk.freed_page_ids():
        report.pages_scanned += 1
        _scan_image(
            disk.durable_image(page_id), witness, report,
            "freed-page", page_id,
            detail_prefix="freed-but-retained: ",
        )


# ----------------------------------------------------------------------
# logical surfaces: heap records, index entries
# ----------------------------------------------------------------------
def _scan_heaps(
    db: Database, witness: ErasureWitness, report: ErasureReport
) -> None:
    for table_name, column in witness.tables():
        table = db.table(table_name)
        if table.lsm is not None:
            continue  # LSM tables are swept by _scan_lsm
        report.structures_scanned += 1
        keys = witness.keys_for(table_name, column)
        column_idx = table.schema.column_index(column)
        for rid, payload in table.heap.scan():
            values = table.serializer.unpack(payload)
            if values[column_idx] in keys:
                report.findings.append(ErasureFinding(
                    location="heap",
                    detail=(
                        f"live record {rid} still holds erased "
                        f"{column}={values[column_idx]}"
                    ),
                    table=table_name,
                    page_id=rid.page_id,
                ))


def _scan_indexes(
    db: Database, witness: ErasureWitness, report: ErasureReport
) -> None:
    for table_name, column in witness.tables():
        table = db.table(table_name)
        if table.lsm is not None:
            continue
        keys = witness.keys_for(table_name, column)
        for name, ix in sorted(table.indexes.items()):
            if ix.columns != (column,) and ix.column != column:
                continue  # keyed by another column: no erased key appears
            report.structures_scanned += 1
            if ix.is_btree:
                entries = ix.tree.range_scan()  # type: ignore[union-attr]
                location = "btree"
            else:
                entries = ix.hash_index.items()  # type: ignore[union-attr]
                location = "hash"
            for key, packed_rid in entries:
                if key in keys:
                    report.findings.append(ErasureFinding(
                        location=location,
                        detail=(
                            f"index {name} entry ({key}, rid={packed_rid}) "
                            "references an erased key"
                        ),
                        table=table_name,
                    ))


# ----------------------------------------------------------------------
# LSM: memtable, tombstones, runs, run metadata
# ----------------------------------------------------------------------
def _scan_lsm(
    db: Database, witness: ErasureWitness, report: ErasureReport
) -> None:
    from repro.lsm.sstable import run_iter

    for table_name, column in witness.tables():
        table = db.table(table_name)
        lsm = table.lsm
        if lsm is None:
            continue
        report.structures_scanned += 1
        keys = witness.keys_for(table_name, column)

        for key, (seq, payload) in sorted(lsm.memtable.entries.items()):
            if key in keys:
                what = "tombstone" if payload is None else "entry"
                report.findings.append(ErasureFinding(
                    location="lsm",
                    detail=f"memtable {what} still names erased key {key}",
                    table=table_name,
                ))
        tomb_ranges = list(lsm.memtable.ranges)
        for level, runs in enumerate(lsm.levels):
            for meta in runs:
                for bound_name, bound in (
                    ("key_min", meta.key_min), ("key_max", meta.key_max)
                ):
                    if bound in keys:
                        report.findings.append(ErasureFinding(
                            location="lsm",
                            detail=(
                                f"L{level} run metadata {bound_name}="
                                f"{bound} is an erased key"
                            ),
                            table=table_name,
                        ))
                tomb_ranges.extend(meta.ranges)
                for key, seq, payload in run_iter(db.pool, meta):
                    if key in keys:
                        what = "tombstone" if payload is None else "item"
                        report.findings.append(ErasureFinding(
                            location="lsm",
                            detail=(
                                f"L{level} run {what} still names erased "
                                f"key {key}"
                            ),
                            table=table_name,
                        ))
                    elif payload is not None:
                        _scan_image(
                            payload, witness, report, "lsm", None,
                            detail_prefix=f"L{level} run payload: ",
                        )
        for tomb in tomb_ranges:
            if any(tomb.lo <= key <= tomb.hi for key in sorted(keys)):
                report.findings.append(ErasureFinding(
                    location="lsm",
                    detail=(
                        f"range tombstone [{tomb.lo}, {tomb.hi}] still "
                        "covers erased keys"
                    ),
                    table=table_name,
                ))


# ----------------------------------------------------------------------
# WAL: logical records, retention records, images, key spill pages
# ----------------------------------------------------------------------
def _all_witness_keys(witness: ErasureWitness) -> frozenset:
    merged: Set[int] = set()
    for values in witness.keys.values():
        merged |= values
    return frozenset(merged)


def _scan_wal(
    db: Database,
    log: WriteAheadLog,
    witness: ErasureWitness,
    report: ErasureReport,
) -> None:
    every_key = _all_witness_keys(witness)
    spill_pages: List[Tuple[int, int]] = []  # (page_id, record lsn)
    for record in log.records():
        report.wal_records_scanned += 1
        payload = record.payload
        if record.kind in ("heap_deletes", "leaf_deletes"):
            for entry in payload.get("entries", ()):
                hit = [v for v in entry if v in every_key]
                if hit:
                    report.findings.append(ErasureFinding(
                        location="wal",
                        detail=(
                            f"{record.kind}@{record.lsn} entry still "
                            f"carries erased key(s) {hit}"
                        ),
                    ))
        elif record.kind == "retention_begin":
            for node_payload in payload.get("nodes", ()):
                hit = sorted(
                    set(node_payload.get("keys", ())) & every_key
                )
                if hit:
                    report.findings.append(ErasureFinding(
                        location="wal",
                        detail=(
                            f"retention_begin@{record.lsn} node for "
                            f"{node_payload['table']} still lists erased "
                            f"key(s) {hit[:5]}"
                        ),
                    ))
        elif record.kind == "retention_nullout":
            hit = sorted(set(payload.get("keys", ())) & every_key)
            if hit:
                report.findings.append(ErasureFinding(
                    location="wal",
                    detail=(
                        f"retention_nullout@{record.lsn} still lists "
                        f"erased key(s) {hit[:5]}"
                    ),
                ))
        elif record.kind == "page_image":
            _scan_image(
                payload["image"], witness, report, "wal-image",
                payload["page_id"],
                detail_prefix=f"full-page image @{record.lsn}: ",
            )
        elif record.kind == "materialized":
            for page_id in payload.get("page_ids", ()):
                spill_pages.append((page_id, record.lsn))

    # The key spill pages hold nothing but packed victim keys/RIDs:
    # scan them as aligned little-endian int64s.
    for page_id, lsn in spill_pages:
        image = db.disk.durable_image(page_id)
        report.pages_scanned += 1
        hits = sorted({
            value
            for (value,) in _INT64.iter_unpack(
                image[: len(image) - len(image) % 8]
            )
            if value in every_key
        })
        if hits:
            report.findings.append(ErasureFinding(
                location="spill",
                detail=(
                    f"materialized@{lsn} spill page still holds erased "
                    f"key(s) {hits[:5]}"
                ),
                page_id=page_id,
            ))


def _scan_side_files(
    side_files: Dict[str, SideFile],
    witness: ErasureWitness,
    report: ErasureReport,
) -> None:
    every_key = _all_witness_keys(witness)
    for name in sorted(side_files):
        side = side_files[name]
        report.structures_scanned += 1
        for entry in side._memory[side._applied_in_memory:]:
            if entry.key in every_key:
                report.findings.append(ErasureFinding(
                    location="side-file",
                    detail=(
                        f"side-file {name} pending {entry.op.value} still "
                        f"names erased key {entry.key}"
                    ),
                ))
