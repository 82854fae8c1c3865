"""Tests for the unrecoverability auditor and the freed-page contract.

A PR satellite pins the ``durable_image``/freed-page semantics the
auditor is built on: with ``retain_freed`` (the realistic default) a
freed page's last bytes stay durably readable until overwritten —
``read_page`` tolerates the id and ``durable_image`` returns the stale
bytes; with ``retain_freed=False`` normal reads fail, but
``durable_image`` is the forensic *platter* view and still returns
whatever is on the medium under **both** policies.  The auditor sweeps
exactly that surface, so the erase pass must shred freed pages, not
just free them.

This module exercises the raw disk surface (read_page/write_page on
freed pages) on purpose — that *is* the contract under test:

# lint: allow-file(raw-page-io)
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.retention import (
    ErasureWitness,
    RecoverableRetentionRun,
    RetentionScenario,
    audit_erasure,
    audit_mutation_checks,
    build_witness,
)
from repro.retention.audit import ErasureReport, _scan_image
from repro.storage.disk import SimulatedDisk

PATTERN = b"S7700001!"


def _freed_page_with_pattern(retain_freed):
    disk = SimulatedDisk(page_size=512, retain_freed=retain_freed)
    file_id = disk.create_file()
    page_id = disk.allocate_page(file_id)
    image = PATTERN + bytes(disk.page_size - len(PATTERN))
    disk.write_page(page_id, image)
    disk.free_page(page_id)
    return disk, page_id, image


def test_retained_freed_page_stays_readable():
    disk, page_id, image = _freed_page_with_pattern(retain_freed=True)
    assert page_id in disk.freed_page_ids()
    assert disk.read_page(page_id) == image
    assert disk.durable_image(page_id) == image


def test_strict_mode_fails_reads_but_not_the_platter_view():
    disk, page_id, image = _freed_page_with_pattern(retain_freed=False)
    with pytest.raises(StorageError):
        disk.read_page(page_id)
    with pytest.raises(StorageError):
        disk.free_page(page_id)  # double free is an error in strict mode
    # The forensic view does not go through the freed-id gate: the
    # bytes are still on the medium and the auditor must see them.
    assert disk.durable_image(page_id) == image


def test_double_free_is_ignored_with_retain_freed():
    disk, page_id, _ = _freed_page_with_pattern(retain_freed=True)
    disk.free_page(page_id)  # no error: freeing a freed page is a no-op
    assert disk.freed_page_ids().count(page_id) == 1


def _clean_run():
    case = RetentionScenario().build()
    plans = case.compile()
    RecoverableRetentionRun(
        case.db, plans, case.log, full_page_writes=True,
    ).run()
    return case, plans


def test_erase_shreds_freed_pages_to_zero():
    # Freeing is not erasing: the erase pass must overwrite every
    # freed-but-retained page, leaving nothing for durable_image to
    # recover.
    case, _ = _clean_run()
    disk = case.db.disk
    freed = disk.freed_page_ids()
    assert freed, "scenario frees pages (heap reclaim, LSM compaction)"
    for page_id in freed:
        assert not any(disk.durable_image(page_id)), (
            f"freed page {page_id} still holds bytes after the erase"
        )


def test_auditor_sweeps_freed_pages():
    # Planting victim bytes on a freed page after a clean run must
    # surface as a 'freed-page' finding — the auditor reads the platter
    # (durable_image), not the live-page set.
    case, plans = _clean_run()
    witness = case.witness(plans)
    assert audit_erasure(case.db, case.log, witness).ok
    disk = case.db.disk
    page_id = disk.freed_page_ids()[0]
    secret = f"S{case.victims[0]}!".encode()
    image = bytes(16) + secret + bytes(disk.page_size - 16 - len(secret))
    disk.corrupt_page(page_id, image)
    report = audit_erasure(case.db, case.log, witness)
    assert any(
        f.location == "freed-page" and f.page_id == page_id
        for f in report.findings
    ), [f.describe() for f in report.findings]


def test_auditor_scans_live_pages_for_witness_bytes():
    case, plans = _clean_run()
    witness = case.witness(plans)
    disk = case.db.disk
    page_id = disk.page_ids()[len(disk.page_ids()) // 2]
    secret = f"S{case.victims[0]}!".encode()
    stale = bytearray(disk.durable_image(page_id))
    stale[40:40 + len(secret)] = secret
    disk.corrupt_page(page_id, bytes(stale))
    report = audit_erasure(case.db, case.log, witness)
    assert any(
        f.location == "page" and f.page_id == page_id
        for f in report.findings
    ), [f.describe() for f in report.findings]


def test_witness_covers_delete_nodes_only():
    # SET NULL children keep their rows: the witness must not demand
    # their erasure, only that nulled references no longer name victims.
    case, plans = _clean_run()
    witness = case.witness(plans)
    assert ("profiles", "PUID") not in witness.keys
    assert ("users", "UID") in witness.keys
    assert ("events", "EUID") in witness.keys
    assert set(case.victims) <= set(witness.keys[("users", "UID")])


def test_empty_witness_audits_clean_on_a_fresh_database():
    case = RetentionScenario().build()
    witness = ErasureWitness(keys={}, patterns=())
    report = audit_erasure(case.db, case.log, witness)
    assert report.ok
    # The audit sweeps live *and* freed-but-retained pages.
    assert report.pages_scanned == len(case.db.disk.page_ids()) + len(
        case.db.disk.freed_page_ids()
    )


def test_build_witness_merges_plans_and_patterns():
    case = RetentionScenario().build()
    plans = case.compile()
    witness = build_witness(plans, patterns=(b"XYZ!",))
    assert b"XYZ!" in witness.patterns
    # Both policies target orders (CASCADE + expiry): one merged entry.
    ts_keys = witness.keys_for("orders", "TS")
    assert set(case.expired_ts) <= set(ts_keys)


# ----------------------------------------------------------------------
# the raw-image scan: one compiled gate, then today's per-pattern loop
# ----------------------------------------------------------------------
#: A small alphabet so patterns share prefixes, contain one another and
#: overlap in the image; regex metacharacters and NUL are in it.
_ALPHABET = b"ab.\x00(|)*\\[^$?+-"
_chunks = st.lists(st.sampled_from(list(_ALPHABET)), max_size=6).map(bytes)


def _findings(witness, image):
    report = ErasureReport()
    _scan_image(image, witness, report, "page", 7, detail_prefix="p: ")
    return report.findings


@settings(max_examples=300, deadline=None)
@given(
    patterns=st.lists(_chunks, max_size=8).map(tuple),
    image=st.lists(st.sampled_from(list(_ALPHABET)), max_size=60).map(bytes),
)
def test_gated_scan_reports_exactly_what_the_ungated_loop_does(patterns, image):
    gated = ErasureWitness(patterns=patterns)
    ungated = ErasureWitness(patterns=patterns)
    # A gate that lets every image through is the parent's plain loop.
    ungated.__dict__["pattern_gate"] = re.compile(b"")
    want = _findings(ungated, image)
    assert [f.detail for f in want] == [
        f"p: witness bytes {p!r} present" for p in patterns if p in image
    ]
    assert _findings(gated, image) == want
    assert _findings(gated, bytearray(image)) == want
    # The gate itself is exact, not merely safe: it opens iff the loop
    # would find something.
    assert (gated.pattern_gate.search(image) is not None) == bool(want)


def test_gate_is_a_prefix_trie_built_once_per_witness():
    witness = ErasureWitness(
        patterns=(b"S7700001!", b"S7700002!", b"S7700002!x", b"E77.1", b"E77*2")
    )
    gate = witness.pattern_gate
    assert witness.pattern_gate is gate  # cached on the witness
    # Shared prefixes factored, the extension of a whole pattern pruned,
    # metacharacters escaped.
    assert gate.pattern == rb"(?:E77(?:\*2|\.1)|S770000(?:1!|2!))"
    assert ErasureWitness().pattern_gate.search(b"anything") is None
    assert _findings(ErasureWitness(), b"anything") == []
    assert [f.detail for f in _findings(ErasureWitness(patterns=(b"",)), b"")] == [
        "p: witness bytes b'' present"
    ]


def test_blinded_gate_misses_exactly_the_raw_image_plants(monkeypatch):
    """The two planted traces that live only in raw bytes (a retained
    WAL image, an unshredded freed page) are found *through* the gate:
    blind it and exactly those two mutation checks fail."""
    assert audit_mutation_checks(RetentionScenario()) == []
    monkeypatch.setattr(
        ErasureWitness, "pattern_gate", property(lambda self: re.compile(b"(?!)"))
    )
    failures = audit_mutation_checks(RetentionScenario())
    assert [failure.split(":")[0] for failure in failures] == [
        "retained WAL image", "unshredded freed page",
    ]
