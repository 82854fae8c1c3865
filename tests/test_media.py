"""The media layer: checksums, read faults, retry/repair, scrubbing.

Covers the ``repro.media`` package end to end at unit granularity —
the exhaustive outcome check lives in ``repro.media.sweep`` (exercised
here on a tiny scenario and in CI at scale):

* disk primitives: checksum stamping, corruption detection, quarantine
  and restore, freed-page access rules,
* :class:`~repro.media.MediaPolicy` validation and
  :class:`~repro.media.MediaRecovery` retry / repair / quarantine
  semantics, including the no-fault fast path being free,
* the scrubber (detection without a media layer, healing with one,
  structural cross-reconciliation) and its gate form,
* integration: the buffer pool hook, ``BulkDeleteOptions.media``,
  ``RecoverableBulkDelete(media=...)``, ``recover(scrub=True)``,
* the ``code/media-error-outside-media`` lint rule,
* ``media.*`` metrics and ``retry`` spans through ``repro.obs``.
"""
# Media tests corrupt and inspect pages below the pool on purpose,
# and pin exact deterministic retry costs:
# lint: allow-file(raw-page-io, float-cost-eq)

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.code_lint import lint_source
from repro.catalog.database import Database
from repro.core.executor import BulkDeleteOptions, bulk_delete
from repro.errors import (
    ChecksumMismatch,
    MediaError,
    QuarantinedPage,
    RetriesExhausted,
    StorageError,
    TransientReadError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    LATENT,
    STUCK,
    TRANSIENT,
    FaultPlan,
    SimulatedCrash,
)
from repro.faults.sweep import SweepScenario, capture_state
from repro.media import (
    MediaPolicy,
    MediaRecovery,
    media_sweep,
    require_scrubbed,
    scrub_database,
    wal_image_source,
)
from repro.obs.observer import Observer, iter_spans, observed
from repro.recovery.restart import RecoverableBulkDelete, recover
from repro.recovery.wal import WriteAheadLog
from repro.storage.disk import SimulatedDisk
from repro.storage.page_formats import page_checksum
from tests.conftest import populate


def one_page_disk(content: bytes = b"x"):
    """A disk with a single written page; returns (disk, pid, image)."""
    disk = SimulatedDisk(page_size=512)
    pid = disk.allocate_page(disk.create_file())
    image = (content * disk.page_size)[: disk.page_size]
    disk.write_page(pid, image)
    return disk, pid, image


def flipped(image: bytes) -> bytes:
    return bytes([image[0] ^ 0xFF]) + image[1:]


# ---------------------------------------------------------------------------
# disk primitives
# ---------------------------------------------------------------------------
def test_writes_stamp_checksums_and_clean_reads_verify():
    disk, pid, image = one_page_disk()
    assert disk.checksums[pid] == page_checksum(image)
    assert disk.verify_page(pid)
    assert disk.read_page(pid) == image


def test_at_rest_corruption_fails_the_next_verified_read():
    disk, pid, image = one_page_disk()
    disk.corrupt_page(pid, flipped(image))
    assert not disk.verify_page(pid)
    assert disk.corrupt_page_ids() == [pid]
    with pytest.raises(ChecksumMismatch) as excinfo:
        disk.read_page(pid)
    assert excinfo.value.page_id == pid


def test_verify_reads_false_restores_the_trusting_read_path():
    disk = SimulatedDisk(page_size=512, verify_reads=False)
    pid = disk.allocate_page(disk.create_file())
    image = b"x" * disk.page_size
    disk.write_page(pid, image)
    disk.corrupt_page(pid, flipped(image))
    assert disk.read_page(pid) == flipped(image)  # silently wrong: opt-in
    assert not disk.verify_page(pid)  # ...but still detectable offline


def test_quarantine_fences_reads_and_writes_until_restore():
    disk, pid, image = one_page_disk()
    disk.quarantine_page(pid)
    with pytest.raises(QuarantinedPage):
        disk.read_page(pid)
    with pytest.raises(QuarantinedPage):
        disk.write_page(pid, image)
    disk.restore_page(pid, image)
    assert disk.quarantined == set()
    assert disk.read_page(pid) == image
    assert disk.verify_page(pid)


def test_restore_page_restamps_the_checksum():
    disk, pid, image = one_page_disk()
    disk.corrupt_page(pid, flipped(image))
    disk.restore_page(pid, flipped(image))  # operator keeps the new bytes
    assert disk.verify_page(pid)
    assert disk.read_page(pid) == flipped(image)


def test_page_ids_sorted_and_excludes_freed():
    disk = SimulatedDisk(page_size=512)
    pids = disk.allocate_pages(disk.create_file(), 3)
    disk.free_page(pids[1])
    assert disk.page_ids() == sorted([pids[0], pids[2]])


def test_strict_mode_read_write_of_freed_page_raises():
    # Satellite regression: the ``allow_freed`` branch of
    # ``SimulatedDisk._require_page``.
    disk = SimulatedDisk(page_size=512, retain_freed=False)
    pid = disk.allocate_page(disk.create_file())
    disk.free_page(pid)
    with pytest.raises(StorageError, match="has been freed"):
        disk.read_page(pid)
    with pytest.raises(StorageError, match="has been freed"):
        disk.write_page(pid, b"z" * disk.page_size)
    with pytest.raises(StorageError, match="has been freed"):
        disk.free_page(pid)


def test_retain_mode_tolerates_freed_access_and_double_free(disk):
    pid = disk.allocate_page(disk.create_file())
    disk.write_page(pid, b"y" * disk.page_size)
    disk.free_page(pid)
    assert disk.read_page(pid) == b"y" * disk.page_size
    disk.free_page(pid)  # ignored


# ---------------------------------------------------------------------------
# read-fault injection
# ---------------------------------------------------------------------------
def test_transient_fault_recovers_on_the_kth_attempt():
    disk, pid, image = one_page_disk()
    plan = FaultPlan(read_fault=TRANSIENT, read_fault_page=pid,
                     read_recover_after=3)
    with FaultInjector(plan).armed(disk):
        for _ in range(2):
            with pytest.raises(TransientReadError):
                disk.read_page(pid)
        assert disk.read_page(pid) == image  # third attempt succeeds


def test_latent_corruption_is_applied_at_arm_time_and_deterministic():
    images = []
    for _ in range(2):
        disk, pid, image = one_page_disk()
        plan = FaultPlan(read_fault=LATENT, read_fault_page=pid,
                         read_fault_seed=11)
        with FaultInjector(plan).armed(disk):
            assert not disk.verify_page(pid)
            images.append(disk.durable_image(pid))
    assert images[0] == images[1]  # same seed, same corruption mask
    assert images[0] != image


def test_stuck_fault_recorrupts_every_repair_write():
    disk, pid, image = one_page_disk()
    plan = FaultPlan(read_fault=STUCK, read_fault_page=pid)
    with FaultInjector(plan).armed(disk):
        disk.write_page(pid, image)  # a "repair" from a good image
        assert not disk.verify_page(pid)  # ...lands corrupted again


# ---------------------------------------------------------------------------
# MediaPolicy / MediaRecovery
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_read_attempts": 0},
        {"backoff_ms": -1.0},
        {"backoff_multiplier": 0.5},
        {"repair_attempts": -1},
    ],
)
def test_media_policy_rejects_nonsense(kwargs):
    with pytest.raises(ValueError):
        MediaPolicy(**kwargs)


def test_fastpath_read_is_a_plain_disk_read():
    disk, pid, image = one_page_disk()
    media = MediaRecovery(disk)
    before = disk.clock.now_ms
    reads = disk.stats.reads
    assert media.read(pid) == image
    assert media.stats.reads == 1
    assert media.stats.retries == 0 and media.stats.repairs == 0
    assert disk.stats.reads == reads + 1
    # Exactly one read's worth of time — no backoff, no hidden charges.
    assert disk.clock.now_ms - before == pytest.approx(
        disk.parameters.random_ms(disk.page_size)
    )


def test_transient_fault_heals_by_retry_with_backoff():
    disk, pid, image = one_page_disk()
    media = MediaRecovery(disk)  # default: recover_after=3 < 4 attempts
    plan = FaultPlan(read_fault=TRANSIENT, read_fault_page=pid)
    with FaultInjector(plan).armed(disk):
        before = disk.clock.now_ms
        assert media.read(pid) == image
    assert media.stats.transient_failures == 1  # first attempt only
    assert media.stats.retries == 2
    assert media.stats.backoff_ms == pytest.approx(1.0 + 2.0)
    assert media.stats.repairs == 0
    # 3 charged read attempts + the two backoffs, on the simulated
    # clock (re-reads of the same page bill as near-sequential).
    assert disk.clock.now_ms - before == pytest.approx(
        disk.parameters.random_ms(disk.page_size)
        + 2 * disk.parameters.near_sequential_ms(disk.page_size)
        + 3.0
    )


def test_transient_fault_beyond_budget_exhausts_without_quarantine():
    disk, pid, _ = one_page_disk()
    media = MediaRecovery(disk, policy=MediaPolicy(max_read_attempts=2))
    plan = FaultPlan(read_fault=TRANSIENT, read_fault_page=pid,
                     read_recover_after=5)
    with FaultInjector(plan).armed(disk):
        with pytest.raises(RetriesExhausted) as excinfo:
            media.read(pid)
    assert excinfo.value.page_id == pid
    assert disk.quarantined == set()  # left alone: nothing to repair from


def test_latent_corruption_repairs_from_backup_image():
    disk, pid, image = one_page_disk()
    media = MediaRecovery(disk, image_sources=[("backup", {pid: image}.get)])
    plan = FaultPlan(read_fault=LATENT, read_fault_page=pid)
    with FaultInjector(plan).armed(disk):
        assert media.read(pid) == image
    assert media.stats.checksum_failures == 1
    assert media.stats.repairs == 1
    assert media.stats.quarantines == 0
    assert disk.verify_page(pid)  # durable bytes healed in place
    assert disk.durable_image(pid) == image


def test_latent_corruption_without_image_exhausts_without_quarantine():
    disk, pid, _ = one_page_disk()
    media = MediaRecovery(disk)
    plan = FaultPlan(read_fault=LATENT, read_fault_page=pid)
    with FaultInjector(plan).armed(disk):
        with pytest.raises(RetriesExhausted):
            media.read(pid)
    assert disk.quarantined == set()
    assert not disk.verify_page(pid)  # damage detected, left as found


def test_stuck_page_is_quarantined_after_failed_repairs():
    disk, pid, image = one_page_disk()
    media = MediaRecovery(disk, image_sources=[("backup", {pid: image}.get)])
    plan = FaultPlan(read_fault=STUCK, read_fault_page=pid)
    with FaultInjector(plan).armed(disk):
        with pytest.raises(QuarantinedPage) as excinfo:
            media.read(pid)
    assert excinfo.value.page_id == pid
    assert disk.quarantined == {pid}
    assert media.stats.repairs == MediaPolicy().repair_attempts
    assert media.stats.quarantines == 1
    with pytest.raises(QuarantinedPage):
        disk.read_page(pid)  # fenced until restored
    disk.restore_page(pid, image)
    with FaultInjector(FaultPlan()).armed(disk):
        pass  # the empty plan does not re-corrupt
    assert disk.read_page(pid) == image


def test_image_sources_are_tried_in_order():
    disk, pid, image = one_page_disk()
    media = MediaRecovery(
        disk,
        image_sources=[
            ("wal", lambda page_id: None),  # nothing logged for this page
            ("backup", {pid: image}.get),
        ],
    )
    assert media.has_image(pid)
    observer = Observer(disk)
    disk.observer = observer
    try:
        plan = FaultPlan(read_fault=LATENT, read_fault_page=pid)
        with FaultInjector(plan).armed(disk):
            assert media.read(pid) == image
    finally:
        disk.observer = None
    assert observer.metrics.value("media.repairs.backup") == 1
    assert observer.metrics.value("media.repairs.wal", default=0) == 0


def test_wal_image_source_returns_the_latest_image_per_page():
    log = WriteAheadLog()
    log.append("page_image", page_id=4, image=b"old")
    log.append("page_image", page_id=4, image=b"new")
    log.append("page_image", page_id=9, image=b"other")
    source = wal_image_source(log)
    assert source(4) == b"new"
    assert source(9) == b"other"
    assert source(123) is None


# ---------------------------------------------------------------------------
# scrubber
# ---------------------------------------------------------------------------
def scrub_db(n=60):
    db = Database(page_size=512, memory_bytes=64 * 1024)
    populate(db, n=n)
    return db


def test_scrub_clean_database_reports_ok():
    db = scrub_db()
    report = scrub_database(db)
    assert report.ok
    assert report.pages_checked == len(db.disk.page_ids())
    assert not report.checksum_failures and not report.problems


def test_scrub_detects_corruption_without_a_media_layer():
    db = scrub_db()
    disk = db.disk
    pid = disk.page_ids()[0]
    disk.corrupt_page(pid, flipped(disk.durable_image(pid)))
    report = scrub_database(db)
    assert not report.ok
    assert pid in report.checksum_failures
    assert pid in report.unrepaired
    assert pid not in report.repaired


def test_scrub_heals_with_a_media_layer_and_counts_both_ways():
    db = scrub_db()
    disk = db.disk
    pid = disk.page_ids()[0]
    image = disk.durable_image(pid)
    disk.corrupt_page(pid, flipped(image))
    media = MediaRecovery(disk, image_sources=[("backup", {pid: image}.get)])
    report = scrub_database(db, media=media)
    assert report.ok
    assert report.checksum_failures == [pid]
    assert report.repaired == [pid]
    assert disk.verify_page(pid)


def test_scrub_catches_index_entry_count_drift():
    db = scrub_db()
    tree = db.table("R").indexes["I_R_A"].tree
    tree._entry_count += 1
    report = scrub_database(db)
    assert not report.ok
    assert any("entry_count" in p for p in report.problems)
    tree._entry_count -= 1
    assert scrub_database(db).ok


def test_require_scrubbed_raises_quarantined_first():
    db = scrub_db()
    disk = db.disk
    pid = disk.page_ids()[2]
    disk.quarantine_page(pid)
    with pytest.raises(QuarantinedPage) as excinfo:
        require_scrubbed(db, check_structures=False)
    assert excinfo.value.page_id == pid


def test_require_scrubbed_raises_exhausted_for_unrepaired():
    db = scrub_db()
    disk = db.disk
    pid = disk.page_ids()[0]
    disk.corrupt_page(pid, flipped(disk.durable_image(pid)))
    with pytest.raises(RetriesExhausted) as excinfo:
        require_scrubbed(db, check_structures=False)
    assert excinfo.value.page_id == pid


def test_require_scrubbed_raises_media_error_for_structural_drift():
    db = scrub_db()
    tree = db.table("R").indexes["I_R_A"].tree
    tree._entry_count += 1
    with pytest.raises(MediaError, match="structures disagree"):
        require_scrubbed(db)


# ---------------------------------------------------------------------------
# integration: pool hook, executor option, restart
# ---------------------------------------------------------------------------
def test_bulk_delete_options_media_attaches_for_the_statement():
    db = Database(page_size=512, memory_bytes=64 * 1024)
    values = populate(db, n=120)
    disk = db.disk
    pid = disk.page_ids()[0]
    backup = {p: disk.durable_image(p) for p in disk.page_ids()}
    media = MediaRecovery(disk, image_sources=[("backup", backup.get)])
    keys = sorted(values["A"])[:20]
    plan = FaultPlan(read_fault=LATENT, read_fault_page=pid)
    with FaultInjector(plan).armed(disk):
        result = bulk_delete(
            db, "R", "A", keys,
            options=BulkDeleteOptions(media=media),
            force_vertical=True,
        )
    assert result.records_deleted == len(keys)
    assert db.pool.media is None  # detached afterwards
    assert scrub_database(db, media=media).ok


def test_outer_attachment_survives_an_inner_statement():
    # A sweep or retention run attaches its media layer and page-image
    # sink, then issues statements that attach their own: the inner
    # statement must hand the pool back as it found it — also when it
    # raises.
    case = SweepScenario(records=32).build()
    db, disk = case.db, case.db.disk
    outer = MediaRecovery(disk)
    inner = MediaRecovery(disk)
    images = []

    def outer_sink(page_id, image):
        images.append(page_id)

    with db.pool.attached(media=outer, page_image_sink=outer_sink):
        bulk_delete(
            db, "R", "A", case.keys[:4],
            options=BulkDeleteOptions(media=inner), force_vertical=True,
        )
        assert db.pool.media is outer
        assert db.pool.page_image_sink is outer_sink
        with pytest.raises(SimulatedCrash):
            RecoverableBulkDelete(
                db, "R", "A", case.keys[4:], case.log,
                crash_point="after_driving", full_page_writes=True,
                media=inner,
            ).run()
        assert db.pool.media is outer
        assert db.pool.page_image_sink is outer_sink
        recover(db, case.log, full_page_writes=True)
        assert db.pool.media is outer
        assert db.pool.page_image_sink is outer_sink
    assert images  # the outer sink saw the plain statement's pages
    assert db.pool.media is None and db.pool.page_image_sink is None


def test_recoverable_bulk_delete_heals_latent_fault_mid_statement():
    scenario = SweepScenario(records=32)
    # Oracle.
    case = scenario.build()
    RecoverableBulkDelete(
        case.db, "R", "A", case.keys, case.log, full_page_writes=True
    ).run()
    oracle = capture_state(case.db)
    # Faulted run with a media layer.
    case = scenario.build()
    disk = case.db.disk
    pid = disk.page_ids()[0]
    backup = {p: disk.durable_image(p) for p in disk.page_ids()}
    media = MediaRecovery(
        disk,
        image_sources=[("wal", wal_image_source(case.log)),
                       ("backup", backup.get)],
    )
    plan = FaultPlan(read_fault=LATENT, read_fault_page=pid)
    with FaultInjector(plan).armed(disk, pool=case.db.pool, log=case.log):
        RecoverableBulkDelete(
            case.db, "R", "A", case.keys, case.log,
            full_page_writes=True, media=media,
        ).run()
    assert case.db.pool.media is None
    post = scrub_database(case.db, media=media)
    assert post.ok
    assert capture_state(case.db) == oracle


def test_recover_with_scrub_attaches_a_clean_report():
    scenario = SweepScenario(records=32)
    case = scenario.build()
    RecoverableBulkDelete(
        case.db, "R", "A", case.keys, case.log, full_page_writes=True
    ).run()
    report = recover(case.db, case.log, scrub=True)
    assert report.scrub_report is not None
    assert report.scrub_report.ok
    assert report.scrub_report.pages_checked == len(case.db.disk.page_ids())


# ---------------------------------------------------------------------------
# observability: metrics and spans
# ---------------------------------------------------------------------------
def test_media_metrics_counted_through_the_observer():
    db = scrub_db(n=80)
    disk = db.disk
    pid = disk.page_ids()[0]
    image = disk.durable_image(pid)
    media = MediaRecovery(disk, image_sources=[("backup", {pid: image}.get)])
    with observed(db) as obs:
        plan = FaultPlan(read_fault=TRANSIENT, read_fault_page=pid)
        with FaultInjector(plan).armed(disk):
            media.read(pid)
        disk.corrupt_page(pid, flipped(image))
        media.read(pid)
        scrub_database(db, media=media)
    m = obs.metrics
    # Attempts 1 and 2 fail (the injector recovers on the 3rd): the
    # disk-side counter sees every failed attempt.
    assert m.value("media.transient_read_errors") == 2
    assert m.value("media.retries") == 2
    assert m.value("media.backoff_ms") == pytest.approx(3.0)
    assert m.value("media.checksum_mismatches") == 1
    assert m.value("media.repairs") == 1
    assert m.value("media.repairs.backup") == 1
    assert m.value("media.scrub.runs") == 1
    assert m.value("media.scrub.pages_checked") == len(disk.page_ids())


def test_retry_span_opened_only_on_the_slow_path():
    db = scrub_db(n=80)
    disk = db.disk
    pid = disk.page_ids()[0]
    image = disk.durable_image(pid)
    media = MediaRecovery(disk, image_sources=[("backup", {pid: image}.get)])
    with observed(db) as obs:
        media.read(pid)  # fast path: no span
        assert [s for s in iter_spans(obs) if s.kind == "retry"] == []
        disk.corrupt_page(pid, flipped(image))
        media.read(pid)
    retry_spans = [s for s in iter_spans(obs) if s.kind == "retry"]
    assert len(retry_spans) == 1
    span = retry_spans[0]
    assert span.target == f"page:{pid}"
    assert span.attrs["error"] == "ChecksumMismatch"
    assert span.attrs["outcome"] == "repaired"
    assert span.attrs["source"] == "backup"


def test_scrub_span_carries_the_sweep_totals():
    db = scrub_db(n=80)
    with observed(db) as obs:
        scrub_database(db)
    scrub_spans = [s for s in iter_spans(obs) if s.kind == "scrub"]
    assert len(scrub_spans) == 1
    assert scrub_spans[0].attrs["pages_checked"] == len(db.disk.page_ids())
    assert scrub_spans[0].attrs["failures"] == 0


# ---------------------------------------------------------------------------
# lint rule
# ---------------------------------------------------------------------------
def lint(snippet: str, **kw):
    return lint_source(textwrap.dedent(snippet), filename="fixture.py", **kw)


def test_lint_flags_media_error_raised_outside_media():
    findings = lint("raise ChecksumMismatch('x', page_id=1)\n")
    assert any(
        f.rule_id == "code/media-error-outside-media" for f in findings
    )


def test_lint_allows_media_errors_in_media_and_storage():
    snippet = "raise QuarantinedPage('x', page_id=1)\n"
    for kw in ({"in_media": True}, {"in_storage": True}):
        findings = lint(snippet, **kw)
        assert not any(
            f.rule_id == "code/media-error-outside-media" for f in findings
        )


def test_lint_does_not_flag_corrupt_log_error():
    findings = lint("raise CorruptLogError('torn tail')\n")
    assert not any(
        f.rule_id == "code/media-error-outside-media" for f in findings
    )


# ---------------------------------------------------------------------------
# the exhaustive driver, kept tiny for the unit suite
# ---------------------------------------------------------------------------
def test_media_sweep_tiny_scenario_heals_or_aborts_cleanly():
    report = media_sweep(SweepScenario(records=24), max_points=2)
    assert report.ok, report.summary()
    outcomes = {o.kind: o.outcome for o in report.outcomes}
    assert outcomes[TRANSIENT] == "healed"
    assert outcomes[LATENT] == "healed"
    assert outcomes[STUCK] == "aborted"
    aborted = [o for o in report.outcomes if o.outcome == "aborted"]
    assert all(o.aborted_with == "QuarantinedPage" for o in aborted)
