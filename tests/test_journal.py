"""The unified ops journal: ring mode, rotation caps, merge, robustness.

The journal's contract is operational: every emit succeeds (ring-only
when unbound, never an exception when the disk goes away), its on-disk
footprint stays under ``MAX_SEGMENT_BYTES * MAX_SEGMENTS`` per process
(the disk-budget guarantee), and readers reconstruct a merged,
per-process-ordered timeline while skipping torn lines — the exact
artifact SIGKILL leaves behind.
"""

from __future__ import annotations

import glob
import json
import os

from repro.telemetry import TELEMETRY, journal as journal_module
from repro.telemetry.journal import Journal, read_journal


def test_unbound_journal_is_a_ring_and_never_touches_disk(tmp_path, monkeypatch):
    monkeypatch.setattr(journal_module, "RING_CAPACITY", 4)
    journal = Journal()
    seqs = [journal.emit("e", n=i) for i in range(10)]
    assert seqs == list(range(1, 11))  # per-process monotonic
    recent = journal.recent()
    assert [r["n"] for r in recent] == [6, 7, 8, 9]  # ring keeps newest
    assert journal.disk_bytes() == 0
    assert list(tmp_path.iterdir()) == []


def test_bound_journal_writes_records_read_journal_reads_them(tmp_path):
    directory = str(tmp_path / "journal")
    journal = Journal()
    journal.bind(directory, role="test")
    journal.update_context(epoch=3, generation=2)
    journal.emit("failover", new_epoch=4)
    journal.emit("shed", reason="rate", method="fr")
    journal.close()

    records = read_journal(directory)
    assert [r["event"] for r in records] == ["failover", "shed"]
    first = records[0]
    # the record envelope: seq/ts/perf/pid plus ambient context
    assert first["seq"] == 1
    assert first["pid"] == os.getpid()
    assert first["role"] == "test"
    assert first["epoch"] == 3 and first["generation"] == 2
    assert first["new_epoch"] == 4
    assert isinstance(first["ts"], float) and isinstance(first["perf"], float)


def test_event_fields_cannot_clobber_the_record_envelope(tmp_path):
    journal = Journal()
    journal.bind(str(tmp_path / "j"))
    journal.emit("supervise.exit", pid=99999, seq=-1, ts=0.0)
    journal.close()
    (record,) = read_journal(str(tmp_path / "j"))
    assert record["pid"] == os.getpid()          # emitter's, not the field
    assert record["event"] == "supervise.exit"
    assert record["seq"] == 1
    assert record["ts"] > 1.0                    # real wall clock kept
    assert record["subject_pid"] == 99999        # the field survives, renamed


def test_rotation_bounds_disk_usage_under_the_caps(tmp_path, monkeypatch):
    monkeypatch.setattr(journal_module, "MAX_SEGMENT_BYTES", 2048)
    monkeypatch.setattr(journal_module, "MAX_SEGMENTS", 3)
    directory = str(tmp_path / "journal")
    journal = Journal()
    journal.bind(directory)
    for i in range(500):
        journal.emit("spin", i=i, pad="x" * 64)
    assert journal.rotations > 0
    own = glob.glob(os.path.join(directory, f"journal-{os.getpid()}-*.jsonl"))
    assert len(own) <= 3
    # worst case: MAX_SEGMENTS full segments plus one record of overshoot
    assert journal.disk_bytes() <= 3 * 2048 + 1024
    # the newest records survived pruning
    events = read_journal(directory)
    assert events[-1]["i"] == 499
    journal.close()


def test_reader_merges_processes_and_skips_torn_lines(tmp_path):
    directory = tmp_path / "journal"
    journal = Journal()
    journal.bind(str(directory))
    journal.emit("mine")
    journal.close()
    # a "second process": hand-written segment with a torn final line
    other = directory / "journal-424242-0000.jsonl"
    other.write_text(
        json.dumps({"seq": 1, "ts": 0.5, "perf": 0.0, "pid": 424242,
                    "event": "theirs"}) + "\n"
        + '{"seq": 2, "ts": 99.0, "pid": 424242, "event": "torn'  # SIGKILL
    )
    records = read_journal(str(directory))
    assert [r["event"] for r in records] == ["theirs", "mine"]  # ts order
    assert records[0]["pid"] == 424242
    assert read_journal(str(directory), event="mine")[0]["pid"] == os.getpid()


def test_emit_inside_a_span_stamps_the_trace_id(tmp_path):
    journal = Journal()
    journal.bind(str(tmp_path / "j"))
    tracer = TELEMETRY.tracer
    with tracer.trace("query") as span:
        journal.emit("slow_query")
    journal.emit("outside")
    journal.close()
    inside, outside = read_journal(str(tmp_path / "j"))
    assert inside["trace_id"] == span.trace_id
    assert outside["trace_id"] is None


def test_poisoned_descriptor_degrades_to_ring_only(tmp_path):
    journal = Journal()
    journal.bind(str(tmp_path / "j"))
    journal.emit("before")
    journal._fh.close()  # poison: the next write raises ValueError
    assert journal.emit("during") == 2  # emit still succeeds
    assert journal.emit("after") == 3
    assert [r["event"] for r in journal.recent()] == [
        "before", "during", "after"
    ]
    # disk kept what made it before the poisoning
    assert [r["event"] for r in read_journal(str(tmp_path / "j"))] == ["before"]


def test_rebind_resumes_after_the_highest_existing_segment(tmp_path, monkeypatch):
    monkeypatch.setattr(journal_module, "MAX_SEGMENT_BYTES", 1024)
    directory = str(tmp_path / "j")
    journal = Journal()
    journal.bind(directory)
    for i in range(60):
        journal.emit("first", pad="y" * 48)
    journal.close()
    before = read_journal(directory)
    journal2 = Journal()
    journal2.bind(directory)
    journal2.emit("second-life")
    journal2.close()
    after = read_journal(directory)
    assert len(after) == len(before) + 1  # no history truncated
    assert after[-1]["event"] == "second-life"
