"""End-to-end state integrity: checksummed durability and anti-entropy repair.

The durability layer of :mod:`.recovery` detects *torn* writes (a crash
mid-append) but, before this module, trusted every byte that still parsed
as JSON — a single flipped bit in a WAL payload or a checkpoint array
silently poisons the density histograms and Chebyshev coefficients every
downstream answer depends on.  This module closes that gap end to end:

**Framed WAL records.**  Every record is written as one line

    ``<lsn>:<crc32-hex>:<payload-json>\\n``

where the checksum covers ``"<lsn>:<payload>"`` (a CRC32C-style 32-bit
cyclic redundancy check via :func:`zlib.crc32`), so damage to either the
frame header or the payload is caught on read.  Nothing else is a record:
a line without a frame — a bare JSON object included — has no checksum to
vouch for it and is damage like any other.

**Checkpoint digests.**  ``MANIFEST.json`` carries a per-file digest map
for every checkpoint artifact (``ckpt-*.npz`` and its sidecar), verified
before an image is trusted during recovery or replica bootstrap.

**Scrubbing** (:func:`verify_state_dir`).  Walks a state directory and
classifies every file as ``clean``, ``torn-tail`` (an interrupted final
append of the newest segment — safely truncatable), ``corrupt``
(checksum mismatch or mid-file damage — never truncatable) or
``stray-tmp`` (a ``*.tmp`` leftover of a crash-during-rename).  It also
checks the global LSN chain across segments for gaps.

**Quarantine** (:func:`scrub_state_dir`).  Repairs what is safe to
repair — deletes stray temp files, truncates a torn tail — and moves
corrupt files aside into ``quarantine/`` instead of deleting or
truncating mid-log, so no byte of evidence is lost.

**Anti-entropy repair** (:func:`repair_state_dir`).  Rebuilds the
quarantined LSN range from a caught-up replica's retained record history
(or, when the history does not reach back far enough, installs a fresh
checkpoint image of the replica's state), then re-verifies the whole
directory.  The result is a log that replays to bit-exact state — the
same guarantee crash recovery gives — with the damaged originals intact
in quarantine for forensics.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.errors import IntegrityError, RepairError

__all__ = [
    "FileStatus",
    "IntegrityReport",
    "record_crc",
    "frame_record",
    "parse_wal_line",
    "file_crc",
    "flip_byte",
    "verify_state_dir",
    "scrub_state_dir",
    "quarantine_file",
    "repair_state_dir",
    "QUARANTINE_DIR",
]

QUARANTINE_DIR = "quarantine"


# ----------------------------------------------------------------------
# checksums and record framing
# ----------------------------------------------------------------------
def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def record_crc(lsn: int, payload: str) -> int:
    """Checksum of one framed record: covers the LSN *and* the payload."""
    return _crc(f"{lsn}:{payload}".encode("utf-8"))


def frame_record(record: dict) -> str:
    """One WAL line ``lsn:crc:payload\\n`` for a record carrying its LSN."""
    lsn = int(record["lsn"])
    payload = json.dumps(record, separators=(",", ":"))
    return f"{lsn}:{record_crc(lsn, payload):08x}:{payload}\n"


def parse_wal_line(text: str) -> dict:
    """Parse one framed WAL line.

    Raises :class:`ValueError` on any damage — a malformed frame, a
    checksum mismatch, a header/payload LSN disagreement, or unparseable
    JSON — leaving torn-vs-corrupt classification to the caller, which
    knows whether the line is the final one of the newest segment.
    """
    if text.endswith("\n"):
        text = text[:-1]
    head, sep1, rest = text.partition(":")
    crc_hex, sep2, payload = rest.partition(":")
    if not sep1 or not sep2:
        raise ValueError(f"not a framed record: {text[:40]!r}")
    lsn = int(head)
    if int(crc_hex, 16) != record_crc(lsn, payload):
        raise ValueError(f"checksum mismatch on lsn {lsn}")
    record = json.loads(payload)
    if int(record.get("lsn", -1)) != lsn:
        raise ValueError(
            f"frame header lsn {lsn} != payload lsn {record.get('lsn')!r}"
        )
    return record


def file_crc(path: str) -> str:
    """Hex digest of a whole file (checkpoint artifacts, manifest map)."""
    crc = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(1 << 20)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
    return f"{crc & 0xFFFFFFFF:08x}"


def flip_byte(path: str, offset: int, xor: int = 0x01, faults=None) -> int:
    """XOR one byte of ``path`` in place (the chaos bit-rot primitive).

    Hits the ``integrity.flip`` fault site when an injector is given, so
    chaos schedules can count (or veto) their injected corruptions.
    Returns the file offset actually flipped (clamped into range).
    """
    if xor % 256 == 0:
        raise IntegrityError("flip_byte xor must change the byte")
    if faults is not None:
        faults.hit("integrity.flip")
    size = os.path.getsize(path)
    if size == 0:
        raise IntegrityError(f"cannot flip a byte of empty file {path!r}")
    offset = max(0, min(int(offset), size - 1))
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ (xor % 256)]))
    return offset


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------
@dataclass
class FileStatus:
    """The scrubber's verdict on one file of a state directory."""

    name: str
    kind: str  # "wal" | "checkpoint" | "sidecar" | "manifest" | "config" | "tmp" | "other"
    state: str  # "clean" | "torn-tail" | "corrupt" | "stray-tmp"
    detail: str = ""
    lsn_first: Optional[int] = None
    lsn_last: Optional[int] = None
    framed_records: int = 0
    good_bytes: Optional[int] = None  # bytes before the torn tail, if any

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "state": self.state,
            "detail": self.detail,
            "lsn_first": self.lsn_first,
            "lsn_last": self.lsn_last,
            "framed_records": self.framed_records,
        }


@dataclass
class IntegrityReport:
    """Everything :func:`verify_state_dir` learned about one directory."""

    state_dir: str
    files: List[FileStatus] = field(default_factory=list)
    gaps: List[Tuple[int, int]] = field(default_factory=list)  # (expected, found)
    actions: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No damage: every file clean and the LSN chain unbroken.

        Stray ``*.tmp`` files do not count as damage (recovery ignores
        them; the scrubber deletes them), but they are still listed.
        """
        return not self.damaged() and not self.gaps

    def damaged(self) -> List[FileStatus]:
        return [f for f in self.files if f.state in ("corrupt", "torn-tail")]

    def stray_tmp(self) -> List[FileStatus]:
        return [f for f in self.files if f.state == "stray-tmp"]

    def summary(self) -> str:
        n_wal = sum(1 for f in self.files if f.kind == "wal")
        n_ckpt = sum(1 for f in self.files if f.kind == "checkpoint")
        lines = [
            f"state dir {self.state_dir}: {n_wal} wal segment(s), "
            f"{n_ckpt} checkpoint image(s)"
        ]
        for f in self.files:
            if f.state != "clean":
                lines.append(f"  {f.state}: {f.name} — {f.detail}".rstrip(" —"))
        for expected, found in self.gaps:
            lines.append(f"  log-gap: expected lsn {expected}, found {found}")
        for action in self.actions:
            lines.append(f"  repaired: {action}")
        lines.append("verify: OK" if self.clean else "verify: FAILED")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "state_dir": self.state_dir,
            "clean": self.clean,
            "files": [f.to_dict() for f in self.files],
            "gaps": list(self.gaps),
            "actions": list(self.actions),
        }


@dataclass
class _SegmentScan:
    state: str
    detail: str
    records: List[dict]
    good_bytes: int


def _scan_segment(path: str, last_segment: bool) -> _SegmentScan:
    """Classify one WAL segment without raising (the scrubber's reader)."""
    records: List[dict] = []
    good_bytes = 0
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.splitlines(keepends=True)
    for i, line in enumerate(lines):
        try:
            text = line.decode("utf-8")
            if not text.endswith("\n"):
                raise ValueError("unterminated line")
            record = parse_wal_line(text)
        except (UnicodeDecodeError, ValueError) as exc:
            if last_segment and i == len(lines) - 1:
                return _SegmentScan(
                    "torn-tail", f"torn final record ({exc})", records, good_bytes
                )
            return _SegmentScan(
                "corrupt", f"line {i + 1}: {exc}", records, good_bytes
            )
        records.append(record)
        good_bytes += len(line)
    return _SegmentScan("clean", "", records, good_bytes)


def _manifest_digests(state_dir: str) -> Dict[str, str]:
    try:
        with open(os.path.join(state_dir, "MANIFEST.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        digests = manifest.get("digests", {})
        return digests if isinstance(digests, dict) else {}
    except (OSError, ValueError, json.JSONDecodeError):
        return {}


def verify_state_dir(state_dir: str) -> IntegrityReport:
    """Walk a state directory and checksum-verify every durable artifact.

    Read-only: nothing is moved, truncated or deleted (that is
    :func:`scrub_state_dir`).  WAL segments are parsed frame-by-frame,
    checkpoint files are verified against the manifest's digests (or
    deep-loaded when the manifest predates digests), and the global LSN
    chain across surviving segments is checked for gaps.
    """
    if not os.path.isdir(state_dir):
        raise IntegrityError(f"{state_dir!r} is not a state directory")
    report = IntegrityReport(state_dir=state_dir)
    names = sorted(os.listdir(state_dir))
    digests = _manifest_digests(state_dir)

    wal_names = [n for n in names if n.startswith("wal-") and n.endswith(".jsonl")]
    chain: Optional[int] = None
    for name in wal_names:
        path = os.path.join(state_dir, name)
        scan = _scan_segment(path, last_segment=(name == wal_names[-1]))
        lsns = [int(r["lsn"]) for r in scan.records if "lsn" in r]
        status = FileStatus(
            name=name, kind="wal", state=scan.state, detail=scan.detail,
            lsn_first=lsns[0] if lsns else None,
            lsn_last=lsns[-1] if lsns else None,
            framed_records=len(scan.records),
            good_bytes=scan.good_bytes,
        )
        report.files.append(status)
        if scan.state == "corrupt":
            # the chain is broken here by definition; restart it after the
            # damage so one corrupt file does not also report as a gap
            chain = None
            continue
        for lsn in lsns:
            if chain is not None and lsn != chain + 1:
                report.gaps.append((chain + 1, lsn))
            chain = lsn

    for name in names:
        path = os.path.join(state_dir, name)
        if name in wal_names or name == QUARANTINE_DIR:
            continue
        if name.endswith(".tmp"):
            report.files.append(FileStatus(
                name=name, kind="tmp", state="stray-tmp",
                detail="leftover of a crash-during-rename; recovery ignores it",
            ))
            continue
        if name.startswith("ckpt-") and name.endswith(".npz"):
            report.files.append(_verify_checkpoint_file(state_dir, name, digests))
            continue
        if name.startswith("ckpt-") and name.endswith(".json"):
            report.files.append(_verify_sidecar(state_dir, name, digests))
            continue
        if name == "MANIFEST.json":
            state, detail = "clean", ""
            try:
                with open(path, encoding="utf-8") as fh:
                    int(json.load(fh)["seq"])
            except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
                state, detail = "corrupt", str(exc)
            report.files.append(FileStatus(name, "manifest", state, detail))
            continue
        if name == "server-config.json":
            state, detail = "clean", ""
            try:
                with open(path, encoding="utf-8") as fh:
                    json.load(fh)
            except (OSError, ValueError, json.JSONDecodeError) as exc:
                state, detail = "corrupt", str(exc)
            report.files.append(FileStatus(name, "config", state, detail))
            continue
        report.files.append(FileStatus(name, "other", "clean"))
    return report


def _verify_checkpoint_file(state_dir: str, name: str, digests: Dict[str, str]) -> FileStatus:
    path = os.path.join(state_dir, name)
    if os.path.getsize(path) == 0:
        return FileStatus(name, "checkpoint", "corrupt", "zero-byte checkpoint")
    if name in digests:
        got = file_crc(path)
        if got != digests[name]:
            return FileStatus(
                name, "checkpoint", "corrupt",
                f"digest {got} != manifest digest {digests[name]}",
            )
        return FileStatus(name, "checkpoint", "clean")
    # no recorded digest (pre-digest manifest): fall back to a deep load
    from ..storage.snapshot import read_snapshot
    from ..core.errors import StorageError

    try:
        read_snapshot(path)
    except StorageError as exc:
        return FileStatus(name, "checkpoint", "corrupt", str(exc))
    return FileStatus(name, "checkpoint", "clean", "no manifest digest; deep-loaded")


def _verify_sidecar(state_dir: str, name: str, digests: Dict[str, str]) -> FileStatus:
    path = os.path.join(state_dir, name)
    if name in digests and file_crc(path) != digests[name]:
        return FileStatus(name, "sidecar", "corrupt", "digest mismatch with manifest")
    try:
        with open(path, encoding="utf-8") as fh:
            sidecar = json.load(fh)
        for key in ("seq", "lsn", "tnow"):
            int(sidecar[key])
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return FileStatus(name, "sidecar", "corrupt", str(exc))
    return FileStatus(name, "sidecar", "clean")


# ----------------------------------------------------------------------
# quarantine and scrubbing
# ----------------------------------------------------------------------
def quarantine_file(state_dir: str, name: str) -> str:
    """Move one damaged file into ``quarantine/`` (never delete evidence)."""
    qdir = os.path.join(state_dir, QUARANTINE_DIR)
    os.makedirs(qdir, exist_ok=True)
    target = os.path.join(qdir, name)
    suffix = 0
    while os.path.exists(target):
        suffix += 1
        target = os.path.join(qdir, f"{name}.{suffix}")
    os.replace(os.path.join(state_dir, name), target)
    return target


def scrub_state_dir(state_dir: str) -> IntegrityReport:
    """Verify and repair what is *safely* repairable, quarantine the rest.

    * stray ``*.tmp`` files are deleted;
    * a torn tail of the newest segment is truncated (only ever the
      final, unacknowledged-to-nobody record);
    * corrupt files are moved into ``quarantine/`` — a corrupt WAL
      segment is **never** truncated mid-log, and a corrupt checkpoint
      artifact takes its twin (sidecar or image) with it so no
      half-checkpoint can be trusted later.

    Returns a fresh post-scrub report; its ``actions`` list what was
    done.  A directory left unclean (gaps after quarantine) needs
    :func:`repair_state_dir` with a replica source.
    """
    report = verify_state_dir(state_dir)
    actions: List[str] = []
    corrupt_ckpt_stems = set()
    for status in report.files:
        path = os.path.join(state_dir, status.name)
        if status.state == "stray-tmp":
            os.unlink(path)
            actions.append(f"deleted stray temp file {status.name}")
        elif status.state == "torn-tail":
            with open(path, "rb+") as fh:
                fh.truncate(status.good_bytes or 0)
            actions.append(f"truncated torn tail of {status.name}")
        elif status.state == "corrupt":
            if status.kind in ("checkpoint", "sidecar"):
                corrupt_ckpt_stems.add(status.name.rsplit(".", 1)[0])
            elif status.kind in ("wal", "manifest", "config"):
                quarantine_file(state_dir, status.name)
                actions.append(f"quarantined {status.name} ({status.detail})")
    for stem in sorted(corrupt_ckpt_stems):
        for ext in (".npz", ".json"):
            name = stem + ext
            if os.path.exists(os.path.join(state_dir, name)):
                quarantine_file(state_dir, name)
                actions.append(f"quarantined {name}")
    final = verify_state_dir(state_dir)
    final.actions = actions
    return final


# ----------------------------------------------------------------------
# anti-entropy repair
# ----------------------------------------------------------------------
def _missing_runs(present, lo: int, hi: int) -> List[Tuple[int, int]]:
    """Maximal contiguous runs of [lo, hi] absent from ``present``."""
    runs: List[Tuple[int, int]] = []
    start = None
    for lsn in range(lo, hi + 1):
        if lsn in present:
            if start is not None:
                runs.append((start, lsn - 1))
                start = None
        elif start is None:
            start = lsn
    if start is not None:
        runs.append((start, hi))
    return runs


def _write_segment(path: str, records: List[dict], fsync: bool) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(frame_record(record))
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    os.replace(tmp, path)


def repair_state_dir(
    state_dir: str,
    source=None,
    target_lsn: Optional[int] = None,
    fsync: bool = True,
) -> IntegrityReport:
    """Scrub, then rebuild the log so it replays contiguously to the end.

    ``source`` is the anti-entropy peer — anything exposing
    ``applied_lsn``, ``records_in_range(lo, hi)`` (``None`` when its
    retained history does not cover the range) and ``server`` (for a
    checkpoint-image fallback); in practice a caught-up
    :class:`~repro.reliability.replication.Replica`.

    Protocol: quarantine the damage, load the newest digest-verified
    checkpoint as the base, collect every surviving record above it,
    re-fetch the missing LSN runs from ``source``, and rewrite the tail
    as one consolidated, framed segment.  When the source's history
    cannot cover a run, fall back to installing a fresh checkpoint image
    of the source's state (which subsumes the whole log).  Either way
    the directory must re-verify clean and cover every acknowledged LSN
    up to ``target_lsn`` — otherwise :class:`RepairError`, because
    completing would silently lose acknowledged writes.
    """
    from .recovery import _WAL_RE, _list_seqs, _wal_path, load_latest_checkpoint

    pre_seqs = _list_seqs(state_dir, _WAL_RE)
    report = scrub_state_dir(state_dir)
    actions = list(report.actions)

    loaded = load_latest_checkpoint(state_dir)
    if loaded is not None:
        _state, sidecar = loaded
        base_lsn, base_seq = int(sidecar["lsn"]), int(sidecar["seq"])
    else:
        base_lsn = base_seq = 0

    survivors: Dict[int, dict] = {}
    post_seqs = _list_seqs(state_dir, _WAL_RE)
    for seq in post_seqs:
        scan = _scan_segment(_wal_path(state_dir, seq), last_segment=True)
        for record in scan.records:
            lsn = int(record["lsn"])
            if lsn > base_lsn:
                survivors[lsn] = record

    target = max(
        target_lsn or 0,
        getattr(source, "applied_lsn", 0) or 0,
        max(survivors, default=base_lsn),
        base_lsn,
    )

    fetched: Dict[int, dict] = {}
    for lo, hi in _missing_runs(survivors, base_lsn + 1, target):
        records = source.records_in_range(lo, hi) if source is not None else None
        if records is None:
            return _image_repair(state_dir, source, target, pre_seqs, fsync, actions)
        for record in records:
            fetched[int(record["lsn"])] = record
        actions.append(f"re-fetched lsn {lo}..{hi} from replica history")

    merged = [dict(r) for _lsn, r in sorted({**survivors, **fetched}.items())]
    expected = list(range(base_lsn + 1, target + 1))
    if [int(r["lsn"]) for r in merged] != expected:
        raise RepairError(
            f"cannot rebuild a contiguous log over ({base_lsn}, {target}] "
            f"in {state_dir!r}: {len(merged)} of {len(expected)} records "
            "available across survivors, checkpoints and replica history"
        )
    seq_top = max(pre_seqs + [base_seq]) if (pre_seqs or base_seq) else 0
    _write_segment(_wal_path(state_dir, seq_top), merged, fsync)
    for seq in post_seqs:
        if seq != seq_top:
            os.unlink(_wal_path(state_dir, seq))
    actions.append(
        f"rebuilt wal-{seq_top:08d}.jsonl with {len(merged)} records "
        f"(lsn {base_lsn + 1}..{target})"
    )

    final = verify_state_dir(state_dir)
    final.actions = actions
    if not final.clean:
        raise RepairError(
            f"repair of {state_dir!r} did not converge:\n{final.summary()}"
        )
    return final


def _image_repair(
    state_dir: str, source, target: int, pre_seqs: List[int],
    fsync: bool, actions: List[str],
) -> IntegrityReport:
    """Install a fresh checkpoint image of the source's state.

    Used when record-level repair is impossible (the source's retained
    history does not reach back far enough).  The image carries the
    source's full maintained state at its ``applied_lsn``, which must
    cover every acknowledged write — the image *replaces* the log.
    """
    from ..storage.snapshot import save_server
    from .recovery import (
        _CKPT_RE,
        _atomic_write_json,
        _ckpt_npz_path,
        _ckpt_sidecar_path,
        _list_seqs,
        _manifest_path,
        _wal_path,
        _WAL_RE,
    )

    if source is None or source.applied_lsn < target:
        have = getattr(source, "applied_lsn", None)
        raise RepairError(
            f"acknowledged writes up to lsn {target} are unrecoverable: "
            f"repair source covers {'nothing' if source is None else f'lsn {have}'}"
        )
    seq = max(pre_seqs + _list_seqs(state_dir, _CKPT_RE) + [0]) + 1
    npz = _ckpt_npz_path(state_dir, seq)
    save_server(source.server, npz, atomic=True)
    sidecar = _ckpt_sidecar_path(state_dir, seq)
    _atomic_write_json(
        sidecar, {"seq": seq, "lsn": source.applied_lsn, "tnow": source.server.tnow}
    )
    _atomic_write_json(
        _manifest_path(state_dir),
        {"seq": seq, "digests": {
            os.path.basename(npz): file_crc(npz),
            os.path.basename(sidecar): file_crc(sidecar),
        }},
    )
    for old in _list_seqs(state_dir, _WAL_RE):
        os.unlink(_wal_path(state_dir, old))
    _write_segment(_wal_path(state_dir, seq), [], fsync)
    actions.append(
        f"installed checkpoint image ckpt-{seq:08d} from replica state "
        f"(lsn {source.applied_lsn})"
    )
    final = verify_state_dir(state_dir)
    final.actions = actions
    if not final.clean:
        raise RepairError(
            f"image repair of {state_dir!r} did not converge:\n{final.summary()}"
        )
    return final
