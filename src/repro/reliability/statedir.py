"""The state directory's on-disk format, owned by this module alone.

State directory layout::

    server-config.json     system + reliability configuration (written
                           once; the recovery generation is bumped in it)
    wal-<seq>.jsonl        append-only update log segments (one per epoch);
                           each line is a checksum-framed record
                           ``lsn:crc:payload`` (:func:`frame_record`)
    ckpt-<seq>.npz         full state checkpoint (atomic snapshot write)
    ckpt-<seq>.json        checkpoint sidecar {seq, lsn, tnow}; its presence
                           marks the .npz as complete
    MANIFEST.json          {"seq": n, "digests": {...}} — the newest durable
                           checkpoint plus per-file checksums of every
                           checkpoint artifact
    quarantine/            corrupt files moved aside by the scrubber

Every other module reads and writes the directory through the names
below: the name table (paths, one pattern per kind, :func:`kind_of`,
:func:`holds_state`), record framing, the one segment scan
(:func:`scan_segment`) with its one torn-vs-corrupt rule, the one
checkpoint chooser (:func:`checkpoints`) and the one checkpoint writer
(:func:`write_checkpoint`).  Replay, the integrity scrubber, WAL repair
and retention therefore cannot disagree about what a file holds.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.errors import RecoveryError, StorageError
from .crashpoints import crashpoint

__all__ = [
    "QUARANTINE_DIR",
    "SegmentScan",
    "atomic_write_json",
    "checkpoint_seqs",
    "checkpoints",
    "config_path",
    "file_crc",
    "frame_record",
    "holds_state",
    "image_path",
    "kind_of",
    "load_latest_checkpoint",
    "manifest_path",
    "parse_wal_line",
    "read_manifest",
    "read_server_config",
    "read_sidecar",
    "record_crc",
    "scan_segment",
    "seq_of",
    "sidecar_path",
    "wal_path",
    "wal_seqs",
    "write_checkpoint",
    "write_segment",
]

QUARANTINE_DIR = "quarantine"
_CONFIG = "server-config.json"
_MANIFEST = "MANIFEST.json"
_WAL_RE = re.compile(r"^wal-(\d{8})\.jsonl$")
_IMAGE_RE = re.compile(r"^ckpt-(\d{8})\.npz$")
_SIDECAR_RE = re.compile(r"^ckpt-(\d{8})\.json$")


# ----------------------------------------------------------------------
# the name table
# ----------------------------------------------------------------------
def wal_path(state_dir: str, seq: int) -> str:
    return os.path.join(state_dir, f"wal-{seq:08d}.jsonl")


def image_path(state_dir: str, seq: int) -> str:
    return os.path.join(state_dir, f"ckpt-{seq:08d}.npz")


def sidecar_path(state_dir: str, seq: int) -> str:
    return os.path.join(state_dir, f"ckpt-{seq:08d}.json")


def manifest_path(state_dir: str) -> str:
    return os.path.join(state_dir, _MANIFEST)


def config_path(state_dir: str) -> str:
    return os.path.join(state_dir, _CONFIG)


def kind_of(name: str) -> str:
    """What a directory entry is: ``"wal"`` | ``"checkpoint"`` (image) |
    ``"sidecar"`` | ``"manifest"`` | ``"config"`` | ``"tmp"`` (leftover of
    an interrupted atomic write) | ``"other"``."""
    if name.endswith(".tmp"):
        return "tmp"
    if _WAL_RE.match(name):
        return "wal"
    if _IMAGE_RE.match(name):
        return "checkpoint"
    if _SIDECAR_RE.match(name):
        return "sidecar"
    return {_MANIFEST: "manifest", _CONFIG: "config"}.get(name, "other")


def seq_of(name: str) -> int:
    """The sequence number in a WAL segment's or checkpoint artifact's name."""
    return int(name[name.index("-") + 1:].split(".", 1)[0])


def _seqs(state_dir: str, pattern: re.Pattern) -> List[int]:
    return sorted(
        int(match.group(1))
        for match in map(pattern.match, os.listdir(state_dir))
        if match
    )


def wal_seqs(state_dir: str) -> List[int]:
    """Sequence numbers of the WAL segments present, ascending."""
    return _seqs(state_dir, _WAL_RE)


def checkpoint_seqs(state_dir: str) -> List[int]:
    """Sequence numbers of the checkpoints whose sidecar (the completion
    mark) is present, ascending."""
    return _seqs(state_dir, _SIDECAR_RE)


def holds_state(state_dir: str) -> bool:
    """True when the directory already holds a server's durable state."""
    return (
        os.path.exists(config_path(state_dir))
        or os.path.exists(manifest_path(state_dir))
        or bool(wal_seqs(state_dir))
    )


def atomic_write_json(path: str, payload: dict, crash_site: Optional[str] = None) -> None:
    """Replace ``path`` with ``payload`` via a durable temp file + rename."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.flush()
        os.fsync(fh.fileno())
    if crash_site is not None:
        # the classic crash window: tmp durable but the rename not yet
        # issued — recovery must ignore the stray .tmp and keep serving
        # from whatever the path pointed at before
        crashpoint(crash_site)
    os.replace(tmp, path)


def read_server_config(state_dir: str) -> dict:
    """The parsed ``server-config.json``; :class:`RecoveryError` when it
    is absent (the directory holds no server) or unreadable."""
    path = config_path(state_dir)
    if not os.path.exists(path):
        raise RecoveryError(f"{state_dir!r} holds no server state (no {_CONFIG})")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise RecoveryError(f"corrupt {_CONFIG} in {state_dir!r}: {exc}") from exc


# ----------------------------------------------------------------------
# checksums and record framing
# ----------------------------------------------------------------------
def record_crc(lsn: int, payload: str) -> int:
    """Checksum of one framed record: covers the LSN *and* the payload."""
    return zlib.crc32(f"{lsn}:{payload}".encode("utf-8")) & 0xFFFFFFFF


def frame_record(record: dict) -> str:
    """One WAL line ``lsn:crc:payload\\n`` for a record carrying its LSN."""
    lsn = int(record["lsn"])
    payload = json.dumps(record, separators=(",", ":"))
    return f"{lsn}:{record_crc(lsn, payload):08x}:{payload}\n"


def parse_wal_line(text: str) -> dict:
    """Parse one framed WAL line.

    Raises :class:`ValueError` on any damage — a malformed frame, a
    checksum mismatch, a header/payload LSN disagreement, or unparseable
    JSON.  Whether that damage is a torn tail or corruption is decided by
    :func:`scan_segment`, which knows where the line sits.
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


# ----------------------------------------------------------------------
# the segment scan
# ----------------------------------------------------------------------
@dataclass
class SegmentScan:
    """What one WAL segment holds.

    ``records`` are the intact records before the first damaged line and
    ``ends[i]`` is the byte offset just past record ``i``; ``verdict`` is
    ``"clean"``, ``"torn-tail"`` or ``"corrupt"``, with ``detail`` and the
    1-based ``line`` naming the damage.
    """

    verdict: str
    records: List[dict] = field(default_factory=list)
    ends: List[int] = field(default_factory=list)
    detail: str = ""
    line: Optional[int] = None

    @property
    def good_bytes(self) -> int:
        """Length of the intact prefix."""
        return self.ends[-1] if self.ends else 0


def scan_segment(path: str, newest: bool) -> SegmentScan:
    """Read one segment and classify it under the one rule.

    A damaged line is ``torn-tail`` — an interrupted final append,
    safely truncatable to :attr:`SegmentScan.good_bytes` — only when it
    is the final line of the newest segment (``newest``).  Damage
    anywhere else is ``corrupt``: acknowledged records may sit behind
    it, so it must never be truncated.  Raises ``OSError`` when the file
    cannot be read.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    scan = SegmentScan("clean")
    lines = data.splitlines(keepends=True)
    for i, line in enumerate(lines):
        try:
            text = line.decode("utf-8")
            if not text.endswith("\n"):
                raise ValueError("unterminated line")
            record = parse_wal_line(text)
        except (UnicodeDecodeError, ValueError) as exc:
            scan.line = i + 1
            if newest and i == len(lines) - 1:
                scan.verdict, scan.detail = "torn-tail", f"torn final record ({exc})"
            else:
                scan.verdict, scan.detail = "corrupt", f"line {i + 1}: {exc}"
            return scan
        scan.records.append(record)
        scan.ends.append(scan.good_bytes + len(line))
    return scan


def write_segment(path: str, records: List[dict], fsync: bool) -> None:
    """Atomically replace ``path`` with a segment of ``records``."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(frame_record(record))
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------
def read_manifest(state_dir: str) -> Optional[Tuple[int, Dict[str, str]]]:
    """``(seq, digests)`` of the manifest, ``None`` when there is none;
    :class:`RecoveryError` when it is unreadable.  A manifest written
    before digests existed yields an empty digest map."""
    path = manifest_path(state_dir)
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        seq = int(manifest["seq"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise RecoveryError(f"corrupt manifest in {state_dir!r}: {exc}") from exc
    digests = manifest.get("digests", {})
    return seq, digests if isinstance(digests, dict) else {}


def read_sidecar(path: str) -> dict:
    """A checkpoint sidecar ``{seq, lsn, tnow}``; ``OSError``,
    ``ValueError``, ``KeyError`` or ``TypeError`` when it is damaged."""
    with open(path, encoding="utf-8") as fh:
        sidecar = json.load(fh)
    for key in ("seq", "lsn", "tnow"):
        int(sidecar[key])
    return sidecar


def checkpoints(state_dir: str) -> Iterator[Tuple[int, dict]]:
    """The durable, digest-verified checkpoints, newest first.

    Yields ``(seq, sidecar)`` for every checkpoint at or below the
    manifest seq whose image and sidecar match their manifest digests
    (when recorded) and whose sidecar parses.  Candidates come from the
    anchored sidecar pattern, so stray ``*.tmp`` leftovers are never
    read.  Raises :class:`RecoveryError` when the manifest is unreadable.
    """
    manifest = read_manifest(state_dir)
    if manifest is None:
        return
    top, digests = manifest
    for seq in reversed([s for s in checkpoint_seqs(state_dir) if s <= top]):
        try:
            if any(
                os.path.basename(path) in digests
                and os.path.exists(path)
                and file_crc(path) != digests[os.path.basename(path)]
                for path in (image_path(state_dir, seq), sidecar_path(state_dir, seq))
            ):
                continue  # bit rot: fall back to the previous checkpoint
            sidecar = read_sidecar(sidecar_path(state_dir, seq))
        except (OSError, ValueError, KeyError, TypeError):
            continue
        yield seq, sidecar


def load_latest_checkpoint(state_dir: str):
    """The newest loadable checkpoint, or ``None``.

    Returns ``(SnapshotState, sidecar)`` for the first candidate of
    :func:`checkpoints` whose image loads; the sidecar's ``lsn`` is the
    replay cursor to resume from after installing the image.  Recovery
    starts from it, and it is the image-transfer half of replica
    catch-up (the other half is ``records_from_lsn``).
    """
    from ..storage.snapshot import read_snapshot

    for seq, sidecar in checkpoints(state_dir):
        try:
            return read_snapshot(image_path(state_dir, seq)), sidecar
        except (StorageError, OSError):
            continue  # unloadable image: fall back to the previous one
    return None


def write_checkpoint(state_dir: str, seq: int, server, lsn: int, faults=None) -> None:
    """Write checkpoint ``seq`` of ``server`` at ``lsn`` and flip the
    manifest to it.

    Order: the image (atomic snapshot write), the sidecar (crash site
    ``checkpoint.sidecar``), then the manifest (fault site and crash
    site ``checkpoint.manifest``), whose digests cover every checkpoint
    artifact present.  A crash anywhere before the manifest rename leaves
    the previous checkpoint in charge.
    """
    from ..storage.snapshot import save_server

    save_server(server, image_path(state_dir, seq), atomic=True)
    atomic_write_json(
        sidecar_path(state_dir, seq),
        {"seq": seq, "lsn": lsn, "tnow": server.tnow},
        crash_site="checkpoint.sidecar",
    )
    if faults is not None:
        faults.hit("checkpoint.manifest")
    digests = {
        name: file_crc(os.path.join(state_dir, name))
        for name in os.listdir(state_dir)
        if kind_of(name) in ("checkpoint", "sidecar")
    }
    atomic_write_json(
        manifest_path(state_dir),
        {"seq": seq, "digests": digests},
        crash_site="checkpoint.manifest",
    )
