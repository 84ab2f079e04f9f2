"""The unified ops event journal: append-only JSONL with rotation.

Every operationally interesting transition — supervisor child lifecycle,
boot-scrub findings, failover, read-only enter/exit, WAL prune, admission
shed, circuit-breaker state changes, SLO burn-rate crossings, sampled
wire traces — lands here as one JSON record per line:

    {"seq": 12, "ts": 1754700000.123, "perf": 8123.45, "pid": 4242,
     "event": "supervise.ready", "role": "supervisor", "epoch": 3,
     "generation": 2, "trace_id": null, ...event fields...}

``seq`` is per-process monotonic; ``ts`` is wall clock (for humans and
cross-host joins), ``perf`` is ``time.monotonic()`` (for intra-process
interval math that survives clock steps — the same split the lockfile
and deadline paths use).  ``trace_id`` is stamped automatically whenever
the emitting thread is inside an open span, which is what lets
``repro trace`` join journal records to a stitched span tree.

Cross-process safety: the supervisor parent and the serve child share
one journal *directory*, but each process appends only to its own
``journal-<pid>-<n>.jsonl`` segments — no write interleaving, no
rotation races.  Readers glob every segment and merge on ``(ts, pid,
seq)``.  Rotation is size-capped per process (``max_segment_bytes`` ×
``max_segments``); the journal lives inside the state dir, so the PR 7
disk budget accounts its bytes like any other state file, and the cap
keeps it a rounding error against the WAL retention math.

Unbound (no ``bind()`` call, e.g. unit tests or library use), the
journal is an in-memory ring — ``emit()`` still returns seqs and
``recent()`` still answers, nothing touches disk.  Set
``REPRO_JOURNAL_DIR`` to bind lazily on first emit (how the CI metrics
job captures a probe workload's journal without a serving process).

Writes are line-buffered and flushed, not fsynced: the journal is an
observability artifact, not a durability one — a torn final line after
SIGKILL is expected and readers skip unparseable lines.
"""

from __future__ import annotations

import glob
import io
import json
import os
import threading
import time
from collections import deque
from typing import List, Optional

__all__ = ["Journal", "JOURNAL", "read_journal", "JOURNAL_ENV"]

JOURNAL_ENV = "REPRO_JOURNAL_DIR"

#: Per-process rotation defaults: 512 KiB x 4 segments = at most ~2 MiB
#: of journal per process, far under any disk-budget watermark.
DEFAULT_MAX_SEGMENT_BYTES = 512 * 1024
DEFAULT_MAX_SEGMENTS = 4


def _current_trace_id() -> Optional[str]:
    """The trace id of the emitting thread's innermost open span, if any."""
    try:
        from . import TELEMETRY
    except ImportError:  # mid-import of the telemetry package
        return None
    span = TELEMETRY.tracer.current()
    if span is None or not span.trace_id:
        return None
    return span.trace_id


class Journal:
    """One process's journal writer: in-memory ring until bound to a dir."""

    def __init__(self, ring_capacity: int = 512) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._ring: deque = deque(maxlen=ring_capacity)
        self._dir: Optional[str] = None
        self._fh: Optional[io.TextIOWrapper] = None
        self._segment_index = 0
        self._segment_bytes = 0
        self.max_segment_bytes = DEFAULT_MAX_SEGMENT_BYTES
        self.max_segments = DEFAULT_MAX_SEGMENTS
        self.rotations = 0
        # Ambient context merged into every record; update_context() as
        # role/epoch/generation become known or change.
        self._context = {"role": None, "epoch": None, "generation": None}
        self._env_checked = False

    # ------------------------------------------------------------------
    # binding and rotation
    # ------------------------------------------------------------------
    @property
    def directory(self) -> Optional[str]:
        return self._dir

    def bind(
        self,
        directory: str,
        *,
        max_segment_bytes: Optional[int] = None,
        max_segments: Optional[int] = None,
        role: Optional[str] = None,
    ) -> None:
        """Start appending to ``directory`` (created if missing)."""
        with self._lock:
            self._close_locked()
            os.makedirs(directory, exist_ok=True)
            self._dir = directory
            if max_segment_bytes is not None:
                self.max_segment_bytes = max(1024, int(max_segment_bytes))
            if max_segments is not None:
                self.max_segments = max(1, int(max_segments))
            if role is not None:
                self._context["role"] = role
            self._env_checked = True
            self._open_segment_locked()

    def unbind(self) -> None:
        """Close the on-disk segment; keep journaling to the ring only."""
        with self._lock:
            self._close_locked()
            self._dir = None
            self._env_checked = True

    def close(self) -> None:
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def _segment_path(self, index: int) -> str:
        assert self._dir is not None
        return os.path.join(
            self._dir, f"journal-{os.getpid()}-{index:04d}.jsonl"
        )

    def _own_segments_locked(self) -> List[str]:
        """This process's segments, oldest first (numeric index order)."""
        def index_of(path: str) -> int:
            try:
                return int(os.path.basename(path).rsplit("-", 1)[1].split(".")[0])
            except (IndexError, ValueError):
                return -1
        return sorted(
            glob.glob(os.path.join(self._dir, f"journal-{os.getpid()}-*.jsonl")),
            key=index_of,
        )

    def _open_segment_locked(self) -> None:
        # Resume after the highest existing index for this pid so a
        # re-bind (or a recycled pid) never truncates history.
        own = self._own_segments_locked()
        if own:
            tail = own[-1]
            try:
                self._segment_index = int(
                    os.path.basename(tail).rsplit("-", 1)[1].split(".")[0]
                )
                self._segment_bytes = os.path.getsize(tail)
            except (ValueError, OSError):
                self._segment_index += 1
                self._segment_bytes = 0
        else:
            self._segment_bytes = 0
        self._fh = open(
            self._segment_path(self._segment_index), "a", encoding="utf-8"
        )

    def _rotate_locked(self) -> None:
        self._close_locked()
        self._segment_index += 1
        self._segment_bytes = 0
        self.rotations += 1
        self._fh = open(
            self._segment_path(self._segment_index), "a", encoding="utf-8"
        )
        # Prune this process's oldest segments beyond the cap.
        own = self._own_segments_locked()
        while len(own) > self.max_segments:
            victim = own.pop(0)
            try:
                os.unlink(victim)
            except OSError:
                break

    # ------------------------------------------------------------------
    # context and emission
    # ------------------------------------------------------------------
    def update_context(self, **ctx) -> None:
        """Merge ambient fields (role / epoch / generation) into records."""
        with self._lock:
            for key, value in ctx.items():
                self._context[key] = value

    def emit(self, event: str, **fields) -> int:
        """Append one record; returns its per-process monotonic seq."""
        with self._lock:
            if not self._env_checked:
                self._env_checked = True
                env_dir = os.environ.get(JOURNAL_ENV, "").strip()
                if env_dir:
                    os.makedirs(env_dir, exist_ok=True)
                    self._dir = env_dir
                    self._open_segment_locked()
            self._seq += 1
            record = {
                "seq": self._seq,
                "ts": time.time(),
                "perf": time.monotonic(),
                "pid": os.getpid(),
                "event": event,
                "role": self._context.get("role"),
                "epoch": self._context.get("epoch"),
                "generation": self._context.get("generation"),
                "trace_id": fields.pop("trace_id", None) or _current_trace_id(),
            }
            # Event fields must not clobber the record envelope: a caller
            # passing e.g. ``pid=<child pid>`` means a *subject* pid, not
            # the emitter's - keep both, the collision renamed.
            for key in list(fields):
                if key in record:
                    fields[f"subject_{key}"] = fields.pop(key)
            record.update(fields)
            self._ring.append(record)
            if self._fh is not None:
                line = json.dumps(record, separators=(",", ":"), default=str)
                try:
                    self._fh.write(line + "\n")
                    self._fh.flush()
                    self._segment_bytes += len(line) + 1
                    if self._segment_bytes >= self.max_segment_bytes:
                        self._rotate_locked()
                except (OSError, ValueError):
                    # Journal writes must never take the server down —
                    # fall back to ring-only on a poisoned fd.
                    self._close_locked()
            return self._seq

    def recent(self, limit: Optional[int] = None) -> List[dict]:
        """The in-memory ring, oldest first."""
        with self._lock:
            records = list(self._ring)
        if limit is not None:
            records = records[-limit:]
        return records

    def disk_bytes(self) -> int:
        """Total bytes of this process's on-disk segments (0 if unbound)."""
        if self._dir is None:
            return 0
        total = 0
        for path in glob.glob(
            os.path.join(self._dir, f"journal-{os.getpid()}-*.jsonl")
        ):
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return total


def read_journal(
    directory: str,
    *,
    event: Optional[str] = None,
    trace_id: Optional[str] = None,
) -> List[dict]:
    """Read and merge every process's segments in ``directory``.

    Records are merged on ``(ts, pid, seq)`` — cross-process order is
    wall-clock best-effort, per-process order is exact.  Unparseable
    lines (torn tails after SIGKILL) are skipped.
    """
    records: List[dict] = []
    for path in sorted(glob.glob(os.path.join(directory, "journal-*.jsonl"))):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if not isinstance(record, dict):
                        continue
                    records.append(record)
        except OSError:
            continue
    if event is not None:
        records = [r for r in records if r.get("event") == event]
    if trace_id is not None:
        records = [r for r in records if r.get("trace_id") == trace_id]
    records.sort(key=lambda r: (r.get("ts", 0.0), r.get("pid", 0), r.get("seq", 0)))
    return records


#: The process-wide journal every instrumented module shares.
JOURNAL = Journal()
