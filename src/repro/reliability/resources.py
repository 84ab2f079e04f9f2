"""Resource-exhaustion robustness: WAL retention, disk budgets, read-only mode.

The serving tier is a *continuously running* monitor — objects report
forever — so the state directory grows without bound unless something
prunes it, and a filling disk must degrade the server, not kill it.
This module owns that policy for every durable directory: each
:class:`~repro.reliability.recovery.ReliabilityManager` runs one
:class:`ResourceManager`, which

* prunes by the **retention rule** (:func:`prunable_wal_segments`) after
  every checkpoint: a WAL segment may be deleted only when *every*
  record in it is covered by the oldest of the newest (up to)
  :data:`KEEP_CHECKPOINTS` **digest-verified, durable** checkpoints (the
  first ones :func:`~repro.reliability.statedir.checkpoints` yields)
  *and* by every live replica's applied LSN.  A replica that went away
  and comes back from beyond the pruned horizon still heals —
  ``records_from_lsn`` raises, and catch-up falls back to the
  checkpoint-image bootstrap — but a *live* replica never loses the
  tail it is owed.  Every checkpoint older than the retained ones is
  dropped: a replica pins segments, never images, so a partition holds
  at most :data:`KEEP_CHECKPOINTS` images however long it lasts;
* accounts the state directory's bytes against a **soft** and a
  **hard** watermark of the shared :class:`ResourceConfig` (both
  ``None`` — unbounded — by default, both resizable at runtime — the
  resource chaos scheduler shrinks and restores them mid-campaign):

  - crossing the **soft** watermark checkpoints the server and prunes;
  - crossing the **hard** watermark — or a poisoned WAL descriptor
    (see ``UpdateLog``'s fsyncgate rule) — flips the server to
    **read-only degraded mode**: queries keep serving, writes raise
    :class:`~repro.core.errors.ReadOnlyError` with a ``retry_after``
    hint (surfaced on the wire as the ``read_only`` error frame);
  - :meth:`ResourceManager.probe` is the way back out: reopen a fresh
    WAL segment past the poisoned one, prune, and leave read-only once
    the budget is below the hard watermark again.

Everything is deterministic: usage is a pure function of the files on
disk, and all decisions are made at explicit call points (after writes,
at checkpoints, at probes), never on timers.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Tuple

from ..core.errors import RecoveryError, WALWriteError
from ..telemetry import instruments as tm
from ..telemetry.journal import JOURNAL
from .statedir import (
    checkpoint_seqs,
    checkpoints,
    image_path,
    kind_of,
    scan_segment,
    sidecar_path,
    wal_path,
    wal_seqs,
)
from .validation import ResourceConfig

__all__ = [
    "KEEP_CHECKPOINTS",
    "ResourceManager",
    "prunable_wal_segments",
    "prune_retention",
    "state_dir_usage",
]

# Verified checkpoints whose replay tails retention keeps: the newest is
# what recovery starts from, the one before it the fallback when the
# newest turns out damaged.
KEEP_CHECKPOINTS = 2


def state_dir_usage(state_dir: str) -> Tuple[int, int]:
    """``(total_bytes, wal_segment_count)`` of the state directory.

    Sums the regular files at the top level and the files one level
    down in every subdirectory (the journal and the quarantine alike);
    missing files raced away mid-scan count as zero.
    """
    total = 0
    segments = 0
    try:
        names = os.listdir(state_dir)
    except OSError:
        return 0, 0
    for name in names:
        path = os.path.join(state_dir, name)
        try:
            if os.path.isdir(path):
                for sub in os.listdir(path):
                    try:
                        total += os.path.getsize(os.path.join(path, sub))
                    except OSError:
                        pass
                continue
            total += os.path.getsize(path)
        except OSError:
            continue
        if kind_of(name) == "wal":
            segments += 1
    return total, segments


# ----------------------------------------------------------------------
# retention
# ----------------------------------------------------------------------
def _anchor(state_dir: str) -> Optional[Tuple[int, int]]:
    """``(seq, lsn)`` of the oldest of the newest (up to)
    :data:`KEEP_CHECKPOINTS` durable, digest-verified checkpoints;
    ``None`` (nothing is prunable) when none qualifies."""
    anchor = None
    try:
        for kept, (seq, sidecar) in enumerate(checkpoints(state_dir), 1):
            anchor = (seq, int(sidecar["lsn"]))
            if kept == KEEP_CHECKPOINTS:
                break
    except RecoveryError:
        pass  # unreadable manifest: no checkpoint counts as durable
    return anchor


def _released(
    state_dir: str,
    anchor: Tuple[int, int],
    replica_lsns: Optional[List[int]],
    current_seq: Optional[int],
) -> List[int]:
    """The WAL segment seqs the retention rule releases below ``anchor``
    (see :func:`_anchor`), oldest first.

    A segment rotated before the anchor holds no LSN above the anchor's,
    so it is parsed only when some replica's LSN is below the anchor's.
    """
    anchor_seq, anchor_lsn = anchor
    floor = min([anchor_lsn] + [int(lsn) for lsn in replica_lsns or []])
    out: List[int] = []
    for seq in wal_seqs(state_dir):
        if seq >= anchor_seq or (current_seq is not None and seq >= current_seq):
            # rotated at (or after) the anchor: its records are the replay
            # tail that checkpoint needs
            break
        if floor < anchor_lsn:
            try:
                scan = scan_segment(wal_path(state_dir, seq), newest=False)
            except OSError:
                continue
            # a corrupt segment is the scrubber's problem, never retention's
            if (
                scan.verdict != "corrupt"
                and scan.records
                and int(scan.records[-1]["lsn"]) > floor
            ):
                continue
        out.append(seq)
    return out


def prunable_wal_segments(
    state_dir: str,
    replica_lsns: Optional[List[int]] = None,
    current_seq: Optional[int] = None,
) -> List[int]:
    """WAL segment seqs the retention rule releases, oldest first.

    A segment is released only when its highest LSN is covered by the
    oldest of the newest (up to) :data:`KEEP_CHECKPOINTS` digest-verified
    durable checkpoints **and** by every replica's applied LSN; the
    currently open segment is never released.  An empty segment older
    than that checkpoint carries nothing and is released unconditionally.
    """
    anchor = _anchor(state_dir)
    if anchor is None:
        return []
    return _released(state_dir, anchor, replica_lsns, current_seq)


def prune_retention(
    state_dir: str,
    replica_lsns: Optional[List[int]] = None,
    current_seq: Optional[int] = None,
    faults=None,
) -> Tuple[int, int]:
    """Apply the retention rule: drop the released segments and every
    checkpoint older than the retained ones.  Returns ``(files_removed,
    bytes_freed)``.

    At most :data:`KEEP_CHECKPOINTS` verified images stay.  A lagging
    replica pins WAL segments only: it catches up from the log, or else
    from the newest image, never from an older one.  The checkpoints go
    first, then the segments: between the two (fault site ``wal.prune``,
    hit once per prune) the directory holds surplus segments, never a
    retained checkpoint without its tail.
    """
    anchor = _anchor(state_dir)
    released: List[int] = []
    doomed: List[str] = []
    if anchor is not None:
        released = _released(state_dir, anchor, replica_lsns, current_seq)
        for seq in checkpoint_seqs(state_dir):
            if seq < anchor[0]:
                doomed += [image_path(state_dir, seq), sidecar_path(state_dir, seq)]
    removed, freed = _unlink(doomed)
    if faults is not None:
        faults.hit("wal.prune")
    segments, segment_bytes = _unlink([wal_path(state_dir, s) for s in released])
    return removed + segments, freed + segment_bytes


def _unlink(paths: List[str]) -> Tuple[int, int]:
    """Delete ``paths`` best-effort (a later prune retries); returns
    ``(files_removed, bytes_freed)``."""
    removed = 0
    freed = 0
    for path in paths:
        try:
            size = os.path.getsize(path)
            os.unlink(path)
        except OSError:
            continue
        removed += 1
        freed += size
    return removed, freed


# ----------------------------------------------------------------------
# the manager
# ----------------------------------------------------------------------
class ResourceManager:
    """Retention and budget enforcement for one reliability manager.

    Owned by the :class:`~repro.reliability.recovery.ReliabilityManager`,
    which prunes through it after every checkpoint; the server calls
    :meth:`check` after successful writes, :meth:`note_wal_failure` when
    the WAL descriptor is poisoned and :meth:`probe` when trying to leave
    read-only mode.  The replication layer wires :attr:`replica_lsns` so
    retention never outruns a live replica's applied position.

    The watermarks are read from the shared :class:`ResourceConfig` on
    every evaluation, so resizing the config (operator action, chaos
    event) takes effect immediately — including on a manager incarnation
    created after a failover, which shares the same config object.
    """

    def __init__(self, manager, config: ResourceConfig) -> None:
        self.manager = manager
        self.config = config
        # every live replica's applied LSN; none on a standalone server
        self.replica_lsns: Callable[[], List[int]] = lambda: []
        self.events = {
            "soft_watermark": 0,
            "hard_watermark": 0,
            "readonly_enter": 0,
            "readonly_exit": 0,
            "prune": 0,
            "wal_poisoned": 0,
            "wal_reopened": 0,
        }
        self._checking = False

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _count(self, name: str) -> None:
        self.events[name] = self.events.get(name, 0) + 1
        tm.RESOURCE_EVENTS.labels(name).inc()

    def _event(self, name: str) -> None:
        self._count(name)
        JOURNAL.emit("resource." + name)

    def usage(self) -> int:
        total, segments = state_dir_usage(self.manager.state_dir)
        tm.STATE_DIR_BYTES.set(total)
        tm.WAL_SEGMENTS.set(segments)
        return total

    def budget_state(self, usage_bytes: int) -> str:
        """``"ok"`` | ``"soft"`` | ``"hard"`` for a measured usage."""
        hard = self.config.hard_limit_bytes
        if hard is not None and usage_bytes >= hard:
            return "hard"
        soft = self.config.soft_limit_bytes
        if soft is not None and usage_bytes >= soft:
            return "soft"
        return "ok"

    def prune(self) -> Tuple[int, int]:
        """Run the retention rule now; returns ``(files, bytes)`` freed."""
        removed, freed = prune_retention(
            self.manager.state_dir,
            self.replica_lsns(),
            current_seq=self.manager.seq,
            faults=self.manager.faults,
        )
        if removed:
            self._event("prune")
        return removed, freed

    # ------------------------------------------------------------------
    # the write-path hook
    # ------------------------------------------------------------------
    def check(self, server) -> str:
        """Evaluate the budget after a write; returns the budget state.

        Unbounded (both watermarks ``None``) it touches no disk.  Soft
        watermark: checkpoint, which prunes.  Hard watermark — or a
        checkpoint that itself fails on the filling disk — enters
        read-only mode.  Re-entrant calls (the checkpoint path writes
        too) are no-ops.
        """
        config = self.config
        if self._checking or (
            config.soft_limit_bytes is None and config.hard_limit_bytes is None
        ):
            return "ok"
        usage = self.usage()
        state = self.budget_state(usage)
        if state == "ok":
            return state
        if state == "soft" and not server.read_only:
            self._event("soft_watermark")
            self._checking = True
            try:
                self.manager.checkpoint(server)
            except (OSError, WALWriteError) as exc:
                self._enter_readonly(server, f"checkpoint failed: {exc}")
                return "hard"
            finally:
                self._checking = False
            usage = self.usage()
            state = self.budget_state(usage)
        if state == "hard":
            self._hard_watermark(server, usage)
        return state

    def note_wal_failure(self, server, exc: BaseException) -> None:
        """A WAL write/flush/fsync failed: the segment fd is poisoned and
        the server degrades to read-only until a probe reopens a fresh
        segment (never the poisoned descriptor)."""
        self._event("wal_poisoned")
        self._enter_readonly(server, f"WAL poisoned: {exc}")

    # ------------------------------------------------------------------
    # the way back out
    # ------------------------------------------------------------------
    def probe(self, server) -> bool:
        """Try to leave read-only mode; returns True when writable again.

        Reopens a fresh WAL segment past a poisoned one (repairing the
        poisoned segment's unacknowledged tail first), prunes whatever
        retention releases, and exits read-only once the budget is below
        the hard watermark.  Never writes a checkpoint — a probe must
        not grow a disk that is still full.
        """
        if not server.read_only:
            return True
        if self.manager.wal_poisoned:
            try:
                self.manager.reopen_wal()
            except OSError:
                return False  # the disk has not recovered; stay degraded
            self._event("wal_reopened")
        self.prune()
        if self.budget_state(self.usage()) == "hard":
            return False
        self._exit_readonly(server)
        return True

    def reconcile(self, server) -> None:
        """Converge ``read_only`` with the budget state, both directions.

        The chaos scheduler calls this after every event so read-only
        entry/exit is a monotone function of the budget trajectory; an
        operator can reach the same point through ``probe``.
        """
        if server.read_only:
            self.probe(server)
            return
        usage = self.usage()
        if self.budget_state(usage) == "hard":
            self._hard_watermark(server, usage)

    # ------------------------------------------------------------------
    # read-only transitions (counted here; the server journals them)
    # ------------------------------------------------------------------
    def _hard_watermark(self, server, usage: int) -> None:
        if server.read_only:
            return
        self._event("hard_watermark")
        self._enter_readonly(
            server,
            f"state directory at {usage} bytes >= hard limit "
            f"{self.config.hard_limit_bytes}",
        )

    def _enter_readonly(self, server, reason: str) -> None:
        if server.read_only:
            return
        self._count("readonly_enter")
        server.enter_read_only(reason)

    def _exit_readonly(self, server) -> None:
        if not server.read_only:
            return
        self._count("readonly_exit")
        server.exit_read_only()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def report(self) -> dict:
        total, segments = state_dir_usage(self.manager.state_dir)
        return {
            "state_dir_bytes": total,
            "wal_segments": segments,
            "soft_limit_bytes": self.config.soft_limit_bytes,
            "hard_limit_bytes": self.config.hard_limit_bytes,
            "budget_state": self.budget_state(total),
            "events": dict(self.events),
        }
