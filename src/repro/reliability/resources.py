"""Resource-exhaustion robustness: disk budgets, WAL retention, read-only mode.

The serving tier is a *continuously running* monitor — objects report
forever — so the state directory grows without bound unless something
prunes it, and a filling disk must degrade the server, not kill it.
This module owns that policy:

* :class:`DiskBudget` accounts the state directory's bytes against a
  **soft** and a **hard** watermark (both optional, both resizable at
  runtime — the resource chaos scheduler shrinks and restores them
  mid-campaign).
* :class:`ResourceManager` reacts to the budget on behalf of one
  :class:`~repro.reliability.recovery.ReliabilityManager`:

  - crossing the **soft** watermark checkpoints the server and prunes
    every WAL segment the retention rule releases;
  - crossing the **hard** watermark — or a poisoned WAL descriptor
    (see ``UpdateLog``'s fsyncgate rule) — flips the server to
    **read-only degraded mode**: queries keep serving, writes raise
    :class:`~repro.core.errors.ReadOnlyError` with a ``retry_after``
    hint (surfaced on the wire as the ``read_only`` error frame);
  - :meth:`ResourceManager.probe` is the way back out: reopen a fresh
    WAL segment past the poisoned one, prune, and leave read-only once
    the budget is below the hard watermark again.

* **Retention rule** (:func:`prunable_wal_segments`): a WAL segment may
  be deleted only when *every* record in it is covered by the newest
  **digest-verified, durable** checkpoint (the first one
  :func:`~repro.reliability.statedir.checkpoints` yields) *and* by every replica's
  acknowledged (applied) LSN.  A replica that went away and comes back
  from beyond the pruned horizon still heals — ``records_from_lsn``
  raises, and catch-up falls back to the checkpoint-image bootstrap —
  but a *live* replica never loses the tail it is owed.  Checkpoints
  older than the newest verified one are dropped together with their
  segments (a checkpoint whose replay tail is gone is dead weight).

Everything is deterministic: usage is a pure function of the files on
disk, and all decisions are made at explicit call points (after writes,
at probes), never on timers.
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
    "DiskBudget",
    "ResourceManager",
    "prunable_wal_segments",
    "prune_retention",
    "state_dir_usage",
]


def state_dir_usage(state_dir: str) -> Tuple[int, int]:
    """``(total_bytes, wal_segment_count)`` of the state directory.

    Counts regular files at the top level plus the quarantine directory;
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


class DiskBudget:
    """Soft/hard byte watermarks over one state directory.

    Reads its limits from the shared :class:`ResourceConfig` on every
    evaluation, so resizing the config (operator action, chaos event)
    takes effect immediately — including on a manager incarnation
    created after a failover, which shares the same config object.
    """

    def __init__(self, config: ResourceConfig) -> None:
        self.config = config

    def state(self, usage_bytes: int) -> str:
        """``"ok"`` | ``"soft"`` | ``"hard"`` for a measured usage."""
        hard = self.config.hard_limit_bytes
        if hard is not None and usage_bytes >= hard:
            return "hard"
        soft = self.config.soft_limit_bytes
        if soft is not None and usage_bytes >= soft:
            return "soft"
        return "ok"


# ----------------------------------------------------------------------
# retention
# ----------------------------------------------------------------------
def _newest_checkpoint(state_dir: str) -> Optional[Tuple[int, int]]:
    """``(seq, lsn)`` of the newest durable, digest-verified checkpoint;
    ``None`` (nothing is prunable) when none qualifies."""
    try:
        for seq, sidecar in checkpoints(state_dir):
            return seq, int(sidecar["lsn"])
    except RecoveryError:
        pass  # unreadable manifest: no checkpoint counts as durable
    return None


def prunable_wal_segments(
    state_dir: str,
    replica_lsns: Optional[List[int]] = None,
    current_seq: Optional[int] = None,
) -> List[int]:
    """WAL segment seqs the retention rule releases, oldest first.

    A segment is released only when its highest LSN is covered by the
    newest digest-verified durable checkpoint **and** by every replica's
    acknowledged LSN; the currently open segment is never released.
    An empty segment older than the verified checkpoint carries nothing
    and is released unconditionally.
    """
    verified = _newest_checkpoint(state_dir)
    if verified is None:
        return []
    ckpt_seq, ckpt_lsn = verified
    floor = ckpt_lsn
    for lsn in replica_lsns or []:
        floor = min(floor, int(lsn))
    out: List[int] = []
    for seq in wal_seqs(state_dir):
        if current_seq is not None and seq >= current_seq:
            continue
        if seq >= ckpt_seq:
            # rotated at (or after) the verified checkpoint: its records
            # are the replay tail that checkpoint needs
            continue
        try:
            scan = scan_segment(wal_path(state_dir, seq), newest=False)
        except OSError:
            continue
        # a corrupt segment is the scrubber's problem, never retention's
        if (
            scan.verdict == "corrupt"
            or not scan.records
            or int(scan.records[-1]["lsn"]) <= floor
        ):
            out.append(seq)
    return out


def prune_retention(
    state_dir: str,
    replica_lsns: Optional[List[int]] = None,
    current_seq: Optional[int] = None,
) -> Tuple[int, int]:
    """Apply the retention rule: drop released segments and the dead
    checkpoints older than the newest verified one.  Returns
    ``(files_removed, bytes_freed)``.

    Older checkpoints go *only* when every segment between them and the
    verified checkpoint was released — otherwise they remain a valid
    recovery fallback and keep their replay tail alive.
    """
    released = prunable_wal_segments(state_dir, replica_lsns, current_seq)
    removed = 0
    freed = 0

    def _unlink(path: str) -> None:
        nonlocal removed, freed
        try:
            freed += os.path.getsize(path)
            os.unlink(path)
            removed += 1
        except OSError:  # best-effort, like the interval pruner
            pass

    for seq in released:
        _unlink(wal_path(state_dir, seq))
    verified = _newest_checkpoint(state_dir)
    if verified is not None:
        ckpt_seq = verified[0]
        surviving = set(wal_seqs(state_dir))
        for seq in checkpoint_seqs(state_dir):
            if seq >= ckpt_seq:
                continue
            # an older checkpoint is dead once any of its replay tail
            # (segments seq..ckpt_seq-1) has been pruned away
            if any(s not in surviving for s in range(seq, ckpt_seq)):
                _unlink(image_path(state_dir, seq))
                _unlink(sidecar_path(state_dir, seq))
    return removed, freed


# ----------------------------------------------------------------------
# the manager
# ----------------------------------------------------------------------
class ResourceManager:
    """Budget enforcement for one reliability manager (and its server).

    Owned by the :class:`~repro.reliability.recovery.ReliabilityManager`;
    the server calls :meth:`check` after successful writes and
    :meth:`probe` when trying to leave read-only mode.  The replication
    layer wires :attr:`replica_lsns` so retention never outruns a live
    replica's acknowledged position.
    """

    def __init__(self, manager, config: ResourceConfig) -> None:
        self.manager = manager
        self.config = config
        self.budget = DiskBudget(config)
        # provider of every live replica's applied LSN; None = standalone
        self.replica_lsns: Optional[Callable[[], List[int]]] = None
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

    def _lsn_floor_inputs(self) -> Optional[List[int]]:
        return self.replica_lsns() if self.replica_lsns is not None else None

    def prune(self) -> Tuple[int, int]:
        """Run the retention rule now; returns ``(files, bytes)`` freed."""
        removed, freed = prune_retention(
            self.manager.state_dir,
            self._lsn_floor_inputs(),
            current_seq=self.manager.seq,
        )
        if removed:
            self._event("prune")
        return removed, freed

    # ------------------------------------------------------------------
    # the write-path hook
    # ------------------------------------------------------------------
    def check(self, server) -> str:
        """Evaluate the budget after a write; returns the budget state.

        Soft watermark: checkpoint, then prune (a checkpoint is what
        makes segments prunable).  Hard watermark — or a checkpoint that
        itself fails on the filling disk — enters read-only mode.
        Re-entrant calls (the checkpoint path writes too) are no-ops.
        """
        if self._checking:
            return "ok"
        usage = self.usage()
        state = self.budget.state(usage)
        if state == "ok":
            return state
        if state == "soft" and not server.read_only:
            self._event("soft_watermark")
            self._checking = True
            try:
                self.manager.checkpoint(server)
                self.prune()
            except (OSError, WALWriteError) as exc:
                self._enter_readonly(server, f"checkpoint failed: {exc}")
                return "hard"
            finally:
                self._checking = False
            usage = self.usage()
            state = self.budget.state(usage)
        if state == "hard" and not server.read_only:
            self._event("hard_watermark")
            self._enter_readonly(
                server,
                f"state directory at {usage} bytes >= hard limit "
                f"{self.config.hard_limit_bytes}",
            )
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
        usage = self.usage()
        if self.budget.state(usage) == "hard":
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
        else:
            usage = self.usage()
            if self.budget.state(usage) == "hard":
                self._event("hard_watermark")
                self._enter_readonly(
                    server,
                    f"state directory at {usage} bytes >= hard limit "
                    f"{self.config.hard_limit_bytes}",
                )

    # ------------------------------------------------------------------
    # read-only transitions (counted here; the server journals them)
    # ------------------------------------------------------------------
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
            "budget_state": self.budget.state(total),
            "events": dict(self.events),
        }
