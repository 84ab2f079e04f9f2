"""Checkpoint/replay recovery: the durability layer of the PDR server.

The state directory's format (file names, record framing, the segment
scan, the checkpoint chooser and writer) belongs to :mod:`.statedir`;
this module drives it.

Every accepted update (report / retire / advance) is appended to the
current WAL segment *before* it is applied (write-ahead), tagged with a
monotonically increasing LSN.  A checkpoint captures the full maintained
state plus the LSN of the last applied record, then rotates the log to a
fresh segment.  Recovery = newest loadable checkpoint + replay of every
logged record with a higher LSN, which reproduces the exact float state
of an uncrashed run (replay re-executes the same numpy operations in the
same order on bit-identical starting arrays).

Crash safety at every step:

* a crash before the WAL append loses only the in-flight record — the
  caller never saw it acknowledged;
* a crash after the append but before the apply is healed by replay;
* a crash during a checkpoint leaves the manifest pointing at the
  previous checkpoint, whose WAL segments are still intact;
* a torn final line of the newest WAL segment (torn write) is detected
  and truncated on recovery;
* a damaged line anywhere else is corruption, not a torn write: replay
  raises :class:`~repro.core.errors.CorruptionError` and
  the integrity layer (:mod:`.integrity`) quarantines the segment and
  repairs the LSN range from a caught-up replica.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Callable, Iterator, List, Optional

import numpy as np

from ..core.errors import (
    AuditError,
    CorruptionError,
    IndexError_,
    RecoveryError,
    StorageError,
    WALWriteError,
)
from ..motion.updates import workspace
from ..telemetry import instruments as tm
from .faults import FaultInjector, InjectedCrashError, InjectedShortWrite
from .lockfile import acquire_state_dir_lock
from .resources import ResourceManager
from .statedir import (
    atomic_write_json,
    config_path,
    frame_record,
    holds_state,
    load_latest_checkpoint,
    read_server_config,
    scan_segment,
    wal_path,
    wal_seqs,
    write_checkpoint,
)
from .validation import ReliabilityConfig, ResourceConfig

__all__ = [
    "UpdateLog",
    "ReliabilityManager",
    "recover_server",
    "audit_server",
    "records_from_lsn",
    "load_latest_checkpoint",
]

class UpdateLog:
    """One append-only WAL segment of checksum-framed JSONL records.

    Each line is ``lsn:crc:payload`` (see
    :func:`~repro.reliability.statedir.frame_record`); a line that does
    not verify is a torn tail or corruption, never a record.

    **The fsyncgate rule.**  Any write/flush/fsync failure permanently
    *poisons* this segment's descriptor: after a failed fsync the kernel
    may have dropped exactly the dirty pages whose writeback failed, so
    retrying fsync on the same descriptor can falsely report success.
    A poisoned log closes its descriptor (without another fsync), raises
    :class:`~repro.core.errors.WALWriteError` for the failed append and
    every later one, and never touches the file again — recovery means
    a *fresh* segment via
    :meth:`ReliabilityManager.reopen_wal`.  Fault sites: ``wal_write``
    fires before the write+flush, ``wal_fsync`` before the fsync; both
    accept injected ``OSError`` (ENOSPC / EIO / short writes) and crashes.
    """

    def __init__(
        self, path: str, fsync: bool = True, faults: Optional[FaultInjector] = None
    ) -> None:
        self.path = path
        self.fsync = fsync
        self.faults = faults
        self.poisoned = False
        self.fsync_calls = 0  # issued on THIS descriptor; frozen once poisoned
        self._fh = open(path, "a", encoding="utf-8")

    def _poison(self, exc: BaseException) -> None:
        """Mark the descriptor dead and close it — without fsync (the
        dirty-page state it would have covered is already lost)."""
        self.poisoned = True
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - close on a failed fd
            pass
        raise WALWriteError(
            f"update log {self.path!r} poisoned by failed write/fsync: {exc}"
        ) from exc

    def _write_flush(self, data: str) -> None:
        if self.poisoned:
            raise WALWriteError(
                f"update log {self.path!r} is poisoned; open a fresh segment"
            )
        try:
            if self.faults is not None:
                self.faults.hit("wal_write")
            self._fh.write(data)
            self._fh.flush()
        except (InjectedShortWrite, InjectedCrashError) as exc:
            # land a prefix of the payload first: the torn line a real
            # partial write (or a power cut mid-write) would leave for
            # recovery to repair
            if exc.fraction is not None:
                try:
                    self._fh.write(data[: max(1, int(len(data) * exc.fraction))])
                    self._fh.flush()
                except OSError:
                    pass
            if isinstance(exc, InjectedCrashError):
                exc.die()
            self._poison(exc)
        except OSError as exc:
            self._poison(exc)

    def _fsync_once(self) -> None:
        try:
            if self.faults is not None:
                self.faults.hit("wal_fsync")
            self.fsync_calls += 1
            os.fsync(self._fh.fileno())
        except OSError as exc:
            self._poison(exc)

    def append(self, records: List[dict]) -> None:
        """Group commit: one write + flush + fsync for the whole batch.

        Each record is individually framed, so the bytes on disk are the
        same whether records come one per call or many — recovery and
        replication cannot tell the difference; only the syscall count
        changes.
        """
        t0 = time.perf_counter()
        self._write_flush("".join(frame_record(record) for record in records))
        t1 = time.perf_counter()
        if self.fsync:
            self._fsync_once()
            tm.WAL_FSYNC_SECONDS.observe(time.perf_counter() - t1)
        tm.WAL_APPEND_SECONDS.observe(t1 - t0)
        tm.WAL_RECORDS.inc(len(records))

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class ReliabilityManager:
    """Owns the WAL and the checkpoint cycle for one server.

    Fault sites (see :data:`~repro.reliability.faults.DURABILITY_SITES`):
    ``wal.append`` fires before each batch is written, ``checkpoint.write``
    before the snapshot file is written (the checkpoint's artifacts add
    their own in :func:`~repro.reliability.statedir.write_checkpoint`),
    ``wal.reopen`` mid-reopen and ``wal.prune`` mid-prune (in
    :func:`~repro.reliability.resources.prune_retention`).
    """

    def __init__(
        self,
        state_dir: str,
        config: ReliabilityConfig,
        seq: int,
        lsn: int,
        last_checkpoint_tick: Optional[int] = None,
    ) -> None:
        self.state_dir = state_dir
        self.config = config
        self.faults: Optional[FaultInjector] = config.faults
        self.seq = seq
        self.lsn = lsn
        self.last_checkpoint_tick = last_checkpoint_tick
        # Exclusive WAL ownership: held for this manager's whole life so a
        # second OS process can never append to the same segments.  The
        # kernel drops it if we are SIGKILLed.
        self._lock = acquire_state_dir_lock(state_dir)
        self._wal = UpdateLog(
            wal_path(state_dir, seq), fsync=config.fsync, faults=config.faults
        )
        # Retention after every checkpoint, the disk budget after every write.
        self.resources = ResourceManager(self, config.resources)
        # Called with each record *after* it is durably appended — the
        # WAL-shipping hook of the replication layer.  A record is only
        # shipped once it is on disk, so a replica can never get ahead of
        # what recovery would reconstruct.
        self.on_append: List[Callable[[dict], None]] = []

    # ------------------------------------------------------------------
    # construction paths
    # ------------------------------------------------------------------
    @classmethod
    def create_fresh(cls, server, config: ReliabilityConfig) -> "ReliabilityManager":
        """Start durability for a brand-new server in an empty directory."""
        state_dir = config.state_dir
        os.makedirs(state_dir, exist_ok=True)
        if holds_state(state_dir):
            raise StorageError(
                f"state directory {state_dir!r} already holds server state; "
                "use PDRServer.recover() instead of constructing over it"
            )
        from ..storage.snapshot import config_to_dict

        atomic_write_json(
            config_path(state_dir),
            {
                "config": config_to_dict(server.config),
                "expected_objects": server.expected_objects,
                "tnow0": server.tnow,
                "reliability": {
                    "checkpoint_interval": config.checkpoint_interval,
                    "fsync": config.fsync,
                    "resources": config.resources.to_dict(),
                },
            },
        )
        return cls(state_dir, config, seq=0, lsn=0)

    @classmethod
    def resume(
        cls, state_dir: str, config: ReliabilityConfig, lsn: int, min_seq: int = 0
    ) -> "ReliabilityManager":
        """Re-attach to an existing directory after recovery (torn WAL
        tails must already have been repaired by the replay scan).

        Appends go to the newest segment, or to segment ``min_seq`` (the
        checkpoint recovery started from) when that is newer: a crash
        between a checkpoint's manifest flip and its WAL rotation leaves
        no segment at the checkpoint's seq, and records appended below it
        would sit where replay from that checkpoint never looks.
        """
        seqs = wal_seqs(state_dir)
        return cls(state_dir, config, seq=max(seqs[-1:] + [min_seq]), lsn=lsn)

    # ------------------------------------------------------------------
    # write-ahead logging
    # ------------------------------------------------------------------
    def _append(self, records: List[dict]) -> None:
        """Durably append a batch under one fault-site hit and one fsync.

        LSNs are assigned sequentially, and each record reaches every
        ``on_append`` subscriber individually (replication ships records,
        not batches); a single record is a one-element batch.
        """
        if not records:
            return
        if self.faults is not None:
            self.faults.hit("wal.append")
        for i, record in enumerate(records):
            record["lsn"] = self.lsn + 1 + i
        self._wal.append(records)
        self.lsn += len(records)
        tm.WAL_LSN.set(self.lsn)
        for record in records:
            for callback in self.on_append:
                callback(record)

    def log_report_batch(self, reports, tnow: int) -> None:
        """Group-commit a wave of ``(oid, x, y, vx, vy)`` reports."""
        self._append(
            [
                {"op": "report", "t": tnow, "oid": oid, "x": x, "y": y, "vx": vx, "vy": vy}
                for oid, x, y, vx, vy in reports
            ]
        )

    def log_retire(self, oid: int, tnow: int) -> None:
        self._append([{"op": "retire", "t": tnow, "oid": oid}])

    def log_advance(self, tnow: int) -> None:
        self._append([{"op": "advance", "t": tnow}])

    def log_epoch(self, epoch: int, tnow: int) -> None:
        """Durably record a fencing-epoch bump (written at promotion)."""
        self._append([{"op": "epoch", "t": tnow, "epoch": epoch}])

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def maybe_checkpoint(self, server, tick: int) -> bool:
        interval = self.config.checkpoint_interval
        if interval <= 0:
            return False
        if tick % interval != 0 or tick == self.last_checkpoint_tick:
            return False
        self.checkpoint(server)
        return True

    def checkpoint(self, server) -> int:
        """Write a full checkpoint, flip the manifest, rotate the WAL."""
        started = time.perf_counter()
        if self.faults is not None:
            self.faults.hit("checkpoint.write")
        new_seq = self.seq + 1
        write_checkpoint(self.state_dir, new_seq, server, self.lsn, self.faults)
        self._rotate(new_seq)
        self.last_checkpoint_tick = server.tnow
        self.resources.prune()
        tm.CHECKPOINTS.inc()
        tm.CHECKPOINT_SECONDS.observe(time.perf_counter() - started)
        return new_seq

    # ------------------------------------------------------------------
    # poisoned-descriptor recovery
    # ------------------------------------------------------------------
    @property
    def wal_poisoned(self) -> bool:
        """True once a write/flush/fsync failed on the current segment's
        descriptor; writes raise until :meth:`reopen_wal` succeeds."""
        return self._wal.poisoned

    def reopen_wal(self) -> None:
        """Leave a poisoned segment behind by opening a *fresh* one
        (see :meth:`_rotate`).  Raises ``OSError`` while the disk is still
        refusing writes — the caller stays read-only and probes again
        later.  No-op on a healthy log.
        """
        if not self._wal.poisoned:
            return
        if self.faults is not None:
            self.faults.hit("wal.reopen")
        self._rotate(self.seq + 1)

    def _rotate(self, new_seq: int) -> None:
        """Close the current segment and open segment ``new_seq``.

        A poisoned segment is first cut back to its acknowledged prefix.
        The fsyncgate rule forbids touching the poisoned descriptor again,
        but the *file* is fair game through a new descriptor: its
        unacknowledged tail (torn lines, records past the acked LSN that a
        failed fsync may or may not have persisted) is truncated away, so
        the segment left behind verifies clean and the LSN chain stays
        contiguous when the next acked record lands in the new segment.
        """
        if self._wal.poisoned:
            _truncate_unacked(self._wal.path, self.lsn)
        self._wal.close()
        self._wal = UpdateLog(
            wal_path(self.state_dir, new_seq),
            fsync=self.config.fsync,
            faults=self.faults,
        )
        self.seq = new_seq

    def close(self) -> None:
        self._wal.close()
        self._lock.release()


def _truncate_unacked(path: str, acked_lsn: int) -> None:
    """Cut a poisoned segment back to its acknowledged prefix.

    Operates through a fresh descriptor (the poisoned one is never
    reused).  Keeps the scan's intact records with ``lsn <= acked_lsn``;
    the first torn, corrupt or higher-LSN line — exactly the bytes whose
    durability the failed fsync left unknown — and everything after it
    are dropped.  Nothing acknowledged is ever in that region: acks
    happen only after a successful append+fsync.
    """
    try:
        scan = scan_segment(path, newest=True)
    except OSError:
        return  # nothing on disk to repair
    kept = 0
    while kept < len(scan.records) and int(scan.records[kept]["lsn"]) <= acked_lsn:
        kept += 1
    os.truncate(path, scan.ends[kept - 1] if kept else 0)


# ----------------------------------------------------------------------
# recovery
# ----------------------------------------------------------------------
def _replay(state_dir: str, lsn: int, from_seq: int = 0) -> Iterator[dict]:
    """Every WAL record above ``lsn`` in segments ``from_seq`` on, in order.

    The newest segment's torn tail is truncated in place; any other
    damage raises :class:`CorruptionError` naming the segment and line
    (the verdict ``verify_state_dir`` gives the segment).  The records
    must continue ``lsn`` without a gap, else :class:`RecoveryError`.
    """
    expected = lsn + 1
    seqs = wal_seqs(state_dir)
    for seq in seqs:
        if seq < from_seq:
            continue
        path = wal_path(state_dir, seq)
        scan = scan_segment(path, newest=seq == seqs[-1])
        if scan.verdict == "corrupt":
            raise CorruptionError(
                f"corrupt update log {path!r}: {scan.detail}",
                path=path,
                line=scan.line,
            )
        if scan.verdict == "torn-tail":
            os.truncate(path, scan.good_bytes)
        for record in scan.records:
            found = int(record["lsn"])
            if found <= lsn:
                continue
            if found != expected:
                raise RecoveryError(
                    f"update log gap in {state_dir!r}: expected lsn {expected}, "
                    f"found {found} (older segments pruned or log corrupt)"
                )
            expected += 1
            yield record


def records_from_lsn(state_dir: str, lsn: int) -> Iterator[dict]:
    """Every WAL record with an LSN strictly greater than ``lsn``, in order.

    This is the public replay cursor the replication layer catches up
    with: a replica that has applied up to ``lsn`` asks for everything
    after it, across however many segments the log has rotated through.
    Raises :class:`RecoveryError` while iterating if the log no longer
    reaches back that far — the segments holding ``lsn + 1`` were pruned
    after a checkpoint — or if the surviving records are not contiguous;
    the caller must then bootstrap from a checkpoint image instead
    (:func:`load_latest_checkpoint`).
    """
    if lsn < 0:
        raise RecoveryError(f"replay cursor must be >= 0, got {lsn}")
    yield from _replay(state_dir, lsn)


def recover_server(
    state_dir: str,
    faults: Optional[FaultInjector] = None,
    audit: bool = True,
    expected_objects: Optional[int] = None,
):
    """Reconstruct a :class:`PDRServer` as checkpoint + WAL replay.

    The returned server has durability re-attached (subsequent updates
    append to the same WAL) and, with ``audit`` (the default), has passed
    the structural invariant audit.
    """
    from ..core.system import PDRServer

    meta = read_server_config(state_dir)
    # Take the exclusive lock before the replay scan: it repairs torn WAL
    # tails in place, which must never race a live writer in another
    # process.  Released below once the resumed manager (which holds its
    # own refcount on the same lock) has taken over.
    boot_lock = acquire_state_dir_lock(state_dir)
    try:
        try:
            from ..storage.snapshot import config_from_dict

            system_config = config_from_dict(meta["config"])
            # keys of settings that are constants now (a policy, retry
            # counts, checkpoint retention, ...) may still be present in
            # directories written before; they are ignored
            rel_meta = meta["reliability"]
            rc = ReliabilityConfig(
                state_dir=state_dir,
                checkpoint_interval=int(rel_meta["checkpoint_interval"]),
                fsync=bool(rel_meta["fsync"]),
                faults=faults,
                # absent (or null) in directories written before budgets
                # were always on: unbounded
                resources=ResourceConfig.from_dict(rel_meta.get("resources")),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise RecoveryError(
                f"corrupt server-config.json in {state_dir!r}: {exc}"
            ) from exc

        loaded = load_latest_checkpoint(state_dir)
        if loaded is not None:
            state, sidecar = loaded
            base_lsn = int(sidecar["lsn"])
            from_seq = int(sidecar["seq"])
            tnow = state.tnow
        else:
            state = None
            base_lsn = 0
            from_seq = 0
            tnow = int(meta.get("tnow0", 0))

        # Construct without a live manager (replay must not re-log), restore,
        # then replay the tail of the log.
        server = PDRServer(
            system_config,
            expected_objects=expected_objects or int(meta.get("expected_objects", 1) or 1),
            tnow=tnow,
            reliability=dataclasses.replace(rc, state_dir=None, faults=faults),
        )
        if state is not None:
            from ..storage.snapshot import restore_server_state

            restore_server_state(server, state)

        last_lsn = base_lsn

        def tail() -> Iterator[dict]:
            nonlocal last_lsn
            for record in _replay(state_dir, base_lsn, from_seq):
                last_lsn = int(record["lsn"])
                yield record

        server.apply_logged_records(tail())

        manager = ReliabilityManager.resume(
            state_dir, rc, lsn=last_lsn, min_seq=from_seq
        )
        server.attach_manager(manager)
        # The replay-time config carried state_dir=None so construction
        # would not open a second WAL; now that the resumed manager owns
        # durability, the server's visible config tells the truth again
        # (ReplicationGroup reads state_dir from it).
        server.reliability = rc
        if audit:
            try:
                audit_server(server)
            except AuditError:
                manager.close()  # don't leak the resumed WAL descriptor
                raise
        # The recovered server starts a fresh serving life: per-query counters
        # and the stage-seconds accumulators describe *this* incarnation, not
        # the one that crashed (snapshot restore may have carried them over).
        server.query_counters.clear()
        server.stage_seconds.clear()
        # Bump the recovery generation and persist it alongside the config so
        # operators can tell apart incarnations of the same state directory
        # (reports and metrics are tagged with it).
        generation = int(meta.get("generation", 0)) + 1
        meta["generation"] = generation
        atomic_write_json(config_path(state_dir), meta)
        server.recovery_generation = generation
        tm.RECOVERIES.inc()
        tm.RECOVERY_GENERATION.set(generation)
        return server
    finally:
        boot_lock.release()


# ----------------------------------------------------------------------
# structural invariant audit
# ----------------------------------------------------------------------
def live_in_domain_counts(motions, qts: np.ndarray, horizon: int, domain) -> np.ndarray:
    """How many of ``motions`` are inside their own prediction window and
    inside the (half-open) domain at each timestamp of ``qts``.

    Counted over :meth:`~repro.motion.updates.Columns.passes` runs whose
    grids come from this thread's :func:`~repro.motion.updates.workspace`,
    so they never span the whole table and take no fresh pages."""
    counts = np.zeros(qts.shape[0], dtype=np.int64)
    work = workspace()
    for _, part in motions.passes(qts.shape[0]):
        shape = (len(part), qts.shape[0])
        with work.frame():
            counted = part.covering(qts, horizon, out=work(shape, bool))
            counted &= domain.contains_points(
                *part.trajectory(qts, out=(work(shape), work(shape)))
            )
            counts += counted.sum(axis=0)
    return counts


def audit_server(server, raise_on_violation: bool = True) -> List[str]:
    """Cross-check every maintained structure against the object table.

    Checks: TPR-tree structural validity (bounding-rectangle containment
    over the whole subtree, fanout, the live rows each once), tree/table
    cardinality, clock alignment of every ring buffer, and histogram totals vs. the
    in-domain in-window object count at every stored timestamp of the ring,
    ``[t_now, t_now + W]`` (past it the histogram is built from the table
    itself, so a recount there would compare the table with itself).
    """
    violations: List[str] = []
    try:
        server.tree.validate()
    except IndexError_ as exc:
        violations.append(f"tpr-tree: {exc}")
    if len(server.tree) != len(server.table):
        violations.append(
            f"tree holds {len(server.tree)} objects, table holds {len(server.table)}"
        )
    tnow = server.table.tnow
    if server.histogram.tnow != tnow:
        violations.append(
            f"histogram clock {server.histogram.tnow} != table clock {tnow}"
        )
    if server.pa.tnow != tnow:
        violations.append(f"PA clock {server.pa.tnow} != table clock {tnow}")
    horizon = server.config.horizon
    qts = np.arange(tnow, tnow + server.config.prediction_window + 1)
    live = live_in_domain_counts(server.table.columns(), qts, horizon, server.config.domain)
    for qt, expected in zip(qts.tolist(), live.tolist()):
        observed = server.histogram.total_at(qt)
        if observed != expected:
            violations.append(
                f"histogram total {observed} at t={qt} != {expected} live in-domain objects"
            )
    if violations and raise_on_violation:
        raise AuditError(
            f"recovery audit found {len(violations)} violation(s): "
            + "; ".join(violations),
            violations=violations,
        )
    return violations
