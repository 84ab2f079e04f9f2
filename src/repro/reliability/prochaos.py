"""Process-level crash chaos: the crashpoint × seed kill matrix.

One **cell** of the matrix is the full ALICE-style experiment for one
``(crashpoint, seed)`` pair, run against real OS processes:

1. a :class:`~repro.serving.supervisor.Supervisor` spawns ``repro
   serve`` with the crashpoint armed in the first child's environment
   (``--fsync --checkpoint-interval 2`` so every durability site on the
   matrix is actually on the code path);
2. a seeded workload drives reports and clock advances over the real TCP
   front door through :class:`~repro.serving.client.ResilientClient`,
   recording every acknowledged LSN;
3. the armed child SIGKILLs itself at the site (after a seed-derived
   number of hits; the ``wal_write`` site also lands a seed-derived torn
   prefix first);
4. the supervisor restarts a fresh — *disarmed* — process over the same
   state directory at the same port, and the client rides the outage out
   (retries, reconnect, recovery-generation bump);
5. after more acknowledged traffic, the supervisor drains and the
   **oracles** interrogate what is actually on disk:

   * **zero acked-write loss** — an in-process recovery of the state
     directory must reach a WAL position >= every LSN the client ever
     saw acknowledged;
   * **clean-or-quarantined** — ``verify_state_dir`` may report nothing
     worse than stray tmps (damage the crash manufactured must have been
     repaired or quarantined by the restart, not served from);
   * **contiguous LSN chain** — replaying from the newest checkpoint
     must meet every LSN exactly once, no gaps;
   * the restart must actually have happened: exactly one supervised
     restart, recovery generation visibly bumped at the client.

A cell whose crashpoint never fires is a **failure**, not a skip: a
site that silently stopped being reached would otherwise turn the whole
matrix green while testing nothing.

Results serialize like the in-process chaos reproducers
(:meth:`ProcessChaosResult.to_dict` / ``format_reproducer``), so CI can
upload a failing cell as an artifact and a developer can re-run exactly
``repro chaos --process --crashpoint <site> --seed <seed>``.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import List, Optional

from ..core.errors import ClientError, ReproError, ServingError
from .crashpoints import CRASH_SITES

__all__ = [
    "ProcessChaosConfig",
    "ProcessChaosResult",
    "run_process_cell",
]


@dataclasses.dataclass
class ProcessChaosConfig:
    """One kill-matrix cell (a crashpoint at one seed)."""

    site: str
    seed: int = 0
    objects: int = 24
    checkpoint_interval: int = 2
    post_restart_ops: int = 8  # acked writes demanded of the new process
    crash_deadline: float = 60.0  # seconds for the armed kill to happen
    recover_deadline: float = 60.0  # seconds for the restart to go ready
    startup_deadline: float = 45.0
    python: Optional[str] = None  # interpreter override

    def __post_init__(self) -> None:
        if self.site not in CRASH_SITES and self.site != "wal.reopen":
            raise ReproError(
                f"unknown crashpoint {self.site!r}; matrix sites: "
                f"{', '.join(CRASH_SITES)}"
            )

    @property
    def arm_after(self) -> int:
        """Seed-derived hits to skip, so seeds die at different depths.

        WAL sites fire per record — plenty of budget; checkpoint-cycle
        sites fire once per checkpoint, so the skip stays small enough
        that the workload reliably reaches it.
        """
        if self.site in ("wal.append", "wal_write", "wal_fsync"):
            return 3 + (self.seed % 7)
        return self.seed % 2

    @property
    def arm_torn(self) -> Optional[float]:
        """Seed-derived torn fraction for the mid-write site."""
        if self.site != "wal_write":
            return None
        return (1 + self.seed % 4) / 5.0  # 0.2, 0.4, 0.6, 0.8


@dataclasses.dataclass
class ProcessChaosResult:
    """Verdict + evidence for one cell."""

    site: str
    seed: int
    ok: bool = False
    violations: List[str] = dataclasses.field(default_factory=list)
    stats: dict = dataclasses.field(default_factory=dict)
    events: List[str] = dataclasses.field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "kind": "process-crash-cell",
            "site": self.site,
            "seed": self.seed,
            "ok": self.ok,
            "violations": list(self.violations),
            "stats": dict(self.stats),
            "events": list(self.events),
            "rerun": (
                f"repro chaos --process --crashpoint {self.site} "
                f"--seed {self.seed}"
            ),
        }

    def format_reproducer(self) -> str:
        lines = [
            f"process-crash cell FAILED: site={self.site} seed={self.seed}"
        ]
        lines.extend(f"  violation: {v}" for v in self.violations)
        lines.append(
            f"  rerun: repro chaos --process --crashpoint {self.site} "
            f"--seed {self.seed}"
        )
        lines.extend(f"  event: {e}" for e in self.events[-12:])
        return "\n".join(lines)


class _EventLog:
    """Supervisor `out` sink that keeps status lines for the reproducer."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def write(self, text: str) -> None:
        text = text.strip()
        if text:
            self.lines.append(text)

    def flush(self) -> None:  # pragma: no cover - interface completeness
        pass


def run_process_cell(
    config: ProcessChaosConfig, workdir: str
) -> ProcessChaosResult:
    """Run one kill-matrix cell in ``workdir`` (caller owns cleanup)."""
    import random

    from ..serving.client import ClientConfig, ResilientClient
    from ..serving.supervisor import Supervisor, SupervisorConfig

    result = ProcessChaosResult(site=config.site, seed=config.seed)
    state_dir = os.path.join(workdir, "state")
    events = _EventLog()
    supervisor = Supervisor(
        SupervisorConfig(
            serve_args=[
                "--state-dir", state_dir,
                "--objects", str(config.objects),
                "--replicas", "0",
                "--seed", str(config.seed),
                "--fsync",
                "--checkpoint-interval", str(config.checkpoint_interval),
            ],
            probe_interval=0.1,
            startup_deadline=config.startup_deadline,
            backoff_initial=0.1,
            backoff_max=1.0,
            seed=config.seed,
            arm_crashpoint=config.site,
            arm_after=config.arm_after,
            arm_torn=config.arm_torn,
            python=config.python,
        ),
        out=events,
    )
    supervisor.start()
    client = None
    try:
        if not supervisor.wait_ready(config.startup_deadline):
            # an eagerly-armed site (e.g. checkpoint at boot with
            # after=0) can kill the child before first readiness; the
            # disarmed restart must still come up
            if not supervisor.wait_ready(config.recover_deadline):
                result.violations.append(
                    "supervised child never became ready"
                )
                return result
        port = supervisor.port
        client = ResilientClient(
            [("127.0.0.1", int(port))],
            ClientConfig(max_attempts=12, backoff_cap=1.0, seed=config.seed),
        )
        rng = random.Random(config.seed)
        _drive_until_crash(config, supervisor, client, rng, result)
        _drive_after_restart(config, supervisor, client, rng, result)
    finally:
        baseline = dict(client.stats) if client is not None else {}
        if client is not None:
            client.close()
        supervisor.request_stop()
        supervisor.join(30.0)
        result.stats.update(
            restarts=supervisor.restarts,
            client_generation=client.generation if client else 0,
            max_acked_lsn=client.max_acked_lsn if client else 0,
            acked_reports=client.acked_reports if client else 0,
            retries=baseline.get("retries", 0),
        )
        result.events = list(events.lines)
    _check_oracles(config, state_dir, client, supervisor, result)
    result.ok = not result.violations
    return result


def _tick(client, rng, tnow: List[int], config) -> int:
    """A few reports then an advance; returns acked ops this tick."""
    acked = 0
    for _ in range(4):
        oid = rng.randrange(config.objects)
        try:
            frame = client.report(
                oid,
                rng.uniform(10.0, 990.0),
                rng.uniform(10.0, 990.0),
                rng.uniform(-1.0, 1.0),
                rng.uniform(-1.0, 1.0),
            )
            if frame.get("accepted"):
                acked += 1
        except (ClientError, ServingError, OSError):
            pass  # mid-outage: the retry budget ran dry; keep driving
    tnow[0] += 1
    try:
        client.advance(tnow[0])
        acked += 1
    except (ClientError, ServingError, OSError):
        pass
    return acked


def _drive_until_crash(config, supervisor, client, rng, result) -> None:
    """Push traffic until the armed child dies (restarts goes 0 -> 1)."""
    # the server warmed itself to tnow=2 at boot; advance from above it
    tnow = [16]  # far enough ahead that every advance is a real tick
    try:
        health = client.health()
        tnow = [int(health.get("tnow", 2)) + 1]
    except (ClientError, ServingError, OSError):
        pass
    deadline = time.monotonic() + config.crash_deadline
    ops = 0
    while supervisor.restarts == 0 and time.monotonic() < deadline:
        ops += _tick(client, rng, tnow, config)
    result.stats["ops_before_crash"] = ops
    result.stats["tnow_reached"] = tnow[0]
    if supervisor.restarts == 0:
        result.violations.append(
            f"crashpoint {config.site!r} never fired within "
            f"{config.crash_deadline:.0f}s ({ops} acked ops driven) — "
            "the site is no longer on the workload's code path"
        )
    result.stats["acked_lsn_at_crash"] = client.max_acked_lsn


def _drive_after_restart(config, supervisor, client, rng, result) -> None:
    """Ride out the restart: demand acked writes from the new process."""
    if result.violations:
        return
    if not supervisor.wait_ready(config.recover_deadline):
        result.violations.append(
            f"restarted process not ready within {config.recover_deadline:.0f}s"
        )
        return
    tnow = [result.stats.get("tnow_reached", 20) + 1]
    try:
        health = client.health()
        tnow = [int(health.get("tnow", tnow[0])) + 1]
    except (ClientError, ServingError, OSError):
        pass
    deadline = time.monotonic() + config.recover_deadline
    acked = 0
    while acked < config.post_restart_ops and time.monotonic() < deadline:
        acked += _tick(client, rng, tnow, config)
    result.stats["ops_after_restart"] = acked
    if acked < config.post_restart_ops:
        result.violations.append(
            f"only {acked}/{config.post_restart_ops} acked ops against the "
            "restarted process — the client never rode out the restart"
        )
    if client.generation < 1:
        result.violations.append(
            "client never observed a recovery-generation bump across the "
            "restart"
        )


def _check_oracles(config, state_dir, client, supervisor, result) -> None:
    """Interrogate the on-disk state a fresh process would recover."""
    from ..core.system import PDRServer
    from .integrity import verify_state_dir
    from .recovery import load_latest_checkpoint, records_from_lsn

    if not os.path.isdir(state_dir):
        result.violations.append(f"state dir {state_dir!r} missing at verdict")
        return

    # clean-or-quarantined: the matrix's manufactured damage must have
    # been truncated/quarantined by the restart, never left live
    report = verify_state_dir(state_dir)
    for status in report.damaged():
        result.violations.append(
            f"verify: {status.state} {status.name} survived recovery "
            f"({status.detail})"
        )
    for expected, found in report.gaps:
        result.violations.append(
            f"verify: LSN gap (expected {expected}, found {found})"
        )

    # contiguous LSN chain from the newest durable checkpoint
    loaded = load_latest_checkpoint(state_dir)
    base_lsn = int(loaded[1]["lsn"]) if loaded is not None else 0
    try:
        replayed = sum(1 for _ in records_from_lsn(state_dir, base_lsn))
        result.stats["replayable_records"] = replayed
    except ReproError as exc:
        result.violations.append(f"lsn-chain: {exc}")

    # zero acked-write loss, judged by an actual in-process recovery
    acked = client.max_acked_lsn if client is not None else 0
    try:
        server = PDRServer.recover(state_dir)
        try:
            durable = int(server.wal_lsn or 0)
        finally:
            server.close()
        result.stats["recovered_lsn"] = durable
        if durable < acked:
            result.violations.append(
                f"acked-write loss: client saw lsn {acked} acknowledged, "
                f"recovery reached only {durable}"
            )
    except ReproError as exc:
        result.violations.append(f"recovery failed at verdict: {exc}")

    if supervisor.restarts < 1:
        # redundant with the drive phase, but cheap and explicit
        result.violations.append("no supervised restart was observed")
