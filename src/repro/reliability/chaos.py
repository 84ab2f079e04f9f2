"""Seeded chaos simulation for the replicated PDR serving stack.

The fault matrix of :mod:`tests.test_replication` exercises hand-picked
failure sites one at a time; real outages are *interleavings* — a
partition during a checkpoint, bit rot discovered mid-failover.  A
:class:`ChaosScheduler` drives a full primary+replicas stack
(:class:`~repro.reliability.replication.ReplicationGroup` over a durable
:class:`~repro.core.system.PDRServer`) through a randomized but fully
seeded schedule of events:

======================  ================================================
``report``/``retire``   accepted writes through the group (WAL-shipped)
``advance``             clock ticks (drive checkpoints + rotation)
``query``               reads through the staleness-aware router
``partition``/``heal``  link partitions and their repair
``lag``/``drop``        delivery lag and packet loss on one link
``crash_primary``       primary death -> failover -> replacement joins
``crash_replica``       replica death -> fresh replica bootstraps
``flip_wal``            one byte of a WAL segment XOR-flipped on disk
``flip_ckpt``           one byte of a checkpoint image XOR-flipped
======================  ================================================

With ``ChaosConfig.network`` the same seeded schedule runs *through the
wire*: the group is mounted behind a
:class:`~repro.serving.server.PDRTCPServer` (on its own thread), a
:class:`~repro.serving.netchaos.ChaosProxy` sits in front, and every
``report``/``retire``/``advance``/``query`` event travels through a
seeded :class:`~repro.serving.client.ResilientClient`.  Four extra event
kinds arm socket-level faults on the proxy (consumed by the next
connection, which the client is forced to open):

======================  ================================================
``net_reset``           hard-RST the client right after the server's
                        response — the ack is durable, the client never
                        hears it
``net_truncate``        the next response frame is cut mid-body
``net_slowloris``       the next request dribbles in 2-byte sips; the
                        server's read timeout must cut it loose
``net_stall``           the proxy stops accepting for a window
======================  ================================================

Direct group manipulation (partitions, crashes, flips) and every oracle
sweep run on the server's single backend thread via
:meth:`~repro.serving.server.ServerThread.call`, preserving the
serialization discipline.  Network mode keeps all six oracles and adds
two wire invariants:

7. *no acked wire loss*: every LSN the server acknowledged **to the
   client** — across resets, truncations and failovers — is covered by
   the acting primary's durable WAL;
8. *shed retry hints*: every ``shed``/``draining`` error frame the
   client ever saw carried ``retry_after`` (the client counts absences).

To make sheds actually happen (and stop happening) deterministically,
network campaigns give the group an admission controller on its virtual
clock and tick that clock a fixed amount per event — token refill is a
pure function of the event index, not of wall time.

With ``ChaosConfig.resources`` the group runs under a live
:class:`~repro.reliability.resources.ResourceManager` (``fsync`` on, so
the ``wal_fsync`` site is reachable; ``checkpoint_interval=0``, so every
checkpoint flows through the soft-watermark path) and four more event
kinds attack the resource envelope:

======================  ================================================
``disk_shrink``         clamp the disk budget around current usage —
                        severe fractions drop the *hard* watermark below
                        usage (forcing read-only), mild ones squeeze the
                        *soft* watermark (forcing checkpoint-then-prune)
``disk_restore``        lift the budget limits (disk "freed")
``wal_fault``           arm one ENOSPC / EIO / short-write at the
                        ``wal_write`` or ``wal_fsync`` site — the next
                        append poisons that WAL descriptor
``ckpt_fault``          arm one ENOSPC / EIO at ``checkpoint_write``
======================  ================================================

Writes refused while degraded (``ReadOnlyError`` / ``WALWriteError``)
are counted, never treated as campaign failures — nothing refused was
ever acknowledged.  After *every* event the scheduler reconciles the
resource manager with the budget, and two more oracles run:

9.  *no acked-write loss under resource faults* — oracle 1, now spanning
    ENOSPC/EIO poisoning, fresh-segment reopens and retention pruning;
10. *read-only monotonicity*: after reconcile the primary is read-only
    **iff** the budget sits at its hard watermark (or the WAL reopen
    itself is still failing) — degraded mode neither lags the budget nor
    lingers after it recovers, and the server never crashes.

Bit-flips go through :func:`~repro.reliability.integrity.flip_byte`,
which hits the ``integrity.flip`` fault site of the shared
:class:`~repro.reliability.faults.FaultInjector` (whose counters are
:meth:`~repro.reliability.faults.FaultInjector.reset_counters`-ed
between episodes), and are healed by
:meth:`~repro.reliability.replication.ReplicationGroup.anti_entropy`.

After every recovery (crash, failover, repair) — and periodically in
between — the **invariant oracles** run:

1. *no acked-write loss*: the acting primary's WAL position covers every
   acknowledged LSN;
2. *replica convergence*: after catch-up, every replica's histogram
   counters and Chebyshev coefficients are bit-exact with the primary's;
3. *answer correctness*: the primary's FR answer equals the brute-force
   oracle's, region set for region set;
4. *structural audit*: table / tree / histogram / PA cross-checks clean;
5. *staleness*: a replica that served a read was within the bound;
6. *durable integrity*: the state directory checksum-verifies clean.

Everything is deterministic given the seed: the schedule is generated up
front by one ``random.Random(seed)``, execution consults no randomness
and no wall clock, so a failing run replays exactly.  On failure the
scheduler greedily shrinks the schedule (ddmin-style) to a minimal
reproducer and prints it with its seed.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..baselines.bruteforce import bruteforce_from_motions
from ..core.config import SystemConfig
from ..core.errors import (
    FailoverError,
    QueryError,
    ReadOnlyError,
    ReproError,
    StalenessExceededError,
    WALWriteError,
)
from ..core.geometry import Rect
from ..telemetry import instruments as tm
from .faults import FaultInjector
from .integrity import flip_byte, verify_state_dir
from .replication import ReplicationConfig, ReplicationGroup
from .statedir import kind_of
from .validation import ReliabilityConfig, ResourceConfig

__all__ = [
    "ChaosConfig",
    "ChaosFailure",
    "ChaosResult",
    "ChaosScheduler",
    "ddmin",
]

# One event is a plain tuple ``(kind, *params)`` — JSON-serialisable so a
# shrunk reproducer can be printed, stored as a CI artifact and replayed.
Event = Tuple


@dataclass
class ChaosConfig:
    """Knobs of one chaos campaign (all defaults are CI-sized)."""

    seed: int = 0
    events: int = 200
    replicas: int = 2
    objects: int = 24
    staleness_bound: int = 0
    checkpoint_interval: int = 20
    min_disruptions: int = 3  # scheduled crashes + bit-flips, at minimum
    oracle_every: int = 25  # full oracle sweep cadence (events)
    shrink: bool = True
    max_shrink_runs: int = 120
    # --- network mode: run the schedule through TCP + a chaos proxy ---
    network: bool = False
    min_net_disruptions: int = 4  # socket faults forced into the schedule
    net_admission_rate: float = 25.0  # tokens/s on the group's virtual clock
    net_admission_burst: float = 4.0  # tight: query bursts must shed
    net_clock_tick: float = 0.02  # virtual seconds ticked per event
    # --- resource mode: disk budgets, WAL write faults, read-only mode ---
    resources: bool = False
    min_resource_disruptions: int = 4  # budget/write faults forced in

    def weights(self) -> List[Tuple[str, float]]:
        base = [
            ("report", 42.0),
            ("advance", 18.0),
            ("retire", 4.0),
            ("query", 12.0),
            ("partition", 3.0),
            ("heal", 4.0),
            ("lag", 3.0),
            ("drop", 3.0),
            ("crash_primary", 2.0),
            ("crash_replica", 2.0),
            ("flip_wal", 4.0),
            ("flip_ckpt", 3.0),
        ]
        if self.network:
            base += [
                ("net_reset", 3.0),
                ("net_truncate", 2.0),
                ("net_slowloris", 1.0),
                ("net_stall", 1.0),
            ]
        if self.resources:
            base += [
                ("disk_shrink", 3.0),
                ("disk_restore", 3.0),
                ("wal_fault", 2.0),
                ("ckpt_fault", 2.0),
            ]
        return base


DISRUPTIONS = ("crash_primary", "crash_replica", "flip_wal", "flip_ckpt")
NET_DISRUPTIONS = ("net_reset", "net_truncate", "net_slowloris", "net_stall")
RESOURCE_DISRUPTIONS = ("disk_shrink", "disk_restore", "wal_fault", "ckpt_fault")


@dataclass
class ChaosFailure:
    """One oracle violation, pinned to the event that exposed it."""

    event_index: int
    event: Event
    oracle: str
    message: str

    def to_dict(self) -> dict:
        return {
            "event_index": self.event_index,
            "event": list(self.event),
            "oracle": self.oracle,
            "message": self.message,
        }


@dataclass
class ChaosResult:
    """Outcome of a chaos campaign (and, on failure, its reproducer)."""

    ok: bool
    seed: int
    events_run: int
    stats: dict = field(default_factory=dict)
    failure: Optional[ChaosFailure] = None
    reproducer: Optional[List[Event]] = None
    final_state_dir: Optional[str] = None

    def format_reproducer(self) -> str:
        if self.failure is None:
            return "no failure to reproduce"
        lines = [
            f"chaos failure (seed {self.seed}): oracle {self.failure.oracle!r} "
            f"— {self.failure.message}",
            f"minimal reproducer ({len(self.reproducer or [])} events):",
        ]
        for event in self.reproducer or []:
            lines.append(f"  {json.dumps(list(event))}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "seed": self.seed,
            "events_run": self.events_run,
            "stats": self.stats,
            "failure": self.failure.to_dict() if self.failure else None,
            "reproducer": [list(e) for e in self.reproducer] if self.reproducer else None,
        }


def ddmin(events: List[Event], fails: Callable[[List[Event]], bool],
          max_runs: int = 120) -> List[Event]:
    """Greedy delta-debugging: a minimal-ish sublist on which ``fails``
    still holds.  ``fails(events)`` must be True on entry.  Classic ddmin
    chunk-removal with a run budget (each probe re-executes a schedule)."""
    runs = 0
    granularity = 2
    while len(events) >= 2 and runs < max_runs:
        chunk = max(1, len(events) // granularity)
        reduced = False
        start = 0
        while start < len(events) and runs < max_runs:
            candidate = events[:start] + events[start + chunk:]
            runs += 1
            if candidate and fails(candidate):
                events = candidate
                reduced = True
                # keep the same granularity relative to the smaller list
                granularity = max(2, granularity - 1)
            else:
                start += chunk
        if not reduced:
            if granularity >= len(events):
                break
            granularity = min(len(events), granularity * 2)
    return events


class _NetworkHarness:
    """Front door + chaos proxy + resilient client around one group.

    All timeouts are campaign-sized (short): a slow-loris request must be
    cut loose in half a second, not thirty.  The client is seeded from
    the campaign seed so its jitter replays.
    """

    def __init__(self, group, seed: int) -> None:
        # imported lazily: chaos stays importable without the serving
        # extras ever having been touched, and there is no cycle
        from ..serving.client import ClientConfig, ResilientClient
        from ..serving.netchaos import ChaosProxy
        from ..serving.server import ServerThread, ServingConfig

        self.thread = ServerThread(group, ServingConfig(
            read_timeout=0.5, write_timeout=2.0, drain_deadline=1.0,
        )).start()
        self.proxy = ChaosProxy(self.thread.address)
        self.client = ResilientClient([self.proxy.address], ClientConfig(
            connect_timeout=0.5, request_timeout=1.5, max_attempts=6,
            backoff_base=0.01, backoff_cap=0.15, retry_after_cap=0.25,
            seed=seed, breaker_threshold=5, breaker_probation_seconds=0.2,
        ))

    def call(self, fn, *args, **kwargs):
        """Run ``fn`` on the server's single backend thread; blocks."""
        return self.thread.call(fn, *args, **kwargs)

    def close(self) -> None:
        self.client.close()
        self.proxy.close()
        self.thread.stop()


class ChaosScheduler:
    """Generate, execute, oracle-check and shrink seeded chaos schedules.

    ``workdir`` hosts one state directory per execution (run ``i`` under
    ``run-<i>/state``); the caller owns its lifetime.  The injector —
    with its virtual clock — is shared across executions so the
    ``integrity.flip`` hit counter is an honest per-campaign tally;
    :meth:`~repro.reliability.faults.FaultInjector.reset_counters`
    separates the episodes.
    """

    def __init__(self, config: ChaosConfig, workdir: str) -> None:
        self.config = config
        self.workdir = workdir
        self.faults = FaultInjector()
        self._run_counter = 0

    # ------------------------------------------------------------------
    # schedule generation (pure function of the seed)
    # ------------------------------------------------------------------
    def build_schedule(self) -> List[Event]:
        cfg = self.config
        rng = random.Random(cfg.seed)
        kinds = [k for k, _ in cfg.weights()]
        weights = [w for _, w in cfg.weights()]
        events: List[Event] = []
        for _ in range(cfg.events):
            kind = rng.choices(kinds, weights=weights, k=1)[0]
            events.append(self._make_event(kind, rng))
        # guarantee the campaign actually disrupts: force-replace benign
        # events (deterministically) until enough crashes/flips exist
        have = sum(1 for e in events if e[0] in DISRUPTIONS)
        while have < cfg.min_disruptions and events:
            idx = rng.randrange(len(events))
            if events[idx][0] in DISRUPTIONS:
                continue
            kind = rng.choice(DISRUPTIONS)
            events[idx] = self._make_event(kind, rng)
            have += 1
        if cfg.network:  # and actually exercises the wire fault matrix
            have_net = sum(1 for e in events if e[0] in NET_DISRUPTIONS)
            while have_net < cfg.min_net_disruptions and events:
                idx = rng.randrange(len(events))
                if events[idx][0] in DISRUPTIONS + NET_DISRUPTIONS:
                    continue
                kind = rng.choice(NET_DISRUPTIONS)
                events[idx] = self._make_event(kind, rng)
                have_net += 1
        if cfg.resources:  # and actually exhausts some resources
            protected = DISRUPTIONS + NET_DISRUPTIONS + RESOURCE_DISRUPTIONS
            have_res = sum(1 for e in events if e[0] in RESOURCE_DISRUPTIONS)
            while have_res < cfg.min_resource_disruptions and events:
                idx = rng.randrange(len(events))
                if events[idx][0] in protected:
                    continue
                kind = rng.choice(RESOURCE_DISRUPTIONS)
                events[idx] = self._make_event(kind, rng)
                have_res += 1
        return events

    def _make_event(self, kind: str, rng: random.Random) -> Event:
        cfg = self.config
        if kind == "report":
            return (
                "report",
                rng.randrange(cfg.objects),
                round(rng.uniform(2.0, 98.0), 3),
                round(rng.uniform(2.0, 98.0), 3),
                round(rng.uniform(-1.5, 1.5), 3),
                round(rng.uniform(-1.5, 1.5), 3),
            )
        if kind == "advance":
            return ("advance",)
        if kind == "retire":
            return ("retire", rng.randrange(cfg.objects))
        if kind == "query":
            return ("query", rng.choice(["fr", "pa", "dh-optimistic"]),
                    rng.randrange(0, 4))
        if kind in ("partition", "heal", "crash_replica"):
            return (kind, rng.random())
        if kind == "lag":
            return ("lag", rng.random(), rng.randrange(0, 12))
        if kind == "drop":
            return ("drop", rng.random(), rng.randrange(1, 4))
        if kind == "crash_primary":
            return ("crash_primary",)
        if kind in ("flip_wal", "flip_ckpt"):
            # fractions resolve to a concrete file/offset at execution
            # time, so the event stays meaningful under shrinking
            return (kind, rng.random(), rng.random(), rng.randrange(1, 256))
        if kind in ("net_reset", "net_truncate", "net_slowloris"):
            return (kind,)
        if kind == "net_stall":
            return ("net_stall", rng.randrange(1, 4))  # tenths of a second
        if kind == "disk_shrink":
            # the fraction resolves against the *current* usage at
            # execution time (severe < 0.5: hard watermark drops below
            # usage; mild >= 0.5: only the soft watermark is crossed)
            return ("disk_shrink", round(rng.random(), 3))
        if kind == "disk_restore":
            return ("disk_restore",)
        if kind == "wal_fault":
            mode = rng.choice(["enospc", "eio", "short"])
            site = "wal_write" if mode == "short" else rng.choice(
                ["wal_write", "wal_fsync"]
            )
            return ("wal_fault", site, mode)
        if kind == "ckpt_fault":
            return ("ckpt_fault", rng.choice(["enospc", "eio"]))
        raise ValueError(f"unknown chaos event kind {kind!r}")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _build_group(self, state_dir: str):
        from ..core.system import PDRServer

        cfg = self.config
        system = SystemConfig(
            domain=Rect(0.0, 0.0, 100.0, 100.0),
            max_update_interval=6,
            prediction_window=6,
            l=10.0,
            histogram_cells=20,
            polynomial_grid=5,
            polynomial_degree=4,
            evaluation_grid=64,
        )
        rc = ReliabilityConfig(
            state_dir=state_dir,
            # resource campaigns route EVERY checkpoint through the
            # soft-watermark path (which absorbs injected checkpoint
            # faults into read-only mode) instead of the interval timer,
            # and need real fsyncs for the fsyncgate poisoning rule
            checkpoint_interval=0 if cfg.resources else cfg.checkpoint_interval,
            fsync=bool(cfg.resources),
            faults=self.faults,
            resources=ResourceConfig() if cfg.resources else None,
        )
        primary = PDRServer(system, expected_objects=cfg.objects, reliability=rc)
        admission = None
        if cfg.network and cfg.net_admission_rate > 0:
            # the bucket runs on the primary's *virtual* clock, which
            # execute() ticks a fixed amount per event: refill — and so
            # the shed/admit pattern — is a function of the schedule
            from .admission import AdmissionConfig

            admission = AdmissionConfig(
                rate=cfg.net_admission_rate, burst=cfg.net_admission_burst,
            )
        return ReplicationGroup(
            primary,
            n_replicas=cfg.replicas,
            config=ReplicationConfig(staleness_bound=cfg.staleness_bound),
            admission=admission,
        )

    def execute(self, events: List[Event]) -> Tuple[Optional[ChaosFailure], dict, str]:
        """Run one episode from a fresh state directory.

        Returns ``(failure_or_None, stats, state_dir)``; the state
        directory is left on disk (the surviving evidence the acceptance
        scenario runs ``repro verify`` over).
        """
        self._run_counter += 1
        run_dir = os.path.join(self.workdir, f"run-{self._run_counter}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        state_dir = os.path.join(run_dir, "state")
        self.faults.clear()
        self.faults.reset_counters()
        group = self._build_group(state_dir)
        net: Optional[_NetworkHarness] = None
        if self.config.network:
            net = _NetworkHarness(group, self.config.seed)
        # direct access and oracle sweeps go through the server's single
        # backend thread in network mode — the one serialization point
        gcall = net.call if net is not None else (lambda fn, *a, **k: fn(*a, **k))
        stats = {"events": 0, "oracle_sweeps": 0, "failovers": 0,
                 "repairs": 0, "flips": 0, "replica_crashes": 0}
        if net is not None:
            stats["wire_failures"] = 0
        if self.config.resources:
            stats["refused_writes"] = 0
        max_acked = 0
        joined = 0
        failure: Optional[ChaosFailure] = None
        try:
            for index, event in enumerate(events):
                stats["events"] += 1
                stats[event[0]] = stats.get(event[0], 0) + 1
                oracle_due = False
                try:
                    oracle_due, joined = self._apply_event(
                        group, event, stats, joined, net=net
                    )
                    if net is not None and self.config.net_clock_tick > 0:
                        gcall(group.clock.sleep, self.config.net_clock_tick)
                    if self.config.resources:
                        # converge read-only with the budget after every
                        # event — the monotonicity the oracle then checks
                        gcall(self._reconcile_resources, group)
                except (ReproError, AssertionError) as exc:
                    failure = ChaosFailure(
                        index, event, "no-unexpected-error",
                        f"{type(exc).__name__}: {exc}",
                    )
                    break
                max_acked = max(max_acked, gcall(lambda: group.acked_lsn))
                if oracle_due or (index + 1) % self.config.oracle_every == 0:
                    stats["oracle_sweeps"] += 1
                    verdict = self._check_oracles(group, max_acked, net=net)
                    if verdict is not None:
                        failure = ChaosFailure(index, event, *verdict)
                        break
            if failure is None:
                stats["oracle_sweeps"] += 1
                verdict = self._check_oracles(group, max_acked, net=net)
                if verdict is not None:
                    failure = ChaosFailure(
                        len(events) - 1, events[-1] if events else ("empty",),
                        *verdict,
                    )
        finally:
            stats["flips"] = self.faults.hits("integrity.flip")
            if net is not None:
                stats["wire"] = net.client.report_stats()
                stats["proxy"] = dict(net.proxy.stats)
                net.close()
            group.close()
        return failure, stats, state_dir

    def _apply_event(self, group, event: Event, stats: dict, joined: int,
                     net: Optional[_NetworkHarness] = None):
        """Execute one event; returns ``(oracle_due, joined)``.

        In network mode the workload ops travel through the resilient
        client; ``net_*`` events arm the proxy; everything else touches
        the group directly — on the server's backend thread.
        """
        kind = event[0]
        if net is not None:
            if kind in ("report", "retire", "advance", "query"):
                return self._apply_event_wire(group, event, stats, joined, net)
            if kind in NET_DISRUPTIONS:
                return self._apply_net_event(net, event, stats, joined)
            return net.call(
                self._apply_event_direct, group, event, stats, joined
            )
        return self._apply_event_direct(group, event, stats, joined)

    def _apply_event_wire(self, group, event: Event, stats: dict,
                          joined: int, net: _NetworkHarness):
        """One workload op through proxy + client, riding out wire faults.

        A retried op can double-apply (a reset arrives after the server
        committed): re-reports replace the same motion, double retires
        quarantine, a duplicated advance is one extra tick — all inside
        the chaos fault model, and every duplicate is WAL-logged, so the
        oracles hold regardless.
        """
        from ..core.errors import ServingError

        kind = event[0]
        try:
            if kind == "report":
                net.client.report(*event[1:])
            elif kind == "retire":
                net.client.retire(event[1])
            elif kind == "advance":
                t = net.call(lambda: group.tnow) + 1
                net.client.advance(to=t)  # explicit `to`: retries idempotent
            elif kind == "query":
                method, offset = event[1], event[2]
                frame = net.client.query(
                    method, qt_offset=offset, varrho=2.0, max_regions=8
                )
                net.call(self._assert_staleness, group, frame.get("served_by"))
        except ServingError:
            # sheds that never recovered, retries exhausted mid-fault,
            # truncated frames: tolerated losses — the client already
            # recorded what the oracles care about (acked LSNs, missing
            # retry_after hints)
            stats["wire_failures"] += 1
        if kind == "advance":
            # the contract (and the tick, if the wire ate it) must hold
            # whatever happened on the wire
            net.call(self._ensure_advanced, group, t)
        return False, joined

    def _ensure_advanced(self, group, t: int) -> None:
        if group.tnow < t:
            group.advance_to(t)
        self._honor_update_contract(group, group.tnow)

    def _apply_net_event(self, net: _NetworkHarness, event: Event,
                         stats: dict, joined: int):
        """Arm one socket fault; the client's next connection consumes it.

        The client pins one connection, so arming alone would never
        fire — it is told to reconnect, making fault consumption a
        deterministic property of the schedule, not of socket luck.
        """
        kind = event[0]
        if kind == "net_reset":
            net.proxy.reset_next()
        elif kind == "net_truncate":
            net.proxy.truncate_next()
        elif kind == "net_slowloris":
            net.proxy.slowloris_next(1, delay=0.06)
        elif kind == "net_stall":
            net.proxy.stall_accept(0.1 * event[1])
        net.client.reconnect()
        return False, joined

    def _apply_event_direct(self, group, event: Event, stats: dict, joined: int):
        if self.config.resources:
            # a resource campaign legitimately refuses writes: read-only
            # mode and poisoned-WAL errors are the behavior under test,
            # not unexpected failures (nothing refused was ever acked) —
            # the per-event reconcile converges state and the monotone
            # oracle checks it
            try:
                return self._apply_event_body(group, event, stats, joined)
            except (ReadOnlyError, WALWriteError):
                stats["refused_writes"] += 1
                return False, joined
        return self._apply_event_body(group, event, stats, joined)

    def _apply_event_body(self, group, event: Event, stats: dict, joined: int):
        kind = event[0]
        oracle_due = False
        if kind == "report":
            group.report(*event[1:])
        elif kind == "advance":
            t = group.tnow + 1
            group.advance_to(t)
            self._honor_update_contract(group, t)
        elif kind == "retire":
            group.retire(event[1])  # unknown oids quarantine; that is fine
        elif kind == "query":
            method, offset = event[1], event[2]
            try:
                result = group.query(method, qt=group.tnow + offset, varrho=2.0)
            except (StalenessExceededError, QueryError):
                pass  # partitions legitimately starve the router
            else:
                self._note_served(group, result)
        elif kind == "partition":
            replica = self._pick_replica(group, event[1])
            if replica is not None:
                replica.link.partitioned = True
        elif kind == "heal":
            replica = self._pick_replica(group, event[1])
            if replica is not None:
                replica.link.partitioned = False
                replica.link.lag_records = 0
                replica.catch_up(group.state_dir)
        elif kind == "lag":
            replica = self._pick_replica(group, event[1])
            if replica is not None:
                replica.link.lag_records = event[2]
        elif kind == "drop":
            replica = self._pick_replica(group, event[1])
            if replica is not None:
                replica.link.drop_next(event[2])
        elif kind == "crash_primary":
            group.mark_primary_dead()
            try:
                group.failover()
            except FailoverError:
                # heal the links and retry once: a fully partitioned group
                # must still fail over from the durable WAL
                for replica in group.replicas:
                    replica.link.partitioned = False
                group.failover()
            stats["failovers"] += 1
            joined += 1
            group.add_replica(f"joined-{joined}")  # a fresh node replaces it
            oracle_due = True
        elif kind == "crash_replica":
            if len(group.replicas) >= 2:
                victim = self._pick_replica(group, event[1])
                group.replicas.remove(victim)
                stats["replica_crashes"] += 1
                joined += 1
                group.add_replica(f"joined-{joined}")
                oracle_due = True
        elif kind in ("flip_wal", "flip_ckpt"):
            # stay inside the claimed fault model: bit rot is survivable
            # when the group is healthy, so let the replicas apply the
            # durable log *before* the only intact copy gets damaged
            # (they heal from the state dir directly, partitions or not)
            group.catch_up_replicas()
            if self._flip(group, event):
                report = group.anti_entropy()
                assert report.clean
                stats["repairs"] += 1
                oracle_due = True
        elif kind == "disk_shrink":
            self._apply_disk_shrink(group, event[1])
            oracle_due = True
        elif kind == "disk_restore":
            budget = group.primary.reliability.resources
            budget.soft_limit_bytes = None
            budget.hard_limit_bytes = None
            oracle_due = True
        elif kind == "wal_fault":
            _kind, site, mode = event
            if mode == "short":
                self.faults.inject_short_write(site, fraction=0.5)
            elif mode == "eio":
                self.faults.inject_eio(site)
            else:
                self.faults.inject_enospc(site)
        elif kind == "ckpt_fault":
            if event[1] == "eio":
                self.faults.inject_eio("checkpoint_write")
            else:
                self.faults.inject_enospc("checkpoint_write")
        else:
            raise ValueError(f"unknown chaos event kind {kind!r}")
        return oracle_due, joined

    def _apply_disk_shrink(self, group, fraction: float) -> None:
        """Resize the shared budget against the *current* usage.

        ``fraction < 0.5``: severe — the hard watermark lands below what
        is already on disk, so the server must enter read-only mode.
        ``fraction >= 0.5``: mild — only the soft watermark is crossed,
        driving the checkpoint-then-prune path on the next write.
        """
        from .resources import state_dir_usage

        budget = group.primary.reliability.resources
        usage = max(state_dir_usage(group.state_dir)[0], 4096)
        if fraction < 0.5:
            budget.hard_limit_bytes = max(1, int(usage * (0.4 + fraction)))
            budget.soft_limit_bytes = max(1, budget.hard_limit_bytes // 2)
        else:
            budget.soft_limit_bytes = max(1, int(usage * (fraction - 0.25)))
            budget.hard_limit_bytes = usage * 8

    def _reconcile_resources(self, group) -> None:
        manager = group.primary._manager
        if manager is not None and manager.resources is not None:
            manager.resources.reconcile(group.primary)

    def _honor_update_contract(self, group, t: int) -> None:
        """Re-report motions about to age out of the update window.

        The paper's model (Section 4) has every object report at least
        every U timestamps; the maintained structures assume it.  A
        random schedule cannot guarantee it, so the executor plays the
        part of the dutiful objects: after each tick, any motion at age
        >= U is refreshed at its predicted position (or retired, if it
        drifted off the domain) — through the full logged write path.
        """
        max_age = group.primary.config.max_update_interval
        domain = group.primary.config.domain
        stale = [
            m for m in group.primary.table.motions() if t - m.t_ref >= max_age
        ]
        for m in stale:
            x, y = m.position_at(t)
            if domain.contains_point(x, y):
                group.report(m.oid, x, y, m.vx, m.vy)
            else:
                group.retire(m.oid)

    def _pick_replica(self, group, fraction: float):
        if not group.replicas:
            return None
        return group.replicas[int(fraction * len(group.replicas)) % len(group.replicas)]

    def _flip(self, group, event: Event) -> bool:
        kind, f_file, f_offset, xor = event
        target = "wal" if kind == "flip_wal" else "checkpoint"
        names = sorted(
            n for n in os.listdir(group.state_dir) if kind_of(n) == target
        )
        candidates = [
            n for n in names
            if os.path.getsize(os.path.join(group.state_dir, n)) > 0
        ]
        if not candidates:
            return False
        name = candidates[int(f_file * len(candidates)) % len(candidates)]
        path = os.path.join(group.state_dir, name)
        flip_byte(path, int(f_offset * os.path.getsize(path)),
                  xor=xor, faults=self.faults)
        return True

    # ------------------------------------------------------------------
    # oracles
    # ------------------------------------------------------------------
    def _note_served(self, group, result) -> None:
        self._assert_staleness(group, result.served_by)

    def _assert_staleness(self, group, served) -> None:
        if served and served != group.primary_name:
            for replica in group.replicas:
                if replica.name == served:
                    lag = replica.lag(group.acked_lsn)
                    # recorded at serve time; checked by the router already,
                    # asserted here as the independent staleness oracle
                    if lag > group.replication.staleness_bound:
                        raise AssertionError(
                            f"staleness oracle: {served} served at lag {lag} "
                            f"> bound {group.replication.staleness_bound}"
                        )

    def _check_oracles(self, group, max_acked: int,
                       net: Optional[_NetworkHarness] = None,
                       ) -> Optional[Tuple[str, str]]:
        if net is not None:
            verdict = net.call(self._run_oracles, group, max_acked)
            if verdict is None:
                verdict = self._check_wire_oracles(group, net)
        else:
            verdict = self._run_oracles(group, max_acked)
        tm.CHAOS_ORACLES.labels("fail" if verdict is not None else "pass").inc()
        return verdict

    def _check_wire_oracles(self, group,
                            net: _NetworkHarness) -> Optional[Tuple[str, str]]:
        """The two network invariants, from the client's point of view."""
        wal = net.call(lambda: group.primary.wal_lsn or 0)
        if net.client.max_acked_lsn > wal:
            return (
                "no-acked-wire-loss",
                f"client holds ack for lsn {net.client.max_acked_lsn} but "
                f"the primary WAL stops at {wal}",
            )
        if net.client.sheds_missing_retry_after > 0:
            return (
                "shed-retry-after",
                f"{net.client.sheds_missing_retry_after} shed/draining "
                "frame(s) arrived without retry_after",
            )
        return None

    def _run_oracles(self, group, max_acked: int) -> Optional[Tuple[str, str]]:
        verdict = self._readonly_monotone(group)
        if verdict is not None:
            return verdict
        try:
            group.catch_up_replicas()
        except ReproError as exc:
            return ("replica-convergence", f"catch-up failed: {exc}")
        if (group.primary.wal_lsn or 0) < max_acked:
            return (
                "no-acked-write-loss",
                f"primary WAL at lsn {group.primary.wal_lsn} < acked {max_acked}",
            )
        violations = group.primary.audit(raise_on_violation=False)
        if violations:
            return ("structural-audit", "; ".join(violations))
        if len(group.primary.table) > 0:
            q = group.primary.make_query(qt=group.tnow, varrho=2.0)
            # the maintained structures answer only within the prediction
            # window; a chaos workload lets motions expire (no forced
            # re-report within U), so the oracle must share that filter —
            # exactly the one the structural audit cross-checks
            horizon = group.primary.config.horizon
            motions = group.primary.table.columns()
            in_window = motions.covering([q.qt], horizon)[:, 0]
            want = bruteforce_from_motions(
                motions.take(in_window), group.primary.config.domain, q
            )
            got = group.primary.evaluate("fr", q)
            diff = got.regions.symmetric_difference_area(want.regions)
            if diff > 1e-6:
                return (
                    "answer-vs-bruteforce",
                    f"FR answer diverged from the oracle by area {diff}",
                )
        for replica in group.replicas:
            if replica.lag(group.acked_lsn) != 0:
                return ("replica-convergence",
                        f"{replica.name} still lags after catch-up")
            if not np.array_equal(
                replica.server.pa.state_arrays()["coeffs"],
                group.primary.pa.state_arrays()["coeffs"],
            ) or not np.array_equal(
                replica.server.histogram.state_arrays()["counts"],
                group.primary.histogram.state_arrays()["counts"],
            ):
                return ("replica-convergence",
                        f"{replica.name} is not bit-exact with the primary")
        report = verify_state_dir(group.state_dir)
        if not report.clean:
            return ("durable-integrity", report.summary())
        return None

    def _readonly_monotone(self, group) -> Optional[Tuple[str, str]]:
        """Read-only mode must track the budget state after reconcile.

        Every event is followed by :meth:`_reconcile_resources`, so by
        oracle time the server must be read-only iff the disk budget is
        at its hard watermark (or the WAL is still poisoned because the
        reopen itself failed) — degraded mode may neither lag the budget
        nor linger after it recovers.
        """
        manager = getattr(group.primary, "_manager", None)
        if manager is None or manager.resources is None:
            return None
        res = manager.resources
        usage = res.usage()
        state = res.budget.state(usage)
        if state == "hard" and not group.primary.read_only:
            return (
                "readonly-monotone",
                f"disk budget hard at {usage} bytes but the primary "
                "still accepts writes",
            )
        if state != "hard" and not manager.wal_poisoned and group.primary.read_only:
            return (
                "readonly-monotone",
                f"disk budget {state} at {usage} bytes and the WAL is "
                "healthy, yet the primary is still read-only "
                f"({group.primary.read_only_reason})",
            )
        return None

    # ------------------------------------------------------------------
    # the campaign
    # ------------------------------------------------------------------
    def run(self) -> ChaosResult:
        """Generate, execute and — on failure — shrink one campaign."""
        events = self.build_schedule()
        failure, stats, state_dir = self.execute(events)
        if failure is None:
            return ChaosResult(
                ok=True, seed=self.config.seed, events_run=len(events),
                stats=stats, final_state_dir=state_dir,
            )
        reproducer = events
        if self.config.shrink:
            reproducer = self.shrink(events)
        return ChaosResult(
            ok=False, seed=self.config.seed, events_run=len(events),
            stats=stats, failure=failure, reproducer=reproducer,
            final_state_dir=state_dir,
        )

    def shrink(self, events: List[Event]) -> List[Event]:
        """ddmin the failing schedule down to a minimal reproducer."""

        def still_fails(candidate: List[Event]) -> bool:
            failure, _stats, _dir = self.execute(candidate)
            return failure is not None

        return ddmin(events, still_fails, max_runs=self.config.max_shrink_runs)
