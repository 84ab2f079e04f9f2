"""Seeded chaos: one scheduler, four fault planes, one oracle list.

Real outages are *interleavings* — a partition during a checkpoint, bit
rot discovered mid-failover, a SIGKILL between a checkpoint and its
manifest.  A :class:`ChaosScheduler` generates one randomized but fully
seeded schedule of events and runs it against a durable
:class:`~repro.core.system.PDRServer` on one of four fault planes:

==============  ========================================================
plane           what carries the schedule, and what it adds
==============  ========================================================
in-process      a :class:`~repro.reliability.replication.ReplicationGroup`
                driven directly: ``report``/``retire``/``advance``/
                ``query`` writes and reads, ``partition``/``heal``/
                ``lag``/``drop`` on replica links, ``crash_primary``
                (failover + a fresh replica), ``crash_replica``,
                ``flip_wal``/``flip_ckpt`` (one byte XOR-flipped on disk,
                healed by anti-entropy)
socket          ``network``: the group behind a
                :class:`~repro.serving.server.PDRTCPServer` and a
                :class:`~repro.serving.netchaos.ChaosProxy`; workload
                events travel through a seeded
                :class:`~repro.serving.client.ResilientClient`, and
                ``net_reset``/``net_truncate``/``net_slowloris``/
                ``net_stall`` arm socket faults (an admission bucket on
                the group's virtual clock makes sheds deterministic)
resource        ``resources``: a live disk budget, fsync on;
                ``disk_shrink``/``disk_restore`` move the watermarks,
                ``wal_fault``/``ckpt_fault`` arm ENOSPC/EIO/short writes.
                Refused writes are counted, never failures
process         ``crashpoint``: a supervised ``repro serve`` child with
                a hard crash armed at that site
                (:meth:`~repro.reliability.faults.FaultInjector.from_env`);
                the schedule's workload events go
                over the wire until the child SIGKILLs itself, the
                supervisor restarts it, and the client rides it out
==============  ========================================================

The socket and resource planes combine; the process plane runs alone.

**The live sweep** runs on the group after every recovery and every
``ORACLE_EVERY`` events (in-process, socket and resource planes):
read-only monotonicity (read-only iff the budget sits at its hard
watermark or the WAL reopen still fails), replica convergence (bit-exact
histogram and coefficients after catch-up), staleness of every replica
read, and the server oracles below on the live primary plus
``verify_state_dir``.  The socket plane adds *no acked wire loss* (the
client's acked LSN is in the primary's WAL) and *shed retry hints*.

**The durable oracles** (:func:`durable_verdict`) end every episode on
every plane, against the state directory it left:

1. ``durable-integrity`` — ``verify_state_dir(...).clean`` (checksums and
   the LSN chain);
2. ``no-acked-write-loss`` — ``PDRServer.recover`` succeeds and reaches
   every acked LSN;
3. ``structural-audit`` — the recovered server's ``audit()`` is empty;
4. ``answer-vs-bruteforce`` — its FR answer at ``tnow`` equals the
   ``bruteforce`` method's (over the motions whose prediction window covers
   ``tnow``).

The process plane adds three liveness checks, read from the supervisor's
``supervise.*`` records in ``<state>/journal``: the armed child died by
SIGKILL, there was exactly one restart, and the client saw the recovery
generation bump and got acked writes after it.

Everything but the process plane is deterministic given the seed: the
schedule is generated up front by one ``random.Random(seed)`` and
execution consults no randomness and no wall clock, so on failure the
scheduler ddmin-shrinks the schedule to a minimal reproducer.  The
process plane's kill lands where the OS schedules it, so a rerun is its
only reproducer and it never shrinks.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..core.config import SystemConfig
from ..core.errors import (
    FailoverError,
    InvalidParameterError,
    QueryError,
    ReadOnlyError,
    ReproError,
    ServingError,
    StalenessExceededError,
    WALWriteError,
)
from ..core.geometry import Rect
from ..telemetry import instruments as tm
from .faults import CRASH_SITES, KILL_EXIT_CODE, FaultInjector
from .integrity import flip_byte, verify_state_dir
from .replication import ReplicationGroup
from .statedir import kind_of
from .validation import ReliabilityConfig

__all__ = [
    "ChaosConfig",
    "ChaosFailure",
    "ChaosResult",
    "ChaosScheduler",
    "ddmin",
    "durable_verdict",
]

# One event is a plain tuple ``(kind, *params)`` — JSON-serialisable so a
# shrunk reproducer can be printed, stored as a CI artifact and replayed.
Event = Tuple
Verdict = Optional[Tuple[str, str]]  # (oracle name, message) or None

REPLICAS = 2  # replicas behind the primary
OBJECTS = 24  # moving-object id space of the workload
STALENESS_BOUND = 0  # LSN lag at which a replica may serve reads
MIN_DISRUPTIONS = 3  # scheduled crashes + bit-flips, at minimum
CHECKPOINT_INTERVAL = 20  # ticks between checkpoints (in-process plane)
ORACLE_EVERY = 25  # live sweep cadence, in events
MAX_SHRINK_RUNS = 120  # ddmin re-executions per failing campaign
MIN_NET_DISRUPTIONS = 4  # socket faults forced into a network schedule
NET_ADMISSION_RATE = 25.0  # tokens/s on the group's virtual clock
NET_ADMISSION_BURST = 4.0  # tight: query bursts must shed
NET_CLOCK_TICK = 0.02  # virtual seconds ticked per event
MIN_RESOURCE_DISRUPTIONS = 4  # budget/write faults forced in
PROCESS_CHECKPOINT_INTERVAL = 2  # every checkpoint site on the path
POST_RESTART_OPS = 8  # acked writes demanded of the restarted child
CRASH_DEADLINE = 60.0  # seconds for the armed kill to happen
RECOVER_DEADLINE = 60.0  # seconds for the restart to go ready

DISRUPTIONS = ("crash_primary", "crash_replica", "flip_wal", "flip_ckpt")
NET_DISRUPTIONS = ("net_reset", "net_truncate", "net_slowloris", "net_stall")
RESOURCE_DISRUPTIONS = ("disk_shrink", "disk_restore", "wal_fault", "ckpt_fault")
WORKLOAD = ("report", "retire", "advance", "query")


@dataclass
class ChaosConfig:
    """One chaos campaign (all defaults are CI-sized).

    Every field means the same thing on every plane, except that the
    process plane never shrinks (its runs do not replay exactly); a plane
    that cannot honour a combination refuses it here, before anything
    runs.
    """

    seed: int = 0
    events: int = 200
    shrink: bool = True
    network: bool = False  # the socket plane
    resources: bool = False  # the resource plane
    crashpoint: Optional[str] = None  # the process plane, killed here

    def __post_init__(self) -> None:
        if self.crashpoint is None:
            return
        if self.crashpoint not in CRASH_SITES:
            raise InvalidParameterError(
                f"crashpoint {self.crashpoint!r} is not on the process "
                f"plane; sites: {', '.join(CRASH_SITES)}"
            )
        if self.network or self.resources:
            raise InvalidParameterError(
                "the process plane runs alone: drop --network/--resources"
            )

    @property
    def arm_after(self) -> int:
        """Seed-derived crashpoint hits to skip, so seeds die at different
        depths: WAL sites fire per record, checkpoint-cycle sites once per
        checkpoint, so their skip stays small enough to be reached."""
        if self.crashpoint in ("wal.append", "wal_write", "wal_fsync"):
            return 3 + (self.seed % 7)
        return self.seed % 2

    @property
    def arm_torn(self) -> Optional[float]:
        """Seed-derived torn fraction for the mid-write site."""
        if self.crashpoint != "wal_write":
            return None
        return (1 + self.seed % 4) / 5.0  # 0.2, 0.4, 0.6, 0.8

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
    rerun: str = ""

    def format_reproducer(self) -> str:
        if self.failure is None:
            return "no failure to reproduce"
        lines = [
            f"chaos failure (seed {self.seed}): oracle {self.failure.oracle!r} "
            f"— {self.failure.message}",
        ]
        if self.rerun:
            lines.append(f"rerun: {self.rerun}")
        if self.reproducer is not None:
            lines.append(f"minimal reproducer ({len(self.reproducer)} events):")
            lines += [f"  {json.dumps(list(event))}" for event in self.reproducer]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "seed": self.seed,
            "events_run": self.events_run,
            "stats": self.stats,
            "failure": self.failure.to_dict() if self.failure else None,
            "reproducer": [list(e) for e in self.reproducer] if self.reproducer else None,
            "rerun": self.rerun,
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


# ----------------------------------------------------------------------
# the oracles
# ----------------------------------------------------------------------
def server_verdict(server, acked_lsn: int) -> Verdict:
    """The server oracles: acked LSNs logged, audit clean, FR == brute force."""
    if (server.wal_lsn or 0) < acked_lsn:
        return ("no-acked-write-loss",
                f"WAL at lsn {server.wal_lsn} < acked {acked_lsn}")
    violations = server.audit(raise_on_violation=False)
    if violations:
        return ("structural-audit", "; ".join(violations))
    if len(server.table) > 0:
        q = server.make_query(qt=server.tnow, varrho=2.0)
        # the oracle counts the motions whose prediction window covers qt,
        # as the maintained structures do
        want = server.evaluate("bruteforce", q)
        diff = server.evaluate("fr", q).regions.symmetric_difference_area(
            want.regions
        )
        if diff > 1e-6:
            return ("answer-vs-bruteforce",
                    f"FR answer diverged from the oracle by area {diff}")
    return None


def durable_verdict(state_dir: str, acked_lsn: int,
                    stats: Optional[dict] = None) -> Verdict:
    """The durable oracles every episode ends with, on the directory it
    left: integrity, then an actual recovery judged by the server oracles."""
    from ..core.system import PDRServer

    report = verify_state_dir(state_dir)
    if not report.clean:
        return ("durable-integrity", report.summary())
    try:
        server = PDRServer.recover(state_dir, audit=False)
    except ReproError as exc:
        return ("no-acked-write-loss", f"recovery failed: {exc}")
    try:
        if stats is not None:
            stats["recovered_lsn"] = int(server.wal_lsn or 0)
        return server_verdict(server, acked_lsn)
    finally:
        server.close()


def _counted(verdict: Verdict) -> Verdict:
    tm.CHAOS_ORACLES.labels("fail" if verdict is not None else "pass").inc()
    return verdict


def _await_ready(supervisor, timeout: float) -> bool:
    """Wait for a ready child; False at the deadline or once the
    supervisor gave up (a child refusing to boot is a crash loop)."""
    deadline = time.monotonic() + timeout
    while supervisor.exit_code is None and time.monotonic() < deadline:
        if supervisor.wait_ready(0.2):
            return True
    return False


def _send(client, event: Event, tnow: int) -> dict:
    """One workload event as one client request (``advance`` goes to an
    explicit ``tnow`` so a retried advance stays idempotent)."""
    kind = event[0]
    if kind == "report":
        return client.report(*event[1:])
    if kind == "retire":
        return client.retire(event[1])
    if kind == "advance":
        return client.advance(to=tnow)
    return client.query(event[1], qt_offset=event[2], varrho=2.0, max_regions=8)


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
        events: List[Event] = [
            self._make_event(rng.choices(kinds, weights=weights, k=1)[0], rng)
            for _ in range(cfg.events)
        ]
        # guarantee the campaign actually disrupts: force-replace benign
        # events (deterministically) until enough of each plane's faults
        # exist; a forced fault never overwrites an earlier plane's
        forced = [(DISRUPTIONS, MIN_DISRUPTIONS, DISRUPTIONS)]
        if cfg.network:
            forced.append((NET_DISRUPTIONS, MIN_NET_DISRUPTIONS,
                           DISRUPTIONS + NET_DISRUPTIONS))
        if cfg.resources:
            forced.append((RESOURCE_DISRUPTIONS, MIN_RESOURCE_DISRUPTIONS,
                           DISRUPTIONS + NET_DISRUPTIONS + RESOURCE_DISRUPTIONS))
        for plane, minimum, protected in forced:
            have = sum(1 for e in events if e[0] in plane)
            while have < minimum and events:
                idx = rng.randrange(len(events))
                if events[idx][0] in protected:
                    continue
                events[idx] = self._make_event(rng.choice(plane), rng)
                have += 1
        return events

    def _make_event(self, kind: str, rng: random.Random) -> Event:
        if kind == "report":
            return (
                "report",
                rng.randrange(OBJECTS),
                round(rng.uniform(2.0, 98.0), 3),
                round(rng.uniform(2.0, 98.0), 3),
                round(rng.uniform(-1.5, 1.5), 3),
                round(rng.uniform(-1.5, 1.5), 3),
            )
        if kind in ("advance", "crash_primary", "disk_restore") or kind in (
            "net_reset", "net_truncate", "net_slowloris"
        ):
            return (kind,)
        if kind == "retire":
            return ("retire", rng.randrange(OBJECTS))
        if kind == "query":
            return ("query", rng.choice(["fr", "pa", "dh-optimistic"]),
                    rng.randrange(0, 4))
        if kind in ("partition", "heal", "crash_replica"):
            return (kind, rng.random())
        if kind == "lag":
            return ("lag", rng.random(), rng.randrange(0, 12))
        if kind == "drop":
            return ("drop", rng.random(), rng.randrange(1, 4))
        if kind in ("flip_wal", "flip_ckpt"):
            # fractions resolve to a concrete file/offset at execution
            # time, so the event stays meaningful under shrinking
            return (kind, rng.random(), rng.random(), rng.randrange(1, 256))
        if kind == "net_stall":
            return ("net_stall", rng.randrange(1, 4))  # tenths of a second
        if kind == "disk_shrink":
            # the fraction resolves against the *current* usage at
            # execution time (severe < 0.5: hard watermark drops below
            # usage; mild >= 0.5: only the soft watermark is crossed)
            return ("disk_shrink", round(rng.random(), 3))
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
    def execute(self, events: List[Event]) -> Tuple[Optional[ChaosFailure], dict, str]:
        """Run one episode from a fresh state directory, on the configured
        plane, and end it with the durable oracles.

        Returns ``(failure_or_None, stats, state_dir)``; the state
        directory is left on disk as the surviving evidence.
        """
        self._run_counter += 1
        run_dir = os.path.join(self.workdir, f"run-{self._run_counter}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        state_dir = os.path.join(run_dir, "state")
        stats = {"events": 0}
        if self.config.crashpoint:
            failure, acked = self._execute_process(events, state_dir, stats)
        else:
            failure, acked = self._execute_group(events, state_dir, stats)
        if failure is None:
            verdict = _counted(durable_verdict(state_dir, acked, stats))
            if verdict is not None:
                failure = ChaosFailure(
                    len(events) - 1, events[-1] if events else ("empty",),
                    *verdict,
                )
        return failure, stats, state_dir

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
            checkpoint_interval=0 if cfg.resources else CHECKPOINT_INTERVAL,
            fsync=bool(cfg.resources),
            faults=self.faults,
        )
        primary = PDRServer(system, expected_objects=OBJECTS, reliability=rc)
        admission = None
        if cfg.network:
            # the bucket runs on the primary's *virtual* clock, which
            # execution ticks a fixed amount per event: refill — and so
            # the shed/admit pattern — is a function of the schedule
            from .admission import AdmissionConfig

            admission = AdmissionConfig(
                rate=NET_ADMISSION_RATE, burst=NET_ADMISSION_BURST,
            )
        return ReplicationGroup(
            primary,
            n_replicas=REPLICAS,
            staleness_bound=STALENESS_BOUND,
            admission=admission,
        )

    def _execute_group(self, events: List[Event], state_dir: str, stats: dict):
        """The in-process, socket and resource planes: one live group,
        swept by the live oracles.  Returns ``(failure, acked_lsn)``."""
        self.faults.clear()
        self.faults.reset_counters()
        group = self._build_group(state_dir)
        net: Optional[_NetworkHarness] = None
        if self.config.network:
            net = _NetworkHarness(group, self.config.seed)
        # direct access and oracle sweeps go through the server's single
        # backend thread in network mode — the one serialization point
        gcall = net.call if net is not None else (lambda fn, *a, **k: fn(*a, **k))
        stats.update(oracle_sweeps=0, failovers=0, repairs=0, flips=0,
                     replica_crashes=0)
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
                    if net is not None:
                        gcall(group.clock.sleep, NET_CLOCK_TICK)
                    if self.config.resources:
                        # converge read-only with the budget after every
                        # event — the monotonicity the oracle then checks
                        gcall(self._reconcile_resources, group)
                except (ReproError, AssertionError) as exc:
                    failure = ChaosFailure(index, event, *_counted((
                        "no-unexpected-error", f"{type(exc).__name__}: {exc}",
                    )))
                    break
                max_acked = max(max_acked, gcall(lambda: group.acked_lsn))
                if oracle_due or (index + 1) % ORACLE_EVERY == 0:
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
                max_acked = max(max_acked, net.client.max_acked_lsn)
                net.close()
            group.close()
        return failure, max_acked

    def _apply_event(self, group, event: Event, stats: dict, joined: int,
                     net: Optional[_NetworkHarness] = None):
        """Execute one event; returns ``(oracle_due, joined)``.

        In network mode the workload ops travel through the resilient
        client; ``net_*`` events arm the proxy; everything else touches
        the group directly — on the server's backend thread.
        """
        kind = event[0]
        if net is not None:
            if kind in WORKLOAD:
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
        kind = event[0]
        t = net.call(lambda: group.tnow) + 1 if kind == "advance" else 0
        try:
            frame = _send(net.client, event, t)
            if kind == "query":
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
                self._assert_staleness(group, result.served_by)
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
                self.faults.inject_eio("checkpoint.write")
            else:
                self.faults.inject_enospc("checkpoint.write")
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
        group.primary._manager.resources.reconcile(group.primary)

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
    # the live sweep
    # ------------------------------------------------------------------
    def _assert_staleness(self, group, served) -> None:
        if served and served != group.primary_name:
            for replica in group.replicas:
                if replica.name == served:
                    lag = replica.lag(group.acked_lsn)
                    # recorded at serve time; checked by the router already,
                    # asserted here as the independent staleness oracle
                    if lag > group.staleness_bound:
                        raise AssertionError(
                            f"staleness oracle: {served} served at lag {lag} "
                            f"> bound {group.staleness_bound}"
                        )

    def _check_oracles(self, group, max_acked: int,
                       net: Optional[_NetworkHarness] = None) -> Verdict:
        if net is None:
            return _counted(self._run_oracles(group, max_acked))
        verdict = net.call(self._run_oracles, group, max_acked)
        return _counted(verdict or self._check_wire_oracles(group, net))

    def _check_wire_oracles(self, group, net: _NetworkHarness) -> Verdict:
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

    def _run_oracles(self, group, max_acked: int) -> Verdict:
        verdict = self._readonly_monotone(group)
        if verdict is not None:
            return verdict
        try:
            group.catch_up_replicas()
        except ReproError as exc:
            return ("replica-convergence", f"catch-up failed: {exc}")
        verdict = server_verdict(group.primary, max_acked)
        if verdict is not None:
            return verdict
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

    def _readonly_monotone(self, group) -> Verdict:
        """Read-only mode must track the budget state after reconcile.

        Every event is followed by :meth:`_reconcile_resources`, so by
        oracle time the server must be read-only iff the disk budget is
        at its hard watermark (or the WAL is still poisoned because the
        reopen itself failed) — degraded mode may neither lag the budget
        nor linger after it recovers.
        """
        manager = group.primary._manager
        usage = manager.resources.usage()
        state = manager.resources.budget_state(usage)
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
    # the process plane
    # ------------------------------------------------------------------
    def _execute_process(self, events: List[Event], state_dir: str, stats: dict):
        """Boot a supervised ``repro serve`` child with the crashpoint
        armed, drive the schedule's workload over the wire until it dies
        and after its restart, then stop it.  Returns ``(failure,
        acked_lsn)``; the liveness evidence is the supervisor's journal."""
        from ..serving.client import ClientConfig, ResilientClient
        from ..serving.supervisor import (
            STARTUP_DEADLINE,
            Supervisor,
            SupervisorConfig,
        )
        from ..telemetry import read_journal

        cfg = self.config
        workload = [e for e in events if e[0] in WORKLOAD] or [("advance",)]
        supervisor = Supervisor(SupervisorConfig(
            serve_args=[
                "--state-dir", state_dir,
                "--objects", str(OBJECTS),
                "--replicas", str(REPLICAS),
                "--staleness", str(STALENESS_BOUND),
                "--seed", str(cfg.seed),
                "--fsync",
                "--checkpoint-interval", str(PROCESS_CHECKPOINT_INTERVAL),
            ],
            seed=cfg.seed,
            arm_crashpoint=cfg.crashpoint,
            arm_after=cfg.arm_after,
            arm_torn=cfg.arm_torn,
        ), out=io.StringIO()).start()
        client = None
        try:
            # a site armed at boot can kill the first child before it is
            # ever ready; the disarmed restart must still come up
            if not _await_ready(supervisor, STARTUP_DEADLINE + RECOVER_DEADLINE):
                message = ("supervised child never became ready "
                           f"(supervisor exit {supervisor.exit_code})")
            else:
                client = ResilientClient(
                    [("127.0.0.1", int(supervisor.port))],
                    ClientConfig(max_attempts=12, backoff_cap=1.0, seed=cfg.seed),
                )
                message = self._drive_process(workload, supervisor, client, stats)
        finally:
            if client is not None:
                stats["wire"] = client.report_stats()
                client.close()
            supervisor.request_stop()
            supervisor.join(30.0)
        # the supervisor arms only its first child, so the first exit in
        # its journal is the armed one's
        lineage = [r for r in read_journal(os.path.join(state_dir, "journal"))
                   if r["event"].startswith("supervise.")]
        stats["supervise"] = [r["event"] for r in lineage]
        stats["restarts"] = stats["supervise"].count("supervise.backoff")
        exits = [r.get("code") for r in lineage if r["event"] == "supervise.exit"]
        if message is None and exits[:1] != [KILL_EXIT_CODE]:
            message = (f"crashpoint {cfg.crashpoint!r} never killed the armed "
                       f"child (first supervise.exit codes: {exits[:1]})")
        if message is None and stats["restarts"] != 1:
            message = (f"{stats['restarts']} supervised restarts where the "
                       "armed kill demands exactly one")
        acked = max(stats.get("acked_lsn", 0),
                    client.max_acked_lsn if client is not None else 0)
        verdict = _counted(("process-liveness", message) if message else None)
        if verdict is None:
            return None, acked
        last = stats["events"] - 1
        return ChaosFailure(last, workload[last % len(workload)], *verdict), acked

    def _drive_process(self, workload: List[Event], supervisor, client,
                       stats: dict) -> Optional[str]:
        """Walk the workload (around again if the child has not died and
        come back yet); returns a liveness violation or None."""
        stats.update(wire_failures=0, acked_lsn=0, acked_after_restart=0)
        tnow = self._wire_tnow(client, 0)
        restarts = 0
        deadline = time.monotonic() + CRASH_DEADLINE
        while True:
            if supervisor.exit_code is not None:
                return (f"the supervisor gave up (exit {supervisor.exit_code}) "
                        "instead of restarting the child")
            if supervisor.restarts != restarts:
                restarts = supervisor.restarts
                if not _await_ready(supervisor, RECOVER_DEADLINE):
                    return ("restarted process never became ready "
                            f"(supervisor exit {supervisor.exit_code})")
                tnow = self._wire_tnow(client, tnow)
                deadline = time.monotonic() + RECOVER_DEADLINE
            index = stats["events"]
            if (index >= len(workload) and restarts
                    and stats["acked_after_restart"] >= POST_RESTART_OPS):
                break
            if time.monotonic() > deadline:
                if not restarts:
                    return (f"crashpoint {self.config.crashpoint!r} never "
                            f"fired within {CRASH_DEADLINE:.0f}s "
                            f"({index} events driven)")
                return (f"only {stats['acked_after_restart']}/"
                        f"{POST_RESTART_OPS} acked writes against the "
                        "restarted process")
            event = workload[index % len(workload)]
            stats["events"] += 1
            if event[0] == "advance":
                tnow += 1
            try:
                frame = _send(client, event, tnow)
            except (ServingError, OSError):
                stats["wire_failures"] += 1  # mid-outage: keep driving
                continue
            if event[0] == "query":
                continue
            # every write response carries the acked LSN (advances too,
            # which the client's own watermark leaves out)
            stats["acked_lsn"] = max(stats["acked_lsn"], int(frame.get("lsn", 0)))
            if event[0] == "advance":
                tnow = int(frame.get("tnow", tnow))
            if restarts and (event[0] == "advance" or frame.get("accepted")
                             or frame.get("retired")):
                stats["acked_after_restart"] += 1
        self._wire_tnow(client, tnow)  # refreshes the client's generation
        if client.generation < 1:
            return "client never observed a recovery-generation bump"
        return None

    @staticmethod
    def _wire_tnow(client, tnow: int) -> int:
        try:
            return max(tnow, int(client.health().get("tnow", tnow)))
        except (ServingError, OSError):
            return tnow

    # ------------------------------------------------------------------
    # the campaign
    # ------------------------------------------------------------------
    def run(self) -> ChaosResult:
        """Generate, execute and — on failure — shrink one campaign."""
        events = self.build_schedule()
        failure, stats, state_dir = self.execute(events)
        result = ChaosResult(
            ok=failure is None, seed=self.config.seed, events_run=len(events),
            stats=stats, failure=failure, final_state_dir=state_dir,
        )
        if failure is not None and not self.config.crashpoint:
            result.reproducer = self.shrink(events) if self.config.shrink else events
        return result

    def shrink(self, events: List[Event]) -> List[Event]:
        """ddmin the failing schedule down to a minimal reproducer."""

        def still_fails(candidate: List[Event]) -> bool:
            failure, _stats, _dir = self.execute(candidate)
            return failure is not None

        return ddmin(events, still_fails, max_runs=MAX_SHRINK_RUNS)
