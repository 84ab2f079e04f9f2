"""A supervising parent for ``repro serve`` child processes.

The durability layer promises that a SIGKILLed server loses nothing it
acknowledged — but somebody has to notice the corpse and start the next
incarnation.  :class:`Supervisor` is that somebody: it spawns ``repro
serve`` as a **real child OS process**, probes its TCP health endpoint
(liveness and readiness are distinct, exactly as the server reports
them), restarts crashed children with capped jittered backoff, and
refuses to flap forever — N rapid deaths inside a sliding window is a
*crash loop* and the supervisor gives up with its own exit code
(:data:`EXIT_CRASH_LOOP` = 12) so an operator, not a retry loop, owns
the problem.

Policy decisions worth stating:

* **Port pinning.**  The first child may bind an ephemeral port (``serve
  --port 0`` prints ``port=N``); the supervisor parses that line and
  pins every restart to the same port, so clients ride out a restart by
  reconnecting to the address they already know.
* **Liveness ≠ readiness.**  A child that accepts TCP and answers
  ``health`` frames is *live* even while ``ready`` is false (still
  recovering, draining, not primary).  Only repeated liveness failures
  — connect refused / probe timeout while the process still runs — get
  a child killed as hung; unreadiness alone never does.
* **Retryable vs terminal child exits.**  Exit 0 means the child drained
  cleanly (someone asked it to stop) and the supervisor stops too.
  Invalid parameters (2), a refused corrupt state dir (8) and a held
  state-dir lock (11) would recur identically on every respawn, so the
  supervisor passes them through instead of burning restarts.  Anything
  else — SIGKILL's 137 above all — is a crash and earns a restart.
* **SIGTERM forwards as drain.**  Stopping the supervisor SIGTERMs the
  child, which drains gracefully; only a child that overstays the
  graceful deadline is SIGKILLed.
* **One-shot crashpoint arming.**  ``arm_crashpoint`` sets the
  ``REPRO_CRASHPOINT*`` environment for the *first* child only and the
  inherited environment is always scrubbed of those variables — a
  supervisor restarting an armed child into the same armed environment
  would manufacture its own crash loop.

Every state transition is emitted as one machine-readable stdout line,
``supervise: event=<name> k=v ...`` (same convention as ``serve``'s
``port=N``), so the kill-matrix harness and shell scripts parse the
supervisor the way they parse the server.  The same transitions also
land as ``supervise.<event>`` records in the structured ops journal
(``<state-dir>/journal/`` when the child runs with ``--state-dir``),
stamped with the epoch and recovery generation of the last ready child —
``repro journal --event supervise.exit`` shows every crash next to the
failovers and read-only flips it caused.
"""

from __future__ import annotations

import dataclasses
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from typing import IO, List, Optional, Sequence

from ..reliability.faults import ENV_AFTER, ENV_SITE, ENV_TORN
from ..telemetry import Journal
from ..telemetry import instruments as tm
from .protocol import read_frame_sync, write_frame_sync

__all__ = [
    "EXIT_CRASH_LOOP",
    "NON_RETRYABLE_EXITS",
    "SupervisorConfig",
    "Supervisor",
]

# The supervisor's own verdict when children die faster than restarting
# them can possibly help (see cli.py's exit-code table).
EXIT_CRASH_LOOP = 12

# Child exit codes a respawn cannot fix: clean drain (0), invalid
# parameters (2), corrupt state dir refused at boot (8), state-dir lock
# held by another process (11).  Everything else is treated as a crash.
NON_RETRYABLE_EXITS = (0, 2, 8, 11)

_PORT_RE = re.compile(r"^port=(\d+)$")


def _state_dir_from_args(serve_args: Sequence[str]) -> Optional[str]:
    """The ``--state-dir`` value forwarded to the child, if any."""
    args = list(serve_args)
    for index, arg in enumerate(args):
        if arg == "--state-dir" and index + 1 < len(args):
            return args[index + 1]
        if arg.startswith("--state-dir="):
            return arg.split("=", 1)[1]
    return None


# Supervision policy (seconds unless noted).  One child lineage is
# probed every PROBE_INTERVAL with a PROBE_TIMEOUT socket budget, and
# LIVENESS_FAILURES consecutive failed probes of a running child mean
# it hung.  A child gets STARTUP_DEADLINE to print its port and answer
# ready.  Restarts wait BACKOFF_INITIAL, times BACKOFF_FACTOR per crash
# up to BACKOFF_MAX, scattered +- BACKOFF_JITTER (a fraction); a healthy
# start resets the delay.  CRASH_LOOP_THRESHOLD crashes inside
# CRASH_LOOP_WINDOW is a crash loop.  On stop a child gets
# GRACEFUL_DEADLINE to drain before SIGKILL.
PROBE_INTERVAL = 0.1
PROBE_TIMEOUT = 2.0
LIVENESS_FAILURES = 3
STARTUP_DEADLINE = 45.0
BACKOFF_INITIAL = 0.1
BACKOFF_MAX = 5.0
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER = 0.25
CRASH_LOOP_THRESHOLD = 5
CRASH_LOOP_WINDOW = 30.0
GRACEFUL_DEADLINE = 10.0


@dataclasses.dataclass
class SupervisorConfig:
    """One supervised ``repro serve`` lineage."""

    serve_args: Sequence[str] = ()  # forwarded to `repro serve` verbatim
    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the first child pick; then pinned
    seed: int = 0  # backoff-jitter rng seed
    arm_crashpoint: Optional[str] = None  # first child only
    arm_after: int = 0
    arm_torn: Optional[float] = None


class _Child:
    """One incarnation: the process plus its stdout-scanning thread."""

    def __init__(self, process: subprocess.Popen, echo: Optional[IO]) -> None:
        self.process = process
        self.port: Optional[int] = None
        self._port_event = threading.Event()
        self._echo = echo
        self._reader = threading.Thread(target=self._scan_stdout, daemon=True)
        self._reader.start()

    def _scan_stdout(self) -> None:
        stream = self.process.stdout
        if stream is None:  # pragma: no cover - always piped
            return
        for line in stream:
            match = _PORT_RE.match(line.strip())
            if match:
                self.port = int(match.group(1))
                self._port_event.set()
            elif self._echo is not None:
                # non-protocol child chatter (metrics-port= etc.) is
                # passed through so nothing the child says is lost
                try:
                    self._echo.write(f"child: {line}")
                    self._echo.flush()
                except (OSError, ValueError):
                    pass
        self._port_event.set()  # EOF: wake any waiter; port may be None

    def wait_port(self, timeout: float) -> Optional[int]:
        self._port_event.wait(timeout)
        return self.port


class Supervisor:
    """Spawn, probe, restart.  ``run()`` blocks; ``start()`` threads it."""

    def __init__(self, config: SupervisorConfig, out: Optional[IO] = None) -> None:
        self.config = config
        self.out = out if out is not None else sys.stdout
        self.port: Optional[int] = config.port or None
        self.restarts = 0  # crashes survived so far (not total spawns)
        self.exit_code: Optional[int] = None
        self._child: Optional[_Child] = None
        self._stop = threading.Event()
        self._ready = threading.Event()
        self._rng = random.Random(config.seed)
        self._thread: Optional[threading.Thread] = None
        # Every `supervise:` stdout line also lands in the ops journal.
        # The supervisor owns its *own* Journal (not the process global):
        # tests run several supervisors in one process, and the serve
        # child binds the shared journal directory from its own process
        # anyway — per-pid segment files keep the two apart.
        self.journal = Journal()
        state_dir = _state_dir_from_args(config.serve_args)
        if state_dir:
            self.journal.bind(
                os.path.join(state_dir, "journal"), role="supervisor"
            )

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    @property
    def pid(self) -> Optional[int]:
        child = self._child
        return child.process.pid if child is not None else None

    def start(self) -> "Supervisor":
        """Run the supervision loop in a background thread (for tests
        and the kill-matrix harness; the CLI calls :meth:`run` inline)."""
        self._thread = threading.Thread(target=self.run, daemon=True)
        self._thread.start()
        return self

    def wait_ready(self, timeout: float) -> bool:
        """Block until the current child answers ``ready: true``."""
        return self._ready.wait(timeout)

    def request_stop(self) -> None:
        """Ask for a graceful shutdown: SIGTERM the child, drain, exit."""
        self._stop.set()

    def join(self, timeout: Optional[float] = None) -> Optional[int]:
        if self._thread is not None:
            self._thread.join(timeout)
        return self.exit_code

    # ------------------------------------------------------------------
    # supervision loop
    # ------------------------------------------------------------------
    def run(self) -> int:
        crashes: deque = deque()
        backoff = BACKOFF_INITIAL
        spawned = 0
        while True:
            child = self._spawn(first=spawned == 0)
            spawned += 1
            became_ready = self._await_startup(child)
            if became_ready:
                backoff = BACKOFF_INITIAL  # healthy start resets
            code = self._monitor(child)
            self._ready.clear()
            self._child = None
            if self._stop.is_set():
                self._emit("stopped", code=code)
                self.exit_code = 0
                return 0
            if code in NON_RETRYABLE_EXITS:
                self._emit("giveup", reason="non-retryable", code=code)
                self.exit_code = code
                return code
            tm.SUPERVISOR_RESTARTS.inc()
            now = time.monotonic()
            crashes.append(now)
            while crashes and now - crashes[0] > CRASH_LOOP_WINDOW:
                crashes.popleft()
            if len(crashes) >= CRASH_LOOP_THRESHOLD:
                self._emit(
                    "giveup", reason="crash-loop", crashes=len(crashes),
                    window=CRASH_LOOP_WINDOW, code=code,
                )
                tm.SUPERVISOR_CRASH_LOOPS.inc()
                self.exit_code = EXIT_CRASH_LOOP
                return EXIT_CRASH_LOOP
            self.restarts += 1
            delay = backoff * (
                1.0 + BACKOFF_JITTER * self._rng.uniform(-1.0, 1.0)
            )
            self._emit("backoff", delay=round(delay, 3), code=code,
                       restarts=self.restarts)
            if self._stop.wait(delay):
                self._emit("stopped", code=code)
                self.exit_code = 0
                return 0
            backoff = min(backoff * BACKOFF_FACTOR, BACKOFF_MAX)

    # ------------------------------------------------------------------
    # child lifecycle
    # ------------------------------------------------------------------
    def _serve_command(self) -> List[str]:
        cmd = [sys.executable, "-m", "repro", "serve",
               "--host", self.config.host,
               "--port", str(self.port or 0)]
        cmd.extend(self.config.serve_args)
        return cmd

    def _child_env(self, first: bool) -> dict:
        env = {
            k: v for k, v in os.environ.items()
            if k not in (ENV_SITE, ENV_AFTER, ENV_TORN)
        }
        # PYTHONPATH must reach this package in the child too
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        parts = [src_root] + [
            p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
        ]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        if first and self.config.arm_crashpoint:
            env[ENV_SITE] = self.config.arm_crashpoint
            env[ENV_AFTER] = str(self.config.arm_after)
            if self.config.arm_torn is not None:
                env[ENV_TORN] = str(self.config.arm_torn)
        return env

    def _spawn(self, first: bool) -> _Child:
        process = subprocess.Popen(
            self._serve_command(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=self._child_env(first),
            text=True,
            bufsize=1,
        )
        child = _Child(process, echo=None)
        self._child = child
        armed = self.config.arm_crashpoint if first else None
        self._emit("start", pid=process.pid, restarts=self.restarts,
                   **({"armed": armed} if armed else {}))
        return child

    def _await_startup(self, child: _Child) -> bool:
        """Wait for the port line, then the first ready probe.  Returns
        True on readiness; False if the child died or overstayed."""
        deadline = time.monotonic() + STARTUP_DEADLINE
        port = child.wait_port(STARTUP_DEADLINE)
        if port is None:
            return False  # died before binding; _monitor reaps it
        if self.port is None:
            self._emit("pinned", port=port)
        self.port = port
        while time.monotonic() < deadline and not self._stop.is_set():
            if child.process.poll() is not None:
                return False
            health = self._probe()
            if health is not None and health.get("ready"):
                self._ready.set()
                self.journal.update_context(
                    epoch=health.get("epoch"),
                    generation=health.get("generation"),
                )
                self._emit(
                    "ready", pid=child.process.pid, port=port,
                    epoch=health.get("epoch"),
                    generation=health.get("generation"),
                    lsn=health.get("lsn"),
                )
                return True
            time.sleep(PROBE_INTERVAL)
        return False

    def _monitor(self, child: _Child) -> int:
        """Probe until the child exits (or stop is requested).  Returns
        the child's exit code (normalized: signal death -> 128+sig)."""
        misses = 0
        while True:
            if self._stop.is_set():
                return self._shutdown_child(child)
            code = child.process.poll()
            if code is not None:
                self._emit("exit", pid=child.process.pid,
                           code=self._normalize(code))
                return self._normalize(code)
            health = self._probe()
            if health is None:
                misses += 1
                if misses >= LIVENESS_FAILURES and self.port:
                    # live process, dead socket: hung beyond doubt
                    self._emit("hung", pid=child.process.pid, misses=misses)
                    try:
                        child.process.kill()
                    except OSError:  # pragma: no cover - already gone
                        pass
                    child.process.wait()
                    return self._normalize(child.process.returncode)
            else:
                misses = 0
                if health.get("ready"):
                    self._ready.set()
                else:
                    self._ready.clear()
            time.sleep(PROBE_INTERVAL)

    def _shutdown_child(self, child: _Child) -> int:
        """SIGTERM -> graceful drain -> SIGKILL past the deadline."""
        if child.process.poll() is None:
            self._emit("drain", pid=child.process.pid)
            try:
                child.process.send_signal(signal.SIGTERM)
            except OSError:  # pragma: no cover - lost the race to exit
                pass
            try:
                child.process.wait(GRACEFUL_DEADLINE)
            except subprocess.TimeoutExpired:
                self._emit("drain-timeout", pid=child.process.pid)
                child.process.kill()
                child.process.wait()
        return self._normalize(child.process.returncode)

    @staticmethod
    def _normalize(code: Optional[int]) -> int:
        if code is None:  # pragma: no cover - only after wait()
            return -1
        return 128 - code if code < 0 else code  # -9 -> 137

    # ------------------------------------------------------------------
    # health probing
    # ------------------------------------------------------------------
    def _probe(self) -> Optional[dict]:
        """One liveness probe: connect, ask ``health``, parse the frame.
        Returns the payload, or None when the child cannot answer."""
        if not self.port:
            return None
        try:
            with socket.create_connection(
                (self.config.host, self.port), timeout=PROBE_TIMEOUT
            ) as sock:
                sock.settimeout(PROBE_TIMEOUT)
                write_frame_sync(sock, {"op": "health"})
                frame = read_frame_sync(sock)
        except Exception:  # refused, timeout, reset, bad frame: not live
            return None
        if frame is None:
            return None
        return frame if frame.get("ok") else None

    # ------------------------------------------------------------------
    # status lines
    # ------------------------------------------------------------------
    def _emit(self, event: str, **fields) -> None:
        """One transition, two sinks: the machine-readable stdout line
        (the kill-matrix harness and shell scripts parse these) and a
        ``supervise.<event>`` record in the ops journal."""
        self.journal.emit(
            f"supervise.{event}",
            # the `pid` field of these lines is the *child's* pid; the
            # record envelope's `pid` stays the supervisor's own
            **{("child_pid" if k == "pid" else k): v
               for k, v in fields.items() if v is not None},
        )
        parts = [f"supervise: event={event}"]
        parts.extend(
            f"{key}={value}" for key, value in fields.items() if value is not None
        )
        try:
            print(" ".join(parts), file=self.out, flush=True)
        except (OSError, ValueError):  # pragma: no cover - output gone
            pass
