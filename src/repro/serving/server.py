"""The asyncio TCP front door for a PDR serving stack.

:class:`PDRTCPServer` mounts a
:class:`~repro.reliability.replication.ReplicationGroup` (admission
controller, deadline ladder, staleness router and failover included;
``repro serve --replicas 0`` is the group of one primary) behind the
length-prefixed JSON protocol of :mod:`.protocol`:

* **Per-connection limits.**  Reads and writes carry timeouts (a
  slow-loris peer cannot hold a connection forever), frames above
  ``DEFAULT_MAX_FRAME`` are refused with a structured error *without*
  breaking the stream framing, and at most ``MAX_INFLIGHT`` requests may be
  pipelined per connection — the excess is answered ``too_many_inflight``
  immediately rather than queued without bound.
* **One writer thread, many reader threads.**  Mutations (``report``,
  ``advance``, ``retire``) and control calls from
  :meth:`ServerThread.call` run on one dedicated executor thread, as the
  in-process stack always assumed.  Read-only queries (``fr_query``,
  ``pa_query``, ``query``, ``status``) fan out over a small reader pool
  instead, coordinated by a writer-preference read/write lock: reads run
  concurrently with each other (the band-fused refinement pipeline and
  the B&B evaluator release the GIL inside numpy/BLAS, so this is real
  parallelism), while any write drains the readers first and runs alone.
  A long FR refinement no longer heads-of-line-blocks every other query
  behind the single backend thread.
* **Structured errors.**  Admission sheds carry the token bucket's
  ``retry_after`` verbatim; writes reaching a non-primary return
  ``not_primary`` with a ``redirect``; a draining server answers
  ``draining`` (also with ``retry_after``) instead of hanging up.
* **Graceful drain.**  :meth:`PDRTCPServer.drain` stops accepting,
  finishes in-flight requests up to ``drain_deadline`` seconds, then
  closes every connection; ``SIGTERM`` in the CLI maps to exactly this.
* **Liveness vs readiness.**  The ``health`` op answers inline (never
  behind the backend executor) — a busy or draining server is still
  *live*; ``ready`` flips false the moment drain starts, which is what
  a load balancer keys on.  The Prometheus scrape endpoint
  (:func:`~repro.telemetry.exporters.serve_metrics`) is a separate HTTP
  listener and never competes with request traffic.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Set, Tuple

from ..core.errors import (
    AdmissionRejectedError,
    DeadlineExceededError,
    InvalidParameterError,
    NotPrimaryError,
    ProtocolError,
    QueryError,
    ReadOnlyError,
    ReproError,
    ServingError,
    StalenessExceededError,
)
from ..telemetry import NOOP_SPAN, TELEMETRY
from ..telemetry import instruments as tm
from .protocol import (
    encode_frame,
    parse_trace_envelope,
    read_frame_async,
)

__all__ = ["ServingConfig", "PDRTCPServer", "ServerThread"]


# Requests one connection may pipeline; the excess is refused at once.
MAX_INFLIGHT = 16
# Reader threads for the read-only ops.
READ_WORKERS = 4
# The retry hint (seconds) on `draining` error frames.
DRAIN_RETRY_AFTER = 1.0


@dataclass
class ServingConfig:
    """Front-door settings (timeouts in seconds)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is in .address
    read_timeout: float = 30.0
    write_timeout: float = 10.0
    drain_deadline: float = 5.0
    primary_address: Optional[Tuple[str, int]] = None  # redirect target


class _Op(NamedTuple):
    """One row of :data:`OPS`, the front door's op table."""

    handler: Callable[["PDRTCPServer", dict], dict]
    # True: never mutates backend state — reader pool, shared side of the
    # state lock.  False: writer thread, exclusive side.  None: answered on
    # the event loop without touching the lock (liveness never queues).
    reads: Optional[bool]


class _ReadWriteLock:
    """A writer-preference readers/writer lock.

    Readers share; a writer waits for readers to drain and runs alone.
    Arriving readers queue behind a *waiting* writer so a steady query
    stream cannot starve ingest.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()


class _Connection:
    """Per-connection bookkeeping: write lock and inflight counter."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.inflight = 0


class PDRTCPServer:
    """One TCP listener over one replication group."""

    def __init__(self, group, config: Optional[ServingConfig] = None) -> None:
        self.group = group
        self.config = config or ServingConfig()
        self.draining = False
        self.address: Optional[Tuple[str, int]] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[_Connection] = set()
        self._tasks: Set[asyncio.Task] = set()
        self._drained = asyncio.Event()
        self._drain_started = False
        # the single writer thread: every mutation is serialized here
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="pdr-backend"
        )
        # read-only queries fan out here, sharing the state lock's read side
        self._read_executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=READ_WORKERS,
            thread_name_prefix="pdr-read",
        )
        self._state_lock = _ReadWriteLock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def wait_drained(self) -> None:
        await self._drained.wait()

    @property
    def drained(self) -> bool:
        """True once a drain has run to completion."""
        return self._drained.is_set()

    async def drain(self) -> float:
        """Stop accepting, finish in-flight work, close; returns seconds.

        Idempotent: concurrent callers all wait for the one drain.
        """
        if self._drain_started:
            await self._drained.wait()
            return 0.0
        self._drain_started = True
        t0 = time.perf_counter()
        self.draining = True  # readiness flips false; new frames refused
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = [t for t in self._tasks if not t.done()]
        if pending:
            done, still_pending = await asyncio.wait(
                pending, timeout=self.config.drain_deadline
            )
            for task in still_pending:  # past the deadline: cut them off
                task.cancel()
        for conn in list(self._connections):
            self._close_connection(conn, "drained")
        duration = time.perf_counter() - t0
        tm.DRAIN_SECONDS.observe(duration)
        self._drained.set()
        return duration

    def shutdown_executor(self) -> None:
        self._executor.shutdown(wait=True)
        self._read_executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # group introspection
    # ------------------------------------------------------------------
    def _lsn(self) -> int:
        return int(self.group.acked_lsn)

    def _role(self) -> str:
        group = self.group
        return group.primary.role if group.primary_alive else "unavailable"

    def _op_health(self, message: dict) -> dict:
        return {
            "ok": True,
            "live": True,
            "ready": not self.draining and self._role() == "primary",
            "draining": self.draining,
            "read_only": self.group.primary.read_only,
            "role": self._role(),
            "epoch": self.group.epoch,
            # which incarnation of the state directory answered: bumps on
            # every recovery, so clients and the supervisor can observe a
            # process restart even though the epoch never moved
            "generation": self.group.primary.recovery_generation,
            "pid": os.getpid(),
            "lsn": self._lsn(),
            "tnow": int(self.group.tnow),
            "advertise": list(self.address or ()),
        }

    def _op_drain(self, message: dict) -> dict:
        asyncio.ensure_future(self.drain())
        return {"ok": True, "draining": True,
                "drain_deadline": self.config.drain_deadline,
                "epoch": self.group.epoch}

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # response frames are small; without this Nagle + delayed ACK
            # stalls every request/response pair tens of milliseconds
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Connection(writer)
        self._connections.add(conn)
        tm.CONNECTIONS_ACTIVE.inc()
        outcome = "closed"
        try:
            while True:
                try:
                    framed = await asyncio.wait_for(
                        read_frame_async(reader),
                        timeout=self.config.read_timeout,
                    )
                except asyncio.TimeoutError:
                    outcome = "timeout"
                    break
                except ProtocolError as exc:
                    await self._send(conn, self._error_frame(exc.code, str(exc)))
                    if exc.code == "frame_too_large":
                        continue  # the oversized body was drained; stream ok
                    outcome = "reset"
                    break  # truncated/garbage: framing is lost, hang up
                except (ConnectionResetError, BrokenPipeError, OSError):
                    outcome = "reset"
                    break
                if framed is None:
                    break  # clean EOF
                message, _length = framed
                if conn.inflight >= MAX_INFLIGHT:
                    await self._send(conn, self._error_frame(
                        "too_many_inflight",
                        f"connection has {conn.inflight} requests in flight "
                        f"(cap {MAX_INFLIGHT})",
                        retry_after=0.05,
                        request=message,
                    ))
                    continue
                conn.inflight += 1
                task = asyncio.ensure_future(self._serve_request(conn, message))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        except asyncio.CancelledError:
            outcome = "drained"
        finally:
            self._close_connection(conn, outcome)

    def _close_connection(self, conn: _Connection, outcome: str) -> None:
        if conn not in self._connections:
            return
        self._connections.discard(conn)
        tm.CONNECTIONS_ACTIVE.dec()
        tm.CONNECTIONS_TOTAL.labels(outcome).inc()
        try:
            conn.writer.close()
        except Exception:  # closing is best-effort
            pass

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def _serve_request(self, conn: _Connection, message: dict) -> None:
        op = str(message.get("op", ""))
        t0 = time.perf_counter()
        tm.SERVING_INFLIGHT.inc()
        try:
            response = await self._response_for(op, message)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # a bug, not a request problem
            response = self._error_frame("internal", f"{type(exc).__name__}: {exc}")
        finally:
            tm.SERVING_INFLIGHT.dec()
            conn.inflight -= 1
        outcome = "ok" if response.get("ok") else "error"
        # The op string is the client's: only a key of the table may become
        # a metric label value.
        label = op if op in OPS else "?"
        tm.SERVING_FRAMES.labels(label, outcome).inc()
        tm.SERVING_REQUEST_SECONDS.labels(label).observe(time.perf_counter() - t0)
        if "id" in message:
            response["id"] = message["id"]
        await self._send(conn, response)

    async def _response_for(self, op: str, message: dict) -> dict:
        entry = OPS.get(op)
        if entry is None:
            return self._error_frame("bad_request", f"unknown op {op!r}")
        if entry.reads is None:
            return entry.handler(self, message)
        if self.draining:
            return self._error_frame(
                "draining", "server is draining; use another endpoint",
                retry_after=DRAIN_RETRY_AFTER,
            )
        loop = asyncio.get_event_loop()
        executor = self._read_executor if entry.reads else self._executor
        try:
            payload = await loop.run_in_executor(
                executor, self._backend_call, op, message
            )
        except ProtocolError as exc:
            return self._error_frame(exc.code, str(exc))
        except AdmissionRejectedError as exc:
            return self._error_frame("shed", str(exc), retry_after=exc.retry_after)
        except NotPrimaryError as exc:
            redirect = self.config.primary_address
            return self._error_frame("not_primary", str(exc), redirect=redirect)
        except ReadOnlyError as exc:
            # before the ReproError catch-all: resource degradation is a
            # structured, retryable condition, not an internal error
            return self._error_frame(
                "read_only", str(exc), retry_after=exc.retry_after
            )
        except StalenessExceededError as exc:
            return self._error_frame("staleness", str(exc), retry_after=0.05)
        except DeadlineExceededError as exc:
            return self._error_frame("deadline", str(exc))
        except InvalidParameterError as exc:
            return self._error_frame("bad_request", str(exc))
        except QueryError as exc:
            tm.slo_record(outcome="error")
            return self._error_frame("query_failed", str(exc))
        except ReproError as exc:
            tm.slo_record(outcome="error")
            return self._error_frame("internal", f"{type(exc).__name__}: {exc}")
        except RuntimeError as exc:
            # the executor rejects work while shutting down
            return self._error_frame(
                "draining", f"backend unavailable: {exc}",
                retry_after=DRAIN_RETRY_AFTER,
            )
        payload["ok"] = True
        payload.setdefault("epoch", self.group.epoch)
        return payload

    def _error_frame(self, code: str, message: str, retry_after=None,
                     redirect=None, request=None) -> dict:
        frame = {"ok": False, "error": code, "message": message,
                 "epoch": self.group.epoch}
        if code in ("shed", "draining", "too_many_inflight", "staleness",
                    "read_only"):
            # the retry invariant: these codes ALWAYS carry retry_after
            frame["retry_after"] = float(retry_after or 0.0)
        elif retry_after is not None:
            frame["retry_after"] = float(retry_after)
        if redirect is not None:
            frame["redirect"] = list(redirect)
        if request is not None and "id" in request:
            frame["id"] = request["id"]
        return frame

    async def _send(self, conn: _Connection, message: dict) -> None:
        try:
            data = encode_frame(message)
        except ProtocolError:
            data = encode_frame(self._error_frame(
                "internal", "response exceeded the frame limit"))
        async with conn.write_lock:
            try:
                conn.writer.write(data)
                await asyncio.wait_for(
                    conn.writer.drain(), timeout=self.config.write_timeout
                )
            except (asyncio.TimeoutError, ConnectionResetError,
                    BrokenPipeError, OSError):
                self._close_connection(conn, "reset")

    # ------------------------------------------------------------------
    # backend operations (executor threads only)
    # ------------------------------------------------------------------
    def _backend_call(self, op: str, message: dict) -> dict:
        envelope = parse_trace_envelope(message)
        handler, reads = OPS[op]
        if reads:
            self._state_lock.acquire_read()
        else:
            self._state_lock.acquire_write()
        try:
            if envelope is None:
                return handler(self, message)
            # This callable runs wholly on one executor worker thread
            # (writer or reader pool), so adopting into the thread-local
            # tracer here is what lets the backend's spans — group_query,
            # query, the rungs, the refinement stages — survive the hop
            # off the event loop and attach to the caller's trace.
            trace_id, parent_id, sampled = envelope
            tracer = TELEMETRY.tracer
            with tracer.adopt(trace_id, parent_id):
                with tracer.trace(
                    "dispatch", op=op, pid=os.getpid(), role=self._role()
                ) as dispatch_span:
                    payload = handler(self, message)
            if sampled and dispatch_span is not NOOP_SPAN:
                payload["trace"] = dispatch_span.to_dict()
            return payload
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ReproError):
                raise
            raise ProtocolError(
                f"malformed {op!r} request: {type(exc).__name__}: {exc}",
                code="bad_request",
            ) from exc
        finally:
            if reads:
                self._state_lock.release_read()
            else:
                self._state_lock.release_write()

    def _op_report(self, message: dict) -> dict:
        group = self.group
        # Object ids reach the group as decoded: its validator dead-letters
        # a non-integer id as ``bad_oid`` before anything is logged, where a
        # coercion here would log 3.7 or true under somebody else's key.
        motion = group.report(
            message["oid"], float(message["x"]), float(message["y"]),
            float(message["vx"]), float(message["vy"]),
        )
        return {"accepted": motion is not None, "lsn": self._lsn(),
                "tnow": int(group.tnow)}

    def _op_report_batch(self, message: dict) -> dict:
        reports = [
            (r[0], float(r[1]), float(r[2]), float(r[3]), float(r[4]))
            for r in message["reports"]
        ]
        results = self.group.report_batch(reports)
        accepted = sum(1 for r in results if r is not None)
        return {"accepted": accepted, "rejected": len(results) - accepted,
                "lsn": self._lsn(), "tnow": int(self.group.tnow)}

    def _op_retire(self, message: dict) -> dict:
        return {"retired": bool(self.group.retire(message["oid"])),
                "lsn": self._lsn()}

    def _op_advance(self, message: dict) -> dict:
        group = self.group
        group.advance_to(int(message.get("to", group.tnow + 1)))
        return {"tnow": int(group.tnow), "lsn": self._lsn()}

    def _op_query(self, message: dict) -> dict:
        group = self.group
        max_regions = message.get("max_regions")
        if max_regions is not None and (
            type(max_regions) is not int or max_regions < 0
        ):
            raise ProtocolError(
                f"max_regions must be a non-negative integer, got {max_regions!r}",
                code="bad_request",
            )
        # ``fr_query`` / ``pa_query`` name their method in the op
        method = str(message.get("method") or message["op"].split("_", 1)[0])
        qt = (int(message["qt"]) if "qt" in message
              else int(group.tnow) + int(message.get("qt_offset", 0)))
        result = group.query(
            method, qt=qt,
            l=(None if message.get("l") is None else float(message["l"])),
            rho=(None if message.get("rho") is None
                 else float(message["rho"])),
            varrho=(None if message.get("varrho") is None
                    else float(message["varrho"])),
            deadline=(None if message.get("deadline") is None
                      else float(message["deadline"])),
        )
        # Cut before materialising: the frame costs its own rows, not
        # the answer's (max_regions = None keeps every row).
        regions = result.regions.bounds[:max_regions].tolist()
        return {
            "method": result.stats.method,
            "requested_method": result.requested_method,
            "degraded": bool(result.degraded),
            "served_by": result.served_by,
            "qt": qt,
            "n_regions": len(result.regions),
            "regions": regions,
            "area": result.area(),
            "cpu_seconds": result.stats.cpu_seconds,
        }

    def _op_status(self, message: dict) -> dict:
        # operator polling doubles as the resource probe: a primary in
        # read-only degraded mode tries to heal whenever it is looked
        # at (no-op — and cheap — while writable; an idempotent heal-attempt,
        # safe under concurrent readers)
        self.group.probe_resources()
        return {"status": self.group.status()}


# Every op the front door answers.  Executor choice, lock side, the metric
# label and the ``unknown op`` refusal all read this table.
OPS: Dict[str, _Op] = {
    "health": _Op(PDRTCPServer._op_health, None),
    "drain": _Op(PDRTCPServer._op_drain, None),
    "report": _Op(PDRTCPServer._op_report, False),
    "report_batch": _Op(PDRTCPServer._op_report_batch, False),
    "retire": _Op(PDRTCPServer._op_retire, False),
    "advance": _Op(PDRTCPServer._op_advance, False),
    "fr_query": _Op(PDRTCPServer._op_query, True),
    "pa_query": _Op(PDRTCPServer._op_query, True),
    "query": _Op(PDRTCPServer._op_query, True),
    "status": _Op(PDRTCPServer._op_status, True),
}


class ServerThread:
    """Hosts a :class:`PDRTCPServer` on its own event loop in a thread.

    The CLI, the load harness and the chaos scheduler all need a live
    server *next to* blocking code; this wrapper owns the loop and
    exposes three thread-safe entry points: :attr:`address` (after
    :meth:`start`), :meth:`call` (run a function on the backend executor
    — the single thread every backend touch is serialized on), and
    :meth:`drain`/:meth:`stop`.
    """

    def __init__(self, group, config: Optional[ServingConfig] = None) -> None:
        self.server = PDRTCPServer(group, config)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="pdr-serving", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=10.0)
        if self._startup_error is not None:
            raise ServingError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        if not self._started.is_set():
            raise ServingError("server did not start within 10s")
        return self

    @property
    def address(self) -> Tuple[str, int]:
        assert self.server.address is not None
        return self.server.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def main() -> None:
            try:
                await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._started.set()
                return
            self._started.set()
            await self.server.wait_drained()

        try:
            loop.run_until_complete(main())
        finally:
            try:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            finally:
                loop.close()

    def call(self, fn, *args, **kwargs):
        """Run ``fn`` on the writer thread; blocks for the result.

        Control calls may mutate backend state, so they take the
        exclusive side of the state lock — the same discipline as any
        write op — and therefore serialize against in-flight reads.
        """
        def locked():
            self.server._state_lock.acquire_write()
            try:
                return fn(*args, **kwargs)
            finally:
                self.server._state_lock.release_write()

        return self.server._executor.submit(locked).result()

    def drain(self, timeout: Optional[float] = None) -> None:
        """Drain the server and wait for it; safe beside a wire-initiated drain.

        The loop thread exits as soon as *any* drain finishes, so a call
        that loses that race finds the loop closed under it, or has its
        waiter cancelled (or never run) by the exiting thread.  Each of
        those means "already drained", not an error.
        """
        loop = self._loop
        if loop is None or not loop.is_running():
            return
        waiter = self.server.drain()
        try:
            future = asyncio.run_coroutine_threadsafe(waiter, loop)
        except RuntimeError:  # closed since the check; nothing was scheduled
            waiter.close()
            return
        try:
            future.result(timeout=timeout or self.server.config.drain_deadline + 10.0)
        except (TimeoutError, concurrent.futures.CancelledError):
            if not self.server.drained:
                raise

    def stop(self) -> None:
        """Drain, stop the loop thread and release the backend executor."""
        try:
            self.drain()
        finally:
            if self._thread is not None:
                self._thread.join(timeout=10.0)
            self.server.shutdown_executor()
