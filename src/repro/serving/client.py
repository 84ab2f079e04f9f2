"""The resilient client: retries, backoff, redirects, circuit breakers.

:class:`ResilientClient` is the polite counterpart of the server's
structured errors.  One call to :meth:`request` hides the whole failure
surface of the wire:

* **Connection failures and timeouts** are retried with capped
  exponential backoff plus seeded jitter (``base * 2^attempt`` capped at
  ``backoff_cap``, then scattered ±``JITTER``), against a per-endpoint
  :class:`~repro.reliability.admission.CircuitBreaker` — the same
  closed/open/half-open machine the in-process router uses — so a dead
  endpoint stops eating the retry budget after a few failures.
* **Sheds** (``shed``/``draining``/``too_many_inflight``) are honored:
  the client sleeps the server-announced ``retry_after`` (capped at
  ``retry_after_cap``) before retrying — the token bucket's refill
  estimate, not a blind guess.  Frames of these codes *missing*
  ``retry_after`` are counted in ``sheds_missing_retry_after``; the
  network chaos oracle asserts that count stays zero.
* **Primary re-discovery.**  A ``not_primary`` frame's ``redirect`` is
  followed immediately; without one, every known endpoint is
  health-probed and the one reporting ``role == "primary"`` wins.  An
  ``epoch`` bump in any response is recorded (``epoch_changes``) — the
  group failed over underneath us and acknowledged writes survived it.

Acked writes are tracked: ``max_acked_lsn`` is the highest LSN the
server acknowledged to *this* client, which is exactly the quantity the
"no acked report lost across a connection reset" oracle compares to the
primary's durable WAL position.

With ``ClientConfig.trace_sample = N``, one in every N logical
operations carries a trace envelope (see :mod:`.protocol`) that survives
retries and redirects; the success frame's server-side span tree is
stitched under the client's own span into :attr:`ResilientClient.traces`
and journaled as a ``client_trace`` event — the raw material of
``repro trace``.
"""

from __future__ import annotations

import random
import socket
import time
from collections import Counter, deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import (
    InvalidParameterError,
    ProtocolError,
    RetriesExhaustedError,
    ServingError,
)
from ..reliability.admission import CircuitBreaker
from ..reliability.faults import Clock, MonotonicClock
from ..telemetry import JOURNAL, new_span_id, new_trace_id
from .protocol import (
    make_trace_envelope,
    read_frame_sync,
    write_frame_sync,
)

__all__ = ["ClientConfig", "ResilientClient", "WireError"]

Endpoint = Tuple[str, int]

# wire error codes the client retries (everything else surfaces);
# read_only means the backend is resource-degraded — the write is retried
# after the hinted delay exactly like a shed
_RETRYABLE = {"shed", "draining", "too_many_inflight", "staleness", "read_only"}


class WireError(ServingError):
    """A structured error frame surfaced to the caller unretried.

    ``code`` is the wire error code; ``frame`` the full error frame.
    """

    def __init__(self, message: str, code: str, frame: Optional[dict] = None):
        super().__init__(message)
        self.code = code
        self.frame = frame or {}


# The +- fraction by which a computed backoff is scattered.
JITTER = 0.25


@dataclass
class ClientConfig:
    """Retry policy and socket settings."""

    connect_timeout: float = 2.0
    request_timeout: float = 10.0
    max_attempts: int = 8
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    retry_after_cap: float = 5.0  # never sleep longer on a shed hint
    seed: Optional[int] = None  # jitter rng seed (None = entropy)
    breaker_threshold: int = 3
    breaker_probation_seconds: float = 1.0
    # end-to-end tracing: sample 1 of every N requests (0 = off).  The
    # envelope is attached once per *logical* operation and rides every
    # retry and redirect unchanged — one op, one trace.
    trace_sample: int = 0
    trace_buffer: int = 32  # stitched traces retained on the client


class ResilientClient:
    """A blocking client over one or more front-door endpoints."""

    def __init__(
        self,
        endpoints: Sequence[Endpoint],
        config: Optional[ClientConfig] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        if not endpoints:
            raise InvalidParameterError("at least one endpoint is required")
        self.config = config or ClientConfig()
        self.clock = clock or MonotonicClock()
        self.endpoints: List[Endpoint] = [tuple(e) for e in endpoints]
        self._target: Endpoint = self.endpoints[0]
        self._sock: Optional[socket.socket] = None
        self._sock_endpoint: Optional[Endpoint] = None
        self._rng = random.Random(self.config.seed)
        self._breakers: Dict[Endpoint, CircuitBreaker] = {}
        self.stats: Counter = Counter()
        self.epoch = 0
        self.generation = 0
        self.max_acked_lsn = 0
        self.acked_reports = 0
        self.sheds_missing_retry_after = 0
        self.retry_after_honored: List[float] = []
        self._trace_counter = 0
        #: stitched client->server span trees of sampled requests,
        #: newest last (bounded by ``config.trace_buffer``)
        self.traces: deque = deque(maxlen=max(1, self.config.trace_buffer))

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def _breaker(self, endpoint: Endpoint) -> CircuitBreaker:
        if endpoint not in self._breakers:
            self._breakers[endpoint] = CircuitBreaker(
                self.clock,
                threshold=self.config.breaker_threshold,
                probation_seconds=self.config.breaker_probation_seconds,
            )
        return self._breakers[endpoint]

    def _connect(self, endpoint: Endpoint) -> socket.socket:
        sock = socket.create_connection(
            endpoint, timeout=self.config.connect_timeout
        )
        sock.settimeout(self.config.request_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _socket_for(self, endpoint: Endpoint) -> socket.socket:
        if self._sock is not None and self._sock_endpoint == endpoint:
            return self._sock
        self._drop_connection()
        self._sock = self._connect(endpoint)
        self._sock_endpoint = endpoint
        self.stats["connects"] += 1
        return self._sock

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._sock_endpoint = None

    def reconnect(self) -> None:
        """Drop the pinned connection; the next request opens a fresh one.

        The chaos scheduler uses this after arming a proxy fault (faults
        are consumed per-connection) so consumption is deterministic.
        """
        self._drop_connection()

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "ResilientClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # retry machinery
    # ------------------------------------------------------------------
    def _backoff(self, attempt: int) -> float:
        delay = min(
            self.config.backoff_cap, self.config.backoff_base * (2 ** attempt)
        )
        spread = 1.0 + JITTER * self._rng.uniform(-1.0, 1.0)
        return max(0.0, delay * spread)

    def _pick_endpoint(self) -> Endpoint:
        """The current target, or the next endpoint whose breaker allows."""
        candidates = [self._target] + [
            e for e in self.endpoints if e != self._target
        ]
        for endpoint in candidates:
            if self._breaker(endpoint).allow():
                return endpoint
        return self._target  # all broken: probe the target anyway

    def _note_epoch(self, frame: dict) -> None:
        epoch = frame.get("epoch")
        if isinstance(epoch, int) and epoch > self.epoch:
            if self.epoch != 0:
                self.stats["epoch_changes"] += 1
            self.epoch = epoch
        # the recovery generation moves when the *same* address comes back
        # as a freshly recovered process — the restart signal a failover
        # (epoch bump) never sends
        generation = frame.get("generation")
        if isinstance(generation, int) and generation > self.generation:
            if self.generation != 0:
                self.stats["generation_changes"] += 1
            self.generation = generation

    def rediscover(self) -> Optional[Endpoint]:
        """Health-probe every endpoint; adopt the one that is primary."""
        for endpoint in self.endpoints:
            try:
                sock = self._connect(endpoint)
                try:
                    write_frame_sync(sock, {"op": "health"})
                    frame = read_frame_sync(sock)
                finally:
                    sock.close()
            except (OSError, ProtocolError):
                continue
            if frame and frame.get("ok") and frame.get("role") == "primary":
                self._note_epoch(frame)
                self._target = endpoint
                self.stats["rediscoveries"] += 1
                return endpoint
        return None

    def _handle_error_frame(self, frame: dict, attempt: int) -> None:
        """Sleep/redirect per the error frame, or raise if unretryable."""
        code = str(frame.get("error", "internal"))
        self._note_epoch(frame)
        self.stats[f"error_{code}"] += 1
        if code == "not_primary":
            redirect = frame.get("redirect")
            self.stats["redirects"] += 1
            if redirect:
                endpoint = (str(redirect[0]), int(redirect[1]))
                if endpoint not in self.endpoints:
                    self.endpoints.append(endpoint)
                self._target = endpoint
            elif self.rediscover() is None:
                self.clock.sleep(self._backoff(attempt))
            return
        if code in _RETRYABLE:
            retry_after = frame.get("retry_after")
            if code in ("shed", "draining", "read_only") and retry_after is None:
                # the protocol invariant the chaos oracle checks
                self.sheds_missing_retry_after += 1
            delay = self._backoff(attempt)
            if retry_after is not None:
                hinted = min(float(retry_after), self.config.retry_after_cap)
                if hinted > delay:
                    delay = hinted
                if code == "shed":
                    self.stats["sheds_honored"] += 1
                    self.retry_after_honored.append(hinted)
            self.clock.sleep(delay)
            return
        raise WireError(
            f"{code}: {frame.get('message', '(no message)')}",
            code=code, frame=frame,
        )

    def _sample_trace(self, message: dict) -> Tuple[dict, Optional[str], Optional[str]]:
        """Attach a trace envelope to 1/N logical operations.

        Returns ``(message, trace_id, client_span_id)`` — the message is
        a copy when an envelope was attached, so the caller's dict is
        never mutated.  The envelope stays on the message across every
        retry and redirect: one logical op, one trace.
        """
        if self.config.trace_sample <= 0:
            return message, None, None
        index = self._trace_counter
        self._trace_counter += 1
        if index % self.config.trace_sample != 0:
            return message, None, None
        trace_id = new_trace_id()
        client_span_id = new_span_id()
        message = dict(message)
        message["trace"] = make_trace_envelope(
            trace_id, parent_id=client_span_id, sampled=True
        )
        return message, trace_id, client_span_id

    def _stitch_trace(
        self,
        trace_id: str,
        client_span_id: str,
        message: dict,
        frame: dict,
        endpoint: Endpoint,
        attempts: int,
        duration_seconds: float,
    ) -> dict:
        """Join the server's span tree under the client's own span."""
        server_tree = frame.get("trace")
        stitched = {
            "name": "client_request",
            "trace_id": trace_id,
            "span_id": client_span_id,
            "parent_id": None,
            "duration_seconds": duration_seconds,
            "attrs": {
                "op": str(message.get("op", "?")),
                "attempts": attempts,
                "endpoint": f"{endpoint[0]}:{endpoint[1]}",
            },
            "stages": {},
            "children": (
                [server_tree] if isinstance(server_tree, dict) and server_tree
                else []
            ),
        }
        self.traces.append(stitched)
        self.stats["traces_sampled"] += 1
        JOURNAL.emit(
            "client_trace",
            trace_id=trace_id,
            op=str(message.get("op", "?")),
            attempts=attempts,
            duration_ms=round(duration_seconds * 1000.0, 3),
            trace=stitched,
        )
        return stitched

    def request(self, message: dict) -> dict:
        """Send one request, riding out every retryable failure.

        Returns the success frame.  Raises :class:`WireError` for
        unretryable structured errors and :class:`RetriesExhaustedError`
        when the attempt budget runs dry.
        """
        message, trace_id, client_span_id = self._sample_trace(message)
        t0 = time.perf_counter()
        last_error: Optional[Exception] = None
        for attempt in range(self.config.max_attempts):
            endpoint = self._pick_endpoint()
            breaker = self._breaker(endpoint)
            try:
                sock = self._socket_for(endpoint)
                write_frame_sync(sock, message)
                frame = read_frame_sync(sock)
            except (OSError, ProtocolError) as exc:
                breaker.record_failure()
                self._drop_connection()
                last_error = exc
                self.stats["connection_errors"] += 1
                self.stats["retries"] += 1
                self.clock.sleep(self._backoff(attempt))
                continue
            if frame is None:  # server hung up cleanly between frames
                breaker.record_failure()
                self._drop_connection()
                last_error = ProtocolError("connection closed before a response")
                self.stats["retries"] += 1
                self.clock.sleep(self._backoff(attempt))
                continue
            breaker.record_success()
            if frame.get("ok"):
                self._note_epoch(frame)
                if trace_id is not None:
                    self._stitch_trace(
                        trace_id, client_span_id, message, frame, endpoint,
                        attempt + 1, time.perf_counter() - t0,
                    )
                return frame
            last_error = WireError(
                str(frame.get("message", "")), str(frame.get("error", "")),
                frame=frame,
            )
            self.stats["retries"] += 1
            self._handle_error_frame(frame, attempt)  # raises if unretryable
        raise RetriesExhaustedError(
            f"{self.config.max_attempts} attempts exhausted against "
            f"{self._target}: {last_error}",
            last_error=last_error,
        )

    # ------------------------------------------------------------------
    # typed operations
    # ------------------------------------------------------------------
    def report(self, oid: int, x: float, y: float, vx: float, vy: float) -> dict:
        frame = self.request(
            {"op": "report", "oid": oid, "x": x, "y": y, "vx": vx, "vy": vy}
        )
        if frame.get("accepted"):
            self.acked_reports += 1
            self.max_acked_lsn = max(self.max_acked_lsn, int(frame.get("lsn", 0)))
        return frame

    def report_batch(self, reports: Sequence[Tuple]) -> dict:
        frame = self.request(
            {"op": "report_batch", "reports": [list(r) for r in reports]}
        )
        if frame.get("accepted"):
            self.acked_reports += int(frame["accepted"])
            self.max_acked_lsn = max(self.max_acked_lsn, int(frame.get("lsn", 0)))
        return frame

    def retire(self, oid: int) -> dict:
        frame = self.request({"op": "retire", "oid": oid})
        self.max_acked_lsn = max(self.max_acked_lsn, int(frame.get("lsn", 0)))
        return frame

    def advance(self, to: Optional[int] = None) -> dict:
        message = {"op": "advance"}
        if to is not None:
            message["to"] = int(to)
        return self.request(message)

    def query(self, method: str, qt_offset: int = 0, l=None, rho=None,
              varrho=None, deadline=None, max_regions=None) -> dict:
        message = {"op": "query", "method": method, "qt_offset": qt_offset}
        for key, value in (("l", l), ("rho", rho), ("varrho", varrho),
                           ("deadline", deadline), ("max_regions", max_regions)):
            if value is not None:
                message[key] = value
        return self.request(message)

    def fr_query(self, **kwargs) -> dict:
        return self.query("fr", **kwargs)

    def pa_query(self, **kwargs) -> dict:
        return self.query("pa", **kwargs)

    def health(self) -> dict:
        return self.request({"op": "health"})

    def status(self) -> dict:
        return self.request({"op": "status"})

    def drain(self) -> dict:
        return self.request({"op": "drain"})

    def report_stats(self) -> dict:
        """Operator-facing counters plus the acked-write watermark."""
        out = dict(self.stats)
        out["epoch"] = self.epoch
        out["generation"] = self.generation
        out["max_acked_lsn"] = self.max_acked_lsn
        out["acked_reports"] = self.acked_reports
        out["sheds_missing_retry_after"] = self.sheds_missing_retry_after
        return out
