"""Deterministic fault injection at named sites.

Production components call :meth:`FaultInjector.hit` at their fault sites
("buffer.io", "fr.refine", "wal.append", ...).  With no rules armed a hit
is a counter increment and nothing else, so the instrumentation is safe to
leave in the serving path; a server built without an injector makes no
hit at all.  Tests arm rules that raise transient errors, inject delays,
or crash at the *n*-th hit of a site — all keyed off deterministic hit
counts, never wall-clock or randomness.

A crash unwinds as :class:`InjectedCrashError`, or — a *hard* crash —
SIGKILLs the process on the spot (:func:`hard_kill`): no ``finally``, no
``atexit``, no flushing, the guarantees a kernel OOM-kill or power loss
gives the durability layer.  :meth:`FaultInjector.from_env` arms one hard
crash per process from the environment, so a supervised ``repro serve``
child can be told to die exactly once at exactly one site:

    REPRO_CRASHPOINT=checkpoint.manifest   the site to die at
    REPRO_CRASHPOINT_AFTER=2               skip this many hits first
    REPRO_CRASHPOINT_TORN=0.5              (wal_write only) land this
                                           fraction of the payload first

Time is abstracted behind a tiny clock interface so that delay injection
and query deadlines compose deterministically: a :class:`VirtualClock`
only advances when something sleeps on it, which makes deadline tests
exact instead of racy.
"""

from __future__ import annotations

import errno
import os
import signal
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

from ..core.errors import InvalidParameterError, TransientIOError

__all__ = [
    "CRASH_SITES",
    "DURABILITY_SITES",
    "ENV_AFTER",
    "ENV_SITE",
    "ENV_TORN",
    "KILL_EXIT_CODE",
    "hard_kill",
    "Clock",
    "MonotonicClock",
    "VirtualClock",
    "InjectedCrashError",
    "InjectedShortWrite",
    "FaultInjector",
]


# The durability protocol's crash windows, in protocol order: each is one
# ``hit`` at one code position (``wal.prune``: once per prune).
DURABILITY_SITES = (
    "wal.append",  # before a record (or a wave's batch) is framed
    "wal_write",  # before the write+flush; a torn crash lands a prefix first
    "wal_fsync",  # records written and flushed, not yet fsynced
    "checkpoint.write",  # before the checkpoint image is written
    "checkpoint.sidecar",  # image durable; sidecar tmp durable, not renamed
    "checkpoint.digests",  # sidecar durable; the manifest not yet begun
    "checkpoint.manifest",  # manifest tmp durable, not renamed
    "wal.prune",  # stale checkpoints unlinked, released WAL segments not yet
    "wal.reopen",  # mid segment-reopen past a poisoned descriptor
)

# The process plane's kill matrix: the sites a standard serve workload
# (reports and advances across a few checkpoint cycles) reaches.
# ``wal.reopen`` needs a poisoned WAL first, and ``checkpoint.digests``
# is crashed in process only.
CRASH_SITES = tuple(
    site for site in DURABILITY_SITES
    if site not in ("checkpoint.digests", "wal.reopen")
)

ENV_SITE = "REPRO_CRASHPOINT"
ENV_AFTER = "REPRO_CRASHPOINT_AFTER"
ENV_TORN = "REPRO_CRASHPOINT_TORN"

# What a SIGKILLed process reports as in shell convention (128 + 9); the
# os._exit fallback uses the same number so supervisors see one code.
KILL_EXIT_CODE = 137


def hard_kill() -> None:  # pragma: no cover - the process dies here
    """Die NOW: no unwinding, no atexit, no buffered-IO flush."""
    try:
        os.kill(os.getpid(), signal.SIGKILL)
    except OSError:
        pass
    os._exit(KILL_EXIT_CODE)


class InjectedCrashError(BaseException):
    """Simulated process death at a fault site.

    Deliberately derives from :class:`BaseException` (like
    ``KeyboardInterrupt``): no amount of ``except Exception`` or
    ``except ReproError`` in the serving path may "survive" a crash —
    the only legitimate response is to restart and recover.

    A torn crash carries the fraction of the payload the ``wal_write``
    site lands before :meth:`die`; every other crash dies where it is
    raised.
    """

    def __init__(self, message: str, fraction: Optional[float] = None,
                 hard: bool = False) -> None:
        super().__init__(message)
        self.fraction = fraction
        self.hard = hard

    def die(self) -> None:
        """Unwind as this error or, for a hard crash, SIGKILL the process."""
        if self.hard:
            try:
                print(f"{self}: killing pid {os.getpid()}", file=sys.stderr,
                      flush=True)
            except OSError:  # pragma: no cover - stderr gone; still die
                pass
            hard_kill()
        raise self


class InjectedShortWrite(OSError):
    """A write that lands only a prefix of its payload before failing.

    Raised at a write fault site *before* the real write; the
    instrumented caller (``UpdateLog``) writes ``fraction`` of the
    payload itself and then treats the site as failed — leaving a torn
    line on disk exactly like a partial write on a filling disk would.
    """

    def __init__(self, site: str, fraction: float = 0.5):
        super().__init__(errno.ENOSPC, f"injected short write at {site!r}")
        self.fraction = float(fraction)


class Clock:
    """Minimal clock interface: ``now()`` seconds and ``sleep(seconds)``."""

    def now(self) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class MonotonicClock(Clock):
    """Real time: ``time.monotonic`` / ``time.sleep``."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class VirtualClock(Clock):
    """A clock that advances only when slept on — deterministic tests."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise InvalidParameterError(f"cannot sleep {seconds} seconds")
        self._now += seconds


@dataclass
class _FaultRule:
    """One armed behavior at a site, triggered by hit count."""

    kind: str  # "error" | "delay" | "crash"
    after: int  # skip this many hits before first trigger
    times: Optional[int]  # trigger at most this many times (None = forever)
    delay_seconds: float = 0.0
    exc_factory: Optional[Callable[[], BaseException]] = None
    torn: Optional[float] = None  # crash: payload fraction landed first
    hard: bool = False  # crash: SIGKILL instead of unwinding
    fired: int = 0

    def should_fire(self, hit_index: int) -> bool:
        if hit_index <= self.after:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        return True


class FaultInjector:
    """Registry of fault rules plus per-site hit counters.

    ``clock`` defaults to a :class:`VirtualClock` so injected delays are
    deterministic; a server built *without* an injector uses real time.
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock: Clock = clock if clock is not None else VirtualClock()
        self._rules: Dict[str, List[_FaultRule]] = {}
        self._hits: Counter = Counter()

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def inject_error(
        self,
        site: str,
        exc_factory: Optional[Callable[[], BaseException]] = None,
        times: Optional[int] = 1,
        after: int = 0,
    ) -> None:
        """Raise at ``site`` (default: a :class:`TransientIOError`)."""
        factory = exc_factory or (lambda: TransientIOError(f"injected I/O fault at {site!r}"))
        self._rules.setdefault(site, []).append(
            _FaultRule(kind="error", after=after, times=times, exc_factory=factory)
        )

    def inject_enospc(
        self, site: str, times: Optional[int] = 1, after: int = 0
    ) -> None:
        """Raise ``OSError(ENOSPC)`` at ``site`` — the disk is full."""
        self.inject_error(
            site,
            exc_factory=lambda: OSError(
                errno.ENOSPC, f"injected ENOSPC at {site!r}: no space left on device"
            ),
            times=times,
            after=after,
        )

    def inject_eio(self, site: str, times: Optional[int] = 1, after: int = 0) -> None:
        """Raise ``OSError(EIO)`` at ``site`` — the device failed the I/O."""
        self.inject_error(
            site,
            exc_factory=lambda: OSError(
                errno.EIO, f"injected EIO at {site!r}: input/output error"
            ),
            times=times,
            after=after,
        )

    def inject_short_write(
        self,
        site: str,
        fraction: float = 0.5,
        times: Optional[int] = 1,
        after: int = 0,
    ) -> None:
        """Let only ``fraction`` of the payload land at ``site``, then fail."""
        if not 0.0 <= fraction < 1.0:
            raise InvalidParameterError(
                f"short-write fraction must be in [0, 1), got {fraction}"
            )
        self.inject_error(
            site,
            exc_factory=lambda: InjectedShortWrite(site, fraction),
            times=times,
            after=after,
        )

    def inject_delay(
        self,
        site: str,
        seconds: float,
        times: Optional[int] = None,
        after: int = 0,
    ) -> None:
        """Sleep ``seconds`` on the injector clock at each triggering hit."""
        if seconds < 0:
            raise InvalidParameterError(f"delay must be >= 0, got {seconds}")
        self._rules.setdefault(site, []).append(
            _FaultRule(kind="delay", after=after, times=times, delay_seconds=seconds)
        )

    def inject_crash(
        self,
        site: str,
        after: int = 0,
        times: Optional[int] = 1,
        torn: Optional[float] = None,
        hard: bool = False,
    ) -> None:
        """Crash at the ``after + 1``-th hit of ``site``.

        ``torn`` (``wal_write`` only) lands that fraction of the payload
        first; ``hard`` SIGKILLs the process instead of raising
        :class:`InjectedCrashError`.
        """
        if torn is not None:
            if site != "wal_write":
                raise InvalidParameterError(
                    f"a torn crash lands part of a WAL write; {site!r} has none"
                )
            if not 0.0 <= torn < 1.0:
                raise InvalidParameterError(
                    f"torn fraction must be in [0, 1), got {torn}"
                )
        self._rules.setdefault(site, []).append(
            _FaultRule(kind="crash", after=after, times=times, torn=torn, hard=hard)
        )

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> Optional["FaultInjector"]:
        """The process's hard crash rule from ``REPRO_CRASHPOINT*``, or
        None when no site is set.

        The injector runs on real time: a serving process takes its clock
        from it.  A site off :data:`DURABILITY_SITES` or a malformed
        AFTER/TORN value is a hard error — a kill-matrix cell that
        silently never fires would report green.
        """
        env = os.environ if environ is None else environ
        site = env.get(ENV_SITE)
        if not site:
            return None
        if site not in DURABILITY_SITES:
            raise InvalidParameterError(
                f"{ENV_SITE}={site!r} is not a durability site; "
                f"sites: {', '.join(DURABILITY_SITES)}"
            )
        try:
            after = int(env.get(ENV_AFTER, "0"))
            torn = float(env[ENV_TORN]) if env.get(ENV_TORN) else None
        except ValueError as exc:
            raise InvalidParameterError(f"malformed {ENV_AFTER}/{ENV_TORN}: {exc}") from exc
        faults = cls(clock=MonotonicClock())
        faults.inject_crash(site, after=after, torn=torn, hard=True)
        return faults

    def clear(self, site: Optional[str] = None) -> None:
        """Disarm rules (for one site, or all); hit counters are kept.

        Because counters survive, a rule re-armed later with ``after=N``
        would count the *stale* hits of the previous episode toward its
        trigger — call :meth:`reset_counters` between episodes (as the
        chaos scheduler does) when hit counts must start from zero.
        """
        if site is None:
            self._rules.clear()
        else:
            self._rules.pop(site, None)

    def reset_counters(self, site: Optional[str] = None) -> None:
        """Zero the hit counters (for one site, or all).

        Armed rules are untouched; their ``after=N`` offsets now count
        from a fresh zero.  Use together with :meth:`clear` to give each
        chaos episode an independent fault schedule on a shared injector.
        """
        if site is None:
            self._hits.clear()
        else:
            self._hits.pop(site, None)

    # ------------------------------------------------------------------
    # the instrumented side
    # ------------------------------------------------------------------
    def hit(self, site: str) -> None:
        """Record a pass through ``site`` and trigger any armed rules.

        Delays fire before errors/crashes so a single site can model a
        slow-then-failing device.
        """
        self._hits[site] += 1
        index = self._hits[site]
        rules = self._rules.get(site)
        if not rules:
            return
        raiser: Optional[_FaultRule] = None
        for rule in rules:
            if not rule.should_fire(index):
                continue
            rule.fired += 1
            if rule.kind == "delay":
                self.clock.sleep(rule.delay_seconds)
            elif raiser is None:
                raiser = rule
        if raiser is not None:
            if raiser.kind != "crash":
                raise raiser.exc_factory()
            crash = InjectedCrashError(
                f"injected crash at {site!r} (hit {index})", raiser.torn, raiser.hard
            )
            if crash.fraction is None:
                crash.die()
            raise crash  # the WAL lands the torn prefix, then dies

    def hits(self, site: str) -> int:
        return self._hits[site]
