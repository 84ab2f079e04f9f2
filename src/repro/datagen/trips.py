"""Network-constrained trip simulation.

Objects drive along lattice edges toward hub-biased destinations.  Each
object reports ``(x, y, vx, vy)`` to the :class:`~repro.motion.table.
ObjectTable` whenever its heading changes (it reaches an intersection) or
its maximum update interval ``U`` expires — so the linear prediction every
maintained structure uses stays accurate between reports, exactly the
regime the paper's update protocol assumes.

Speeds are drawn per-trip-leg from a right-skewed distribution clipped to
``[v_min, v_max]`` (the paper: 25-100 mph, skewed), expressed in
miles-per-timestamp with a configurable minutes-per-timestamp scale.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.errors import DatagenError
from ..motion.table import ObjectTable
from .network import RoadNetwork

__all__ = ["SpeedModel", "TripSimulator"]


@dataclass(frozen=True)
class SpeedModel:
    """Right-skewed speed sampling (paper: 25-100 mph, skewed)."""

    v_min_mph: float = 25.0
    v_max_mph: float = 100.0
    minutes_per_timestamp: float = 1.0
    beta_a: float = 1.6
    beta_b: float = 4.0

    def __post_init__(self) -> None:
        if not (0 < self.v_min_mph < self.v_max_mph):
            raise DatagenError("need 0 < v_min < v_max")
        if self.minutes_per_timestamp <= 0:
            raise DatagenError("minutes_per_timestamp must be positive")

    def sample(self, rng: np.random.Generator) -> float:
        """Speed in miles per timestamp."""
        frac = rng.beta(self.beta_a, self.beta_b)
        mph = self.v_min_mph + frac * (self.v_max_mph - self.v_min_mph)
        return mph * self.minutes_per_timestamp / 60.0


class _Leg:
    """Driving state of one simulated object on its current leg.

    The leg's geometry (velocity and arrival time) is computed once, when
    the leg starts; every report and turn check on the leg reads it.  Each
    object keeps one ``_Leg`` for the whole run, restarted in place at every
    turn.
    """

    __slots__ = ("at_node", "to_node", "destination", "speed", "depart_time",
                 "x", "y", "vx", "vy", "arrival")

    def start(
        self,
        network: RoadNetwork,
        at_node: int,
        to_node: int,
        destination: int,
        speed: float,
        depart_time: float,
    ) -> None:
        """Begin the leg ``at_node -> to_node`` at ``depart_time``, in place."""
        self.at_node = at_node  # intersection the leg departs from
        self.to_node = to_node  # intersection the leg heads to
        self.destination = destination
        self.speed = speed  # miles per timestamp
        self.depart_time = depart_time  # (possibly fractional) start time
        self.x, self.y = network.node_position(at_node)  # position at depart_time
        tx, ty = network.node_position(to_node)
        dx, dy = tx - self.x, ty - self.y
        length = float(np.hypot(dx, dy))
        if length <= 0 or speed <= 0:  # parked: no heading, no arrival
            ux = uy = 0.0
            self.arrival = math.inf
        else:
            ux, uy = dx / length, dy / length
            self.arrival = depart_time + length / speed
        self.vx = ux * speed
        self.vy = uy * speed


class TripSimulator:
    """Event-driven simulation of ``n`` objects on a road network."""

    def __init__(
        self,
        network: RoadNetwork,
        n_objects: int,
        update_interval: int,
        speed_model: Optional[SpeedModel] = None,
        seed: int = 0,
    ) -> None:
        if n_objects < 1:
            raise DatagenError(f"need at least one object, got {n_objects}")
        if update_interval < 1:
            raise DatagenError(f"update interval must be >= 1, got {update_interval}")
        self.network = network
        self.n_objects = n_objects
        self.update_interval = update_interval
        self.speed_model = speed_model or SpeedModel()
        self._rng = np.random.default_rng(seed)
        self._legs: List[_Leg] = []
        # Min-heap of report_time * n_objects + oid: the (report_time, oid)
        # order, kept as ints, which compare faster than tuples and which
        # the garbage collector does not track.
        self._events: List[int] = []
        self._initialized = False
        self.reports_issued = 0

    # ------------------------------------------------------------------
    # simulation control
    # ------------------------------------------------------------------
    def initialize(self, table: ObjectTable) -> None:
        """Place every object and issue its first report at ``table.tnow``.

        Initial report times are staggered so steady-state traffic issues
        roughly ``n / U`` reports per timestamp, as in the paper's setup.
        """
        if self._initialized:
            raise DatagenError("simulator already initialized")
        t0 = table.tnow
        for oid in range(self.n_objects):
            start = self.network.sample_node(self._rng)
            leg = _Leg()
            self._new_trip(leg, start, t0)
            self._legs.append(leg)
            self._report(table, oid, t0)
        self._initialized = True

    def run_until(self, table: ObjectTable, t_end: int) -> None:
        """Advance the simulation (and the table clock) to ``t_end``."""
        if not self._initialized:
            raise DatagenError("call initialize() before run_until()")
        if t_end < table.tnow:
            raise DatagenError(f"cannot run backwards to {t_end}")
        for t in range(table.tnow + 1, t_end + 1):
            table.advance_to(t)
            due = (t + 1) * self.n_objects  # keys of report times <= t
            while self._events and self._events[0] < due:
                oid = heapq.heappop(self._events) % self.n_objects
                self._advance_object(oid, t)
                self._report(table, oid, t)

    def step(self, table: ObjectTable) -> None:
        """Advance by one timestamp."""
        self.run_until(table, table.tnow + 1)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _new_trip(self, leg: _Leg, at_node: int, t: float) -> None:
        """Start ``leg`` on a fresh trip from ``at_node`` at time ``t``."""
        network, rng = self.network, self._rng
        destination = network.sample_node(rng)
        while destination == at_node:
            destination = network.sample_node(rng)
        to_node = network.greedy_step(at_node, destination, rng)
        leg.start(network, at_node, to_node, destination, self.speed_model.sample(rng), t)

    def _advance_object(self, oid: int, t: int) -> None:
        """Move the object's logical state forward to time ``t``."""
        leg = self._legs[oid]
        while leg.arrival <= t:
            # Arrived at to_node at (fractional) time `arrival`; turn.
            node = leg.to_node
            if node == leg.destination:
                self._new_trip(leg, node, leg.arrival)
            else:
                nxt = self.network.greedy_step(node, leg.destination, self._rng)
                leg.start(self.network, node, nxt, leg.destination, leg.speed, leg.arrival)
            if leg.to_node == leg.at_node:
                break

    def _report(self, table: ObjectTable, oid: int, t: int) -> None:
        """Issue a position report at integer time ``t`` and schedule the next."""
        leg = self._legs[oid]
        dt = t - leg.depart_time
        table.report(oid, leg.x + leg.vx * dt, leg.y + leg.vy * dt, leg.vx, leg.vy)
        self.reports_issued += 1
        # Next report: when the heading will change (next intersection),
        # capped by the maximum update interval U.
        if leg.arrival == math.inf:
            next_t = t + self.update_interval
        else:
            next_t = min(math.ceil(leg.arrival), t + self.update_interval)
            if next_t <= t:
                next_t = t + 1
        heapq.heappush(self._events, next_t * self.n_objects + oid)
