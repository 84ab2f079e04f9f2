"""Seeded benchmark inputs: worlds, per-tick report waves and query lists.

Everything the program under test receives is generated here from
``repro.datagen`` and the workload seed; the same seed gives the same
inputs (``Inputs.digest`` is their sha256), another seed gives others.

The simulators are recorded through :class:`Recorder`, a duck-typed stand-in
for ``ObjectTable`` — the generator never touches a server, so generating a
trace costs no maintained-structure work and can be timed on its own.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.core.config import SystemConfig
from repro.datagen import TripSimulator, synthetic_metro, uniform_workload
from repro.motion.model import Motion

__all__ = ["Recorder", "Inputs", "road_inputs", "uniform_inputs", "T0"]

Report = Tuple[int, float, float, float, float]
Query = Tuple[float, float, int]  # (l, varrho, qt offset from tnow)

# The tick at which a world's state is taken.  U = 60, so by then every
# object has reported at least once and the staggered steady state
# (~ n / U reports per tick) is reached.
T0 = 60
# The road map is fixed, as the paper's Chicago network is; the workload seed
# drives the traffic on it and the query times.
NETWORK_SEED = 7
NETWORK_GRID = 40
# Waves covered by the input digest (later ones are the deterministic
# continuation of the same simulator).
DIGEST_TICKS = 40


class Recorder:
    """What a datagen simulator sees instead of an ``ObjectTable``."""

    def __init__(self) -> None:
        self.tnow = 0
        self.motions: Dict[int, Motion] = {}
        self.waves: Dict[int, List[Report]] = {}

    def report(self, oid: int, x: float, y: float, vx: float, vy: float) -> Motion:
        motion = Motion(oid, self.tnow, x, y, vx, vy)
        self.motions[oid] = motion
        self.waves.setdefault(self.tnow, []).append((oid, x, y, vx, vy))
        return motion

    def advance_to(self, tnow: int) -> None:
        self.tnow = tnow

    def motion_of(self, oid: int) -> Motion:
        return self.motions[oid]


class Inputs:
    """One world: the tick-``T0`` state, the waves after it, the query lists."""

    def __init__(self, kind: str, n_objects: int, seed: int, simulator, pa_times: int) -> None:
        started = time.perf_counter()
        self.kind = kind
        self.n_objects = n_objects
        self.seed = seed
        self.config = SystemConfig()
        self._simulator = simulator
        self._recorder = Recorder()
        simulator.initialize(self._recorder)
        simulator.run_until(self._recorder, T0)
        # Motion is linear between reports, so extrapolating every object's
        # last report to T0 gives its true position there.
        self.state: List[Report] = [
            (oid, *m.position_at(T0), m.vx, m.vy)
            for oid, m in sorted(self._recorder.motions.items())
        ]
        self.wave(T0 + DIGEST_TICKS)
        rng = np.random.default_rng([seed, 0x51])
        window = self.config.prediction_window

        def offsets(count: int) -> List[int]:
            # One query time per equal slice of [tnow, tnow + W], dealt to the
            # list in a fixed order: the seed moves each time within its slice
            # only, so another seed's list costs about as much as this one's.
            width = (window + 1) / count
            slices = [int((i + rng.random()) * width) for i in range(count)]
            return [slices[(3 * i) % count] for i in range(count)]

        # Section 7 / Table 1: l in {30, 60}, relative threshold 1..5, qt in
        # [tnow, tnow + W].
        shapes = [(l, float(varrho)) for l in (30.0, 60.0) for varrho in range(1, 6)]
        self.fr_queries: List[Query] = [
            (l, varrho, offset) for (l, varrho), offset in zip(shapes, offsets(len(shapes)))
        ]
        shapes = [(30.0, float(varrho)) for varrho in range(1, 6) for _ in range(pa_times)]
        self.pa_queries: List[Query] = [
            (l, varrho, offset) for (l, varrho), offset in zip(shapes, offsets(len(shapes)))
        ]
        self.gen_seconds = time.perf_counter() - started
        self.digest = self._digest()

    def wave(self, tick: int) -> List[Report]:
        """The reports of ``tick`` (> T0); simulates further when needed."""
        if self._recorder.tnow < tick:
            self._simulator.run_until(self._recorder, tick)
        return self._recorder.waves.get(tick, [])

    def reports_per_tick(self) -> List[int]:
        return [len(self.wave(t)) for t in range(T0 + 1, T0 + DIGEST_TICKS + 1)]

    def _digest(self) -> str:
        payload = {
            "kind": self.kind,
            "state": self.state,
            "waves": [self.wave(t) for t in range(T0 + 1, T0 + DIGEST_TICKS + 1)],
            "fr": self.fr_queries,
            "pa": self.pa_queries,
        }
        # repr-exact floats: json.dumps round-trips doubles
        return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def road_inputs(n_objects: int, seed: int, pa_times: int = 2) -> Inputs:
    """Road-network trips (hub-skewed traffic, 25-100 mph legs)."""
    config = SystemConfig()
    network = synthetic_metro(config.domain, grid_n=NETWORK_GRID, seed=NETWORK_SEED)
    simulator = TripSimulator(
        network, n_objects=n_objects, update_interval=config.max_update_interval, seed=seed
    )
    return Inputs("road", n_objects, seed, simulator, pa_times)


def uniform_inputs(n_objects: int, seed: int, pa_times: int = 2) -> Inputs:
    """Uniform free-space random walkers (no spatial skew)."""
    config = SystemConfig()
    simulator = uniform_workload(
        config.domain, n_objects, config.max_update_interval, seed=seed
    )
    return Inputs("uniform", n_objects, seed, simulator, pa_times)
