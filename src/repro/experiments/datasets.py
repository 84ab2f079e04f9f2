"""Dataset (world) construction and caching for the experiment harness.

A *world* is a fully warmed-up :class:`~repro.core.system.PDRServer` — road
network, trip simulator, TPR-tree, density histograms and Chebyshev
surfaces — plus any *variant* structures an experiment sweeps over (extra
polynomial configurations for the memory/accuracy trade-off of Figure 8(c,d),
extra histogram resolutions for the DH side of the same plot, and a second
PA instance for the ``l = 60`` curves).

Worlds are expensive to build (every report feeds every maintained
structure), so they are memoised per spec within the process; all figure
runners and benchmarks share them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.config import SystemConfig
from ..core.errors import InvalidParameterError
from ..core.query import QueryResult, SnapshotPDRQuery
from ..core.system import PDRServer
from ..datagen.network import synthetic_metro
from ..datagen.trips import TripSimulator
from ..histogram.density_histogram import DensityHistogram
from ..methods.pa import PAMethod
from ..metrics.cost import UpdateCostTimer
from ..metrics.instrument import TimedListener
from ..metrics.raster import RasterMeasure
from .config import ScaleProfile

__all__ = ["WorldSpec", "World", "get_world", "clear_world_cache", "time_updates"]

PAVariant = Tuple[int, int, float]  # (g, k, l)


@dataclass(frozen=True)
class WorldSpec:
    """Everything that determines a world's state (the memoisation key)."""

    n_objects: int
    warmup: int = 60
    network_grid: int = 40
    seed: int = 7
    l: float = 30.0
    histogram_cells: int = 200
    polynomial_grid: int = 20
    polynomial_degree: int = 5
    evaluation_grid: int = 512
    extra_pa: Tuple[PAVariant, ...] = ()
    extra_histograms: Tuple[int, ...] = ()


@dataclass
class World:
    """A warmed-up server plus its variant structures and helpers."""

    spec: WorldSpec
    server: PDRServer
    simulator: TripSimulator
    # Figure 9(b): the primary histogram's and PA's share of the update stream
    dh_timer: UpdateCostTimer = field(default_factory=UpdateCostTimer)
    pa_timer: UpdateCostTimer = field(default_factory=UpdateCostTimer)
    extra_pa: Dict[PAVariant, PAMethod] = field(default_factory=dict)
    extra_pa_timers: Dict[PAVariant, UpdateCostTimer] = field(default_factory=dict)
    extra_histograms: Dict[int, DensityHistogram] = field(default_factory=dict)
    extra_histogram_timers: Dict[int, UpdateCostTimer] = field(default_factory=dict)
    raster: Optional[RasterMeasure] = None
    _exact_cache: Dict[Tuple[float, float, int], QueryResult] = field(
        default_factory=dict
    )

    # ------------------------------------------------------------------
    # structure lookup
    # ------------------------------------------------------------------
    def pa_for(self, l: float, g: Optional[int] = None, k: Optional[int] = None) -> PAMethod:
        """The PA instance maintained for ``(g, k, l)``.

        With ``g``/``k`` omitted, prefers the primary-configuration instance
        for that ``l`` and otherwise falls back to the unique maintained
        variant with matching ``l``.
        """
        primary = self.server.pa
        want_g = g if g is not None else self.spec.polynomial_grid
        want_k = k if k is not None else self.spec.polynomial_degree
        if (
            abs(primary.l - l) < 1e-9
            and primary.spec.g == want_g
            and primary.spec.k == want_k
        ):
            return primary
        key = (want_g, want_k, l)
        if key in self.extra_pa:
            return self.extra_pa[key]
        if g is None and k is None:
            matches = [pa for (vg, vk, vl), pa in self.extra_pa.items()
                       if abs(vl - l) < 1e-9]
            if len(matches) == 1:
                return matches[0]
            if len(matches) > 1:
                raise InvalidParameterError(
                    f"multiple PA variants maintained for l={l}; "
                    "disambiguate with g= and k="
                )
        raise InvalidParameterError(
            f"world was not built with a PA variant (g={want_g}, k={want_k}, "
            f"l={l}); available: primary plus {sorted(self.extra_pa)}"
        )

    def histogram_for(self, m: int) -> DensityHistogram:
        if m == self.spec.histogram_cells:
            return self.server.histogram
        if m not in self.extra_histograms:
            raise InvalidParameterError(
                f"world was not built with an m={m} histogram; "
                f"available: {self.spec.histogram_cells} plus {sorted(self.extra_histograms)}"
            )
        return self.extra_histograms[m]

    # ------------------------------------------------------------------
    # workload helpers
    # ------------------------------------------------------------------
    def query_times(self, n_queries: int, seed: int = 1234) -> List[int]:
        """Query timestamps uniform in ``[t_now, t_now + W]`` (Section 7)."""
        rng = np.random.default_rng(seed)
        w = self.server.config.prediction_window
        return [
            int(self.server.tnow + rng.integers(0, w + 1)) for _ in range(n_queries)
        ]

    def exact_answer(self, query: SnapshotPDRQuery) -> QueryResult:
        """Ground truth ``D``: the exact FR evaluation of ``query`` (memoised).

        FR equals the brute-force sweep exactly (property-tested in
        ``tests/test_methods_fr.py``) and is orders of magnitude faster on
        large datasets, so the harness uses it as the reference ``D``.
        """
        key = (query.rho, query.l, query.qt)
        if key not in self._exact_cache:
            self._exact_cache[key] = self.server.evaluate("fr", query)
        return self._exact_cache[key]


_WORLD_CACHE: Dict[WorldSpec, World] = {}


def clear_world_cache() -> None:
    _WORLD_CACHE.clear()


def time_updates(table, structure) -> UpdateCostTimer:
    """Subscribe ``structure`` to ``table`` behind a :class:`TimedListener`
    and return the timer it charges (Figure 9(b))."""
    timer = UpdateCostTimer()
    table.add_listener(TimedListener(structure, timer))
    return timer


def build_world(spec: WorldSpec, raster_resolution: int = 2048) -> World:
    """Construct and warm up a world (no caching; prefer :func:`get_world`)."""
    config = SystemConfig(
        l=spec.l,
        histogram_cells=spec.histogram_cells,
        polynomial_grid=spec.polynomial_grid,
        polynomial_degree=spec.polynomial_degree,
        evaluation_grid=spec.evaluation_grid,
    )
    server = PDRServer(config, expected_objects=spec.n_objects)
    # The server subscribes its histogram and PA untimed; the world times
    # them the way it times the variants below.
    server.table.remove_listener(server.histogram)
    server.table.remove_listener(server.pa)
    world = World(
        spec=spec,
        server=server,
        simulator=None,  # set below
        dh_timer=time_updates(server.table, server.histogram),
        pa_timer=time_updates(server.table, server.pa),
        raster=RasterMeasure(config.domain, raster_resolution),
    )
    # Variant structures subscribe to the same update stream as the primary
    # ones, so one simulation pass maintains every configuration under test.
    for variant in spec.extra_pa:
        g, k, l = variant
        pa = PAMethod(
            config.domain,
            l=l,
            horizon=config.horizon,
            g=g,
            k=k,
            md=spec.evaluation_grid,
            prediction_window=config.prediction_window,
            table=server.table,
        )
        world.extra_pa[variant] = pa
        world.extra_pa_timers[variant] = time_updates(server.table, pa)
    for m in spec.extra_histograms:
        hist = DensityHistogram(
            config.domain,
            m=m,
            horizon=config.horizon,
            prediction_window=config.prediction_window,
            table=server.table,
        )
        world.extra_histograms[m] = hist
        world.extra_histogram_timers[m] = time_updates(server.table, hist)

    network = synthetic_metro(config.domain, grid_n=spec.network_grid, seed=spec.seed)
    simulator = TripSimulator(
        network,
        n_objects=spec.n_objects,
        update_interval=config.max_update_interval,
        seed=spec.seed,
    )
    simulator.initialize(server.table)
    simulator.run_until(server.table, spec.warmup)
    world.simulator = simulator
    return world


def get_world(spec: WorldSpec, raster_resolution: int = 2048) -> World:
    """Memoised :func:`build_world`."""
    if spec not in _WORLD_CACHE:
        _WORLD_CACHE[spec] = build_world(spec, raster_resolution)
    return _WORLD_CACHE[spec]


def medium_world_spec(profile: ScaleProfile) -> WorldSpec:
    """The shared medium world: includes every variant Figures 8-10a sweep.

    Variants: one PA per polynomial-budget point of Figure 8(c,d), the
    ``l = 60`` PA for Figures 8(a,b)/9(a), and the extra histogram
    resolutions for the DH side of Figure 8(c,d).
    """
    return WorldSpec(
        n_objects=profile.medium,
        warmup=profile.warmup,
        network_grid=profile.network_grid,
        extra_pa=(
            (10, 5, 30.0),
            (20, 3, 30.0),
            (20, 4, 30.0),
            (28, 5, 30.0),
            (20, 5, 60.0),
        ),
        # 100/250/400 give cell edges 10/4/2.5: the conservative-neighborhood
        # width (2*floor(l/2lc) - 1)*lc grows 10 -> 20 -> 27.5, so accuracy
        # improves with memory (with a visible granularity wiggle at 250,
        # where l/(2 lc) = 3.75 is far from an integer).
        extra_histograms=(100, 250, 400),
    )


def plain_world_spec(profile: ScaleProfile, n_objects: int) -> WorldSpec:
    """A world with only the primary structures (Figure 7 / 10(b))."""
    return WorldSpec(
        n_objects=n_objects,
        warmup=profile.warmup,
        network_grid=profile.network_grid,
    )
