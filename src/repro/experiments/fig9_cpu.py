"""Figure 9 — CPU costs of PA vs the DH filter step (medium dataset).

* 9(a): query CPU vs the relative threshold, for l = 30 and l = 60.
  Expected shape: DH is flat in the threshold (it always classifies every
  cell) while PA *drops* as the threshold grows (branch-and-bound prunes
  more); PA undercuts DH at higher thresholds.
* 9(b): maintenance CPU per location update.  Expected shape: PA costs
  roughly an order of magnitude more per update than DH (it evaluates
  arccos/sin per covered timestamp), the price of its far better accuracy.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..histogram.filter import filter_query
from .config import EDGE_SWEEP, VARRHO_SWEEP, ScaleProfile, active_profile
from .datasets import World, get_world, medium_world_spec

__all__ = ["run_fig9a", "run_fig9b"]


def _medium_world(profile: ScaleProfile, world: Optional[World]) -> World:
    if world is not None:
        return world
    return get_world(medium_world_spec(profile), profile.raster_resolution)


def run_fig9a(
    profile: Optional[ScaleProfile] = None, world: Optional[World] = None
) -> List[Dict]:
    """Rows: mean query CPU (seconds) of PA and DH per (l, varrho).

    The DH cost is the *classification* cost of the filter step ("we must
    check the candidacy for each cell, regardless of the threshold"),
    which is what the paper's flat DH curve plots; materialising the answer
    set is common to every method and scales with the answer, not with the
    classification work.  Every timed call starts with the histogram's
    prefix/block-sum memo empty: the sweep reuses the same ``qts`` under
    every threshold, and a warm call would time two dict lookups.
    """
    profile = profile or active_profile()
    world = _medium_world(profile, world)
    server = world.server
    qts = world.query_times(profile.n_queries)
    rows: List[Dict] = []
    for l in EDGE_SWEEP:
        for varrho in VARRHO_SWEEP:
            pa_cpu = dh_cpu = 0.0
            bnb_nodes = 0.0
            for qt in qts:
                query = server.make_query(qt=qt, l=l, varrho=varrho)
                pa_result = world.pa_for(l).query(query)
                server.histogram.shed_caches()
                start = time.perf_counter()
                filter_query(server.histogram, query)
                dh_cpu += time.perf_counter() - start
                pa_cpu += pa_result.stats.cpu_seconds
                bnb_nodes += pa_result.stats.bnb_nodes
            n = len(qts)
            rows.append(
                {
                    "l": l,
                    "varrho": varrho,
                    "pa_cpu_s": pa_cpu / n,
                    "dh_cpu_s": dh_cpu / n,
                    "pa_bnb_nodes": bnb_nodes / n,
                }
            )
    return rows


def run_fig9b(
    profile: Optional[ScaleProfile] = None, world: Optional[World] = None
) -> List[Dict]:
    """Rows: mean maintenance CPU per location update, DH vs PA.

    Timers accumulate over the world's entire warm-up update stream, so the
    averages cover the same inserts and deletes for both structures.
    """
    profile = profile or active_profile()
    world = _medium_world(profile, world)
    rows = [
        {
            "structure": "DH",
            "config": f"m={world.spec.histogram_cells}",
            "ms_per_update": world.dh_timer.mean_millis_per_update,
            "updates": world.dh_timer.updates,
        },
        {
            "structure": "PA",
            "config": (
                f"g={world.spec.polynomial_grid} k={world.spec.polynomial_degree} "
                f"l={world.spec.l:g}"
            ),
            "ms_per_update": world.pa_timer.mean_millis_per_update,
            "updates": world.pa_timer.updates,
        },
    ]
    for (g, k, l), timer in sorted(world.extra_pa_timers.items()):
        rows.append(
            {
                "structure": "PA",
                "config": f"g={g} k={k} l={l:g}",
                "ms_per_update": timer.mean_millis_per_update,
                "updates": timer.updates,
            }
        )
    for m, timer in sorted(world.extra_histogram_timers.items()):
        rows.append(
            {
                "structure": "DH",
                "config": f"m={m}",
                "ms_per_update": timer.mean_millis_per_update,
                "updates": timer.updates,
            }
        )
    return rows
