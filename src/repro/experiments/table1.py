"""Table 1 — the experimental setup, as configured in this reproduction.

The paper's Table 1 lists every parameter of the evaluation; the OCR of the
source dropped most digits, so DESIGN.md documents each reconstruction.
This module renders the effective values for the active scale profile, so
bench output always states the configuration numbers were measured under.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..chebyshev.cheb2d import coefficient_count
from ..core.config import SystemConfig
from ..storage import pages
from .config import EDGE_SWEEP, VARRHO_SWEEP, ScaleProfile, active_profile

__all__ = ["run_table1"]


def run_table1(profile: Optional[ScaleProfile] = None) -> List[Dict]:
    """Parameter/value rows mirroring the paper's Table 1."""
    profile = profile or active_profile()
    cfg = SystemConfig()
    horizon = cfg.horizon
    g, k, m = cfg.polynomial_grid, cfg.polynomial_degree, cfg.histogram_cells
    # Per slot; the paper keeps the horizon's H slots, this system the query
    # window's W + 1 (DESIGN.md section 4).
    dh_mb = m * m * 4 / 1e6
    pa_mb = g * g * coefficient_count(k) * 8 / 1e6

    def memory(per_slot_mb: float) -> str:
        return (
            f"{horizon * per_slot_mb:.1f} MB paper (H slots), "
            f"{(cfg.prediction_window + 1) * per_slot_mb:.1f} MB stored (W + 1 slots)"
        )

    return [
        {"parameter": "Scale profile", "value": profile.name},
        {"parameter": "Page size", "value": f"{pages.PAGE_SIZE} B"},
        {"parameter": "Buffer size", "value": f"{pages.BUFFER_FRACTION:.0%} of dataset size"},
        {
            "parameter": "Random disk access time",
            "value": f"{pages.RANDOM_IO_SECONDS * 1000:.0f} ms",
        },
        {"parameter": "Maximum update interval (U)", "value": cfg.max_update_interval},
        {"parameter": "Prediction window length (W)", "value": cfg.prediction_window},
        {"parameter": "Time horizon (H = U + W)", "value": horizon},
        {
            "parameter": "Edge length of l-square (l)",
            "value": ", ".join(f"{l:g}" for l in EDGE_SWEEP),
        },
        {
            "parameter": "Number of objects",
            "value": ", ".join(
                profile.dataset_name(n) for n in profile.sizes
            ),
        },
        {
            "parameter": "Relative density threshold (varrho)",
            "value": ", ".join(f"{v:g}" for v in VARRHO_SWEEP),
        },
        {"parameter": "Num. of polynomials (g x g)", "value": f"{g * g} (g={g})"},
        {"parameter": "Degree of polynomial (k)", "value": k},
        {
            "parameter": "Num. of cells in density histogram (m x m)",
            "value": f"{m * m} (m={m})",
        },
        {
            "parameter": "Grid for polynomial evaluation (m_d x m_d)",
            "value": f"{cfg.evaluation_grid} x {cfg.evaluation_grid}",
        },
        {"parameter": "Queries per configuration", "value": profile.n_queries},
        {"parameter": "DH memory (default)", "value": memory(dh_mb)},
        {"parameter": "PA memory (default)", "value": memory(pa_mb)},
    ]
