"""System configuration with the paper's (reconstructed) defaults.

Table 1 of the paper fixes the experimental setup; the OCR of the paper
dropped most digits, so DESIGN.md documents how each default below was
reconstructed from the surrounding prose.  In short: a 1000 x 1000 mile
domain, maximum update interval U = 60 and prediction window W = 60 (so the
horizon H = U + W = 120), neighborhood edges l of 30 or 60 miles, density
histograms of m^2 = 40000 cells, 400 degree-5 polynomials, an m_d = 512
evaluation grid, 4 KB pages, 10 ms per random I/O and a buffer of 10 % of
the dataset (the page model's three figures are constants of
:mod:`repro.storage.pages`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameterError
from .geometry import Rect

__all__ = ["SystemConfig", "DEFAULT_DOMAIN"]

DEFAULT_DOMAIN = Rect(0.0, 0.0, 1000.0, 1000.0)


@dataclass(frozen=True)
class SystemConfig:
    """Everything a :class:`~repro.core.system.PDRServer` needs to be built."""

    domain: Rect = DEFAULT_DOMAIN
    max_update_interval: int = 60  # U
    prediction_window: int = 60  # W
    l: float = 30.0  # neighborhood edge the PA method is built for
    histogram_cells: int = 200  # m  (m x m counters per timestamp)
    polynomial_grid: int = 20  # g  (g x g polynomials per timestamp)
    polynomial_degree: int = 5  # k
    evaluation_grid: int = 512  # m_d

    def __post_init__(self) -> None:
        if self.max_update_interval < 1:
            raise InvalidParameterError("U must be >= 1")
        if self.prediction_window < 0:
            raise InvalidParameterError("W must be >= 0")
        if self.l <= 0:
            raise InvalidParameterError("l must be positive")
        if self.histogram_cells < 1 or self.polynomial_grid < 1:
            raise InvalidParameterError("grid resolutions must be >= 1")
        cell_edge = self.domain.width / self.histogram_cells
        if cell_edge > self.l / 2.0:
            raise InvalidParameterError(
                f"histogram cell edge {cell_edge} exceeds l/2 = {self.l / 2}; "
                "the filter step requires l_c <= l/2 (Algorithm 1)"
            )

    @property
    def horizon(self) -> int:
        """Time horizon H = U + W (Section 4)."""
        return self.max_update_interval + self.prediction_window

    @property
    def histogram_cell_edge(self) -> float:
        return self.domain.width / self.histogram_cells
