"""Shared fixtures for the PDR reproduction test suite."""

from __future__ import annotations

import contextlib
from typing import Optional

import numpy as np
import pytest

from repro import PDRServer, SystemConfig
from repro.core.geometry import Rect
from repro.storage import pages


@contextlib.contextmanager
def small_pages(leaf: int, internal: Optional[int] = None):
    """Trees built inside hold ``leaf`` rows a leaf and ``internal``
    (default ``leaf``) children a node: a tree reads the page model's
    fanouts when it is built."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pages, "LEAF_FANOUT", leaf)
        mp.setattr(pages, "INTERNAL_FANOUT", leaf if internal is None else internal)
        yield


@pytest.fixture
def unit_domain() -> Rect:
    return Rect(0.0, 0.0, 100.0, 100.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20070401)


def small_system_config() -> SystemConfig:
    """A compact configuration used by integration tests.

    Domain 100x100, U=6, W=6 (H=12), l=10, m=20 (cell edge 5 = l/2),
    g=5, k=4, m_d=128 — small enough that every structure updates in
    microseconds but every code path (multi-tile squares, ring buffer,
    filter radii > 1) is exercised.
    """
    return SystemConfig(
        domain=Rect(0.0, 0.0, 100.0, 100.0),
        max_update_interval=6,
        prediction_window=6,
        l=10.0,
        histogram_cells=20,
        polynomial_grid=5,
        polynomial_degree=4,
        evaluation_grid=128,
    )


@pytest.fixture
def small_config() -> SystemConfig:
    return small_system_config()


@pytest.fixture
def small_server(small_config) -> PDRServer:
    return PDRServer(small_config, expected_objects=200)


def populate_clustered(server: PDRServer, n: int, seed: int = 1) -> None:
    """Half the objects in two tight clusters, half uniform background."""
    gen = np.random.default_rng(seed)
    domain = server.config.domain
    oid = 0
    for _ in range(n // 4):
        x, y = gen.normal([30.0, 30.0], 3.0, size=2)
        server.report(oid, float(np.clip(x, 1, 99)), float(np.clip(y, 1, 99)),
                      float(gen.uniform(-0.2, 0.2)), float(gen.uniform(-0.2, 0.2)))
        oid += 1
    for _ in range(n // 4):
        x, y = gen.normal([70.0, 65.0], 4.0, size=2)
        server.report(oid, float(np.clip(x, 1, 99)), float(np.clip(y, 1, 99)),
                      float(gen.uniform(-0.2, 0.2)), float(gen.uniform(-0.2, 0.2)))
        oid += 1
    while oid < n:
        x = float(gen.uniform(domain.x1 + 1, domain.x2 - 1))
        y = float(gen.uniform(domain.y1 + 1, domain.y2 - 1))
        server.report(oid, x, y, float(gen.uniform(-0.3, 0.3)),
                      float(gen.uniform(-0.3, 0.3)))
        oid += 1


@pytest.fixture
def populated_server(small_server) -> PDRServer:
    populate_clustered(small_server, 120)
    return small_server
