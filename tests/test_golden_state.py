"""The write path's floats, pinned.

A sha256 over the DH counters and the PA coefficients of both bench worlds
after each step of one fixed drive: the bulk load, 20 ticks of advance +
wave, a wave of retires, a jump of ``W + 5`` ticks (every slot rebuilt
from the table), and first reports that reuse the retired rows followed by
another jump.  The values were recorded on the write path before its
passes were rewritten for fixed cost, so a change that moves one counter
or one coefficient bit fails here -- at the default pass budget and at a
budget of one motion-timestamp a pass alike.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from bench.worlds import T0, road_inputs, uniform_inputs
from repro import PDRServer
from repro.motion import updates


def _digests(server) -> tuple:
    dh, pa = server.histogram.state_arrays(), server.pa.state_arrays()
    return tuple(
        hashlib.sha256(
            b"".join(np.ascontiguousarray(state[key]).tobytes() for key in ("slot_time", field))
        ).hexdigest()[:16]
        for state, field in ((dh, "counts"), (pa, "coeffs"))
    )


def _drive(inputs) -> list:
    window = inputs.config.prediction_window
    server = PDRServer(inputs.config, expected_objects=inputs.n_objects, tnow=T0)
    steps = []
    server.report_batch(inputs.state)
    steps.append(_digests(server))
    for tick in range(T0 + 1, T0 + 21):
        server.advance_to(tick)
        server.report_batch(inputs.wave(tick))
    steps.append(_digests(server))
    retired = inputs.state[::7]
    for oid, *_ in retired:
        assert server.retire(oid)
    steps.append(_digests(server))
    server.advance_to(server.tnow + window + 5)
    steps.append(_digests(server))
    server.report_batch(retired[::-2])
    server.advance_to(server.tnow + 1)
    server.advance_to(server.tnow + window + 5)
    steps.append(_digests(server))
    return steps


GOLDEN = {
    # (DH, PA) after: bulk load, 20 ticks, retires, jump, reuse + jump
    "road": [
        ("34700fcdd1bbd9d7", "93b22c73c16666d2"),
        ("df1473b35d8afaca", "1772c422fff319ea"),
        ("f92547b22bb9c76d", "5919e8b3e06fcd82"),
        ("ed081cc1cf6a6d1c", "53e5b46fc3dd5b9d"),
        ("1dbcc3a22594d791", "1e1d445a3b9a9ca5"),
    ],
    "uniform": [
        ("6925d65aed5d26c1", "ec6c1f548e77ffbc"),
        ("b4b784985f066762", "e0e1e3a8268aebfe"),
        ("403998ec338dcf16", "d4b5854953c817b2"),
        ("23468e57226863a0", "b0a7b845773d6670"),
        ("497da0e5733e50ed", "804fb415396b5c88"),
    ],
}


@pytest.fixture(scope="module", params=["road", "uniform"])
def world(request):
    if request.param == "road":
        return request.param, road_inputs(2000, 101)
    return request.param, uniform_inputs(1000, 101)


@pytest.mark.parametrize("budget", ["default", "one"])
def test_write_path_state_is_pinned(world, budget, monkeypatch):
    name, inputs = world
    if budget == "one":
        monkeypatch.setattr(updates, "PASS_JOB_SLOTS", 1)
    assert _drive(inputs) == GOLDEN[name]
