"""Tests for the synthetic road network and trip simulation."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.errors import DatagenError
from repro.core.geometry import Rect
from repro.datagen.network import Hub, RoadNetwork, synthetic_metro
from repro.datagen.pointsets import clustered_workload, uniform_workload
from repro.datagen.trips import SpeedModel, TripSimulator
from repro.motion.model import Motion
from repro.motion.table import ObjectTable

DOMAIN = Rect(0.0, 0.0, 1000.0, 1000.0)


class TestSyntheticMetro:
    def test_node_count(self):
        net = synthetic_metro(DOMAIN, grid_n=10)
        assert net.node_count == 100

    def test_positions_inside_domain(self):
        net = synthetic_metro(DOMAIN, grid_n=15, seed=2)
        assert (net.positions[:, 0] >= DOMAIN.x1).all()
        assert (net.positions[:, 0] <= DOMAIN.x2).all()
        assert (net.positions[:, 1] >= DOMAIN.y1).all()
        assert (net.positions[:, 1] <= DOMAIN.y2).all()

    def test_lattice_adjacency(self):
        net = synthetic_metro(DOMAIN, grid_n=5)
        # Corner nodes have 2 neighbours, edges 3, interior 4.
        degrees = sorted(np.diff(net.neighbor_start))
        assert degrees[0] == 2
        assert degrees[-1] == 4
        assert sum(degrees) == 2 * (2 * 5 * 4)  # edges of a 5x5 grid graph

    def test_weights_peak_at_hubs(self):
        hub = Hub(500.0, 500.0, 10.0, 60.0)
        net = synthetic_metro(DOMAIN, grid_n=20, hubs=[hub], base_weight=0.01)
        centre = net.nearest_node(500.0, 500.0)
        corner = net.nearest_node(0.0, 0.0)
        assert net.weights[centre] > 10 * net.weights[corner]

    def test_sampling_biased_toward_hubs(self):
        hub = Hub(500.0, 500.0, 20.0, 50.0)
        net = synthetic_metro(DOMAIN, grid_n=20, hubs=[hub], base_weight=0.01)
        gen = np.random.default_rng(0)
        samples = net.sample_nodes(gen, 2000)
        positions = net.positions[samples]
        dist = np.hypot(positions[:, 0] - 500, positions[:, 1] - 500)
        # Most samples land near the hub.
        assert (dist < 200).mean() > 0.5

    def test_greedy_step_approaches_destination(self):
        net = synthetic_metro(DOMAIN, grid_n=10, seed=1)
        gen = np.random.default_rng(0)
        current = net.nearest_node(50.0, 50.0)
        destination = net.nearest_node(950.0, 950.0)
        for _ in range(40):
            nxt = net.greedy_step(current, destination, gen)
            if nxt == current:
                break
            d_now = np.hypot(*(net.positions[current] - net.positions[destination]))
            d_next = np.hypot(*(net.positions[nxt] - net.positions[destination]))
            assert d_next < d_now
            current = nxt
        assert current == destination

    def test_greedy_step_at_destination(self):
        net = synthetic_metro(DOMAIN, grid_n=5)
        gen = np.random.default_rng(0)
        assert net.greedy_step(7, 7, gen) == 7

    def test_validation(self):
        with pytest.raises(DatagenError):
            synthetic_metro(DOMAIN, grid_n=1)


class TestSpeedModel:
    def test_samples_in_range(self):
        model = SpeedModel(v_min_mph=25, v_max_mph=100, minutes_per_timestamp=1.0)
        gen = np.random.default_rng(0)
        samples = [model.sample(gen) for _ in range(500)]
        lo = 25.0 / 60.0
        hi = 100.0 / 60.0
        assert all(lo <= s <= hi for s in samples)

    def test_skewed_toward_low_speeds(self):
        model = SpeedModel()
        gen = np.random.default_rng(0)
        samples = np.array([model.sample(gen) for _ in range(2000)])
        midpoint = (samples.min() + samples.max()) / 2
        assert (samples < midpoint).mean() > 0.6  # right-skewed

    def test_validation(self):
        with pytest.raises(DatagenError):
            SpeedModel(v_min_mph=0, v_max_mph=10)
        with pytest.raises(DatagenError):
            SpeedModel(v_min_mph=50, v_max_mph=40)
        with pytest.raises(DatagenError):
            SpeedModel(minutes_per_timestamp=0)


class TestTripSimulator:
    def _sim(self, n=50, u=10, seed=0, grid_n=8):
        net = synthetic_metro(DOMAIN, grid_n=grid_n, seed=seed)
        return TripSimulator(net, n_objects=n, update_interval=u, seed=seed)

    def test_initialize_reports_all_objects(self):
        table = ObjectTable()
        sim = self._sim(n=30)
        sim.initialize(table)
        assert len(table) == 30
        assert sim.reports_issued == 30

    def test_double_initialize_rejected(self):
        table = ObjectTable()
        sim = self._sim()
        sim.initialize(table)
        with pytest.raises(DatagenError):
            sim.initialize(table)

    def test_run_requires_initialize(self):
        with pytest.raises(DatagenError):
            self._sim().run_until(ObjectTable(), 5)

    def test_objects_stay_roughly_in_domain(self):
        table = ObjectTable()
        sim = self._sim(n=40, u=5)
        sim.initialize(table)
        sim.run_until(table, 50)
        margin = 5.0  # linear prediction may overshoot one report period
        for _oid, x, y in table.positions_at(table.tnow):
            assert DOMAIN.x1 - margin <= x <= DOMAIN.x2 + margin
            assert DOMAIN.y1 - margin <= y <= DOMAIN.y2 + margin

    def test_every_object_reports_within_u(self):
        table = ObjectTable()
        u = 7
        sim = self._sim(n=40, u=u)
        sim.initialize(table)
        sim.run_until(table, 3 * u)
        for motion in table.motions():
            assert table.tnow - motion.t_ref <= u

    def test_reports_accumulate(self):
        table = ObjectTable()
        sim = self._sim(n=40, u=5)
        sim.initialize(table)
        sim.run_until(table, 20)
        # Every object must have re-reported at least 20/5 - 1 times.
        assert sim.reports_issued >= 40 * 4

    def test_deterministic_given_seed(self):
        t1, t2 = ObjectTable(), ObjectTable()
        self._sim(seed=9).initialize(t1)
        self._sim(seed=9).initialize(t2)
        for oid in range(50):
            a, b = t1.motion_of(oid), t2.motion_of(oid)
            assert (a.x, a.y, a.vx, a.vy) == (b.x, b.y, b.vx, b.vy)

    def test_velocity_magnitudes_match_speed_model(self):
        table = ObjectTable()
        sim = self._sim(n=60)
        sim.initialize(table)
        hi = 100.0 / 60.0
        for motion in table.motions():
            assert motion.speed <= hi + 1e-9

    def test_validation(self):
        net = synthetic_metro(DOMAIN, grid_n=5)
        with pytest.raises(DatagenError):
            TripSimulator(net, n_objects=0, update_interval=5)
        with pytest.raises(DatagenError):
            TripSimulator(net, n_objects=5, update_interval=0)

    def test_cannot_run_backwards(self):
        table = ObjectTable()
        sim = self._sim()
        sim.initialize(table)
        sim.run_until(table, 5)
        with pytest.raises(DatagenError):
            sim.run_until(table, 3)


def _reference_greedy_step(net, current, destination, rng):
    """The per-call form of ``greedy_step``: gather the neighbours'
    coordinates, take the nearest within 1e-9, draw among the ties."""
    if current == destination:
        return current
    nbrs = net.neighbor_ids[net.neighbor_start[current]:net.neighbor_start[current + 1]]
    dest = net.positions[destination]
    dists = np.hypot(net.positions[nbrs, 0] - dest[0], net.positions[nbrs, 1] - dest[1])
    candidates = nbrs[dists <= dists.min() + 1e-9]
    return int(candidates[rng.integers(len(candidates))])


class TestSamplerEquivalence:
    """Twin generators: the cached samplers draw what numpy's per-call
    forms draw, and leave the stream at the same place."""

    DRAWS = 10_000

    @staticmethod
    def _networks():
        metro = synthetic_metro(DOMAIN, grid_n=40, seed=7)
        # A narrow hub and no weight floor: every node farther than ~190
        # from the hub has exp(-d^2 / 2r^2) == 0, i.e. zero weight.
        sparse = synthetic_metro(
            DOMAIN, grid_n=20, hubs=[Hub(500.0, 500.0, 10.0, 5.0)], base_weight=0.0
        )
        assert (sparse.weights == 0).any() and (sparse.weights > 0).sum() > 1
        return [metro, sparse]

    @pytest.mark.parametrize("which", [0, 1])
    def test_sample_node_equals_choice(self, which):
        net = self._networks()[which]
        p = net.weights / float(net.weights.sum())
        ours, numpys = np.random.default_rng(11), np.random.default_rng(11)
        got = [net.sample_node(ours) for _ in range(self.DRAWS)]
        want = [int(numpys.choice(net.node_count, p=p)) for _ in range(self.DRAWS)]
        assert got == want
        assert all(isinstance(node, int) for node in got)
        assert (net.weights[got] > 0).all()
        assert ours.random() == numpys.random()

    @pytest.mark.parametrize("which", [0, 1])
    def test_sample_nodes_reads_the_same_cdf(self, which):
        net = self._networks()[which]
        p = net.weights / float(net.weights.sum())
        ours, numpys, scalar = (np.random.default_rng(12) for _ in range(3))
        got = net.sample_nodes(ours, self.DRAWS)
        assert np.array_equal(got, numpys.choice(net.node_count, size=self.DRAWS, p=p))
        assert got.tolist() == [net.sample_node(scalar) for _ in range(self.DRAWS)]
        assert ours.random() == numpys.random() == scalar.random()

    def test_integers_of_one_draws_nothing(self):
        # greedy_step skips the tie-break draw when one neighbour is nearest
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        assert a.integers(1) == 0
        assert a.random() == b.random()

    def test_greedy_step_equals_per_call_form(self):
        jittered = synthetic_metro(DOMAIN, grid_n=12, seed=3)
        # Unjittered lattice positions: diagonal destinations tie two
        # neighbours exactly, so the tie-break draw is exercised.
        g = np.arange(12) * 50.0 + 25.0
        exact = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        lattice = RoadNetwork(DOMAIN, exact, jittered.neighbor_start,
                              jittered.neighbor_ids, jittered.weights)
        for net in (jittered, lattice):
            pairs = np.random.default_rng(1).integers(net.node_count, size=(2000, 2))
            ours, reference = np.random.default_rng(2), np.random.default_rng(2)
            for current, destination in pairs.tolist():
                assert net.greedy_step(current, destination, ours) == _reference_greedy_step(
                    net, current, destination, reference
                )
            assert ours.random() == reference.random()


class _Stream:
    """A table double that keeps every report as text, floats by repr."""

    def __init__(self) -> None:
        self.tnow = 0
        self.motions = {}
        self.lines = []

    def report(self, oid, x, y, vx, vy):
        motion = Motion(oid, self.tnow, x, y, vx, vy)
        self.motions[oid] = motion
        self.lines.append(" ".join([str(self.tnow), str(oid)]
                                   + [repr(float(v)) for v in (x, y, vx, vy)]))
        return motion

    def advance_to(self, tnow):
        self.tnow = tnow

    def motion_of(self, oid):
        return self.motions[oid]


class TestGoldenStreams:
    """Each generator's whole report stream, pinned: a sha256 over the
    reports (tick, oid and repr floats), the report count, and the
    generator's next ``random()`` after the run.  The values were recorded
    with the per-call generator (no cached CDF, neighbour table or leg
    geometry), so a change that moves one float or one draw fails here."""

    @staticmethod
    def _run(simulator, t_end=130):
        stream = _Stream()
        simulator.initialize(stream)
        simulator.run_until(stream, t_end)
        digest = hashlib.sha256("\n".join(stream.lines).encode()).hexdigest()
        return digest, len(stream.lines), float(simulator._rng.random())

    def test_road_trips(self):
        net = synthetic_metro(DOMAIN, grid_n=40, seed=7)
        assert self._run(TripSimulator(net, n_objects=300, update_interval=60, seed=3)) == (
            "e15a1d5ee749cb1333a23dc56d2b34b3420a1925e43e0a2cda15fa0656db6909",
            1329,
            0.6022893447955803,
        )

    def test_uniform_walkers(self):
        assert self._run(uniform_workload(DOMAIN, 300, 60, seed=4)) == (
            "9ce8e7bcdff4800a322bea8daa23b75d92f09b528c56fa8680731639264e978f",
            946,
            0.9499981174285057,
        )

    def test_clustered_walkers(self):
        assert self._run(clustered_workload(DOMAIN, 300, 60, seed=5)) == (
            "8a76d295d9e36f4bf3460ea97a7490ceade18528e1a7865c57a7a39c7b53ed92",
            956,
            0.9817421797860334,
        )
