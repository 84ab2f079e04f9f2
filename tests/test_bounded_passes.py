"""Whole-table waves stream through the ring listeners in bounded passes.

``Columns.passes`` cuts a wave's jobs into consecutive runs of at most
``PASS_JOB_SLOTS`` motion-timestamps.  The cut must not change a bit of
state (DH counts are integers; PA adds each coefficient's deltas in job
order however the jobs are cut), it must bound what a bulk load holds at
once whatever the table's size, and a pass must take its working set from
its listener's :class:`~repro.motion.updates.Workspace`, not from fresh
memory each time.
"""

from __future__ import annotations

import gc
import threading
import tracemalloc

import numpy as np
import pytest

from bench.worlds import T0, road_inputs, uniform_inputs
from repro import PDRServer, SystemConfig
from repro.motion import updates
from repro.motion.updates import Columns, Wave, workspace
from tests.conftest import small_system_config

UNBOUNDED = 1 << 62


def _state_bytes(server) -> bytes:
    parts = [server.histogram.state_arrays(), server.pa.state_arrays()]
    return b"".join(
        np.ascontiguousarray(value).tobytes() for state in parts for value in state.values()
    )


def _jobs_per_pass(monkeypatch, jobs: int, slots: int) -> None:
    monkeypatch.setattr(updates, "PASS_JOB_SLOTS", jobs * slots)


class TestPasses:
    def test_runs_are_consecutive_and_capped(self, monkeypatch):
        monkeypatch.setattr(updates, "PASS_JOB_SLOTS", 30)
        motions = Columns(*(np.arange(23, dtype=dtype) for dtype in (np.int64,) * 2 + (float,) * 4))
        runs = list(motions.passes(slots=7))  # 30 // 7 = 4 motions per run
        assert [rows for rows, _ in runs] == [slice(s, s + 4) for s in range(0, 23, 4)]
        assert np.array_equal(np.concatenate([run.oid for _, run in runs]), motions.oid)

    def test_a_window_wider_than_the_cap_still_takes_one_motion(self, monkeypatch):
        monkeypatch.setattr(updates, "PASS_JOB_SLOTS", 5)
        motions = Columns(*(np.zeros(3) for _ in range(6)))
        assert [len(run) for _, run in motions.passes(slots=121)] == [1, 1, 1]

    def test_empty_columns_have_no_pass(self):
        assert list(Columns(*(np.zeros(0) for _ in range(6))).passes(slots=121)) == []


def _drive_world(inputs) -> bytes:
    """Bulk load, 20 ticks of advance + wave, then a wave of retires."""
    server = PDRServer(inputs.config, expected_objects=inputs.n_objects, tnow=T0)
    server.report_batch(inputs.state)
    for tick in range(T0 + 1, T0 + 21):
        server.advance_to(tick)
        server.report_batch(inputs.wave(tick))
    for oid, *_ in inputs.state[::7]:
        assert server.retire(oid)
    return _state_bytes(server)


@pytest.fixture(scope="module", params=["road", "uniform"])
def bench_world(request):
    make = road_inputs if request.param == "road" else uniform_inputs
    n = 2000 if request.param == "road" else 1000
    return make(n, 101)


class TestByteIdentity:
    """Bench worlds: the default cut, and a budget of one motion-timestamp
    (one motion a pass, so every boundary a cut can have falls between two
    jobs, a delete and the insert that supersedes it included), leave DH
    and PA state byte-identical to one unbounded pass per wave."""

    def test_state_is_byte_identical_to_one_pass_per_wave(self, bench_world, monkeypatch):
        default = _drive_world(bench_world)
        monkeypatch.setattr(updates, "PASS_JOB_SLOTS", UNBOUNDED)
        unbounded = _drive_world(bench_world)
        monkeypatch.setattr(updates, "PASS_JOB_SLOTS", 1)
        one = _drive_world(bench_world)
        assert default == unbounded
        assert one == unbounded

    def test_one_motion_one_timestamp_passes_are_byte_identical(self, bench_world, monkeypatch):
        """A pass over one motion at one timestamp -- the whole of a pass's
        fixed cost -- leaves every DH and PA slot as one unbounded pass over
        all the motions and timestamps: a slot receives the motions in the
        same order either way."""
        server = PDRServer(bench_world.config, expected_objects=bench_world.n_objects, tnow=T0)
        server.report_batch(bench_world.state)
        motions = server.table.columns().take(slice(0, None, 50))
        for listener in (server.histogram, server.pa):
            slots = listener._slots
            ts = np.arange(T0, T0 + slots, dtype=np.int64)
            ring = listener._counts if listener is server.histogram else listener._coeffs
            whole, single = np.zeros_like(ring), np.zeros_like(ring)
            monkeypatch.setattr(updates, "PASS_JOB_SLOTS", UNBOUNDED)
            listener._materialise(motions, ts, whole, ts % slots)
            assert whole.any()
            for t in ts:
                at = np.array([t])
                for i in range(len(motions)):
                    listener._materialise(motions.take(slice(i, i + 1)), at, single, at % slots)
            assert single.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("jobs", [1, 2, 3, 5])
    def test_mixed_wave_of_retires_and_out_of_order_supersedes(self, monkeypatch, jobs):
        """One wave whose retracted motions are listed in another order than
        the reports that supersede them, with retires between them: PA
        reorders the jobs to delete_i, insert_i, and a pass boundary after
        an odd job cuts a delete from its insert."""
        config = small_system_config()
        slots = config.prediction_window + 1
        rng = np.random.default_rng(jobs)
        n, d = 24, 16
        t_ref = rng.integers(0, 5, d + n)
        xy = rng.uniform(0.0, 100.0, (2, d + n))
        v = rng.uniform(-3.0, 3.0, (2, d + n))
        motions = Columns(np.arange(d + n, dtype=np.int64), t_ref.astype(np.int64),
                          xy[0], xy[1], v[0], v[1])
        deleted, inserted = motions.take(slice(0, d)), motions.take(slice(d, d + n))
        inserted = Columns(inserted.oid, np.full(n, 5, dtype=np.int64), *list(inserted)[2:])
        supersedes = np.full(n, -1, dtype=np.intp)
        supersedes[rng.permutation(n)[:12]] = rng.permutation(d)[:12]  # 4 retires
        wave = Wave(5, deleted, np.arange(d), inserted, np.arange(n), supersedes)

        def apply() -> bytes:
            server = PDRServer(config, expected_objects=8, tnow=5)
            server.histogram.on_report_batch(wave)
            server.pa.on_report_batch(wave)
            return _state_bytes(server)

        monkeypatch.setattr(updates, "PASS_JOB_SLOTS", UNBOUNDED)
        unbounded = apply()
        _jobs_per_pass(monkeypatch, jobs, slots)
        assert apply() == unbounded


@pytest.mark.parametrize("seed", range(12))
def test_wave_jobs_run_in_report_order(seed):
    """``Wave.jobs`` is the stable order of the keys ``2 * turn`` (a
    retraction: the index of the report superseding it, a retire its own
    index) and ``2 * i + 1`` (report ``i``), retires colliding with reports'
    turns included."""
    rng = np.random.default_rng(seed)
    d, n = (int(v) for v in rng.integers(0, 12, 2))
    superseded = rng.permutation(d)[: int(rng.integers(0, min(d, n) + 1))]
    supersedes = np.full(n, -1, dtype=np.intp)
    supersedes[rng.permutation(n)[: superseded.shape[0]]] = superseded
    columns = [Columns(*(np.arange(k, dtype=dtype) for dtype in (np.int64,) * 2 + (float,) * 4))
               for k in (d, n)]
    wave = Wave(0, columns[0], np.arange(d), columns[1], np.arange(n), supersedes)
    turn = np.arange(d)
    replaces = supersedes >= 0
    turn[supersedes[replaces]] = np.flatnonzero(replaces)
    order = np.argsort(np.concatenate((2 * turn, 2 * np.arange(n) + 1)), kind="stable")
    jobs, retract = wave.jobs
    assert np.array_equal(retract, order < d)
    assert np.array_equal(jobs.oid, np.concatenate((columns[0].oid, columns[1].oid))[order])


def _in_fresh_thread(call):
    """``call()`` on a thread of its own, which starts with an empty
    workspace: its result and the bytes that workspace holds after it."""
    out = {}

    def run():
        out["result"] = call()
        out["workspace"] = workspace().nbytes()

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    return out["result"], out["workspace"]


def _bulk_load_transient(n: int) -> int:
    """tracemalloc's peak during a bulk-load ``report_batch`` of a uniform
    world of ``n`` objects, less what the load keeps apart from the thread's
    workspace: run on a fresh thread, the load grows that workspace, which
    is its passes' working set, not state."""
    inputs = uniform_inputs(n, 5)
    server = PDRServer(inputs.config, expected_objects=n, tnow=T0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        server.report_batch(inputs.state)
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept - before < peak - before
    return peak - kept + workspace().nbytes()


# A PA pass holds ~520 bytes per motion-timestamp in the workspace at its
# peak (the squares' bounds, their strips and integrals, the rectangles'
# index columns) beside one ~0.9 MB flush; the rest of a bulk load (wave
# columns, table rows, tree) is a few hundred bytes per object.
BYTES_PER_JOB_SLOT = 1024


def test_bulk_load_transient_does_not_grow_with_the_table():
    """Both sizes take several passes; 4x the objects must not mean 4x the
    transient (the unbounded pass held ~56 kB per object)."""
    slots = SystemConfig().prediction_window + 1
    n = 5 * (updates.PASS_JOB_SLOTS // slots) // 4
    small, large = (
        _in_fresh_thread(lambda size=size: _bulk_load_transient(size))[0] for size in (n, 4 * n)
    )
    assert large <= 1.25 * small, (small, large)
    bound = BYTES_PER_JOB_SLOT * updates.PASS_JOB_SLOTS
    assert small <= bound and large <= bound, (small, large, bound)


def _pass_peaks(listener, motions, ring) -> list:
    """tracemalloc's peak during each of three identical materialisations
    of ``motions`` over the listener's window into ``ring``."""
    slots = listener._slots
    ts = np.arange(listener.tnow, listener.tnow + slots, dtype=np.int64)
    peaks = []
    for _ in range(3):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            listener._materialise(motions, ts, ring, ts % slots)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    return peaks


@pytest.mark.parametrize("listener", ["pa", "histogram"])
def test_a_second_identical_pass_reuses_the_workspace(listener, monkeypatch):
    """On a thread that has run no pass, the first full-budget pass fills
    the thread's workspace; the same pass again allocates no array of the
    pass's size, only numpy's per-call buffers, masks of a byte per
    motion-timestamp, PA's index of its squares and PA's flushes (~0.9 MB
    whatever the budget).  At four times the default budget those are a
    tenth of a first pass (a second pass that reused nothing measured ~0.5
    of the first for DH and ~0.95 for PA)."""
    inputs = uniform_inputs(1000, 5)
    loaded = PDRServer(inputs.config, expected_objects=1000, tnow=T0)
    loaded.report_batch(inputs.state)
    monkeypatch.setattr(updates, "PASS_JOB_SLOTS", 4 * updates.PASS_JOB_SLOTS)
    target = getattr(loaded, listener)
    motions = loaded.table.columns().take(slice(0, updates.PASS_JOB_SLOTS // target._slots))
    ring = np.zeros_like(target._coeffs if listener == "pa" else target._counts)
    (first, *again), work = _in_fresh_thread(lambda: _pass_peaks(target, motions, ring))
    assert first >= work > 0
    assert max(again) <= first / 4, (first, again)


@pytest.mark.parametrize("listener", ["pa", "histogram"])
def test_a_one_motion_one_timestamp_pass_takes_its_arrays_from_the_workspace(listener):
    """The fixed-cost path: after the first pass over one motion at one
    timestamp, the same pass again fits the workspace the first one left
    (which does not grow) and allocates no more than the first did."""
    inputs = uniform_inputs(1000, 5)
    loaded = PDRServer(inputs.config, expected_objects=1000, tnow=T0)
    loaded.report_batch(inputs.state)
    target = getattr(loaded, listener)
    motion = loaded.table.columns().take(slice(3, 4))
    ts = np.array([target.tnow + 2])
    ring = np.zeros_like(target._coeffs if listener == "pa" else target._counts)

    def passes():
        peaks, sizes = [], []
        for _ in range(3):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                target._materialise(motion, ts, ring, ts % target._slots)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
            sizes.append(workspace().nbytes())
        return peaks, sizes

    ((first, *again), sizes), _ = _in_fresh_thread(passes)
    assert ring.any()
    assert sizes[0] > 0 and len(set(sizes)) == 1, sizes
    assert max(again) <= first, (first, again)


def test_every_server_on_a_thread_shares_its_workspace():
    """A second server built on the thread (a recovery, a replica, the
    next bulk load) takes its passes' arrays from the arena the first one
    grew: its bulk load grows nothing."""
    inputs = uniform_inputs(1000, 5)

    def two_loads():
        sizes = []
        for _ in range(2):
            PDRServer(inputs.config, expected_objects=1000, tnow=T0).report_batch(inputs.state)
            sizes.append(workspace().nbytes())
        return sizes

    (first, second), _ = _in_fresh_thread(two_loads)
    assert first == second > 0
