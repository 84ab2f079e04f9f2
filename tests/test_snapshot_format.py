"""Snapshot format 4: an uncompressed image of the DH ring's nonzero cells
and PA's retained coefficients.

Two properties: every way to the image and back — ``save_server`` /
``load_server`` and ``checkpoint`` / ``PDRServer.recover`` — restores the
maintained state byte for byte, and reading an image stays total: a
flipped payload byte (caught by the zip member's CRC-32, there being no
deflate stream left to fail) or a CRC-valid image with malformed cells or
a mis-shaped coefficient ring raises :class:`StorageError`, never an
``IndexError`` or ``ValueError``, so recovery falls back to the previous
checkpoint.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import PDRServer
from repro.core.errors import StorageError
from repro.reliability import statedir
from repro.reliability.validation import ReliabilityConfig
from repro.storage.snapshot import load_server, read_snapshot, save_server
from tests.conftest import populate_clustered, small_system_config

N_OIDS = 40


def _wave(kind: str, n: int, seed: int):
    """``n`` reports over ``N_OIDS`` ids (so re-reports supersede): on a
    10-unit road grid moving along their road, or uniform in space and
    velocity."""
    gen = np.random.default_rng(seed)
    oids = gen.choice(N_OIDS, size=n, replace=False)
    if kind == "road":
        road = gen.integers(1, 10, size=n) * 10.0
        along = gen.uniform(1.0, 99.0, size=n)
        speed = gen.uniform(-3.0, 3.0, size=n)
        horizontal = gen.random(n) < 0.5
        x, y = np.where(horizontal, along, road), np.where(horizontal, road, along)
        vx, vy = np.where(horizontal, speed, 0.0), np.where(horizontal, 0.0, speed)
    else:
        x, y = gen.uniform(1.0, 99.0, size=(2, n))
        vx, vy = gen.uniform(-3.0, 3.0, size=(2, n))
    return list(zip(oids.tolist(), x.tolist(), y.tolist(), vx.tolist(), vy.tolist()))


def _leave(server: PDRServer) -> None:
    """Send every live object out of the domain within one tick, then take
    that tick: no cell of any maintained slot is left nonzero."""
    rows = [(oid, 99.5, 50.0, 40.0, 0.0) for oid in server.table.columns().oid.tolist()]
    if rows:
        server.report_batch(rows)
    server.advance_to(server.tnow + 1)


STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("wave"), st.sampled_from(["road", "uniform"]),
            st.integers(1, N_OIDS), st.integers(0, 2**16),
        ),
        st.tuples(st.just("advance"), st.integers(1, 8)),
        st.tuples(st.just("retire"), st.integers(0, 2**16)),
    ),
    max_size=10,
)


def _run(server: PDRServer, steps, leave: bool) -> None:
    for step in steps:
        if step[0] == "wave":
            server.report_batch(_wave(*step[1:]))
        elif step[0] == "advance":
            server.advance_to(server.tnow + step[1])
        else:
            live = server.table.columns().oid
            gen = np.random.default_rng(step[1])
            for oid in gen.permutation(live)[: len(live) // 3].tolist():
                assert server.retire(oid)
    if leave:
        _leave(server)


def _answers(server: PDRServer):
    out = []
    for qt in (server.tnow, server.tnow + 4, server.tnow + server.config.horizon):
        for rho in (0.003, 0.02):
            for method in ("fr", "pa"):
                bounds = server.query(method, qt=qt, rho=rho).regions.bounds
                out.append(bounds[np.lexsort(bounds.T[::-1])] if method == "fr" else bounds)
    return out


def assert_same_state(restored: PDRServer, live: PDRServer) -> None:
    assert restored.tnow == live.tnow
    assert restored.histogram._counts.tobytes() == live.histogram._counts.tobytes()
    assert restored.histogram._counts.flags.c_contiguous
    assert restored.pa._coeffs.tobytes() == live.pa._coeffs.tobytes()
    assert restored.pa._coeffs.flags.c_contiguous
    assert restored.histogram._slot_time.tobytes() == live.histogram._slot_time.tobytes()
    assert restored.pa._slot_time.tobytes() == live.pa._slot_time.tobytes()
    for got, want in zip(restored.table.columns(), live.table.columns()):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for got, want in zip(_answers(restored), _answers(live)):
        assert np.array_equal(got, want)
    restored.tree.validate()
    assert restored.audit() == []


class TestRoundTrip:
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(steps=STEPS, leave=st.booleans())
    @example(steps=[], leave=False)  # an empty server
    @example(steps=[], leave=True)
    @example(steps=[("wave", "road", N_OIDS, 7), ("advance", 3)], leave=True)
    @example(
        steps=[("wave", "uniform", 30, 1), ("advance", 8), ("wave", "road", 25, 2),
               ("advance", 8), ("retire", 3), ("advance", 5)],
        leave=False,
    )
    def test_save_load_and_checkpoint_recover_restore_every_byte(self, steps, leave):
        with tempfile.TemporaryDirectory() as tmp:
            rc = ReliabilityConfig(state_dir=os.path.join(tmp, "state"), fsync=False)
            server = PDRServer(small_system_config(), expected_objects=N_OIDS, reliability=rc)
            _run(server, steps, leave)
            server.tree.validate()
            assert server.audit() == []

            path = os.path.join(tmp, "snap.npz")
            save_server(server, path)
            with np.load(path, allow_pickle=False) as data:
                assert data["pa_coeffs"].nbytes == server.pa.memory_bytes()
                assert not any(info.compress_type for info in zipfile.ZipFile(path).infolist())
                if leave:
                    assert data["hist_cells"].size == 0
            assert_same_state(load_server(path), server)

            server.checkpoint()
            server.close()
            recovered = PDRServer.recover(rc.state_dir)
            try:
                assert_same_state(recovered, server)
            finally:
                recovered.close()


# ----------------------------------------------------------------------
# reads stay total
# ----------------------------------------------------------------------


@pytest.fixture
def image(tmp_path):
    server = PDRServer(small_system_config(), expected_objects=120)
    populate_clustered(server, 120, seed=5)
    server.advance_to(3)
    path = str(tmp_path / "snap.npz")
    save_server(server, path)
    return path


def payload_offset(path: str, key: str) -> int:
    """File offset of the middle byte of member ``key``'s array data."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(key + ".npy")
    with open(path, "rb") as fh:
        fh.seek(info.header_offset)
        local = fh.read(30)
        name_len, extra_len = struct.unpack("<HH", local[26:30])
        start = info.header_offset + 30 + name_len + extra_len
        fh.seek(start)
        magic = fh.read(12)
    major = magic[6]
    header = 10 + struct.unpack("<H", magic[8:10])[0] if major == 1 else (
        12 + struct.unpack("<I", magic[8:12])[0]
    )
    data = info.file_size - header
    assert data > 0
    return start + header + data // 2


def flip(path: str, offset: int) -> None:
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ 0x10]))


def rewrite(path: str, **changes) -> None:
    """Re-save the image with some members replaced (CRCs stay valid)."""
    with np.load(path, allow_pickle=False) as data:
        payload = {key: data[key] for key in data.files}
    payload.update(changes)
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


class TestReadsStayTotal:
    @pytest.mark.parametrize("key", ["pa_coeffs", "hist_cells", "hist_counts", "motion_x"])
    def test_one_flipped_payload_byte_is_a_storage_error(self, image, key):
        read_snapshot(image)
        flip(image, payload_offset(image, key))
        with pytest.raises(StorageError):
            read_snapshot(image)

    def _arrays(self, image):
        with np.load(image, allow_pickle=False) as data:
            return data["hist_cells"], data["hist_counts"], data["pa_coeffs"]

    def test_cells_out_of_range(self, image):
        cells, _, _ = self._arrays(image)
        cfg = small_system_config()
        size = (cfg.prediction_window + 1) * cfg.histogram_cells**2
        high = cells.copy()
        high[-1] = size
        rewrite(image, hist_cells=high)
        with pytest.raises(StorageError, match="strictly increasing"):
            read_snapshot(image)
        low = cells.copy()
        low[0] = -1
        rewrite(image, hist_cells=low)
        with pytest.raises(StorageError, match="strictly increasing"):
            read_snapshot(image)

    def test_cells_not_strictly_increasing(self, image):
        cells, _, _ = self._arrays(image)
        for bad in (
            np.concatenate([cells[:1], cells[:-1]]),  # a repeated cell
            cells[::-1].copy(),  # descending
        ):
            rewrite(image, hist_cells=bad)
            with pytest.raises(StorageError, match="strictly increasing"):
                read_snapshot(image)

    def test_cells_and_counts_differ_in_length(self, image):
        cells, counts, _ = self._arrays(image)
        for changes in (
            {"hist_counts": counts[:1]},  # would broadcast
            {"hist_counts": counts[:-1]},
            {"hist_cells": cells[:-1]},
        ):
            rewrite(image, **{"hist_cells": cells, "hist_counts": counts, **changes})
            with pytest.raises(StorageError, match="hist_cells but"):
                read_snapshot(image)

    def test_coefficients_of_the_wrong_shape(self, image):
        _, _, coeffs = self._arrays(image)
        g, _, slots, _ = coeffs.shape
        for bad in (
            np.moveaxis(coeffs, 2, 0).copy(),  # slot-major
            coeffs[..., :-1].copy(),  # one coefficient short
            np.zeros((g, g, slots, 5, 5)),  # the full (k+1)^2 block
            coeffs.astype(np.float32),
        ):
            rewrite(image, pa_coeffs=bad)
            with pytest.raises(StorageError, match="pa_coeffs"):
                read_snapshot(image)
            with pytest.raises(StorageError):
                load_server(image)

    def test_recovery_falls_back_past_a_flipped_image(self, tmp_path):
        from tests.test_recovery import OPS, apply_op, assert_states_match, durable_config

        reference = PDRServer(small_system_config(), expected_objects=30)
        for op in OPS:
            apply_op(reference, op)
        rc = durable_config(tmp_path)
        server = PDRServer(small_system_config(), expected_objects=30, reliability=rc)
        for op in OPS:
            apply_op(server, op)
        server.close()
        seqs = statedir.checkpoint_seqs(rc.state_dir)
        assert len(seqs) >= 2
        newest = statedir.image_path(rc.state_dir, seqs[-1])
        flip(newest, payload_offset(newest, "pa_coeffs"))
        # refresh the manifest digest: the image read itself must refuse
        manifest_path = statedir.manifest_path(rc.state_dir)
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest.setdefault("digests", {})[os.path.basename(newest)] = statedir.file_crc(newest)
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        with pytest.raises(StorageError):
            read_snapshot(newest)
        _, sidecar = statedir.load_latest_checkpoint(rc.state_dir)
        assert sidecar["seq"] == seqs[-2]
        recovered = PDRServer.recover(rc.state_dir)
        try:
            assert_states_match(recovered, reference)
        finally:
            recovered.close()
