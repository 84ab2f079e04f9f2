"""State written before the reliability knobs became constants still loads.

``server-config.json`` used to carry a report policy, the dead-letter
capacity, retry counts, checkpoint retention and two more resource fields.
They are module constants now: the writer leaves them out and the reader
ignores them, so a directory written with any value of them recovers, and a
snapshot image written by that code loads unchanged.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro import PDRServer
from repro.core.config import SystemConfig
from repro.core.geometry import Rect
from repro.reliability import resources, statedir
from repro.reliability.validation import ReliabilityConfig, ResourceConfig
from repro.storage.snapshot import load_server

CONFIG = SystemConfig(
    domain=Rect(0.0, 0.0, 100.0, 100.0), max_update_interval=6,
    prediction_window=6, l=10.0, histogram_cells=20, polynomial_grid=5,
    polynomial_degree=4, evaluation_grid=128,
)
SNAPSHOT = os.path.join(os.path.dirname(__file__), "data", "snapshot-format4.npz")

# Every key the older writer put under "reliability", at values none of
# which is the old default.
REMOVED_KEYS = {
    "policy": {"reject_nonfinite": False, "reject_out_of_bounds": False,
               "max_speed": 5.0, "reject_duplicates": True},
    "dead_letter_capacity": 4,
    "retries": 7,
    "backoff_seconds": 0.5,
    "keep_checkpoints": 8,
}
REMOVED_RESOURCE_KEYS = {"memory_limit_bytes": 1, "readonly_retry_after": 3.0}


def drive(server: PDRServer) -> None:
    """Four ticks of waves (every other object, then all of them) and a
    retire; the snapshot fixture was written by this script."""
    rng = np.random.default_rng(36)
    for tick in range(1, 5):
        server.advance_to(tick)
        server.report_batch([
            (oid, float(rng.uniform(5, 95)), float(rng.uniform(5, 95)),
             float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
            for oid in range(tick % 2, 16, 1 + tick % 2)
        ])
    server.retire(3)


def state_bytes(server: PDRServer) -> dict:
    columns = server.table.columns()
    out = {f"table.{name}": np.asarray(getattr(columns, name)).tobytes()
           for name in ("oid", "t_ref", "x", "y", "vx", "vy")}
    for prefix, arrays in (("dh", server.histogram.state_arrays()),
                           ("pa", server.pa.state_arrays())):
        out.update({f"{prefix}.{k}": np.asarray(v).tobytes() for k, v in arrays.items()})
    out["tnow"] = server.tnow
    return out


def test_a_config_with_every_removed_key_recovers_byte_identical(tmp_path):
    state_dir = str(tmp_path / "state")
    rc = ReliabilityConfig(state_dir=state_dir, checkpoint_interval=2, fsync=False)
    live = PDRServer(CONFIG, expected_objects=16, reliability=rc)
    drive(live)
    live.report(40, 50.0, 50.0, 0.0, 0.0)  # after the tick-4 checkpoint
    _, sidecar = statedir.load_latest_checkpoint(state_dir)
    assert 0 < int(sidecar["lsn"]) < live.wal_lsn  # a checkpoint and a WAL tail
    live.close()

    path = statedir.config_path(state_dir)
    with open(path, encoding="utf-8") as fh:
        meta = json.load(fh)
    assert not set(REMOVED_KEYS) & set(meta["reliability"])  # no longer written
    meta["reliability"].update(REMOVED_KEYS)
    meta["reliability"]["resources"] = None  # the older writer's "no budget"
    statedir.atomic_write_json(path, meta)

    recovered = PDRServer.recover(state_dir)
    try:
        assert recovered.audit() == []
        assert state_bytes(recovered) == state_bytes(live)
        assert recovered.wal_lsn == live.wal_lsn
        kept = recovered.reliability
        assert (kept.checkpoint_interval, kept.fsync) == (2, False)
        assert kept.resources == ResourceConfig()  # null reads as unbounded
        # the constants rule, whatever the file said: a re-report is not a
        # duplicate, a fast report is not over speed, 2 checkpoints are kept
        assert recovered.report(40, 60.0, 60.0, 30.0, 0.0) is not None
        assert recovered.dead_letters.total == 0
        recovered.advance_to(5)
        for _ in range(3):
            recovered.checkpoint()
        assert len(statedir.checkpoint_seqs(state_dir)) == resources.KEEP_CHECKPOINTS
    finally:
        recovered.close()


def test_resource_keys_of_the_older_writer_are_ignored():
    payload = {"soft_limit_bytes": 10**12, "hard_limit_bytes": 2 * 10**12,
               **REMOVED_RESOURCE_KEYS}
    assert ResourceConfig.from_dict(payload) == ResourceConfig(10**12, 2 * 10**12)


def test_a_snapshot_written_before_loads_byte_identical():
    fresh = PDRServer(CONFIG, expected_objects=16)
    drive(fresh)
    loaded = load_server(SNAPSHOT)
    assert loaded.config == CONFIG
    assert state_bytes(loaded) == state_bytes(fresh)
    assert loaded.audit() == []
