"""Server state persistence.

A production moving-objects server restarts; re-deriving the density
histograms and polynomial coefficients would require replaying up to ``H``
timestamps of updates.  :func:`save_server` serialises the whole maintained
state — configuration, the object table's columns, histogram counters and
Chebyshev coefficients — into a single ``.npz`` file, and
:func:`load_server` reconstructs an equivalent
:class:`~repro.core.system.PDRServer`: the TPR-tree is rebuilt by one STR
``bulk_load`` over the restored table (cheap, and the tree's exact page
layout is not semantically meaningful), while histogram and polynomial
state is restored bit-for-bit.

Format version 2 stores the table column by column in its own dtypes —
object ids and reference times as exact int64, positions and velocities as
float64 (version 1 squeezed all six through one float64 array, which
rounds ids above 2**53).  Files of any other version are refused.

Snapshots double as the *checkpoints* of the recovery subsystem
(:mod:`repro.reliability.recovery`), which imposes two extra duties met
here: writes are **atomic** (data goes to a temporary file that is
``fsync``-ed and then renamed over the target, so a crash mid-write can
never leave a half-written file under the final name) and reads are
**total** (any way a corrupt, truncated or missing file can fail surfaces
as :class:`~repro.core.errors.StorageError`, so recovery can fall back to
an older checkpoint instead of dying on an exception zoo).
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from ..core.config import SystemConfig
from ..core.errors import StorageError
from ..core.geometry import Rect
from ..core.system import PDRServer
from ..motion.updates import Columns

__all__ = [
    "save_server",
    "load_server",
    "read_snapshot",
    "restore_server_state",
    "SnapshotState",
    "config_to_dict",
    "config_from_dict",
]

_FORMAT_VERSION = 2
_MOTION_KEYS = tuple(f"motion_{f.name}" for f in fields(Columns))


def config_to_dict(config: SystemConfig) -> dict:
    """A JSON-serialisable form of a :class:`SystemConfig`."""
    return {
        "domain": list(config.domain.as_tuple()),
        "max_update_interval": config.max_update_interval,
        "prediction_window": config.prediction_window,
        "l": config.l,
        "histogram_cells": config.histogram_cells,
        "polynomial_grid": config.polynomial_grid,
        "polynomial_degree": config.polynomial_degree,
        "evaluation_grid": config.evaluation_grid,
    }


def config_from_dict(data: dict) -> SystemConfig:
    """Inverse of :func:`config_to_dict`."""
    x1, y1, x2, y2 = data["domain"]
    return SystemConfig(
        domain=Rect(x1, y1, x2, y2),
        max_update_interval=int(data["max_update_interval"]),
        prediction_window=int(data["prediction_window"]),
        l=float(data["l"]),
        histogram_cells=int(data["histogram_cells"]),
        polynomial_grid=int(data["polynomial_grid"]),
        polynomial_degree=int(data["polynomial_degree"]),
        evaluation_grid=int(data["evaluation_grid"]),
    )


# Backwards-compatible private aliases (pre-reliability callers).
_config_to_dict = config_to_dict
_config_from_dict = config_from_dict


@dataclass
class SnapshotState:
    """The deserialised content of one snapshot file."""

    config: SystemConfig
    tnow: int
    motions: Columns
    hist_state: dict
    pa_state: dict


def save_server(server: PDRServer, path: Union[str, "object"], atomic: bool = True) -> None:
    """Serialise the server's full maintained state to ``path`` (.npz).

    With ``atomic`` (the default) the data is written to ``<path>.tmp``,
    flushed and fsync-ed, and renamed over ``path`` — a crash at any
    point leaves either the old complete file or no file, never a
    truncated one.
    """
    hist_state = server.histogram.state_arrays()
    pa_state = server.pa.state_arrays()
    payload = dict(
        format_version=np.int64(_FORMAT_VERSION),
        config_json=np.bytes_(json.dumps(config_to_dict(server.config)).encode()),
        tnow=np.int64(server.tnow),
        **dict(zip(_MOTION_KEYS, server.table.columns())),
        hist_counts=hist_state["counts"],
        hist_slot_time=hist_state["slot_time"],
        pa_coeffs=pa_state["coeffs"],
        pa_slot_time=pa_state["slot_time"],
    )
    if not atomic or not isinstance(path, (str, os.PathLike)):
        np.savez_compressed(path, **payload)
        return
    target = os.fspath(path)
    tmp = target + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):  # a failure above left the temp behind
            try:
                os.unlink(tmp)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass


def read_snapshot(path: Union[str, "object"]) -> SnapshotState:
    """Deserialise a snapshot without constructing a server.

    Every failure mode — missing file, truncated archive, wrong version,
    missing keys, malformed config — raises :class:`StorageError`, which
    is what lets recovery treat "this checkpoint is unusable" as one
    condition and fall back to an older one.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            version = int(data["format_version"])
            if version != _FORMAT_VERSION:
                raise StorageError(
                    f"snapshot format {version} not supported (expected {_FORMAT_VERSION})"
                )
            config = config_from_dict(json.loads(bytes(data["config_json"]).decode()))
            tnow = int(data["tnow"])
            motions = Columns(*(data[key] for key in _MOTION_KEYS))
            hist_state = {
                "counts": data["hist_counts"],
                "slot_time": data["hist_slot_time"],
                "tnow": tnow,
            }
            pa_state = {
                "coeffs": data["pa_coeffs"],
                "slot_time": data["pa_slot_time"],
                "tnow": tnow,
            }
            return SnapshotState(
                config=config,
                tnow=tnow,
                motions=motions,
                hist_state=hist_state,
                pa_state=pa_state,
            )
    except StorageError:
        raise
    except (OSError, zipfile.BadZipFile, EOFError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise StorageError(f"cannot read snapshot {path!r}: {exc}") from exc


def restore_server_state(server: PDRServer, state: SnapshotState) -> None:
    """Load ``state`` into a freshly constructed, empty ``server``."""
    server.table.restore(state.motions, state.tnow)
    server.histogram.load_state_arrays(state.hist_state)
    server.pa.load_state_arrays(state.pa_state)
    # Rebuild the index by one STR bulk load (the table must NOT re-notify
    # the histogram/PA listeners, whose state is already restored).
    server.tree.bulk_load()


def load_server(path: Union[str, "object"], expected_objects: int = 0) -> PDRServer:
    """Reconstruct a server from :func:`save_server` output.

    ``expected_objects`` sizes the buffer pool; it defaults to the snapshot's
    object count.
    """
    state = read_snapshot(path)
    server = PDRServer(
        state.config,
        expected_objects=expected_objects or max(len(state.motions), 1),
        tnow=state.tnow,
    )
    restore_server_state(server, state)
    return server
