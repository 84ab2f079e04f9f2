"""Server state persistence.

A production moving-objects server restarts; re-deriving the density
histograms and polynomial coefficients would require replaying up to ``H``
timestamps of updates.  :func:`save_server` serialises the whole maintained
state — configuration, the object table's columns, histogram counters and
Chebyshev coefficients — into a single ``.npz`` file, and
:func:`load_server` reconstructs an equivalent
:class:`~repro.core.system.PDRServer`: the TPR-tree is marked stale and
rebuilt by its first read (cheap, and the tree's exact page layout is not
semantically meaningful), while histogram and polynomial state is restored
bit-for-bit.

Format version 4 is one uncompressed ``np.savez`` image:

* ``motion_<field>``: the table, one column per
  :class:`~repro.motion.updates.Columns` field (``oid`` and ``t_ref``
  int64, the rest float64);
* ``hist_cells`` / ``hist_counts``: the DH ring's nonzero counters, as
  strictly increasing int64 flat indices into the slot-major
  ``(slots, m, m)`` ring and their int32 counts, ``slots`` being the
  query window's ``W + 1``;
* ``pa_coeffs``: the PA ring's ``(k+1)(k+2)/2`` retained coefficients per
  (tile, slot), in its time-minor memory order,
  ``(g, g, slots, (k+1)(k+2)/2)`` float64
  (:meth:`~repro.methods.pa.PAMethod.state_arrays`);
* ``hist_slot_time``, ``pa_slot_time``, ``tnow``, ``format_version`` and
  ``config_json`` (:func:`config_to_dict`).

There is no compression.  What zlib used to squeeze out is structure the
paper already names — nearly every DH counter is zero, and the
``i + j > k`` coefficients PA never stores (Section 6's
``H g² (k+1)(k+2)/2``) were zeros too — and inflating and deflating it
was most of the time of every save and load.  The image keeps only the
nonzero cells and the retained coefficients, so it is larger than a
deflated one but written and read at memory speed.  Version 3 (the same
image of ``H + 1``-slot rings), version 2 (the compressed dense image) and
version 1 (all six table columns squeezed through one float64 array, which
rounds ids above 2**53) are refused, as is any other version.

Snapshots double as the *checkpoints* of the recovery subsystem
(:mod:`repro.reliability.recovery`), which imposes two extra duties met
here: writes are **atomic** (data goes to a temporary file that is
``fsync``-ed and then renamed over the target, so a crash mid-write can
never leave a half-written file under the final name) and reads are
**total** (any way a corrupt, truncated or missing file can fail surfaces
as :class:`~repro.core.errors.StorageError`, so recovery can fall back to
an older checkpoint instead of dying on an exception zoo).  With no
deflate stream left to break, the zip members' CRC-32 is what catches a
flipped payload byte (``zipfile`` checks it once a member is read to its
end), and every member's dtype and shape is checked against the
configuration, so a damaged array header cannot slip a short read past
it.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from dataclasses import dataclass, fields
from typing import Optional, Tuple, Union

import numpy as np

from ..chebyshev.cheb2d import coefficient_count
from ..core.config import SystemConfig
from ..core.errors import InvalidParameterError, StorageError
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

_FORMAT_VERSION = 4
_MOTION_KEYS = tuple(f"motion_{f.name}" for f in fields(Columns))
_MOTION_DTYPES = (np.int64, np.int64) + (np.float64,) * (len(_MOTION_KEYS) - 2)


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
    hist_state = server.histogram.sparse_state()
    pa_state = server.pa.state_arrays()
    payload = dict(
        format_version=np.int64(_FORMAT_VERSION),
        config_json=np.bytes_(json.dumps(config_to_dict(server.config)).encode()),
        tnow=np.int64(server.tnow),
        **dict(zip(_MOTION_KEYS, server.table.columns())),
        hist_cells=hist_state["cells"],
        hist_counts=hist_state["counts"],
        hist_slot_time=hist_state["slot_time"],
        pa_coeffs=pa_state["coeffs"],
        pa_slot_time=pa_state["slot_time"],
    )
    if not atomic or not isinstance(path, (str, os.PathLike)):
        np.savez(path, **payload)
        return
    target = os.fspath(path)
    tmp = target + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):  # a failure above left the temp behind
            try:
                os.unlink(tmp)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass


def _member(data, key: str, dtype, shape: Tuple[Optional[int], ...]) -> np.ndarray:
    """Array ``key`` of an open image, refused unless it has ``dtype`` and
    ``shape`` (``None`` accepts any length on that axis)."""
    array = data[key]
    if array.dtype != dtype or len(array.shape) != len(shape) or any(
        want is not None and got != want for got, want in zip(array.shape, shape)
    ):
        raise StorageError(
            f"snapshot {key} is {array.dtype}{array.shape}, expected "
            f"{np.dtype(dtype)}{tuple('n' if n is None else n for n in shape)}"
        )
    return array


def _dense_ring(cells: np.ndarray, counts: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """The int32 ring of ``shape`` holding ``counts`` at the flat ``cells``
    and zero elsewhere."""
    if cells.shape != counts.shape:
        raise StorageError(
            f"snapshot has {cells.shape[0]} hist_cells but {counts.shape[0]} hist_counts"
        )
    size = math.prod(shape)
    if cells.size and (cells[0] < 0 or cells[-1] >= size or np.any(cells[1:] <= cells[:-1])):
        raise StorageError(
            f"snapshot hist_cells are not strictly increasing indices below {size}"
        )
    ring = np.zeros(size, dtype=np.int32)
    ring[cells] = counts
    return ring.reshape(shape)


def read_snapshot(path: Union[str, "object"]) -> SnapshotState:
    """Deserialise a snapshot without constructing a server.

    Every failure mode — missing file, truncated archive, flipped byte,
    wrong version, missing keys, an array of the wrong dtype or shape,
    malformed cells or config — raises :class:`StorageError`, which is what
    lets recovery treat "this checkpoint is unusable" as one condition and
    fall back to an older one.
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
            oid = _member(data, _MOTION_KEYS[0], np.int64, (None,))
            motions = Columns(oid, *(
                _member(data, key, dtype, oid.shape)
                for key, dtype in zip(_MOTION_KEYS[1:], _MOTION_DTYPES[1:])
            ))
            slots = config.prediction_window + 1
            m, g = config.histogram_cells, config.polynomial_grid
            counts = _dense_ring(
                _member(data, "hist_cells", np.int64, (None,)),
                _member(data, "hist_counts", np.int32, (None,)),
                (slots, m, m),
            )
            hist_state = {
                "counts": counts,
                "slot_time": _member(data, "hist_slot_time", np.int64, (slots,)),
                "tnow": tnow,
            }
            pa_state = {
                "coeffs": _member(
                    data, "pa_coeffs", np.float64,
                    (g, g, slots, coefficient_count(config.polynomial_degree)),
                ),
                "slot_time": _member(data, "pa_slot_time", np.int64, (slots,)),
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
    except (
        OSError, zipfile.BadZipFile, EOFError, KeyError, ValueError, TypeError,
        json.JSONDecodeError, InvalidParameterError,
    ) as exc:
        raise StorageError(f"cannot read snapshot {path!r}: {exc}") from exc


def restore_server_state(server: PDRServer, state: SnapshotState) -> None:
    """Load ``state`` into a freshly constructed, empty ``server``."""
    server.table.restore(state.motions, state.tnow)
    server.histogram.load_state_arrays(state.hist_state)
    server.pa.load_state_arrays(state.pa_state)
    # The table must NOT re-notify the histogram/PA listeners, whose state
    # is already restored; the index rebuilds itself on its first read.
    server.tree.mark_stale()


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
