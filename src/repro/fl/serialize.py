"""Weight (de)serialisation: the durable form of a model's parameters.

Checkpointing a federated run (see :mod:`repro.api.store`) must persist
the global model's weights exactly — a resumed session continues from the
same float64 values the uninterrupted run would have held, so the
histories it produces are bitwise-identical.  The weight interface of
:class:`repro.fl.nn.model.Sequential` is a flat list of arrays
(``get_weights`` / ``set_weights``); this module round-trips that list
through a single ``.npz`` archive, preserving order, dtype and shape.

:func:`atomic_write` is the one write path of every durable file —
weight archives, store manifests and checkpoints, job leases, policy
artifacts.
"""

from __future__ import annotations

import io
import os
import threading
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = ["atomic_write", "save_weights", "load_weights", "weights_equal"]

# Archive keys are "w000", "w001", ...: np.load returns files unordered,
# so the index rides in the key (zero-padded for lexicographic sanity).
_KEY = "w{:03d}"


def atomic_write(path: str | Path, data: bytes) -> Path:
    """Replace ``path`` with ``data`` atomically.

    The bytes go to a sibling temp file named for this process and thread
    (``<name>.<pid>.<thread-id>.tmp``) and :func:`os.replace` moves it into
    place, so readers see the old file or the new one, never a torn write,
    and concurrent writers of one path never share a temp file.  Opening
    with ``"xb"`` keeps the umask-derived mode every store file has
    (:func:`tempfile.mkstemp` would make it 0600).  Nothing is fsynced:
    the replace is atomic, not durable across a power loss.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        fh = open(tmp, "xb")
    except FileExistsError:
        # Left by a killed writer whose pid and thread id this one reuses;
        # a live owner of the name would be this very thread.
        tmp.unlink()
        fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def save_weights(path: str | Path, weights: Sequence[np.ndarray]) -> Path:
    """Write a ``get_weights()`` list to one ``.npz`` archive, atomically
    (:func:`atomic_write`: a crash mid-write never leaves a truncated
    checkpoint behind)."""
    if len(weights) > 999:
        raise ValueError("weight lists beyond 999 arrays are not supported")
    arrays = {_KEY.format(i): np.asarray(w) for i, w in enumerate(weights)}
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return atomic_write(path, buffer.getvalue())


def load_weights(path: str | Path) -> list[np.ndarray]:
    """Inverse of :func:`save_weights`: the ordered list of weight arrays."""
    with np.load(Path(path)) as archive:
        keys = sorted(archive.files)
        expected = [_KEY.format(i) for i in range(len(keys))]
        if keys != expected:
            raise ValueError(
                f"{path} is not a weight archive (keys {keys[:3]}...)"
            )
        return [archive[k] for k in keys]


def weights_equal(
    a: Sequence[np.ndarray], b: Sequence[np.ndarray]
) -> bool:
    """Exact (bitwise) equality of two weight lists."""
    if len(a) != len(b):
        return False
    return all(
        x.shape == y.shape and x.dtype == y.dtype and bool((x == y).all())
        for x, y in zip(a, b)
    )
