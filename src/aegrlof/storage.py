"""Shared file IO: atomic writes, CSV, deterministic .npz archives, hashing.

All artifact files are written atomically (temp file + rename) so a crashed
run never leaves a truncated cache or report behind. The .npz writer pins
the zip member timestamps, which makes repeated runs of the same pipeline
byte-identical and therefore hashable/diffable. Every CSV is written by
:func:`write_csv` and every .npz read through :func:`read_npz`.
"""

from __future__ import annotations

import hashlib
import io
import os
import tempfile
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

# Fixed zip timestamp: np.savez stamps members with the current time, which
# would break byte-level reproducibility of caches.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write bytes to ``path`` via a temp file in the same directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_npz(path: str | Path, arrays: Mapping[str, np.ndarray]) -> str:
    """Write a deterministic uncompressed .npz readable by ``np.load``, and
    return the SHA-256 of the bytes written, as :func:`file_sha256` would.

    Keys are stored in sorted order with fixed zip timestamps so identical
    arrays always produce identical bytes.
    """
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            arr = np.asarray(arrays[name])
            member = io.BytesIO()
            np.lib.format.write_array(member, arr, allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=_ZIP_EPOCH)
            zf.writestr(info, member.getvalue())
    data = buf.getvalue()
    atomic_write_bytes(path, data)
    return hashlib.sha256(data).hexdigest()


@contextmanager
def read_npz(path: str | Path, what: str,
             remedy: str) -> Iterator[np.lib.npyio.NpzFile]:
    """Open an .npz without unpickling. An archive cut short, overwritten or
    missing an array, and a ``ValueError`` from the block, raise
    ``ValueError`` naming ``path`` as a damaged ``what``, then ``remedy``."""
    try:
        with open(path, "rb") as file, np.load(file, allow_pickle=False) as npz:
            yield npz
    except (EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(
            f"{path}: damaged {what} ({type(exc).__name__}: {exc}); {remedy}"
        ) from exc


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_csv(path: str | Path, header: Sequence[str],
              rows: Iterable[Sequence[int | float]]) -> None:
    """Write a header line and one line per row, each the comma-joined
    ``repr`` of its Python ints and floats, so a float reads back to the
    same bits. Every row has one value per header name."""
    fmt = ",".join(["%r"] * len(header))
    lines = [",".join(header)]
    lines += [fmt % tuple(row) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_scores_csv(path: str | Path, scores: np.ndarray) -> None:
    """Write anomaly scores as ``row_index,score`` CSV."""
    write_csv(path, ("row_index", "score"),
              enumerate(np.asarray(scores, dtype=float).tolist()))
