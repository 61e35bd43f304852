"""Content-addressed result store for campaign chunks.

A chunk's traces are a pure function of ``(campaign fingerprint,
chunk index)`` — counter-based noise, deterministic mismatch — so those
logical coordinates *are* the content address.  Keys are

    sha256(canonical_json([fingerprint, chunk_index]))

and entries live at ``root/<digest[:2]>/<digest>.npz``.  Duplicate job
submissions, crash-replayed chunks, and requeued leases all hash to the
same key and dedupe to a cache hit instead of a recompute.

Writes are crash-durable (fsync'd temp → ``os.replace`` → directory
fsync) and idempotent: a second put of the same key is a no-op, and a
half-written temp file can never shadow a committed entry.  Reads
verify an embedded row digest and the key itself before trusting an
entry; anything torn or foreign reads as a miss and is discarded, so
the recompute's put commits a good copy.

The store is also the resume mechanism of local campaigns
(:class:`repro.experiments.runner.CheckpointedRun`).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import zipfile
from typing import Dict, List, Optional

import numpy as np

from .spec import canonical_json


def _fsync_directory(directory: str) -> None:
    """Flush a rename to the directory's metadata, where supported.

    Some filesystems (and all of Windows) refuse O_RDONLY directory
    fds; durability is then best-effort.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def chunk_key(fingerprint: Dict, chunk_index: int) -> str:
    """The content address of one chunk of one campaign."""
    payload = canonical_json([fingerprint, int(chunk_index)])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _rows_digest(rows: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(str(rows.dtype).encode())
    h.update(str(rows.shape).encode())
    h.update(np.ascontiguousarray(rows).tobytes())
    return h.hexdigest()


class ResultStore:
    """Content-addressed NPZ store under one root directory.

    Safe for concurrent writers without any locking: every writer of a
    given key produces the same bytes (determinism), and the atomic
    rename means the last replace wins with an identical file.
    """

    def __init__(self, root):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".npz")

    def has(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def put(self, key: str, rows: np.ndarray) -> str:
        """Durably store ``rows`` under ``key``; idempotent."""
        path = self._path(key)
        if os.path.exists(path):
            return path
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        rows = np.asarray(rows)
        fd, tmp = tempfile.mkstemp(suffix=".npz", dir=directory)
        try:
            with os.fdopen(fd, "wb") as handle:
                fd = None
                np.savez(handle, rows=rows,
                         key=np.array(key),
                         digest=np.array(_rows_digest(rows)))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            _fsync_directory(directory)
        except BaseException:
            if fd is not None:
                os.close(fd)
            if os.path.exists(tmp):
                os.remove(tmp)
            raise
        return path

    def get(self, key: str) -> Optional[np.ndarray]:
        """The rows stored under ``key``, or ``None``.

        Integrity-checked: a torn, truncated, or mislabeled entry reads
        as a miss (the caller recomputes — determinism makes that safe),
        never as wrong data.  The bad entry is removed so that the
        recompute's :meth:`put` can replace it.
        """
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            with np.load(path, allow_pickle=False) as archive:
                rows = np.array(archive["rows"])
                stored_key = str(archive["key"])
                digest = str(archive["digest"])
            if stored_key == key and _rows_digest(rows) == digest:
                return rows
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            pass
        try:
            os.remove(path)
        except OSError:
            pass
        return None

    def keys(self) -> List[str]:
        found: List[str] = []
        for sub in sorted(os.listdir(self.root)):
            subdir = os.path.join(self.root, sub)
            if not os.path.isdir(subdir):
                continue
            for name in sorted(os.listdir(subdir)):
                if name.endswith(".npz"):
                    found.append(name[:-len(".npz")])
        return found
