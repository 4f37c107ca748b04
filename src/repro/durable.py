"""Durable file writes: atomic replacement, content digests, quarantine.

The one write path of every store that must survive a crash: sweep
checkpoints and their sidecars (:mod:`repro.sim.checkpoint`), the trace
store (:mod:`repro.trace.store`) and job records (:mod:`repro.serve.jobs`).
Callers serialize, so every format keeps its own bytes on disk; this
module records no metrics and takes no options.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os

__all__ = ["atomic_write", "content_digest", "quarantine"]

#: Every fsync of a durable write -- file and directory -- goes through
#: this seam, so :func:`repro.faults.chaos.inject_fsync_faults` can fail
#: them all (a full or dying disk) by patching one attribute.
_fsync = os.fsync


def content_digest(obj) -> str:
    """SHA-256 of the canonical (sorted-key, compact) JSON of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fsync_directory(directory: str) -> None:
    """Persist a rename by fsyncing its directory.

    A filesystem that cannot sync a directory (EINVAL, ENOTSUP, EBADF)
    does not fail the write: the rename has already happened.
    """
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        _fsync(fd)
    except OSError as error:
        if error.errno not in (errno.EINVAL, errno.ENOTSUP, errno.EBADF):
            raise
    finally:
        os.close(fd)


def atomic_write(path: str, text: str) -> int:
    """Durably replace ``path`` with ``text``; returns the bytes written.

    Writes ``<path>.tmp-<pid>`` (the pid keeps concurrent writer
    processes apart), fsyncs it, ``os.replace``-s it over ``path`` and
    fsyncs the directory, so a crash at any instant leaves the old or the
    new file, never a torn one.  The parent directory is created if
    missing.  On any error the temp file is removed and the error
    propagates.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp_path = f"{path}.tmp-{os.getpid()}"
    data = text.encode("utf-8")
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            handle.flush()
            _fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp_path)
        raise
    _fsync_directory(directory)
    return len(data)


def quarantine(path: str) -> str:
    """Move a file that failed validation to the first free
    ``<path>.corrupt-<n>`` -- kept as evidence, never trusted -- and
    return the new path.  An ``OSError`` from the rename propagates.
    """
    n = 0
    while os.path.exists(f"{path}.corrupt-{n}"):
        n += 1
    target = f"{path}.corrupt-{n}"
    os.replace(path, target)
    return target
