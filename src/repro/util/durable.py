"""Crash-safe file writes: the one owner of the durability protocol.

Every layer that must survive a ``kill -9`` (the flow's run journal,
the DSE campaign journal, the build service's job store, the replica
leases) and every layer that only must never expose a torn file (the
build cache, the per-function cache's counters, lease heartbeats)
writes through the four primitives here:

* :func:`fsync_dir` — make a file's *creation or rename* durable: the
  name lives in the directory, so a power loss can forget a file whose
  bytes were fsynced unless its directory is fsynced too.
* :func:`atomic_write` — write a unique temp file in the target's
  directory and rename it into place, so a reader sees the old payload
  or the new one, never a mix.  The unique name makes concurrent
  writers of one path safe: each renames its own temp file and the
  last rename wins.  ``durable=True`` also fsyncs the file before the
  rename and the directory after it.
* :func:`publish_excl` — create a path only if it does not exist yet:
  the payload is fsynced to a temp file, then ``os.link``\\ ed into
  place (an atomic create-if-absent), so of any number of racing
  publishers exactly the first wins and nobody sees a torn record.
* :class:`JsonlLog` — an append-only JSONL log behind a header record.
  Each append is flushed and fsynced before it returns.  On reopen, a
  torn final line (the kill hit mid-append) is dropped *and truncated
  away*, so the next append starts on a clean line; a malformed line
  before the final one means the file is not this writer's, and
  reading it raises :class:`~repro.util.errors.ForeignLog`.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.util.errors import ForeignLog


def fsync_dir(path: str | os.PathLike) -> None:
    """fsync a directory so a file created inside it survives power loss."""
    dirfd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(dirfd)
    finally:
        os.close(dirfd)


def _write_temp(path: Path, data: str | bytes, *, durable: bool) -> str:
    """Write *data* to a fresh uniquely-named temp file beside *path*."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".tmp-{path.name}-", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
    except BaseException:
        os.unlink(tmp)
        raise
    return tmp


def atomic_write(path: str | os.PathLike, data: str | bytes, *, durable: bool) -> None:
    """Replace *path* with *data* atomically (temp file + rename).

    With *durable* the file is fsynced before the rename and the
    directory after it, so the new payload survives power loss too.
    """
    path = Path(path)
    tmp = _write_temp(path, data, durable=durable)
    try:
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    if durable:
        fsync_dir(path.parent)


def publish_excl(path: str | os.PathLike, data: str | bytes) -> bool:
    """Durably create *path* holding *data* if and only if it is absent.

    Returns ``False`` when *path* already existed (another publisher
    won); the existing file is left untouched.
    """
    path = Path(path)
    tmp = _write_temp(path, data, durable=True)
    try:
        os.link(tmp, path)
    except FileExistsError:
        return False
    finally:
        os.unlink(tmp)
    fsync_dir(path.parent)
    return True


class JsonlLog:
    """Append-only JSONL file whose first record is a header.

    Usage::

        log = JsonlLog(path)
        records = log.read()           # None when there is no file
        if records and matches(records[0]):
            log.reopen()               # cut the torn tail, then append
        else:
            log.start(header)          # a fresh file holding *header*
        log.append(record)             # durable when it returns
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._fh = None
        #: Byte length of the complete-line prefix the last read kept.
        self._intact = 0

    def read(self) -> list[dict] | None:
        """Every intact record, header first; ``None`` without a file.

        The final line is dropped when it is torn: unterminated, or not
        valid JSON.  A malformed line before it raises
        :class:`~repro.util.errors.ForeignLog`.
        """
        try:
            raw = self.path.read_bytes()
        except OSError:
            return None
        lines = raw.split(b"\n")
        # A complete file ends in "\n", so lines[-1] is "" and the drop
        # is a no-op; otherwise it is the torn fragment of an append.
        intact = len(raw) - len(lines.pop())
        records: list[dict] = []
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                if i < len(lines) - 1:
                    raise ForeignLog(
                        f"{self.path}: line {i + 1} is malformed before the "
                        "end of the log; it was not written by this writer"
                    ) from None
                intact -= len(line) + 1  # a terminated but torn final line
        self._intact = intact
        return records

    def start(self, header: dict) -> None:
        """Replace any existing file with a new log holding *header*."""
        self.close()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")
        self.append(header)
        # The header's bytes are fsynced; the file's *name* lives in the
        # directory, which needs its own fsync.
        fsync_dir(self.path.parent)

    def reopen(self) -> None:
        """Continue the file :meth:`read` loaded: truncate whatever
        follows its intact records, then open it for appending."""
        self.close()
        if self.path.stat().st_size > self._intact:
            os.truncate(self.path, self._intact)
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, record: dict) -> None:
        """Append one record; it is on disk when this returns."""
        assert self._fh is not None, "JsonlLog is not open"
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


__all__ = ["JsonlLog", "atomic_write", "fsync_dir", "publish_excl"]
