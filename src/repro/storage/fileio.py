"""The store's file-system seam, instrumented for crash injection.

Every byte the durable store puts on disk goes through a
:class:`StorageIO` object, so the crash-matrix suite can substitute
:class:`CrashingIO` and kill the process (by raising
:class:`SimulatedCrash`) at *any byte boundary of any write*, before any
rename, or before any fsync — the full space of states a real power cut
can leave behind under the "written bytes are durable" model the
simulation uses (fsync batching is a throughput knob here, not a
correctness one; see :mod:`~repro.storage.wal`).

The discipline mirrors :mod:`repro.sparql.faults`: schedules are plain
data (:class:`CrashPoint`), enumeration is deterministic, and nothing
depends on ``PYTHONHASHSEED`` or wall-clock time, so a failing crash
point replays bit-identically from its ``(op_index, partial)`` pair
alone.  :func:`flip_bit` / :func:`corrupt_bytes` / :func:`truncate_file`
are the post-hoc corruption injectors (bit rot, torn pages) used to
exercise the checksum and fallback paths, and :func:`bit_flip_points`
draws a seeded sample of flip offsets for sweep tests.
"""

from __future__ import annotations

import os
import random
from typing import List, NamedTuple, Optional, Tuple

__all__ = ["SimulatedCrash", "CrashPoint", "StorageIO", "CrashingIO",
           "FileHandle", "flip_bit", "corrupt_bytes", "truncate_file",
           "bit_flip_points"]


class SimulatedCrash(Exception):
    """An injected process death.  Raised by :class:`CrashingIO` when its
    schedule says so; the store must never catch it — the test harness
    does, then reopens the directory to verify recovery."""

    def __init__(self, message: str, op_index: int, partial: int):
        super().__init__(message)
        self.op_index = op_index
        self.partial = partial


class CrashPoint(NamedTuple):
    """Kill the process at mutating op ``op_index`` (0-based, in the
    order :class:`CrashingIO` counts them), after ``partial`` bytes of
    that op have reached the file.  For non-write ops (rename, remove,
    truncate, fsync) ``partial`` is ignored: the op simply never
    happens."""

    op_index: int
    partial: int = 0


class FileHandle:
    """A write handle whose every mutation is routed through its IO."""

    __slots__ = ("_io", "_fobj", "path")

    def __init__(self, io: "StorageIO", fobj, path: str):
        self._io = io
        self._fobj = fobj
        self.path = path

    def write(self, data: bytes) -> None:
        self._io._write(self._fobj, data, self.path)

    def fsync(self) -> None:
        self._io._fsync(self._fobj, self.path)

    def tell(self) -> int:
        return self._fobj.tell()

    def close(self) -> None:
        self._fobj.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class StorageIO:
    """Real file-system operations (the production IO).

    Only *mutating* operations live here; reads are plain ``open()``
    everywhere — a crash cannot corrupt a read, and recovery is
    deliberately read-only until it knows what it is doing.
    """

    def open_write(self, path: str) -> FileHandle:
        """Create/truncate ``path`` for writing."""
        return FileHandle(self, open(path, "wb"), path)

    # -- primitive mutations (the instrumented seam) -------------------
    def _write(self, fobj, data: bytes, path: str) -> None:
        fobj.write(data)

    def _fsync(self, fobj, path: str) -> None:
        fobj.flush()
        os.fsync(fobj.fileno())

    def replace(self, src: str, dst: str) -> None:
        """Atomic rename (the commit point of a snapshot)."""
        os.replace(src, dst)

    def remove(self, path: str) -> None:
        os.remove(path)

    def truncate(self, path: str, size: int) -> None:
        """Cut ``path`` down to ``size`` bytes (torn-tail cleanup)."""
        with open(path, "r+b") as fobj:
            fobj.truncate(size)

    def fsync_dir(self, path: str) -> None:
        """Durably record directory-entry changes (best effort — some
        platforms refuse to fsync a directory fd)."""
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)


class CrashingIO(StorageIO):
    """A :class:`StorageIO` that records every mutating op and can die.

    With ``crash_point=None`` it is a pure recorder: run a workload once
    and read :attr:`ops` to enumerate every crash point it admits (each
    entry is ``(kind, path, size)``; writes admit ``size + 1`` partial
    positions, the other kinds exactly one).  With a
    :class:`CrashPoint`, the scheduled op performs only its partial
    prefix — ``data[:partial]`` reaches the file for a write, nothing
    happens for a rename/remove/truncate/fsync — and
    :class:`SimulatedCrash` is raised.  Every op *after* the crash also
    raises, so a store that incorrectly swallows the first crash cannot
    quietly keep writing.
    """

    def __init__(self, crash_point: Optional[CrashPoint] = None):
        self.crash_point = crash_point
        self.ops: List[Tuple[str, str, int]] = []
        self.crashed = False

    def _op(self, kind: str, path: str, size: int = 0) -> Optional[int]:
        """Count one op; returns the partial byte budget when this op is
        the scheduled crash (None = proceed normally)."""
        if self.crashed:
            raise SimulatedCrash("I/O after simulated crash (%s %s)"
                                 % (kind, path), len(self.ops), 0)
        index = len(self.ops)
        self.ops.append((kind, path, size))
        point = self.crash_point
        if point is not None and index == point.op_index:
            self.crashed = True
            return max(0, min(point.partial, size))
        return None

    def _write(self, fobj, data: bytes, path: str) -> None:
        partial = self._op("write", path, len(data))
        if partial is None:
            fobj.write(data)
            return
        if partial:
            fobj.write(data[:partial])
        fobj.flush()
        raise SimulatedCrash("crash after %d/%d bytes of write to %s"
                             % (partial, len(data), path),
                             len(self.ops) - 1, partial)

    def _fsync(self, fobj, path: str) -> None:
        if self._op("fsync", path) is not None:
            raise SimulatedCrash("crash before fsync of %s" % path,
                                 len(self.ops) - 1, 0)
        super()._fsync(fobj, path)

    def replace(self, src: str, dst: str) -> None:
        if self._op("replace", dst) is not None:
            raise SimulatedCrash("crash before rename to %s" % dst,
                                 len(self.ops) - 1, 0)
        super().replace(src, dst)

    def remove(self, path: str) -> None:
        if self._op("remove", path) is not None:
            raise SimulatedCrash("crash before remove of %s" % path,
                                 len(self.ops) - 1, 0)
        super().remove(path)

    def truncate(self, path: str, size: int) -> None:
        if self._op("truncate", path) is not None:
            raise SimulatedCrash("crash before truncate of %s" % path,
                                 len(self.ops) - 1, 0)
        super().truncate(path, size)

    def fsync_dir(self, path: str) -> None:
        if self._op("fsync_dir", path) is not None:
            raise SimulatedCrash("crash before dir fsync of %s" % path,
                                 len(self.ops) - 1, 0)
        super().fsync_dir(path)


# ----------------------------------------------------------------------
# Post-hoc corruption injectors (bit rot, torn pages)
# ----------------------------------------------------------------------
def flip_bit(path: str, byte_index: int, bit: int = 0) -> None:
    """Flip one bit of an existing file in place."""
    with open(path, "r+b") as fobj:
        fobj.seek(byte_index)
        value = fobj.read(1)
        if not value:
            raise ValueError("byte index %d past end of %s"
                             % (byte_index, path))
        fobj.seek(byte_index)
        fobj.write(bytes([value[0] ^ (1 << (bit & 7))]))


def corrupt_bytes(path: str, offset: int, data: bytes) -> None:
    """Overwrite ``len(data)`` bytes of an existing file at ``offset``."""
    with open(path, "r+b") as fobj:
        fobj.seek(offset)
        fobj.write(data)


def truncate_file(path: str, size: int) -> None:
    """Tear the tail off a file (what an interrupted write leaves)."""
    with open(path, "r+b") as fobj:
        fobj.truncate(size)


def bit_flip_points(size: int, count: int, seed: int = 0
                    ) -> List[Tuple[int, int]]:
    """A deterministic sample of ``(byte_index, bit)`` flip targets.

    Drawn from ``random.Random(seed)`` so sweeps are reproducible and
    independent of ``PYTHONHASHSEED`` (the :mod:`repro.sparql.faults`
    discipline).
    """
    if size <= 0:
        return []
    rng = random.Random(("bitflip", seed).__repr__())
    return [(rng.randrange(size), rng.randrange(8))
            for _ in range(count)]
