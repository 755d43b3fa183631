"""Advisory inter-process file locks for shared lab storage.

Concurrent Runners and CLI invocations may share one ``.lab_cache``
directory (and, eventually, one ``repro serve`` daemon's spool).  Entry
*writes* are already safe without locking — every writer goes through
temp-file + ``os.replace`` — but multi-file operations (quarantining a
corrupt entry, ``verify --repair`` scans, ``clear``) need mutual
exclusion so two processes never move the same file or scan a directory
mid-mutation.

:class:`FileLock` wraps ``fcntl.flock`` (advisory, kernel-released on
process death — a SIGKILLed holder can never leave the lock stuck) with
non-blocking acquisition polled up to a timeout.  On platforms without
``fcntl`` the lock degrades to a no-op, preserving the seed behavior
(atomic renames only), rather than failing.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Optional

try:  # pragma: no cover - always present on the POSIX CI/dev hosts
    import fcntl
except ImportError:  # pragma: no cover - Windows fallback
    fcntl = None


class LockTimeout(TimeoutError):
    """The lock could not be acquired within ``timeout_s``."""


class FileLock:
    """An advisory exclusive lock on ``path`` (created if missing).

    Usage::

        with FileLock(cache_dir / ".lock", timeout_s=30):
            ...  # multi-file mutation

    Reentrant within one instance is *not* supported (and not needed);
    separate instances in one process do exclude each other on platforms
    where ``flock`` locks per open file description (Linux).
    """

    def __init__(self, path, timeout_s: float = 30.0,
                 poll_s: float = 0.05) -> None:
        self.path = Path(path)
        self.timeout_s = timeout_s
        self.poll_s = poll_s
        self._fd: Optional[int] = None

    def acquire(self) -> "FileLock":
        if self._fd is not None:
            raise RuntimeError(f"lock {self.path} is already held")
        if fcntl is None:  # degrade: atomic renames are the only guard
            return self
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(str(self.path), os.O_CREAT | os.O_RDWR, 0o644)
        deadline = time.monotonic() + self.timeout_s
        try:
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        raise LockTimeout(
                            f"could not acquire {self.path} within "
                            f"{self.timeout_s:.1f}s (is another repro "
                            "process stuck?)"
                        )
                    time.sleep(self.poll_s)
        except BaseException:
            os.close(fd)
            raise
        self._fd = fd
        return self

    def release(self) -> None:
        fd, self._fd = self._fd, None
        if fd is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


__all__ = ["FileLock", "LockTimeout"]
