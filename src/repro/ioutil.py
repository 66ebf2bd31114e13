"""Crash-safe file writing.

The platform's persistence (capture stores, metrics and trace exports)
must never leave a truncated-but-valid-looking file behind: a JSONL file
cut short mid-write still parses line by line, so a crashed writer would
silently lose records. All on-disk artifacts are therefore written to a
temporary file in the destination directory and atomically renamed into
place -- readers observe either the complete old file or the complete
new one, never a prefix.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Union

PathLike = Union[str, Path]


@contextmanager
def atomic_write(
    path: PathLike, mode: str = "w", encoding: str = "utf-8"
) -> Iterator[IO]:
    """Open a handle that atomically replaces *path* on success.

    *mode* is ``"w"`` (text, *encoding*) or ``"wb"`` (bytes). The handle
    writes to a temporary file in the same directory (same
    filesystem, so the final ``os.replace`` is atomic). On a clean exit
    the data is flushed, fsynced and renamed over *path*; on any
    exception the temporary file is removed and *path* is untouched.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent) or ".", prefix=path.name + ".", suffix=".tmp"
    )
    handle = os.fdopen(fd, mode, encoding=None if "b" in mode else encoding)
    try:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
    except BaseException:
        handle.close()
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    handle.close()
    os.replace(tmp_name, path)
