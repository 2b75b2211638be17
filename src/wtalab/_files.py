"""Atomic file writes: a reader sees the old file or the whole new one."""

from __future__ import annotations

import os
import uuid
from pathlib import Path


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text to a temporary file beside path, then rename it over path.

    The temporary file is created like Path.write_text creates its file, so
    the permissions and bytes match a plain write. It is removed if the
    write fails.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(temp, "x") as handle:
            handle.write(text)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
