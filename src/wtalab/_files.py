"""Checked text reads, and atomic writes: a reader sees the old file or the
whole new one."""

from __future__ import annotations

import os
import uuid
from pathlib import Path

from .errors import WtalabError


def read_text(path: str | Path, error_type: type[WtalabError]) -> str:
    """Read a UTF-8 text file, with universal newlines like Path.read_text.

    Bytes that are not UTF-8 raise error_type naming the path and the
    offset of the first bad byte. A missing or unreadable file raises the
    OSError of open.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error_type(
            f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from exc


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
