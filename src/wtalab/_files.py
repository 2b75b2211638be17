"""Checked text reads, atomic writes (a reader sees the old file or the
whole new one), and the cell format of the CSV run files.

A CSV file's columns are the fields of its record dataclass, in order. Each
cell is written by csv_field and read back by its field's annotation, so a
float or a histogram round-trips exactly.
"""

from __future__ import annotations

import dataclasses
import os
import uuid
from pathlib import Path
from typing import Iterable

from .errors import WtalabError


def read_text(path: str | Path, error_type: type[WtalabError]) -> str:
    """Read a UTF-8 text file, with universal newlines like Path.read_text.

    Bytes that are not UTF-8 raise error_type as decode_text says. A missing
    or unreadable file raises the OSError of open.
    """
    return decode_text(Path(path).read_bytes(), path, error_type)


def decode_text(data: bytes, path: str | Path, error_type: type[WtalabError]) -> str:
    """The text of a file's bytes, as Path.read_text decodes them: UTF-8, with
    universal newlines (CRLF and a lone CR read as LF).

    Bytes that are not UTF-8 raise error_type naming path and the offset of
    the first bad byte.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error_type(
            f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from exc
    if "\r" not in text:  # one fast scan, where each replace is a slow one
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


def write_text_atomic(path: str | Path, text: str | Iterable[str]) -> None:
    """Write text, or the pieces of text an iterable yields, to a temporary
    file beside path, then rename it over path.

    A str is written in one call. An iterable is drawn only once the
    temporary file is open, so a lazy one makes nothing for a path that
    cannot be written. The temporary file is created like Path.write_text
    creates its file, so the permissions and bytes match a plain write. It
    is removed if the write, or the iterable, fails.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(temp, "x") as handle:
            if isinstance(text, str):
                handle.write(text)  # writelines would take it a character at a time
            else:
                handle.writelines(text)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def csv_field(value) -> str:
    """One CSV cell: empty for None, repr for a float, counts joined by ";"
    for a list, str otherwise."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ";".join(map(str, value))
    return str(value)


def csv_header(cls) -> tuple[str, ...]:
    """The column names of the record dataclass cls: its fields, in order."""
    return tuple(field.name for field in dataclasses.fields(cls))


# Cell parsers by field annotation, as the record modules write it: they
# postpone annotations, so a field's type is this text.
_CSV_PARSERS = {
    "int": int,
    "float": float,
    "float | None": lambda text: None if text == "" else float(text),
    "list[int]": lambda text: [int(count) for count in text.split(";")],
}


def parse_csv_row(cls, line: str, where: str, error_type: type[WtalabError]):
    """The instance of the record dataclass cls that one line of csv_field
    cells describes.

    Each cell is parsed by its field's annotation: int, float, float | None
    or list[int]. A wrong number of cells, or a cell that does not parse,
    raises error_type with a message that starts with where.
    """
    fields = dataclasses.fields(cls)
    cells = line.split(",")
    if len(cells) != len(fields):
        raise error_type(f"{where}: expected {len(fields)} fields, got {len(cells)}")
    try:
        return cls(*(_CSV_PARSERS[f.type](cell) for f, cell in zip(fields, cells)))
    except ValueError as exc:
        raise error_type(f"{where}: {exc}") from None
