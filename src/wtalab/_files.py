"""Checked text reads, JSON object reads and the types of a JSON number,
atomic writes (a reader sees the old file or the whole new one), and the
cell format of the CSV run files.

A CSV file's columns are the fields of its record dataclass, in order. Each
row is written by csv_text and each cell by csv_field. Of the run files only
epochs.csv is read back, by parse_csv_row, which parses each cell by its
field's annotation, so a float round-trips exactly.
"""

from __future__ import annotations

import codecs
import csv
import dataclasses
import io
import json
import os
import uuid
from pathlib import Path
from typing import Iterable, Iterator

from .errors import WtalabError

# The types json.loads gives a JSON number. Readers check a value's exact
# type against them, so that true and false are not numbers.
NUMBER_TYPES = frozenset({int, float})


def read_text(path: str | Path, error_type: type[WtalabError]) -> str:
    """Read a UTF-8 text file as Path.read_text does, with universal
    newlines (CRLF and a lone CR read as LF).

    Bytes that are not UTF-8 raise error_type as decode_reads says. A
    missing or unreadable file raises the OSError of open.
    """
    data = Path(path).read_bytes()
    return "".join(decode_reads((data,), path, error_type))


def decode_reads(
    reads: Iterable[bytes], path: str | Path, error_type: type[WtalabError]
) -> Iterator[str]:
    """The UTF-8 text of the bytes that reads yield, with universal
    newlines, as a piece of text per read.

    Bytes that are not UTF-8 raise error_type naming path and the offset of
    the first bad byte in the whole. The joined pieces do not depend on
    where the reads split the bytes: a character or a CRLF split between two
    reads is decoded whole. No read's bytes are kept while a piece is out,
    so a caller that drops each piece before the next holds one read and
    its text at a time.
    """
    offset = 0  # of `held` in the whole
    held = b""  # the start of a character that the next read completes
    cr = ""  # a piece's final CR, kept back in case the next piece starts with LF

    def decode(data: bytes, final: bool) -> str:
        nonlocal offset, held, cr
        try:
            text, used = codecs.utf_8_decode(data, "strict", final)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc, offset, error_type) from exc
        offset += used
        held = data[used:]
        text = cr + text
        cr = "\r" if text.endswith("\r") and not final else ""
        return _universal_newlines(text[:-1] if cr else text)

    for data in reads:
        if held:
            data = held + data
        text = decode(data, final=False)
        del data
        if text:
            yield text
        del text  # before the next read
    if text := decode(held, final=True):
        yield text


def _not_utf8(
    path: str | Path, exc: UnicodeDecodeError, offset: int, error_type: type[WtalabError]
) -> WtalabError:
    """error_type for bytes that are not UTF-8; exc.start is counted from offset."""
    return error_type(f"{path} is not UTF-8 text: {exc.reason} at byte {offset + exc.start}")


def _universal_newlines(text: str) -> str:
    """text with CRLF and a lone CR read as LF."""
    if "\r" not in text:  # one fast scan, where each replace is a slow one
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_json_object(path: str | Path, what: str, error_type: type[WtalabError]) -> dict:
    """The JSON object held by the UTF-8 text file at path. Anything that
    json.loads rejects (bad syntax, an integer too long to convert, nesting
    too deep to parse) or a value that is not an object raises error_type."""
    text = read_text(path, error_type)
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error_type(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise error_type(f"{what} {path} must hold a JSON object")
    return data


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


def csv_text(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    """A CSV file's text: the header line, then one line of csv_field cells
    per row of values. csv.writer quotes a cell that holds a comma, a quote
    or a newline."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(csv_field, row) for row in rows)
    return buffer.getvalue()


def csv_header(cls) -> tuple[str, ...]:
    """The column names of the record dataclass cls: its fields, in order."""
    return tuple(field.name for field in dataclasses.fields(cls))


# Cell parsers by field annotation, as the record modules write it: they
# postpone annotations, so a field's type is this text.
_CSV_PARSERS = {
    "int": int,
    "float": float,
    "float | None": lambda text: None if text == "" else float(text),
}


def parse_csv_row(cls, line: str, where: str, error_type: type[WtalabError]):
    """The instance of the record dataclass cls that one line of csv_field
    cells describes.

    Each cell is parsed by its field's annotation: int, float or
    float | None. A wrong number of cells, or a cell that does not parse,
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
