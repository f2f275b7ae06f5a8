"""The files chargesim reads and writes, all as UTF-8 text whatever the
locale. A file that cannot be opened or decoded raises the caller's error
type naming its path: DataError for the CSVs, ConfigError for the config."""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager

from .errors import DataError

POPULATION_HEADER = ("lat", "lon", "population")
NETWORK_HEADER = ("id", "lat", "lon", "kind", "power_kw")


@contextmanager
def open_text(path, what: str, error: type[Exception] = DataError):
    """path open for reading as UTF-8, line ends untranslated; failing to
    open it, or to decode it while open, raises error naming path."""
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    try:
        with fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc


@contextmanager
def csv_body(path, what: str, header: tuple[str, ...]):
    """(fh, first): the CSV at path open after its header, which must hold
    header's names (case and surrounding spaces aside), and the number of
    the line its body starts on."""
    with open_text(path, what) as fh:
        reader = csv.reader(fh)
        names = next(reader, None)
        if names is None:
            raise DataError(f"{path}: empty file")
        if [h.strip().lower() for h in names] != list(header):
            raise DataError(f"{path}: line 1: expected header {','.join(header)}")
        yield fh, reader.line_num + 1


def is_blank(fields: list[str]) -> bool:
    """Whether a CSV record holds no row: csv read it as no field or one
    blank field."""
    return len(fields) < 2 and not "".join(fields).strip()


@contextmanager
def _replacing(path, newline: str | None = None):
    """A file open for writing as UTF-8 in place of path: a temporary file
    beside it that replaces path once the block ends without error."""
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
        yield fh
    os.replace(tmp, path)


def write_text_atomic(path, text: str) -> None:
    """text to path as UTF-8, through a temporary file beside it."""
    with _replacing(path) as fh:
        fh.write(text)


def write_csv(path, header, rows, *, line_end: str) -> None:
    """header, then rows, to path as UTF-8 CSV through a temporary file
    beside it; fields that hold a comma, quote or line break are quoted."""
    with _replacing(path, newline="") as fh:
        w = csv.writer(fh, lineterminator=line_end)
        w.writerow(header)
        w.writerows(rows)
