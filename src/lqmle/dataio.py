"""Reading univariate series from delimited text files."""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .errors import DataFormatError

__all__ = ["read_series", "write_series"]


def read_series(
    path,
    column: str | int | None = None,
    delimiter: str = ",",
    header: bool = False,
    diff: bool = False,
) -> np.ndarray:
    """Load one numeric column; non-numeric cells fail with their line number.

    ``column`` selects by zero-based index, or by name when ``header``
    is set; the default is the first column, and a negative index is a
    DataFormatError.  ``diff`` returns first differences (one
    observation shorter), for series recorded in levels.  The file is
    UTF-8 and may start with a byte-order mark.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        text = fh.read()
    lines = io.StringIO(text, newline="")
    rows = csv.reader(lines, delimiter=delimiter)
    col_idx = 0 if column is None else column
    if header:
        head = next(rows, None)
        if head is None:
            raise DataFormatError(f"{path}: empty file")
        head = [c.strip() for c in head]
        if isinstance(column, str):
            if column not in head:
                raise DataFormatError(f"{path}: no column named {column!r}; have {head}")
            col_idx = head.index(column)
    elif isinstance(column, str):
        raise DataFormatError("column selection by name requires a header row")
    col_idx = int(col_idx)
    if col_idx < 0:
        raise DataFormatError(f"{path}: column index must be zero or more, got {col_idx}")

    # the rows after the header in one pass; a file that pass refuses
    # (blank cells, a short row, a bad value) or cannot read as csv
    # does (quotes) is read row by row, which skips blank rows and names
    # the line of a bad one
    body = text[lines.tell() :]
    series = None
    if body.strip() and '"' not in body:
        try:
            series = np.loadtxt(
                io.StringIO(body), delimiter=delimiter, usecols=col_idx, comments=None, ndmin=1
            )
        except ValueError:
            pass
    if series is None:
        series = _column(path, rows, int(header), col_idx)
    if diff:
        if series.size < 2:
            raise DataFormatError(f"{path}: need at least two rows to difference")
        series = np.diff(series)
    return series


def _column(path: Path, rows, lineno: int, col_idx: int) -> np.ndarray:
    """Column ``col_idx`` of the csv ``rows`` that follow row ``lineno``; blank rows are skipped."""
    values = []
    for offset, row in enumerate(rows, start=lineno + 1):
        if not row or all(not c.strip() for c in row):
            continue
        if col_idx >= len(row):
            raise DataFormatError(f"{path}:{offset}: row has only {len(row)} columns")
        cell = row[col_idx].strip()
        try:
            values.append(float(cell))
        except ValueError:
            raise DataFormatError(f"{path}:{offset}: non-numeric value {cell!r}") from None
    if not values:
        raise DataFormatError(f"{path}: no numeric observations found")
    return np.asarray(values, dtype=float)


def write_series(path, values) -> None:
    arr = np.asarray(values, dtype=float).ravel()
    with Path(path).open("w", newline="") as fh:
        for v in arr:
            fh.write(repr(float(v)) + "\n")
