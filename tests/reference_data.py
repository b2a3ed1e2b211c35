"""`read_csv_matrix` as it stood before its np.loadtxt fast path, kept verbatim
as a reference.

`pbp.data.read_csv_matrix` must return the same matrix and header, or raise a
`DataError` with the same message, for every file.
"""

import csv
import math
from itertools import chain

import numpy as np

from pbp.data import DataError


def _parse_cell(cell: str, row: int, col: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"non-numeric cell at row {row}, column {col}: {cell!r}") from None
    if not math.isfinite(value):
        raise DataError(f"non-finite value at row {row}, column {col}: {cell!r}")
    return value


def read_csv_matrix(path) -> tuple[np.ndarray, list[str] | None]:
    """Read a numeric CSV with an optional single header row.

    The first row is treated as a header when any of its cells fails to parse
    as a number. Ragged rows and non-finite cells are rejected with row/column
    diagnostics (1-based, header included in the numbering).
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")

    header: list[str] | None = None
    first = rows[0]
    try:
        [float(cell) for cell in first]
    except ValueError:
        header = [cell.strip() for cell in first]
        rows = rows[1:]
        if not rows:
            raise DataError(f"{path}: header but no data rows")

    width = len(rows[0])
    if all(len(row) == width for row in rows):
        try:
            cells = map(float, chain.from_iterable(rows))
            data = np.fromiter(cells, dtype=float, count=len(rows) * width)
        except ValueError:
            data = None
        if data is not None and np.isfinite(data).all():
            return data.reshape(len(rows), width), header

    # A row or cell is bad: parse cell by cell to report the first, in row order.
    offset = 2 if header is not None else 1
    data = np.empty((len(rows), width))
    for r, row in enumerate(rows):
        if len(row) != width:
            raise DataError(
                f"{path}: row {r + offset} has {len(row)} cells, expected {width}"
            )
        for c, cell in enumerate(row):
            data[r, c] = _parse_cell(cell, r + offset, c + 1)
    return data, header
