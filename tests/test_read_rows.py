"""kernel.c's reader of CSV rows (kernel.read_rows) against Python's float(),
on seeded decimal strings, and the import-time check that stops `import pbp`
where the two differ (kernel.check_read)."""

import ctypes
import math

import numpy as np
import pytest

import pbp.data
import pbp.kernel as kernel
from pbp.data import read_csv_matrix


def random_decimals(rng: np.random.Generator, n: int) -> list[str]:
    """n decimal strings of 1-20 significant digits, a point anywhere in or
    around them, leading and trailing zeros, both signs and written
    exponents from -330 to 310: every one whose value float() finds finite."""
    cells = []
    while len(cells) < n:
        size = n - len(cells)
        high, low = rng.integers(10**9, 10**10, size).tolist(), rng.integers(0, 10**10, size).tolist()
        drawn = zip(
            (f"{a}{b:010d}" for a, b in zip(high, low)),  # 20 digits, the first not 0
            rng.integers(1, 21, size).tolist(),
            rng.integers(0, 4, (size, 2)).tolist(),
            rng.integers(0, 24, size).tolist(),
            rng.choice(["", "-", "+"], size).tolist(),
            rng.choice(["", "e", "E"], size).tolist(),  # no exponent written, or one
            rng.integers(-330, 311, size).tolist(),
        )
        for significant, count, (lead, trail), point, sign, e, exponent in drawn:
            body = "0" * lead + significant[:count] + "0" * trail
            if point <= len(body):
                body = body[:point] + "." + body[point:]
            cell = sign + body + (e and e + str(exponent))
            if math.isfinite(float(cell)):
                cells.append(cell)
    return cells


def test_seeded_decimals_read_as_float(tmp_path, monkeypatch):
    cells = random_decimals(np.random.default_rng(25), 100_000)
    rows = [",".join(cells[i : i + 10]) for i in range(0, len(cells), 10)]
    p = tmp_path / "d.csv"
    p.write_text("\n".join(rows) + "\n")
    fallback = []
    monkeypatch.setattr(pbp.data, "_parse_cell", lambda *cell: fallback.append(cell))
    data, header = read_csv_matrix(p)
    assert header is None and not fallback
    want = np.array([float(cell) for cell in cells])
    got = data.ravel()
    if got.tobytes() != want.tobytes():
        k = int(np.argmax(got.view(np.uint64) != want.view(np.uint64)))
        pytest.fail(f"{cells[k]!r} reads as {got[k]!r}, float() gives {want[k]!r}")


def test_rows_grow_past_the_first_buffer():
    # One byte a cell and its comma: past the first guess of one cell in 8 bytes.
    text = b"1,2,3,4\n" * 5000 + b"\n\r\n" + b"5,6,7,8"
    data = kernel.read_rows(text)
    assert data.shape == (5001, 4) and data[-1].tolist() == [5.0, 6.0, 7.0, 8.0]
    assert data.base.size == data.size


def test_a_start_outside_the_text_is_refused():
    for start in (-1, 4):
        with pytest.raises(ValueError):
            kernel.read_rows(b"1,2", start)
    assert kernel.read_rows(b"1,2", 3) is None


class _FifteenDigitReader:
    """A read_rows that reads each cell, one a row, rounded to 15 significant
    digits, as a strtod that does not round correctly might."""

    @staticmethod
    def read_rows(ref):
        args = ref._obj
        values = [float(f"{float(cell):.15g}") for cell in args.text.split()]
        if len(values) > args.capacity:
            return kernel.READ_FULL
        (ctypes.c_double * len(values)).from_address(args.out)[:] = values
        args.rows, args.width, args.pos = len(values), 1, args.size
        return 0


def test_a_reader_that_is_not_float_fails_the_check_in_one_line():
    with pytest.raises(kernel.ExternalError) as failure:
        kernel.check_read(_FifteenDigitReader())
    message = str(failure.value)
    assert message.startswith("kernel.c's read_rows reads ") and "where float() gives" in message
    assert len(message.splitlines()) == 1
    kernel.check_read(kernel.LIB)
