"""kernel.c's formatter of prediction rows (kernel.repr_rows) against Python's
repr, on seeded families of doubles, and the import-time check that stops
`import pbp` where the two differ (kernel.check_repr)."""

import ctypes
import math

import numpy as np
import pytest

import pbp.kernel as kernel


def assert_rows_are_repr(values: np.ndarray) -> None:
    """repr_rows of the first and the second half of values, one value of
    each a row, is repr of each value; a failure names the first row that
    differs."""
    first, second = (np.ascontiguousarray(half) for half in np.split(values, 2))
    got = kernel.repr_rows(first, second)
    want = "".join(f"{x!r},{y!r}\n" for x, y in zip(first.tolist(), second.tolist()))
    if got != want:
        rows = zip(got.splitlines(), want.splitlines(), first.tolist(), second.tolist())
        for row, (got_row, want_row, x, y) in enumerate(rows):
            assert got_row == want_row, f"row {row}: the bits of {x!r} and {y!r}"
        assert got == want


def neighbours(values: np.ndarray, ulps: int) -> np.ndarray:
    """values and the doubles up to ulps steps below and above each."""
    out, below, above = [values], values, values
    with np.errstate(over="ignore"):  # above the largest double: inf
        for _ in range(ulps):
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
            out += [below, above]
    return np.concatenate(out)


def exact_interval_ends() -> np.ndarray:
    """Doubles x = m * 2 ** (e2 + 2), m in [2 ** 52, 2 ** 53), whose rounding
    interval has an end or its middle, (4m - 2, 4m + 2 or 4m) * 2 ** e2, a
    multiple of 5 ** q, where 10 ** q is what kernel.c's conversion divides
    by for x (q from 0 to 22): the doubles whose digits take its
    trailing-zero tests, which it runs up to q = 21. All of them for q of 19
    and more, the first 40 of each end and binary exponent below."""
    values = []
    for e2 in range(4, 80):
        q = math.floor(e2 * math.log10(2.0)) - 1
        power = 5**q
        for residue in (0, 2 * pow(4, -1, power), -2 * pow(4, -1, power)):
            first = 2**52 + (residue - 2**52) % power
            mantissas = range(first, 2**53, power)
            values += [math.ldexp(m, e2 + 2) for m in (mantissas if q >= 19 else mantissas[:40])]
    return np.array(values)


def test_random_bit_patterns_format_as_repr():
    bits = np.random.default_rng(24).integers(0, 2**64, size=1_000_000, dtype=np.uint64)
    assert_rows_are_repr(bits.view(np.float64))


def test_edge_values_format_as_repr():
    smallest_normal = 2.0**-1022
    specials = np.array([
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
        5e-324, np.nextafter(smallest_normal, 0.0), smallest_normal, np.finfo(float).max,
        9999999999999998.0, 1e16, 1e-4, 9.999999999999999e-05,
    ])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    integers = np.concatenate([
        np.arange(10_000),
        *(np.random.default_rng(k).integers(2 ** (k - 1), 2**k + 1, size=500) for k in range(14, 54)),
    ]).astype(np.float64)
    values = np.concatenate([
        specials, neighbours(specials[6:], 50), twos, neighbours(tens, 2), integers,
        exact_interval_ends(),
    ])
    assert_rows_are_repr(np.concatenate([values, -values]))


def test_empty_rows_are_empty():
    assert kernel.repr_rows(np.empty(0), np.empty(0)) == ""


def test_rows_of_arrays_of_other_shapes_are_refused():
    with pytest.raises(ValueError):
        kernel.repr_rows(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        kernel.repr_rows(np.zeros((2, 2)), np.zeros((2, 2)))


class _LegacyRepr:
    """A repr_rows that writes each float as '%.17g', as a Python whose
    float_repr_style is 'legacy' gives repr."""

    @staticmethod
    def repr_rows(pow5, n, first, second, out):
        a, b = (np.frombuffer((ctypes.c_double * n).from_address(p)) for p in (first, second))
        text = "".join(f"{x:.17g},{y:.17g}\n" for x, y in zip(a.tolist(), b.tolist())).encode()
        ctypes.memmove(out, text, len(text))
        return len(text)


def test_a_formatter_that_is_not_repr_fails_the_check_in_one_line():
    with pytest.raises(kernel.ExternalError) as failure:
        kernel.check_repr(_LegacyRepr(), kernel.POW5)
    message = str(failure.value)
    assert message.startswith("kernel.c's repr_rows writes ") and "float_repr_style" in message
    assert len(message.splitlines()) == 1
    kernel.check_repr(kernel.LIB, kernel.POW5)
