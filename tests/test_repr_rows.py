"""kernel.c's writer of float matrices (kernel.repr_matrix) against Python's
repr, on seeded families of doubles, with a prediction CSV's separators and
a model file's, and the import-time check that stops `import pbp` where the
two differ (kernel.check_repr)."""

import ctypes
import math

import numpy as np
import pytest

import pbp.kernel as kernel

# A model file's separators within and between the rows of a weight matrix.
MODEL_SEPARATORS = (",\n      ", "\n     ],\n     [\n      ")


def assert_rows_are_repr(values: np.ndarray) -> None:
    """The CSV rows repr_matrix writes of the first and the second half of
    values, one value of each a row, are repr of each value; a failure
    names the first row that differs."""
    first, second = (np.ascontiguousarray(half) for half in np.split(values, 2))
    got = kernel.repr_matrix(np.column_stack([first, second]), ",", "\n") + "\n"
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


@pytest.mark.parametrize("shape", [(1, 1), (1, 68), (68, 1), (4, 17), (17, 4)])
@pytest.mark.parametrize("separators", [(",", "\n"), MODEL_SEPARATORS, ("", "")])
def test_matrices_join_their_reprs_with_the_separators_given(shape, separators):
    rng = np.random.default_rng(33)
    values = rng.integers(0, 2**64, size=68, dtype=np.uint64).view(np.float64)
    values[:6] = [-0.0, 5e-324, 1e16, 1e-4, 9.999999999999999e-05, np.nan]
    x, (col_sep, row_sep) = values[: math.prod(shape)].reshape(shape), separators
    want = row_sep.join(col_sep.join(map(repr, row)) for row in x.tolist())
    assert kernel.repr_matrix(x, col_sep, row_sep) == want


def test_a_strided_or_integer_matrix_is_written_as_its_floats():
    x = np.arange(12).reshape(3, 4)
    assert kernel.repr_matrix(x[:, ::2], ",", ";") == "0.0,2.0;4.0,6.0;8.0,10.0"


def test_empty_matrices_are_empty():
    assert kernel.repr_matrix(np.empty((0, 2)), ",", "\n") == ""
    assert kernel.repr_matrix(np.empty((3, 0)), ",", "\n") == ""


def test_arrays_that_are_not_matrices_are_refused():
    with pytest.raises(ValueError):
        kernel.repr_matrix(np.zeros(3), ",", "\n")
    with pytest.raises(ValueError):
        kernel.repr_matrix(np.zeros((2, 2, 2)), ",", "\n")


class _LegacyRepr:
    """A repr_matrix that writes each float as '%.17g', as a Python whose
    float_repr_style is 'legacy' gives repr."""

    @staticmethod
    def repr_matrix(pow5, rows, cols, x, col_sep, col_len, row_sep, row_len, out):
        values = np.frombuffer((ctypes.c_double * (rows * cols)).from_address(x))
        text = row_sep.join(
            col_sep.join(f"{v:.17g}".encode() for v in row)
            for row in values.reshape(rows, cols).tolist()
        )
        ctypes.memmove(out, text, len(text))
        return len(text)


class _SpaceBetweenRows:
    """A repr_matrix that writes each repr but joins the rows by a space."""

    @staticmethod
    def repr_matrix(pow5, rows, cols, x, col_sep, col_len, row_sep, row_len, out):
        return kernel.LIB.repr_matrix(pow5, rows, cols, x, col_sep, col_len, b" ", 1, out)


def test_a_formatter_that_is_not_repr_fails_the_check_in_one_line():
    with pytest.raises(kernel.ExternalError) as failure:
        kernel.check_repr(_LegacyRepr(), kernel.POW5)
    message = str(failure.value)
    assert message.startswith("kernel.c's repr_matrix writes '0' for 0.0 in a (68, 2) matrix ")
    assert "float_repr_style" in message and len(message.splitlines()) == 1
    kernel.check_repr(kernel.LIB, kernel.POW5)


def test_a_writer_with_other_separators_fails_the_check_in_one_line():
    with pytest.raises(kernel.ExternalError) as failure:
        kernel.check_repr(_SpaceBetweenRows(), kernel.POW5)
    message = str(failure.value)
    assert message.startswith("kernel.c's repr_matrix writes '0.0,") and "joined by ',' and '\\n'" in message
    assert len(message.splitlines()) == 1
