"""The numpy writer of paths.csv against the "%.9g" template it replaces:
the same bytes on value sets that reach each branch of the layout."""

import io

import numpy as np
import pytest

from levyreduce.cli import _write_float32_rows


def template_text(values):
    template = ",".join(["%.9g"] * values.shape[1]) + "\n"
    return "".join(template % tuple(row) for row in values.tolist()).encode()


def written(values):
    fh = io.BytesIO()
    _write_float32_rows(fh, values)
    return fh.getvalue()


def f32(values, columns):
    flat = np.asarray(values, dtype=np.float32).ravel()
    return np.resize(flat, (-(-flat.size // columns), columns))


def neighbours(values):
    """Each float32 value with the float32 just below and just above it."""
    v = np.asarray(values, dtype=np.float32)
    return np.concatenate(
        [np.nextafter(v, np.float32(0)), v, np.nextafter(v, np.float32(np.inf))]
    )


RNG = np.random.default_rng(20261022)
POWERS = 10.0 ** np.arange(-10, 11)

VALUE_SETS = {
    # every bit pattern: negatives, -0, NaN, infinities and subnormals
    "random-bits": RNG.integers(0, 2**32, 20_000, dtype=np.uint64)
    .astype(np.uint32)
    .view(np.float32),
    # every bit pattern from the least float32 above 1e-9 to 1e9
    "in-range-bits": RNG.integers(
        np.nextafter(np.float32(1e-9), np.float32(1)).view(np.uint32),
        np.float32(1e9).view(np.uint32),
        20_000,
    )
    .astype(np.uint32)
    .view(np.float32),
    "log-uniform": np.exp(RNG.uniform(np.log(1e-12), np.log(1e12), 20_000)),
    "dyadic": np.ldexp(RNG.integers(1, 2**12, 5_000), RNG.integers(-45, 30, 5_000)),
    "integers": np.concatenate([RNG.integers(0, 2**30, 5_000), np.arange(2**24 - 50, 2**24 + 50)]),
    "powers-of-ten": np.outer(POWERS, [1.0, 1.0 + 1e-8, 1.0 - 1e-8, 0.5, 9.9999999, 1.25]),
    "power-of-ten-neighbours": neighbours(POWERS),
    # [1e6, 1e9) holds many exact round-half-even ties at nine digits
    "ties": RNG.uniform(1e5, 1e9, 20_000),
    "exponent-boundary": neighbours([1e-4, 9.9999e-5, 1e-5, 1e-9, 1e9]),
    "low-rate": np.where(RNG.random(20_000) < 0.2, 0.0, RNG.exponential(1e-4, 20_000) ** 2),
}


@pytest.mark.parametrize("name", sorted(VALUE_SETS))
def test_same_bytes_as_the_template(name):
    values = f32(VALUE_SETS[name], 37)
    assert written(values) == template_text(values)


@pytest.mark.parametrize(
    "value, text",
    [
        (1234567.125, b"1234567.12"),
        (1234567.375, b"1234567.38"),
        (1.001953125, b"1.00195312"),
        (2.0**-12, b"0.000244140625"),
        (2.0**-14, b"6.10351562e-05"),
        (2.0**-15, b"3.05175781e-05"),
        (0.5, b"0.5"),
        (100.0, b"100"),
        (999999936.0, b"999999936"),
        (0.0, b"0"),
        (-0.0, b"-0"),
    ],
)
def test_known_texts(value, text):
    assert written(f32([value, 1.0], 2)) == text + b",1\n"


def test_fallback_rows_keep_their_place():
    # rows of values the numpy layout leaves out, between and across
    # chunks of paths
    values = f32(RNG.exponential(0.7, 200 * 11), 11)
    values[[0, 63, 64, 65, 130, 199], 3] = [1e-12, -1.0, np.inf, np.nan, 5e-10, 2e9]
    assert written(values) == template_text(values)
