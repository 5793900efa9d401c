"""Byte kernels of the CSV writer: shortest float reprs, integer digits, column rows."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritydistill import _csvbytes
from paritydistill._csvbytes import float_repr, text_table, write_columns

MAX_FLOAT = sys.float_info.max


def assert_reprs(values) -> None:
    """Each row of ``float_repr``, less its NULs, is the value's repr."""
    values = np.asarray(values, dtype=np.float64)
    for lo in range(0, len(values), _csvbytes.BATCH_ROWS):
        chunk = values[lo : lo + _csvbytes.BATCH_ROWS]
        text = float_repr(chunk)
        assert text.dtype == np.uint8 and len(text) == len(chunk)
        got = [row.tobytes().replace(b"\0", b"") for row in text]
        want = [repr(v).encode() for v in chunk.tolist()]
        assert got == want


def neighbours(values):
    """Each value with the floats one ulp either side of it."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


def test_float_repr_on_random_bit_patterns():
    rng = np.random.default_rng(20201)
    patterns = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    assert_reprs(patterns.view(np.float64))
    # subnormals, random and the first 5,000 ulps above zero
    subnormals = rng.integers(1, 2**52, 50_000, dtype=np.uint64)
    assert_reprs(np.concatenate([subnormals, np.arange(1, 5001, dtype=np.uint64)]).view(np.float64))


def test_float_repr_on_uniform_and_scaled_values():
    rng = np.random.default_rng(7)
    assert_reprs(rng.random(100_000))
    scale = 10.0 ** rng.integers(-30, 31, 100_000)
    assert_reprs(rng.uniform(-1.0, 1.0, 100_000) * scale)


def test_float_repr_on_edge_families():
    powers_of_two = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    assert_reprs(powers_of_two + [-p for p in powers_of_two])
    assert_reprs([float(f"1e{e}") for e in range(-323, 309)])
    assert_reprs(np.arange(-100_000, 100_001, dtype=np.float64))
    # repr switches notation at 1e16 and between 1e-4 and 1e-5
    assert_reprs(neighbours([1e16, 1e-4, 1e-5, 1e15, 2.0**53, 9.999999999999999e15]))
    assert_reprs([2.0**53 - 1, 2.0**53 + 2, 5e-324, MAX_FLOAT, -MAX_FLOAT, 2.2250738585072014e-308])
    assert_reprs([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 0.1, 1 / 3, 123456.789])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
def test_float_repr_matches_repr_for_any_float(values):
    assert_reprs(values)


def test_float_repr_of_no_values():
    assert float_repr(np.array([])).shape[0] == 0


def test_exponent_helpers_are_exact_over_the_float64_range():
    for e in range(-1100, 1100):
        two = Fraction(2) ** e
        k = _csvbytes._flog10_pow2(e)
        assert Fraction(10) ** k <= two < Fraction(10) ** (k + 1)
        k = _csvbytes._flog10_three_quarters_pow2(e)
        assert Fraction(10) ** k <= two * Fraction(3, 4) < Fraction(10) ** (k + 1)
    for e in range(-330, 330):
        k = _csvbytes._flog2_pow10(e)
        assert Fraction(2) ** k <= Fraction(10) ** e < Fraction(2) ** (k + 1)


def test_power_table_brackets_each_power_of_ten():
    g1, g0 = _csvbytes._powers_of_ten()
    assert len(g1) == _csvbytes._K_MAX - _csvbytes._K_MIN + 1 == 617
    for row, k in enumerate(range(_csvbytes._K_MIN, _csvbytes._K_MAX + 1)):
        g = (int(g1[row]) << 63) + int(g0[row])
        assert 2**125 < g <= 2**126
        r = _csvbytes._flog2_pow10(-k) - 125
        # (g - 1) 2^r <= 10^-k < g 2^r
        scaled = Fraction(10) ** -k / Fraction(2) ** r
        assert g - 1 <= scaled < g


def test_power_table_is_built_on_first_use_not_at_import():
    # the child imports the package under test from where this process found it
    package_root = os.path.dirname(os.path.dirname(_csvbytes.__file__))
    probe = (
        f"import sys; sys.path.insert(0, {package_root!r})\n"
        "import paritydistill, paritydistill._csvbytes as c\n"
        "assert c._powers_of_ten.cache_info().currsize == 0\n"
        "c.float_repr(c.np.array([0.5]))\n"
        "assert c._powers_of_ten.cache_info().currsize == 1\n"
    )
    subprocess.run([sys.executable, "-c", probe], check=True)


def test_write_columns_joins_float_and_word_columns(tmp_path):
    """Float, integer and word columns, byte-equal to per-row str and repr."""
    rows = _csvbytes.BATCH_ROWS
    n = 3 * rows + 17
    rng = np.random.default_rng(3)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    x[::97] = -0.0
    # the first batch holds exactly as many distinct bit patterns as repr
    # formats, specials among them; the second one more
    few = _csvbytes._REPR_MAX_DISTINCT
    special = [0.0, -0.0, math.nan, -math.nan, 5e-324, math.inf]
    for batch, count in ((0, few), (1, few + 1)):
        pool = np.concatenate([special, rng.random(count - len(special))])
        x[batch * rows : (batch + 1) * rows] = rng.permutation(np.resize(pool, rows))
        assert len(np.unique(x[batch * rows : (batch + 1) * rows].view(np.uint64))) == count
    # integers below 2**32 in the first batch, around it in the second
    # and up to the top of each type in the last
    signed = rng.integers(0, 2**32, n, dtype=np.int64)
    signed[rows : rows + 3] = (2**32 - 1, 2**32, 2**32 + 1)
    signed[-1] = 2**63 - 1
    unsigned = signed.astype(np.uint64)
    unsigned[-3:] = (2**63, 2**64 - 2, 2**64 - 1)
    words = text_table(["", "a", "bb"])
    codes = rng.integers(0, 3, n)
    columns = [x, (words, codes), signed, unsigned, x]
    write_columns(tmp_path / "out.csv", ["x", "w", "i", "u", "y"], columns)
    names = ["", "a", "bb"]
    want = "x,w,i,u,y\n" + "".join(
        f"{v!r},{names[c]},{i},{u},{v!r}\n"
        for v, c, i, u in zip(x.tolist(), codes.tolist(), signed.tolist(), unsigned.tolist())
    )
    assert (tmp_path / "out.csv").read_text() == want


def test_write_columns_rejects_columns_it_would_misprint(tmp_path):
    path = tmp_path / "out.csv"
    for column, message in (
        (np.array([1, -1, 2]), "must be nonnegative"),
        (np.full(3, 0.5, dtype=np.float32), "a column is a float64 array"),
        ([0.5, 0.5, 0.5], "a column is a float64 array"),
    ):
        with pytest.raises(ValueError, match=message):
            write_columns(path, ["x", "y"], [np.zeros(3), column])
        assert not path.exists()
