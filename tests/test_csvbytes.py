"""Byte kernels of the CSV writer: shortest float reprs, integer digits, column rows."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_same_lines, place_digits

from paritydistill import _csvbytes
from paritydistill._csvbytes import ascii_digits, float_repr, text_table, write_columns

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


def test_quad_table_is_built_on_first_use_not_at_import():
    package_root = os.path.dirname(os.path.dirname(_csvbytes.__file__))
    probe = (
        f"import sys; sys.path.insert(0, {package_root!r})\n"
        "import paritydistill.cli, paritydistill._csvbytes as c\n"
        "assert c._quads.cache_info().currsize == 0\n"
        "c.ascii_digits(c.np.array([7]))\n"
        "assert c._quads.cache_info().currsize == 1\n"
    )
    subprocess.run([sys.executable, "-c", probe], check=True)


def test_quad_table_rows():
    quads = _csvbytes._quads()
    assert quads.dtype == np.uint32 and quads.shape == (30_000,)
    rows = quads.view(np.uint8).reshape(30_000, 4)
    for i in range(10_000):
        padded = f"{i:4d}".replace(" ", "\0").encode()
        assert rows[i].tobytes() == f"{i:04d}".encode()
        assert rows[10_000 + i].tobytes() == (padded if i else b"\0" * 4)
        assert rows[20_000 + i].tobytes() == padded


def test_write_columns_joins_float_and_word_columns(tmp_path):
    """Float, integer and word columns, byte-equal to per-row str and repr."""
    rows = _csvbytes.BATCH_ROWS
    n = 3 * rows + 17
    rng = np.random.default_rng(3)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    x[::97] = -0.0
    # the first batch holds exactly as many distinct bit patterns as repr
    # formats in a call of its one float column, specials among them; the
    # second one more
    few = _csvbytes._REPR_MAX_DISTINCT + rows // 4
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
    assert_same_lines((tmp_path / "out.csv").read_text(), want)


def test_write_columns_writes_every_column_kind(tmp_path):
    """Every kind of column in one table, byte-equal to per-row f-strings."""
    n = _csvbytes._batch_rows(2) + 300
    rng = np.random.default_rng(41)
    # float labels hold NULs inside their rows: lead, body and exponent
    # are each padded to the widest in the table
    grid = np.array([0.0, -0.001, 1e-07, 12.5, -2.5e20, math.inf, 0.1])
    labels = float_repr(grid)
    assert any(b"\0" in row.tobytes().strip(b"\0") for row in labels)
    label = rng.integers(0, len(grid), n)
    seed = (text_table(["20201"]), np.broadcast_to(np.intp(0), (n,)))
    # one integer column of each width from 1 to 19 digits, values of
    # every narrower width among them
    integers = []
    for width in range(1, 20):
        column = rng.integers(0, 10 ** rng.integers(0, width, n), dtype=np.int64)
        column[rng.integers(0, n)] = min(10**width, 2**63) - 1
        integers.append(column)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    y = rng.random(n)
    columns = [seed, (labels, label), *integers, x, y, x]
    header = ["seed", "label", *(f"i{w}" for w in range(1, 20)), "x", "y", "x2"]
    write_columns(tmp_path / "out.csv", header, columns)
    names = [repr(v) for v in grid.tolist()]
    rows = zip(label.tolist(), *(c.tolist() for c in integers), x.tolist(), y.tolist())
    want = ",".join(header) + "\n" + "".join(
        f"20201,{names[code]},{','.join(map(str, ints))},{u!r},{v!r},{u!r}\n"
        for code, *ints, u, v in rows
    )
    assert_same_lines((tmp_path / "out.csv").read_text(), want)


def test_float_repr_working_set():
    # the budget BATCH_ROWS' comment cites, ~200 bytes a value: at most
    # 1.66 MiB of temporaries for a full float batch of drift's
    values = np.random.default_rng(42).standard_normal(8_190)
    float_repr(values)  # the tables, built once
    tracemalloc.start()
    try:
        float_repr(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.66 * 2**20, peak


def test_write_columns_rejects_columns_it_would_misprint(tmp_path):
    path = tmp_path / "out.csv"
    words = text_table(["a", "b"])
    for column, message in (
        (np.array([1, -1, 2]), "must be nonnegative"),
        (np.full(3, 0.5, dtype=np.float32), "a column is a float64 array"),
        ([0.5, 0.5, 0.5], "a column is a float64 array"),
        (np.arange(5.0), "columns differ in length"),
        (np.arange(2), "columns differ in length"),
        ((words, np.zeros(4, dtype=np.intp)), "columns differ in length"),
        ((words, np.array([0, 1, 2])), "a code indexes no row of its table"),
        ((words, np.array([0, -1, 1])), "a code indexes no row of its table"),
    ):
        with pytest.raises(ValueError, match=message):
            write_columns(path, ["x", "y"], [np.zeros(3), column])
        assert not path.exists()


def csv_by_repr(header, columns) -> str:
    """The CSV of float64 columns, one ``repr`` per field."""
    rows = zip(*(column.tolist() for column in columns))
    return ",".join(header) + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


def spy_float_repr(monkeypatch):
    """Record the length of each ``float_repr`` call of the writer."""
    calls = []

    def recording(values):
        calls.append(len(values))
        return float_repr(values)

    monkeypatch.setattr(_csvbytes, "float_repr", recording)
    return calls


@pytest.mark.parametrize("k", [1, 3, 5])
def test_write_columns_formats_a_batchs_float_columns_in_one_call(k, tmp_path, monkeypatch):
    """k float columns straddling batch edges, byte-equal to per-row repr."""
    rows = _csvbytes._batch_rows(k)
    assert rows * k <= 2 * _csvbytes.BATCH_ROWS
    # the last batch's distinct values still go through float_repr
    tail = rows // 2 + 3
    n = 2 * rows + tail
    rng = np.random.default_rng(k)
    columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n) for _ in range(k)]
    calls = spy_float_repr(monkeypatch)
    header = [f"c{i}" for i in range(k)]
    write_columns(tmp_path / "out.csv", header, columns)
    got = (tmp_path / "out.csv").read_text()
    assert_same_lines(got, csv_by_repr(header, columns))
    # one call a batch, each within the writer's float budget
    assert calls == [rows * k, rows * k, tail * k]
    assert max(calls) <= 2 * _csvbytes.BATCH_ROWS


def test_write_columns_joins_few_and_many_distinct_floats(tmp_path, monkeypatch):
    rows = _csvbytes._batch_rows(2)
    n = rows + 5
    rng = np.random.default_rng(11)
    few = rng.choice([0.25, 1.0 / 3.0, -0.0], n)
    many = rng.random(n)
    calls = spy_float_repr(monkeypatch)
    write_columns(tmp_path / "out.csv", ["few", "many"], [few, many])
    got = (tmp_path / "out.csv").read_text()
    assert_same_lines(got, csv_by_repr(["few", "many"], [few, many]))
    # the batches' distinct values are counted over both columns together
    assert calls == [2 * rows]
    # two few-distinct columns go through repr together
    calls.clear()
    write_columns(tmp_path / "out.csv", ["few", "twice"], [few, 2.0 * few])
    got = (tmp_path / "out.csv").read_text()
    assert_same_lines(got, csv_by_repr(["few", "twice"], [few, 2.0 * few]))
    assert calls == []


def test_write_columns_formats_a_column_passed_twice_once(tmp_path, monkeypatch):
    rows = _csvbytes._batch_rows(2)
    assert rows == _csvbytes.BATCH_ROWS
    n = rows + 9
    rng = np.random.default_rng(12)
    x, y = rng.random(n), rng.standard_normal(n)
    calls = spy_float_repr(monkeypatch)
    write_columns(tmp_path / "out.csv", ["x", "y", "x2", "y2"], [x, y, x, y])
    got = (tmp_path / "out.csv").read_text()
    assert_same_lines(got, csv_by_repr(["x", "y", "x2", "y2"], [x, y, x, y]))
    # each object goes into the one call of a batch once; the last goes through repr
    assert calls == [2 * rows]


def test_write_columns_joins_special_floats(tmp_path):
    rows = _csvbytes._batch_rows(3)
    n = 2 * rows + 3
    rng = np.random.default_rng(13)
    special = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324]
    subnormal = rng.integers(1, 2**52, n, dtype=np.uint64).view(np.float64)
    columns = [
        np.resize(special, n),
        subnormal,
        rng.permutation(np.concatenate([special, rng.standard_normal(n - len(special))])),
    ]
    header = ["special", "subnormal", "mixed"]
    write_columns(tmp_path / "out.csv", header, columns)
    got = (tmp_path / "out.csv").read_text()
    assert_same_lines(got, csv_by_repr(header, columns))


# each 4-digit group boundary, around 2^32 where the kernel leaves uint32,
# and the top of each integer type
DIGIT_EDGES = [0, 9, 10, 9_999, 10**4, 10**8 - 1, 10**8, 2**32 - 1, 2**32, 2**63 - 1]


@pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.uint32, np.int16, np.uint8])
def test_ascii_digits_matches_the_place_loop(dtype):
    rng = np.random.default_rng(38)
    top = np.iinfo(dtype).max
    edges = [e for e in DIGIT_EDGES + [2**64 - 1] if e <= top]
    for edge in edges:
        # alone, beside 0 and 1, and among values of every narrower width
        lows = [10 ** rng.integers(0, 19) for _ in range(64)]
        mixed = [int(rng.integers(0, min(low, edge) + 1)) for low in lows]
        for values in ([edge], [edge, 0, 1], [edge, *mixed]):
            values = np.array(values, dtype=dtype)
            want = place_digits(values)
            np.testing.assert_array_equal(ascii_digits(values), want)
            ended = ascii_digits(values, end=ord(","))
            assert ended.shape == (len(values), want.shape[1] + 1)
            np.testing.assert_array_equal(ended[:, :-1], want)
            assert (ended[:, -1] == ord(",")).all()


def test_ascii_digits_matches_the_place_loop_at_every_width():
    rng = np.random.default_rng(39)
    for width in range(1, 20):
        high = min(10**width, 2**63 - 1)
        values = rng.integers(0, high, 4_096, dtype=np.int64)
        values[:2] = (10 ** (width - 1), high - 1)
        np.testing.assert_array_equal(ascii_digits(values), place_digits(values))


def test_ascii_digits_pads_on_the_left():
    cases = [
        np.array([0], dtype=np.int64),
        np.array([9, 10, 0], dtype=np.int64),
        np.array([99, 100, 7], dtype=np.uint8),
        np.array([2**32 - 1, 0, 12], dtype=np.uint32),
        np.array([2**32, 2**32 - 1, 5], dtype=np.int64),
        np.array([2**63 - 1, 0, 10**18], dtype=np.int64),
        np.array([2**64 - 1, 2**63, 1], dtype=np.uint64),
    ]
    for values in cases:
        text = ascii_digits(values)
        width = len(str(int(values.max())))
        assert text.dtype == np.uint8 and text.shape == (len(values), width)
        for row, v in zip(text, values.tolist()):
            digits = str(v).encode()
            assert row.tobytes() == b"\0" * (width - len(digits)) + digits
