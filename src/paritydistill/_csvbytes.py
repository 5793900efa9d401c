"""Numbers as CSV bytes: integer digits, shortest float reprs, column rows.

``write_columns`` is the package's one CSV writer.  Every kernel here
returns a ``uint8`` text matrix, one row per value, whose row bytes less
their NUL padding are the value's text.  A CSV batch is then such
matrices side by side, integer and word columns with their separator
already on and float columns beside a separator column, and deleting
its NULs leaves the batch's bytes, with no Python string made per row.
Integer digits come four at a time, one ``uint32`` gather from a table
of every 4-digit group.  A batch's float columns are formatted by one
kernel call over their joined values, since a call has a fixed cost of
~0.2 ms.

``float_repr`` gives exactly ``repr(float(v))`` for every float64.  Its
digits are the shortest decimal that rounds back to ``v``, the one
closest to ``v`` among them, ties to an even last digit: the Schubfach
algorithm (R. Giulietti, "The Schubfach way to render doubles", 2020;
the same output as Ryu, Adams, PLDI 2018), in uint64 numpy arithmetic.
It departs from the Java reference in two places.  It tries one digit
fewer whenever ``s >= 10``, not ``s >= 100``: Java prints two digits
where one would do (``4.9E-324``), Python prints one (``5e-324``).  And
it has no ``C_TINY`` path, which serves only that two-digit rule.  The
digits are laid out as Python does: scientific notation when the
decimal point falls 4 or more places left of the first digit or more
than 16 right of it, an exponent of at least two digits, and ``.0``
after an integer.
"""

from __future__ import annotations

import hashlib
from functools import cache
from typing import Sequence

import numpy as np

# Rows formatted per batch, and float values: a batch's float columns go
# through the float kernel in one call, which costs ~0.2 ms however few
# values it holds and ~195 bytes a value of temporaries (tracemalloc,
# 1.53 MiB for 8,190 normal deviates), so a table of one or two float
# columns keeps full batches, one of more shorter ones, and a call's
# working set stays under 2 MB.
BATCH_ROWS = 4096
_BATCH_FLOATS = 2 * BATCH_ROWS

# A float call's distinct values go through repr up to this many plus a
# quarter of its values; above, the whole call goes through float_repr.
# repr costs ~0.6 us a distinct value and ~0.1 us a value to find each
# row's text, float_repr ~0.2 ms a call and ~0.18-0.25 us a value, so
# they cross near 1,300-1,500 distinct values in a call of 4,096 and near
# 2,300-2,500 in one of 8,192 (best of 21, 2-vCPU Xeon VM).  simulate's
# fidelity calls hold ~2 distinct values, the sweeps' all distinct.
_REPR_MAX_DISTINCT = 256


@cache
def _quads() -> np.ndarray:
    """Every 4-digit group's ASCII bytes as one uint32 word, by row.

    Rows 0-9,999 hold the group zero-padded ("0042"); rows 10,000-19,999
    NUL for each leading zero, and 0 as four NULs; rows 20,000-29,999 the
    same, but 0 reads three NULs and "0", for a units group that is all
    there is.  Built on first use, not at import.
    """
    group = np.arange(10_000, dtype=np.uint16)
    quads = np.empty((3, 10_000, 4), dtype=np.uint8)
    # a place at a time, so that no temporary outgrows the table
    for place, power in enumerate((1000, 100, 10, 1)):
        quads[0, :, place] = group // power % 10 + ord("0")
        quads[1, :, place] = quads[0, :, place] * (group >= power)
    quads[2] = quads[1]
    quads[2, 0, 3] = ord("0")
    return quads.reshape(30_000, 4).view(np.uint32).ravel()


def ascii_digits(values: np.ndarray, end: int | None = None) -> np.ndarray:
    """Nonnegative integers as a right-aligned uint8 matrix of ASCII digits.

    One row per value, as wide as the largest value; the places left of
    a value's leading digit hold NUL.  With ``end``, each row ends in
    that byte, one column more.  Each 4-digit group takes its four bytes
    from ``_quads`` with one gather: the NUL-padded rows while every
    higher group is 0, the zero-padded ones after.  The groups come from
    ``// 10_000`` in uint32 when every value fits, in uint64 otherwise.
    """
    top = int(values.max())
    width = len(str(top))
    groups = -(-width // 4)
    q = values.astype(np.uint32 if top < 2**32 else np.uint64, copy=False)
    quads = _quads()
    words = np.empty((len(q), groups + (end is not None)), dtype=np.uint32)
    # the units group reads "0" for a value of 0, a higher group NULs
    base = 20_000
    for column in range(groups - 1, 0, -1):
        rest = q // 10_000
        row = q - rest * 10_000
        row += (rest == 0) * q.dtype.type(base)
        words[:, column] = quads.take(row)
        q, base = rest, 10_000
    words[:, 0] = quads.take(np.add(q, base, dtype=np.intp))
    text = words.view(np.uint8)
    stop = 4 * groups
    if end is None:
        return text[:, stop - width : stop]
    text[:, stop] = end
    return text[:, stop - width : stop + 1]


def text_table(words: Sequence[str]) -> np.ndarray:
    """ASCII words as a NUL-padded uint8 matrix, one row per word."""
    table = np.array([w.encode() for w in words], dtype=bytes)
    return table.view(np.uint8).reshape(len(words), table.itemsize)


# Decimal exponents k of the scaled value v / 10^k, over every float64.
_K_MIN, _K_MAX = -324, 292
_LOW63 = np.uint64(2**63 - 1)
_LOW32 = np.uint64(2**32 - 1)


def _flog10_pow2(e):
    """floor(log10(2^e)), exact for |e| <= 6,432,162."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 * 2^e)), exact for -3,606,689 <= e <= 3,150,619."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2_pow10(e):
    """floor(log2(10^e)), exact for |e| <= 1,838,394."""
    return (e * 913_124_641_741) >> 38


@cache
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """The 126-bit scaled powers g(k) = floor(10^-k 2^-r) + 1, as (g >> 63, g mod 2^63).

    ``r`` puts g in [2^125, 2^126]; one row per k in [_K_MIN, _K_MAX].
    Built with Python integers on first use, not at import.
    """
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2_pow10(-k) - 125
        if k <= 0:
            power = 10**-k
            g.append((power >> r if r >= 0 else power << -r) + 1)
        else:
            g.append((1 << -r) // 10**k + 1)
    return (
        np.array([x >> 63 for x in g], dtype=np.uint64),
        np.array([x & (2**63 - 1) for x in g], dtype=np.uint64),
    )


def _mul_high(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """floor(a * b / 2^64) for uint64 arrays below 2^63, from 32-bit limbs."""
    a1, a0 = a >> 32, a & _LOW32
    b1, b0 = b >> 32, b & _LOW32
    mid = ((a0 * b0) >> 32) + a1 * b0
    low = (mid & _LOW32) + a0 * b1
    return a1 * b1 + (mid >> 32) + (low >> 32)


def _round_to_odd(x1: np.ndarray, y1: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """cp * g / 2^127 for g = g1 2^63 + g0, truncated, its last bit set if inexact.

    From the halves of the products: x1 of g0 * cp, and y1 and y0 of
    g1 * cp, each 128-bit product as high * 2^64 + low.
    """
    z = (y0 >> 1) + x1
    vbp = y1 + (z >> 63)
    return vbp | (((z & _LOW63) + _LOW63) >> 63)


def _shift_add(high, low, g, shift, subtract=False):
    """The 128-bit high * 2^64 + low, plus or minus g << shift, as (high, low)."""
    part = g << shift
    carry = g >> (np.uint64(64) - shift)
    if subtract:
        diff = low - part
        return high - carry - (diff > low), diff
    total = low + part
    return high + carry + (total < low), total


def _shortest_decimal(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) with f * 10^k the shortest decimal that rounds to each value.

    ``bits`` are the uint64 patterns of finite nonzero doubles; the sign
    bit is ignored.  f has at most 17 digits, or is 10^17.
    """
    g1_table, g0_table = _powers_of_ten()
    t = bits & np.uint64(2**52 - 1)
    bq = ((bits >> 52) & np.uint64(0x7FF)).astype(np.int64)
    normal = bq != 0
    c = np.where(normal, t | np.uint64(2**52), t)
    q = np.where(normal, bq - 1075, -1074)
    # a power of two above the smallest normal has a narrower interval below it
    irregular = (t == 0) & (bq > 1)
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10_pow2(q))
    h = (q + _flog2_pow10(-k) + 2).astype(np.uint64)
    # not held beside the products, where the kernel peaks
    del t, bq, normal, q
    g1, g0 = g1_table[k - _K_MIN], g0_table[k - _K_MIN]
    cp = c << (h + np.uint64(2))
    # g * cp once; the interval ends are cp + 2^(h+1) and cp - 2^(h+1-irregular)
    x1, x0 = _mul_high(g0, cp), g0 * cp
    y1, y0 = _mul_high(g1, cp), g1 * cp
    vb = _round_to_odd(x1, y1, y0)
    up = h + np.uint64(1)
    vbr = _round_to_odd(_shift_add(x1, x0, g0, up)[0], *_shift_add(y1, y0, g1, up))
    down = up - irregular
    vbl = _round_to_odd(
        _shift_add(x1, x0, g0, down, True)[0], *_shift_add(y1, y0, g1, down, True)
    )
    del x1, x0, y1, y0, g1, g0, down
    # the rounding interval is closed when c is even
    out = c & np.uint64(1)
    vbl += out
    vbr -= out
    s = vb >> np.uint64(2)
    # one digit fewer: the multiples of ten next to s, when exactly one rounds to v
    sp10 = s // np.uint64(10) * np.uint64(10)
    upin = vbl <= sp10 << np.uint64(2)
    wpin = (sp10 + np.uint64(10)) << np.uint64(2) <= vbr
    shorter = (s >= 10) & (upin != wpin)
    # else s or s + 1, whichever rounds to v, or the closer, ties to even
    uin = vbl <= s << np.uint64(2)
    win = (s + np.uint64(1)) << np.uint64(2) <= vbr
    twice_mid = (s << np.uint64(2)) + np.uint64(2)
    closer = (vb < twice_mid) | ((vb == twice_mid) & (s & np.uint64(1) == 0))
    up = np.where(shorter, ~upin, np.where(uin != win, win, ~closer))
    f = np.where(shorter, sp10, s) + np.where(shorter, np.uint64(10), np.uint64(1)) * up
    return f, k


_POWERS = np.array([10**i for i in range(19)], dtype=np.uint64)
# fixed notation runs from decpt -3 ("0.000d") to 16 digits before the point
_DECPT_MIN, _DECPT_MAX = -3, 16


@cache
def _layout() -> tuple[np.ndarray, ...]:
    """The tables ``float_repr`` gathers each row's text from, by row code.

    - ``leads``, by sign + 2 * (1 - decpt) for a fixed value below 1
      (decpt from 0 to -3), by the sign alone for other values, and by
      sign + 10, 12 or 14 for a zero, an infinity or a NaN: the sign,
      "0." and zeros, or the whole special value.
    - ``left``, ``right`` and ``dots``, by 19 * point + end: masks that
      put digit j, digit j - 1 or "." in body column j, for the point
      after digit ``point`` and the ``end`` columns shown.
    - ``suffixes``, by 0 for none and by e - _K_MIN + 1 for exponent e.
    """
    leads = ["", "-"] + [s + "0." + "0" * z for z in range(1 - _DECPT_MIN) for s in ("", "-")]
    leads += ["0.0", "-0.0", "inf", "-inf", "nan", "nan"]
    point = np.arange(19)[:, None, None]
    end = np.arange(19)[None, :, None]
    column = np.arange(18)
    masks = [
        (column < point) & (column < end),
        (column > point) & (column < end),
        (column == point) & (column < end),
    ]
    left, right, dots = (m.reshape(19 * 19, 18).astype(np.uint8) for m in masks)
    dots *= ord(".")
    suffixes = [""] + [f"e{e:+03d}" for e in range(_K_MIN, _K_MAX + 18)]
    return text_table(leads), left, right, dots, text_table(suffixes)


def _gather(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Rows ``codes`` of a table of words, less the columns none of them fills."""
    width = np.count_nonzero(table, axis=1)[codes].max()
    return np.take(table[:, :width], codes, axis=0)


def float_repr(values: np.ndarray) -> np.ndarray:
    """Float64 values as a NUL-padded uint8 matrix of their ``repr`` bytes.

    Row ``i`` less its NULs is ``repr(float(values[i])).encode()``, for
    every float64 including signed zeros, subnormals, infinities and NaN.
    """
    leads, left, right, dots, suffixes = _layout()
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    n = len(bits)
    if not n:
        return np.zeros((0, 0), dtype=np.uint8)
    negative = (bits >> np.uint64(63)).astype(np.intp)
    magnitude = bits & _LOW63
    special = (magnitude == 0) | (magnitude >= np.uint64(0x7FF0000000000000))
    f, k = _shortest_decimal(np.where(special, np.uint64(0x3FF0000000000000), magnitude))
    # f as 18 digits, f * 10^(18 - len(f)); the point sits decpt digits in
    length = np.searchsorted(_POWERS, f, side="right")
    f *= _POWERS[18 - length]
    decpt = k + length
    # each 9-digit half through the digit kernel, a leading 1 keeping its zeros
    halves = ascii_digits(np.concatenate(np.divmod(f, np.uint64(10**9))) + np.uint64(10**9))
    # the digits, and beside them the same digits shifted one column right
    flat = np.zeros(18 * n + 1, dtype=np.uint8)
    digits = flat[1:].reshape(n, 18)
    digits[:, :9], digits[:, 9:] = halves[:n, 1:], halves[n:, 1:]
    del halves
    shifted = flat[:-1].reshape(n, 18)
    # digits up to the last nonzero one
    significant = 18 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)

    scientific = (decpt < _DECPT_MIN) | (decpt > _DECPT_MAX)
    small = ~scientific & (decpt <= 0)
    # the point follows digit 1 in scientific notation; below 1 in fixed
    # notation the lead holds it (point 18); an integer shows ".0"
    point = np.where(scientific, 1, np.where(small, 18, decpt))
    shown = np.where(scientific | small, significant, np.maximum(significant, point + 1))
    end = np.where(special, 0, shown + (point < shown))
    body = 19 * point + end
    infinite_or_nan = 2 * (magnitude != 0) + 2 * (magnitude > 0x7FF0000000000000)
    lead = np.where(special, 10 + infinite_or_nan, np.where(small, 2 * (1 - decpt), 0))
    lead += negative
    suffix = np.where(scientific & ~special, decpt - _K_MIN, 0)
    # body columns that no row fills are left out
    width = int(end.max())
    text = [
        _gather(leads, lead),
        digits[:, :width] * np.take(left[:, :width], body, axis=0)
        + shifted[:, :width] * np.take(right[:, :width], body, axis=0)
        + np.take(dots[:, :width], body, axis=0),
        _gather(suffixes, suffix),
    ]
    return np.concatenate(text, axis=1)


def _float_text(values: np.ndarray) -> np.ndarray:
    """A float64 batch as text rows.

    One sort of the bit patterns counts the distinct values.  A few are
    each formatted once by ``repr`` and found by binary search; when
    there are many, ``float_repr`` formats the batch as it is, which
    costs about as much as formatting only the distinct values.
    """
    bits = values.view(np.uint64)
    ordered = np.sort(bits)
    fresh = np.empty(len(ordered), dtype=bool)
    fresh[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    if np.count_nonzero(fresh) > _REPR_MAX_DISTINCT + len(values) // 4:
        return float_repr(values)
    distinct = ordered[fresh]
    table = text_table([repr(v) for v in distinct.view(np.float64).tolist()])
    return np.take(table, np.searchsorted(distinct, bits), axis=0)


def _join(parts: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Text matrices of ``n`` rows side by side in one matrix.

    Each part goes in as one copy of ``n`` items of its row width, not
    one copy a row as ``np.concatenate`` makes.
    """
    joined = np.empty((n, sum(part.shape[1] for part in parts)), dtype=np.uint8)
    at = 0
    for part in parts:
        row = np.dtype((np.void, part.shape[1]))
        joined[:, at : at + row.itemsize].view(row)[...] = part.view(row)
        at += row.itemsize
    return joined


def _batch_rows(float_columns: int) -> int:
    """Rows a batch of a table with this many distinct float columns holds."""
    return min(BATCH_ROWS, _BATCH_FLOATS // max(float_columns, 1))


def write_columns(path, header: Sequence[str], columns: Sequence) -> str:
    """Write a CSV of equal-length columns as bytes, batch by batch, and
    return the sha256 hex digest of the bytes written.

    A column is a float64 array; a nonnegative integer array, by
    ``ascii_digits``; or a ``(table, codes)`` pair: a text matrix with
    one row per distinct value, and each row's index into it.  Any other
    column, a negative integer, a code that indexes no row of its table
    or a column of another length raises ``ValueError`` before the file
    is opened.  A batch's float columns go through ``_float_text`` in one
    call over their joined values, each column object once however often
    it is passed, and each takes its own rows back; a batch holds at most
    ``BATCH_ROWS`` rows and ``_BATCH_FLOATS`` float values.  Each table
    takes its separator as one more column once a call, and each integer
    column its own from ``ascii_digits``, so a batch joins one part a
    column and one more a float column.  Fields are numbers and bare
    words, so none needs quoting.
    """
    n_rows = len(columns[0][1] if isinstance(columns[0], tuple) else columns[0])
    for column in columns:
        if isinstance(column, tuple):
            table, column = column
            if len(column) and (column.min() < 0 or column.max() >= len(table)):
                raise ValueError("a code indexes no row of its table")
        elif not isinstance(column, np.ndarray) or (
            column.dtype != np.float64 and column.dtype.kind not in "iu"
        ):
            raise ValueError("a column is a float64 array, integer array or (table, codes) pair")
        elif column.dtype.kind == "i" and len(column) and column.min() < 0:
            raise ValueError("integer columns must be nonnegative")
        if len(column) != n_rows:
            raise ValueError("columns differ in length")
    floats = {id(c): c for c in columns if not isinstance(c, tuple) and c.dtype.kind == "f"}
    batch = _batch_rows(len(floats))
    ends = [ord(",")] * (len(columns) - 1) + [ord("\n")]
    # each table's rows with their separator on, after the padding: float
    # labels hold NULs inside their rows
    tables = {
        i: np.concatenate([column[0], np.full((len(column[0]), 1), end, np.uint8)], axis=1)
        for i, (column, end) in enumerate(zip(columns, ends))
        if isinstance(column, tuple)
    }
    # the digit table before any batch's temporaries: built above them on
    # first use, it kept the heap from shrinking when they were freed
    # (~0.6 MB more RSS held after rates)
    _quads()
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        data = ",".join(header).encode() + b"\n"
        digest.update(data)
        fh.write(data)
        for lo in range(0, n_rows, batch):
            rows = slice(lo, lo + batch)
            n = min(batch, n_rows - lo)
            text = None
            if floats:
                text = _float_text(np.concatenate([c[rows] for c in floats.values()]))
            formatted = {key: text[i * n : (i + 1) * n] for i, key in enumerate(floats)}
            parts = []
            for i, (column, end) in enumerate(zip(columns, ends)):
                if i in tables:
                    table = tables[i]
                    if len(table) == 1:
                        parts.append(np.broadcast_to(table, (n, table.shape[1])))
                    else:
                        parts.append(np.take(table, column[1][rows], axis=0))
                elif id(column) in formatted:
                    # a float column's text may serve twice, so its separator stays apart
                    parts += [formatted[id(column)], np.broadcast_to(np.uint8(end), (n, 1))]
                else:
                    parts.append(ascii_digits(column[rows], end=end))
            data = _join(parts, n).tobytes().translate(None, b"\0")
            digest.update(data)
            fh.write(data)
            # not held beside the next batch's kernel temporaries
            del data, text, formatted, parts
    return digest.hexdigest()
