"""Long-form CSV writer for values sampled on a rectangular grid.

Every grid file the package writes goes through ``write_grid_csv``: one
header line, then one row per cell with the outer axis in the outer
loop, the inner axis in the inner loop, and the cell's value after them.
Every float is exactly ``FORMAT % x``, CPython's correctly rounded
formatter.

Cell values are formatted a block of cells at a time, by array
arithmetic.  For a float x with e = floor(log10 |x|) in the decades
where 10^(9 - e) is an exact double (|9 - e| <= 22), q = |x| * 10^(9 - e)
(or |x| / 10^(e - 9)) is one correctly rounded operation, so q is within
half an ulp (< 1e-6) of the exact scaled value, and n = rint(q) holds
the ten significant digits unless that value may lie on the other side
of a rounding tie.  A cell goes through CPython's formatter whenever the
digits are not certain that way: q within 1e-4 of a half-integer, q
outside [1e9, 1e10) or n = 1e10 (a decade misjudged by log10, or a
round-up into the next decade), e outside the exact decades, or x not
finite.  Signed zeros are written directly.  This is the reasoning of
Adams, "Ryu: fast float-to-string conversion" (PLDI 2018): a digit
string is exact once its rounding is certain, and only the cells near a
tie need the slow path.  On the fixture maps 92 of 470 000 cells do.

Each cell's row is laid out in 8-byte-aligned fields padded with NUL
bytes: the outer-axis string and its comma (formatted once per outer
row), the inner axis's string and comma (once per file), then the
value's 24-byte slot.  The padding is dropped from each block before one
``write`` call, so temporaries stay at one block of cells.
"""

from __future__ import annotations

import numpy as np

# The one float format of every grid file: ten significant digits.
FORMAT = "%.9e"

# Cells per block: about 16k, as spectra._BLOCK_CELLS, so a block's row
# buffer and the formatter's temporaries stay at about a megabyte.
_BLOCK_CELLS = 1 << 14

# The decades e with an exact 10^(9 - e): q = |x| * _SCALE_UP / _SCALE_DOWN,
# one of which is 1, indexed by e - _E_MIN.
_E_MIN, _E_MAX = 9 - 22, 9 + 22
_SCALE_UP = np.array([float(10 ** max(9 - e, 0)) for e in range(_E_MIN, _E_MAX + 1)])
_SCALE_DOWN = np.array([float(10 ** max(e - 9, 0)) for e in range(_E_MIN, _E_MAX + 1)])
# "e-13" .. "e+31" as little-endian 4-byte words
_EXPONENT = np.frombuffer(
    "".join("e%+03d" % e for e in range(_E_MIN, _E_MAX + 1)).encode("ascii"),
    dtype="<u4",
).astype(np.uint64)
# |q - rint(q)| above this may be a tie misjudged by q's rounding
_TIE = 0.5 - 1e-4
_U = np.uint64
# the row buffer's words: little-endian, so byte k of a word is bits 8k..8k+7
_WORD = np.dtype("<u8")
_ZEROS = _U(0x3030303030303030)  # eight ASCII "0"


def _digits8(v):
    """Eight ASCII digits of v < 10^8 (uint64) packed first-byte-lowest."""
    hi = v // _U(10000)
    v = hi | (v - hi * _U(10000)) << _U(32)  # two 4-digit lanes
    hi = (v * _U(5243)) >> _U(19) & _U(0x0000007F0000007F)  # lane // 100
    v = hi | (v - hi * _U(100)) << _U(16)  # four 2-digit lanes
    hi = (v * _U(103)) >> _U(10) & _U(0x000F000F000F000F)  # lane // 10
    return (hi | (v - hi * _U(10)) << _U(8)) + _ZEROS


def _sci9(x, words):
    """Write ``FORMAT % x`` and a newline for the 1-D float array ``x``.

    ``words`` is the (x.size, 3) view of each cell's 24-byte slot.
    Returns the number of cells written by CPython's formatter.
    """
    with np.errstate(all="ignore"):
        ax = np.abs(x)
        e = np.floor(np.log10(ax))
        exact = (e >= _E_MIN) & (e <= _E_MAX)
        zero = ax == 0.0
        k = np.where(exact, e - _E_MIN, -_E_MIN).astype(np.intp)  # zero: e = 0
        q = ax * _SCALE_UP[k] / _SCALE_DOWN[k]
        n = np.rint(q)
        fast = exact & (q >= 1e9) & (n < 1e10) & (np.abs(q - n) < _TIE) | zero
        n = n.astype(np.uint64)
    top = n // _U(100000000)  # the first two digits
    d0 = (top * _U(103)) >> _U(10)
    low = _digits8(n - top * _U(100000000))
    # sign, d0, ".", d1 | d2 .. d9 | "e+dd" | newline
    head = (d0 << _U(8)) | (top - d0 * _U(10)) << _U(24) | _U(0x302E3000)
    words[:, 0] = (head + np.signbit(x) * _U(ord("-"))) | low << _U(32)
    words[:, 1] = low >> _U(32) | _EXPONENT[k] << _U(32)
    words[:, 2] = ord("\n")
    slow = np.flatnonzero(~fast)
    if slow.size:
        words.view(np.uint8)[slow] = _text([FORMAT % v + "\n" for v in x[slow].tolist()], 24)
    return slow.size


def _text(strings, width):
    """NUL-padded (len(strings), width) byte matrix of ASCII strings."""
    joined = b"".join(s.encode("ascii").ljust(width, b"\0") for s in strings)
    return np.frombuffer(joined, dtype=np.uint8).reshape(len(strings), width)


def _round8(n):
    return -(-n // 8) * 8


def write_grid_csv(path, header: str, outer, inner, values) -> None:
    """Write ``outer[i], inner[j], values[i, j]`` rows.

    Rows are built in blocks of about ``_BLOCK_CELLS`` cells (whole outer
    rows, or parts of one row when a row is longer than a block), each
    written with one call.
    """
    values = np.asarray(values, dtype=float)
    outer_s = [FORMAT % x + "," for x in np.asarray(outer).tolist()]
    inner_s = [FORMAT % x + "," for x in np.asarray(inner).tolist()]
    n_outer, n_inner = len(outer_s), len(inner_s)
    # the (r, c) words of each axis's NUL-padded "x," strings
    outer_w = _text(outer_s, _round8(max(map(len, outer_s), default=0))).view(_WORD)
    inner_w = _text(inner_s, _round8(max(map(len, inner_s), default=0))).view(_WORD)
    n_o = outer_w.shape[1]
    at = n_o + inner_w.shape[1]  # the value's first word
    rows = max(1, _BLOCK_CELLS // max(n_inner, 1))
    span = min(max(n_inner, 1), _BLOCK_CELLS)
    buf = np.empty((rows, span, at + 3), dtype=_WORD)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for i0 in range(0, n_outer, rows):
            i1 = min(i0 + rows, n_outer)
            for j0 in range(0, n_inner, span):
                j1 = min(j0 + span, n_inner)
                block = buf[: i1 - i0, : j1 - j0]
                for w in range(n_o):
                    block[..., w] = outer_w[i0:i1, w, None]
                for w in range(inner_w.shape[1]):
                    block[..., n_o + w] = inner_w[j0:j1, w]
                words = block.reshape(-1, at + 3)
                _sci9(values[i0:i1, j0:j1].ravel(), words[:, at:])
                flat = words.view(np.uint8).reshape(-1)
                fh.write(flat[flat != 0])
