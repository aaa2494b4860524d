"""Long-form CSV writer and reader for values sampled on a rectangular grid.

Every grid file the package writes goes through ``write_grid_csv``: one
header line, then one row per cell with the outer axis in the outer
loop, the inner axis in the inner loop, and the cell's value after them.
Every float is exactly ``FORMAT % x``, CPython's correctly rounded
formatter.  ``read_grid_csv`` reads back the rows of three-column grids
laid out that way, from an open file past its header, and declines
every other file.

The writer knows no units: the caller passes a conversion that it
applies to each block of cells, into one reused float buffer, before the
block is formatted (the map writer converts |S21| to dB there), so no
full-size array is made.  Cell values are formatted a block of cells at
a time, by array arithmetic.  For a float x with e = floor(log10 |x|) in
the decades where 10^(9 - e) is an exact double (|9 - e| <= 22), q =
|x| * 10^(9 - e) (or |x| / 10^(e - 9)) is one correctly rounded
operation, so q is within half an ulp (< 1e-6) of the exact scaled
value, and n = rint(q) holds the ten significant digits unless that
value may lie on the other side of a rounding tie.  The scale and the
exponent text come from tables indexed by e + 13, read by clipped takes
with no mask: a decade off the tables, 0, inf and nan give a q outside
[1e9, 1e10), or a nan q, whatever index they take.  A cell goes through
CPython's formatter whenever the digits are not certain: q within 1e-4
of a half-integer, q outside [1e9, 1e10) or n = 1e10 (a decade
misjudged by log10, or a round-up into the next decade), which also
catches every such e, zero and non-finite x.  This is the reasoning of
Adams, "Ryu: fast float-to-string conversion" (PLDI 2018): a digit
string is exact once its rounding is certain, and only the cells near a
tie need the slow path.  On the fixture maps 92 of 470 000 cells do.
The digits of n are two table reads and a third: ``_HEAD`` holds
NUL, d0, ".", d1 for the first two digits, and ``_FOUR`` the four ASCII
digits of each number below 10^4, for the next four and the last four.

Each value's text goes into a 24-byte slot, NUL-padded, starting at
byte 0 when it has a sign and at byte 1 when it has none.  The axis
strings go through the same formatter once per file, with a comma where
a value has its newline, and are then moved to start at byte 0.  A
block's rows are assembled by ``_rows`` with three strided copies of
whole strings (outer string, inner string, value text) and written with
one ``write`` call, so temporaries stay at one block of cells.  When
every row of the block has the same byte layout (outer strings of one
length, inner strings of another, and every value slot with the same
sign byte, NUL or "-", and its text ending at the same byte) the copies
are at exact widths and make the rows themselves; every block of the
fixture maps is of this kind.  Any other block (values of both signs, a
three-digit exponent beside two-digit ones, axis strings of mixed
lengths) is copied at the padded widths, the NUL-padded axis strings and
the whole slot, and its NUL bytes are dropped.  Both give the same
bytes.  A write that raises leaves no partial file (``open_output``).

The reader takes the first data row as the template of every row and
checks each row through 8-byte words, a block of whole outer rows at a
time: each window of a row that a check needs is copied into a column
of words, one word per row.  The outer string is covered by windows at
bytes 0, 8, ..., the last one ending at its comma and overlapping the
one before it; each must be the same in every row of an outer row.  The
inner string and the value's sign byte are covered the same way, and
must repeat the first outer row's.  Every axis string is at least 16
bytes, so no window needs a mask.  The value's unsigned text
"d.ddddddddde+dd\n" is two words: XORed with a template word, each
digit byte must hold 0..9 and each fixed byte 0, and one add and one
mask test check all eight bytes of a word at once.  The ten-digit
mantissa comes from the same words by multiply-shift-mask steps, and
the exponent indexes a table of exact powers of ten, so each value is
the correctly rounded double of its text.  Each axis's strings are
decoded by the same word checks, with the comma in the newline's place.
A row or axis string off the template sends the file to a general
parser.
"""

from __future__ import annotations

import contextlib
import os
import re
import stat

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
_U = np.uint64
# "e-13" .. "e+31" as little-endian 4-byte words, in the upper half of a word
_EXPONENT = np.frombuffer(
    "".join("e%+03d" % e for e in range(_E_MIN, _E_MAX + 1)).encode("ascii"),
    dtype="<u4",
).astype(_U) << _U(32)
# |q - rint(q)| above this may be a tie misjudged by q's rounding
_TIE = 0.5 - 1e-4
# the row buffer's words: little-endian, so byte k of a word is bits 8k..8k+7
_WORD = np.dtype("<u8")
# The digits of t < 100 as NUL, d0, ".", d1, and of v < 10^4 as "dddd",
# each a little-endian word indexed by its value.
_T = np.arange(100, dtype=_U)
_HEAD = ((_T // _U(10) + _U(ord("0"))) << _U(8) | _U(ord(".")) << _U(16)
         | (_T % _U(10) + _U(ord("0"))) << _U(24))
_V = np.arange(10**4, dtype=_U)
_FOUR = sum((_V // _U(10 ** (3 - i)) % _U(10) + _U(ord("0"))) << _U(8 * i) for i in range(4))
del _T, _V


def _sci9(x, words, end="\n"):
    """Write ``FORMAT % x`` and ``end`` for the 1-D float array ``x``.

    ``words`` is the (x.size, 3) view of each cell's 24-byte slot.
    Returns the number of cells written by CPython's formatter.
    """
    with np.errstate(all="ignore"):
        q = np.abs(x)
        t = np.log10(q)
        # e - _E_MIN as log10 |x| - _E_MIN truncated, the floor where that
        # is >= 0; any other x (a decade off the tables, 0, inf, nan) takes
        # an index that the clipped takes keep on the tables, and fails the
        # range test below
        k = np.empty(x.shape, dtype=np.intp)
        np.subtract(t, _E_MIN, out=k, casting="unsafe")
        q *= np.take(_SCALE_UP, k, mode="clip")
        q /= np.take(_SCALE_DOWN, k, mode="clip")
        n = np.rint(q)
        np.subtract(q, n, out=t)
        np.abs(t, out=t)
        fast = t < _TIE
        fast &= q >= 1e9
        fast &= n < 1e10
        n = n.astype(np.intp)
    top = n // 10**8  # the first two digits
    n -= top * 10**8
    hi = n // 10**4
    n -= hi * 10**4
    # sign, d0, ".", d1 | d2 .. d5 ; d6 .. d9 | "e+dd" ; end
    head = np.take(_HEAD, top, mode="clip")
    sign = x.view(np.int64) >> 63  # all ones where the sign bit is set
    sign &= ord("-")
    head |= sign.view(_U)
    mid = np.take(_FOUR, hi, mode="clip")
    mid <<= _U(32)
    np.bitwise_or(head, mid, out=words[:, 0])
    np.bitwise_or(np.take(_FOUR, n, mode="clip"), np.take(_EXPONENT, k, mode="clip"),
                  out=words[:, 1])
    words[:, 2] = ord(end)
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = [FORMAT % v + end for v in x[slow].tolist()]
        # unsigned text at byte 1, as the array path puts it
        words.view(np.uint8)[slow] = _text([s if s[0] == "-" else "\0" + s for s in texts], 24)
    return slow.size


def _text(strings, width):
    """NUL-padded (len(strings), width) byte matrix of ASCII strings."""
    joined = b"".join(s.encode("ascii").ljust(width, b"\0") for s in strings)
    return np.frombuffer(joined, dtype=np.uint8).reshape(len(strings), width)


def _axis_text(x):
    """``(text, lengths)``: the NUL-padded ``"x,"`` strings of the 1-D axis
    ``x``, each from byte 0 of its row of the byte matrix ``text``."""
    x = np.asarray(x, dtype=float)
    slots = np.empty((x.size, 3), dtype=_WORD)
    _sci9(x, slots, ",")
    text = slots.view(np.uint8)
    unsigned = text[:, 0] == 0
    text[unsigned] = np.roll(text[unsigned], -1, axis=1)  # the NUL goes to the end
    lengths = np.count_nonzero(text, axis=1)
    return text[:, :lengths.max(initial=0)], lengths


def _items(a):
    """The last axis of a byte array as one ``V<n>`` item, so that a copy
    moves whole strings."""
    return a.view(f"V{a.shape[-1]}")[..., 0]


def _uniform(lengths):
    """The one length in ``lengths``, or None."""
    n = lengths[0]
    return int(n) if (lengths == n).all() else None


def _value_span(slots):
    """``(start, stop)`` of the value text that every slot holds at the same
    bytes, or None.

    A slot whose text has a sign starts it at byte 0, an unsigned text at
    byte 1 (after a NUL).  A text ends at its one newline, which the
    first slot puts at byte 16 or later; every slot must have it at that
    byte.
    """
    head = slots.view(np.uint8)[:, 0]
    sign = int(head[0])
    tail = slots[:, 2]  # bytes 16..23
    past = (int(tail[0]).bit_length() + 7) // 8  # the first text's bytes past 16
    if sign not in (0, ord("-")) or past == 0:
        return None
    newline = tail >> _U(8 * past - 8) == _U(ord("\n"))
    if not ((head == sign).all() and newline.all()):
        return None
    return int(sign == 0), 16 + past


def _rows(cells, outer, outer_n, inner, inner_n):
    """A block's rows, by three strided copies: outer string, inner string
    and value text of each cell.

    ``outer`` and ``inner`` hold the block's NUL-padded axis strings and
    ``outer_n`` and ``inner_n`` their lengths; ``cells`` is the block's
    (n, 3) value slots.  When every row has the same byte layout the
    copies are at exact widths and the result is the (outer, inner,
    bytes) array of the rows.  Otherwise they are at the padded widths,
    and the result is the flat bytes with every NUL dropped.
    """
    lo, li, text = _uniform(outer_n), _uniform(inner_n), _value_span(cells)
    exact = lo is not None and li is not None and text is not None
    if not exact:
        lo, li, text = outer.shape[1], inner.shape[1], (0, 24)
    v0, v1 = text
    shape = (outer.shape[0], inner.shape[0])
    rows = np.empty(shape + (lo + li + v1 - v0,), dtype=np.uint8)
    _items(rows[..., :lo])[...] = _items(outer[:, None, :lo])
    _items(rows[..., lo:lo + li])[...] = _items(inner[:, :li])
    _items(rows[..., lo + li:])[...] = _items(cells.view(np.uint8)[:, v0:v1]).reshape(shape)
    if exact:
        return rows
    flat = rows.reshape(-1)
    return flat[flat != 0]


@contextlib.contextmanager
def open_output(path):
    """Open ``path`` to write an output file from its first byte; a context
    manager that gives a binary file object and closes it.  Call it only
    once every check of the write has passed: it may remove the old file.

    An existing file is removed and created anew only where the new file
    matches it in everything but its inode, times and ``chattr`` flags: on
    Linux, a regular file with one link, owned by the effective user and
    group, writable by its owner and carrying no extended attributes (so
    no ACL), in a directory that carries none (so no default ACL to pass
    on).  The new file is made with ``O_CREAT | O_EXCL`` and given the old
    group (a set-group-ID directory would give its own) and the old mode.
    Any other path, a missing one included, is opened with
    ``open(path, "wb")`` and truncated in place.

    The new file is for speed only.  On ext4, truncating a file written
    before costs a rewrite 1-5 ms per map and a new file does not, also
    in separate processes seconds apart; that fits ext4's
    ``auto_da_alloc`` (closing a file that was truncated to zero starts
    writeback of its bytes) but was not traced.  The bytes written are
    the same either way.

    A write that raises, closing included, leaves no partial output: the
    new file is removed, and a file written in place is truncated to zero
    bytes, which no reader takes for an output.  Then the exception goes
    on.  A process killed during the write still leaves the bytes written
    so far.
    """
    try:
        st = os.lstat(path)
        renew = (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
                 and st.st_uid == os.geteuid() and st.st_gid == os.getegid()
                 and st.st_mode & stat.S_IWUSR
                 and not os.listxattr(path, follow_symlinks=False)
                 and not os.listxattr(os.path.dirname(os.fspath(path)) or os.curdir))
        if renew:
            os.unlink(path)
    except (OSError, AttributeError):  # AttributeError: no geteuid or listxattr
        renew = False
    if renew:
        mode = stat.S_IMODE(st.st_mode)
        fh = open(path, "xb", opener=lambda p, flags: os.open(p, flags, mode))
        try:
            os.fchown(fh.fileno(), -1, st.st_gid)
            os.fchmod(fh.fileno(), mode)  # the umask, or fchown, may have cleared bits
        except BaseException:
            fh.close()
            raise
    else:
        fh = open(path, "wb")
    try:
        with fh:
            yield fh
    except BaseException:
        with contextlib.suppress(OSError):  # the write's own error is the one to report
            if renew:
                os.unlink(path)  # the new file, which path alone names
            else:
                os.truncate(path, 0)
        raise


def write_grid_csv(path, header: str, outer, inner, values, convert) -> None:
    """Write ``outer[i], inner[j], y[i, j]`` rows, where ``convert(v, out)``
    writes into ``out`` the cells y of a block ``v`` of ``values``.

    Rows are built in blocks of about ``_BLOCK_CELLS`` cells (whole outer
    rows, or parts of one row when a row is longer than a block), each
    converted into one reused float buffer and written with one call.
    The file is opened by ``open_output`` once the header and both axes
    are formatted.
    """
    head = header.encode("ascii") + b"\n"
    values = np.asarray(values, dtype=float)
    outer_t, outer_n = _axis_text(outer)
    inner_t, inner_n = _axis_text(inner)
    n_outer, n_inner = outer_n.size, inner_n.size
    rows = max(1, _BLOCK_CELLS // max(n_inner, 1))
    span = min(max(n_inner, 1), _BLOCK_CELLS)
    # the converted cells and their value slots are the buffers kept across
    # blocks; a block's rows are allocated once _sci9's temporaries are freed
    y = np.empty(rows * span)
    slots = np.empty((rows * span, 3), dtype=_WORD)
    with open_output(path) as fh:
        fh.write(head)
        for i0 in range(0, n_outer, rows):
            i1 = min(i0 + rows, n_outer)
            for j0 in range(0, n_inner, span):
                j1 = min(j0 + span, n_inner)
                n = (i1 - i0) * (j1 - j0)
                convert(values[i0:i1, j0:j1], y[:n].reshape(i1 - i0, j1 - j0))
                cells = slots[:n]
                _sci9(y[:n], cells)
                block = _rows(cells, outer_t[i0:i1], outer_n[i0:i1],
                              inner_t[j0:j1], inner_n[j0:j1])
                fh.write(block)
                del block  # freed before the next block's _sci9 temporaries


# One field as the writer prints a finite float with a two-digit exponent.
_FIELD = re.compile(rb"-?[0-9]\.[0-9]{9}e[+-][0-9]{2}")
# Bytes per read block, rounded down to whole outer rows (at least one).
_BLOCK_BYTES = 3 << 19
# A value field's unsigned text "d.ddddddddde+dd\n" is two words.  XOR
# with the template words leaves 0..9 in each digit byte and 0 in each
# fixed byte (".", "e", the newline); the exponent sign "+" leaves 0 and
# "-" leaves 6, which _values folds to 4.
_TEMPLATE = tuple(_U(int.from_bytes(t, "little")) for t in (b"0.000000", b"000e+00\n"))
# Added to each byte x of an XORed word: 6 to a digit (x + 6 <= 15 iff
# x <= 9, given x <= 15), 15 to a fixed byte (x + 15 <= 15 iff x == 0), 0
# to the folded exponent sign.  The text is off the template when x or
# x + add has a bit of _HIGH set: the high nibble everywhere, and for the
# exponent sign every bit but bit 2.  No carry crosses a byte unless that
# byte already has a high-nibble bit set.
_ADD = tuple(_U(int.from_bytes(bytes(b), "little"))
             for b in ([6, 15, 6, 6, 6, 6, 6, 6], [6, 6, 6, 15, 0, 6, 6, 15]))
_HIGH = tuple(_U(int.from_bytes(bytes(b), "little"))
              for b in ([0xF0] * 8, [0xF0] * 4 + [0xFB] + [0xF0] * 3))
# Exact powers of ten 10^k / 10^-k for |k| <= 22 (Clinger's fast path),
# indexed by k + 22.
_UP = np.array([float(10 ** max(k, 0)) for k in range(-22, 23)])
_DOWN = np.array([float(10 ** max(-k, 0)) for k in range(-22, 23)])
# k + 22 for the scale 10^(+-e - 9), indexed by 128 * (sign is "-") + e;
# _UP.size where that scale is not an exact double.
_K = np.array([k if 0 <= k < _UP.size else _UP.size
               for k in [13 + e for e in range(128)] + [13 - e for e in range(128)]],
              dtype=np.intp)
# Of a checked second word w, w >> 34 is minus + 64 e1 + 16384 e0 (the
# exponent's sign bit and digits); times this, its bits 14..21 are
# 128 * minus + 10 e1 + e0, which no other product term reaches.
_EXP_INDEX = _U(1 + (10 << 8) + (128 << 14))


def _axis(strings):
    """The values of one axis's ``"x,"`` strings, the rows of the byte
    matrix ``strings``, or None.

    None unless every string is a ``[-]d.ddddddddde[+-]dd`` field of one
    sign followed by its comma, with a scale 10^(e - 9) that is an exact
    double, and the values strictly increase.
    """
    n, width = strings.shape
    neg = width - 16  # the unsigned text "d.ddddddddde+dd," is two words
    if neg not in (0, 1) or (neg and not (strings[:, 0] == ord("-")).all()):
        return None
    w = np.empty((5, n), dtype=_U)
    _word(strings, neg, w[0])
    _word(strings, neg + 8, w[1])
    w[1] ^= _U(ord(",") ^ ord("\n")) << _U(56)  # the value template's last byte is "\n"
    x = np.empty(n)
    if not _values(w[0], w[1], w[2:], x):
        return None
    if neg:
        np.negative(x, out=x)
    return x if np.all(np.diff(x) > 0.0) else None


def _word(rows, at, out):
    """Bytes at..at+7 of each row of the byte matrix ``rows`` as one
    little-endian word each, copied into ``out``."""
    out.view("V8")[...] = _items(rows[:, at:at + 8])
    return out


def _windows(lo, hi):
    """Starts of the 8-byte windows that cover bytes [lo, hi), hi - lo >= 8:
    lo, lo + 8, ..., and hi - 8, which may overlap the one before it."""
    return list(range(lo, hi - 8, 8)) + [hi - 8]


def _same_strings(rows, lo, hi, n_inner, col, first=None):
    """Whether in each group of ``n_inner`` rows every row has bytes [lo, hi)
    of the group's first row, or, given ``first``, the words ``first`` holds
    for them (one (n_inner,) column per window)."""
    for w, at in enumerate(_windows(lo, hi)):
        g = _word(rows, at, col).reshape(-1, n_inner)
        if not (g == (g[:, :1] if first is None else first[w])).all():
            return False
    return True


def _values(w0, w1, scratch, out):
    """Write to ``out`` the values of the unsigned texts whose two words are
    ``w0`` and ``w1``; False if a text is off the template or its scale is
    not an exact double.

    ``scratch`` is three (n,) word columns; the words are overwritten.
    """
    t, u, k = scratch[0], scratch[1], scratch[2].view(np.intp)
    w0 ^= _TEMPLATE[0]
    w1 ^= _TEMPLATE[1]
    np.bitwise_and(w1, _U(4 << 32), out=t)  # the exponent sign's bit 2
    t >>= _U(1)
    w1 ^= t  # "-": 6 -> 4; "/" (4) -> 6, which fails
    np.add(w0, _ADD[0], out=t)
    t |= w0
    t &= _HIGH[0]
    np.add(w1, _ADD[1], out=u)
    u |= w1
    u &= _HIGH[1]
    t |= u
    if t.any():
        return False
    np.right_shift(w1, _U(34), out=t)
    t *= _EXP_INDEX
    t >>= _U(14)
    t &= _U(0xFF)
    np.take(_K, t.view(np.intp), out=k, mode="clip")  # clip: out is not buffered
    if k.max() >= _UP.size:
        return False
    # the ten-digit mantissa: d1..d8 combined in one word by multiply-shift-
    # mask steps (digit pairs, 4-digit lanes, 8 digits), then d0 and d9
    np.right_shift(w0, _U(16), out=t)  # d1..d6
    np.left_shift(w1, _U(48), out=u)  # d7, d8
    t |= u
    t *= _U(10 << 8 | 1)
    t >>= _U(8)
    t &= _U(0x00FF00FF00FF00FF)
    t *= _U(100 << 16 | 1)
    t >>= _U(16)
    t &= _U(0x0000FFFF0000FFFF)
    t *= _U(10000 << 32 | 1)
    t >>= _U(32)
    t *= _U(10)
    w0 &= _U(0xFF)  # d0
    w0 *= _U(10**9)
    w0 += t
    w1 >>= _U(16)
    w1 &= _U(0xFF)  # d9
    w0 += w1
    # exact: the mantissa is an integer below 2^53, then one rounding each
    scale = t.view(np.float64)
    np.multiply(w0, np.take(_UP, k, out=scale, mode="clip"), out=out)
    out /= np.take(_DOWN, k, out=scale, mode="clip")
    return True


def read_grid_csv(fh):
    """``(outer, inner, values)`` of a three-column file in the writer's layout.

    ``fh`` is the file open in binary mode, just past its header line,
    which the caller has checked.  The first data row is the template:
    its length, its comma positions and each field's
    ``[-]d.ddddddddde[+-]dd`` shape.  Every row must follow it, every row
    of an outer block must carry that block's outer string, every block
    the first block's inner strings, and both axes must strictly
    increase.  Then the file is a complete grid in the writer's order,
    and each value is its ten-digit mantissa times or over one exact
    power of ten, the correctly rounded double.

    Returns None for any other content (a row off the template, a value
    whose scale 10^(e - 9) is not an exact double, a missing final
    newline); the caller then reads the file with a general parser.  The
    file is read in blocks of whole outer rows into one reused buffer;
    each 8-byte window of a row that a check needs is copied into a
    column of words, one per row.
    """
    start = fh.tell()
    first = fh.readline(64)  # a template row has at most 3 * 17 bytes
    fields = first[:-1].split(b",")
    if (first[-1:] != b"\n" or len(fields) != 3
            or not all(_FIELD.fullmatch(x) for x in fields)):
        return None
    width = len(first)
    n_rows, rest = divmod(os.fstat(fh.fileno()).st_size - start, width)
    if rest:
        return None
    c1 = len(fields[0]) + 1  # each axis string ends at its comma
    c2 = c1 + len(fields[1]) + 1
    neg = fields[2][:1] == b"-"
    v0 = c2 + neg  # the value's unsigned text: two words
    # the inner size: the first row whose outer string is not the first's
    lo, hi = 1, n_rows
    while lo < hi:
        mid = (lo + hi) // 2
        fh.seek(start + mid * width)
        if fh.read(c1) == first[:c1]:
            lo = mid + 1
        else:
            hi = mid
    n_inner = lo
    if n_rows % n_inner:
        return None
    rows = n_inner * max(1, _BLOCK_BYTES // (n_inner * width))
    buf = np.empty(rows * width, dtype=np.uint8)
    w0, w1 = np.empty((2, rows), dtype=_U)
    values = np.empty(n_rows)
    outer_s = []
    inner = inner_s = None
    fh.seek(start)
    for r0 in range(0, n_rows, rows):
        n = min(rows, n_rows - r0)
        if fh.readinto(buf[: n * width]) != n * width:
            return None
        a = buf[: n * width].reshape(n, width)
        if inner is None:
            # the first block's inner strings; as words with the
            # value's sign byte, which every row must repeat
            inner_s = a[:n_inner, c1:c2].copy()
            inner = [_word(a[:n_inner], at, w0[:n_inner]).copy()
                     for at in _windows(c1, v0)]
        # every axis string is a field and its comma, at least 16 bytes
        if not (_same_strings(a, 0, c1, n_inner, w0[:n])
                and _same_strings(a, c1, v0, n_inner, w0[:n], inner)):
            return None
        outer_s.append(a[::n_inner, :c1].copy())
        _word(a, v0, w0[:n])
        _word(a, v0 + 8, w1[:n])
        # the block's bytes are copied out: its buffer is scratch now
        scratch = buf[: 24 * n].view(_U).reshape(3, n)
        q = values[r0:r0 + n]
        if not _values(w0[:n], w1[:n], scratch, q):
            return None
        if neg:
            np.negative(q, out=q)
    outer = _axis(np.concatenate(outer_s))
    inner = _axis(inner_s)
    if outer is None or inner is None:
        return None
    return outer, inner, values.reshape(outer.size, inner.size)
