"""CSV output: equal-length numeric columns as text, every cell spelled as
format(x, ".17g") spells it, so that a table round-trips exactly.

`csv_bytes` spells a whole table into one uint8 buffer, which `run` writes
as it is; `csv_text` is the same text as a str, for the scripts. One
vectorised kernel lays the cells out, the inverse of the parse kernel of
map files in `dynamics`. "%.17g" prints the 17 significant digits of a
double x: with 10^e <= |x| < 10^(e+1), these are the digits of M,
|x| 10^(16-e) rounded half-even to an integer in [10^16, 10^17). See
`csv_text` for why the kernel's M is exact and which cells go to the
per-cell fallback.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_U64 = np.uint64
_WRITE_CELLS = 1 << 12   # cells per kernel call of the writer: its
                         # temporaries (about 100 kB) stay in cache and in
                         # memory the heap reuses, where a whole table's
                         # land on new pages
_CELL_BYTES = 25         # the most a written cell takes: its separator and
                         # format's longest, "-2.2250738585072014e-308"
_ASCII = _U64(0x3030303030303030)
_SPLITTER = 2.0**27 + 1  # Dekker's split of a double into two 26-bit halves


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: a = high + low exactly, each with at most 26
    significant bits, so their pairwise products are exact."""
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


# rows 10^k, then its halves; 10^k is exact for k <= 22
_POW10_HALVES = np.array([[10.0**k for k in range(23)],
                          *_halves(10.0 ** np.arange(23))])


def _digit_bytes(v: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each v < 10^8 as byte values 0..9 of a
    little-endian word, the leading digit in the lowest byte: the inverse of
    the digit step of `dynamics._canonical_cells`. Quads, then pairs, then
    digits are split in place by multiply-shift division (5243 / 2^19 is
    1/100 below 43699, 103 / 2^10 is 1/10 below 179)."""
    hi = v // _U64(10**4)
    w = hi | ((v - hi * _U64(10**4)) << _U64(32))
    hi = ((w * _U64(5243)) >> _U64(19)) & _U64(0x0000007F0000007F)
    w = hi | ((w - hi * _U64(100)) << _U64(16))
    hi = ((w * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)
    return hi | ((w - hi * _U64(10)) << _U64(8))


# the doubles nearest 10^-4 .. 10^17
_POWERS = np.array([float(f"1e{k}") for k in range(-4, 18)])


def _digits(x: np.ndarray):
    """The leading digit of each |x|, the other 16 digits as two rows of
    `_digit_bytes` words (2, n), the decimal exponent e and whether the
    digits are exact, which needs |x| in [1e-4, 1e17). Inexact cells hold
    garbage."""
    ax = np.abs(x)
    inside = (ax >= 1e-4) & (ax < 1e17)
    ax = np.where(inside, ax, 1.0)
    # 2^k <= |x| < 2^(k+1) puts e at floor(k log10 2) or one above
    # (78913 / 2^18 is log10 2 to 1e-6, ample for |k| < 64)
    e = (((ax.view(np.int64) >> 52) - 1023) * 78913) >> 18
    e += ax >= np.take(_POWERS, e + 5)
    p, p_high, p_low = np.take(_POW10_HALVES, 16 - e, axis=1)
    hi = ax * p
    a_high, a_low = _halves(ax)
    lo = (((a_high * p_high - hi) + a_high * p_low + a_low * p_high)
          + a_low * p_low)
    m = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # a guard that does not fire in range (see `csv_text`)
    exact = inside & (m >= 10**16) & (m < 10**17)
    m = m.view(_U64)
    top = m // _U64(10**8)
    lead = top // _U64(10**8)
    rest = np.empty((2, m.size), _U64)
    rest[0] = top - lead * _U64(10**8)
    rest[1] = m - top * _U64(10**8)
    return lead, _digit_bytes(rest), e, exact


@cache
def _g_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The "%.17g" layout's entries, indexed by (separator, class, trailing
    zeros): the head mask and the constant bytes as 6 rows of words, the
    bytes kept as 3 words of 0/1 bytes per entry, and their count. Classes
    are 2 (e + 4) + sign for e in -4..16, then the fallback class, which
    keeps only its separator (byte 5).

    A cell's 17 digits sit in bytes 7..23. In fixed notation with e >= 0 the
    e + 1 head digits move down a byte, to 6.., and "." follows them; with
    e < 0 "0." and -e-1 zeros end at byte 6. The sign goes before, and
    before it the separator. Stripping trailing zeros, and a bare ".",
    moves the end."""
    classes = 2 * 21 + 1
    bytes_ = np.zeros((2, classes, 2, 24), np.uint8)
    first = np.full(classes, 5)
    stop = np.full((classes, 17), 6)
    zeros = np.arange(17)
    for e in range(-4, 17):
        start = 6 + min(e, 0)
        frac = 16 - e if e >= 0 else 17   # digits after the point
        for neg in (0, 1):
            c = 2 * (e + 4) + neg
            head, const = bytes_[:, c, 0], bytes_[:, c, 1]
            if e >= 0:
                head[:, 7:8 + e] = 0xFF
                const[:, 7 + e] = ord(".")
            else:
                const[:, start:7] = ord("0")
                const[:, start + 1] = ord(".")
            const[:, start - 1] = ord("-") if neg else 0
            first[c] = start - 1 - neg
            stop[c] = 24 - np.minimum(zeros, frac) - (zeros >= frac)
    for sep, char in enumerate(",\n"):
        bytes_[sep, np.arange(classes), 1, first] = ord(char)
    pos = np.arange(24)
    keep = ((pos >= first[:, None, None])
            & (pos < stop[:, :, None])).astype(np.uint8)
    words = np.broadcast_to(bytes_[:, :, None], (2, classes, 17, 2, 24))
    keep = np.ascontiguousarray(np.broadcast_to(keep, (2, classes, 17, 24)))
    return (np.ascontiguousarray(words).view(_U64).reshape(-1, 6).T.copy(),
            keep.view(_U64).reshape(-1, 3),
            keep.reshape(-1, 24).sum(axis=1, dtype=np.int64))


def _g_cells(x: np.ndarray, cols: int):
    """The "%.17g" layout of the cells of a block of rows of `cols` cells:
    24 bytes each as 3 words, the bytes kept as 0/1 bytes and their count,
    the indices of the fallback cells and their text."""
    lead, digits, e, exact = _digits(x)
    # trailing zero digits: the highest nonzero byte of the 16, found as the
    # exponent of a double (0.5 when every byte is zero, giving 16)
    nonzero = ((digits + _U64(0x7F7F7F7F7F7F7F7F))
               & _U64(0x8080808080808080)).astype(float)
    top = (nonzero[1] * 2.0**64 + nonzero[0] + 0.5).view(np.int64)
    zeros = 143 - ((top + (1 << 52)) >> 55)
    # entry (2 (e + 4) + sign) 17 + zeros, or the fallback class 42's
    idx = np.where(exact, 34 * e + 17 * np.signbit(x) + zeros + 136, 42 * 17)
    idx[::cols] += 43 * 17   # a row's first cell follows "\n"
    words, keep, kept = _g_tables()
    head_mask, const = np.take(words, idx, axis=1).reshape(2, 3, -1)
    s = ((lead + _U64(0x30)) << _U64(56), *(digits | _ASCII))
    head = [w & h for w, h in zip(s, head_mask)]
    out = np.empty((x.size, 3), _U64)
    for k in range(3):
        out[:, k] = (s[k] ^ head[k]) | const[k] | (head[k] >> _U64(8))
        if k < 2:
            out[:, k] |= head[k + 1] << _U64(56)
    fallback = np.flatnonzero(~exact)
    return (out, np.take(keep, idx, axis=0), np.take(kept, idx), fallback,
            [format(v, ".17g") for v in x[fallback].tolist()])


def _label_cells(labels: list[str]):
    """The cells of a column of ASCII labels as `_g_cells` lays cells out:
    per distinct label, "," and the label (at most 23 bytes) in 24 bytes as
    3 words, the bytes kept as 0/1 bytes and their count; and the index of
    each row's label."""
    names = list(dict.fromkeys(labels))
    text = np.zeros((len(names), 24), np.uint8)
    keep = np.zeros_like(text)
    for k, name in enumerate(names):
        raw = f",{name}".encode("ascii")
        text[k, :len(raw)] = np.frombuffer(raw, np.uint8)
        keep[k, :len(raw)] = 1
    index = dict(zip(names, range(len(names))))
    return ((text.view(_U64), keep.view(_U64),
             keep.sum(axis=1, dtype=np.int64)),
            np.fromiter(map(index.__getitem__, labels), np.intp, len(labels)))


def _put_cells(buf: np.ndarray, pos: int, out: np.ndarray, keep: np.ndarray,
               kept: np.ndarray, fallback: np.ndarray, spelt: list[str]) -> int:
    """Compress laid-out cells into buf[pos:], each fallback cell's text
    copied in after its separator, the one byte of it kept; the position
    after them. The cells go in runs, each ending at a fallback cell or at
    the last cell."""
    stops = [*fallback.tolist(), kept.size - 1]
    ends = np.cumsum(kept)[stops].tolist()   # of each run's kept bytes
    out, keep = out.view(np.uint8).reshape(-1), keep.view(bool).reshape(-1)
    first = start = 0   # the run's first cell, and where its bytes start
    for stop, end, text in zip(stops, ends, [*spelt, ""]):
        np.compress(keep[24 * first:24 * stop + 24],
                    out[24 * first:24 * stop + 24],
                    out=buf[pos:pos + end - start])
        pos += end - start
        buf.data[pos:pos + len(text)] = text.encode("ascii")
        pos += len(text)
        first, start = stop + 1, end
    return pos


def csv_bytes(columns, head: bytes = b"", labels: list[str] | None = None
               ) -> np.ndarray:
    """`head`, then each row of the equal-length numeric columns as "\n"
    and its cells joined by ",", each spelled as format(x, ".17g") spells it
    (see `csv_text`); with `labels`, one ASCII string per row, each row
    ends in "," and its label. A "\n" closes the last row, or `head` when
    there are none. The bytes are a view of one uint8 buffer, sized for the
    longest cells and filled block by block: `_WRITE_CELLS` cells a kernel
    call, in whole rows, each block's kept bytes compressed straight into
    it."""
    cols = [np.asarray(c, dtype=float).reshape(-1) for c in columns]
    width, rows = len(cols), cols[0].size
    if labels is not None:
        label_cells, label_of = _label_cells(labels)
    size = _CELL_BYTES * rows * (width + (labels is not None))
    buf = np.empty(len(head) + size + 1, np.uint8)
    buf.data[:len(head)] = head
    pos, step = len(head), max(1, _WRITE_CELLS // width)   # whole rows
    for i in range(0, rows, step):
        # each cell after its separator: "," or, before a row's first, "\n"
        x = np.column_stack([c[i:i + step] for c in cols]).reshape(-1)
        out, keep, kept, fallback, spelt = _g_cells(x, width)
        if labels is not None:   # each row's label cell after its last
            n = x.size // width
            out, keep, kept = (
                np.concatenate([a.reshape(n, width, -1),
                                label[label_of[i:i + step]].reshape(n, 1, -1)],
                               axis=1).reshape(a.shape[0] + n, *a.shape[1:])
                for a, label in zip((out, keep, kept), label_cells))
            fallback += fallback // width
        pos = _put_cells(buf, pos, out, keep, kept, fallback, spelt)
    buf[pos] = ord("\n")
    return buf[:pos + 1]


def csv_text(columns) -> str:
    """The CSV text of equal-length numeric columns: one line per row, each
    ending in "\n", every cell spelled as format(x, ".17g") spells it: the
    bytes `run` writes after a table's header, decoded.

    The cells are spelled by one vectorised kernel, in blocks of whole rows.
    With e = floor(log10 |x|) and 10^(16-e) an exact double (16 - e <= 22),
    Dekker's two-product gives |x| 10^(16-e) exactly as hi + lo, no fma
    needed. Where the product is at least 10^16 > 2^53, hi is an even
    integer, so M = hi + rint(lo) is the product rounded half-even, exact
    ties included, as CPython's dtoa rounds it, and its 17 digits are laid
    out in %g's fixed notation (-4 <= e < 17) with trailing zeros and a
    bare "." stripped. Cells go to format() instead when they are not
    finite, zero, below 1e-4 (%g's exponent form) or at least 1e17. In that
    range e is exact: it comes from the binary exponent and one compare
    with the doubles nearest 10^-4 .. 10^17, which are the powers
    themselves from 10^0 up and lie above them below. And M stays below
    10^17: a carry into an 18th digit needs |x| below a power of ten
    10^-3 .. 10^17 by less than 5e-18 relative, and the double nearest each
    is the power itself, whose lower neighbour is an ulp away, or lies
    above it. As a guard, a cell whose M falls outside [10^16, 10^17)
    goes to format() as well."""
    return str(csv_bytes(columns)[1:], "ascii")
