"""The column-stacked form of maps, and the map-file format.

Maps reach the package as column-stacked superoperators in files and are
real basis stacks inside it (`trajectory`); only this module knows the
convention: `basis_maps` and `column_stacked` convert, `map_faults` checks
Hermiticity preservation, `cptp_diagnostics_stack` reads Choi matrices,
`save_map_trajectory` and `load_map_trajectory` write and read the format.

The column-stacked (Liouville) matrix S of a map: vec(A)[i + d*j] = A[i, j],
so vec(A X B) = (B^T kron A) vec(X), a Kraus map X -> sum_k M_k X M_k^dagger
has the matrix sum_k conj(M_k) kron M_k, and the HS adjoint is the conjugate
transpose. The Choi matrix is C = (1/d) * reshuffle(S), normalized so that
a trace-preserving map has Tr{C} = 1 and the identity map gives a rank-one
C with eigenvalues {1, 0, ..., 0}: its minimum Choi eigenvalue is 0.
"""

from __future__ import annotations

import math
import os
from functools import cache

import numpy as np

from .errors import ConstructionError
from .operators import dagger, hermitian_basis, stack_blocks
from .quadrature import grid_fault
from .records import record
from .trajectory import MapTrajectory

HP_CHECK_TOL = 1e-10


def _reshuffle(m: np.ndarray, d: int) -> np.ndarray:
    """Row-reshuffle of a stack of d^2 x d^2 matrices (unnormalized Choi
    rearrangement for the column-stacking convention)."""
    return m.reshape(-1, d, d, d, d).transpose(0, 4, 2, 3, 1).reshape(
        -1, d * d, d * d)


def commutator_superop(h: np.ndarray) -> np.ndarray:
    """Matrix of X -> [H, X] in the vectorized convention (raw ndarray)."""
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    return np.kron(np.eye(d), h) - np.kron(h.T, np.eye(d))


@record
class CPTPReport:
    trace_preserving_residual: float
    choi_min_eigenvalue: float
    unital_residual: float
    hermiticity_residual: float = 0.0


def cptp_diagnostics_stack(m: np.ndarray) -> CPTPReport:
    """Diagnostics of every matrix of a (n, d^2, d^2) stack of
    column-stacked maps, as one report whose fields are (n,) arrays. Never
    raises: the TP residual, the minimum Choi eigenvalue (negative values
    are legal for generator-level intermediate maps and are reported, not
    rejected), the unitality residual, and the Choi Hermiticity residual."""
    d = math.isqrt(m.shape[-1])
    ident = np.eye(d).reshape(-1)  # vec(1)
    tp, unital, herm, cmin = (np.empty(m.shape[0]) for _ in range(4))
    for blk in stack_blocks(m.shape[0], d * d):
        tp[blk] = np.abs(dagger(m[blk]) @ ident - ident).max(axis=-1)
        unital[blk] = np.abs(m[blk] @ ident - ident).max(axis=-1)
        c = _reshuffle(m[blk], d) / d
        herm[blk] = np.abs(c - dagger(c)).max(axis=(-2, -1))
        cmin[blk] = np.linalg.eigvalsh(0.5 * (c + dagger(c)))[:, 0]
    return CPTPReport(trace_preserving_residual=tp, choi_min_eigenvalue=cmin,
                      unital_residual=unital, hermiticity_residual=herm)


def basis_maps(m: np.ndarray, dynamical: bool = False,
               ) -> tuple[np.ndarray, np.ndarray]:
    """The real basis matrices of column-stacked ones (..., d^2, d^2), and
    the largest imaginary part of each (...), a few ulps where a map
    preserves Hermiticity (vec(B_a) = conj(flat[a])). A `dynamical` stack
    holds maps, of order one: their difference from the identity is
    converted, so that the identity at t = 0 converts exactly (a
    derivative's small and zero entries would lose accuracy that way)."""
    return _changed(np.asarray(m, dtype=complex), dynamical, inverse=False)


def column_stacked(r: np.ndarray, dynamical: bool = False) -> np.ndarray:
    """The column-stacked matrices of basis ones; inverse of `basis_maps`."""
    return _changed(r, dynamical, inverse=True)[0]


def _changed(m: np.ndarray, dynamical: bool, inverse: bool):
    """`basis_maps` of a complex stack, or `column_stacked` if `inverse`:
    left @ m @ right (of m - 1, plus 1, if `dynamical`) into one new array
    (real unless `inverse`) and each matrix's largest imaginary part, one
    `stack_blocks` block at a time, so that no temporary is larger than a
    block; each matrix gets the bits it gets alone."""
    side = m.shape[-1]
    flat = hermitian_basis(math.isqrt(side)).reshape(side, -1)
    left, right = (flat.conj().T, flat) if inverse else (flat, flat.conj().T)
    stack = np.asarray(m).reshape(-1, side, side)
    out = np.empty(stack.shape, complex if inverse else float)
    imag = np.empty(len(stack))
    blocks = stack_blocks(len(stack), side)
    work = np.empty((2, blocks[0].stop if blocks else 0, side, side),
                    complex)
    eye = np.eye(side)
    for blk in blocks:
        x, y = work[:, :blk.stop - blk.start]
        part = np.subtract(stack[blk], eye, out=x) if dynamical else stack[blk]
        z = np.matmul(np.matmul(left, part, out=y), right, out=x)
        out[blk] = z if inverse else z.real
        imag[blk] = np.abs(z.imag).max(axis=(1, 2))
        if dynamical:
            out[blk] += eye
    return out.reshape(np.shape(m)), imag.reshape(np.shape(m)[:-2])


def map_faults(a: np.ndarray, imag: np.ndarray, t: np.ndarray,
               what: str = "map") -> dict[int, str]:
    """The matrices of a real basis stack, by index, that hold a value that
    is not finite or whose largest imaginary part `imag` (`basis_maps`) tops
    HP_CHECK_TOL of their largest entry (floor 1), each with its message."""
    scale = np.abs(a).max(axis=(1, 2))
    with np.errstate(invalid="ignore"):
        dev = 0.0 * scale + imag   # NaN where a value is not finite
    allowed = HP_CHECK_TOL * np.maximum(1.0, scale)
    return {int(k): f"{what} at t = {t[k]:.6g} " + (
        "holds a value that is not finite" if not np.isfinite(dev[k])
        else f"is not Hermiticity-preserving: imaginary part {dev[k]:.3e} "
             f"(allowed {allowed[k]:.3e})")
        for k in np.flatnonzero(~(dev <= allowed))}


_FORMAT_TAG = "mapthermo-maps v1"
_U64 = np.uint64
_ASCII = _U64(0x3030303030303030)


def save_map_trajectory(traj: MapTrajectory, path: str) -> None:
    """Write a trajectory to the documented text format.

    Header lines start with '#': a format tag, then
    "dim=<d> vectorization=column-stacking derivatives=<0|1>". Each data row
    holds the time followed by re,im pairs of the d^2 x d^2 column-stacked
    superoperator matrix (`column_stacked` of the map) in
    row-major order, then the same for the derivative when present. Floats
    are written with 17 significant digits, so the file holds those
    matrices exactly; loading changes basis back, within a few ulps (the
    identity at t = 0 exactly, see `basis_maps`).
    """
    d = traj.dim
    has_d = traj.derivatives is not None
    # "%.16e" spells a float as f"{x:.16e}" does; one template per file
    row = ",".join(["%.16e"] * (1 + 2 * d ** 4 * (1 + has_d))) + "\n"
    with open(path, "w") as fh:
        fh.write(f"# {_FORMAT_TAG}\n")
        fh.write(f"# dim={d} vectorization=column-stacking "
                 f"derivatives={int(has_d)}\n")
        fh.write("# row: t, re/im pairs of the map matrix (row-major)"
                 + (", re/im pairs of dmap/dt" if has_d else "") + "\n")
        for i, t in enumerate(traj.times):
            # row by row, so no whole complex stack is held; a complex array
            # viewed as floats interleaves re and im
            blocks = [column_stacked(traj.maps[i], dynamical=True)] + (
                [column_stacked(traj.derivatives[i])] if has_d else [])
            flat = np.concatenate([b.reshape(-1) for b in blocks]).view(float)
            fh.write(row % (t, *flat.tolist()))


# Exact vectorised cell parsing. A cell as `save_map_trajectory` writes it,
# "-d.dddddddddddddddde+dd" with the '-' optional (an "E" reads as the
# "e"), is M * 10^q with M < 10^17. For |q| <= 27 both M and 10^|q| are
# exact in the 64-bit significand of the x87 extended format, so M * 10^q
# (or M / 10^-q) is rounded once there, and the cast to float64 is correct
# unless that rounding landed on a halfway point between two doubles (the
# 11 bits the cast drops are then 0x400). For 27 < |q| <= 54 a second step
# by 10^(|q| - 27) rounds again; as each errs by at most 2^-64 relative,
# the result is within 2 ulps of M * 10^q, and the cast is correct unless
# the dropped bits are within 2 of 0x400. A signed cell takes -10^|q| for
# 10^|q| (rounding is symmetric, and "-0.0...e+00" reads as -0.0). Other
# cells, such cells and, where np.longdouble is not the x87 format, all
# cells go to float().

_CELL = 22          # bytes of an unsigned canonical cell
_MAX_Q = 27         # 5^27 < 2^64: 10^q is exact for |q| <= 27
_POW10 = np.cumprod(np.full(_MAX_Q + 1, 10, np.longdouble)) / 10
_READ_BUFFER = 1 << 19   # bytes asked of the file at a time
_BLOCK_CELLS = 1 << 14   # cells of a block, at 16 to 32 bytes a cell: the
                         # whole lines in one buffer of 32 * _BLOCK_CELLS
                         # bytes (four data rows of a d = 6 file)
_GATHER = 1 << 11        # cells whose 32 bytes are gathered at a time
_FLOAT_CELLS = 1 << 12   # cells float() reads at a time where the kernel
                         # does not run: their strings stay in cache

# whether np.longdouble is the x87 format the kernel relies on: a 64-bit
# significand, stored first in 16 bytes, and exact products (of 64 bits)
_EXACT = (np.finfo(np.longdouble).nmant == 63
          and np.dtype(np.longdouble).itemsize == 16
          and int((np.array([2**32 + 1], np.longdouble) * (2**31 + 1))
                  .view(_U64)[0]) == (2**32 + 1) * (2**31 + 1))
# less "0" from the 16 digits, and "+" and "0" from the exponent's word
_DIGIT_BASE = np.array([[_ASCII], [_ASCII], [_U64(0x30302B0000000000)]])


@cache
def _exponent_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """By the exponent key j = 1000 n + 100 s + e of a cell (n = 1 if
    signed, s = 0 for "e+", 2 for "e-", e the exponent's two digits): the
    kind of cell (0 not read, 1 one division, 2 a product or a second
    step), its q and its first step, -10^min(|q|, 27) if signed. Made at
    the first kernel call: the numpy code it runs would page in, at
    import, for runs that read no map file."""
    n, s = np.divmod(np.arange(2000), 1000)
    s, e = np.divmod(s, 100)
    q = np.where(s == 2, -e, e) - 16
    kind = np.select([(s != 0) & (s != 2), np.abs(q) > 2 * _MAX_Q,
                      (q <= 0) & (q >= -_MAX_Q)], [0, 0, 1], 2)
    step = np.where(n, -1, 1) * _POW10[np.minimum(np.abs(q), _MAX_Q)]
    return kind.astype(np.int8), q, step


class _Scratch:
    """Arrays that a reader writes with out= and reuses from block to
    block: each is made at the first size asked of it and made again only
    for a larger one, so reading a file allocates them a few times."""

    def __init__(self):
        self._flat = {}

    def get(self, name: str, dtype, *shape: int) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:   # an eighth to spare
            flat = self._flat[name] = np.empty((size + size // 8,), dtype)
        return flat[:size].reshape(shape)


def _canonical_cells(data, starts: np.ndarray, ends: np.ndarray,
                     scratch: _Scratch | None = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Values of the cells data[starts:ends] and the indices of those not
    read exactly, which hold garbage. Needs `_EXACT` and 32 bytes of data.
    The values, and each intermediate of more than a few kB, are arrays of
    `scratch` (a new one if None), written with out=."""
    n = ends.size
    work = _Scratch() if scratch is None else scratch
    at = work.get("at", np.int64, n)
    w = work.get("words", _U64, 4, n)
    x, y = work.get("u64", _U64, 2, n)
    ok, neg, flag = work.get("flags", bool, 3, n)
    # 32 bytes from 28 before each cell's end, where they lie in the data,
    # as words "_____-d." "dddddddd" "dddddddd" "e+dd____", the "-" if signed
    np.subtract(ends, 28, out=at)
    lo, hi = at.searchsorted(0), at.searchsorted(len(data) - 32, "right")
    np.clip(at, 0, len(data) - 32, out=at)
    cells = np.ndarray((len(data) - 31,), "V32", buffer=data, strides=(1,))
    for k in range(0, n, _GATHER):
        w[:, k:k + _GATHER] = cells[at[k:k + _GATHER]].view(_U64).reshape(
            -1, 4).T
    # the byte before "d." ("-" if signed) plus 256 d, where "d." is a digit
    # and a point: less than 0xA00 then
    np.right_shift(w[0], 40, out=x)
    np.subtract(x, 0x2E3000, out=x)
    np.bitwise_and(x, 0xFF, out=y)
    np.equal(y, ord("-"), out=neg)
    np.subtract(ends, starts, out=at)   # 22 bytes, 23 with the "-"
    np.subtract(at, neg, out=at)
    np.equal(at, _CELL, out=ok)
    ok[:lo] = ok[hi:] = False
    np.less(x, 0xA00, out=flag)
    ok &= flag
    np.right_shift(x, 8, out=x)   # the first digit
    np.bitwise_and(w[3], 0xDF, out=y)
    np.equal(y, ord("E"), out=flag)
    ok &= flag
    # the 16 digits, and the exponent as the word "00000sdd", less "0" (and
    # "+" from its sign): all are digits where no byte borrows or tops 9,
    # so adding 0x76 sets no top bit
    np.left_shift(w[3], 32, out=w[3])
    np.bitwise_and(w[3], _U64(0xFFFFFF << 40), out=w[3])
    v = w[1:]
    np.subtract(v, _DIGIT_BASE, out=v)
    t = work.get("digits", _U64, 3, n)
    np.add(v, _U64(0x7676767676767676), out=t)
    np.bitwise_or(t, v, out=t)
    np.bitwise_or.reduce(t, axis=0, out=y)
    np.bitwise_and(y, _U64(0x8080808080808080), out=y)
    np.equal(y, 0, out=flag)
    ok &= flag
    # each word's number (first digit in the lowest byte): pairs, quads, all
    np.multiply(v, 10 * 256 + 1, out=v)
    np.right_shift(v, 8, out=v)
    np.bitwise_and(v, _U64(0x00FF00FF00FF00FF), out=v)
    np.multiply(v, 100 * 65536 + 1, out=v)
    np.right_shift(v, 16, out=v)
    np.bitwise_and(v, _U64(0x0000FFFF0000FFFF), out=v)
    np.multiply(v, _U64(10000 * 2**32 + 1), out=v)
    np.right_shift(v, 32, out=v)
    # M, the 17 digits, and the exponent key
    np.multiply(x, _U64(10**16), out=x)
    np.multiply(w[1], _U64(10**8), out=y)
    np.add(x, y, out=x)
    np.add(x, w[2], out=x)
    np.multiply(neg, _U64(1000), out=y)
    key = np.add(w[3], y, out=w[3]).view(np.int64)
    kinds, qs, steps = _exponent_tables()
    kind = np.take(kinds, key, out=work.get("kind", np.int8, n), mode="clip")
    np.logical_and(ok, kind, out=ok)
    r = np.take(steps, key, out=work.get("long", np.longdouble, n),
                mode="clip")
    np.divide(x, r, out=r)   # q <= 0 in most cells
    odd = np.flatnonzero(np.equal(kind, 2, out=flag))
    q = qs[key[odd]]
    up = odd[q > 0]
    r[up] = x[up] * steps[key[up]]
    far, q = odd[np.abs(q) > _MAX_Q], q[np.abs(q) > _MAX_Q]   # second step
    scale = _POW10[np.abs(q) - _MAX_Q]
    r[far] = np.where(q < 0, r[far] / scale, r[far] * scale)
    np.bitwise_and(r.view(_U64)[0::2], 0x7FF, out=y)   # the cast drops them
    np.not_equal(y, 0x400, out=flag)
    ok &= flag
    ok[far] &= np.abs(y[far].astype(np.int64) - 0x400) > 2
    vals = work.get("values", np.float64, n)
    np.copyto(vals, r, casting="same_kind")
    return vals, np.flatnonzero(np.logical_not(ok, out=flag))


def _read_rows(path: str, lineno: int, data, a: int, b: int, cols: int,
               scratch: _Scratch | None = None) -> np.ndarray:
    """The lines data[a:b] from line `lineno` on as a (rows, cols) array,
    each cell read as float() reads it; ConstructionError names the first
    row with other columns, a cell float() refuses or a value that is not
    finite, whichever row comes first. The kernel (about 0.2 of float()'s
    time) runs where the cells average a written cell's width; float()
    reads the cells it leaves one by one (1.5 times their share) if they
    are at most two thirds, else all. The array may be one of `scratch`,
    valid until its next use."""
    work = _Scratch() if scratch is None else scratch
    buf = np.frombuffer(data, np.uint8, b - a, a)
    sep, eol = work.get("masks", bool, 2, b - a)
    np.equal(buf, ord(","), out=sep)
    np.equal(buf, ord("\n"), out=eol)
    ends = np.flatnonzero(np.logical_or(sep, eol, out=sep))
    rows = np.flatnonzero(eol[ends])   # the cells ending rows
    n = ends.size
    if n != rows.size * cols or np.any(rows % cols != cols - 1):
        got = np.diff(rows, prepend=-1)
        r = np.flatnonzero(got != cols)[0]
        if r:   # a fault in a row before it comes first
            _read_rows(path, lineno, data, a, a + ends[rows[r - 1]] + 1, cols,
                       work)
        raise ConstructionError(f"{path}:{lineno + r}: expected {cols} "
                                f"columns, got {got[r]}")
    ends += a
    bad = None
    if _EXACT and len(data) >= 32 and 22 * n <= b - a <= 25 * n:
        starts = work.get("starts", np.int64, n)
        starts[0] = a
        np.add(ends[:-1], 1, out=starts[1:])
        vals, bad = _canonical_cells(data, starts, ends, work)
    try:
        if bad is not None and 3 * bad.size <= 2 * n:
            vals[bad] = [float(data[s:e].decode()) for s, e in
                         zip(starts[bad].tolist(), ends[bad].tolist())]
        else:   # a few thousand cells at a time, as their strings pile up
            vals, bad = work.get("values", np.float64, n), slice(None)
            for i in range(0, n, _FLOAT_CELLS):
                j = min(i + _FLOAT_CELLS, n)
                text = str(memoryview(data)[ends[i - 1] + 1 if i else a:
                                            ends[j - 1]], "utf-8")
                vals[i:j] = np.fromiter(map(float, text.replace(
                    "\n", ",").split(",")), np.float64, j - i)
    except ValueError:   # UnicodeDecodeError included
        if rows.size == 1:
            raise ConstructionError(f"{path}:{lineno}: row is not "
                                    "comma-separated numbers") from None
        for r, end in enumerate((ends[rows] + 1).tolist()):
            _read_rows(path, lineno + r, data, a, end, cols, work)
            a = end
        raise
    vals = vals.reshape(-1, cols)
    if not np.isfinite(vals.reshape(-1)[bad]).all():   # the kernel's are
        r = np.flatnonzero(~np.isfinite(vals).all(axis=1))[0]
        raise ConstructionError(f"{path}:{lineno + r}: row holds a value "
                                "that is not finite")
    return vals


def _header_line(path: str, lineno: int, raw: bytes, header: dict,
                 seen: bool) -> bool:
    """Check a line other than a plain data row, the format tag, the dim
    header (read into `header`) or a comment; whether it is a data row."""
    try:
        line = raw.decode("utf-8").strip()
    except UnicodeDecodeError:
        raise ConstructionError(
            f"{path}:{lineno}: line is not UTF-8 text") from None
    body = line.lstrip("#").strip()
    if lineno == 1 and not (line.startswith("#") and body == _FORMAT_TAG):
        raise ConstructionError(f"{path}:1: expected the format tag line "
                                f"'# {_FORMAT_TAG}', got {line!r}")
    if lineno > 1 and line.startswith("#") and body.startswith("dim="):
        parts = [part.split("=", 1) for part in body.split()]
        fields = dict(part for part in parts if len(part) == 2)
        v, has_d = fields.get("vectorization"), fields.get("derivatives")
        for fault, why in (
                (seen, "header line after data rows"),
                (len(fields) != len(parts) or not fields["dim"].isdigit()
                 or int(fields["dim"]) < 1 or has_d not in (None, "0", "1"),
                 f"malformed header line {line!r}, expected '# dim=<d> "
                 "vectorization=column-stacking derivatives=<0|1>'"),
                (v != "column-stacking", f"unsupported vectorization {v!r}")):
            if fault:
                raise ConstructionError(f"{path}:{lineno}: {why}")
        header.update(dim=int(fields["dim"]), has_d=has_d == "1")
    return lineno > 1 and bool(line) and not line.startswith("#")


def _data_rows(path: str, header: dict, scratch: _Scratch | None = None):
    """The data rows of a map file as (lineno, rows, data, a, b): `rows`
    lines data[a:b] from line `lineno` on, the header (and at the end the
    line count, "lines") read into `header`. Each byte is read once, into
    one buffer of 32 * _BLOCK_CELLS bytes whose whole lines make a block
    (a part line moves to its front), doubled only while they fill less
    than half of it, as for a line longer than that; `data` is that buffer,
    valid until the next block. Lines end as in text mode, and runs of rows
    starting with a digit or '-' go whole."""
    scratch = _Scratch() if scratch is None else scratch
    lineno, seen = 0, False
    buf, have, more = bytearray(32 * _BLOCK_CELLS), 0, True
    with open(path, "rb", buffering=0) as fh:
        while True:
            while more and have < len(buf):
                with memoryview(buf) as free:
                    got = fh.readinto(free[have:have + _READ_BUFFER])
                more, have = got > 0, have + got
            if not have:
                break
            # whole lines: to the last line end, but not to a "\r" last in
            # the buffer, which may begin a "\r\n"
            end = buf.rfind(b"\n", 0, have)
            end = max(end, buf.rfind(b"\r", end + 1, have - more)) + 1
            if not more and end < have:   # the last line, without its end
                buf = buf + b"\n" if have == len(buf) else buf
                buf[have] = ord("\n")
                have = end = have + 1
            if more and 2 * end < len(buf):   # too few whole lines
                buf = buf + bytes(len(buf))
                continue
            data, size = buf, end
            if buf.find(b"\r", 0, end) >= 0:
                data = buf[:end].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                size = len(data)
            view = np.frombuffer(data, np.uint8, size)
            eol = np.flatnonzero(np.equal(
                view, ord("\n"), out=scratch.get("masks", bool, size)))
            starts = np.concatenate(([0], eol[:-1] + 1))
            head = view[starts]
            plain = (head - ord("0") <= 9) | (head == ord("-"))
            plain[0] &= lineno > 0
            runs = [0, *(np.diff(plain).nonzero()[0] + 1).tolist(), eol.size]
            starts, ends = starts.tolist(), (eol + 1).tolist()
            for i, j in zip(runs, runs[1:]):   # lines i..j-1, all plain or not
                if plain[i]:
                    yield lineno + 1, j - i, data, starts[i], ends[j - 1]
                    lineno, seen = lineno + j - i, True
                for s, e in [] if plain[i] else zip(starts[i:j], ends[i:j]):
                    lineno += 1
                    if _header_line(path, lineno, data[s:e], header, seen):
                        yield lineno, 1, data, s, e
                        seen = True
            with memoryview(buf) as whole:   # the part line to the front
                whole[:have - end] = whole[end:have]
            have -= end
    header["lines"] = lineno


def read_map_file(path: str) -> tuple[np.ndarray, np.ndarray,
                                      np.ndarray | None]:
    """Parse the text format into the times and (n, d^2, d^2) stacks of maps
    and (when present) derivatives, without validating a trajectory, for
    diagnostics on imperfect files. One pass reads the file block by block
    into one reused buffer (`_data_rows`; the file is never read whole),
    and the kernel's intermediates live in arrays made once per file and
    reused for every block (`_Scratch`), so that the working memory beyond
    the stacks is about ten bytes per byte of the buffer (5 MB where rows
    fit 256 kB, as at d <= 6) whatever the file's size. Each run of rows
    is parsed into stacks sized by the first run (or one they cannot
    hold), plus an eighth: in `repr` spellings the early rows can be longer
    than the file's average (by 7 % in a d = 2 GKSL file). The stacks are
    cut to their rows in place at the end, and the pages past the last row
    are never written. A run of several rows is sized by its rows after
    the first: the t = 0 row often spells the identity map in short
    cells."""
    header, n, stacks, left = {}, 0, [np.empty(0)], os.path.getsize(path)
    scratch = _Scratch()
    for lineno, rows, data, a, b in _data_rows(path, header, scratch):
        if "dim" not in header:
            raise ConstructionError(
                f"{path}:{lineno}: data row before the dim header line")
        d2, has_d, left = header["dim"] ** 2, header["has_d"], left - (b - a)
        cells = 2 * d2 * d2   # of a map, and of its derivative
        vals = _read_rows(path, lineno, data, a, b, 1 + cells * (1 + has_d),
                          scratch)
        if n + rows > len(stacks[0]):   # the rows the bytes left hold
            used, per = b - a, rows
            if rows > 1:
                used, per = b - data.index(b"\n", a) - 1, rows - 1
            size = n + rows + int(1.125 * max(left, 0) * per / used)
            grown = [np.empty(size), *[np.empty((size, d2, d2), complex)
                                       for _ in range(1 + has_d)]]
            for new, old in zip(grown, stacks):
                new[:n] = old[:n]
            stacks = grown
        # the times, the re, im pairs of the maps, then of the derivatives
        for stack, flat in zip(stacks, np.split(vals, [1, 1 + cells], 1)):
            stack[n:n + rows].reshape(rows, -1).view(float)[:] = flat
        n += rows
    if not n:   # name the line where the first one was expected
        raise ConstructionError(f"{path}:{header['lines'] + 1}: no data rows")
    for stack in stacks:   # realloc shrinks in place; no view of it is left
        stack.resize((n, *stack.shape[1:]), refcheck=False)
    return stacks[0][:n], stacks[1][:n], stacks[2][:n] if has_d else None


def data_row_line(path: str, k: int) -> int:
    """The line of data row k of a map file that `read_map_file` reads.
    The file is read again to find it, so only a message about a row pays
    for it."""
    for lineno, rows, *_ in _data_rows(path, {}):
        if k < rows:
            return lineno + k
        k -= rows


def load_map_trajectory(path: str) -> MapTrajectory:
    """Read the text format and build a validated trajectory. A file whose
    maps or grid fail validation raises ConstructionError, as a malformed
    file does, and so does a file without derivatives whose rows are too
    few for the stencils; every message starts with the path and the line
    of the first row at fault."""
    times, maps, derivs = read_map_file(path)
    maps, imag = basis_maps(maps, dynamical=True)   # the complex one goes
    faults, dfaults = map_faults(maps, imag, times), {}
    if derivs is not None:
        derivs, imag = basis_maps(derivs)   # and so does this one
        dfaults = map_faults(derivs, imag, times, "map derivative")
    try:
        for k, why in faults.items():
            raise ConstructionError(why, index=k)
        # the maps' other checks come before a derivative's faults
        traj = MapTrajectory(times=times, maps=maps,
                             derivatives=None if dfaults else derivs)
        for k, why in dfaults.items():
            raise ConstructionError(why, index=k)
        if derivs is None and times.size < 3:   # one row fails the grid
            raise ConstructionError("without derivatives the stencils need "
                                    "three rows, got 2", index=1)
        return traj
    except ConstructionError as exc:
        row, why = exc.index, exc
    except ValueError as exc:   # the grid checks of quadrature.grid_spacing
        row, why = grid_fault(times)[0], exc
    raise ConstructionError(f"{path}:{data_row_line(path, row)}: {why}")
