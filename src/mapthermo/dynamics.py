"""Dynamical maps on a time grid and their time-local generators.

A `MapTrajectory` is the single source of dynamical truth: a uniform time
grid starting at 0, the dynamical maps at every grid point as one
time-batched stack (the map at t = 0 is the identity, since system and
environment start uncorrelated), and optionally the stack of the maps' time
derivatives, each map as its real matrix in a Hermitian operator basis, so
that every layer after it runs in real arithmetic; the complex
column-stacked form exists only in map files. When derivatives are not
supplied they are formed by second-order finite differences: central
stencils in the interior, one-sided three-point stencils at the endpoints.

From the trajectory this module extracts the time-local generator
L_t = dPhi_t/dt o Phi_t^{-1} and splits it into a commutator part with an
effective Hamiltonian K(t) and a dissipator D_t, using the unique splitting
whose Lindblad operators are traceless:

    K = (1/2id) sum_{j,k} [ |j><k| , L[|k><j|] ]

The formula is basis independent, which the tests exercise: for the whole
grid, `generator_splits` takes one product of the real generators with the
basis' structure constants; the per-point references it is tested against
live in `tests/reference.py`. Every inversion is gated on the condition
number, computed once per grid point, since invertibility is exactly what
fails first in strongly dissipative or resonant regimes.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstructionError
from .operators import (
    COND_THRESHOLD_DEFAULT,
    HP_CHECK_TOL,
    _split_table,
    basis_maps,
    column_stacked,
    require_invertible,
    stack_blocks,
)
from .quadrature import grid_fault, grid_spacing, stencil_derivative

IDENTITY_TOL = 1e-12
TP_TOL = 1e-10
# `condition_flags` reporting heuristics, not physics
SPIKE_FACTOR = 10.0
SPIKE_FLOOR = 100.0


def map_faults(a: np.ndarray, t: np.ndarray,
               what: str = "map") -> dict[int, str]:
    """The maps of a (n, d^2, d^2) basis stack, by index, that hold a value
    that is not finite or have an imaginary part above HP_CHECK_TOL of
    their largest entry (floor 1), each with a message naming its time."""
    scale = np.abs(a.real).max(axis=(1, 2))
    with np.errstate(invalid="ignore"):
        dev = 0.0 * scale   # NaN where a value is not finite
    if np.iscomplexobj(a):
        dev += np.abs(a.imag).max(axis=(1, 2))
    allowed = HP_CHECK_TOL * np.maximum(1.0, scale)
    return {int(k): f"{what} at t = {t[k]:.6g} " + (
        "holds a value that is not finite" if not np.isfinite(a[k]).all()
        else f"is not Hermiticity-preserving: imaginary part {dev[k]:.3e} "
             f"(allowed {allowed[k]:.3e})")
        for k in np.flatnonzero(~(dev <= allowed))}


def _real_stack(a: np.ndarray, t: np.ndarray, what: str) -> np.ndarray:
    """The real part of a basis stack, as a copy; a ConstructionError
    names the first map at fault (`map_faults`) and carries its index."""
    for k, why in map_faults(a, t, what).items():
        raise ConstructionError(why, index=k)
    return np.array(a.real, dtype=float)


@dataclass(frozen=True, eq=False)
class MapTrajectory:
    """Dynamical maps sampled on a uniform grid t_0 = 0 < t_1 < ... < t_N.

    `maps` is one read-only real (N+1, d^2, d^2) array, each map as its
    matrix R_ab = Tr{B_a Phi_t[B_b]} in the basis of
    `operators.hermitian_basis` (for d = 2 the Pauli transfer matrix), and
    `derivatives` the optional array of analytic dPhi/dt in that basis;
    either may be given complex (`operators.basis_maps`). Construction is
    the only validation (grid, shapes, `map_faults`, whose imaginary part
    it then drops, identity at t = 0, trace preservation as a first row
    e_0) and names the first failing time. A ConstructionError carries the
    index of the map at fault; a grid that is not uniform raises ValueError
    (`quadrature.grid_fault` finds its point). cond(Phi_t) and Phi_t^{-1}
    are computed once for the whole grid, on first use.
    """

    times: np.ndarray
    maps: np.ndarray
    derivatives: np.ndarray | None = None

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        maps = np.asarray(self.maps)
        if (maps.ndim != 3 or maps.shape[1] != maps.shape[2]
                or maps.shape[0] != t.size):
            raise ConstructionError(f"map stack of shape {maps.shape} for "
                                    f"{t.size} grid points")
        maps = _real_stack(maps, t, "map")
        if t[0] != 0.0:
            raise ConstructionError(f"grid must start at 0, got {t[0]}",
                                    index=0)
        grid_spacing(t)
        d2 = maps.shape[1]
        if math.isqrt(d2) ** 2 != d2:
            raise ConstructionError(f"map side {d2} is not a perfect square")
        dev0 = float(np.max(np.abs(maps[0] - np.eye(d2))))
        if dev0 > IDENTITY_TOL:
            raise ConstructionError(
                f"map at t = 0 deviates from the identity by {dev0:.3e}",
                index=0)
        # Tr{S[A]} = Tr{A} for all A  <=>  S^dagger[1] = 1  <=>  R^T e_0 = e_0
        tp = np.abs(maps[:, 0] - np.eye(d2)[0]).max(axis=1)
        bad = np.flatnonzero(tp > TP_TOL)
        if bad.size:
            i = bad[0]
            raise ConstructionError(
                f"map at t = {t[i]:.6g} is not trace-preserving "
                f"(residual {tp[i]:.3e})", index=int(i))
        maps.setflags(write=False)
        object.__setattr__(self, "maps", maps)
        if self.derivatives is not None:
            derivs = np.asarray(self.derivatives)
            if derivs.shape != maps.shape:
                raise ConstructionError(
                    f"derivative stack has shape {derivs.shape}, "
                    f"expected {maps.shape}")
            derivs = _real_stack(derivs, t, "map derivative")
            derivs.setflags(write=False)
            object.__setattr__(self, "derivatives", derivs)

    @property
    def dim(self) -> int:
        return math.isqrt(self.maps.shape[1])

    @cached_property
    def spacing(self) -> float:
        return grid_spacing(self.times)

    @property
    def derivative_source(self) -> str:
        return "analytic" if self.derivatives is not None else "finite_difference"

    @cached_property
    def condition_numbers(self) -> np.ndarray:
        """2-norm condition number of every map, one batched call."""
        return np.linalg.cond(self.maps)

    @cached_property
    def _inverse_stack(self) -> np.ndarray:
        inv = np.linalg.inv(self.maps)
        inv.setflags(write=False)
        return inv

    def inverses(self, cond_threshold: float = COND_THRESHOLD_DEFAULT,
                 ) -> np.ndarray:
        """Phi_t^{-1} at every grid point (one batched inverse); SingularMap
        at the first time whose condition number exceeds cond_threshold."""
        require_invertible(self.condition_numbers, cond_threshold, self.times)
        return self._inverse_stack


def map_derivatives(traj: MapTrajectory, lo: int = 0,
                    hi: int | None = None) -> np.ndarray:
    """dPhi/dt at grid rows lo .. hi-1 (all rows by default): the supplied
    analytic derivatives when the trajectory carries them, otherwise
    second-order finite differences (`stencil_derivative`) on the window of
    maps that the stencils of those rows read."""
    if traj.derivatives is not None:
        return traj.derivatives[lo:hi]
    n1 = traj.times.size
    hi = n1 if hi is None else hi
    # one neighbour on each side, and the grid ends where the rows reach them
    a, b = max(0, min(lo - 1, n1 - 3)), min(n1, max(hi + 1, 3))
    return stencil_derivative(traj.maps[a:b], traj.spacing)[lo - a:hi - a]


def generator_splits(traj: MapTrajectory,
                     cond_threshold: float = COND_THRESHOLD_DEFAULT,
                     ) -> np.ndarray:
    """Effective Hamiltonians of the minimal-dissipation split at every grid
    point, as their real basis coordinates Tr{B_a K(t)}: one (N+1, d^2) array.

    The double-commutator formula is linear in the real basis matrix of
    L = dPhi/dt Phi^{-1}: one product with `operators._split_table` gives
    K's coordinates. L exists only in `stack_blocks`; the dissipator is
    never formed. The per-point reference is
    `minimal_dissipation_split(generator_at(...))` in `tests/reference.py`.
    """
    inv = traj.inverses(cond_threshold)
    d = traj.dim
    k = np.empty((traj.times.size, d * d))
    for blk in stack_blocks(traj.times.size, d * d):
        L = map_derivatives(traj, blk.start, blk.stop) @ inv[blk]
        k[blk] = L.reshape(-1, d ** 4) @ _split_table(d)
    return k


def condition_flags(conds: np.ndarray,
                    cond_threshold: float = COND_THRESHOLD_DEFAULT,
                    ) -> list[str]:
    """Classify a condition-number series: "ok", "spike" or "singular".

    "singular" marks maps above the inversion threshold. "spike" marks
    isolated near-singular times: an interior point whose condition number
    exceeds both neighbors by SPIKE_FACTOR and sits above SPIKE_FLOOR
    (resonant models lose invertibility at isolated instants, which shows up
    as exactly this pattern).
    """
    conds = np.asarray(conds, dtype=float)
    spike = np.zeros(conds.shape, dtype=bool)
    c = conds[1:-1]
    spike[1:-1] = ((c > SPIKE_FLOOR) & (c > SPIKE_FACTOR * conds[:-2])
                   & (c > SPIKE_FACTOR * conds[2:]))
    singular = ~np.isfinite(conds) | (conds > cond_threshold)
    return np.where(singular, "singular",
                    np.where(spike, "spike", "ok")).tolist()


def invertibility_report(traj: MapTrajectory,
                         cond_threshold: float = COND_THRESHOLD_DEFAULT,
                         ) -> tuple[np.ndarray, list[str]]:
    """Condition number of every grid map and its condition_flags flag."""
    conds = traj.condition_numbers
    return conds, condition_flags(conds, cond_threshold)


# Text import/export. One header block, then one CSV row per grid time with
# the full vectorized map (and optionally its derivative) in row-major order.

_FORMAT_TAG = "mapthermo-maps v1"
_U64 = np.uint64
_ASCII = _U64(0x3030303030303030)


def save_map_trajectory(traj: MapTrajectory, path: str) -> None:
    """Write a trajectory to the documented text format.

    Header lines start with '#': a format tag, then
    "dim=<d> vectorization=column-stacking derivatives=<0|1>". Each data row
    holds the time followed by re,im pairs of the d^2 x d^2 column-stacked
    superoperator matrix (`operators.column_stacked` of the map) in
    row-major order, then the same for the derivative when present. Floats
    are written with 17 significant digits, so the file holds those
    matrices exactly; loading changes basis back, within a few ulps (the
    identity at t = 0 exactly, see `operators.basis_maps`).
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
# the dropped bits are within 2 of 0x400. Other cells, such cells and, where
# np.longdouble is not the x87 format, all cells go to float().

_CELL = 22          # bytes of an unsigned canonical cell
_MAX_Q = 27         # 5^27 < 2^64: 10^q is exact for |q| <= 27
_POW10 = np.cumprod(np.full(_MAX_Q + 1, 10, np.longdouble)) / 10
_READ_BUFFER = 1 << 19   # bytes buffered, several data rows of a d = 6 file
_BLOCK_CELLS = 1 << 14   # cells per block of rows the reader parses at a
                         # time: its temporaries stay in cache

# whether np.longdouble is the x87 format the kernel relies on: a 64-bit
# significand, stored first in 16 bytes, and exact products (of 64 bits)
_EXACT = (np.finfo(np.longdouble).nmant == 63
          and np.dtype(np.longdouble).itemsize == 16
          and int((np.array([2**32 + 1], np.longdouble) * (2**31 + 1))
                  .view(_U64)[0]) == (2**32 + 1) * (2**31 + 1))


def _canonical_cells(data: bytes, starts: np.ndarray,
                     ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of the cells data[starts:ends] and the indices of those not
    read exactly, which hold garbage. Needs `_EXACT` and 32 bytes of data."""
    neg = ends - starts == _CELL + 1
    # 32 bytes from 6 before the first digit, where they lie in the data, as
    # words "_____-d." "dddddddd" "dddddddd" "e+dd____", the "-" if signed
    at = starts + neg - 6
    ok = (ends - starts == _CELL + neg) & (at >= 0) & (at <= len(data) - 32)
    w = np.ndarray((len(data) - 31,), "V32", buffer=data, strides=(1,))[
        np.clip(at, 0, len(data) - 32)].view(_U64).reshape(-1, 4).T.copy()
    lead = w[0] >> _U64(48)                    # "d."
    tag = (w[3] & _U64(0xFFFF)) | _U64(0x20)   # "e+" or "e-", "E" as "e"
    ok &= ((lead - _U64(0x2E30) <= _U64(9))
           & (~neg | ((w[0] >> _U64(40)) & _U64(0xFF) == ord("-")))
           & ((tag == _U64(0x2B65)) | (tag == _U64(0x2D65))))
    # the 16 digits, then the exponent's as "000000dd", less "0": all are
    # digits where no byte borrows or tops 9, so adding 0x76 sets no top bit
    w[3] = ((w[3] << _U64(32)) & _U64(0xFFFF << 48)) | _U64(0x303030303030)
    w = w[1:] - _ASCII
    ok &= (((w | (w + _U64(0x7676767676767676)))
            & _U64(0x8080808080808080)) == 0).all(axis=0)
    # each word's number (first digit in the lowest byte): pairs, quads, all
    w = (w * _U64(10 * 256 + 1)) >> _U64(8)
    w = ((w & _U64(0x00FF00FF00FF00FF)) * _U64(100 * 65536 + 1)) >> _U64(16)
    w = ((w & _U64(0x0000FFFF0000FFFF)) * _U64(10000 * 2**32 + 1)) >> _U64(32)
    q = np.where(tag == _U64(0x2D65), -1, 1) * w[2].astype(np.int64) - 16
    aq = np.abs(q)
    ok &= aq <= 2 * _MAX_Q
    w = ((lead & _U64(0xF)) * _U64(10**16) + w[0] * _U64(10**8)
         + w[1]).astype(np.longdouble)   # the 17 digits, M
    r = w / _POW10[np.minimum(aq, _MAX_Q)]   # q < 0 in most cells
    up = np.flatnonzero(q > 0)
    r[up] = w[up] * _POW10[np.minimum(aq[up], _MAX_Q)]
    far = np.flatnonzero(ok & (aq > _MAX_Q))   # the second step
    scale = _POW10[aq[far] - _MAX_Q]
    r[far] = np.where(q[far] < 0, r[far] / scale, r[far] * scale)
    w = r.view(_U64)[0::2] & _U64(0x7FF)   # the bits the cast drops
    ok &= w != _U64(0x400)
    ok[far] &= np.abs(w[far].astype(np.int64) - 0x400) > 2
    return r.astype(np.float64) * np.where(neg, -1.0, 1.0), np.flatnonzero(~ok)


def _read_rows(path: str, lineno: int, data: bytes, a: int, b: int,
               cols: int) -> np.ndarray:
    """The lines data[a:b] from line `lineno` on as a (rows, cols) array,
    each cell read as float() reads it; ConstructionError names the first
    row with other columns, a cell float() refuses or a value that is not
    finite, whichever row comes first. The kernel (about 0.2 of float()'s
    time) runs where the cells average a written cell's width; float()
    reads the cells it leaves one by one (1.5 times their share) if they
    are at most two thirds, else all."""
    buf = np.frombuffer(data, np.uint8, b - a, a)
    ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    rows = np.flatnonzero(buf[ends] == ord("\n"))   # the cells ending rows
    n = ends.size
    if n != rows.size * cols or np.any(rows % cols != cols - 1):
        got = np.diff(rows, prepend=-1)
        r = np.flatnonzero(got != cols)[0]
        if r:   # a fault in a row before it comes first
            _read_rows(path, lineno, data, a, a + ends[rows[r - 1]] + 1, cols)
        raise ConstructionError(f"{path}:{lineno + r}: expected {cols} "
                                f"columns, got {got[r]}")
    ends += a
    starts = np.concatenate(([a], ends[:-1] + 1))
    bad = ends   # every cell, where the kernel does not run
    if _EXACT and len(data) >= 32 and 22 * n <= b - a <= 25 * n:
        vals, bad = _canonical_cells(data, starts, ends)
    try:
        if 3 * bad.size <= 2 * n:
            vals[bad] = [float(data[s:e].decode()) for s, e in
                         zip(starts[bad].tolist(), ends[bad].tolist())]
        else:
            text = data[a:b - 1].decode().replace("\n", ",")
            vals = np.fromiter(map(float, text.split(",")), np.float64, n)
    except ValueError:   # UnicodeDecodeError included
        if rows.size == 1:
            raise ConstructionError(f"{path}:{lineno}: row is not "
                                    "comma-separated numbers") from None
        for r, end in enumerate((ends[rows] + 1).tolist()):
            _read_rows(path, lineno + r, data, a, end, cols)
            a = end
        raise
    vals = vals.reshape(-1, cols)
    bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))
    if bad.size:
        raise ConstructionError(f"{path}:{lineno + bad[0]}: row holds a "
                                "value that is not finite")
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


def _data_rows(path: str, header: dict):
    """The data rows of a map file as (lineno, rows, data, a, b): `rows`
    lines data[a:b] from line `lineno` on, the header (and at the end the
    line count, "lines") read into `header`. Blocks of whole lines of
    16 * _BLOCK_CELLS bytes or more are read at a time; lines end as in
    text mode, and runs of rows starting with a digit or '-' go whole."""
    lineno, seen = 0, False
    with open(path, "rb", buffering=_READ_BUFFER) as fh:
        while lines := fh.readlines(16 * _BLOCK_CELLS):
            data = b"".join(lines)
            if b"\r" in data or not data.endswith(b"\n"):
                data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                data += b"\n" * (data[-1:] != b"\n")
                lines = data.splitlines(True)
            ends = list(itertools.accumulate(map(len, lines)))
            del lines   # as large as data, and not needed while it is read
            starts = [0, *ends[:-1]]
            head = np.frombuffer(data, np.uint8)[starts]
            plain = (head - ord("0") <= 9) | (head == ord("-"))
            plain[0] &= lineno > 0
            runs = [0, *(np.diff(plain).nonzero()[0] + 1).tolist(), len(ends)]
            for i, j in zip(runs, runs[1:]):   # lines i..j-1, all plain or not
                if plain[i]:
                    yield lineno + 1, j - i, data, starts[i], ends[j - 1]
                    lineno, seen = lineno + j - i, True
                for s, e in [] if plain[i] else zip(starts[i:j], ends[i:j]):
                    lineno += 1
                    if _header_line(path, lineno, data[s:e], header, seen):
                        yield lineno, 1, data, s, e
                        seen = True
    header["lines"] = lineno


def read_map_file(path: str) -> tuple[np.ndarray, np.ndarray,
                                      np.ndarray | None]:
    """Parse the text format into the times and (n, d^2, d^2) stacks of maps
    and (when present) derivatives, without validating a trajectory, for
    diagnostics on imperfect files. One pass parses each run of rows into
    stacks sized by the first run (or one they cannot hold), plus an
    eighth: in `repr` spellings the early rows can be longer than the
    file's average (by 7 % in a d = 2 GKSL file). The stacks are cut to
    their rows in place at the end, and the pages past the last row are
    never written. A run of several rows is sized by its rows after the
    first: the t = 0 row often spells the identity map in short cells."""
    header, n, stacks, left = {}, 0, [np.empty(0)], os.path.getsize(path)
    for lineno, rows, data, a, b in _data_rows(path, header):
        if "dim" not in header:
            raise ConstructionError(
                f"{path}:{lineno}: data row before the dim header line")
        d2, has_d, left = header["dim"] ** 2, header["has_d"], left - (b - a)
        cells = 2 * d2 * d2   # of a map, and of its derivative
        vals = _read_rows(path, lineno, data, a, b, 1 + cells * (1 + has_d))
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
    file does; every message starts with the path and the line of the
    first row at fault."""
    times, maps, derivs = read_map_file(path)
    try:
        return MapTrajectory(times=times,
                             maps=basis_maps(maps, dynamical=True),
                             derivatives=None if derivs is None
                             else basis_maps(derivs))
    except ConstructionError as exc:
        row, why = exc.index, exc
    except ValueError as exc:   # the grid checks of quadrature.grid_spacing
        row, why = grid_fault(times)[0], exc
    raise ConstructionError(f"{path}:{data_row_line(path, row)}: {why}")
