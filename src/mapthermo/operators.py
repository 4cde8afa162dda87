"""Dense linear algebra for small Hilbert spaces.

Operators are plain numpy arrays: real coordinates in a Hermitian basis
(below), as observables and maps are stored, or complex (..., d, d) stacks
for spectra; d stays small (d <= ~64). `hermitian_stack` and `_state_stack`
check a caller's stack once, where it enters, and return it symmetrized;
nothing wraps or re-checks the library's own intermediates. Maps are real
basis matrices here; their column-stacked form is `dynamics`' alone.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import ConstructionError, SingularMap

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-10
HP_CHECK_TOL = 1e-10
COND_THRESHOLD_DEFAULT = 1e12


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _label(times, k: int) -> str:
    return "" if times is None else f" at t = {times[k]:.6g}"


_STACK_BLOCK_ELEMENTS = 1 << 16


def stack_blocks(n: int, side: int) -> list[slice]:
    """Slices covering n stacked side x side matrices in blocks of at most
    _STACK_BLOCK_ELEMENTS elements (at least one matrix each), so temporaries
    of whole-grid superoperator work stay about 1 MB each at any d."""
    step = max(1, _STACK_BLOCK_ELEMENTS // (side * side))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def hermitian_stack(a: np.ndarray, tol: float, times=None,
                    what="operator") -> np.ndarray:
    """Symmetrize a (n, d, d) stack, rejecting any matrix that holds a
    value that is not finite or lies further than `tol` (relative to its
    largest entry, floor 1) from Hermitian; the error names the first
    failing matrix k as `what` (or `what(k)`), by its time when `times` is
    given. A stack of any other shape is rejected too."""
    a = np.asarray(a)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ConstructionError(f"expected a (n, d, d) stack, got {a.shape}")
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    with np.errstate(invalid="ignore"):   # NaN where a value is not finite
        dev = np.abs(a - dagger(a)).max(axis=(-2, -1)) + 0.0 * scale
    bad = np.flatnonzero(~(dev <= tol * scale))
    if bad.size:
        k = bad[0]
        name = what(k) if callable(what) else what
        raise ConstructionError(f"{name}{_label(times, k)} " + (
            "holds a value that is not finite" if not np.isfinite(a[k]).all()
            else f"is not Hermitian: max |A - A^dagger| = {dev[k]:.3e} "
                 f"(allowed {tol * scale[k]:.3e})"))
    return 0.5 * (a + dagger(a))


def _state_stack(a: np.ndarray, times=None, what="state") -> np.ndarray:
    """`hermitian_stack` of a (n, d, d) stack of states, also rejecting any
    matrix whose trace is off 1 by more than TRACE_TOL or whose lowest
    eigenvalue is below -POSITIVITY_TOL; the error names the first failing
    matrix as `hermitian_stack` does."""
    a = hermitian_stack(a, HERMITICITY_TOL, times, what)
    trace_dev = np.abs(np.einsum("nii->n", a) - 1.0)
    low = np.linalg.eigvalsh(a)[:, 0]
    bad = np.flatnonzero(~(trace_dev <= TRACE_TOL) | ~(low >= -POSITIVITY_TOL))
    if bad.size:
        k = bad[0]
        name = what(k) if callable(what) else what
        raise ConstructionError(
            f"{name}{_label(times, k)} is not a state: trace deviation "
            f"{trace_dev[k]:.3e} (allowed {TRACE_TOL:g}), lowest eigenvalue "
            f"{low[k]:.3e} (allowed -{POSITIVITY_TOL:g})")
    return a


def _gibbs_weights(vals: np.ndarray, beta: float) -> np.ndarray:
    """Gibbs populations of spectra, each shifted so that none overflows."""
    w = np.exp(-beta * (vals - vals.min(axis=-1, keepdims=True)))
    return w / w.sum(axis=-1, keepdims=True)


def _gibbs_stack(vals: np.ndarray, vecs: np.ndarray, beta,
                 times=None) -> np.ndarray:
    """e^{-beta X} / Tr{e^{-beta X}} of a stack of spectral decompositions
    of X, checked by `_state_stack`; `beta` is one value or a 1-d array
    broadcast against the rows, and the error names the failing row's."""
    beta = np.asarray(beta, dtype=float)
    w = _gibbs_weights(vals, beta[..., None])
    betas = np.broadcast_to(beta, w.shape[:1])
    return _state_stack((vecs * w[:, None, :]) @ dagger(vecs), times,
                        lambda k: f"Gibbs state (beta = {betas[k]:.6g})")


def _boltzmann(vals: np.ndarray, beta, times=None,
               what: str = "X") -> np.ndarray:
    """e^{-beta x} of a stack of spectra of X, for one beta or, on a leading
    axis, each of a 1-d array; a ConstructionError names the first beta that
    overflows and its first bad row, by its time when `times` is given."""
    beta = np.asarray(beta, dtype=float)
    with np.errstate(over="ignore"):
        f = np.exp(-beta[..., None, None] * vals)
    bad = np.argwhere(~np.all(np.isfinite(f), axis=-1))
    if bad.size:
        *j, k = bad[0]
        raise ConstructionError(
            f"e^(-beta {what}) is undefined{_label(times, k)}, "
            f"beta = {beta[tuple(j)]:.6g}: eigenvalues {vals[k]}")
    return f


def _exp_stack(vals: np.ndarray, vecs: np.ndarray, beta: float,
               times=None, what: str = "X") -> np.ndarray:
    """e^{-beta X} of a stack of spectral decompositions of X, symmetrized."""
    m = (vecs * _boltzmann(vals, beta, times, what)[:, None, :]) @ dagger(vecs)
    return 0.5 * (m + dagger(m))


def _projectors(vecs: np.ndarray) -> np.ndarray:
    """Basis coordinates (n, d, d^2) of the projectors |k><k| onto the
    eigenvector columns of a (n, d, d) stack, one real product for all:
    <k|A|k> = sum_a c_a(|k><k|) x_a for a Hermitian A of coordinates x."""
    cols = vecs.swapaxes(1, 2)  # row k holds |k>
    return coordinates(cols[..., :, None] * cols.conj()[..., None, :])


def require_invertible(conds: np.ndarray, cond_threshold: float, times=None,
                       what: str = "map") -> None:
    """Raise SingularMap at the first condition number that is not finite or
    exceeds the threshold, carrying its time when `times` is given."""
    conds = np.asarray(conds, dtype=float)
    bad = np.flatnonzero(~np.isfinite(conds) | (conds > cond_threshold))
    if bad.size == 0:
        return
    k = bad[0]
    cond = float(conds[k])
    raise SingularMap(
        f"{what}{_label(times, k)} is numerically singular: cond = "
        f"{cond:.3e} exceeds threshold {cond_threshold:.3e}",
        time=None if times is None else float(times[k]),
        condition_number=cond)


def adjoint_apply_stack(maps: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Coordinates of S_t^dagger[A_t] for a (n, d^2, d^2) stack of real
    basis map matrices R_t and the (n, d^2) coordinates x_t of A_t: R_t^T x_t,
    formed as x_t^T R_t without copying the maps."""
    return (x[:, None, :] @ maps)[:, 0]



# Pauli matrices in the order (identity, sigma_x, sigma_y, sigma_z).

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


# The Hermitian operator basis B_a: 1/sqrt(d), (|j><k| + |k><j|)/sqrt(2)
# and (i|k><j| - i|j><k|)/sqrt(2) for each j < k, then for l = 1 .. d-1
# (|0><0| + ... + |l-1><l-1| - l|l><l|)/sqrt(l(l+1)); for d = 2, PAULI over
# sqrt(2). A Hermitian X has the real coordinates x_a = Tr{B_a X}, and a
# map that preserves Hermiticity the real matrix R_ab = Tr{B_a S[B_b]} (for
# d = 2 the Pauli transfer matrix), with R^T that of S^dagger.


@cache
def hermitian_basis(d: int) -> np.ndarray:
    """The basis as a read-only (d^2, d, d) complex stack."""
    b = np.zeros((d * d, d, d), dtype=complex)
    b[0] = np.eye(d) / math.sqrt(d)
    j, k = np.triu_indices(d, 1)
    sym = np.arange(1, j.size + 1)
    b[sym, j, k] = b[sym, k, j] = 1 / math.sqrt(2)
    b[sym + j.size, j, k] = -1j / math.sqrt(2)
    b[sym + j.size, k, j] = 1j / math.sqrt(2)
    for l in range(1, d):
        diag = np.append(np.ones(l), -l) / math.sqrt(l * (l + 1))
        b[d * d - d + l, np.arange(l + 1), np.arange(l + 1)] = diag
    b.setflags(write=False)
    return b


@cache
def _coordinate_tables(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The real tables of `coordinates` and `from_coordinates` on re, im
    pairs: x_a = Re sum_ij conj(B_a[i, j]) X[i, j], X = sum_a x_a B_a."""
    flat = hermitian_basis(d).reshape(d * d, d * d)
    to = np.stack([flat.real.T, flat.imag.T], axis=1).reshape(2 * d * d, -1)
    return to, np.ascontiguousarray(flat).view(float)


def coordinates(ops: np.ndarray) -> np.ndarray:
    """Real basis coordinates (..., d^2) of Hermitian matrices (..., d, d)."""
    ops = np.ascontiguousarray(ops, dtype=complex)
    d = ops.shape[-1]
    x = ops.reshape(-1, d * d).view(float) @ _coordinate_tables(d)[0]
    return x.reshape(*ops.shape[:-2], d * d)


def from_coordinates(x: np.ndarray) -> np.ndarray:
    """Hermitian matrices (..., d, d) of real basis coordinates (..., d^2),
    exactly; `einsum` sums each entry in one order, so a row converts to
    the same bits alone as in a stack (a BLAS product need not)."""
    x = np.asarray(x, dtype=float)
    d = math.isqrt(x.shape[-1])
    m = np.einsum("na,ab->nb", x.reshape(-1, d * d), _coordinate_tables(d)[1])
    return m.view(complex).reshape(*x.shape[:-1], d, d)



@cache
def _split_table(d: int) -> np.ndarray:
    """The real (d^4, d^2) table T with L.reshape(-1, d^4) @ T the
    coordinates of K = (1/2id) sum_ab L_ba [B_a, B_b] for basis matrices L:
    (1/2id) sum_jk [|j><k|, L[|k><j|]], as sum_jk |j><k| (x) |k><j| is that
    sum over any orthonormal basis."""
    b, n = hermitian_basis(d), d * d
    # (B_a B_b)[i, k] at [a, b, i, k], then Tr{B_c B_a B_b} at [a, b, c]
    prod = (b.reshape(n * d, d) @ b.swapaxes(0, 1).reshape(d, n * d)).reshape(
        n, d, n, d).swapaxes(1, 2)
    f = (prod.reshape(n * n, n) @ b.reshape(n, n).conj().T).reshape(n, n, n)
    return (f.swapaxes(0, 1) - f).imag.reshape(n * n, n) / (2 * d)
