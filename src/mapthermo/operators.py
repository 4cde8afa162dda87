"""Dense linear algebra for small Hilbert spaces.

Hermitian operators, density matrices, spectral calculus, and superoperators
in the vectorized (Liouville) representation. Everything is plain numpy on
d x d and d^2 x d^2 complex arrays; dimensions stay small (d <= ~64) so no
sparsity or structure exploitation is attempted.

Vectorization convention (fixed globally, never changed)
--------------------------------------------------------
Operators are vectorized by column stacking: vec(A)[i + d*j] = A[i, j], i.e.
``A.reshape(-1, order="F")``. Consequences used throughout:

* vec(A X B) = (B^T kron A) vec(X)
* a Kraus map X -> sum_k M_k X M_k^dagger has matrix sum_k conj(M_k) kron M_k
* the Hilbert-Schmidt inner product Tr{A^dagger B} equals vec(A)^dagger vec(B),
  so the HS adjoint of a superoperator is the conjugate transpose of its
  matrix.

The Choi matrix convention is fixed by `cptp_diagnostics_stack` below: C =
(1/d) * reshuffle(S), normalized so that a trace-preserving map has Tr{C} = 1
and the identity map gives a rank-one C with eigenvalues {1, 0, ..., 0} (so
its minimum Choi eigenvalue is 0, not 1/d).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConstructionError, SingularMap

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-10
HP_CHECK_TOL = 1e-10
COND_THRESHOLD_DEFAULT = 1e12


def _as_square_complex(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConstructionError(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A d x d complex Hermitian matrix.

    Inputs within 1e-12 of Hermitian (scaled by the matrix norm) are
    symmetrized on construction; anything worse is rejected. Quadrature and
    repeated map application accumulate tiny anti-Hermitian noise, which the
    symmetrization absorbs without hiding genuine errors. The matrix is
    read-only, so its spectral decomposition (`eig_hermitian`) is computed
    once per operator.
    """

    matrix: np.ndarray

    def __post_init__(self):
        a = _as_square_complex(self.matrix)
        sym = hermitian_stack(a[None], HERMITICITY_TOL, what="matrix")[0]
        sym.setflags(write=False)
        object.__setattr__(self, "matrix", sym)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        vals, vecs = np.linalg.eigh(self.matrix)
        vals.setflags(write=False)
        vecs.setflags(write=False)
        return vals, vecs

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        return HermitianOperator(self.matrix - other.matrix)

    def expectation(self, rho: "DensityMatrix") -> float:
        return float(np.trace(self.matrix @ rho.matrix).real)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A valid quantum state: Hermitian, unit trace, positive semidefinite
    (minimum eigenvalue >= -1e-10 to tolerate roundoff)."""

    matrix: np.ndarray

    def __post_init__(self):
        a = _state_stack(_as_square_complex(self.matrix)[None])[0]
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)

    @classmethod
    def _checked(cls, a: np.ndarray) -> "DensityMatrix":
        """The state `a`, already checked by `_state_stack`, without a
        second check."""
        rho = object.__new__(cls)
        a.setflags(write=False)
        object.__setattr__(rho, "matrix", a)
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(a, dtype=complex).reshape(-1, order="F")


@dataclass(frozen=True, eq=False)
class Superoperator:
    """A linear map on operators, stored as its d^2 x d^2 matrix in the
    column-stacking convention.

    Construction checks Hermiticity preservation and projects onto it
    (`project_hermiticity_preserving`); physical maps, generators,
    dissipators, adjoints, inverses and their compositions all satisfy
    this. The `trace_preserving` flag is advisory: when set, Tr{S[A]} =
    Tr{A} is verified on construction to 1e-10.
    """

    matrix: np.ndarray
    trace_preserving: bool = False

    def __post_init__(self):
        m = _as_square_complex(self.matrix)
        projected = project_hermiticity_preserving(m[None])[0]
        if self.trace_preserving:
            ident = vec(np.eye(int(round(np.sqrt(m.shape[0])))))
            tp_dev = float(np.max(np.abs(m.conj().T @ ident - ident)))
            scale = max(1.0, float(np.max(np.abs(m))))
            if tp_dev > HP_CHECK_TOL * scale:
                raise ConstructionError(
                    f"flagged trace-preserving but residual is {tp_dev:.3e}")
        projected.setflags(write=False)
        object.__setattr__(self, "matrix", projected)

    @property
    def dim(self) -> int:
        """Hilbert-space dimension d (matrix side is d^2)."""
        return int(round(np.sqrt(self.matrix.shape[0])))


def _reshuffle(m: np.ndarray, d: int) -> np.ndarray:
    """Row-reshuffle of a stack of d^2 x d^2 matrices (unnormalized Choi
    rearrangement for the column-stacking convention)."""
    return m.reshape(-1, d, d, d, d).transpose(0, 4, 2, 3, 1).reshape(
        -1, d * d, d * d)


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


def hermiticity_preservation(m: np.ndarray,
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hermiticity preservation of a (n, d^2, d^2) stack of superoperator
    matrices, without raising: the Choi deviation of each matrix (the
    largest entry of R - R^dagger for its reshuffle R), the deviation it is
    allowed (HP_CHECK_TOL relative to its largest entry, floor 1), and the
    projection that symmetrizes the rearrangement, mirroring the Hermitian
    repair on operators; a projected matrix comes back bit-identical."""
    d = int(round(np.sqrt(m.shape[-1])))
    if d * d != m.shape[-1]:
        raise ConstructionError(
            f"superoperator side {m.shape[-1]} is not a perfect square")
    out = np.empty(m.shape, dtype=complex)
    dev = np.empty(m.shape[0])
    allowed = np.empty(m.shape[0])
    for blk in stack_blocks(m.shape[0], d * d):
        allowed[blk] = HP_CHECK_TOL * np.maximum(
            1.0, np.abs(m[blk]).max(axis=(-2, -1)))
        # R -/+ R^dagger holds S[ij, kl] -/+ conj(S[ji, lk]) where R holds
        # S[ij, kl]: compared and averaged in place, with no reshuffle
        s = m[blk].reshape(-1, d, d, d, d)
        swapped = s.transpose(0, 2, 1, 4, 3).conj()
        dev[blk] = np.abs(s - swapped).max(axis=(1, 2, 3, 4))
        np.multiply(0.5, s + swapped, out=out[blk].reshape(s.shape))
    return dev, allowed, out


def project_hermiticity_preserving(m: np.ndarray, times=None,
                                   what: str = "superoperator") -> np.ndarray:
    """The projection of `hermiticity_preservation`, after checking that no
    matrix of the stack deviates by more than it is allowed. The error
    names the first failing matrix, by its time when `times` is given, and
    carries its index."""
    dev, allowed, out = hermiticity_preservation(m)
    bad = np.flatnonzero(dev > allowed)
    if bad.size:
        k = bad[0]
        raise ConstructionError(
            f"{what}{_label(times, k)} is not Hermiticity-preserving: "
            f"Choi deviation {dev[k]:.3e} (allowed {allowed[k]:.3e})",
            index=int(k))
    return out


def hermitian_stack(a: np.ndarray, tol: float, times=None,
                    what="operator") -> np.ndarray:
    """Symmetrize a (n, d, d) stack, rejecting any matrix further than
    `tol` (relative to its largest entry, floor 1) from Hermitian; the error
    names the first failing matrix k as `what` (or `what(k)`), by its time
    when `times` is given."""
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    dev = np.abs(a - dagger(a)).max(axis=(-2, -1))
    bad = np.flatnonzero(dev > tol * scale)
    if bad.size:
        k = bad[0]
        name = what(k) if callable(what) else what
        raise ConstructionError(
            f"{name}{_label(times, k)} is not Hermitian: max |A - A^dagger| "
            f"= {dev[k]:.3e} (allowed {tol * scale[k]:.3e})")
    return 0.5 * (a + dagger(a))


def _state_stack(a: np.ndarray, times=None, what="state") -> np.ndarray:
    """`hermitian_stack` of a (n, d, d) stack of states, also rejecting any
    matrix whose trace is off 1 by more than TRACE_TOL or whose lowest
    eigenvalue is below -POSITIVITY_TOL; the error names the first failing
    matrix as `hermitian_stack` does."""
    a = hermitian_stack(a, HERMITICITY_TOL, times, what)
    trace_dev = np.abs(np.einsum("nii->n", a) - 1.0)
    low = np.linalg.eigvalsh(a)[:, 0]
    bad = np.flatnonzero((trace_dev > TRACE_TOL) | (low < -POSITIVITY_TOL))
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


def _diagonals(vecs: np.ndarray, vec_ops: np.ndarray) -> np.ndarray:
    """Re <k|A_j|k> as (n, d, m), |k> the eigenvector columns of a (n, d, d)
    stack: rows vec(|k><k|)^dagger times the (n, d^2, m) stack vec(A_j)."""
    cols = vecs.swapaxes(1, 2)  # row entry (k, b, a) is conj(V_ak) V_bk
    return ((cols.conj()[:, :, None] * cols[..., None]).reshape(
        *cols.shape[:2], -1) @ vec_ops).real


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


def adjoint_apply_stack(maps: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """S_t^dagger[A_t] for a (n, d^2, d^2) stack of superoperator matrices
    and a (n, d, d) stack of operators, without copying the maps."""
    n, d = ops.shape[0], ops.shape[-1]
    v = ops.swapaxes(-1, -2).reshape(n, 1, d * d)
    # (v^dagger S)^dagger = S^dagger v, one row-vector product per map
    return (v.conj() @ maps).conj().reshape(n, d, d).swapaxes(-1, -2)


def commutator_superop(h: np.ndarray) -> np.ndarray:
    """Matrix of X -> [H, X] in the vectorized convention (raw ndarray)."""
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    return np.kron(np.eye(d), h) - np.kron(h.T, np.eye(d))


def eig_hermitian(h: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvector columns, as
    read-only arrays computed on the first call for `h`."""
    return h._spectrum


def gibbs_state(h: HermitianOperator, beta: float) -> DensityMatrix:
    """e^{-beta H} / Tr{e^{-beta H}}: `_gibbs_stack` of one operator,
    whose state check is the only one."""
    vals, vecs = eig_hermitian(h)
    return DensityMatrix._checked(_gibbs_stack(vals[None], vecs[None], beta)[0])


def partition_function(h: HermitianOperator, beta: float) -> float:
    vals, _ = eig_hermitian(h)
    return float(np.sum(np.exp(-beta * vals)))


@dataclass(frozen=True)
class CPTPReport:
    trace_preserving_residual: float
    choi_min_eigenvalue: float
    unital_residual: float
    hermiticity_residual: float = field(default=0.0)


def cptp_diagnostics_stack(m: np.ndarray) -> CPTPReport:
    """Diagnostics of every matrix of a (n, d^2, d^2) stack, as one report
    whose fields are (n,) arrays. Never raises: the TP residual, the minimum
    Choi eigenvalue (negative values are legal for generator-level
    intermediate maps and are reported, not rejected), the unitality
    residual, and the Choi Hermiticity residual."""
    d = int(round(np.sqrt(m.shape[-1])))
    ident = vec(np.eye(d))
    tp, unital, herm, cmin = (np.empty(m.shape[0]) for _ in range(4))
    for blk in stack_blocks(m.shape[0], d * d):
        tp[blk] = np.abs(dagger(m[blk]) @ ident - ident).max(axis=-1)
        unital[blk] = np.abs(m[blk] @ ident - ident).max(axis=-1)
        c = _reshuffle(m[blk], d) / d
        herm[blk] = np.abs(c - dagger(c)).max(axis=(-2, -1))
        cmin[blk] = np.linalg.eigvalsh(0.5 * (c + dagger(c)))[:, 0]
    return CPTPReport(trace_preserving_residual=tp, choi_min_eigenvalue=cmin,
                      unital_residual=unital, hermiticity_residual=herm)


# Pauli matrices and the qubit transfer-matrix basis change. PAULI order is
# (identity, sigma_x, sigma_y, sigma_z); transfer matrices R act on Bloch
# coefficient vectors via R_ij = Tr{P_i S[P_j]} / 2.

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


# Row (i, j) of _OUTER is (1/2) vec(P_i) vec(P_j)^dagger, so S = R @ _OUTER
# and R = Re(S @ _OUTER^dagger), flattened: one real product on re/im pairs.
_PAULI_VEC = np.array([vec(p) for p in PAULI])
_OUTER = 0.5 * np.kron(_PAULI_VEC, _PAULI_VEC.conj())
_TO_TRANSFER = np.stack([_OUTER.real.T, _OUTER.imag.T], axis=1).reshape(32, 16)


def superop_to_pauli_transfer(m: np.ndarray) -> np.ndarray:
    """Real transfer matrices of a stack (..., 4, 4) of qubit superoperator
    matrices."""
    m = np.ascontiguousarray(m, dtype=complex)
    return (m.reshape(-1, 16).view(float) @ _TO_TRANSFER).reshape(m.shape)


def pauli_transfer_to_superop(r: np.ndarray) -> np.ndarray:
    """Superoperator matrices of a stack (..., 4, 4) of real transfer
    matrices; the inverse of `superop_to_pauli_transfer`."""
    r = np.asarray(r, dtype=float)
    return (r.reshape(-1, 16) @ _OUTER.view(float)).view(complex).reshape(
        r.shape)


def random_hermitian(dim: int, rng: np.random.Generator) -> HermitianOperator:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(0.5 * (a + a.conj().T))
