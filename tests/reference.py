"""Reference implementations that the tests compare the library against.

The library computes every quantity along one stacked route over the whole
time grid: `generator_splits` -> `ThermoPipeline` -> `fluctuation_table`,
and `coherent_work_fluctuation` for the closed drive. The functions here
compute the same quantities one grid point, one map, one operator or one
closed protocol at a time, the way the formulas read (the exchange-model
level sum one block and grid time at a time), plus the small constructors
(Kraus and conjugation maps, constant rates) that only tests need, the
functions only tests call (`cptp_diagnostics` of one map,
`noneq_free_energy`, and `pc_general_d`, the eigenvalue route of d-level
phase-covariant maps), and the per-row `%` writers that the vectorised
cell-spelling kernel of `dynamics` replaced, the column-stacked
`Superoperator` with the reshuffle form of the Hermiticity-preservation
check (the library keeps maps as real matrices in a Hermitian basis and
checks the imaginary part there), and the
matrix-trace route of the fluctuation table (`matrix_fluctuation_table`:
Gibbs states and exponentials formed as stacks and traced) that the
eigenbasis weighted sums of `fluctuation_table` replaced, `apply` and
`unvec`, one operator through one map, which the library forms only as
stacked products, the two single-measurement conventions of the work and
heat observables (`single_measure_final_work`, `single_measure_initial`),
which the library's one convention reaches through `shifted_observable`,
`one_state_tpms`, the two-point distribution of one state between two
operators, `gibbs_state` and `partition_function` of one Hamiltonian,
and `replace`, a record with some fields changed.
Operators and states are plain (d, d) arrays. Nothing in `src/mapthermo`
calls them. The random states, Hamiltonians and unitaries are those of the
acceptance checks (`mapthermo.validation`), imported here for the other
tests.

The effective Hamiltonian of the minimal-dissipation split of a generator L
on a d-level system is the double-commutator sum

    K = (1/2id) sum_{j,k} [ |j><k| , L[|k><j|] ]

over the computational basis; `minimal_dissipation_split` evaluates it term
by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from mapthermo.coherent import CoherentInitialData, CoherentWorkResult
from mapthermo.dynamics import (_CELL, _EXACT, _FORMAT_TAG, _MAX_Q, _POW10,
                                 _U64, HP_CHECK_TOL, CPTPReport, _reshuffle,
                                 basis_maps, column_stacked,
                                 commutator_superop, cptp_diagnostics_stack,
                                 map_faults)
from mapthermo.errors import ConstructionError
from mapthermo.fluctuations import (FluctuationTable, OutcomeDistribution,
                                    tpms_distribution)
from mapthermo.models import _thermal_weights
from mapthermo.params import JCParams, jc_mode_count
from mapthermo.operators import (
    COND_THRESHOLD_DEFAULT,
    HERMITICITY_TOL,
    _exp_stack,
    _gibbs_stack,
    adjoint_apply_stack,
    coordinates,
    dagger,
    from_coordinates,
    hermitian_stack,
    require_invertible,
)
from mapthermo.observables import shifted_observable
from mapthermo.trajectory import MapTrajectory, map_derivatives
from mapthermo.phase_covariant import (
    PCMapCoefficients,
    PCRates,
    PCThermo,
    constant_rate,
    pc_generator_transfer_matrix,
    pc_transfer_matrices,
)
from mapthermo.quadrature import (cumulative_simpson, grid_spacing,
                                  stencil_derivative)
from mapthermo.records import fields
from mapthermo.validation import (random_density_matrix, random_hermitian,
                                  random_unitary)


# ---------------------------------------------------------------------------
# One operator through one map (`mapthermo.operators`)


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector (the convention of the map files
    and of `dynamics.column_stacked`)."""
    return np.asarray(a, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Inverse of `vec`."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if dim is None:
        dim = int(round(np.sqrt(v.size)))
    if dim * dim != v.size:
        raise ValueError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape((dim, dim), order="F")


@dataclass(frozen=True, eq=False)
class Superoperator:
    """A linear map on operators, stored as its d^2 x d^2 matrix in the
    column-stacking convention.

    Construction checks Hermiticity preservation and projects onto it
    (`hermiticity_preservation_by_reshuffle`); physical maps, generators,
    dissipators, adjoints, inverses and their compositions all satisfy
    this. The `trace_preserving` flag is advisory: when set, Tr{S[A]} =
    Tr{A} is verified on construction to 1e-10.
    """

    matrix: np.ndarray
    trace_preserving: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConstructionError(
                f"expected a square matrix, got shape {m.shape}")
        dev, allowed, projected = hermiticity_preservation_by_reshuffle(
            m[None])
        if dev[0] > allowed[0]:
            raise ConstructionError(
                f"superoperator is not Hermiticity-preserving: Choi "
                f"deviation {dev[0]:.3e} (allowed {allowed[0]:.3e})")
        if self.trace_preserving:
            ident = vec(np.eye(self.dim))
            tp_dev = float(np.max(np.abs(m.conj().T @ ident - ident)))
            scale = max(1.0, float(np.max(np.abs(m))))
            if tp_dev > HP_CHECK_TOL * scale:
                raise ConstructionError(
                    f"flagged trace-preserving but residual is {tp_dev:.3e}")
        projected = projected[0]
        projected.setflags(write=False)
        object.__setattr__(self, "matrix", projected)

    @property
    def dim(self) -> int:
        """Hilbert-space dimension d (matrix side is d^2)."""
        return int(round(np.sqrt(np.shape(self.matrix)[0])))


def map_at(traj: MapTrajectory, i: int) -> Superoperator:
    """The map at grid index i as a column-stacked Superoperator."""
    return Superoperator(column_stacked(traj.maps[i], dynamical=True))


def stacked_trajectory(times, maps, derivatives=None) -> MapTrajectory:
    """A MapTrajectory from column-stacked superoperator stacks, changed to
    the Hermitian basis as `load_map_trajectory` changes a file's; a
    ConstructionError names the first map or derivative (in that order)
    that `map_faults` finds at fault, and carries its index."""
    stacks = [basis_maps(maps, dynamical=True)] + (
        [] if derivatives is None else [basis_maps(derivatives)])
    for (stack, imag), what in zip(stacks, ("map", "map derivative")):
        for k, why in map_faults(stack, imag, times, what).items():
            raise ConstructionError(why, index=k)
    return MapTrajectory(times=times, maps=stacks[0][0],
                         derivatives=stacks[1][0] if stacks[1:] else None)


def real_map(s: Superoperator) -> np.ndarray:
    """The real matrix of a Superoperator in the Hermitian operator basis,
    as `MapTrajectory.maps` holds maps."""
    return basis_maps(s.matrix, dynamical=True)[0]


def apply(s: Superoperator, a: np.ndarray) -> np.ndarray:
    """Apply a superoperator to an operator, returning a raw ndarray."""
    mat = np.asarray(a, dtype=complex)
    if mat.shape != (s.dim, s.dim):
        raise ValueError(f"operator shape {mat.shape} does not match dim {s.dim}")
    return unvec(s.matrix @ vec(mat), s.dim)


# ---------------------------------------------------------------------------
# Per-point generator references (`mapthermo.dynamics`)


def map_derivative(traj: MapTrajectory, i: int) -> np.ndarray:
    """dPhi/dt at grid index i (see `map_derivatives`), column-stacked."""
    return column_stacked(map_derivatives(traj, i, i + 1)[0])


def generator_at(traj: MapTrajectory, i: int,
                 cond_threshold: float = COND_THRESHOLD_DEFAULT) -> Superoperator:
    """Time-local generator L_{t_i} = dPhi/dt * Phi^{-1} at grid index i,
    formed from the real map matrices as the trajectory holds them and
    returned column-stacked.

    The per-point reference for `generator_splits`."""
    r = traj.maps[i]
    require_invertible(np.array([np.linalg.cond(r)]), cond_threshold,
                       [float(traj.times[i])])
    return Superoperator(column_stacked(
        map_derivatives(traj, i, i + 1)[0] @ np.linalg.inv(r)))


@dataclass(frozen=True, eq=False)
class GeneratorSplit:
    """Minimal-dissipation decomposition of a time-local generator:
    L[A] = -i[K, A] + D[A] with K traceless Hermitian."""

    K: np.ndarray
    dissipator: Superoperator
    time: float


def minimal_dissipation_split(L: Superoperator,
                              time: float = 0.0) -> GeneratorSplit:
    """Split a generator into effective Hamiltonian and dissipator.

    K comes out of the double-commutator formula above; it is traceless by
    construction (commutators are traceless) and Hermitian whenever L
    preserves Hermiticity, which Superoperator construction guarantees.
    """
    d = L.dim
    k = np.zeros((d, d), dtype=complex)
    for j in range(d):
        for kk in range(d):
            b = unvec(L.matrix[:, kk + d * j], d)
            # [E_jk, B] accumulated row/column-wise
            k[j, :] += b[kk, :]
            k[:, kk] -= b[:, j]
    K = hermitian_stack(k[None] / (2j * d), HERMITICITY_TOL)[0]
    diss = Superoperator(L.matrix + 1j * commutator_superop(K))
    return GeneratorSplit(K=K, dissipator=diss, time=float(time))


def reassemble_generator(split: GeneratorSplit) -> Superoperator:
    """L = -i[K, .] + D, for round-trip checks."""
    return Superoperator(-1j * commutator_superop(split.K)
                         + split.dissipator.matrix)


def inverse_propagator(traj: MapTrajectory, i_tau: int, i_t: int,
                       cond_threshold: float = COND_THRESHOLD_DEFAULT,
                       ) -> Superoperator:
    """Phi_{tau,t} = Phi_tau o Phi_t^{-1}, propagating the state at t_t back
    to t_tau."""
    if i_tau > i_t:
        raise ValueError("i_tau must not exceed i_t")
    inv, _ = invert(map_at(traj, i_t), cond_threshold,
                    time=float(traj.times[i_t]))
    return Superoperator(map_at(traj, i_tau).matrix @ inv.matrix)


# ---------------------------------------------------------------------------
# Single-superoperator helpers (`mapthermo.operators`)


def invert(s: Superoperator, cond_threshold: float = COND_THRESHOLD_DEFAULT,
           time: float | None = None) -> tuple[Superoperator, float]:
    """Invert a superoperator, reporting its 2-norm condition number.

    Raises SingularMap (carrying `time` when given) if the condition number
    exceeds the threshold. The trace_preserving flag is not propagated: the
    inverse of a TP map is TP in exact arithmetic, but at high condition
    number the numerical residual can exceed the flag's guarantee.
    """
    cond = condition_number(s)
    require_invertible(np.array([cond]), cond_threshold,
                       None if time is None else [time])
    return Superoperator(np.linalg.inv(s.matrix)), cond


def condition_number(s: Superoperator) -> float:
    return float(np.linalg.cond(s.matrix, 2))


def compose(s1: Superoperator, s2: Superoperator) -> Superoperator:
    """Composition s1 after s2 (matrix product)."""
    return Superoperator(s1.matrix @ s2.matrix,
                         trace_preserving=s1.trace_preserving and s2.trace_preserving)


def conjugation_superop(u: np.ndarray) -> Superoperator:
    """Superoperator of X -> U X U^dagger for a unitary U."""
    return kraus_superop([u])


def identity_superop(dim: int) -> Superoperator:
    return Superoperator(np.eye(dim * dim, dtype=complex), trace_preserving=True)


def kraus_superop(kraus_ops: Iterable[np.ndarray],
                  trace_preserving: bool = True) -> Superoperator:
    """Superoperator of X -> sum_k M_k X M_k^dagger."""
    ops = [np.asarray(k, dtype=complex) for k in kraus_ops]
    m = sum(np.kron(k.conj(), k) for k in ops)
    return Superoperator(m, trace_preserving=trace_preserving)


def hs_adjoint(s: Superoperator) -> Superoperator:
    """Adjoint with respect to the Hilbert-Schmidt inner product.

    With column stacking this is just the conjugate transpose of the matrix.
    The trace_preserving flag does not survive (the adjoint of a TP map is
    unital, not TP, in general).
    """
    return Superoperator(s.matrix.conj().T)


def hermiticity_preservation_by_reshuffle(m: np.ndarray,
                                          ) -> tuple[np.ndarray, np.ndarray,
                                                     np.ndarray]:
    """Hermiticity preservation of column-stacked matrices as the definition
    reads: the reshuffle R of each matrix, the largest entry of R - R^dagger,
    the deviation allowed (HP_CHECK_TOL of the largest entry, floor 1) and
    the reshuffle of (R + R^dagger) / 2 back."""
    d = int(round(np.sqrt(m.shape[-1])))
    r = _reshuffle(m, d)
    rh = dagger(r)
    allowed = HP_CHECK_TOL * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    return (np.abs(r - rh).max(axis=(-2, -1)), allowed,
            _reshuffle(0.5 * (r + rh), d))


def choi_matrix(s: Superoperator) -> np.ndarray:
    """Choi matrix, normalized to unit trace for TP maps: C = reshuffle(S)/d."""
    return _reshuffle(s.matrix, s.dim)[0] / s.dim


def pauli_transfer_matrix(s: Superoperator) -> np.ndarray:
    """4x4 real transfer matrix of a qubit superoperator in the PAULI basis."""
    if s.dim != 2:
        raise ValueError("Pauli transfer matrix requires dim 2")
    return basis_maps(s.matrix)[0]


def superop_from_pauli_transfer(r: np.ndarray,
                                trace_preserving: bool = False) -> Superoperator:
    """Inverse of `pauli_transfer_matrix`: S = (1/2) sum_ij R_ij vec(P_i) vec(P_j)^dagger."""
    r = np.asarray(r, dtype=float)
    if r.shape != (4, 4):
        raise ValueError("transfer matrix must be 4x4")
    return Superoperator(column_stacked(r),
                         trace_preserving=trace_preserving)


def cptp_diagnostics(s: Superoperator) -> CPTPReport:
    """Diagnostics only, never raises: TP residual, minimum Choi eigenvalue
    (negative values are legal for generator-level intermediate maps and are
    reported, not rejected), unitality residual, and the Choi Hermiticity
    residual."""
    rep = cptp_diagnostics_stack(s.matrix[None])
    return CPTPReport(**{name: float(v[0]) for name, v in vars(rep).items()})


# ---------------------------------------------------------------------------
# Phase-covariant qubit maps one at a time (`mapthermo.phase_covariant`)


def constant_rates(omega: float, gamma_plus: float, gamma_minus: float,
                   gamma_z: float = 0.0) -> PCRates:
    return PCRates(omega=constant_rate(omega),
                   gamma_plus=constant_rate(gamma_plus),
                   gamma_minus=constant_rate(gamma_minus),
                   gamma_z=constant_rate(gamma_z))


def pc_map(coeffs: PCMapCoefficients, i: int) -> Superoperator:
    """The dynamical map at grid index i in the vectorized convention."""
    r = pc_transfer_matrices(coeffs.a[i], coeffs.b[i], coeffs.c[i],
                             coeffs.d_par[i])
    return superop_from_pauli_transfer(r, trace_preserving=True)


def pc_generator(omega: float, kappa: float, xi: float,
                 gamma_z: float) -> Superoperator:
    return superop_from_pauli_transfer(
        pc_generator_transfer_matrix(omega, kappa, xi, gamma_z))


def pc_exp_avg_q(thermo: PCThermo, coeffs: PCMapCoefficients,
                 beta: float) -> np.ndarray:
    """<e^{-beta q}> = Tr{e^{-beta P(t)} Phi_t[rho(0)]} in closed form, for
    rho(0) the Gibbs state of K(0) = omega(0) sz / 2: with P(t) = P0 1 +
    P3 sz and <sz>_t = c + d_par v_z, v_z = -tanh(beta omega(0)/2),

        <e^{-beta q}> = e^{-beta P0} [cosh(beta P3) - (c + d_par v_z)
                                      sinh(beta P3)].

    P0 and P3 come from `pc_thermo`'s closed-form integrands, not from
    the pipeline's path operator, and no spectrum is taken."""
    v_z = -np.tanh(beta * coeffs.omega[0] / 2.0)
    bp3 = beta * thermo.P3
    return np.exp(-beta * thermo.P0) * (
        np.cosh(bp3) - (coeffs.c + coeffs.d_par * v_z) * np.sinh(bp3))


# General dimension: population transfer matrix F(t) (real, columns summing
# to one) plus dephasing factors f_jk(t) for the coherences. Everything
# thermodynamic stays diagonal in the original eigenbasis, so the outputs
# are eigenvalue vectors.


@dataclass(frozen=True, eq=False)
class PCGeneralResult:
    times: np.ndarray
    k: np.ndarray  # (N+1, d) effective-Hamiltonian eigenvalues
    q: np.ndarray  # heat-observable eigenvalues
    w: np.ndarray  # work-observable eigenvalues, w = k - q


def pc_general_d(times: np.ndarray, F: np.ndarray, f: np.ndarray,
                 Fdot: np.ndarray | None = None,
                 fdot: np.ndarray | None = None,
                 cond_threshold: float = COND_THRESHOLD_DEFAULT,
                 ) -> PCGeneralResult:
    """Effective-Hamiltonian, heat and work eigenvalue vectors for a
    d-level phase-covariant evolution.

    F has shape (N+1, d, d): real population transfer matrices with columns
    summing to one. f has shape (N+1, d, d): coherence factors with
    f_jk = conj(f_kj) (the diagonal is ignored and treated as 1). Analytic
    derivatives can be supplied; otherwise second-order stencils are used.

        k_j(t) = -(1/d) sum_k Im{ fdot_jk / f_jk }
        q(t)   = (F(t)^{-1})^T  int_0^t Fdot(s)^T k(s) ds
        w      = k - q
    """
    t = np.asarray(times, dtype=float)
    h = grid_spacing(t)
    F = np.asarray(F, dtype=float)
    f = np.asarray(f, dtype=complex)
    d = F.shape[1]
    colsum = F.sum(axis=1)
    if np.max(np.abs(colsum - 1.0)) > 1e-9:
        raise ConstructionError("population matrix columns must sum to one")
    if np.max(np.abs(f - np.conj(np.swapaxes(f, 1, 2)))) > 1e-9:
        raise ConstructionError("coherence factors must satisfy f_jk = conj(f_kj)")
    f = f.copy()
    idx = np.arange(d)
    f[:, idx, idx] = 1.0
    if fdot is None:
        fdot = stencil_derivative(f, h)
    if Fdot is None:
        Fdot = stencil_derivative(F, h)
    k = -np.imag(fdot / f).sum(axis=2) / d
    integrand = np.einsum("tkj,tk->tj", Fdot, k)
    running = cumulative_simpson(integrand, h)
    require_invertible(np.linalg.cond(F), cond_threshold, t,
                       what="population matrix")
    q = np.linalg.solve(F.swapaxes(1, 2), running[..., None])[..., 0]
    return PCGeneralResult(times=t, k=k, q=q, w=k - q)


# ---------------------------------------------------------------------------
# Point-by-point rescaled quadrature
# (`mapthermo.quadrature.cumulative_exp_weighted`)


def exp_weighted_loop(xi: np.ndarray, growth: np.ndarray,
                      h: float) -> np.ndarray:
    """e^{-G(t_i)} int_0^{t_i} xi e^G, one grid point at a time."""
    x = np.asarray(xi, dtype=float)
    G = np.asarray(growth, dtype=float)
    n = x.shape[0] - 1
    out = np.zeros_like(x)
    if n == 0:
        return out
    for i in range(2, n + 1, 2):
        out[i] = out[i - 2] * np.exp(G[i - 2] - G[i]) + (h / 3.0) * (
            x[i - 2] * np.exp(G[i - 2] - G[i])
            + 4.0 * x[i - 1] * np.exp(G[i - 1] - G[i])
            + x[i]
        )
    for i in range(1, n + 1, 2):
        out[i] = out[i - 1] * np.exp(G[i - 1] - G[i]) + (h / 2.0) * (
            x[i - 1] * np.exp(G[i - 1] - G[i]) + x[i]
        )
    return out


# ---------------------------------------------------------------------------
# Exchange-model level sum elementwise (`mapthermo.models.jc_reduced_map`)


def jc_level_sums(params: JCParams, times: np.ndarray,
                  ) -> tuple[np.ndarray, ...]:
    """(f, T_ee, T_gg, df/dt, dT_ee/dt, dT_gg/dt) of the exchange model,
    from one cosine and one sine per block and grid time, summed over the
    levels with elementwise products in chunks of about 10^6 entries."""
    times = np.asarray(times, dtype=float)
    n_max = jc_mode_count(params)
    p = _thermal_weights(params, n_max)
    delta = params.omega - params.omega_m
    g = params.g

    xx = np.zeros(times.size)
    ss = np.zeros((2, times.size))
    sx = np.zeros((2, times.size))
    xs = np.zeros((2, times.size))
    pops = np.zeros((2, times.size))  # T_ee, T_gg
    dpops = np.zeros((2, times.size))
    chunk = max(1, 1_000_000 // max(times.size, 1))
    for lo in range(0, n_max + 1, chunk):
        hi = min(lo + chunk, n_max + 1)
        w = p[lo:hi]
        # blocks lo-1 .. hi-1; level n pairs block n (upper) with n-1 (lower)
        blocks = np.arange(lo - 1, hi)
        couple = 4.0 * g ** 2 * (blocks + 1.0)
        couple[blocks == n_max] = 0.0
        rabi = np.sqrt(delta ** 2 + couple)
        half = rabi / 2.0
        coupled = rabi > 0.0  # a zero Rabi frequency forces delta = 0
        alpha = np.divide(delta, rabi, out=np.zeros_like(rabi), where=coupled)
        eps = np.divide(couple, rabi ** 2, out=np.zeros_like(rabi),
                        where=coupled)
        arg = half[:, None] * times
        x = np.cos(arg)
        s = np.sin(arg, out=arg)
        xn, xm, sn, sm = x[1:], x[:-1], s[1:], s[:-1]
        an, am, hn, hm = alpha[1:], alpha[:-1], half[1:], half[:-1]
        xx += w @ (xn * xm)
        ss += np.stack([w * an * am, w * (hn * am + an * hm)]) @ (sn * sm)
        sx += np.stack([w * an, w * (hn + 0.5 * delta * an)]) @ (sn * xm)
        xs += np.stack([w * am, w * (hm + 0.5 * delta * am)]) @ (xn * sm)
        upper_lower = np.zeros((2, w.size + 1))
        upper_lower[0, 1:] = w
        upper_lower[1, :-1] = w
        pops += w.sum() - (upper_lower * eps) @ (s * s)
        dpops -= (upper_lower * (eps * rabi)) @ (s * x)

    s_sum = (xx - ss[0]) - 1j * (sx[0] + xs[0])
    ds_sum = -(sx[1] + xs[1]) + 1j * (ss[1] - delta * xx)
    phase = np.exp(-1j * params.omega_m * times)
    f = phase * s_sum
    df = phase * (ds_sum - 1j * params.omega_m * s_sum)
    return f, pops[0], pops[1], df, dpops[0], dpops[1]


# ---------------------------------------------------------------------------
# Per-operator spectral calculus (`mapthermo.operators._exp_stack`)


def func_hermitian(h: np.ndarray, f: Callable[[np.ndarray], np.ndarray],
                   ) -> np.ndarray:
    """Spectral calculus: apply a real function to the eigenvalues of a
    Hermitian array.

    `f` must accept an ndarray of eigenvalues and return real values; a nan
    or inf in the output is treated as a domain error.
    """
    vals, vecs = np.linalg.eigh(h)
    fvals = np.asarray(f(vals), dtype=float)
    if fvals.shape != vals.shape:
        raise ValueError("function must map eigenvalues elementwise")
    if not np.all(np.isfinite(fvals)):
        bad = vals[~np.isfinite(fvals)]
        raise ValueError(f"function undefined on eigenvalues {bad}")
    m = (vecs * fvals) @ vecs.conj().T
    return 0.5 * (m + dagger(m))


def exp_hermitian(h: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """e^{scale * H} by spectral calculus."""
    return func_hermitian(h, lambda x: np.exp(scale * x))


# ---------------------------------------------------------------------------
# Per-operator fluctuation factors (`mapthermo.fluctuations`)


@dataclass(frozen=True)
class LambdaU:
    value: float
    bound: float
    cross_check_residual: float
    """Largest disagreement among the three equivalent evaluation routes."""


def gibbs_state(h: np.ndarray, beta: float) -> np.ndarray:
    """e^{-beta H} / Tr{e^{-beta H}} of one Hermitian array, formed and
    checked as the library forms a stack of them (`_gibbs_stack`)."""
    return _gibbs_stack(*np.linalg.eigh(np.asarray(h)[None]), beta)[0]


def partition_function(h: np.ndarray, beta: float) -> float:
    """Tr{e^{-beta H}} of one Hermitian array."""
    return float(np.sum(np.exp(-beta * np.linalg.eigh(h)[0])))


def lambda_u(map_t: Superoperator, K_t: np.ndarray, beta: float) -> LambdaU:
    """Internal-energy correction factor Lambda_u = Tr{rho_G(t) Phi_t[1]}.

    Evaluated three ways (direct, through the Hilbert-Schmidt adjoint, and
    as d times the overlap with the evolved maximally mixed state) and
    cross-checked; the bound is the largest eigenvalue of Phi_t[1].
    """
    d = map_t.dim
    rho_g = gibbs_state(K_t, beta)
    ident = np.eye(d, dtype=complex)
    phi_id = apply(map_t, ident)
    direct = float(np.trace(rho_g @ phi_id).real)
    adj = float(np.trace(apply(hs_adjoint(map_t), rho_g)).real)
    mixed = d * float(np.trace(rho_g @ apply(map_t, ident / d)).real)
    bound = float(np.linalg.eigvalsh(0.5 * (phi_id + phi_id.conj().T))[-1])
    residual = max(abs(direct - adj), abs(direct - mixed), abs(adj - mixed))
    return LambdaU(value=direct, bound=bound, cross_check_residual=residual)


def lambda_w(map_t: Superoperator, Ow_t: np.ndarray,
             K_t: np.ndarray, P_t: np.ndarray, beta: float,
             ) -> tuple[float, float]:
    """Work correction factor and its bound.

    lambda = Tr{ e^{-beta O_w(t)} Phi_t[1] } / Z(t) with Z(t) = Tr{e^{-beta K(t)}};
    bound = e^{beta lambda_max{P(t)}} * lambda_max{Phi_t[1]}.
    """
    d = map_t.dim
    phi_id = apply(map_t, np.eye(d, dtype=complex))
    zt = partition_function(K_t, beta)
    lam = float(np.trace(exp_hermitian(Ow_t, -beta) @ phi_id).real) / zt
    p_max = float(np.linalg.eigh(P_t)[0][-1])
    phi_max = float(np.linalg.eigvalsh(0.5 * (phi_id + phi_id.conj().T))[-1])
    return lam, float(np.exp(beta * p_max) * phi_max)


def free_energies(K_t: np.ndarray, K_0: np.ndarray,
                  beta: float) -> tuple[float, float, float]:
    """(Z0, Zt, deltaF) for the instantaneous Gibbs references."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    z0 = partition_function(K_0, beta)
    zt = partition_function(K_t, beta)
    return z0, zt, float(-np.log(zt / z0) / beta)


def dissipated_work_bound(map_t: Superoperator, P_t: np.ndarray,
                          beta: float) -> float:
    """Lower bound on <w> - deltaF:
    -lambda_max{P(t)} - (1/beta) ln lambda_max{Phi_t[1]}."""
    d = map_t.dim
    phi_id = apply(map_t, np.eye(d, dtype=complex))
    p_max = float(np.linalg.eigh(P_t)[0][-1])
    phi_max = float(np.linalg.eigvalsh(0.5 * (phi_id + phi_id.conj().T))[-1])
    return float(-p_max - np.log(phi_max) / beta)


def heat_fluctuation(rho0: np.ndarray, map_t: Superoperator,
                     P_t: np.ndarray, beta: float) -> tuple[float, float]:
    """<e^{-beta q}> = Tr{ e^{-beta P(t)} Phi_t[rho0] } and its bound
    e^{-beta lambda_min{P(t)}}."""
    vals, vecs = np.linalg.eigh(P_t)
    exp_p = _exp_stack(vals[None], vecs[None], beta, what="P")[0]
    value = float(np.trace(exp_p @ apply(map_t, rho0)).real)
    return value, float(np.exp(-beta * vals[0]))


def trace_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tr{a_n b_n} for each pair of two (n, d, d) stacks, summed as
    a_ij b_ji without forming the products."""
    return np.einsum("nij,nji->n", a, b)


def adjoint_trace(maps: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Tr{S_n^dagger[A_n]} for each map and operator of two stacks: the
    diagonal entries of `adjoint_apply_stack`, summed without forming the
    rest of each image."""
    n, d = ops.shape[0], ops.shape[-1]
    diag = maps[:, :, ::d + 1]  # the columns of vec(|i><i|)
    return np.einsum("nk,nki->n", ops.swapaxes(-1, -2).reshape(n, d * d),
                     diag.conj())


def matrix_fluctuation_table(pipeline, beta: float,
                             indices=None) -> FluctuationTable:
    """`fluctuation_table` by matrix traces: per beta it forms the checked
    Gibbs states of K(t), e^{-beta O_w(t)} and e^{-beta P(t)} as (n, d, d)
    stacks from spectra of its own and traces them against Phi_t[1],
    Phi_t[1/d] and Phi_t[rho(0)]; Lambda_u's adjoint route goes through
    `adjoint_trace`. With `indices`, on those grid rows alone."""
    traj = pipeline.traj
    d = traj.dim
    rows = slice(None) if indices is None else np.asarray(indices, dtype=int)
    times = traj.times[rows]
    k_vals, k_vecs = np.linalg.eigh(from_coordinates(pipeline.k))
    rho0 = _gibbs_stack(k_vals[:1], k_vecs[:1], beta, traj.times[:1])[0]
    z0 = np.sum(np.exp(-beta * k_vals[0]))
    k_vals, k_vecs = k_vals[rows], k_vecs[rows]
    zt = np.sum(np.exp(-beta * k_vals), axis=-1)
    rho_g = _gibbs_stack(k_vals, k_vecs, beta, times)

    maps = column_stacked(traj.maps[rows], dynamical=True)
    ident = np.eye(d, dtype=complex)
    phi_id, phi_mixed = ((maps @ vec(a)).reshape(-1, d, d).swapaxes(1, 2)
                         for a in (ident, ident / d))
    rho_t = (maps @ vec(rho0)).reshape(-1, d, d).swapaxes(1, 2)
    direct = trace_product(rho_g, phi_id).real
    adj = adjoint_trace(maps, rho_g).real
    mixed = d * trace_product(rho_g, phi_mixed).real
    residual = np.maximum.reduce([np.abs(direct - adj), np.abs(direct - mixed),
                                  np.abs(adj - mixed)])
    phi_max = np.linalg.eigvalsh(0.5 * (phi_id + dagger(phi_id)))[:, -1]

    p_vals, p_vecs = np.linalg.eigh(from_coordinates(pipeline.p[rows]))
    p_max = p_vals[:, -1]
    w_vals, w_vecs = np.linalg.eigh(from_coordinates(pipeline.w[rows]))
    exp_w = trace_product(_exp_stack(w_vals, w_vecs, beta, times, "O_w"),
                          phi_id).real
    exp_q = trace_product(_exp_stack(p_vals, p_vecs, beta, times, "P"),
                          rho_t).real
    mean_w = (np.trace(from_coordinates(pipeline.w[rows]) @ rho_t,
                       axis1=-2, axis2=-1)
              - np.trace(from_coordinates(pipeline.k[0]) @ rho0)).real
    return FluctuationTable(
        time=times, beta=beta, lambda_u=direct, lambda_w=exp_w / zt,
        lambda_w_bound=np.exp(beta * p_max) * phi_max, exp_avg_w=exp_w / z0,
        exp_avg_q=exp_q, delta_F_bar=-np.log(zt / z0) / beta, mean_w=mean_w,
        dissipated_bound=-p_max - np.log(phi_max) / beta,
        lambda_u_residual=residual)


def noneq_free_energy(rho: np.ndarray, K: np.ndarray,
                      beta: float) -> float:
    """U - S/beta with the von Neumann entropy (0 ln 0 = 0)."""
    vals = np.linalg.eigvalsh(rho)
    vals = np.clip(vals, 0.0, None)
    mask = vals > 0
    entropy = float(-np.sum(vals[mask] * np.log(vals[mask])))
    return float(np.trace(K @ rho).real) - entropy / beta


# ---------------------------------------------------------------------------
# Per-protocol closed-drive work average (`mapthermo.observables`)


def coherent_work_row(data: CoherentInitialData, u_t: np.ndarray,
                      H_t: np.ndarray) -> CoherentWorkResult:
    """`coherent_work_fluctuation` for one protocol, with scalar fields:

    value = Tr{ e^{-beta (H(t) + U xi U^dagger)} } / Z(0)
    golden_thompson_bound = Tr{ e^{-beta H(t)} U e^{-beta xi} U^dagger } / Z(0)
    jarzynski_factor = e^{-beta deltaF} = Z(t)/Z(0)
    """
    beta = data.beta
    H0 = data.H_star - data.xi
    z0 = partition_function(H0, beta)
    zt = partition_function(H_t, beta)
    total = H_t + u_t @ data.xi @ u_t.conj().T
    total = 0.5 * (total + dagger(total))
    value = float(np.trace(exp_hermitian(total, -beta)).real) / z0
    gt = float(np.trace(exp_hermitian(H_t, -beta) @ u_t
                        @ exp_hermitian(data.xi, -beta)
                        @ u_t.conj().T).real) / z0
    return CoherentWorkResult(beta=beta, value=value, golden_thompson_bound=gt,
                              jarzynski_factor=zt / z0,
                              delta_F_bar=float(-np.log(zt / z0) / beta),
                              lambda_min_xi=data.lambda_min_xi)


# ---------------------------------------------------------------------------
# The single-measurement conventions and one-state distributions
# (`mapthermo.observables`, `mapthermo.fluctuations`)


def single_measure_final_work(pipeline) -> np.ndarray:
    """The work series whose initial operator is zero: O_w shifted by the
    initial-condition freedom (the heat series P(t) already starts at 0)."""
    return shifted_observable(pipeline.w, pipeline.traj,
                              np.zeros(pipeline.w.shape[1]))


def single_measure_initial(pipeline) -> tuple[np.ndarray, np.ndarray]:
    """Work and heat series indexed by protocol duration: row i holds the
    initial operator O'_x(0) = O_x(0) - Phi_t^dagger[O_x(t)] of the protocol
    that ends at t_i, whose final operator is zero."""
    maps = pipeline.traj.maps
    return (pipeline.k[0] - adjoint_apply_stack(maps, pipeline.w),
            -adjoint_apply_stack(maps, pipeline.p))


def duration_mean_change(x: np.ndarray, i_t: int,
                         rho0: np.ndarray) -> float:
    """The two-point mean change of the duration-t_i protocol of a
    `single_measure_initial` series: its final operator is zero, so the
    mean is -<x[i_t]>_0."""
    return float(-(x[i_t] * coordinates(rho0)).sum())


def one_state_tpms(rho0: np.ndarray, map_t: np.ndarray, O0: np.ndarray,
                   Ot: np.ndarray) -> OutcomeDistribution:
    """`tpms_distribution` of one state between two Hermitian operators."""
    return tpms_distribution(np.asarray(rho0)[None], map_t, coordinates(O0),
                             coordinates(Ot))[0]


def moment(dist: OutcomeDistribution, k: int) -> float:
    return float(np.dot(dist.probs, dist.outcomes ** k))


def csv_lines(columns) -> list[str]:
    """One CSV line per row of equal-length numeric columns, every cell
    spelled as format(x, ".17g") spells it: the per-row writer that
    `csv_text` replaced."""
    row = ",".join(["%.17g"] * len(columns))
    return [row % cells for cells in
            zip(*(np.asarray(c, dtype=float).tolist() for c in columns))]


def csv_rows(table) -> list[str]:
    """The lambda_series.csv lines of one FluctuationTable."""
    return csv_lines(table.csv_columns())



# ---------------------------------------------------------------------------
# Row-by-row map-file reader (`mapthermo.dynamics.read_map_file`)
#
# The exact cell kernel as it read one row at a time: |q| <= 27 only, each
# row's cells found by its own comma scan, and rows found by a second pass
# over numbered lines.


def _all_digits(w: np.ndarray) -> np.ndarray:
    """Whether every byte of each uint64 word is an ASCII digit."""
    high = _U64(0xF0F0F0F0F0F0F0F0)
    return ((w & high) | (((w + _U64(0x0606060606060606)) & high) >> _U64(4))
            ) == _U64(0x3333333333333333)


def _eight_digits(w: np.ndarray) -> np.ndarray:
    """The number written by the 8 ASCII digits of each little-endian word
    (first digit in the lowest byte): pairs, then quads, then the whole."""
    w = ((w & _U64(0x0F0F0F0F0F0F0F0F)) * _U64(10 * 256 + 1)) >> _U64(8)
    w = ((w & _U64(0x00FF00FF00FF00FF)) * _U64(100 * 65536 + 1)) >> _U64(16)
    return (((w & _U64(0x0000FFFF0000FFFF)) * _U64(10000 * 2**32 + 1))
            >> _U64(32))


def _row_cells(line: bytes, starts: np.ndarray,
               ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of the cells of one row and whether each was read exactly;
    the rest hold garbage. Needs `_EXACT` and a row of at least 32 bytes."""
    length = ends - starts
    neg = length == _CELL + 1
    first = starts + neg
    at = np.clip(first - 6, 0, len(line) - 32)
    words = np.ndarray((len(line) - 31, 4), _U64, buffer=line,
                       strides=(1, 8))[at].T.copy()
    before = (words[0] >> _U64(40)) & _U64(0xFF)
    lead = words[0] >> _U64(48)
    tag = (words[3] & _U64(0xFFFF)) | _U64(0x20)
    expo = (words[3] >> _U64(16)) & _U64(0xFFFF)
    ok = ((neg | (length == _CELL))
          & (at == first - 6)
          & (before == np.where(neg, _U64(ord("-")), _U64(ord(","))))
          & (lead - _U64(0x2E30) <= _U64(9))
          & ((tag == _U64(0x2B65)) | (tag == _U64(0x2D65)))
          & _all_digits(expo | _U64(0x3030303030300000))
          & _all_digits(words[1:3]).all(axis=0))
    e = ((expo & _U64(0xFF)) * _U64(10) + (expo >> _U64(8))).astype(np.int64)
    q = np.where(tag == _U64(0x2D65), -1, 1) * (e - 11 * ord("0")) - 16
    ok &= np.abs(q) <= _MAX_Q
    high, low = _eight_digits(words[1:3])
    mant = ((lead & _U64(0xF)) * _U64(10**16) + high * _U64(10**8)
            + low).astype(np.longdouble)
    scale = _POW10[np.minimum(np.abs(q), _MAX_Q)]
    r = np.where(q < 0, mant / scale, mant * scale)
    ok &= (r.view(_U64)[0::2] & _U64(0x7FF)) != _U64(0x400)  # not halfway
    x = r.astype(np.float64)
    return np.where(neg, -x, x), ok


def _parse_row(line: bytes, cols: int) -> np.ndarray:
    """The `cols` comma-separated numbers of one data row, as float() reads
    each: the kernel where the row's cells average a written cell's width,
    float() for the cells it leaves while they are at most two thirds of
    the row, float() on the whole split row otherwise."""
    if _EXACT and len(line) >= 32 and 22 * cols <= len(line) <= 25 * cols:
        buf = np.frombuffer(line, np.uint8)
        end = len(line) - line.endswith(b"\n")
        commas = np.flatnonzero(buf[:end] == ord(","))
        starts = np.concatenate(([0], commas + 1))
        ends = np.append(commas, end)
        vals, exact = _row_cells(line, starts, ends)
        bad = np.flatnonzero(~exact)
        if 3 * bad.size <= 2 * cols:
            vals[bad] = [float(line[a:b].decode()) for a, b in
                         zip(starts[bad].tolist(), ends[bad].tolist())]
            return vals
    return np.array([float(x) for x in line.decode().split(",")])


def _numbered_lines(fh):
    """Number the lines of a file opened in binary mode as text mode's
    universal newlines split them: at LF, CRLF and a lone CR."""
    lineno = 0
    for raw in fh:
        inner_cr = raw.find(b"\r", 0, len(raw) - 1) >= 0
        for line in raw.splitlines() if inner_cr else (raw,):
            lineno += 1
            yield lineno, line


def read_map_file_by_rows(path: str) -> tuple[np.ndarray, np.ndarray,
                                              np.ndarray | None]:
    """`read_map_file` one row at a time: a first pass reads the header and
    counts every row's columns, the second finds each row again and parses
    it on its own."""
    dim, has_d, expect, rows = None, False, 0, []
    with open(path, "rb") as fh:
        for lineno, raw in _numbered_lines(fh):
            written_row = lineno > 1 and (raw[:1].isdigit()
                                          or raw.startswith(b"-"))
            try:
                line = "" if written_row else raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise ConstructionError(
                    f"{path}:{lineno}: line is not UTF-8 text") from None
            body = line.lstrip("#").strip()
            if lineno == 1:
                if not (line.startswith("#") and body == _FORMAT_TAG):
                    raise ConstructionError(
                        f"{path}:1: expected the format tag line "
                        f"'# {_FORMAT_TAG}', got {line!r}")
            elif line.startswith("#") and body.startswith("dim="):
                if rows:
                    raise ConstructionError(
                        f"{path}:{lineno}: header line after data rows")
                parts = [part.split("=", 1) for part in body.split()]
                fields = dict(part for part in parts if len(part) == 2)
                if (len(fields) != len(parts) or not fields["dim"].isdigit()
                        or int(fields["dim"]) < 1
                        or fields.get("derivatives", "0") not in ("0", "1")):
                    raise ConstructionError(
                        f"{path}:{lineno}: malformed header line {line!r}, "
                        "expected '# dim=<d> vectorization=column-stacking "
                        "derivatives=<0|1>'")
                if fields.get("vectorization") != "column-stacking":
                    raise ConstructionError(
                        f"{path}:{lineno}: unsupported vectorization "
                        f"{fields.get('vectorization')!r}")
                dim = int(fields["dim"])
                has_d = fields.get("derivatives", "0") == "1"
                expect = 1 + 2 * dim**4 * (2 if has_d else 1)
            elif written_row or (line and not line.startswith("#")):
                if dim is None:
                    raise ConstructionError(
                        f"{path}:{lineno}: data row before the dim header "
                        f"line")
                cols = 1 + np.count_nonzero(
                    np.frombuffer(raw, np.uint8) == ord(","))
                if cols != expect:
                    raise ConstructionError(
                        f"{path}:{lineno}: expected {expect} columns, got "
                        f"{cols}")
                rows.append(lineno)
    if not rows:
        raise ConstructionError(f"{path}: no data rows")
    d2 = dim * dim
    per_block = 2 * d2 * d2
    times = np.empty(len(rows))
    maps = np.empty((len(rows), d2, d2), dtype=complex)
    derivs = np.empty_like(maps) if has_d else None
    with open(path, "rb") as fh:
        lines = _numbered_lines(fh)
        for k, lineno in enumerate(rows):
            line = next(raw for n, raw in lines if n == lineno)
            try:
                vals = _parse_row(line, expect)
            except ValueError:
                raise ConstructionError(
                    f"{path}:{lineno}: row is not comma-separated numbers")
            if not np.isfinite(vals).all():
                raise ConstructionError(
                    f"{path}:{lineno}: row holds a value that is not finite")
            times[k] = vals[0]
            for stack, flat in ((maps, vals[1:1 + per_block]),
                                (derivs, vals[1 + per_block:])):
                if stack is not None:   # re, im as written, -0.0 included
                    stack[k].reshape(-1).view(float)[:] = flat
    return times, maps, derivs


# ---------------------------------------------------------------------------
# Records with some fields changed (`mapthermo.records`)


def replace(obj, **changes):
    """A new record of obj's class with obj's field values but `changes`,
    built (and checked by `__post_init__`) as any other."""
    values = {f.name: getattr(obj, f.name) for f in fields(obj)}
    return type(obj)(**{**values, **changes})
