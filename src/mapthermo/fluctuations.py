"""Two-point measurement statistics and the fluctuation-relation factors.

Measuring an observable projectively at time zero (eigenprojectors Pi_n,
outcomes o_n) and again at time t (projectors Pi_m(t), outcomes o_m(t))
defines the random variable x = o_m(t) - o_n(0) with distribution

    p(n, m) = Tr{ Pi_m(t)  Phi_t[ Pi_n rho(0) Pi_n ] } .

Projectors onto *clusters* of numerically degenerate eigenvalues are used
throughout, so a zero observable at time zero cleanly degenerates to a
one-point measurement of the final observable (the heat statistics case).

From the distributions come the exponential averages and the correction
factors to the Jarzynski equality:

    <e^{-beta u}> = Lambda_u e^{-beta deltaF},   Lambda_u = Tr{rho_G(t) Phi_t[1]}
    <e^{-beta w}> = Lambda_w e^{-beta deltaF},
        Lambda_w = Tr{ e^{-beta O_w(t)} Phi_t[1] } / Z(t)
    <e^{-beta q}> = Tr{ e^{-beta P(t)} Phi_t[rho(0)] }

for a Gibbs initial state at inverse temperature beta (the heat relation
holds for any initial state diagonal in the first measurement basis). Both
Lambda factors deviate from one only through the non-unitality of the map;
their bounds and the induced bound on the mean dissipated work are computed
alongside.

`fluctuation_table(pipeline, beta)` evaluates all of this for every grid row
at once: each map is applied to a handful of vectors, and K(t), P(t) and
O_w(t) are diagonalized as stacks, so a whole window costs one batched pass
per beta. Its columns are those of `lambda_series.csv`, plus the Lambda_u
cross-check residual per row. `fluctuation_report` is one row of it; the
scalar `lambda_u`, `lambda_w`, `heat_fluctuation`, `free_energies` and
`dissipated_work_bound` are the per-operator reference implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError
from .operators import (
    HERMITICITY_TOL,
    POSITIVITY_TOL,
    TRACE_TOL,
    DensityMatrix,
    HermitianOperator,
    Superoperator,
    apply,
    eig_hermitian,
    exp_hermitian,
    gibbs_state,
    hs_adjoint,
    partition_function,
    vec,
)

CLUSTER_TOL = 1e-9
NEGATIVE_PROB_TOL = 1e-12
PROB_SUM_TOL = 1e-9


def cluster_eigenvalues(values: np.ndarray, tol_scale: float | None = None,
                        ) -> list[np.ndarray]:
    """Group ascending eigenvalues into clusters of numerically equal
    outcomes. The clustering tolerance is 1e-9 * max(1, spectral range).

    Returns a list of index arrays, one per cluster.
    """
    values = np.asarray(values, dtype=float)
    if tol_scale is None:
        tol_scale = max(1.0, float(np.ptp(values)) if values.size else 1.0)
    tol = CLUSTER_TOL * tol_scale
    clusters: list[list[int]] = [[0]]
    for i in range(1, values.size):
        if values[i] - values[clusters[-1][0]] <= tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return [np.array(c) for c in clusters]


def _cluster_projectors(op: HermitianOperator,
                        ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Outcome values (cluster means) and projectors of an observable."""
    vals, vecs = eig_hermitian(op)
    outcomes = []
    projectors = []
    for idx in cluster_eigenvalues(vals):
        outcomes.append(float(np.mean(vals[idx])))
        cols = vecs[:, idx]
        projectors.append(cols @ cols.conj().T)
    return np.array(outcomes), projectors


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Finite outcome list with probabilities, outcomes strictly increasing.

    Probabilities in [-1e-12, 0) are clipped to zero and the distribution is
    renormalized; anything more negative is an error (it means a
    non-positive map was used where a true dynamical map is required).
    `initial_coherence` records the Frobenius norm of the initial state's
    off-diagonal part in the first measurement's eigenbasis: when it is
    nonzero the distribution's mean need not equal the two-point mean
    change, because the first measurement destroys those coherences.
    """

    outcomes: np.ndarray
    probs: np.ndarray
    initial_coherence: float = 0.0

    def __post_init__(self):
        outcomes = np.asarray(self.outcomes, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if outcomes.shape != probs.shape or outcomes.ndim != 1:
            raise ConstructionError("outcomes and probs must be matching 1-d arrays")
        if np.any(np.diff(outcomes) <= 0):
            raise ConstructionError("outcomes must be strictly increasing")
        worst = float(probs.min(initial=0.0))
        if worst < -NEGATIVE_PROB_TOL:
            raise ConstructionError(
                f"negative probability {worst:.3e} below -{NEGATIVE_PROB_TOL}")
        probs = np.where(probs < 0.0, 0.0, probs)
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ConstructionError(f"probabilities sum to {total}, expected 1")
        probs = probs / total
        outcomes.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "probs", probs)

    def mean(self) -> float:
        return float(np.dot(self.probs, self.outcomes))


def tpms_distribution(rho0: DensityMatrix, map_t: Superoperator,
                      O0: HermitianOperator, Ot: HermitianOperator,
                      ) -> OutcomeDistribution:
    """Distribution of o_m(t) - o_n(0) under the two-point scheme.

    All (n, m) cluster pairs are enumerated, zero-probability outcomes
    included; outcome values agreeing within the clustering tolerance are
    merged. No diagonality of rho0 in the O0 eigenbasis is required, but the
    initial measurement dephases the state in that basis, and
    `initial_coherence` reports how much was destroyed.
    """
    o0, proj0 = _cluster_projectors(O0)
    ot, projt = _cluster_projectors(Ot)
    coher = rho0.matrix.copy()
    for p in proj0:
        pr = p @ rho0.matrix @ p
        coher = coher - pr
    coherence_norm = float(np.linalg.norm(coher))

    raw_x = []
    raw_p = []
    for n, pn in enumerate(proj0):
        branch = apply(map_t, pn @ rho0.matrix @ pn)
        for m, pm in enumerate(projt):
            prob = float(np.trace(pm @ branch).real)
            raw_x.append(ot[m] - o0[n])
            raw_p.append(prob)
    raw_x = np.array(raw_x)
    raw_p = np.array(raw_p)
    order = np.argsort(raw_x, kind="stable")
    raw_x, raw_p = raw_x[order], raw_p[order]
    scale = max(1.0, float(np.ptp(o0)) if o0.size else 1.0,
                float(np.ptp(ot)) if ot.size else 1.0)
    xs: list[float] = []
    ps: list[float] = []
    for x, p in zip(raw_x, raw_p):
        if xs and x - xs[-1] <= CLUSTER_TOL * scale:
            # weighted merge keeps the outcome value consistent
            tot = ps[-1] + p
            if tot > 0:
                xs[-1] = (xs[-1] * ps[-1] + x * p) / tot
            ps[-1] = tot
        else:
            xs.append(float(x))
            ps.append(float(p))
    return OutcomeDistribution(outcomes=np.array(xs), probs=np.array(ps),
                               initial_coherence=coherence_norm)


def exp_average(dist: OutcomeDistribution, beta: float) -> float:
    """<e^{-beta x}> over the distribution."""
    return float(np.dot(dist.probs, np.exp(-beta * dist.outcomes)))


def moment(dist: OutcomeDistribution, k: int) -> float:
    return float(np.dot(dist.probs, dist.outcomes ** k))


@dataclass(frozen=True)
class LambdaU:
    value: float
    bound: float
    cross_check_residual: float
    """Largest disagreement among the three equivalent evaluation routes."""


def lambda_u(map_t: Superoperator, K_t: HermitianOperator, beta: float) -> LambdaU:
    """Internal-energy correction factor Lambda_u = Tr{rho_G(t) Phi_t[1]}.

    Evaluated three ways (direct, through the Hilbert-Schmidt adjoint, and
    as d times the overlap with the evolved maximally mixed state) and
    cross-checked; the bound is the largest eigenvalue of Phi_t[1].
    """
    d = map_t.dim
    rho_g = gibbs_state(K_t, beta)
    ident = np.eye(d, dtype=complex)
    phi_id = apply(map_t, ident)
    direct = float(np.trace(rho_g.matrix @ phi_id).real)
    adj = float(np.trace(apply(hs_adjoint(map_t), rho_g.matrix)).real)
    mixed = d * float(np.trace(rho_g.matrix @ apply(map_t, ident / d)).real)
    bound = float(np.linalg.eigvalsh(0.5 * (phi_id + phi_id.conj().T))[-1])
    residual = max(abs(direct - adj), abs(direct - mixed), abs(adj - mixed))
    return LambdaU(value=direct, bound=bound, cross_check_residual=residual)


def lambda_w(map_t: Superoperator, Ow_t: HermitianOperator,
             K_t: HermitianOperator, P_t: HermitianOperator, beta: float,
             ) -> tuple[float, float]:
    """Work correction factor and its bound.

    lambda = Tr{ e^{-beta O_w(t)} Phi_t[1] } / Z(t) with Z(t) = Tr{e^{-beta K(t)}};
    bound = e^{beta lambda_max{P(t)}} * lambda_max{Phi_t[1]}.
    """
    d = map_t.dim
    phi_id = apply(map_t, np.eye(d, dtype=complex))
    zt = partition_function(K_t, beta)
    lam = float(np.trace(exp_hermitian(Ow_t, -beta).matrix @ phi_id).real) / zt
    p_max = float(eig_hermitian(P_t)[0][-1])
    phi_max = float(np.linalg.eigvalsh(0.5 * (phi_id + phi_id.conj().T))[-1])
    return lam, float(np.exp(beta * p_max) * phi_max)


def heat_fluctuation(rho0: DensityMatrix, map_t: Superoperator,
                     P_t: HermitianOperator, beta: float) -> tuple[float, float]:
    """<e^{-beta q}> = Tr{ e^{-beta P(t)} Phi_t[rho0] } and its bound
    e^{-beta lambda_min{P(t)}}."""
    value = float(np.trace(exp_hermitian(P_t, -beta).matrix
                           @ apply(map_t, rho0.matrix)).real)
    p_min = float(eig_hermitian(P_t)[0][0])
    return value, float(np.exp(-beta * p_min))


def free_energies(K_t: HermitianOperator, K_0: HermitianOperator,
                  beta: float) -> tuple[float, float, float]:
    """(Z0, Zt, deltaF) for the instantaneous Gibbs references."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    z0 = partition_function(K_0, beta)
    zt = partition_function(K_t, beta)
    return z0, zt, float(-np.log(zt / z0) / beta)


def noneq_free_energy(rho: DensityMatrix, K: HermitianOperator,
                      beta: float) -> float:
    """U - S/beta with the von Neumann entropy (0 ln 0 = 0)."""
    vals, _ = eig_hermitian(HermitianOperator(rho.matrix))
    vals = np.clip(vals, 0.0, None)
    mask = vals > 0
    entropy = float(-np.sum(vals[mask] * np.log(vals[mask])))
    return K.expectation(rho) - entropy / beta


def dissipated_work_bound(map_t: Superoperator, P_t: HermitianOperator,
                          beta: float) -> float:
    """Lower bound on <w> - deltaF:
    -lambda_max{P(t)} - (1/beta) ln lambda_max{Phi_t[1]}."""
    d = map_t.dim
    phi_id = apply(map_t, np.eye(d, dtype=complex))
    p_max = float(eig_hermitian(P_t)[0][-1])
    phi_max = float(np.linalg.eigvalsh(0.5 * (phi_id + phi_id.conj().T))[-1])
    return float(-p_max - np.log(phi_max) / beta)


_COLUMNS = ("lambda_u", "lambda_w", "lambda_w_bound", "exp_avg_w",
            "exp_avg_q", "delta_F_bar", "mean_w", "dissipated_bound")
"""The per-row report columns after t and beta, in CSV order."""


def _csv_row(cells) -> str:
    return ",".join(f"{v:.17g}" for v in cells)


def _check_invariants(r, tol: float) -> None:
    """Raise ConstructionError at the first row where the two evaluation
    routes of <e^{-beta w}> disagree or lambda_w exceeds its bound.

    `r` is a FluctuationReport (scalar fields) or a FluctuationTable (one
    array per field); the message names the row by its time.
    """
    t, lw, bound, avg, dfb = (np.atleast_1d(getattr(r, name)) for name in (
        "time", "lambda_w", "lambda_w_bound", "exp_avg_w", "delta_F_bar"))
    expect = lw * np.exp(-r.beta * dfb)
    routes = np.abs(avg - expect) > tol * np.maximum(1.0, np.abs(expect))
    over = lw > bound + tol
    bad = np.flatnonzero(routes | over)
    if bad.size == 0:
        return
    k = bad[0]
    where = f"at t = {t[k]:.17g}, beta = {r.beta:.17g}"
    if routes[k]:
        raise ConstructionError(
            f"{where}: exp average {avg[k]} != lambda * e^(-beta deltaF) "
            f"{expect[k]}")
    raise ConstructionError(
        f"{where}: lambda_w {lw[k]} exceeds its bound {bound[k]}")


@dataclass(frozen=True)
class FluctuationReport:
    """Everything the fluctuation relations say at one (t, beta) cell."""

    time: float
    beta: float
    lambda_u: float
    lambda_w: float
    lambda_w_bound: float
    exp_avg_w: float
    exp_avg_q: float
    delta_F_bar: float
    mean_w: float
    dissipated_bound: float

    def check_invariants(self, tol: float = 1e-9) -> None:
        _check_invariants(self, tol)

    CSV_HEADER = ("t,beta,lambda_u,lambda_w,lambda_w_bound,exp_avg_w,"
                  "exp_avg_q,delta_F_bar,mean_w,dissipated_bound")

    def csv_row(self) -> str:
        return _csv_row((self.time, self.beta,
                         *(getattr(self, name) for name in _COLUMNS)))


@dataclass(frozen=True, eq=False)
class FluctuationTable:
    """The report columns of many grid rows at one beta, one array per
    column, plus the per-row Lambda_u cross-check residual."""

    time: np.ndarray
    beta: float
    lambda_u: np.ndarray
    lambda_w: np.ndarray
    lambda_w_bound: np.ndarray
    exp_avg_w: np.ndarray
    exp_avg_q: np.ndarray
    delta_F_bar: np.ndarray
    mean_w: np.ndarray
    dissipated_bound: np.ndarray
    lambda_u_residual: np.ndarray
    """Largest disagreement among the three Lambda_u evaluation routes."""

    def row(self, k: int) -> FluctuationReport:
        return FluctuationReport(
            time=float(self.time[k]), beta=self.beta,
            **{name: float(getattr(self, name)[k]) for name in _COLUMNS})

    def check_invariants(self, tol: float = 1e-9) -> None:
        _check_invariants(self, tol)

    def csv_rows(self) -> list[str]:
        columns = (getattr(self, name).tolist() for name in _COLUMNS)
        return [_csv_row((t, self.beta, *cells))
                for t, *cells in zip(self.time.tolist(), *columns)]


def _dag(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _unvec_rows(v: np.ndarray, dim: int) -> np.ndarray:
    """`unvec` of every row of an (n, d^2) array: an (n, d, d) stack."""
    return v.reshape(-1, dim, dim).swapaxes(-1, -2)


def _trace_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.trace(a @ b, axis1=-2, axis2=-1)


def _exp_stack(vals: np.ndarray, vecs: np.ndarray, scale: float) -> np.ndarray:
    """`exp_hermitian` of a stack of spectral decompositions."""
    f = np.exp(scale * vals)
    if not np.all(np.isfinite(f)):
        raise ValueError(f"function undefined on eigenvalues "
                         f"{vals[~np.isfinite(f)]}")
    m = (vecs * f[:, None, :]) @ _dag(vecs)
    return 0.5 * (m + _dag(m))


def _hermitian_stack(a: np.ndarray, times: np.ndarray, what: str,
                     ) -> np.ndarray:
    """Symmetrize a stack the way `HermitianOperator` does, rejecting any
    matrix further than HERMITICITY_TOL (relative) from Hermitian."""
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    dev = np.abs(a - _dag(a)).max(axis=(-2, -1))
    bad = np.flatnonzero(dev > HERMITICITY_TOL * scale)
    if bad.size:
        k = bad[0]
        raise ConstructionError(
            f"{what} at t = {times[k]:.6g} is not Hermitian: max |A - A^dagger| "
            f"= {dev[k]:.3e} (allowed {HERMITICITY_TOL * scale[k]:.3e})")
    return 0.5 * (a + _dag(a))


def _gibbs_stack(vals: np.ndarray, vecs: np.ndarray, beta: float,
                 times: np.ndarray) -> np.ndarray:
    """`gibbs_state` of a stack of spectral decompositions, with the trace
    and positivity checks of `DensityMatrix`."""
    w = np.exp(-beta * (vals - vals.min(axis=-1, keepdims=True)))
    w /= w.sum(axis=-1, keepdims=True)
    rho = (vecs * w[:, None, :]) @ _dag(vecs)
    rho = 0.5 * (rho + _dag(rho))
    trace_dev = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    low = np.linalg.eigvalsh(rho)[:, 0]
    bad = np.flatnonzero((trace_dev > TRACE_TOL) | (low < -POSITIVITY_TOL))
    if bad.size:
        k = bad[0]
        raise ConstructionError(
            f"Gibbs state at t = {times[k]:.6g}, beta = {beta:.6g} is not a "
            f"state: trace deviation {trace_dev[k]:.3e}, lowest eigenvalue "
            f"{low[k]:.3e}")
    return rho


def fluctuation_table(pipeline, beta: float, indices=None) -> FluctuationTable:
    """The report at every requested grid row of a ThermoPipeline (all rows
    when `indices` is None), computed as one batched pass.

    The initial state is the Gibbs state of K(0) at this beta. Each map is
    applied once, to [1, 1/d, rho(0)], and once adjointly, to the Gibbs
    state of K(t); K(t), P(t) and O_w(t) = K(t) - P(t) are diagonalized once
    per row as stacks, and the exponential averages follow from the trace
    formulas. <e^{-beta w}> = Tr{e^{-beta O_w(t)} Phi_t[1]} / Z(0) is
    evaluated on its own rather than as Lambda_w e^{-beta deltaF}, so
    `check_invariants` compares two routes. The scalar functions above
    (`lambda_u`, `lambda_w`, ...) are the per-operator references.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    traj = pipeline.traj
    d = traj.dim
    idx = np.arange(traj.times.size)
    if indices is not None:
        idx = idx[np.asarray(indices, dtype=int)]
    times = traj.times[idx]
    K_series = pipeline.effective_hamiltonian_series()
    K_0 = K_series[0]
    K = np.stack([K_series[i].matrix for i in idx])
    P = np.stack([pipeline.path_operator(i).matrix for i in idx])
    Ow = _hermitian_stack(K - P, times, "work observable O_w")

    rho0 = gibbs_state(K_0, beta)
    z0 = partition_function(K_0, beta)
    k_vals, k_vecs = np.linalg.eigh(K)
    zt = np.sum(np.exp(-beta * k_vals), axis=-1)
    rho_g = _gibbs_stack(k_vals, k_vecs, beta, times)

    ident = np.eye(d, dtype=complex)
    inputs = (vec(ident), vec(ident / d), vec(rho0.matrix))
    images = np.empty((3, idx.size, d * d), dtype=complex)
    adjoint_images = np.empty((idx.size, d * d), dtype=complex)
    for k, i in enumerate(idx):
        m = traj.maps[i].matrix
        # one matrix-vector product per input, as `apply` does: a single
        # product with the stacked inputs sums in another order
        for c, v in enumerate(inputs):
            images[c, k] = m @ v
        adjoint_images[k] = m.conj().T @ vec(rho_g[k])
    phi_id, phi_mixed, rho_t = (_unvec_rows(image, d) for image in images)

    direct = _trace_product(rho_g, phi_id).real
    adj = np.trace(_unvec_rows(adjoint_images, d), axis1=-2, axis2=-1).real
    mixed = d * _trace_product(rho_g, phi_mixed).real
    residual = np.maximum.reduce([np.abs(direct - adj), np.abs(direct - mixed),
                                  np.abs(adj - mixed)])
    phi_max = np.linalg.eigvalsh(0.5 * (phi_id + _dag(phi_id)))[:, -1]

    p_vals, p_vecs = np.linalg.eigh(P)
    p_max = p_vals[:, -1]
    exp_w = _trace_product(_exp_stack(*np.linalg.eigh(Ow), -beta), phi_id).real
    exp_q = _trace_product(_exp_stack(p_vals, p_vecs, -beta), rho_t).real
    mean_w = (_trace_product(Ow, rho_t)
              - np.trace(K_0.matrix @ rho0.matrix)).real
    return FluctuationTable(
        time=times, beta=beta, lambda_u=direct, lambda_w=exp_w / zt,
        lambda_w_bound=np.exp(beta * p_max) * phi_max, exp_avg_w=exp_w / z0,
        exp_avg_q=exp_q, delta_F_bar=-np.log(zt / z0) / beta, mean_w=mean_w,
        dissipated_bound=-p_max - np.log(phi_max) / beta,
        lambda_u_residual=residual)


def fluctuation_report(pipeline, i_t: int, beta: float) -> FluctuationReport:
    """The report row at grid index i_t: a one-row `fluctuation_table`."""
    return fluctuation_table(pipeline, beta, [i_t]).row(0)
