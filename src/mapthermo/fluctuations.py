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
at once, each trace as a weighted sum sum_k f(lambda_k) <k|A|k> in the
eigenbasis of the observable. The spectra of K(t), P(t) and O_w(t) and the
diagonals of Phi_t[1] and Phi_t[1/d] in them do not depend on beta; the
pipeline caches them. Each beta costs the Boltzmann weights, row sums of
weights times diagonals, and Phi_t[rho(0)] with its diagonal in the
eigenbasis of P(t). The columns are those of `lambda_series.csv`, plus the
Lambda_u cross-check residual per row; `fluctuation_report` is one row. The
per-operator references and the matrix-trace route are in
`tests/reference.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError
from .operators import (
    DensityMatrix,
    HermitianOperator,
    Superoperator,
    _boltzmann,
    _diagonals,
    _gibbs_stack,
    _gibbs_weights,
    apply,
    eig_hermitian,
    vec,
)

CLUSTER_TOL = 1e-9
NEGATIVE_PROB_TOL = 1e-12
PROB_SUM_TOL = 1e-9


def cluster_eigenvalues(values: np.ndarray) -> list[np.ndarray]:
    """Group ascending eigenvalues into clusters of numerically equal
    outcomes. The clustering tolerance is 1e-9 * max(1, spectral range).

    Returns a list of index arrays, one per cluster.
    """
    values = np.asarray(values, dtype=float)
    tol = CLUSTER_TOL * max(1.0, float(np.ptp(values)) if values.size else 1.0)
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


def tpms_distribution(rho0: DensityMatrix, map_t: Superoperator,
                      O0: HermitianOperator,
                      Ot: HermitianOperator) -> OutcomeDistribution:
    """Distribution of o_m(t) - o_n(0) under the two-point scheme.

    All (n, m) cluster pairs are enumerated, zero-probability outcomes
    included; outcome values agreeing within the clustering tolerance are
    merged. No diagonality of rho0 in the O0 eigenbasis is required, but the
    initial measurement dephases the state in that basis, and
    `initial_coherence` reports how much was destroyed. The spectrum of
    each observable is computed on its first use and kept with it, so a
    caller measuring at several temperatures passes the same operators.
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


_COLUMNS = ("lambda_u", "lambda_w", "lambda_w_bound", "exp_avg_w",
            "exp_avg_q", "delta_F_bar", "mean_w", "dissipated_bound")
"""The per-row report columns after t and beta, in CSV order."""


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

    CSV_HEADER = ",".join(("t", "beta") + _COLUMNS)
    """The header line of lambda_series.csv, naming `csv_columns`."""

    def csv_columns(self) -> list[np.ndarray]:
        return [self.time, np.full(self.time.shape, self.beta),
                *(getattr(self, name) for name in _COLUMNS)]


def _initial_state(pipeline, beta: float) -> np.ndarray:
    """rho(0): the Gibbs state of K(0) at beta, from row 0 of `_k_spectrum`."""
    k_vals, k_vecs = pipeline._k_spectrum
    return _gibbs_stack(k_vals[:1], k_vecs[:1], beta, pipeline.times[:1])[0]


def fluctuation_table(pipeline, beta: float, indices=None) -> FluctuationTable:
    """The report at every requested grid row of a ThermoPipeline (all rows
    when `indices` is None), computed as one batched pass.

    The pipeline's cached diagonals, sliced to the requested rows, are
    weighted with the Gibbs populations of K(t) (the three Lambda_u routes)
    and with e^{-beta O_w(t)} (Lambda_w); the diagonal of Phi_t[rho(0)] in
    the eigenbasis of P(t) with e^{-beta P(t)}. Both exponentials are
    checked for overflow. <e^{-beta w}> = Tr{e^{-beta O_w(t)} Phi_t[1]} /
    Z(0) is evaluated on its own rather than as Lambda_w e^{-beta deltaF},
    so `check_invariants` compares two routes.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    traj = pipeline.traj
    d = traj.dim
    # a slice keeps the whole-grid arrays as views, not copies
    rows = slice(None) if indices is None else np.asarray(indices, dtype=int)
    times = traj.times[rows]

    rho0 = _initial_state(pipeline, beta)
    k_vals = pipeline._k_spectrum[0]
    z0 = np.sum(np.exp(-beta * k_vals[0]))
    zt = np.sum(np.exp(-beta * k_vals[rows]), axis=-1)
    gibbs = _gibbs_weights(k_vals[rows], beta)
    *routes, phi_w, phi_max = (a[rows] for a in pipeline._unit_image_terms)
    direct, mixed, adj = ((gibbs * a).sum(axis=-1) for a in routes)
    residual = np.ptp([direct, mixed, adj], axis=0)  # largest disagreement

    w_vals = pipeline._work_spectrum[0][rows]
    exp_w = (_boltzmann(w_vals, beta, times, "O_w") * phi_w).sum(axis=-1)
    p_vals, p_vecs = (a[rows] for a in pipeline._p_spectrum)
    p_max = p_vals[:, -1]
    vec_rho_t = traj.maps[rows] @ vec(rho0)
    rho_t = vec_rho_t.reshape(-1, d, d).swapaxes(1, 2)
    exp_q = (_boltzmann(p_vals, beta, times, "P")
             * _diagonals(p_vecs, vec_rho_t[..., None])[..., 0]).sum(axis=-1)
    # a difference of two O(1) energies that cancels exactly at t = 0: the
    # traces keep the summation order of `mean_change`
    mean_w = (np.trace(pipeline._work_ops[rows] @ rho_t, axis1=-2, axis2=-1)
              - np.trace(pipeline.K[0] @ rho0)).real
    return FluctuationTable(
        time=times, beta=beta, lambda_u=direct, lambda_w=exp_w / zt,
        lambda_w_bound=np.exp(beta * p_max) * phi_max, exp_avg_w=exp_w / z0,
        exp_avg_q=exp_q, delta_F_bar=-np.log(zt / z0) / beta, mean_w=mean_w,
        dissipated_bound=-p_max - np.log(phi_max) / beta,
        lambda_u_residual=residual)


def fluctuation_report(pipeline, i_t: int, beta: float) -> FluctuationReport:
    """The report row at grid index i_t: a one-row `fluctuation_table`."""
    return fluctuation_table(pipeline, beta, [i_t]).row(0)
