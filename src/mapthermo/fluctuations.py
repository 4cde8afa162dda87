"""Two-point measurement statistics and the fluctuation-relation factors.

Measuring an observable projectively at time zero (eigenprojectors Pi_n,
outcomes o_n) and again at time t (projectors Pi_m(t), outcomes o_m(t))
defines the random variable x = o_m(t) - o_n(0) with distribution

    p(n, m) = Tr{ Pi_m(t)  Phi_t[ Pi_n rho(0) Pi_n ] } .

Projectors onto *clusters* of numerically degenerate eigenvalues are used
throughout, so a zero observable at time zero cleanly degenerates to a
one-point measurement of the final observable (the heat statistics case).
`tpms_distribution` measures the observables by their real basis
coordinates, as `ThermoPipeline` holds them: K(0) then O_w(t) for work, a
zero first observable then P(t) for heat.

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

`fluctuation_tables(pipeline, betas)` evaluates all of this for every grid
row and every beta in one pass, beta on a leading axis, each trace a
weighted sum sum_k f(lambda_k) <k|A|k> in the eigenbasis of the observable.
The spectra of K(t), P(t) and O_w(t), the diagonals of Phi_t[1] and
Phi_t[1/d] in them and P(t)'s eigenprojectors do not depend on beta; a
call forms them once, for every row. Within it a further beta costs its
Boltzmann weights, elementwise sums over real basis coordinates and one
map-vector product per row for Phi_t[rho(0)]. The columns are those of
`lambda_series.csv` plus the Lambda_u cross-check residual; one beta is
`fluctuation_table`, one row `fluctuation_report`. The per-operator
references and the matrix-trace route are in `tests/reference.py`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConstructionError
from .observables import _mean_changes
from .operators import (
    _boltzmann,
    _gibbs_stack,
    _gibbs_weights,
    _projectors,
    _state_stack,
    coordinates,
    from_coordinates,
)
from .records import record

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


def _measurement(x: np.ndarray):
    """Outcome values (cluster means) of the observable of real basis
    coordinates x, the coordinates of its eigenprojectors |i><i|, and its
    eigenvalues, eigenvectors and clusters."""
    vals, vecs = np.linalg.eigh(from_coordinates(x))
    clusters = cluster_eigenvalues(vals)
    return (np.array([np.mean(vals[idx]) for idx in clusters]),
            _projectors(vecs[None])[0], vals, vecs, clusters)


def _positive_betas(betas) -> np.ndarray:
    """The inverse temperatures as an array, each 0 < beta < inf."""
    beta = np.asarray(betas, dtype=float)
    if not np.all((beta > 0) & (beta < np.inf)):
        raise ValueError("beta must be positive and finite")
    return beta


@record(eq=False)
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
        # NaN fails every comparison, so this holds for finite values only
        if np.any(~(np.abs(np.concatenate([outcomes, probs])) < np.inf)):
            raise ConstructionError("outcomes and probabilities must be finite")
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


def tpms_distribution(rho0, map_t: np.ndarray, o0: np.ndarray,
                      ot: np.ndarray) -> list[OutcomeDistribution]:
    """Distributions of o_m(t) - o_n(0) under the two-point scheme, one per
    initial state: each state of a (B, d, d) stack, checked here (a
    ConstructionError names the first that is not a state) or, given a 1-d
    sequence of betas (each 0 < beta < inf), each Gibbs state e^{-beta O0} / Z,
    as `run` writes them. `o0` and `ot` are the (d^2,) real basis
    coordinates of the first and second observable, and `map_t` is a row of
    `MapTrajectory.maps`, (d^2, d^2); a ConstructionError names the first
    argument whose shape does not fit o0's.

    All (n, m) cluster pairs are enumerated, zero-probability outcomes
    included; outcome values agreeing within the clustering tolerance are
    merged. No diagonality of rho0 in the O0 eigenbasis is required, but the
    initial measurement dephases the state in that basis, and
    `initial_coherence` reports how much was destroyed. Given betas, each
    branch Pi_n rho Pi_n is sum_{i in n} w_i |i><i| over the Gibbs
    populations w_i of the cluster's eigenvectors, so a small population
    keeps its relative accuracy (from a matrix it carries an absolute error
    of about eps, which e^{beta o_n} in `exp_average` then multiplies). The
    branches Phi_t[Pi_n rho Pi_n] and their traces against Pi_m(t) are sums
    of basis coordinates that take each state alone.
    """
    states, d = np.asarray(rho0), math.isqrt(np.size(o0))
    for what, shape, expect in (
            ("o0", np.shape(o0), (d * d,)), ("ot", np.shape(ot), (d * d,)),
            ("map_t", np.shape(map_t), (d * d, d * d)),
            ("rho0", states.shape, states.shape[:1] + (d, d))):
        if shape != expect and (what != "rho0" or states.ndim != 1):
            raise ConstructionError(f"{what} has shape {shape}, but o0 of "
                                    f"shape {np.shape(o0)} needs {expect}")
    out0, proj0, vals0, vecs0, clusters0 = _measurement(o0)
    if states.ndim == 1:   # betas
        w = _gibbs_weights(vals0, _positive_betas(states)[:, None])
        kept = np.array([(w[:, idx, None] * proj0[idx]).sum(axis=1)
                         for idx in clusters0])   # (n, state, d^2)
        coherence = np.zeros(states.size)
    else:
        states = _state_stack(states, what=lambda k: f"state {k}")
        p0 = np.array([vecs0[:, idx] @ vecs0[:, idx].conj().T
                       for idx in clusters0])[:, None]
        kept = p0 @ states @ p0  # (n, state, d, d)
        coherence = np.linalg.norm(states - kept.sum(axis=0), axis=(-2, -1))
        kept = coordinates(kept)
    outt, projt, _, _, clusterst = _measurement(ot)
    projt = np.array([projt[idx].sum(axis=0) for idx in clusterst])
    # Tr{Pi_m Phi_t[X]} = c(Pi_m) . R c(X) for Hermitian X, c coordinates
    branches = np.einsum("ab,nsb->nsa", map_t, kept)
    probs = np.einsum("ma,nsa->nms", projt, branches)
    raw_x = (outt[None, :] - out0[:, None]).ravel()
    order = np.argsort(raw_x, kind="stable")
    raw_x, raw_p = raw_x[order], probs.reshape(-1, kept.shape[1])[order]
    scale = max(1.0, float(np.ptp(out0)), float(np.ptp(outt)))
    dists = []
    for k, state_p in enumerate(raw_p.T):
        xs: list[float] = []
        ps: list[float] = []
        for x, p in zip(raw_x, state_p):
            if xs and x - xs[-1] <= CLUSTER_TOL * scale:
                # weighted merge keeps the outcome value consistent
                tot = ps[-1] + p
                if tot > 0:
                    xs[-1] = (xs[-1] * ps[-1] + x * p) / tot
                ps[-1] = tot
            else:
                xs.append(float(x))
                ps.append(float(p))
        dists.append(OutcomeDistribution(
            outcomes=np.array(xs), probs=np.array(ps),
            initial_coherence=float(coherence[k])))
    return dists


def exp_average(dist: OutcomeDistribution, beta: float) -> float:
    """<e^{-beta x}> over the distribution."""
    return float(np.dot(dist.probs, np.exp(-beta * dist.outcomes)))


_COLUMNS = ("lambda_u", "lambda_w", "lambda_w_bound", "exp_avg_w",
            "exp_avg_q", "delta_F_bar", "mean_w", "dissipated_bound")
"""The per-row report columns after t and beta, in CSV order."""


def _check_invariants(r, tol: float) -> None:
    """Raise ConstructionError at the first row where a column is NaN, the
    two evaluation routes of <e^{-beta w}> disagree or lambda_w exceeds its
    bound (an infinite value is compared as it is).

    `r` is a FluctuationReport (scalar fields) or a FluctuationTable (one
    array per field); the message names the row by its time.
    """
    names = ("time", "lambda_w", "lambda_w_bound", "exp_avg_w", "delta_F_bar")
    cols = [np.atleast_1d(getattr(r, name)) for name in names]
    t, lw, bound, avg, dfb = cols
    nan = np.isnan(cols[1:])
    expect = lw * np.exp(-r.beta * dfb)
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN gap, which passes
        gap = np.abs(avg - expect)
    routes = gap > tol * np.maximum(1.0, np.abs(expect))
    over = lw > bound + tol
    bad = np.flatnonzero(nan.any(axis=0) | routes | over)
    if bad.size == 0:
        return
    k = bad[0]
    where = f"at t = {t[k]:.17g}, beta = {r.beta:.17g}"
    if nan[:, k].any():
        raise ConstructionError(f"{where}: {names[1 + nan[:, k].argmax()]} "
                                "is NaN")
    if routes[k]:
        raise ConstructionError(
            f"{where}: exp average {avg[k]} != lambda * e^(-beta deltaF) "
            f"{expect[k]}")
    raise ConstructionError(
        f"{where}: lambda_w {lw[k]} exceeds its bound {bound[k]}")


@record
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


@record(eq=False)
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


def _initial_states(pipeline, betas) -> tuple[np.ndarray, np.ndarray]:
    """K(0)'s (1, d) eigenvalues, and its Gibbs states per beta, rho(0)."""
    k_vals, k_vecs = np.linalg.eigh(from_coordinates(pipeline.k[:1]))
    return k_vals, _gibbs_stack(k_vals, k_vecs, betas,
                                pipeline.times[[0] * len(betas)])


def fluctuation_tables(pipeline, betas) -> list[FluctuationTable]:
    """One FluctuationTable per beta at every grid row of a ThermoPipeline,
    beta on a leading axis.

    K(t), P(t) and O_w(t) are diagonalized on every row, and the
    diagonals of Phi_t[1] and Phi_t[1/d] in their eigenbases are weighted
    with the Gibbs populations of K(t) (the three Lambda_u routes)
    and with e^{-beta O_w(t)} (Lambda_w); the diagonals of Phi_t[rho(0)] in
    the eigenbasis of P(t) with e^{-beta P(t)}. Both exponentials are
    checked for overflow, naming the first failing beta in the order given.
    <e^{-beta w}> = Tr{e^{-beta O_w(t)} Phi_t[1]} / Z(0) is evaluated on its
    own, so `check_invariants` compares two routes.
    """
    beta = _positive_betas(betas)
    times, maps = pipeline.times, pipeline.traj.maps
    b = beta[:, None]  # against the (B, n) columns

    k0_vals, rho0 = _initial_states(pipeline, beta)
    z0 = np.sum(np.exp(-b * k0_vals[0]), axis=-1)[:, None]
    (k_vals, k_vecs), (p_vals, p_vecs), (w_vals, w_vecs) = (
        np.linalg.eigh(from_coordinates(x))
        for x in (pipeline.k, pipeline.p, pipeline.w))
    zt = np.sum(np.exp(-b[..., None] * k_vals), axis=-1)
    gibbs = _gibbs_weights(k_vals, b[..., None])
    # in the eigenbasis |k> of K(t): <k|Phi_t[1]|k>, d <k|Phi_t[1/d]|k> and
    # Tr{Phi_t^dagger[|k><k|]} from the map's images of the |i><i|; 1 has
    # the coordinates sqrt(d) e_0, so Phi_t[1] is a column of the map
    d = k_vecs.shape[-1]
    phi_id, phi_mixed = (maps[:, :, 0] * f for f in (d**0.5, d**-0.5))
    units = _projectors(np.eye(d)[None])[0]  # the |i><i|
    images = (maps.reshape(-1, d * d) @ units.T).reshape(
        maps.shape[:2] + (d,)).sum(axis=-1)  # sum over i
    routes = np.einsum("nka,mna->mnk", _projectors(k_vecs),
                       np.stack([phi_id, phi_mixed, images]))
    direct, mixed, adj = ((gibbs * a).sum(axis=-1)
                          for a in (routes[0], d * routes[1], routes[2]))
    residual = np.ptp([direct, mixed, adj], axis=0)  # largest disagreement

    phi_w = np.einsum("nka,na->nk", _projectors(w_vecs), phi_id)
    exp_w = (_boltzmann(w_vals, beta, times, "O_w") * phi_w).sum(axis=-1)
    phi_max = np.linalg.eigvalsh(from_coordinates(phi_id))[:, -1]
    p_max = p_vals[:, -1]
    # rho_t = Phi_t[rho(0)] per state, as (B, n, d^2) coordinates, summed
    # as `mean_change` sums it
    r0 = np.array([coordinates(r) for r in rho0])
    rho_t = np.einsum("nab,sb->sna", maps, r0)
    exp_q = (_boltzmann(p_vals, beta, times, "P") * np.einsum(
        "nka,bna->bnk", _projectors(p_vecs), rho_t)).sum(axis=-1)
    mean_w = _mean_changes(pipeline.w, rho_t, pipeline.w[0], r0)
    columns = (direct, exp_w / zt, np.exp(b * p_max) * phi_max, exp_w / z0,
               exp_q, -np.log(zt / z0) / b, mean_w,
               -p_max - np.log(phi_max) / b, residual)  # fields after beta
    return [FluctuationTable(times, x, *row)
            for x, *row in zip(beta.tolist(), *columns)]


def fluctuation_table(pipeline, beta: float) -> FluctuationTable:
    """The report of one beta: the one-beta case of `fluctuation_tables`.
    Each call diagonalizes anew; for many betas, call that one once."""
    return fluctuation_tables(pipeline, [beta])[0]


def fluctuation_report(pipeline, i_t: int, beta: float) -> FluctuationReport:
    """The report row at grid index i_t of the whole grid's
    `fluctuation_table`, which each call computes anew."""
    return fluctuation_table(pipeline, beta).row(i_t)
