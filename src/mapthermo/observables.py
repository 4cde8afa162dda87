"""Path-dependent thermodynamic observables built from a map trajectory.

The central object is the path operator

    P(t) = int_0^t  Phi_{tau,t}^dagger [ D_tau^dagger [ K(tau) ] ]  d tau

with K(tau) the effective Hamiltonian and D_tau the dissipator from the
minimal-dissipation split of the time-local generator. P(t) is the heat
observable and carries all path dependence of the work observable; for
unitary evolutions and for pure decoherence it vanishes identically.

Writing Phi_{tau,t} = Phi_tau o Phi_t^{-1} lets the integrand be cached:
g(tau) = Phi_tau^dagger[D_tau^dagger[K(tau)]] is accumulated with the shared
cumulative Simpson rule and the single factor (Phi_t^{-1})^dagger is applied
once per target time, so a whole-grid evaluation needs O(N) inversions, not
O(N^2).

Work and heat observable series come in three interchangeable conventions
related by the initial-condition freedom

    O'_x(t) = O_x(t) - (Phi_t^{-1})^dagger [ O_x(0) - O'_x(0) ],

which leaves the two-point mean change <O_x(t)>_t - <O_x(0)>_0 untouched for
every initial state. The default ("two_point_energy_first") measures the
effective Hamiltonian at both ends: O_w(t) = K(t) - P(t), O_q(t) = P(t),
O_w(0) = K(0), O_q(0) = 0, and satisfies the operator first law
O_w(t) + O_q(t) - O_w(0) - O_q(0) = K(t) - K(0) exactly.

The module also hosts the closed-system constructions for initial states
with coherences: the modified Hamiltonian H*_beta whose Gibbs state is the
initial state, the deviation xi_beta = H*_beta - H(0), and the chained
bounds on <e^{-beta w}> that follow from the Golden-Thompson inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import GeneratorSplit, MapTrajectory, generator_splits
from .errors import ConstructionError, NoMatchingBeta
from .operators import (
    COND_THRESHOLD_DEFAULT,
    DensityMatrix,
    HermitianOperator,
    Superoperator,
    apply,
    eig_hermitian,
    exp_hermitian,
    gibbs_state,
    hs_adjoint,
    invert,
    log_hermitian_zero_convention,
    partition_function,
    unvec,
    vec,
)
from .quadrature import cumulative_simpson

HERMITIZE_TOL = 1e-9


class Convention(Enum):
    """Where the initial-condition freedom puts the measured operators."""

    TWO_POINT_ENERGY_FIRST = "two_point_energy_first"
    SINGLE_MEASURE_FINAL = "single_measure_final"
    SINGLE_MEASURE_INITIAL = "single_measure_initial"


@dataclass(frozen=True, eq=False)
class ObservableSeries:
    """One Hermitian operator per grid time.

    Two encodings exist. "per_time" (the default): ops[i] is the operator
    measured at times[i] within a single protocol. "per_duration_initial"
    (the single_measure_initial convention): the series is indexed by
    protocol duration, ops[i] is the *initial* operator of the protocol that
    ends at times[i], and that protocol's final operator is zero by
    construction.
    """

    times: np.ndarray
    ops: tuple[HermitianOperator, ...]
    label: str = "custom"
    encoding: str = "per_time"

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if len(self.ops) != np.asarray(self.times).size:
            raise ConstructionError("series length does not match grid")
        if self.encoding not in ("per_time", "per_duration_initial"):
            raise ConstructionError(f"unknown encoding {self.encoding!r}")

    def __getitem__(self, i: int) -> HermitianOperator:
        return self.ops[i]


def _hermitize(m: np.ndarray, tol: float = HERMITIZE_TOL) -> HermitianOperator:
    dev = float(np.max(np.abs(m - m.conj().T)))
    scale = max(1.0, float(np.max(np.abs(m))))
    if dev > tol * scale:
        raise ConstructionError(
            f"operator drifted off Hermitian by {dev:.3e} (allowed {tol * scale:.3e})")
    return HermitianOperator(0.5 * (m + m.conj().T))


class ThermoPipeline:
    """Generator splits, path operators and observable series for one
    trajectory, with all per-grid-point work done once and cached."""

    def __init__(self, traj: MapTrajectory,
                 cond_threshold: float = COND_THRESHOLD_DEFAULT):
        self.traj = traj
        self.cond_threshold = cond_threshold
        self.splits: list[GeneratorSplit] = generator_splits(traj, cond_threshold)
        h = traj.spacing
        # integrand g(tau) = Phi_tau^dagger[ D_tau^dagger[ K(tau) ] ]
        g = []
        for i, split in enumerate(self.splits):
            kvec = vec(split.K.matrix)
            dk = split.dissipator.matrix.conj().T @ kvec
            g.append(unvec(self.traj.maps[i].matrix.conj().T @ dk, traj.dim))
        self._running = cumulative_simpson(np.array(g), h)
        self._path_cache: dict[int, HermitianOperator] = {}
        self._K_series = ObservableSeries(times=traj.times,
                                          ops=tuple(s.K for s in self.splits),
                                          label="effective_hamiltonian")

    @property
    def times(self) -> np.ndarray:
        return self.traj.times

    def effective_hamiltonian_series(self) -> ObservableSeries:
        return self._K_series

    def path_operator(self, i_t: int) -> HermitianOperator:
        """P(t_i): back-propagated integrated dissipative energy flow."""
        if i_t not in self._path_cache:
            inv, _ = invert(self.traj.maps[i_t], self.cond_threshold,
                            time=float(self.traj.times[i_t]))
            raw = unvec(inv.matrix.conj().T @ vec(self._running[i_t]),
                        self.traj.dim)
            self._path_cache[i_t] = _hermitize(raw)
        return self._path_cache[i_t]

    def path_operator_series(self) -> ObservableSeries:
        ops = tuple(self.path_operator(i) for i in range(self.times.size))
        return ObservableSeries(times=self.times, ops=ops, label="path_operator")

    def work_heat_observables(self,
                              convention: Convention = Convention.TWO_POINT_ENERGY_FIRST,
                              ) -> tuple[ObservableSeries, ObservableSeries]:
        """Work and heat observable series in the requested convention."""
        n = self.times.size
        K = [s.K for s in self.splits]
        P = [self.path_operator(i) for i in range(n)]
        if convention is Convention.TWO_POINT_ENERGY_FIRST:
            work = tuple(K[i] - P[i] for i in range(n))
            heat = tuple(P[i] for i in range(n))
        elif convention is Convention.SINGLE_MEASURE_FINAL:
            # shift the initial work operator to zero; heat already starts at 0
            work = []
            for i in range(n):
                inv, _ = invert(self.traj.maps[i], self.cond_threshold,
                                time=float(self.traj.times[i]))
                back = unvec(inv.matrix.conj().T @ vec(K[0].matrix), self.traj.dim)
                work.append(_hermitize((K[i] - P[i]).matrix - back))
            work = tuple(work)
            heat = tuple(P[i] for i in range(n))
        elif convention is Convention.SINGLE_MEASURE_INITIAL:
            # final operators are zero; ops[i] holds the *initial* operator
            # of the duration-t_i protocol: O'_x(0) = O_x(0) - Phi_t^dagger[O_x(t)]
            work = []
            heat = []
            for i in range(n):
                adj = self.traj.maps[i].matrix.conj().T
                fwd_w = unvec(adj @ vec((K[i] - P[i]).matrix), self.traj.dim)
                fwd_q = unvec(adj @ vec(P[i].matrix), self.traj.dim)
                work.append(_hermitize(K[0].matrix - fwd_w))
                heat.append(_hermitize(-fwd_q))
            work = tuple(work)
            heat = tuple(heat)
        else:
            raise ValueError(f"unknown convention {convention!r}")
        encoding = ("per_duration_initial"
                    if convention is Convention.SINGLE_MEASURE_INITIAL
                    else "per_time")
        return (ObservableSeries(self.times, work, label="work",
                                 encoding=encoding),
                ObservableSeries(self.times, heat, label="heat",
                                 encoding=encoding))

    def balance_residual(self) -> float:
        """Max deviation of the operator first law for the default
        convention: O_w(t) + O_q(t) - O_w(0) - O_q(0) = K(t) - K(0)."""
        work, heat = self.work_heat_observables(Convention.TWO_POINT_ENERGY_FIRST)
        K = [s.K for s in self.splits]
        dev = 0.0
        for i in range(self.times.size):
            lhs = work[i].matrix + heat[i].matrix - work[0].matrix - heat[0].matrix
            rhs = K[i].matrix - K[0].matrix
            dev = max(dev, float(np.max(np.abs(lhs - rhs))))
        return dev


def shifted_observable(series: ObservableSeries, traj: MapTrajectory,
                       new_initial: HermitianOperator,
                       cond_threshold: float = COND_THRESHOLD_DEFAULT,
                       ) -> ObservableSeries:
    """Apply the initial-condition freedom: replace the initial operator and
    correct every later one so all two-point mean changes are preserved."""
    if series.encoding != "per_time":
        raise ValueError("initial-condition shifts act on per_time series; "
                         "a per_duration_initial series mixes protocols")
    delta = series[0].matrix - new_initial.matrix
    ops = [new_initial]
    for i in range(1, series.times.size):
        inv, _ = invert(traj.maps[i], cond_threshold, time=float(traj.times[i]))
        back = unvec(inv.matrix.conj().T @ vec(delta), traj.dim)
        ops.append(_hermitize(series[i].matrix - back))
    return ObservableSeries(series.times, tuple(ops), label=series.label)


def mean_change(series: ObservableSeries, traj: MapTrajectory, i_t: int,
                rho0: DensityMatrix) -> float:
    """Two-point mean change <O(t)>_t - <O(0)>_0 for one initial state.

    Honors the series encoding: for per_duration_initial the final operator
    of the duration-t protocol is zero, so the mean is -<ops[i_t]>_0.
    """
    if series.encoding == "per_duration_initial":
        return float(-np.trace(series[i_t].matrix @ rho0.matrix).real)
    rho_t = apply(traj.maps[i_t], rho0.matrix)
    return float((np.trace(series[i_t].matrix @ rho_t)
                  - np.trace(series[0].matrix @ rho0.matrix)).real)


@dataclass(frozen=True)
class CoherentInitialData:
    """Closed-system scheme for an initial state with coherences: the
    inverse temperature matched so the state's energy equals its Gibbs
    counterpart's, the modified Hamiltonian H*_beta whose Gibbs state is
    rho(0), and the deviation xi_beta = H*_beta - H(0)."""

    beta: float
    H_star: HermitianOperator
    xi: HermitianOperator
    lambda_min_xi: float
    relative_entropy: float
    """Relative entropy of rho(0) with respect to the beta-Gibbs state of
    H(0); recorded as a diagnostic, not asserted minimal."""


def match_beta(rho0: DensityMatrix, H0: HermitianOperator,
               bracket: tuple[float, float] = (1e-6, 1e6),
               rel_tol: float = 1e-10) -> float:
    """Solve Tr{H0 rho0} = Tr{H0 e^{-beta H0}}/Z by bisection.

    The Gibbs energy is strictly decreasing in beta, so the root is unique
    when it exists. NoMatchingBeta if the target energy lies outside the open
    spectral interval of H0 or outside the energies reachable in the bracket.
    """
    vals, _ = eig_hermitian(H0)
    target = H0.expectation(rho0)
    lo_e, hi_e = float(vals[0]), float(vals[-1])
    if float(np.ptp(vals)) < 1e-14:
        raise NoMatchingBeta("reference Hamiltonian is proportional to the identity")
    if not (lo_e < target < hi_e):
        raise NoMatchingBeta(
            f"state energy {target:.6g} is outside the open spectral interval "
            f"({lo_e:.6g}, {hi_e:.6g})")

    def gibbs_energy(beta: float) -> float:
        w = np.exp(-beta * (vals - vals.min()))
        return float(np.sum(vals * w) / np.sum(w))

    b_lo, b_hi = bracket
    e_lo, e_hi = gibbs_energy(b_lo), gibbs_energy(b_hi)
    # gibbs_energy(b_lo) is the high-temperature (largest) energy
    if not (e_hi <= target <= e_lo):
        raise NoMatchingBeta(
            f"no matching inverse temperature in bracket [{b_lo:g}, {b_hi:g}]: "
            f"reachable energies [{e_hi:.6g}, {e_lo:.6g}], target {target:.6g}")
    while (b_hi - b_lo) > rel_tol * b_lo:
        mid = np.sqrt(b_lo * b_hi)  # bisect in log space, bracket spans 12 decades
        if gibbs_energy(mid) >= target:
            b_lo = mid
        else:
            b_hi = mid
    return float(0.5 * (b_lo + b_hi))


def coherent_initial_construction(rho0: DensityMatrix, H0: HermitianOperator,
                                  ) -> CoherentInitialData:
    """Match beta by energy, then build H*_beta and xi_beta.

    H*_beta = -(1/beta) ln rho0 - (1/beta) ln Z(0), normalized so that
    Tr{e^{-beta H*_beta}} = Z(0) = Tr{e^{-beta H0}}; its Gibbs state at the
    matched beta is exactly rho0 (on the support of rho0 when the state is
    rank-deficient and the ln(0) := 0 convention kicks in).
    """
    beta = match_beta(rho0, H0)
    z0 = partition_function(H0, beta)
    log_rho = log_hermitian_zero_convention(HermitianOperator(rho0.matrix))
    h_star = HermitianOperator(
        -(log_rho.matrix + np.log(z0) * np.eye(rho0.dim)) / beta)
    xi = h_star - H0
    lam_min = float(eig_hermitian(xi)[0][0])
    # S(rho0 || gibbs(H0, beta)) = Tr{rho0 (ln rho0 - ln gibbs)}
    gibbs = gibbs_state(H0, beta)
    log_gibbs = log_hermitian_zero_convention(HermitianOperator(gibbs.matrix))
    rel_ent = float(np.trace(rho0.matrix @ (log_rho.matrix
                                            - log_gibbs.matrix)).real)
    return CoherentInitialData(beta=beta, H_star=h_star, xi=xi,
                               lambda_min_xi=lam_min, relative_entropy=rel_ent)


@dataclass(frozen=True)
class CoherentWorkResult:
    """<e^{-beta w}> for a closed protocol from a coherent initial state,
    with the chained bounds: value <= golden_thompson_bound <= final_bound."""

    beta: float
    value: float
    golden_thompson_bound: float
    jarzynski_factor: float
    delta_F_bar: float
    lambda_min_xi: float

    @property
    def final_bound(self) -> float:
        return self.jarzynski_factor * float(np.exp(-self.beta * self.lambda_min_xi))


def coherent_work_fluctuation(data: CoherentInitialData, u_t: np.ndarray,
                              H_t: HermitianOperator) -> CoherentWorkResult:
    """Exponential work average for unitary evolution from a state with
    coherences, plus each link of the bound chain.

    u_t is the protocol unitary as a plain matrix. Then

    value = Tr{ e^{-beta (H(t) + U xi U^dagger)} } / Z(0)
    golden_thompson_bound = Tr{ e^{-beta H(t)} U e^{-beta xi} U^dagger } / Z(0)
    jarzynski_factor = e^{-beta deltaF} = Z(t)/Z(0)

    and value <= golden_thompson_bound <= jarzynski_factor *
    e^{-beta lambda_min_xi}.
    """
    beta = data.beta
    H0 = data.H_star - data.xi
    z0 = partition_function(H0, beta)
    zt = partition_function(H_t, beta)
    xi_evolved = u_t @ data.xi.matrix @ u_t.conj().T
    total = HermitianOperator(H_t.matrix + xi_evolved)
    value = float(np.trace(exp_hermitian(total, -beta).matrix).real) / z0
    gt = float(np.trace(exp_hermitian(H_t, -beta).matrix @ u_t
                        @ exp_hermitian(data.xi, -beta).matrix
                        @ u_t.conj().T).real) / z0
    return CoherentWorkResult(beta=beta, value=value, golden_thompson_bound=gt,
                              jarzynski_factor=zt / z0,
                              delta_F_bar=float(-np.log(zt / z0) / beta),
                              lambda_min_xi=data.lambda_min_xi)
