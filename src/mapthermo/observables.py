"""Path-dependent thermodynamic observables built from a map trajectory.

The central object is the path operator

    P(t) = int_0^t  Phi_{tau,t}^dagger [ D_tau^dagger [ K(tau) ] ]  d tau

with K(tau) the effective Hamiltonian and D_tau the dissipator from the
minimal-dissipation split of the time-local generator. P(t) is the heat
observable and carries all path dependence of the work observable; for
unitary evolutions and for pure decoherence it vanishes identically.

Writing Phi_{tau,t} = Phi_tau o Phi_t^{-1} lets the integrand be cached.
It needs no dissipator: with L_tau = dPhi_tau/dtau o Phi_tau^{-1} and
D_tau = L_tau + i[K(tau), .], the commutator part of D_tau^dagger
annihilates K(tau), so

    g(tau) = Phi_tau^dagger[ D_tau^dagger[ K(tau) ] ]
           = Phi_tau^dagger[ L_tau^dagger[ K(tau) ] ]
           = dPhi_tau/dtau^dagger[ K(tau) ].

g is accumulated with the shared cumulative Simpson rule and the single
factor (Phi_t^{-1})^dagger is applied once per target time, all as stacks
over the grid, so a whole-grid evaluation needs one batched inversion.

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
bounds on <e^{-beta w}> that follow from the Golden-Thompson inequality,
evaluated for a whole stack of protocols U(t), H(t) at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .dynamics import MapTrajectory, generator_splits, map_derivatives
from .errors import ConstructionError, NoMatchingBeta
from .operators import (
    COND_THRESHOLD_DEFAULT,
    HERMITICITY_TOL,
    DensityMatrix,
    HermitianOperator,
    _diagonals,
    _exp_stack,
    adjoint_apply_stack,
    dagger,
    eig_hermitian,
    hermitian_stack,
    partition_function,
    stack_blocks,
    vec,
)
from .quadrature import cumulative_simpson

HERMITIZE_TOL = 1e-9
MATCH_BETA_RTOL = 1e-10
# ln rho(0) of a coherent state with a smaller eigenvalue is too inaccurate
# for the two routes to <e^{-beta w}> to agree to 1e-9
COHERENT_EIGENVALUE_FLOOR = 1e-9


class Convention(Enum):
    """Where the initial-condition freedom puts the measured operators."""

    TWO_POINT_ENERGY_FIRST = "two_point_energy_first"
    SINGLE_MEASURE_FINAL = "single_measure_final"
    SINGLE_MEASURE_INITIAL = "single_measure_initial"


@dataclass(frozen=True, eq=False)
class ObservableSeries:
    """One Hermitian operator per grid time, stored as one read-only
    (N+1, d, d) stack `ops` (taken as Hermitian, as the pipeline produces
    it); `series[i]` is the HermitianOperator at times[i].

    Two encodings exist. "per_time" (the default): ops[i] is the operator
    measured at times[i] within a single protocol. "per_duration_initial"
    (the single_measure_initial convention): the series is indexed by
    protocol duration, ops[i] is the *initial* operator of the protocol that
    ends at times[i], and that protocol's final operator is zero by
    construction.
    """

    times: np.ndarray
    ops: np.ndarray
    label: str = "custom"
    encoding: str = "per_time"

    def __post_init__(self):
        ops = self.ops.view()
        ops.setflags(write=False)
        object.__setattr__(self, "ops", ops)
        if ops.shape[0] != np.asarray(self.times).size:
            raise ConstructionError("series length does not match grid")
        if self.encoding not in ("per_time", "per_duration_initial"):
            raise ConstructionError(f"unknown encoding {self.encoding!r}")

    def __getitem__(self, i: int) -> HermitianOperator:
        return HermitianOperator(self.ops[i])


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class ThermoPipeline:
    """Effective Hamiltonians K(t) and path operators P(t) of one
    trajectory, each computed once for the whole grid and held as a
    Hermitian (N+1, d, d) stack (`K`, `P`), plus the observable series
    built from them.

    The beta-independent inputs of `fluctuations.fluctuation_tables` are
    cached here on first use, as read-only whole-grid arrays, so every
    further beta reuses them: O_w = K - P, the spectral decompositions of
    K, P and O_w, and the diagonals of Phi_t[1] and Phi_t[1/d] in those
    eigenbases (`_unit_image_terms`)."""

    def __init__(self, traj: MapTrajectory,
                 cond_threshold: float = COND_THRESHOLD_DEFAULT):
        self.traj = traj
        self.cond_threshold = cond_threshold
        self.K = generator_splits(traj, cond_threshold)
        # integrand g(tau) = dPhi_tau/dtau^dagger[ K(tau) ] (module docstring)
        g = np.empty_like(self.K)
        for blk in stack_blocks(traj.times.size, traj.dim ** 2):
            g[blk] = adjoint_apply_stack(
                map_derivatives(traj, blk.start, blk.stop), self.K[blk])
        running = cumulative_simpson(g, traj.spacing)
        self.P = hermitian_stack(
            adjoint_apply_stack(traj.inverses(cond_threshold), running),
            HERMITIZE_TOL, traj.times, "path operator")
        self.K.setflags(write=False)
        self.P.setflags(write=False)

    @property
    def times(self) -> np.ndarray:
        return self.traj.times

    @cached_property
    def _work_ops(self) -> np.ndarray:
        # exactly Hermitian: K and P are, and conjugation is exact
        return _frozen(self.K - self.P)

    @cached_property
    def _k_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(map(_frozen, np.linalg.eigh(self.K)))

    @cached_property
    def _p_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(map(_frozen, np.linalg.eigh(self.P)))

    @cached_property
    def _work_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(map(_frozen, np.linalg.eigh(self._work_ops)))

    @cached_property
    def _unit_image_terms(self) -> tuple[np.ndarray, ...]:
        """In the eigenbasis |k> of K(t), <k|Phi_t[1]|k>, d <k|Phi_t[1/d]|k>
        and Tr{Phi_t^dagger[|k><k|]} from the map's columns (the Lambda_u
        routes), <k|Phi_t[1]|k> in that of O_w(t), and lambda_max{Phi_t[1]}."""
        d = self.traj.dim
        ident = np.eye(d, dtype=complex)
        # one matrix-vector product per input and map
        phi_id, phi_mixed = (self.traj.maps @ vec(a)
                             for a in (ident, ident / d))
        columns = self.traj.maps[:, :, ::d + 1] @ np.ones(d)  # sum over i
        k_terms = _diagonals(self._k_spectrum[1],
                             np.stack([phi_id, phi_mixed, columns], axis=-1))
        phi = phi_id.reshape(-1, d, d).swapaxes(1, 2)
        return tuple(map(_frozen, (
            k_terms[..., 0], d * k_terms[..., 1], k_terms[..., 2],
            _diagonals(self._work_spectrum[1], phi_id[..., None])[..., 0],
            np.linalg.eigvalsh(0.5 * (phi + dagger(phi)))[:, -1])))

    def _series(self, ops: np.ndarray, label: str,
                encoding: str = "per_time") -> ObservableSeries:
        return ObservableSeries(self.times, ops, label=label,
                                encoding=encoding)

    def effective_hamiltonian_series(self) -> ObservableSeries:
        return self._series(self.K, "effective_hamiltonian")

    def path_operator_series(self) -> ObservableSeries:
        return self._series(self.P, "path_operator")

    def work_heat_observables(self,
                              convention: Convention = Convention.TWO_POINT_ENERGY_FIRST,
                              ) -> tuple[ObservableSeries, ObservableSeries]:
        """Work and heat observable series in the requested convention."""
        K, P = self.K, self.P
        encoding = "per_time"

        def checked(a, what):
            return hermitian_stack(a, HERMITIZE_TOL, self.times, what)

        if convention is Convention.TWO_POINT_ENERGY_FIRST:
            work, heat = K - P, P
        elif convention is Convention.SINGLE_MEASURE_FINAL:
            # shift the initial work operator to zero; heat already starts at 0
            zero = HermitianOperator(np.zeros_like(K[0]))
            work = shifted_observable(self._series(K - P, "work"), self.traj,
                                      zero, self.cond_threshold).ops
            heat = P
        elif convention is Convention.SINGLE_MEASURE_INITIAL:
            # final operators are zero; ops[i] holds the *initial* operator
            # of the duration-t_i protocol: O'_x(0) = O_x(0) - Phi_t^dagger[O_x(t)]
            maps = self.traj.maps
            work = checked(K[0] - adjoint_apply_stack(maps, K - P),
                           "work observable")
            heat = checked(-adjoint_apply_stack(maps, P), "heat observable")
            encoding = "per_duration_initial"
        else:
            raise ValueError(f"unknown convention {convention!r}")
        return (self._series(work, "work", encoding),
                self._series(heat, "heat", encoding))

    def balance_residual(self) -> float:
        """Max deviation of the operator first law for the default
        convention: O_w(t) + O_q(t) - O_w(0) - O_q(0) = K(t) - K(0)."""
        work, heat = self.work_heat_observables(Convention.TWO_POINT_ENERGY_FIRST)
        lhs = work.ops + heat.ops - work.ops[0] - heat.ops[0]
        return float(np.max(np.abs(lhs - (self.K - self.K[0]))))


def shifted_observable(series: ObservableSeries, traj: MapTrajectory,
                       new_initial: HermitianOperator,
                       cond_threshold: float = COND_THRESHOLD_DEFAULT,
                       ) -> ObservableSeries:
    """Apply the initial-condition freedom: replace the initial operator and
    correct every later one so all two-point mean changes are preserved."""
    if series.encoding != "per_time":
        raise ValueError("initial-condition shifts act on per_time series; "
                         "a per_duration_initial series mixes protocols")
    delta = series.ops[0] - new_initial.matrix
    back = adjoint_apply_stack(traj.inverses(cond_threshold),
                               np.broadcast_to(delta, series.ops.shape))
    ops = hermitian_stack(series.ops - back, HERMITIZE_TOL, series.times,
                          "shifted observable")
    ops[0] = new_initial.matrix
    return ObservableSeries(series.times, ops, label=series.label)


def mean_change(series: ObservableSeries, traj: MapTrajectory, i_t: int,
                rho0: DensityMatrix) -> float:
    """Two-point mean change <O(t)>_t - <O(0)>_0 for one initial state.

    Honors the series encoding: for per_duration_initial the final operator
    of the duration-t protocol is zero, so the mean is -<ops[i_t]>_0.
    """
    if series.encoding == "per_duration_initial":
        return float(-np.trace(series.ops[i_t] @ rho0.matrix).real)
    return float(_mean_changes(series.ops[i_t][None], traj.maps[i_t] @ vec(
        rho0.matrix), series.ops[0], rho0.matrix)[0])


def _mean_changes(ops_t: np.ndarray, vec_rho_t: np.ndarray, op0: np.ndarray,
                  rho0: np.ndarray) -> np.ndarray:
    """Tr{O_t rho_t} - Tr{O_0 rho_0} per row of a (n, d, d) stack O_t and a
    (n, d^2) stack vec(rho_t) from rho_0, or (B, n, d^2) and (B, d, d) for B
    states. Each trace is one elementwise sum, sum_ij O_ij rho_ji, in the
    same order for both terms: O_t = O_0 and rho_t = rho_0 give exactly 0."""
    d = op0.shape[-1]
    rho0_t = np.ascontiguousarray(rho0.swapaxes(-1, -2))
    return ((ops_t * vec_rho_t.reshape(*vec_rho_t.shape[:-1], d, d)).sum(
        axis=(-2, -1)) - (op0 * rho0_t).sum(axis=(-2, -1))[..., None]).real


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
               bracket: tuple[float, float] = (1e-6, 1e6)) -> float:
    """Solve Tr{H0 rho0} = Tr{H0 e^{-beta H0}}/Z by bisection, to relative
    bracket width MATCH_BETA_RTOL.

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
    while (b_hi - b_lo) > MATCH_BETA_RTOL * b_lo:
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
    matched beta is exactly rho0. That needs rho0 of full rank, and ln rho0
    loses digits as its smallest eigenvalue nears zero, so a state with an
    eigenvalue at or below COHERENT_EIGENVALUE_FLOOR raises NoMatchingBeta
    naming the eigenvalue and the floor.
    """
    vals, vecs = eig_hermitian(HermitianOperator(rho0.matrix))
    if vals[0] <= COHERENT_EIGENVALUE_FLOOR:
        raise NoMatchingBeta(
            f"initial state has eigenvalue {vals[0]:.3e} at or below "
            f"{COHERENT_EIGENVALUE_FLOOR:g}: ln rho(0), and with it "
            "H*_beta, is not accurate")
    beta = match_beta(rho0, H0)
    z0 = partition_function(H0, beta)
    log_rho = HermitianOperator((vecs * np.log(vals)) @ vecs.conj().T)
    h_star = HermitianOperator(
        -(log_rho.matrix + np.log(z0) * np.eye(rho0.dim)) / beta)
    xi = h_star - H0
    lam_min = float(eig_hermitian(xi)[0][0])
    # S(rho0 || gibbs(H0, beta)) = Tr{rho0 (ln rho0 - ln gibbs)}, and
    # ln rho0 - ln gibbs = -beta (H*_beta - H0) for a full-rank rho0
    rel_ent = float(-beta * np.trace(rho0.matrix @ xi.matrix).real)
    return CoherentInitialData(beta=beta, H_star=h_star, xi=xi,
                               lambda_min_xi=lam_min, relative_entropy=rel_ent)


@dataclass(frozen=True)
class CoherentWorkResult:
    """<e^{-beta w}> for a stack of closed protocols from a coherent initial
    state, with the chained bounds: value <= golden_thompson_bound <=
    final_bound. All but beta and lambda_min_xi are (n,) arrays."""

    beta: float
    value: np.ndarray
    golden_thompson_bound: np.ndarray
    jarzynski_factor: np.ndarray
    delta_F_bar: np.ndarray
    lambda_min_xi: float

    @property
    def final_bound(self) -> np.ndarray:
        return self.jarzynski_factor * float(np.exp(-self.beta * self.lambda_min_xi))


def coherent_work_fluctuation(data: CoherentInitialData, u: np.ndarray,
                              H: np.ndarray, times=None) -> CoherentWorkResult:
    """Exponential work average for unitary evolution from a state with
    coherences, plus each link of the bound chain, for every row of (n, d, d)
    stacks of protocol unitaries U(t) and Hamiltonians H(t):

    value = Tr{ e^{-beta (H(t) + U xi U^dagger)} } / Z(0)
    golden_thompson_bound = Tr{ e^{-beta H(t)} U e^{-beta xi} U^dagger } / Z(0)
    jarzynski_factor = e^{-beta deltaF} = Z(t)/Z(0)

    and value <= golden_thompson_bound <= jarzynski_factor *
    e^{-beta lambda_min_xi}. A single protocol is a stack of one. H(t) and
    H(t) + U xi U^dagger are checked Hermitian, and an exponential that
    overflows raises ConstructionError naming beta and the first failing
    row, by its time when `times` is given.
    """
    beta = data.beta
    z0 = partition_function(data.H_star - data.xi, beta)
    H = hermitian_stack(H, HERMITICITY_TOL, times, "H(t)")
    total = hermitian_stack(H + u @ data.xi.matrix @ dagger(u),
                            HERMITICITY_TOL, times, "H(t) + U xi U^dagger")
    h_vals, h_vecs = np.linalg.eigh(H)
    exp_h = _exp_stack(h_vals, h_vecs, beta, times, "H(t)")
    zt = np.sum(np.exp(-beta * h_vals), axis=-1)
    t_vals, t_vecs = np.linalg.eigh(total)
    value = np.trace(_exp_stack(t_vals, t_vecs, beta, times,
                                "(H(t) + U xi U^dagger)"),
                     axis1=-2, axis2=-1).real / z0
    xi_vals, xi_vecs = eig_hermitian(data.xi)
    exp_xi = _exp_stack(xi_vals[None], xi_vecs[None], beta, what="xi")[0]
    gt = np.trace(exp_h @ u @ exp_xi @ dagger(u),
                  axis1=-2, axis2=-1).real / z0
    return CoherentWorkResult(beta=beta, value=value, golden_thompson_bound=gt,
                              jarzynski_factor=zt / z0,
                              delta_F_bar=-np.log(zt / z0) / beta,
                              lambda_min_xi=data.lambda_min_xi)
