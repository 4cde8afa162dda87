"""The closed drive from an initial state with coherences.

A qubit is driven by H(t) = (omega(t)/2) sigma_z, with the sinusoidal
omega(t) of the weak-coupling family, from the Gibbs state of H(0) rotated
about the y axis (`closed_coherent_protocol`). Its work statistics use the
closed-system constructions for initial states with coherences: the
modified Hamiltonian H*_beta whose Gibbs state is the initial state, the
deviation xi_beta = H*_beta - H(0), and the chained bounds on <e^{-beta w}>
that follow from the Golden-Thompson inequality, evaluated for a whole
stack of protocols U(t), H(t) at once.

Only the closed_coherent model, `mapthermo validate` and the scripts load
this module; the map models never call it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConstructionError, NoMatchingBeta
from .operators import (
    HERMITICITY_TOL,
    PAULI,
    _exp_stack,
    _gibbs_stack,
    _state_stack,
    dagger,
    hermitian_stack,
)
from .params import ClosedCoherentParams, drive_frequency
from .quadrature import cumulative_simpson, grid_spacing
from .records import record

MATCH_BETA_RTOL = 1e-10
# ln rho(0) of a coherent state with a smaller eigenvalue is too inaccurate
# for the two routes to <e^{-beta w}> to agree to 1e-9
COHERENT_EIGENVALUE_FLOOR = 1e-9


def closed_coherent_protocol(params: ClosedCoherentParams, times: np.ndarray,
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial state as a (2, 2) array, and the Hamiltonians H(t) and
    propagators U(t) of the drive as (N+1, 2, 2) stacks.

    H(t) commutes with itself at all times, so U(t) is a bare phase
    rotation by the accumulated angle int_0^t omega on a uniform grid."""
    times = np.asarray(times, dtype=float)
    omega = drive_frequency(params.omega0, params.delta, params.Omega)(times)
    theta = cumulative_simpson(omega, grid_spacing(times))
    hams = 0.5 * omega[:, None, None] * PAULI[3]
    unitaries = np.zeros((times.size, 2, 2), dtype=complex)
    unitaries[:, 0, 0] = np.exp(-0.5j * theta)
    unitaries[:, 1, 1] = np.exp(0.5j * theta)
    ang = params.rotation_angle
    rot = np.array([[math.cos(ang / 2.0), -math.sin(ang / 2.0)],
                    [math.sin(ang / 2.0), math.cos(ang / 2.0)]])
    base = _gibbs_stack(*np.linalg.eigh(hams[:1]), params.beta0)[0]
    rho0 = rot @ base @ rot.T
    return 0.5 * (rho0 + dagger(rho0)), hams, unitaries


@record
class CoherentInitialData:
    """Closed-system scheme for an initial state with coherences: the
    inverse temperature matched so the state's energy equals its Gibbs
    counterpart's, the modified Hamiltonian H*_beta whose Gibbs state is
    rho(0), and the deviation xi_beta = H*_beta - H(0), as (d, d) arrays."""

    beta: float
    H_star: np.ndarray
    xi: np.ndarray
    lambda_min_xi: float
    relative_entropy: float
    """Relative entropy of rho(0) with respect to the beta-Gibbs state of
    H(0); recorded as a diagnostic, not asserted minimal."""


def match_beta(rho0: np.ndarray, H0: np.ndarray,
               bracket: tuple[float, float] = (1e-6, 1e6)) -> float:
    """Solve Tr{H0 rho0} = Tr{H0 e^{-beta H0}}/Z by bisection, to relative
    bracket width MATCH_BETA_RTOL, for a state and a Hamiltonian that
    `coherent_initial_construction` has checked.

    The Gibbs energy is strictly decreasing in beta, so the root is unique
    when it exists. NoMatchingBeta if the target energy lies outside the open
    spectral interval of H0 or outside the energies reachable in the bracket.
    """
    vals = np.linalg.eigh(H0)[0]
    target = float(np.trace(H0 @ rho0).real)
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


def coherent_initial_construction(rho0: np.ndarray, H0: np.ndarray,
                                  ) -> CoherentInitialData:
    """Match beta by energy, then build H*_beta and xi_beta, after checking
    the (d, d) arrays rho0 (a state) and H0 (Hermitian, of rho0's shape)
    once; a ConstructionError names `rho(0)` or `H(0)`.

    H*_beta = -(1/beta) ln rho0 - (1/beta) ln Z(0), normalized so that
    Tr{e^{-beta H*_beta}} = Z(0) = Tr{e^{-beta H0}}; its Gibbs state at the
    matched beta is exactly rho0. That needs rho0 of full rank, and ln rho0
    loses digits as its smallest eigenvalue nears zero, so a state with an
    eigenvalue at or below COHERENT_EIGENVALUE_FLOOR raises NoMatchingBeta
    naming the eigenvalue and the floor.
    """
    rho0 = _state_stack(np.asarray(rho0)[None], what="rho(0)")[0]
    H0 = hermitian_stack(np.asarray(H0)[None], HERMITICITY_TOL, what="H(0)")[0]
    if rho0.shape != H0.shape:
        raise ConstructionError(f"rho(0) has shape {rho0.shape}, but H(0) "
                                f"has {H0.shape}")
    vals, vecs = np.linalg.eigh(rho0)
    if vals[0] <= COHERENT_EIGENVALUE_FLOOR:
        raise NoMatchingBeta(
            f"initial state has eigenvalue {vals[0]:.3e} at or below "
            f"{COHERENT_EIGENVALUE_FLOOR:g}: ln rho(0), and with it "
            "H*_beta, is not accurate")
    beta = match_beta(rho0, H0)
    z0 = float(np.sum(np.exp(-beta * np.linalg.eigh(H0)[0])))
    log_rho = (vecs * np.log(vals)) @ dagger(vecs)
    log_rho = 0.5 * (log_rho + dagger(log_rho))  # the rest stays Hermitian
    h_star = -(log_rho + np.log(z0) * np.eye(rho0.shape[0])) / beta
    xi = h_star - H0
    lam_min = float(np.linalg.eigh(xi)[0][0])
    # S(rho0 || gibbs(H0, beta)) = Tr{rho0 (ln rho0 - ln gibbs)}, and
    # ln rho0 - ln gibbs = -beta (H*_beta - H0) for a full-rank rho0
    rel_ent = float(-beta * np.trace(rho0 @ xi).real)
    return CoherentInitialData(beta=beta, H_star=h_star, xi=xi,
                               lambda_min_xi=lam_min, relative_entropy=rel_ent)


@record
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
    e^{-beta lambda_min_xi}. A single protocol is a stack of one. H(t) is
    checked Hermitian, and an exponential that overflows raises
    ConstructionError naming beta and the first failing row, by its time
    when `times` is given.
    """
    beta = data.beta
    h0_vals = np.linalg.eigh(data.H_star - data.xi)[0]
    z0 = float(np.sum(np.exp(-beta * h0_vals)))
    H = hermitian_stack(H, HERMITICITY_TOL, times, "H(t)")
    # U X U^dagger is Hermitian for any U when X is: symmetrize, not check
    total = H + u @ data.xi @ dagger(u)
    total = 0.5 * (total + dagger(total))
    h_vals, h_vecs = np.linalg.eigh(H)
    exp_h = _exp_stack(h_vals, h_vecs, beta, times, "H(t)")
    zt = np.sum(np.exp(-beta * h_vals), axis=-1)
    t_vals, t_vecs = np.linalg.eigh(total)
    value = np.trace(_exp_stack(t_vals, t_vecs, beta, times,
                                "(H(t) + U xi U^dagger)"),
                     axis1=-2, axis2=-1).real / z0
    xi_vals, xi_vecs = np.linalg.eigh(data.xi)
    exp_xi = _exp_stack(xi_vals[None], xi_vecs[None], beta, what="xi")[0]
    gt = np.trace(exp_h @ u @ exp_xi @ dagger(u),
                  axis1=-2, axis2=-1).real / z0
    return CoherentWorkResult(beta=beta, value=value, golden_thompson_bound=gt,
                              jarzynski_factor=zt / z0,
                              delta_F_bar=-np.log(zt / z0) / beta,
                              lambda_min_xi=data.lambda_min_xi)
