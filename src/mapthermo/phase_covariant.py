"""Analytic engine for phase-covariant qubit dynamics.

A phase-covariant qubit evolution is generated by a frequency omega(t),
excitation/decay rates gamma_plus(t), gamma_minus(t), and a dephasing rate
gamma_z(t). With kappa = gamma_plus + gamma_minus and xi = gamma_plus -
gamma_minus, the dynamical map acts on the Pauli basis (identity, sx, sy, sz)
as the transfer matrix

        [ 1   0   0    0     ]
        [ 0   a  -b    0     ]          a = d_perp cos(Theta)
        [ 0   b   a    0     ]          b = d_perp sin(Theta)
        [ c   0   0  d_par   ]

with I(t) = int kappa, Theta(t) = int omega, d_par = e^{-I},
d_perp = e^{-I/2 - 2 int gamma_z}, and c(t) = e^{-I(t)} J(t) where
J(t) = int_0^t xi(s) e^{I(s)} ds. J's integrand grows exponentially, so c is
accumulated directly in the rescaled form (every stored term carries a
non-positive exponent); J is reported as c * e^I for inspection.

On top of the map coefficients the module evaluates the path-dependent
thermodynamics in closed form. The path operator is P(t) = P0 * identity +
P3 * sz with

    P3 = (1/2) int omega d_par' ds / d_par
    P0 = (1/2) int omega c' ds - c P3

(primes are time derivatives), and the work observable is O_w = W0 * identity
+ W3 * sz with W0 = -P0, W3 = omega(t)/2 - P3. The work correction factor and
its bound then have closed forms (see `pc_lambda_w`), as do the exact mean
work and the equilibrium free energy difference. These closed forms are the
oracle against which the generic map-level pipeline is verified. They read
map coefficients, not rates: only the fields times, omega, c, dc, d_par and
dd_par of `coeffs`, which `pc_integrals` integrates from rates and
`pc_coefficients` reads from any phase-covariant qubit trajectory.

All cumulative integrals use the shared composite-Simpson policy from
`quadrature`, so the analytic and generic routes share one discretization.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import ConfigError, ConstructionError
from .quadrature import (cumulative_exp_weighted, cumulative_simpson,
                         grid_spacing)
from .records import record
from .trajectory import MapTrajectory, map_derivatives


def _eval_on(f: Callable, times: np.ndarray) -> np.ndarray:
    """A vectorized time function on the grid; a scalar result is broadcast,
    any other shape raises ValueError."""
    return np.broadcast_to(np.asarray(f(times), float), times.shape)


def constant_rate(value: float) -> Callable:
    """The time function t -> value, evaluated on scalars or grids."""
    return lambda t: np.full_like(np.asarray(t, dtype=float), value)


@record
class PCRates:
    """Time-dependent generator data for a phase-covariant qubit.

    The rates may go negative (time-local generators of non-Markovian maps
    do); nothing here requires positivity.
    """

    omega: Callable
    gamma_plus: Callable
    gamma_minus: Callable
    gamma_z: Callable = constant_rate(0.0)


@record(eq=False)
class PCMapCoefficients:
    """Map coefficients, their time derivatives dc and dd_par, and rate
    samples on the grid (all arrays of length N+1)."""

    times: np.ndarray
    omega: np.ndarray
    kappa: np.ndarray
    xi: np.ndarray
    gamma_z: np.ndarray
    I: np.ndarray
    J: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d_par: np.ndarray
    d_perp: np.ndarray
    dc: np.ndarray
    dd_par: np.ndarray


@record(eq=False)
class PCThermo:
    """Path-dependent thermodynamic scalars on the grid."""

    times: np.ndarray
    P0: np.ndarray
    P3: np.ndarray
    W0: np.ndarray
    W3: np.ndarray


def pc_integrals(rates: PCRates, times: np.ndarray) -> PCMapCoefficients:
    """Cumulative integrals of the rates and the resulting map coefficients
    at every grid point."""
    t = np.asarray(times, dtype=float)
    h = grid_spacing(t)
    om = _eval_on(rates.omega, t)
    gp = _eval_on(rates.gamma_plus, t)
    gm = _eval_on(rates.gamma_minus, t)
    gz = _eval_on(rates.gamma_z, t)
    kappa = gp + gm
    xi = gp - gm
    I = cumulative_simpson(kappa, h)
    # e^I overflows within one step where the rates times the step pass the
    # range of a double: there the rescaled integral c loses every earlier
    # term. Past that, J = c e^I is inf or nan by design, and quietly.
    with np.errstate(over="ignore", invalid="ignore"):
        step = np.flatnonzero(~np.isfinite(np.exp(np.diff(I))))
        if step.size:
            i = step[0] + 1
            raise ConstructionError(
                f"J = c e^I overflows at t = {t[i]:.6g}: the integrated "
                f"rate I grows by {I[i] - I[i - 1]:.3e} in one step")
        theta = cumulative_simpson(om, h)
        Gz = cumulative_simpson(gz, h)
        c = cumulative_exp_weighted(xi, I, h)
        d_par = np.exp(-I)
        d_perp = np.exp(-I / 2.0 - 2.0 * Gz)
        a = d_perp * np.cos(theta)
        b = d_perp * np.sin(theta)
        return PCMapCoefficients(
            times=t, omega=om, kappa=kappa, xi=xi, gamma_z=gz, I=I,
            J=c * np.exp(I), a=a, b=b, c=c, d_par=d_par, d_perp=d_perp,
            dc=xi - kappa * c, dd_par=-kappa * d_par)


def pc_thermo(coeffs: PCMapCoefficients) -> PCThermo:
    """The path-operator and work-observable components."""
    h = grid_spacing(coeffs.times)
    P3 = (0.5 * cumulative_simpson(coeffs.omega * coeffs.dd_par, h)
          / coeffs.d_par)
    P0 = 0.5 * cumulative_simpson(coeffs.omega * coeffs.dc, h) - coeffs.c * P3
    return PCThermo(times=coeffs.times, P0=P0, P3=P3, W0=-P0,
                    W3=coeffs.omega / 2.0 - P3)


def pc_transfer_matrices(a, b, c, d_par, r00: float = 1.0) -> np.ndarray:
    """Pauli transfer matrices with the phase-covariant pattern

        [ r00  0   0    0    ]
        [ 0    a  -b    0    ]
        [ 0    b   a    0    ]
        [ c    0   0  d_par  ]

    stacked over the broadcast shape of the entries: (N+1, 4, 4) for grid
    arrays, (4, 4) for scalars. r00 is 1 for maps and 0 for their time
    derivatives and for generators.
    """
    a, b, c, d_par = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (a, b, c, d_par)))
    r = np.zeros(a.shape + (4, 4))
    r[..., 0, 0] = r00
    r[..., 1, 1] = a
    r[..., 1, 2] = -b
    r[..., 2, 1] = b
    r[..., 2, 2] = a
    r[..., 3, 0] = c
    r[..., 3, 3] = d_par
    return r


def pc_generator_transfer_matrix(omega, kappa, xi, gamma_z) -> np.ndarray:
    """Pauli transfer matrix of the phase-covariant GKSL generator; a stack
    when the rates are grid arrays."""
    damp = np.asarray(kappa) / 2.0 + 2.0 * np.asarray(gamma_z)
    return pc_transfer_matrices(-damp, omega, xi, -np.asarray(kappa), r00=0.0)


PC_PATTERN_TOL = 1e-7


@record(eq=False)
class PCMapEntries:
    """Transfer-matrix entries a, b, c, d_par of a phase-covariant qubit
    trajectory and their time derivatives, as `pc_coefficients` reads them.
    The rates, functions of these alone through the generator L = Mdot
    M^{-1}, are lazy: 0/0 where a map is singular. map_residual is the maps'
    largest deviation from the pattern, generator_residual that of L from
    its form built from the rates (the maps must be invertible); both stay
    at rounding level when the trajectory really is phase covariant."""

    times: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d_par: np.ndarray
    da: np.ndarray
    db: np.ndarray
    dc: np.ndarray
    dd_par: np.ndarray
    map_residual: float

    @cached_property
    def omega(self) -> np.ndarray:
        """Splitting (a db - b da)/(a^2 + b^2)."""
        return ((self.a * self.db - self.b * self.da)
                / (self.a ** 2 + self.b ** 2))

    @cached_property
    def kappa(self) -> np.ndarray:
        return -self.dd_par / self.d_par

    @cached_property
    def xi(self) -> np.ndarray:
        return self.dc + self.kappa * self.c

    @cached_property
    def gamma_z(self) -> np.ndarray:
        damp = (-(self.da * self.a + self.db * self.b)
                / (self.a ** 2 + self.b ** 2))
        return 0.5 * (damp - 0.5 * self.kappa)

    @cached_property
    def gamma_plus(self) -> np.ndarray:
        return 0.5 * (self.kappa + self.xi)

    @cached_property
    def gamma_minus(self) -> np.ndarray:
        return 0.5 * (self.kappa - self.xi)

    @cached_property
    def generator_residual(self) -> float:
        l_ptm = (pc_transfer_matrices(self.da, self.db, self.dc, self.dd_par,
                                      r00=0.0)
                 @ np.linalg.inv(pc_transfer_matrices(self.a, self.b, self.c,
                                                      self.d_par)))
        l_pc = pc_generator_transfer_matrix(self.omega, self.kappa, self.xi,
                                            self.gamma_z)
        return float(np.max(np.abs(l_ptm - l_pc)))

    def as_rates(self) -> PCRates:
        """Callable rates that reproduce the grid samples exactly and
        interpolate linearly in between."""
        return PCRates(*(partial(np.interp, xp=self.times, fp=samples)
                         for samples in (self.omega, self.gamma_plus,
                                         self.gamma_minus, self.gamma_z)))


def pc_coefficients(traj: MapTrajectory) -> PCMapEntries:
    """The entries of a qubit trajectory's phase-covariant transfer matrices
    and of their time derivatives (the analytic ones it carries, or
    `map_derivatives`' stencils). Raises ConfigError when the trajectory is
    not a qubit's or not phase covariant to within PC_PATTERN_TOL."""
    if traj.dim != 2:
        raise ConfigError(f"phase-covariant coefficients need a qubit "
                          f"trajectory, not d = {traj.dim}")
    r = traj.maps
    # off the pattern of r11, r21, r30, r33: every entry it leaves 0, and
    # r22 - r11, r12 + r21, r00 - 1
    map_residual = float(np.abs(r - pc_transfer_matrices(
        r[:, 1, 1], r[:, 2, 1], r[:, 3, 0], r[:, 3, 3])).max())
    if map_residual > PC_PATTERN_TOL:
        raise ConfigError(
            f"trajectory is not phase covariant: pattern residual "
            f"{map_residual:.3e} exceeds {PC_PATTERN_TOL:.0e}")
    dr = map_derivatives(traj)
    return PCMapEntries(
        times=traj.times, a=0.5 * (r[:, 1, 1] + r[:, 2, 2]),
        b=0.5 * (r[:, 2, 1] - r[:, 1, 2]), c=r[:, 3, 0], d_par=r[:, 3, 3],
        da=dr[:, 1, 1], db=dr[:, 2, 1], dc=dr[:, 3, 0], dd_par=dr[:, 3, 3],
        map_residual=map_residual)


def pc_trajectory(rates: PCRates, times: np.ndarray,
                  derivative_source: str = "analytic"):
    """Build a MapTrajectory from phase-covariant rates.

    With derivative_source "analytic" each grid point also carries
    dPhi/dt = L(t) Phi(t) built from the exact rate values, which removes
    stencil error from the downstream generator extraction. Returns
    (trajectory, coefficients).
    """
    coeffs = pc_integrals(rates, times)
    r = pc_transfer_matrices(coeffs.a, coeffs.b, coeffs.c, coeffs.d_par)
    dr = None
    if derivative_source == "analytic":
        dr = pc_generator_transfer_matrix(coeffs.omega, coeffs.kappa,
                                          coeffs.xi, coeffs.gamma_z) @ r
    elif derivative_source != "finite_difference":
        raise ValueError(f"unknown derivative_source {derivative_source!r}")
    return MapTrajectory(times=coeffs.times, maps=r, derivatives=dr), coeffs


def _log_cosh(x: np.ndarray) -> np.ndarray:
    """log(cosh(x)) without overflow."""
    ax = np.abs(np.asarray(x, dtype=float))
    return ax + np.log1p(np.exp(-2.0 * ax)) - np.log(2.0)


def pc_lambda_w(thermo: PCThermo, coeffs: PCMapCoefficients, beta: float,
                ) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form work correction factor and its bound, on the whole grid.

    lambda = e^{-beta W0} [cosh(beta W3) - c sinh(beta W3)] / cosh(beta omega/2)
    bound  = (1 + |c|) e^{beta (P0 + |P3|)}

    where 1 + |c| is the largest eigenvalue of the map applied to the
    identity and P0 + |P3| the largest eigenvalue of the path operator.
    """
    bw3 = beta * thermo.W3
    log_num = -beta * thermo.W0 + _log_cosh(bw3) + np.log1p(
        -coeffs.c * np.tanh(bw3))
    lam = np.exp(log_num - _log_cosh(beta * coeffs.omega / 2.0))
    bound = (1.0 + np.abs(coeffs.c)) * np.exp(beta * (thermo.P0 + np.abs(thermo.P3)))
    return lam, bound


def pc_lambda_u(coeffs: PCMapCoefficients, beta: float) -> np.ndarray:
    """Internal-energy correction factor: Tr{rho_Gibbs(t) Phi_t[identity]}
    for the instantaneous Gibbs state of omega(t) sz / 2."""
    return 1.0 - coeffs.c * np.tanh(beta * coeffs.omega / 2.0)


def pc_mean_work_and_deltaF(thermo: PCThermo, coeffs: PCMapCoefficients,
                            beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean work and equilibrium free-energy difference on the grid.

    mean_w(t) = (v_z e^{-I} + c) W3 + W0 - (omega(0)/2) v_z with
    v_z = tanh(-beta omega(0)/2) the initial Gibbs population bias, and
    deltaF(t) = -(1/beta) ln[cosh(beta omega(t)/2) / cosh(beta omega(0)/2)].
    """
    omega0 = coeffs.omega[0]
    v_z = float(np.tanh(-beta * omega0 / 2.0))
    mean_w = (v_z * coeffs.d_par + coeffs.c) * thermo.W3 + thermo.W0 \
        - 0.5 * omega0 * v_z
    delta_F = -(_log_cosh(beta * coeffs.omega / 2.0)
                - _log_cosh(beta * omega0 / 2.0)) / beta
    return mean_w, delta_F


def pc_dissipated_bound(thermo: PCThermo, coeffs: PCMapCoefficients,
                        beta: float) -> np.ndarray:
    """Closed-form lower bound on the mean dissipated work:
    mean_w - deltaF >= -P0 - |P3| - (1/beta) ln(1 + |c|)."""
    return -thermo.P0 - np.abs(thermo.P3) - np.log1p(np.abs(coeffs.c)) / beta

