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

The work and heat observables measure the effective Hamiltonian at both
ends: O_w(t) = K(t) - P(t), O_q(t) = P(t), O_w(0) = K(0), O_q(0) = 0, which
satisfy the operator first law O_w(t) + O_q(t) - O_w(0) - O_q(0) =
K(t) - K(0) exactly. Any other choice follows from the initial-condition
freedom (`shifted_observable`)

    O'_x(t) = O_x(t) - (Phi_t^{-1})^dagger [ O_x(0) - O'_x(0) ],

which leaves the two-point mean change <O_x(t)>_t - <O_x(0)>_0 untouched for
every initial state.

Operators are held as their real coordinates in the Hermitian basis of
`operators`, on which the maps act as real matrices, so they are Hermitian
by construction; complex matrices are formed only for spectra.

The closed-system constructions for initial states with coherences live in
`coherent`, which the map models never load.
"""

from __future__ import annotations

import numpy as np

from .operators import (
    COND_THRESHOLD_DEFAULT,
    _state_stack,
    adjoint_apply_stack,
    coordinates,
    stack_blocks,
)
from .quadrature import cumulative_simpson
from .trajectory import MapTrajectory, generator_splits, map_derivatives


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class ThermoPipeline:
    """Effective Hamiltonians K(t), path operators P(t) and work operators
    O_w(t) = K(t) - P(t) of one trajectory, each computed once for the
    whole grid as the read-only (N+1, d^2) coordinates `k`, `p` and `w`.
    `fluctuations.fluctuation_tables` forms the spectra it needs from them,
    on every row."""

    def __init__(self, traj: MapTrajectory,
                 cond_threshold: float = COND_THRESHOLD_DEFAULT):
        self.traj = traj
        k = generator_splits(traj, cond_threshold)
        # integrand g(tau) = dPhi_tau/dtau^dagger[ K(tau) ] (module docstring)
        g = np.empty_like(k)
        for blk in stack_blocks(traj.times.size, traj.dim ** 2):
            g[blk] = adjoint_apply_stack(
                map_derivatives(traj, blk.start, blk.stop), k[blk])
        running = cumulative_simpson(g, traj.spacing)
        p = adjoint_apply_stack(traj.inverses(cond_threshold), running)
        self.k, self.p, self.w = map(_frozen, (k, p, k - p))

    @property
    def times(self) -> np.ndarray:
        return self.traj.times

    def path_operator_series(self) -> np.ndarray:
        """The coordinates of P(t), (N+1, d^2)."""
        return self.p

    def work_heat_observables(self) -> tuple[np.ndarray, np.ndarray]:
        """The coordinates of O_w(t) and O_q(t) = P(t), each (N+1, d^2)."""
        return self.w, self.p

    def balance_residual(self) -> float:
        """Max deviation of the operator first law
        O_w(t) + O_q(t) - O_w(0) - O_q(0) = K(t) - K(0)."""
        lhs = self.w + self.p - self.w[0] - self.p[0]
        return float(np.max(np.abs(lhs - (self.k - self.k[0]))))


def shifted_observable(x: np.ndarray, traj: MapTrajectory,
                       new_initial: np.ndarray,
                       cond_threshold: float = COND_THRESHOLD_DEFAULT,
                       ) -> np.ndarray:
    """Apply the initial-condition freedom to the (N+1, d^2) coordinates of
    an observable series: replace the initial operator by the one of
    coordinates `new_initial` and correct every later one so all two-point
    mean changes are preserved."""
    shifted = x - (x[0] - new_initial) @ traj.inverses(cond_threshold)
    shifted[0] = new_initial
    return shifted


def mean_change(x: np.ndarray, traj: MapTrajectory, i_t: int,
                rho0: np.ndarray) -> float:
    """Two-point mean change <O(t)>_t - <O(0)>_0 of the observable series
    of coordinates x, for one initial state rho0, checked here."""
    r0 = coordinates(_state_stack(np.asarray(rho0)[None], what="rho(0)")[0])
    rho_t = np.einsum("ab,b->a", traj.maps[i_t], r0)  # as the tables sum it
    return float(_mean_changes(x[i_t][None], rho_t[None], x[0], r0)[0])


def _mean_changes(ops_t: np.ndarray, rho_t: np.ndarray, op0: np.ndarray,
                  rho0: np.ndarray) -> np.ndarray:
    """Tr{O_t rho_t} - Tr{O_0 rho_0} per row of (n, d^2) basis coordinates
    of O_t and rho_t from rho_0, or (n, d^2) and (B, n, d^2) for B states
    with rho_0 as (B, d^2). Each trace is one elementwise sum of
    coordinates, in the same order for both terms: O_t = O_0 and
    rho_t = rho_0 give exactly 0."""
    return (ops_t * rho_t).sum(axis=-1) - (op0 * rho0).sum(axis=-1)[..., None]
