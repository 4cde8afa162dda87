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

The closed-system constructions for initial states with coherences live in
`coherent`, which the map models never load.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .dynamics import MapTrajectory, generator_splits, map_derivatives
from .errors import ConstructionError
from .operators import (
    COND_THRESHOLD_DEFAULT,
    DensityMatrix,
    HermitianOperator,
    _diagonals,
    adjoint_apply_stack,
    dagger,
    hermitian_stack,
    stack_blocks,
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
