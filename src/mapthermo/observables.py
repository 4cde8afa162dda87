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

Operators are held as their real coordinates in the Hermitian basis of
`operators`, on which the maps act as real matrices, so they are Hermitian
by construction; complex matrices are formed only for spectra.

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
    _projectors,
    adjoint_apply_stack,
    coordinates,
    from_coordinates,
    stack_blocks,
)
from .quadrature import cumulative_simpson


class Convention(Enum):
    """Where the initial-condition freedom puts the measured operators."""

    TWO_POINT_ENERGY_FIRST = "two_point_energy_first"
    SINGLE_MEASURE_FINAL = "single_measure_final"
    SINGLE_MEASURE_INITIAL = "single_measure_initial"


@dataclass(frozen=True, eq=False)
class ObservableSeries:
    """One Hermitian operator per grid time, stored as the read-only
    (N+1, d^2) array `coords` of its real basis coordinates; `series[i]` is
    the HermitianOperator at times[i].

    Two encodings exist. "per_time" (the default): coords[i] is the
    operator measured at times[i] within a single protocol.
    "per_duration_initial" (the single_measure_initial convention): the
    series is indexed by protocol duration, coords[i] is the *initial*
    operator of the protocol that ends at times[i], and that protocol's
    final operator is zero by construction.
    """

    times: np.ndarray
    coords: np.ndarray
    label: str = "custom"
    encoding: str = "per_time"

    def __post_init__(self):
        coords = self.coords.view()
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        if coords.shape[0] != np.asarray(self.times).size:
            raise ConstructionError("series length does not match grid")
        if self.encoding not in ("per_time", "per_duration_initial"):
            raise ConstructionError(f"unknown encoding {self.encoding!r}")

    def __getitem__(self, i: int) -> HermitianOperator:
        return HermitianOperator(from_coordinates(self.coords[i]))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class ThermoPipeline:
    """Effective Hamiltonians K(t), path operators P(t) and work operators
    O_w(t) = K(t) - P(t) of one trajectory, each computed once for the
    whole grid as the read-only (N+1, d^2) coordinates `k`, `p` and `w`,
    plus the observable series built from them.

    The beta-independent inputs of `fluctuations.fluctuation_tables` are
    cached here on first use, as read-only whole-grid arrays, so every
    further beta reuses them: the Hermitian (N+1, d, d) stacks `K` and `P`,
    the spectral decompositions of K, P and O_w, P's eigenprojectors, and
    the diagonals of Phi_t[1] and Phi_t[1/d] in those eigenbases."""

    def __init__(self, traj: MapTrajectory,
                 cond_threshold: float = COND_THRESHOLD_DEFAULT):
        self.traj = traj
        self.cond_threshold = cond_threshold
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

    @cached_property
    def K(self) -> np.ndarray:
        return _frozen(from_coordinates(self.k))

    @cached_property
    def P(self) -> np.ndarray:
        return _frozen(from_coordinates(self.p))

    @cached_property
    def _k_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(map(_frozen, np.linalg.eigh(self.K)))

    @cached_property
    def _p_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(map(_frozen, np.linalg.eigh(self.P)))

    @cached_property
    def _work_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(map(_frozen, np.linalg.eigh(from_coordinates(self.w))))

    @cached_property
    def _p_projectors(self) -> np.ndarray:
        return _frozen(_projectors(self._p_spectrum[1]))

    @cached_property
    def _unit_image_terms(self) -> tuple[np.ndarray, ...]:
        """In the eigenbasis |k> of K(t), <k|Phi_t[1]|k>, d <k|Phi_t[1/d]|k>
        and Tr{Phi_t^dagger[|k><k|]} from the map's images of the |i><i|
        (the Lambda_u routes), <k|Phi_t[1]|k> in that of O_w(t), and
        lambda_max{Phi_t[1]}."""
        d = self.traj.dim
        maps = self.traj.maps
        # 1 has the coordinates sqrt(d) e_0: Phi_t[1] is a column of the map
        phi_id, phi_mixed = (maps[:, :, 0] * f for f in (d**0.5, d**-0.5))
        units = _projectors(np.eye(d)[None])[0]  # the |i><i|
        columns = (maps.reshape(-1, d * d) @ units.T).reshape(
            maps.shape[:2] + (d,)).sum(axis=-1)  # sum over i
        direct, mixed, adj = np.einsum(
            "nka,mna->mnk", _projectors(self._k_spectrum[1]),
            np.stack([phi_id, phi_mixed, columns]))
        return tuple(map(_frozen, (
            direct, d * mixed, adj,
            np.einsum("nka,na->nk", _projectors(self._work_spectrum[1]),
                      phi_id),
            np.linalg.eigvalsh(from_coordinates(phi_id))[:, -1])))

    def _series(self, coords: np.ndarray, label: str,
                encoding: str = "per_time") -> ObservableSeries:
        return ObservableSeries(self.times, coords, label=label,
                                encoding=encoding)

    def effective_hamiltonian_series(self) -> ObservableSeries:
        return self._series(self.k, "effective_hamiltonian")

    def path_operator_series(self) -> ObservableSeries:
        return self._series(self.p, "path_operator")

    def work_heat_observables(self,
                              convention: Convention = Convention.TWO_POINT_ENERGY_FIRST,
                              ) -> tuple[ObservableSeries, ObservableSeries]:
        """Work and heat observable series in the requested convention."""
        encoding = "per_time"
        if convention is Convention.TWO_POINT_ENERGY_FIRST:
            work, heat = self.w, self.p
        elif convention is Convention.SINGLE_MEASURE_FINAL:
            # shift the initial work operator to zero; heat already starts at 0
            zero = HermitianOperator(np.zeros((self.traj.dim,) * 2))
            work = shifted_observable(self._series(self.w, "work"), self.traj,
                                      zero, self.cond_threshold).coords
            heat = self.p
        elif convention is Convention.SINGLE_MEASURE_INITIAL:
            # final operators are zero; coords[i] holds the *initial* operator
            # of the duration-t_i protocol: O'_x(0) = O_x(0) - Phi_t^dagger[O_x(t)]
            maps = self.traj.maps
            work = self.k[0] - adjoint_apply_stack(maps, self.w)
            heat = -adjoint_apply_stack(maps, self.p)
            encoding = "per_duration_initial"
        else:
            raise ValueError(f"unknown convention {convention!r}")
        return (self._series(work, "work", encoding),
                self._series(heat, "heat", encoding))

    def balance_residual(self) -> float:
        """Max deviation of the operator first law for the default
        convention: O_w(t) + O_q(t) - O_w(0) - O_q(0) = K(t) - K(0)."""
        work, heat = self.work_heat_observables(Convention.TWO_POINT_ENERGY_FIRST)
        lhs = work.coords + heat.coords - work.coords[0] - heat.coords[0]
        return float(np.max(np.abs(lhs - (self.k - self.k[0]))))


def shifted_observable(series: ObservableSeries, traj: MapTrajectory,
                       new_initial: HermitianOperator,
                       cond_threshold: float = COND_THRESHOLD_DEFAULT,
                       ) -> ObservableSeries:
    """Apply the initial-condition freedom: replace the initial operator and
    correct every later one so all two-point mean changes are preserved."""
    if series.encoding != "per_time":
        raise ValueError("initial-condition shifts act on per_time series; "
                         "a per_duration_initial series mixes protocols")
    new = coordinates(new_initial.matrix)
    coords = series.coords - (series.coords[0] - new) @ traj.inverses(
        cond_threshold)
    coords[0] = new
    return ObservableSeries(series.times, coords, label=series.label)


def mean_change(series: ObservableSeries, traj: MapTrajectory, i_t: int,
                rho0: DensityMatrix) -> float:
    """Two-point mean change <O(t)>_t - <O(0)>_0 for one initial state.

    Honors the series encoding: for per_duration_initial the final operator
    of the duration-t protocol is zero, so the mean is -<coords[i_t]>_0.
    """
    x, r0 = series.coords, coordinates(rho0.matrix)
    if series.encoding == "per_duration_initial":
        return float(-(x[i_t] * r0).sum())
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
