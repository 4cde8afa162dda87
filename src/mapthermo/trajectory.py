"""Dynamical maps on a time grid and their time-local generators.

A `MapTrajectory` is the single source of dynamical truth: a uniform time
grid starting at 0, the maps at every grid point as one time-batched stack
(the map at t = 0 is the identity, since system and environment start
uncorrelated), and optionally the stack of their time derivatives, each map
as its real matrix in a Hermitian operator basis, so that every layer after
it runs in real arithmetic; the complex column-stacked form, and the check
that its maps preserve Hermiticity, belong to map files (`dynamics`).
Without derivatives, second-order finite differences form them: central
stencils in the interior, one-sided three-point stencils at the endpoints.

From the trajectory this module extracts the time-local generator
L_t = dPhi_t/dt o Phi_t^{-1} and splits it into a commutator part with an
effective Hamiltonian K(t) and a dissipator D_t, using the unique splitting
whose Lindblad operators are traceless:

    K = (1/2id) sum_{j,k} [ |j><k| , L[|k><j|] ]

The formula is basis independent, which the tests exercise: for the whole
grid, `generator_splits` takes one product of the real generators with the
basis' structure constants; the per-point references it is tested against
live in `tests/reference.py`. Every inversion is gated on the condition
number, computed once per grid point, since invertibility is exactly what
fails first in strongly dissipative or resonant regimes.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import ConstructionError
from .operators import (
    COND_THRESHOLD_DEFAULT,
    _split_table,
    require_invertible,
    stack_blocks,
)
from .quadrature import grid_spacing, stencil_derivative
from .records import record

IDENTITY_TOL = 1e-12
TP_TOL = 1e-10
# `condition_flags` reporting heuristics, not physics
SPIKE_FACTOR = 10.0
SPIKE_FLOOR = 100.0


def _real_stack(a: np.ndarray, t: np.ndarray, what: str) -> np.ndarray:
    """A basis stack as a new read-only float array; a ConstructionError
    refuses a complex one, or names the first map not finite (its index)."""
    if np.iscomplexobj(a):
        raise ConstructionError(f"{what} stack is complex: column-stacked "
                                "maps convert with dynamics.basis_maps")
    bad = np.flatnonzero(~np.isfinite(a).all(axis=(1, 2)))
    if bad.size:
        raise ConstructionError(f"{what} at t = {t[bad[0]]:.6g} holds a "
                                "value that is not finite", index=int(bad[0]))
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@record(eq=False)
class MapTrajectory:
    """Dynamical maps sampled on a uniform grid t_0 = 0 < t_1 < ... < t_N.

    `maps` is one read-only real (N+1, d^2, d^2) array, each map as its
    matrix R_ab = Tr{B_a Phi_t[B_b]} in the basis of
    `operators.hermitian_basis` (for d = 2 the Pauli transfer matrix), and
    `derivatives` the optional array of analytic dPhi/dt in that basis.
    Both are real: a complex stack is refused, as column-stacked maps
    convert with `dynamics.basis_maps`. Construction is the only
    validation (grid, shapes, finite values, identity at t = 0, trace
    preservation as a first row e_0) and names the first failing time. A
    ConstructionError carries the index of the map at fault; a grid that
    is not uniform raises ValueError (`quadrature.grid_fault` finds its
    point). cond(Phi_t) and Phi_t^{-1} are computed once for the whole
    grid, on first use.
    """

    times: np.ndarray
    maps: np.ndarray
    derivatives: np.ndarray | None = None

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        maps = np.asarray(self.maps)
        if (maps.ndim != 3 or maps.shape[1] != maps.shape[2]
                or maps.shape[0] != t.size):
            raise ConstructionError(f"map stack of shape {maps.shape} for "
                                    f"{t.size} grid points")
        maps = _real_stack(maps, t, "map")
        if t[0] != 0.0:
            raise ConstructionError(f"grid must start at 0, got {t[0]}",
                                    index=0)
        grid_spacing(t)
        d2 = maps.shape[1]
        if math.isqrt(d2) ** 2 != d2:
            raise ConstructionError(f"map side {d2} is not a perfect square")
        dev0 = float(np.max(np.abs(maps[0] - np.eye(d2))))
        if dev0 > IDENTITY_TOL:
            raise ConstructionError(
                f"map at t = 0 deviates from the identity by {dev0:.3e}",
                index=0)
        # Tr{S[A]} = Tr{A} for all A  <=>  S^dagger[1] = 1  <=>  R^T e_0 = e_0
        tp = np.abs(maps[:, 0] - np.eye(d2)[0]).max(axis=1)
        bad = np.flatnonzero(tp > TP_TOL)
        if bad.size:
            i = bad[0]
            raise ConstructionError(
                f"map at t = {t[i]:.6g} is not trace-preserving "
                f"(residual {tp[i]:.3e})", index=int(i))
        object.__setattr__(self, "maps", maps)
        if self.derivatives is not None:
            derivs = np.asarray(self.derivatives)
            if derivs.shape != maps.shape:
                raise ConstructionError(
                    f"derivative stack has shape {derivs.shape}, "
                    f"expected {maps.shape}")
            derivs = _real_stack(derivs, t, "map derivative")
            object.__setattr__(self, "derivatives", derivs)

    @property
    def dim(self) -> int:
        return math.isqrt(self.maps.shape[1])

    @cached_property
    def spacing(self) -> float:
        return grid_spacing(self.times)

    @cached_property
    def condition_numbers(self) -> np.ndarray:
        """2-norm condition number of every map, one batched call."""
        return np.linalg.cond(self.maps)

    @cached_property
    def _inverse_stack(self) -> np.ndarray:
        inv = np.linalg.inv(self.maps)
        inv.setflags(write=False)
        return inv

    def inverses(self, cond_threshold: float = COND_THRESHOLD_DEFAULT,
                 ) -> np.ndarray:
        """Phi_t^{-1} at every grid point (one batched inverse); SingularMap
        at the first time whose condition number exceeds cond_threshold."""
        require_invertible(self.condition_numbers, cond_threshold, self.times)
        return self._inverse_stack


def map_derivatives(traj: MapTrajectory, lo: int = 0,
                    hi: int | None = None) -> np.ndarray:
    """dPhi/dt at grid rows lo .. hi-1 (all rows by default): the supplied
    analytic derivatives when the trajectory carries them, otherwise
    second-order finite differences (`stencil_derivative`) on the window of
    maps that the stencils of those rows read."""
    if traj.derivatives is not None:
        return traj.derivatives[lo:hi]
    n1 = traj.times.size
    hi = n1 if hi is None else hi
    # one neighbour on each side, and the grid ends where the rows reach them
    a, b = max(0, min(lo - 1, n1 - 3)), min(n1, max(hi + 1, 3))
    return stencil_derivative(traj.maps[a:b], traj.spacing)[lo - a:hi - a]


def generator_splits(traj: MapTrajectory,
                     cond_threshold: float = COND_THRESHOLD_DEFAULT,
                     ) -> np.ndarray:
    """Effective Hamiltonians of the minimal-dissipation split at every grid
    point, as their real basis coordinates Tr{B_a K(t)}: one (N+1, d^2) array.

    The double-commutator formula is linear in the real basis matrix of
    L = dPhi/dt Phi^{-1}: one product with `operators._split_table` gives
    K's coordinates. L exists only in `stack_blocks`; the dissipator is
    never formed. The per-point reference is
    `minimal_dissipation_split(generator_at(...))` in `tests/reference.py`.
    """
    inv = traj.inverses(cond_threshold)
    d = traj.dim
    k = np.empty((traj.times.size, d * d))
    for blk in stack_blocks(traj.times.size, d * d):
        L = map_derivatives(traj, blk.start, blk.stop) @ inv[blk]
        k[blk] = L.reshape(-1, d ** 4) @ _split_table(d)
    return k


def condition_flags(conds: np.ndarray,
                    cond_threshold: float = COND_THRESHOLD_DEFAULT,
                    ) -> list[str]:
    """Classify a condition-number series: "ok", "spike" or "singular".

    "singular" marks maps above the inversion threshold. "spike" marks
    isolated near-singular times: an interior point whose condition number
    exceeds both neighbors by SPIKE_FACTOR and sits above SPIKE_FLOOR
    (resonant models lose invertibility at isolated instants, which shows up
    as exactly this pattern).
    """
    conds = np.asarray(conds, dtype=float)
    spike = np.zeros(conds.shape, dtype=bool)
    c = conds[1:-1]
    spike[1:-1] = ((c > SPIKE_FLOOR) & (c > SPIKE_FACTOR * conds[:-2])
                   & (c > SPIKE_FACTOR * conds[2:]))
    singular = ~np.isfinite(conds) | (conds > cond_threshold)
    return np.where(singular, "singular",
                    np.where(spike, "spike", "ok")).tolist()


def invertibility_report(traj: MapTrajectory,
                         cond_threshold: float = COND_THRESHOLD_DEFAULT,
                         ) -> tuple[np.ndarray, list[str]]:
    """Condition number of every grid map and its condition_flags flag."""
    conds = traj.condition_numbers
    return conds, condition_flags(conds, cond_threshold)
