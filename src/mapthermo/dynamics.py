"""Dynamical maps on a time grid and their time-local generators.

A `MapTrajectory` is the single source of dynamical truth: a uniform time
grid starting at 0, the dynamical map at every grid point (the map at t = 0
is the identity, since system and environment start uncorrelated), and
optionally the map's time derivative at every grid point. When derivatives
are not supplied they are formed by second-order finite differences: central
stencils in the interior, one-sided three-point stencils at the endpoints.

From the trajectory this module extracts the time-local generator
L_t = dPhi_t/dt o Phi_t^{-1} and splits it into a commutator part with an
effective Hamiltonian K(t) and a dissipator D_t, using the unique splitting
whose Lindblad operators are traceless:

    K = (1/2id) sum_{j,k} [ |j><k| , L[|k><j|] ]

computed in the computational basis (the formula is basis independent, which
the tests exercise). Inverse propagators Phi_{tau,t} = Phi_tau o Phi_t^{-1}
come with condition-number monitoring, since invertibility is exactly what
fails first in strongly dissipative or resonant regimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import BoundaryStencil, ConstructionError, SingularMap
from .operators import (
    COND_THRESHOLD_DEFAULT,
    HermitianOperator,
    Superoperator,
    commutator_superop,
    condition_number,
    invert,
    unvec,
    vec,
)
from .quadrature import grid_spacing

IDENTITY_TOL = 1e-12
TP_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class MapTrajectory:
    """Dynamical maps sampled on a uniform grid t_0 = 0 < t_1 < ... < t_N.

    derivatives, when present, holds the analytic dPhi/dt matrix at each grid
    point (raw complex arrays in the same vectorized convention).
    """

    times: np.ndarray
    maps: tuple[Superoperator, ...]
    derivatives: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "maps", tuple(self.maps))
        if len(self.maps) != t.size:
            raise ConstructionError(
                f"{len(self.maps)} maps for {t.size} grid points")
        if t[0] != 0.0:
            raise ConstructionError(f"grid must start at 0, got {t[0]}")
        grid_spacing(t)
        d = self.maps[0].dim
        ident = np.eye(d * d)
        dev0 = float(np.max(np.abs(self.maps[0].matrix - ident)))
        if dev0 > IDENTITY_TOL:
            raise ConstructionError(
                f"map at t = 0 deviates from the identity by {dev0:.3e}")
        idvec = vec(np.eye(d))
        for i, s in enumerate(self.maps):
            if s.dim != d:
                raise ConstructionError("maps have inconsistent dimensions")
            tp = float(np.max(np.abs(s.matrix.conj().T @ idvec - idvec)))
            if tp > TP_TOL:
                raise ConstructionError(
                    f"map at t = {t[i]:.6g} is not trace-preserving "
                    f"(residual {tp:.3e})")
        if self.derivatives is not None:
            derivs = tuple(np.asarray(m, dtype=complex) for m in self.derivatives)
            if len(derivs) != t.size:
                raise ConstructionError("derivative count does not match grid")
            for m in derivs:
                if m.shape != (d * d, d * d):
                    raise ConstructionError("derivative matrix has wrong shape")
                m.setflags(write=False)
            object.__setattr__(self, "derivatives", derivs)

    @property
    def dim(self) -> int:
        return self.maps[0].dim

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @cached_property
    def spacing(self) -> float:
        return grid_spacing(self.times)

    @property
    def derivative_source(self) -> str:
        return "analytic" if self.derivatives is not None else "finite_difference"


def map_derivative(traj: MapTrajectory, i: int) -> np.ndarray:
    """dPhi/dt at grid index i: the supplied analytic derivative when the
    trajectory carries one, otherwise a second-order finite difference."""
    if traj.derivatives is not None:
        return traj.derivatives[i]
    n = traj.n_steps
    if n < 2:
        raise BoundaryStencil(
            "second-order stencils need at least three grid points")
    h = traj.spacing

    def m(j):
        return traj.maps[j].matrix

    if i == 0:
        return (-3.0 * m(0) + 4.0 * m(1) - m(2)) / (2.0 * h)
    if i == n:
        return (3.0 * m(n) - 4.0 * m(n - 1) + m(n - 2)) / (2.0 * h)
    return (m(i + 1) - m(i - 1)) / (2.0 * h)


def generator_at(traj: MapTrajectory, i: int,
                 cond_threshold: float = COND_THRESHOLD_DEFAULT) -> Superoperator:
    """Time-local generator L_{t_i} = dPhi/dt * Phi^{-1} at grid index i."""
    inv, _ = invert(traj.maps[i], cond_threshold, time=float(traj.times[i]))
    return Superoperator(map_derivative(traj, i) @ inv.matrix)


@dataclass(frozen=True, eq=False)
class GeneratorSplit:
    """Minimal-dissipation decomposition of a time-local generator:
    L[A] = -i[K, A] + D[A] with K traceless Hermitian."""

    K: HermitianOperator
    dissipator: Superoperator
    time: float


def minimal_dissipation_split(L: Superoperator,
                              time: float = 0.0) -> GeneratorSplit:
    """Split a generator into effective Hamiltonian and dissipator.

    K comes out of the double-commutator formula above; it is traceless by
    construction (commutators are traceless) and Hermitian whenever L
    preserves Hermiticity, which Superoperator construction guarantees.
    """
    d = L.dim
    k = np.zeros((d, d), dtype=complex)
    for j in range(d):
        for kk in range(d):
            b = unvec(L.matrix[:, kk + d * j], d)
            # [E_jk, B] accumulated row/column-wise
            k[j, :] += b[kk, :]
            k[:, kk] -= b[:, j]
    k = k / (2j * d)
    K = HermitianOperator(k)
    diss = Superoperator(L.matrix + 1j * commutator_superop(K.matrix))
    return GeneratorSplit(K=K, dissipator=diss, time=float(time))


def reassemble_generator(split: GeneratorSplit) -> Superoperator:
    """L = -i[K, .] + D, for round-trip checks."""
    return Superoperator(-1j * commutator_superop(split.K.matrix)
                         + split.dissipator.matrix)


def generator_splits(traj: MapTrajectory,
                     cond_threshold: float = COND_THRESHOLD_DEFAULT,
                     ) -> list[GeneratorSplit]:
    """Generator extraction and minimal-dissipation split at every grid point."""
    return [
        minimal_dissipation_split(generator_at(traj, i, cond_threshold),
                                  time=float(traj.times[i]))
        for i in range(traj.times.size)
    ]


def inverse_propagator(traj: MapTrajectory, i_tau: int, i_t: int,
                       cond_threshold: float = COND_THRESHOLD_DEFAULT,
                       ) -> Superoperator:
    """Phi_{tau,t} = Phi_tau o Phi_t^{-1}, propagating the state at t_t back
    to t_tau."""
    if i_tau > i_t:
        raise ValueError("i_tau must not exceed i_t")
    inv, _ = invert(traj.maps[i_t], cond_threshold, time=float(traj.times[i_t]))
    return Superoperator(traj.maps[i_tau].matrix @ inv.matrix)


@dataclass(frozen=True)
class InvertibilityRow:
    time: float
    condition_number: float
    flag: str  # "ok", "spike", or "singular"


def condition_flags(conds: np.ndarray,
                    cond_threshold: float = COND_THRESHOLD_DEFAULT,
                    spike_factor: float = 10.0,
                    spike_floor: float = 100.0) -> list[str]:
    """Classify a condition-number series: "ok", "spike" or "singular".

    "singular" marks maps above the inversion threshold. "spike" marks
    isolated near-singular times: an interior point whose condition number
    exceeds both neighbors by `spike_factor` and sits above `spike_floor`
    (resonant models lose invertibility at isolated instants, which shows up
    as exactly this pattern). The factor and floor are reporting heuristics,
    not physics.
    """
    conds = np.asarray(conds, dtype=float)
    flags = []
    for i, c in enumerate(conds):
        flag = "ok"
        if not np.isfinite(c) or c > cond_threshold:
            flag = "singular"
        elif 0 < i < conds.size - 1:
            if (c > spike_floor and c > spike_factor * conds[i - 1]
                    and c > spike_factor * conds[i + 1]):
                flag = "spike"
        flags.append(flag)
    return flags


def invertibility_report(traj: MapTrajectory,
                         cond_threshold: float = COND_THRESHOLD_DEFAULT,
                         spike_factor: float = 10.0,
                         spike_floor: float = 100.0,
                         ) -> list[InvertibilityRow]:
    """Condition number of every grid map, with condition_flags flags."""
    conds = np.array([condition_number(s) for s in traj.maps])
    flags = condition_flags(conds, cond_threshold, spike_factor, spike_floor)
    return [InvertibilityRow(float(t), float(c), flag)
            for t, c, flag in zip(traj.times, conds, flags)]


# Text import/export. One header block, then one CSV row per grid time with
# the full vectorized map (and optionally its derivative) in row-major order.

_FORMAT_TAG = "mapthermo-maps v1"


def save_map_trajectory(traj: MapTrajectory, path: str) -> None:
    """Write a trajectory to the documented text format.

    Header lines start with '#': a format tag, then
    "dim=<d> vectorization=column-stacking derivatives=<0|1>". Each data row
    holds the time followed by re,im pairs of the d^2 x d^2 map matrix in
    row-major order, then the same for the derivative when present. Floats
    are written with 17 significant digits so a round trip is exact.
    """
    d = traj.dim
    has_d = traj.derivatives is not None
    with open(path, "w") as fh:
        fh.write(f"# {_FORMAT_TAG}\n")
        fh.write(f"# dim={d} vectorization=column-stacking "
                 f"derivatives={int(has_d)}\n")
        fh.write("# row: t, re/im pairs of the map matrix (row-major)"
                 + (", re/im pairs of dmap/dt" if has_d else "") + "\n")
        for i, t in enumerate(traj.times):
            cells = [f"{t:.16e}"]
            blocks = [traj.maps[i].matrix]
            if has_d:
                blocks.append(traj.derivatives[i])
            for block in blocks:
                for z in block.reshape(-1):
                    cells.append(f"{z.real:.16e}")
                    cells.append(f"{z.imag:.16e}")
            fh.write(",".join(cells) + "\n")


def read_map_file(path: str) -> tuple[np.ndarray, list[np.ndarray],
                                      list[np.ndarray] | None]:
    """Parse the text format without constructing (or validating) a
    trajectory; used by diagnostics that must work on imperfect files."""
    times: list[float] = []
    mats: list[np.ndarray] = []
    derivs: list[np.ndarray] = []
    dim = None
    has_d = False
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith(_FORMAT_TAG):
                    continue
                if body.startswith("dim="):
                    fields = dict(part.split("=", 1) for part in body.split())
                    dim = int(fields["dim"])
                    if fields.get("vectorization") != "column-stacking":
                        raise ConstructionError(
                            f"{path}:{lineno}: unsupported vectorization "
                            f"{fields.get('vectorization')!r}")
                    has_d = fields.get("derivatives", "0") == "1"
                continue
            if dim is None:
                raise ConstructionError(f"{path}: missing dim header line")
            try:
                vals = np.array([float(x) for x in line.split(",")])
            except ValueError:
                raise ConstructionError(
                    f"{path}:{lineno}: row is not comma-separated numbers")
            per_block = 2 * dim ** 4
            expect = 1 + per_block * (2 if has_d else 1)
            if vals.size != expect:
                raise ConstructionError(
                    f"{path}:{lineno}: expected {expect} columns, got {vals.size}")
            times.append(vals[0])
            flat = vals[1:1 + per_block]
            mats.append((flat[0::2] + 1j * flat[1::2])
                        .reshape(dim * dim, dim * dim))
            if has_d:
                flat = vals[1 + per_block:]
                derivs.append((flat[0::2] + 1j * flat[1::2])
                              .reshape(dim * dim, dim * dim))
    if not times:
        raise ConstructionError(f"{path}: no data rows")
    return np.array(times), mats, (derivs if has_d else None)


def load_map_trajectory(path: str) -> MapTrajectory:
    """Read the text format and build a validated trajectory."""
    times, mats, derivs = read_map_file(path)
    maps = tuple(Superoperator(m) for m in mats)
    return MapTrajectory(times=times, maps=maps,
                         derivatives=None if derivs is None else tuple(derivs))
