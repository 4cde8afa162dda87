"""The exchange model and the rate extraction.

`jc_reduced_map` builds the exact reduced dynamics of a qubit exchanging
excitations with a single bosonic mode, phase covariant and generically
non-Markovian, from the closed block formulas with analytic time
derivatives; its parameters, like every model's, live in `params`.
`extract_pc_rates` projects a phase-covariant qubit trajectory with
invertible maps back onto rate functions (the coefficients that
`phase_covariant.pc_coefficients` reads), which exposes the non-Markovian
rate structure. The closed forms need no rates: they read the coefficients
that `jc_reduced_map` returns.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import MapTrajectory
from .errors import ConfigError, ConstructionError
from .operators import COND_THRESHOLD_DEFAULT, require_invertible
from .params import JCParams, jc_mode_count
# re-exported: the benchmark (perfbench/) imports them from this module
from .params import WeakCouplingParams, weak_coupling_rates  # noqa: F401
from .phase_covariant import (
    PCMapEntries,
    pc_coefficients,
    pc_lambda_u,
    pc_lambda_w,
    pc_thermo,
    pc_transfer_matrices,
)

# exchange-model level sum: points per fine block of the split grid,
# frequencies per chunk (nodes per matrix product, levels per Chebyshev
# recurrence), which bounds its memory, and the allowed distance of grid
# point j from j t_N / N in ulp of t_N (np.linspace grids stay within 2)
FINE_POINTS = 100
NODE_CHUNK = 2048
GRID_ULPS = 8
# Chebyshev panels of the level sum (`_chebyshev_nodes`): half-width
# PANEL_Z / t_N and PANEL_NODES nodes, so that the interpolation error per
# unit amplitude, 4 (z/2)^m / m! / (1 - z/(2m+2)), stays below 1e-16
PANEL_Z = 16.0
PANEL_NODES = 47


def _thermal_weights(params: JCParams, n_max: int) -> np.ndarray:
    q = math.exp(-params.beta * params.omega_m)  # 0 for the vacuum
    p = q ** np.arange(n_max + 1)
    return p / p.sum()


def _split_grid(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coarse and fine times of a uniform grid that starts at 0.

    With h = t_N / N, grid point j = J B + m sits at T_J + tau_m, where
    T_J = J B h and tau_m = m h, B = min(FINE_POINTS, N + 1). The coarse
    times run past t_N when B does not divide N + 1; callers drop the
    surplus. Raises ConstructionError naming the worst index when a point
    is off j h by more than GRID_ULPS ulp of t_N, since the split would
    then evaluate shifted times.
    """
    if times.ndim != 1 or times.size < 2:
        raise ConstructionError("grid needs at least two points")
    if not times[-1] > 0.0:
        raise ConstructionError(f"grid must end after 0, not at "
                                f"{times[-1]:.17g}")
    n = times.size - 1
    h = times[-1] / n
    index = np.arange(times.size)
    dev = np.abs(times - index * h)
    worst = int(np.argmax(dev))
    if not dev[worst] <= GRID_ULPS * np.spacing(abs(times[-1])):
        raise ConstructionError(
            f"grid is not uniform from 0: t[{worst}] = {times[worst]:.17g} is "
            f"off {worst} * t_N / N by {dev[worst]:.3e} (allowed "
            f"{GRID_ULPS} ulp of t_N)")
    fine = min(FINE_POINTS, times.size)
    n_coarse = -(-times.size // fine)
    return np.arange(n_coarse) * fine * h, index[:fine] * h


def _add_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """cos and sin of the sum of two angles, by angle addition.

    a and b are (cos, sin) stacks that broadcast against each other;
    returns the (cos, sin) stack of a + b.
    """
    (xa, sa), (xb, sb) = a, b
    out = np.empty((2,) + np.broadcast_shapes(xa.shape, xb.shape))
    x, s = out
    np.multiply(xa, xb, out=x)
    x -= sa * sb
    np.multiply(sa, xb, out=s)
    s += xa * sb
    return out


def _angle_factors(freqs: np.ndarray, coarse: np.ndarray, fine: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of w_k t at the coarse and at the fine times.

    Returns the (cos, sin) stacks (2, coarse, K) at the coarse times T and
    (2, K, fine) at the fine times tau. The fine times are split once more:
    with b = ceil(sqrt(B)) for B fine times, tau_m = tau_{i b} + tau_j
    (m = i b + j), so angle addition builds all B from ceil(B/b) + b
    cosines and sines per frequency.
    """
    arg = coarse[:, None] * freqs
    at_coarse = np.stack([np.cos(arg), np.sin(arg)])
    step = math.isqrt(fine.size - 1) + 1
    arg = freqs[:, None] * fine[::step]
    outer = np.stack([np.cos(arg), np.sin(arg)])[..., None]
    arg = freqs[:, None] * fine[:step]
    inner = np.stack([np.cos(arg), np.sin(arg)])[:, :, None]
    at_fine = _add_angles(outer, inner).reshape(2, freqs.size, -1)
    return at_coarse, at_fine[..., :fine.size]


def _product_sums(freqs: np.ndarray, cos_amps: np.ndarray,
                  sin_amps: np.ndarray, coarse_t: np.ndarray,
                  fine_t: np.ndarray) -> np.ndarray:
    """Sums of cosines and sines over frequencies on the split grid, one
    matrix product for all rows per NODE_CHUNK frequencies.

    Row r sums A[r, k] cos(w_k t) over the frequencies w = `freqs` for the
    rows A of `cos_amps` (the cos rows), then A[r, k] sin(w_k t) for those
    of `sin_amps`. With t = T + tau (`_split_grid`, `_angle_factors`),

        A cos(w t) = A cos(w T) cos(w tau) - A sin(w T) sin(w tau),
        A sin(w t) = A sin(w T) cos(w tau) + A cos(w T) sin(w tau),

    so the left factor holds one product of amplitude and coarse factor per
    (row, coarse time, fine factor, frequency), and the sum over
    frequencies is one matrix product with inner dimension 2 K. Returns
    (rows, coarse * fine).
    """
    n_cos = len(cos_amps)
    total = 0.0
    for lo in range(0, freqs.size, NODE_CHUNK):
        part = slice(lo, lo + NODE_CHUNK)
        (x, s), fine = _angle_factors(freqs[part], coarse_t, fine_t)
        left = np.empty((n_cos + len(sin_amps), x.shape[0], 2, x.shape[1]))
        a, b = cos_amps[:, None, part], sin_amps[:, None, part]
        np.multiply(a, x, out=left[:n_cos, :, 0])
        np.multiply(-a, s, out=left[:n_cos, :, 1])
        np.multiply(b, s, out=left[n_cos:, :, 0])
        np.multiply(b, x, out=left[n_cos:, :, 1])
        total += (left.reshape(-1, 2 * x.shape[1])
                  @ fine.reshape(2 * x.shape[1], -1)).reshape(len(left), -1)
    return total


def _chebyshev_nodes(freqs: np.ndarray, amps: np.ndarray, t_max: float,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """A family of frequencies and amplitude rows (rows, K), compressed onto
    Chebyshev nodes that give the same sums of A cos(w t) and A sin(w t)
    for t in [0, t_max].

    The frequencies are cut into panels of half-width h = z / t_max (z =
    PANEL_Z) from the lowest up. In a panel with centre c, w = c + h x with
    x in [-1, 1] and e^{i w t} = e^{i c t} e^{i zeta x}, zeta = h t <= z.
    The Chebyshev coefficients of e^{i zeta x} are 2 i^n J_n(zeta), and
    |J_n(zeta)| <= (zeta/2)^n / n!, so its interpolant at the m =
    PANEL_NODES first-kind nodes x_j errs by at most 4 (z/2)^m / m! /
    (1 - z/(2m+2)) < 1e-16: the panel's levels act, to within that times
    sum_k |A_k|, as the nodes c + h x_j with the real amplitudes B_j =
    sum_k A_k l_j(x_k) (l_j the Lagrange basis) = (2/m) sum_n' T_n(x_j) M_n
    (n = 0 halved), from the moments M_n = sum_k A_k T_n(x_k) of the
    three-term recurrence, one matrix product per panel. Where the occupied
    panels would hold at least as many nodes as levels, the levels are the
    nodes.
    """
    half = PANEL_Z / t_max
    panel = np.floor((freqs - freqs.min()) / (2.0 * half)).astype(np.intp)
    order = np.argsort(panel, kind="stable")
    panel = panel[order]
    starts = np.flatnonzero(np.diff(panel, prepend=-1))
    if starts.size * PANEL_NODES >= freqs.size:
        return freqs, amps
    centre = freqs.min() + (2.0 * panel[starts] + 1.0) * half
    x = (freqs[order]
         - np.repeat(centre, np.diff(starts, append=freqs.size))) / half
    a = amps[:, order]
    moments = np.zeros((starts.size, len(amps), PANEL_NODES))
    # one matrix product per panel, cut where a chunk of levels begins
    cuts = sorted(set(starts.tolist()).union(range(0, x.size, NODE_CHUNK)))
    for lo, hi, owner in zip(cuts, cuts[1:] + [x.size],
                             np.searchsorted(starts, cuts, "right") - 1):
        if lo % NODE_CHUNK == 0:
            base, part = lo, x[lo:lo + NODE_CHUNK]
            cheb = np.empty((PANEL_NODES, part.size))
            cheb[0], cheb[1], twice = 1.0, part, 2.0 * part
            for n in range(2, PANEL_NODES):
                np.multiply(twice, cheb[n - 1], out=cheb[n])
                cheb[n] -= cheb[n - 2]
        moments[owner] += a[:, lo:hi] @ cheb[:, lo - base:hi - base].T
    theta = math.pi * (np.arange(PANEL_NODES) + 0.5) / PANEL_NODES
    basis = np.cos(np.outer(np.arange(PANEL_NODES), theta))
    basis[0] *= 0.5
    nodes = centre[:, None] + half * np.cos(theta)
    node_amps = (moments @ basis).transpose(1, 0, 2) * (2.0 / PANEL_NODES)
    return nodes.ravel(), node_amps.reshape(len(amps), -1)


def _frequency_families(params: JCParams, p: np.ndarray,
                        ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The three frequency families of the exchange-model level sum, each
    as (frequencies, amplitude rows) over the levels or blocks.

    With x_k = cos(r_k t/2), s_k = sin(r_k t/2), alpha_k = delta/r_k:
      u_k = x_k - i alpha_k s_k,  du_k/dt = -(r_k/2) s_k - i (delta/2) x_k,
      |u_k|^2 = 1 - eps_k s_k^2,  eps_k = 4 g^2 (k+1) / r_k^2.
    In u_n u_{n-1} and its derivative, x_n x_{n-1} and s_n s_{n-1} are
    (cos w_- t +- cos w_+ t)/2, and s_n x_{n-1} and x_n s_{n-1} are
    (sin w_+ t +- sin w_- t)/2, with w_-+ = (r_n -+ r_{n-1})/2: the
    difference and the sum family carry the rows Re S, Im dS/dt (cos rows),
    Im S, Re dS/dt (sin rows) over the levels n. With s_k^2 = (1 - cos r_k
    t)/2 and s_k x_k = sin(r_k t)/2, the doubled family r_k carries the
    non-constant parts of T_ee, T_gg (cos rows) and of their derivatives
    (sin rows) over the blocks -1 .. n_max.
    """
    delta = params.omega - params.omega_m
    n_max = p.size - 1
    # level n pairs block n (upper) with n-1 (lower)
    blocks = np.arange(-1, n_max + 1)
    couple = 4.0 * params.g ** 2 * (blocks + 1.0)
    couple[-1] = 0.0  # the edge block n_max
    rabi = np.sqrt(delta ** 2 + couple)
    half = rabi / 2.0
    coupled = rabi > 0.0  # a zero Rabi frequency forces delta = 0
    alpha = np.divide(delta, rabi, out=np.zeros_like(rabi), where=coupled)
    eps = np.divide(couple, rabi ** 2, out=np.zeros_like(rabi), where=coupled)
    an, am, hn, hm = alpha[1:], alpha[:-1], half[1:], half[:-1]
    aa, ah = an * am, hn * am + an * hm
    pn, pm = hn + 0.5 * delta * an, hm + 0.5 * delta * am
    hw = 0.5 * p
    upper_lower = np.zeros((2, p.size + 1))
    upper_lower[0, 1:] = p
    upper_lower[1, :-1] = p
    weighted = 0.5 * upper_lower * eps
    return [(hn - hm, hw * np.array([1.0 - aa, ah - delta, am - an, pm - pn])),
            (hn + hm, hw * np.array([1.0 + aa, -ah - delta, -an - am,
                                     -pn - pm])),
            (rabi, np.concatenate([weighted, -weighted * rabi]))]


def jc_reduced_map(params: JCParams, times: np.ndarray,
                   ) -> tuple[MapTrajectory, PCMapEntries]:
    """Exact reduced qubit trajectory with analytic derivatives.

    Excitation number is conserved, so the joint unitary is block diagonal
    on {|e,k>, |g,k+1>} and every block integrates in closed form. Block k
    has coupling g sqrt(k+1), Rabi frequency r_k = sqrt(delta^2 + 4 g^2
    (k+1)) and mean energy c_k = (2k+1) omega_m / 2; its upper and lower
    survival amplitudes are e^{-i c_k t} u_k and e^{-i c_k t} conj(u_k) with

        u_k = cos(r_k t/2) - i delta sin(r_k t/2) / r_k.

    The reduced map is phase covariant; its transfer matrix is assembled
    from the amplitudes averaged over the thermal mode occupation p_n.
    Level n pairs the upper amplitude of block n with the lower amplitude
    of block n-1. The edge level n_max (whose outward coupling is dropped)
    and the uncoupled ground level |g,0> are blocks n_max and -1 with zero
    coupling. Since c_n - c_{n-1} = omega_m, the block phases reduce to one
    common factor,

        f = e^{-i omega_m t} S,   S = sum_n p_n u_n u_{n-1},

    and cancel in T_ee = sum_n p_n |u_n|^2 and T_gg = sum_n p_n |u_{n-1}|^2.
    Every product in these sums folds into cosines and sines of single
    angles from three frequency families (`_frequency_families`): the
    difference and the sum angles (r_n -+ r_{n-1})/2 for S and dS/dt, the
    doubled angle r_k for T_ee, T_gg and their derivatives.

    Each family is compressed onto panels of PANEL_NODES Chebyshev nodes
    (`_chebyshev_nodes`) that reproduce its levels on [0, t_N] to within
    1e-16 per unit amplitude. A family keeps its levels as the nodes where
    that would not leave fewer: few levels, or a frequency spread above
    about 2 PANEL_Z K / (PANEL_NODES t_N). The hot window's 13 816 levels
    per family become at most 20 panels; the cost grows as K PANEL_NODES
    + nodes N, not K N. The grid must be uniform from 0 (`_split_grid`,
    `_product_sums`). Returns the trajectory and its map coefficients, the
    entries it was built from, as `pc_coefficients` would read them back.
    """
    times = np.asarray(times, dtype=float)
    coarse_t, fine_t = _split_grid(times)
    p = _thermal_weights(params, jc_mode_count(params))
    diff, total, doubled = (_chebyshev_nodes(freqs, amps, times[-1]) for
                            freqs, amps in _frequency_families(params, p))
    freqs, amps = (np.concatenate(parts, axis=-1)
                   for parts in zip(diff, total))
    sums = _product_sums(freqs, amps[:2], amps[2:], coarse_t, fine_t)
    freqs, amps = doubled
    same = _product_sums(freqs, amps[:2], amps[2:], coarse_t, fine_t)
    pops = (p.sum() - amps[:2].sum(axis=1))[:, None] + same[:2]

    re_s, im_ds, im_s, re_ds = sums[:, :times.size]
    s_sum = re_s + 1j * im_s
    ds_sum = re_ds + 1j * im_ds
    phase = np.exp(-1j * params.omega_m * times)
    f = phase * s_sum
    df = phase * (ds_sum - 1j * params.omega_m * s_sum)
    (T_ee, T_gg), (dT_ee, dT_gg) = pops[:, :times.size], same[2:, :times.size]

    # the maps hold these entries in the pattern exactly
    entries = dict(a=f.real, b=-f.imag, c=T_ee - T_gg, d_par=T_ee + T_gg - 1.0,
                   da=df.real, db=-df.imag, dc=dT_ee - dT_gg,
                   dd_par=dT_ee + dT_gg)
    parts = list(entries.values())
    traj = MapTrajectory(times=times, maps=pc_transfer_matrices(*parts[:4]),
                         derivatives=pc_transfer_matrices(*parts[4:], r00=0.0))
    return traj, PCMapEntries(times=traj.times, map_residual=0.0, **entries)


def vacuum_excited_population(traj: MapTrajectory) -> np.ndarray:
    """Excited-state survival probability from the maps themselves."""
    if traj.dim != 2:
        raise ConfigError(f"the excited population needs a qubit trajectory, "
                          f"not d = {traj.dim}")
    # <e|Phi[|e><e|]|e> with |e><e| = (1 + sigma_z)/2: the transfer-matrix
    # entries of rows and columns 0 and 3, over 2
    return 0.5 * traj.maps[:, ::3, ::3].sum(axis=(1, 2))


def extract_pc_rates(traj: MapTrajectory,
                     cond_threshold: float = COND_THRESHOLD_DEFAULT,
                     ) -> PCMapEntries:
    """Project a qubit trajectory onto phase-covariant rate functions: its
    coefficients (`pc_coefficients`), with the rates and their generator
    residual computed. Raises ConfigError when the trajectory is not phase
    covariant to within PC_PATTERN_TOL, and SingularMap at grid times where
    the map cannot be inverted (the rates blow up at such isolated times;
    they are not interpolated over)."""
    coeffs = pc_coefficients(traj)
    require_invertible(traj.condition_numbers, cond_threshold, traj.times)
    coeffs.generator_residual  # the rates and their check, computed here
    return coeffs


def exchange_factor_series(params: JCParams, times: np.ndarray,
                           beta_ref: float,
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                      np.ndarray]:
    """Work and internal-energy correction factors of the exchange model
    against a reference inverse temperature beta_ref, which may differ from
    the mode's.

    Route: exact reduced map -> closed forms from its map coefficients, in
    log space, which keeps long windows finite where a direct operator
    exponential overflows. Raises SingularMap at the first grid time where
    the map cannot be inverted. Returns (times, lambda_w, bound, lambda_u).
    """
    traj, coeffs = jc_reduced_map(params, times)
    require_invertible(traj.condition_numbers, COND_THRESHOLD_DEFAULT,
                       traj.times)
    lam, bound = pc_lambda_w(pc_thermo(coeffs), coeffs, beta_ref)
    return traj.times, lam, bound, pc_lambda_u(coeffs, beta_ref)
