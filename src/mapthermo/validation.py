"""The acceptance checks: what ``mapthermo validate`` and the test suite run.

Each check asserts one of the paper's identities, or one oracle the library
must meet, on every row of fixed scenarios with fixed seeds: the closed and
pure-decoherence limits of the Jarzynski equality, the two-point-measurement
averages against their trace formulas, the phase-covariant qubit closed
forms against the generic pipeline, the drive-shape and temperature trends,
the exchange-model oracles and regimes, coherent initial states, the
operator first law, and the map-file round trip. The fluctuation columns
come from `fluctuation_tables`, the route `mapthermo run` takes.

`validate` runs FAST_CHECKS; `validate --full` runs FULL_CHECKS, every
acceptance criterion, and `tests/test_acceptance.py` runs the same list.
Each check returns a detail string with its measured values and raises
AssertionError carrying them when a condition fails.
"""

from __future__ import annotations

import math
import os
import tempfile
from typing import Callable

import numpy as np
from scipy.linalg import expm

from .errors import MapThermoError
from .operators import (_gibbs_stack, _state_stack, coordinates, dagger,
                        from_coordinates)
from .dynamics import (basis_maps, column_stacked, commutator_superop,
                       cptp_diagnostics_stack, load_map_trajectory,
                       read_map_file, save_map_trajectory)
from .phase_covariant import (PCRates, constant_rate, pc_integrals,
                              pc_trajectory, pc_thermo, pc_lambda_w,
                              pc_mean_work_and_deltaF)
from .observables import ThermoPipeline, shifted_observable, mean_change
from .coherent import (closed_coherent_protocol, coherent_initial_construction,
                       coherent_work_fluctuation)
from .fluctuations import (_initial_states, exp_average, fluctuation_table,
                           fluctuation_tables, tpms_distribution)
from .models import (jc_reduced_map, vacuum_excited_population,
                     extract_pc_rates, exchange_factor_series)
from .params import (ClosedCoherentParams, JCParams, WeakCouplingParams,
                     weak_coupling_rates)
from .records import record
from .trajectory import MapTrajectory

GKSL_JUMPS = 2
GKSL_JUMP_STRENGTH = 0.3


@record
class CheckResult:
    name: str
    passed: bool
    detail: str


def _dissipator_matrix(a: np.ndarray) -> np.ndarray:
    # D[A] rho = A rho A^dag - {A^dag A, rho}/2 in the column-stacking
    # convention, vec(X rho Y) = (Y^T kron X) vec(rho).
    d = a.shape[0]
    aa = a.conj().T @ a
    return (np.kron(a.conj(), a)
            - 0.5 * (np.kron(np.eye(d), aa) + np.kron(aa.T, np.eye(d))))


def random_gksl_trajectory(dim: int, rng: np.random.Generator,
                           times: np.ndarray) -> MapTrajectory:
    """Semigroup e^{tL} for a random time-independent GKSL generator with
    GKSL_JUMPS jump operators of scale GKSL_JUMP_STRENGTH.

    Invertible at every time (the inverse is e^{-tL}) and CPTP by
    construction, which makes it a fair stress input for the generic
    pipeline: nothing about it is phase covariant or analytically special.
    """
    times = np.asarray(times, dtype=float)
    h = random_hermitian(dim, rng)
    gen = -1j * commutator_superop(h)
    for _ in range(GKSL_JUMPS):
        a = GKSL_JUMP_STRENGTH * (rng.standard_normal((dim, dim))
                                  + 1j * rng.standard_normal((dim, dim))
                                  ) / math.sqrt(2)
        gen = gen + _dissipator_matrix(a)
    gen = basis_maps(gen)[0]
    maps = np.stack([expm(t * gen) for t in times])
    return MapTrajectory(times=times, maps=maps, derivatives=gen @ maps)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + dagger(a))


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A random full-rank state, checked by `_state_stack`."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return _state_stack((rho / np.trace(rho))[None])[0]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _require(condition: bool, message: str) -> None:
    """A check's failure: an AssertionError that holds under python -O."""
    if not condition:
        raise AssertionError(message)


def _extrema(x: np.ndarray) -> int:
    """Interior extrema of a sampled curve: sign changes of its steps."""
    return int(np.sum(np.diff(np.sign(np.diff(x))) != 0))


# ---------------------------------------------------------------------------
# the checks (return a detail string, raise AssertionError on failure)

def check_closed_system_jarzynski() -> str:
    # gamma = 0 turns the driven weak-coupling model into a closed drive:
    # both correction factors are one and the two-point work distribution
    # satisfies the bare Jarzynski equality on the whole grid
    p = WeakCouplingParams(gamma=0.0)
    traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(1000))
    pipe = ThermoPipeline(traj)
    beta = p.beta
    work, _ = pipe.work_heat_observables()
    table = fluctuation_table(pipe, beta)
    dev = max(float(np.max(np.abs(table.lambda_w - 1.0))),
              float(np.max(np.abs(table.lambda_u - 1.0))))
    for i, dfb in enumerate(table.delta_F_bar):
        jarz = exp_average(tpms_distribution(
            [beta], traj.maps[i], work[0], work[i])[0], beta) * math.exp(
                beta * dfb)
        dev = max(dev, abs(jarz - 1.0))
    _require(dev <= 1e-9, f"closed-drive identity deviation {dev:.3e}")
    return f"{traj.times.size} rows, max deviation {dev:.3e} (tol 1e-9)"


def _sinusoidal_dephasing() -> MapTrajectory:
    """Pure dephasing under the splitting 1 + 0.4 sin(0.7 t), t in [0, 6]."""
    rates = PCRates(
        omega=lambda t: 1.0 + 0.4 * np.sin(0.7 * np.asarray(t)),
        gamma_plus=constant_rate(0.0), gamma_minus=constant_rate(0.0),
        gamma_z=constant_rate(0.04))
    return pc_trajectory(rates, np.linspace(0.0, 6.0, 201))[0]


def check_pure_decoherence_jarzynski() -> str:
    # no exchange with the bath: the heat observable vanishes, so
    # <e^{-beta q}> and Lambda_w are one at any coupling
    p = WeakCouplingParams(gamma=0.0, gamma_z=0.3)
    trajectories = (pc_trajectory(weak_coupling_rates(p), p.grid(400))[0],
                    _sinusoidal_dephasing())
    max_oq = dev_q = dev_w = 0.0
    for traj in trajectories:
        pipe = ThermoPipeline(traj)
        _, heat = pipe.work_heat_observables()
        max_oq = max(max_oq, float(np.max(np.abs(heat))))
        for table in fluctuation_tables(pipe, (0.5, 0.7, 2.0, 7.0)):
            dev_q = max(dev_q, float(np.max(np.abs(table.exp_avg_q - 1.0))))
            dev_w = max(dev_w, float(np.max(np.abs(table.lambda_w - 1.0))))
    detail = (f"heat operator max {max_oq:.1e}, exp-avg dev {dev_q:.3e} "
              f"(tol 1e-12), work factor dev {dev_w:.3e} (tol 1e-9)")
    _require(max_oq == 0.0, f"heat observable not exactly zero: {detail}")
    _require(dev_q <= 1e-12, f"heat exponential average: {detail}")
    _require(dev_w <= 1e-9, f"work factor: {detail}")
    return detail


def _closed_form_gaps(p: WeakCouplingParams, n: int,
                      source: str) -> tuple[float, float]:
    """The generic pipeline against the closed forms on an n-step grid: the
    largest gap over every row of lambda_w, P0, P3, the mean work and
    deltaF, and the gap of lambda_w at the last row."""
    beta = p.beta
    traj, coeffs = pc_trajectory(weak_coupling_rates(p), p.grid(n),
                                 derivative_source=source)
    th = pc_thermo(coeffs)
    lam_c, _ = pc_lambda_w(th, coeffs, beta)
    mw_c, df_c = pc_mean_work_and_deltaF(th, coeffs, beta)
    pipe = ThermoPipeline(traj)
    table = fluctuation_table(pipe, beta)
    pm = from_coordinates(pipe.p)
    p0 = 0.5 * (pm[:, 0, 0] + pm[:, 1, 1]).real
    p3 = 0.5 * (pm[:, 0, 0] - pm[:, 1, 1]).real
    gap = max(float(np.max(np.abs(a - b))) for a, b in (
        (table.lambda_w, lam_c), (p0, th.P0), (p3, th.P3),
        (table.mean_w, mw_c), (table.delta_F_bar, df_c)))
    return gap, abs(float(table.lambda_w[-1] - lam_c[-1]))


def check_pc_closed_forms() -> str:
    gap, _ = _closed_form_gaps(WeakCouplingParams(), 1000, "analytic")
    _require(gap <= 1e-6, f"pipeline vs closed forms deviation {gap:.3e}")
    return f"1001 rows, five quantities, max deviation {gap:.3e} (tol 1e-6)"


def _tpms_trace_gap(dim: int, seeds: range, fixed_beta_seed: int) -> float:
    """Largest gap between the scheme averages of work, internal energy and
    heat and their trace formulas on seeded random GKSL trajectories, with
    a Gibbs initial state at a temperature drawn per seed; the trajectory of
    `fixed_beta_seed` is also measured at beta = 0.8."""
    worst = 0.0
    rows = (20, 42, 64)
    zero = np.zeros(dim * dim)
    for seed in seeds:
        rng = np.random.default_rng(seed)
        traj = random_gksl_trajectory(dim, rng, np.linspace(0.0, 1.5, 65))
        betas = [float(10.0 ** rng.uniform(-0.5, 0.5))]
        if seed == fixed_beta_seed:
            betas.append(0.8)
        pipe = ThermoPipeline(traj)
        K = pipe.k
        work, heat = pipe.work_heat_observables()
        tables = fluctuation_tables(pipe, betas)
        _, states = _initial_states(pipe, betas)
        for i in rows:
            # scheme averages from one call over all states, as `run` makes
            w, u, q = ([exp_average(dist, beta) for dist, beta in zip(
                tpms_distribution(first, traj.maps[i], O0, Ot), betas)]
                       for first, O0, Ot in ((betas, work[0], work[i]),
                                             (betas, K[0], K[i]),
                                             (states, zero, heat[i])))
            for k, (beta, table) in enumerate(zip(betas, tables)):
                fac = math.exp(-beta * table.delta_F_bar[i])
                worst = max(worst, abs(w[k] - table.lambda_w[i] * fac),
                            abs(u[k] - table.lambda_u[i] * fac),
                            abs(q[k] - table.exp_avg_q[i]))
    return worst


def check_tpms_trace_identity_qubit() -> str:
    dev = _tpms_trace_gap(2, range(13), fixed_beta_seed=7)
    _require(dev <= 1e-8, f"distribution vs trace deviation {dev:.3e}")
    return (f"seeds 0-12, seed 7 also at beta 0.8, max deviation {dev:.3e} "
            "(tol 1e-8)")


def check_tpms_trace_identity_qutrit() -> str:
    dev = _tpms_trace_gap(3, range(13, 25), fixed_beta_seed=13)
    _require(dev <= 1e-8, f"distribution vs trace deviation {dev:.3e}")
    return (f"seeds 13-24, seed 13 also at beta 0.8, max deviation {dev:.3e} "
            "(tol 1e-8)")


def _model_zoo():
    p_mono = WeakCouplingParams()
    yield pc_trajectory(weak_coupling_rates(p_mono), p_mono.grid(200))[0]
    p_per = WeakCouplingParams(Omega=math.pi / 5, drive_mode="periodic")
    yield pc_trajectory(weak_coupling_rates(p_per), p_per.grid(200))[0]
    yield _sinusoidal_dephasing()
    grid = np.linspace(0.0, 10.0, 201)
    yield jc_reduced_map(JCParams(omega_m=2.0, g=0.01), grid)[0]
    yield jc_reduced_map(
        JCParams(omega_m=2.0, g=0.01, beta=1.0, n_max=25), grid)[0]
    yield random_gksl_trajectory(2, np.random.default_rng(101),
                                 np.linspace(0.0, 1.5, 65))
    yield random_gksl_trajectory(3, np.random.default_rng(202),
                                 np.linspace(0.0, 1.5, 65))


def _shift_drift(series, traj: MapTrajectory, rho0: np.ndarray,
                 rng: np.random.Generator, n_shifts: int, rows) -> float:
    """Largest change of the mean changes at `rows` when the observable
    series is shifted by random Hermitian integration constants."""
    base = [mean_change(series, traj, i, rho0) for i in rows]
    worst = 0.0
    for _ in range(n_shifts):
        shifted = shifted_observable(
            series, traj, coordinates(random_hermitian(traj.dim, rng)))
        for b, i in zip(base, rows):
            worst = max(worst, abs(mean_change(shifted, traj, i, rho0) - b))
    return worst


def check_operator_balance() -> str:
    # the operator first law on seven models, and mean changes that do not
    # depend on the integration constants of the work and heat observables,
    # from a random state and, on the driven qubit, from its Gibbs state
    balance = drift = 0.0
    n_models = 0
    for k, traj in enumerate(_model_zoo()):
        n_models += 1
        pipe = ThermoPipeline(traj)
        balance = max(balance, pipe.balance_residual())
        work, heat = pipe.work_heat_observables()
        rng = np.random.default_rng(1000 + k)
        rho0 = random_density_matrix(traj.dim, rng)
        n = traj.times.size
        rows = (n // 3, (2 * n) // 3, n - 1)
        for series in (work, heat):
            drift = max(drift, _shift_drift(series, traj, rho0, rng, 5, rows))
        if k == 0:
            rho_g = _initial_states(pipe, [WeakCouplingParams().beta])[1][0]
            drift = max(drift, _shift_drift(work, traj, rho_g,
                                            np.random.default_rng(11), 2,
                                            (n - 1,)))
    detail = (f"{n_models} models, worst balance residual {balance:.3e}, "
              f"worst mean-change drift under shifts {drift:.3e} (tol 1e-9)")
    _require(n_models == 7, f"model count: {detail}")
    _require(balance <= 1e-9, f"first-law balance: {detail}")
    _require(drift <= 1e-9, f"shift dependence of the mean: {detail}")
    return detail


def check_map_file_round_trip() -> str:
    p = WeakCouplingParams()
    traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(20))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "traj.csv")
        save_map_trajectory(traj, path)
        file_stacks = read_map_file(path)
        back = load_map_trajectory(path)
    # the file holds the times and the column-stacked matrices exactly; the
    # basis change back to the real stacks rounds, by a few ulps
    dev = max(np.abs(got - want).max() for got, want in zip(file_stacks, (
        traj.times, column_stacked(traj.maps, dynamical=True),
        column_stacked(traj.derivatives))))
    drift = max(np.abs(back.maps - traj.maps).max(), np.abs(
        back.derivatives - traj.derivatives).max() / max(
            1.0, np.abs(traj.derivatives).max()))
    _require(dev == 0.0, f"file round trip not exact: {dev:.3e}")
    _require(drift <= 8 * np.finfo(float).eps,
             f"basis round trip off by {drift:.3e}")
    return f"file round trip exact, basis within {drift:.3e} (tol 8 ulps)"


def _coherent_chain(rho0: np.ndarray, H0: np.ndarray,
                    u: np.ndarray, H: np.ndarray,
                    ) -> tuple[float, float, float]:
    """For closed protocols (stacks of U(t) and H(t)) from a state with
    coherences: the largest gap between the scheme average and the trace
    formula, the weakest link of value <= Golden-Thompson bound <= final
    bound, and the smallest slack of <w> - deltaF_bar >= lambda_min(xi).

    The scheme measures the modified initial Hamiltonian H*_beta first (its
    exponential weights cancel the initial populations, since rho(0) is its
    Gibbs state) and H(t) + U xi U^dagger second.
    """
    data = coherent_initial_construction(rho0, H0)
    res = coherent_work_fluctuation(data, u, H)
    gap, link, slack = 0.0, math.inf, math.inf
    for k, u_t in enumerate(u):
        value, gt, chain, dfb = (float(a[k]) for a in (
            res.value, res.golden_thompson_bound, res.final_bound,
            res.delta_F_bar))
        final = H[k] + u_t @ data.xi @ u_t.conj().T
        final = 0.5 * (final + dagger(final))
        u_map = basis_maps(np.kron(u_t.conj(), u_t))[0]
        gap = max(gap, abs(exp_average(tpms_distribution(
            rho0[None], u_map, coordinates(data.H_star),
            coordinates(final))[0], data.beta) - value))
        link = min(link, gt - value, chain - gt)
        rho_t = u_t @ rho0 @ u_t.conj().T
        mean_w = float(np.trace(final @ rho_t).real
                       - np.trace(data.H_star @ rho0).real)
        slack = min(slack, mean_w - dfb - data.lambda_min_xi)
    return gap, link, slack


def check_coherent_work_identity() -> str:
    # 20 seeded rotated-Gibbs qubit states with genuine coherences under
    # random unitary protocols, and the closed_coherent drive at two times
    seeds, coherence = [], math.inf
    for seed in range(20):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        H0 = 0.5 * (h + h.conj().T)
        beta0 = float(10.0 ** rng.uniform(-0.5, 0.7))
        ang = float(rng.uniform(0.1, 0.5))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        vals, vecs = np.linalg.eigh(H0)
        g01 = np.exp(1j * phi) * np.outer(vecs[:, 0], vecs[:, 1].conj())
        v = expm(-1j * ang * (g01 + g01.conj().T))
        rho0 = v @ _gibbs_stack(vals[None], vecs[None], beta0)[0] @ v.conj().T
        rho0 = 0.5 * (rho0 + dagger(rho0))
        in_eigbasis = vecs.conj().T @ rho0 @ vecs
        coherence = min(coherence, float(np.linalg.norm(
            in_eigbasis - np.diag(np.diag(in_eigbasis)))))
        H_t = random_hermitian(2, rng)
        u = random_unitary(2, rng)
        seeds.append(_coherent_chain(rho0, H0, u[None], H_t[None]))
    p = ClosedCoherentParams()
    rho0, hams, unitaries = closed_coherent_protocol(p, p.grid(200))
    rows = [80, 200]
    drive = _coherent_chain(rho0, hams[0], unitaries[rows], hams[rows])
    gaps, links, slacks = zip(*seeds, drive)  # the drive last
    detail = (f"20 seeds: scheme/trace gap {max(gaps[:-1]):.3e}, weakest "
              f"chain link {min(links[:-1]):.2e}, min inequality slack "
              f"{min(slacks[:-1]):.3f}, min coherence {coherence:.3f}; "
              f"closed_coherent drive: gap {gaps[-1]:.3e}, weakest link "
              f"{links[-1]:.2e}, min slack {slacks[-1]:.3f} (gap tol 1e-9, "
              f"link and slack tol -1e-12)")
    _require(max(gaps) <= 1e-9, f"distribution vs trace: {detail}")
    _require(min(links) >= -1e-12, f"bound chain: {detail}")
    _require(min(slacks) >= -1e-12, f"mean-work inequality: {detail}")
    _require(coherence > 1e-3, f"initial states without coherence: {detail}")
    return detail


def check_simpson_refinement() -> str:
    # the finite-difference pipeline must lose at least a factor 10 of its
    # gap to the closed forms over two grid refinements, on every row and
    # at the last one
    gaps = [_closed_form_gaps(WeakCouplingParams(), n, "finite_difference")
            for n in (500, 1000, 2000)]
    (dev, end), (dev_mid, _), (dev_fine, end_fine) = gaps
    shrink = dev / dev_fine
    end_shrink = end / max(end_fine, 1e-300)
    detail = (f"stencil devs {dev:.2e}/{dev_mid:.2e}/{dev_fine:.2e}, shrink "
              f"x{shrink:.1f}, last-row lambda_w shrink x{end_shrink:.1f} "
              f"(need x10)")
    _require(dev > dev_mid > dev_fine, f"error not falling: {detail}")
    _require(shrink >= 10.0, f"refinement gain below 10: {detail}")
    _require(end_shrink >= 10.0, f"last-row gain below 10: {detail}")
    return detail


def check_drive_shape_trends() -> str:
    # a monotonic drive gives a monotonic factor below its bound; a periodic
    # one an oscillating factor under a bound that does not fall
    p_mono = WeakCouplingParams()
    coeffs = pc_integrals(weak_coupling_rates(p_mono), p_mono.grid(1000))
    lam, bound = pc_lambda_w(pc_thermo(coeffs), coeffs, p_mono.beta)
    worst_drop = float(np.min(np.diff(lam)))
    over = float(np.max(lam - bound))

    p_per = WeakCouplingParams(Omega=math.pi / 5, drive_mode="periodic")
    _require(p_per.default_t_f == 10.0, f"periodic window {p_per.default_t_f}")
    coeffs = pc_integrals(weak_coupling_rates(p_per), p_per.grid(1000))
    lam, bound = pc_lambda_w(pc_thermo(coeffs), coeffs, p_per.beta)
    interior = _extrema(lam)
    bound_drop = float(np.min(np.diff(bound)))
    detail = (f"monotonic: min step {worst_drop:.1e} slack 1e-10, "
              f"factor-bound gap {over:.1e}; periodic: {interior} interior "
              f"extrema need 2, min bound step {bound_drop:.1e}")
    _require(worst_drop >= -1e-10, f"monotonic factor falls: {detail}")
    _require(over <= 1e-10, f"factor above its bound: {detail}")
    _require(interior >= 2, f"periodic factor does not oscillate: {detail}")
    _require(bound_drop >= -1e-12, f"periodic bound falls: {detail}")
    return detail


def check_low_temperature_saturation() -> str:
    # the factor stays below its bound and reaches it as the bath cools
    ratios = []
    for beta in (1.0, 3.0, 10.0):
        p = WeakCouplingParams(beta=beta)
        coeffs = pc_integrals(weak_coupling_rates(p), p.grid(1000))
        lam, bound = pc_lambda_w(pc_thermo(coeffs), coeffs, beta)
        ratios.append(float(lam[-1] / bound[-1]))
    detail = (f"factor/bound at t=10: {ratios[0]:.6f} < {ratios[1]:.6f} < "
              f"{ratios[2]:.6f}, coldest > 0.99")
    _require(max(ratios) <= 1.0 + 1e-12, f"factor exceeds its bound: {detail}")
    _require(ratios[0] < ratios[1] < ratios[2], f"no rising trend: {detail}")
    _require(ratios[2] > 0.99, f"no saturation at beta 10: {detail}")
    return detail


def check_jc_vacuum_oracle() -> str:
    params = JCParams(omega=1.0, omega_m=2.0, g=0.01, beta=math.inf)
    times = np.linspace(0.0, 30.0, 1201)
    traj, _ = jc_reduced_map(params, times)
    pop = vacuum_excited_population(traj)
    delta = params.omega - params.omega_m
    rabi = math.sqrt(delta ** 2 + 4.0 * params.g ** 2)
    oracle = 1.0 - (4.0 * params.g ** 2 / rabi ** 2) * np.sin(
        rabi * times / 2.0) ** 2
    dev = float(np.max(np.abs(pop - oracle)))
    _require(dev <= 1e-8, f"vacuum population vs oracle deviation {dev:.3e}")
    return f"max deviation {dev:.3e} (tol 1e-8)"


def check_jc_rate_round_trip() -> str:
    # rates extracted from thermal exchange-model maps carry a moving
    # splitting and negative stretches, and rebuild the maps as CPTP maps
    cases = []
    for label, params, times in (
            ("n_max 60, t <= 30", JCParams(omega_m=2.0, g=0.01, beta=0.2,
                                           n_max=60),
             np.linspace(0.0, 30.0, 1201)),
            ("auto n_max, t <= 20", JCParams(omega_m=2.0, g=0.01, beta=0.2),
             np.linspace(0.0, 20.0, 401))):
        traj, _ = jc_reduced_map(params, times)
        ex = extract_pc_rates(traj)
        rebuilt, _ = pc_trajectory(ex.as_rates(), times)
        rep = cptp_diagnostics_stack(column_stacked(rebuilt.maps,
                                                    dynamical=True))
        cases.append((label, float(np.ptp(ex.omega)),
                      min(float(ex.gamma_plus.min()),
                          float(ex.gamma_minus.min())),
                      float(np.max(np.abs(traj.maps - rebuilt.maps))),
                      float(rep.trace_preserving_residual.max()),
                      float(rep.choi_min_eigenvalue.min())))
    detail = "; ".join(
        f"{label}: splitting span {span:.3e}, most negative rate {rate:.3e}, "
        f"rebuild deviation {dev:.3e} (tol 1e-6), rebuilt map tp {tp:.1e} / "
        f"choi min {choi:.1e}" for label, span, rate, dev, tp, choi in cases)
    _, span, rate, dev, tp, choi = zip(*cases)
    _require(min(span) > 1e-4, f"splitting does not move: {detail}")
    _require(max(rate) < -1e-5, f"no negative rate: {detail}")
    _require(max(dev) <= 1e-6, f"reconstruction: {detail}")
    _require(max(tp) < 1e-9, f"rebuilt maps not trace preserving: {detail}")
    _require(min(choi) > -1e-9, f"rebuilt maps not CP: {detail}")
    return detail


def _jc_factors(omega_m, g, beta_mode, beta_ref, t_f, n, n_max=None):
    """(times, lambda_w, bound, lambda_u) of the exchange model against a
    reference temperature that may differ from the mode's."""
    params = JCParams(omega_m=omega_m, g=g, beta=beta_mode, n_max=n_max)
    return exchange_factor_series(params, np.linspace(0.0, t_f, n + 1),
                                  beta_ref)


def check_exchange_model_regimes() -> str:
    # cold mode: oscillations with recurrences, and a factor/bound ratio
    # rising as the reference gets colder
    ratios = []
    oscillation_ok = True
    for beta in (1.0, 3.0, 5.0):
        _, lam, bound, lu = _jc_factors(2.0, 0.01, beta, beta, 400.0, 2000)
        ratios.append(float(lam[-1] / bound[-1]))
        # recurrences: local minima that come back to within 10% of the
        # peak excursion above one
        d = np.diff(lam)
        mins = np.flatnonzero((d[:-1] < 0) & (0 <= d[1:])) + 1
        returns = int(np.sum(lam[mins] - 1.0 < 0.1 * (lam.max() - 1.0)))
        oscillation_ok = (oscillation_ok and _extrema(lam) >= 10
                          and _extrema(lu) >= 10 and returns >= 10)

    # hot mode against a cold reference: the work factor dips well below one
    dip = float(_jc_factors(2.0, 0.01, 1e-3, 1.0, 400.0, 1600)[1].min())

    # stronger coupling: deviation at least 10x the weak run on the same
    # grid, and an initial work-factor peak with no counterpart in the
    # internal-energy factor
    t, lam_strong, _, lu_strong = _jc_factors(1.5, 0.1, 0.2, 1.0, 60.0, 2400)
    lam_weak = _jc_factors(1.5, 0.01, 0.2, 1.0, 60.0, 2400)[1]
    separation = (float(np.max(np.abs(lam_strong - 1.0)))
                  / float(np.max(np.abs(lam_weak - 1.0))))
    i_peak = int(np.argmax(lam_strong[t <= 10.0]))
    peak = float(lam_strong[i_peak])
    lu_early = float(np.max(lu_strong[: i_peak + 1]))
    detail = (f"cold ratios {ratios[0]:.5f}/{ratios[1]:.5f}/{ratios[2]:.5f} "
              f"rising, oscillations ok={oscillation_ok}, hot-mode dip "
              f"{dip:.3f} < 0.99, coupling separation x{separation:.0f} need "
              f"x10, early peak {peak:.3f} vs energy factor {lu_early:.3f}")
    _require(ratios[0] < ratios[1] < ratios[2], f"no rising trend: {detail}")
    _require(oscillation_ok, f"cold-mode oscillations: {detail}")
    _require(dip < 0.99, f"hot-mode dip: {detail}")
    _require(separation >= 10.0, f"coupling separation: {detail}")
    _require(peak >= 1.3, f"early work-factor peak: {detail}")
    _require(lu_early <= 1.08, f"energy factor peaks early: {detail}")
    return detail


FAST_CHECKS: tuple[tuple[str, Callable[[], str]], ...] = (
    ("closed_system_jarzynski", check_closed_system_jarzynski),
    ("pure_decoherence_jarzynski", check_pure_decoherence_jarzynski),
    ("pc_closed_forms", check_pc_closed_forms),
    ("tpms_trace_identity_qubit", check_tpms_trace_identity_qubit),
    ("operator_balance", check_operator_balance),
    ("map_file_round_trip", check_map_file_round_trip),
    ("coherent_work_identity", check_coherent_work_identity),
)

FULL_CHECKS: tuple[tuple[str, Callable[[], str]], ...] = FAST_CHECKS + (
    ("simpson_refinement", check_simpson_refinement),
    ("tpms_trace_identity_qutrit", check_tpms_trace_identity_qutrit),
    ("drive_shape_trends", check_drive_shape_trends),
    ("low_temperature_saturation", check_low_temperature_saturation),
    ("jc_vacuum_oracle", check_jc_vacuum_oracle),
    ("jc_rate_round_trip", check_jc_rate_round_trip),
    ("exchange_model_regimes", check_exchange_model_regimes),
)


def run_checks(full: bool = False) -> list[CheckResult]:
    results = []
    for name, fn in (FULL_CHECKS if full else FAST_CHECKS):
        try:
            results.append(CheckResult(name, True, fn()))
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc) or "failed"))
        except MapThermoError as exc:
            results.append(CheckResult(name, False,
                                       f"{type(exc).__name__}: {exc}"))
    return results


def format_report(results: list[CheckResult], full: bool) -> str:
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}"
             for r in results]
    n_pass = sum(r.passed for r in results)
    level = "full" if full else "fast"
    lines.append(f"validate ({level}): {n_pass}/{len(results)} checks passed")
    return "\n".join(lines)
