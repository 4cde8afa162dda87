"""End-to-end acceptance suite.

One test per headline guarantee: the closed and dephasing limits, the
distribution/trace identities on random invertible trajectories, closed-form
cross-checks of the generic pipeline, drive-shape and temperature trends, the
exchange-model regimes, coherent initial states, and the operator-level
consistency rules. Each test prints a single pass/fail line with its measured
numbers (visible under pytest -s) before asserting, and the heavier ones also
enforce a wall-clock budget.
"""

import math
import time

import numpy as np
from scipy.linalg import expm

from mapthermo.fluctuations import (exp_average, fluctuation_report,
                                    tpms_distribution)
from mapthermo.models import (JCParams, WeakCouplingParams,
                              exchange_factor_series, extract_pc_rates,
                              jc_reduced_map, vacuum_excited_population,
                              weak_coupling_rates)
from mapthermo.observables import (ThermoPipeline, coherent_initial_construction,
                                   coherent_work_fluctuation, mean_change,
                                   shifted_observable)
from mapthermo.operators import (DensityMatrix, HermitianOperator,
                                 Superoperator, cptp_diagnostics,
                                 eig_hermitian, gibbs_state, random_hermitian)
from mapthermo.phase_covariant import (PCRates, pc_integrals, pc_lambda_w,
                                       pc_mean_work_and_deltaF, pc_thermo,
                                       pc_trajectory)
from mapthermo.validation import random_gksl_trajectory
from reference import (conjugation_superop, heat_fluctuation,
                       random_density_matrix, random_unitary)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_closed_drive_identities():
    # gamma = 0 turns the driven weak-coupling model into a closed drive:
    # both correction factors collapse to one and the two-point work
    # distribution satisfies the bare exponential identity on the whole grid.
    start = time.perf_counter()
    p = WeakCouplingParams(gamma=0.0)
    traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(1000))
    pipe = ThermoPipeline(traj)
    beta = p.beta
    rho_g = gibbs_state(pipe.effective_hamiltonian_series()[0], beta)
    work, _ = pipe.work_heat_observables()
    dev = 0.0
    for i in range(traj.times.size):
        rep = fluctuation_report(pipe, i, beta)
        dist = tpms_distribution(rho_g, Superoperator(traj.maps[i]), work[0], work[i])
        jarz = exp_average(dist, beta) * math.exp(beta * rep.delta_F_bar)
        dev = max(dev, abs(rep.lambda_w - 1.0), abs(rep.lambda_u - 1.0),
                  abs(jarz - 1.0))
    elapsed = time.perf_counter() - start
    ok = dev <= 1e-9 and elapsed < 5.0
    _verdict(1, ok, f"max identity deviation {dev:.3e} tol 1e-9, "
                    f"{elapsed:.2f}s budget 5s")
    assert dev <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_pure_decoherence_identities():
    start = time.perf_counter()
    p = WeakCouplingParams(gamma=0.0, gamma_z=0.3)
    traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(400))
    pipe = ThermoPipeline(traj)
    _, heat = pipe.work_heat_observables()
    max_oq = float(np.max(np.abs(heat.ops)))
    dev_q = dev_w = 0.0
    for beta in (0.5, 2.0, 7.0):
        rho_g = gibbs_state(pipe.effective_hamiltonian_series()[0], beta)
        for i in range(traj.times.size):
            val, _ = heat_fluctuation(rho_g, Superoperator(traj.maps[i]),
                                      HermitianOperator(pipe.P[i]), beta)
            dev_q = max(dev_q, abs(val - 1.0))
            rep = fluctuation_report(pipe, i, beta)
            dev_w = max(dev_w, abs(rep.lambda_w - 1.0))
    elapsed = time.perf_counter() - start
    ok = (max_oq == 0.0 and dev_q <= 1e-12 and dev_w <= 1e-9
          and elapsed < 5.0)
    _verdict(2, ok, f"heat operator max {max_oq:.1e}, exp-avg dev {dev_q:.3e} "
                    f"tol 1e-12, work factor dev {dev_w:.3e} tol 1e-9, "
                    f"{elapsed:.2f}s budget 5s")
    assert max_oq == 0.0
    assert dev_q <= 1e-12
    assert dev_w <= 1e-9
    assert elapsed < 5.0


def test_criterion_03_random_map_distribution_identities():
    # 25 seeded invertible CPTP trajectories (13 qubit, 12 qutrit), Gibbs
    # initial state at a per-seed temperature: the scheme distribution must
    # reproduce all three trace formulas.
    start = time.perf_counter()
    worst = 0.0
    for seed in range(25):
        dim = 2 if seed < 13 else 3
        rng = np.random.default_rng(seed)
        traj = random_gksl_trajectory(dim, rng, np.linspace(0.0, 1.5, 65))
        beta = float(10.0 ** rng.uniform(-0.5, 0.5))
        pipe = ThermoPipeline(traj)
        K = pipe.effective_hamiltonian_series()
        work, heat = pipe.work_heat_observables()
        rho_g = gibbs_state(K[0], beta)
        zero = HermitianOperator(np.zeros((dim, dim)))
        for i in (20, 42, 64):
            rep = fluctuation_report(pipe, i, beta)
            fac = math.exp(-beta * rep.delta_F_bar)
            dist_w = tpms_distribution(rho_g, Superoperator(traj.maps[i]), work[0], work[i])
            dist_u = tpms_distribution(rho_g, Superoperator(traj.maps[i]), K[0], K[i])
            dist_q = tpms_distribution(rho_g, Superoperator(traj.maps[i]), zero, heat[i])
            q_val, _ = heat_fluctuation(rho_g, Superoperator(traj.maps[i]),
                                        HermitianOperator(pipe.P[i]), beta)
            worst = max(worst,
                        abs(exp_average(dist_w, beta) - rep.lambda_w * fac),
                        abs(exp_average(dist_u, beta) - rep.lambda_u * fac),
                        abs(exp_average(dist_q, beta) - q_val))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    _verdict(3, ok, f"25 seeds, max distribution/trace gap {worst:.3e} "
                    f"tol 1e-8, {elapsed:.1f}s budget 60s")
    assert worst <= 1e-8
    assert elapsed < 60.0


def _closed_form_pipeline_dev(p, n, source):
    beta = p.beta
    traj, coeffs = pc_trajectory(weak_coupling_rates(p), p.grid(n),
                                 derivative_source=source)
    th = pc_thermo(coeffs)
    lam_c, _ = pc_lambda_w(th, coeffs, beta)
    mw_c, df_c = pc_mean_work_and_deltaF(th, coeffs, beta)
    pipe = ThermoPipeline(traj)
    dev = 0.0
    for i in range(traj.times.size):
        rep = fluctuation_report(pipe, i, beta)
        pm = pipe.P[i]
        p0 = 0.5 * float((pm[0, 0] + pm[1, 1]).real)
        p3 = 0.5 * float((pm[0, 0] - pm[1, 1]).real)
        dev = max(dev, abs(rep.lambda_w - lam_c[i]), abs(p0 - th.P0[i]),
                  abs(p3 - th.P3[i]), abs(rep.mean_w - mw_c[i]),
                  abs(rep.delta_F_bar - df_c[i]))
    return dev


def test_criterion_04_closed_forms_match_generic_pipeline():
    # five quantities at 1000 grid points against the closed forms, then the
    # finite-difference pipeline must lose at least a factor 10 of error over
    # two grid refinements.
    start = time.perf_counter()
    p = WeakCouplingParams()
    dev_analytic = _closed_form_pipeline_dev(p, 1000, "analytic")
    devs_fd = [_closed_form_pipeline_dev(p, n, "finite_difference")
               for n in (500, 1000, 2000)]
    shrink = devs_fd[0] / devs_fd[2]
    elapsed = time.perf_counter() - start
    ok = (dev_analytic <= 1e-6 and devs_fd[0] > devs_fd[1] > devs_fd[2]
          and shrink >= 10.0 and elapsed < 30.0)
    _verdict(4, ok, f"analytic dev {dev_analytic:.3e} tol 1e-6, stencil devs "
                    f"{devs_fd[0]:.2e}/{devs_fd[1]:.2e}/{devs_fd[2]:.2e}, "
                    f"shrink x{shrink:.1f} need x10, {elapsed:.1f}s budget 30s")
    assert dev_analytic <= 1e-6
    assert devs_fd[0] > devs_fd[1] > devs_fd[2]
    assert shrink >= 10.0
    assert elapsed < 30.0


def test_criterion_05_drive_shape_controls_factor_shape():
    p_mono = WeakCouplingParams()
    coeffs = pc_integrals(weak_coupling_rates(p_mono), p_mono.grid(1000))
    th = pc_thermo(coeffs)
    lam, bound = pc_lambda_w(th, coeffs, p_mono.beta)
    worst_drop = float(np.min(np.diff(lam)))
    over = float(np.max(lam - bound))

    p_per = WeakCouplingParams(Omega=math.pi / 5, drive_mode="periodic")
    assert p_per.default_t_f == 10.0
    coeffs2 = pc_integrals(weak_coupling_rates(p_per), p_per.grid(1000))
    th2 = pc_thermo(coeffs2)
    lam2, bound2 = pc_lambda_w(th2, coeffs2, p_per.beta)
    interior = int(np.sum(np.diff(np.sign(np.diff(lam2))) != 0))
    bound_drop = float(np.min(np.diff(bound2)))

    ok = (worst_drop >= -1e-10 and over <= 1e-10 and interior >= 2
          and bound_drop >= -1e-12)
    _verdict(5, ok, f"monotonic: min step {worst_drop:.1e} slack 1e-10, "
                    f"factor-bound gap {over:.1e}; periodic: {interior} "
                    f"interior extrema need 2, min bound step {bound_drop:.1e}")
    assert worst_drop >= -1e-10
    assert over <= 1e-10
    assert interior >= 2
    assert bound_drop >= -1e-12


def test_criterion_06_low_temperature_saturation():
    start = time.perf_counter()
    ratios = []
    for beta in (1.0, 3.0, 10.0):
        p = WeakCouplingParams(beta=beta)
        coeffs = pc_integrals(weak_coupling_rates(p), p.grid(1000))
        th = pc_thermo(coeffs)
        lam, bound = pc_lambda_w(th, coeffs, beta)
        ratios.append(float(lam[-1] / bound[-1]))
    elapsed = time.perf_counter() - start
    ok = (ratios[0] < ratios[1] < ratios[2] and ratios[2] > 0.99
          and elapsed < 10.0)
    _verdict(6, ok, f"factor/bound at t=10: {ratios[0]:.6f} < {ratios[1]:.6f} "
                    f"< {ratios[2]:.6f}, coldest > 0.99, {elapsed:.2f}s "
                    f"budget 10s")
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] > 0.99
    assert elapsed < 10.0


def test_criterion_07_exchange_model_extraction():
    start = time.perf_counter()
    times = np.linspace(0.0, 30.0, 1201)
    vac = JCParams(omega_m=2.0, g=0.01)
    traj_v, _ = jc_reduced_map(vac, times)
    pe = vacuum_excited_population(traj_v)
    delta = vac.omega - vac.omega_m
    rabi = math.sqrt(delta ** 2 + 4.0 * vac.g ** 2)
    oracle = 1.0 - (4.0 * vac.g ** 2 / rabi ** 2) * np.sin(rabi * times / 2.0) ** 2
    rabi_dev = float(np.max(np.abs(pe - oracle)))

    params = JCParams(omega_m=2.0, g=0.01, beta=0.2, n_max=60)
    traj, _ = jc_reduced_map(params, times)
    ex = extract_pc_rates(traj)
    omega_span = float(np.ptp(ex.omega))
    worst_rate = min(float(ex.gamma_plus.min()), float(ex.gamma_minus.min()))
    traj2, _ = pc_trajectory(ex.as_rates(), times)
    worst_tp = 0.0
    worst_choi = math.inf
    for m in traj2.maps:
        diag = cptp_diagnostics(Superoperator(m))
        worst_tp = max(worst_tp, diag.trace_preserving_residual)
        worst_choi = min(worst_choi, diag.choi_min_eigenvalue)
    elapsed = time.perf_counter() - start
    ok = (rabi_dev <= 1e-8 and omega_span > 1e-4 and worst_rate < -1e-5
          and worst_tp < 1e-9 and worst_choi > -1e-9 and elapsed < 120.0)
    _verdict(7, ok, f"vacuum oracle dev {rabi_dev:.3e} tol 1e-8; thermal: "
                    f"splitting span {omega_span:.3e}, most negative rate "
                    f"{worst_rate:.3e}, rebuilt map tp {worst_tp:.1e} / choi "
                    f"min {worst_choi:.1e}, {elapsed:.1f}s budget 120s")
    assert rabi_dev <= 1e-8
    assert omega_span > 1e-4
    assert worst_rate < -1e-5
    assert worst_tp < 1e-9
    assert worst_choi > -1e-9
    assert elapsed < 120.0


def _jc_lambdas(omega_m, g, beta_mode, beta_ref, t_f, n, n_max=None):
    """Work/energy correction factors of the exchange model, evaluated
    against a reference temperature that may differ from the mode's."""
    params = JCParams(omega_m=omega_m, g=g, beta=beta_mode, n_max=n_max)
    return exchange_factor_series(params, np.linspace(0.0, t_f, n + 1),
                                  beta_ref)


def test_criterion_08_exchange_model_regimes():
    # cold mode: oscillations with recurrences, factor/bound ratio rising as
    # the reference gets colder
    ratios = []
    oscillation_ok = True
    for beta in (1.0, 3.0, 5.0):
        _, lam3, bound3, lu3 = _jc_lambdas(2.0, 0.01, beta, beta, 400.0, 2000)
        ratios.append(float(lam3[-1] / bound3[-1]))
        extrema_w = int(np.sum(np.diff(np.sign(np.diff(lam3))) != 0))
        extrema_u = int(np.sum(np.diff(np.sign(np.diff(lu3))) != 0))
        # recurrences: local minima that come back to within 10% of the
        # peak excursion above one
        d = np.diff(lam3)
        mins = [i + 1 for i in range(d.size - 1) if d[i] < 0 <= d[i + 1]]
        peak_dev = float(lam3.max()) - 1.0
        returns = sum(1 for i in mins if lam3[i] - 1.0 < 0.1 * peak_dev)
        oscillation_ok = (oscillation_ok and extrema_w >= 10
                          and extrema_u >= 10 and returns >= 10)
    increasing = ratios[0] < ratios[1] < ratios[2]

    # hot mode against a cold reference: the work factor dips well below one
    _, lam4, _, _ = _jc_lambdas(2.0, 0.01, 1e-3, 1.0, 400.0, 1600)
    dip = float(lam4.min())

    # stronger coupling: deviation at least 10x the weak run on the same
    # grid, and an initial work-factor peak with no counterpart in the
    # internal-energy factor
    t5, lam_strong, _, lu_strong = _jc_lambdas(1.5, 0.1, 0.2, 1.0, 60.0, 2400)
    _, lam_weak, _, _ = _jc_lambdas(1.5, 0.01, 0.2, 1.0, 60.0, 2400)
    dev_strong = float(np.max(np.abs(lam_strong - 1.0)))
    dev_weak = float(np.max(np.abs(lam_weak - 1.0)))
    separation = dev_strong / dev_weak
    window = t5 <= 10.0
    i_peak = int(np.argmax(lam_strong[window]))
    peak = float(lam_strong[i_peak])
    lu_early = float(np.max(lu_strong[: i_peak + 1]))

    ok = (increasing and oscillation_ok and dip < 0.99 and separation >= 10.0
          and peak >= 1.3 and lu_early <= 1.08)
    _verdict(8, ok, f"cold ratios {ratios[0]:.5f}/{ratios[1]:.5f}/"
                    f"{ratios[2]:.5f} rising, oscillations ok={oscillation_ok}, "
                    f"hot-mode dip {dip:.3f} < 0.99, coupling separation "
                    f"x{separation:.0f} need x10, early peak {peak:.3f} vs "
                    f"energy factor {lu_early:.3f}")
    assert increasing
    assert oscillation_ok
    assert dip < 0.99
    assert separation >= 10.0
    assert peak >= 1.3
    assert lu_early <= 1.08


def test_criterion_09_coherent_initial_state_chain():
    # 20 seeded rotated-Gibbs initial states with genuine coherences under
    # random unitary protocols: scheme average equals the trace formula, the
    # bound chain holds link by link, and the mean-work inequality keeps a
    # nonnegative slack.
    start = time.perf_counter()
    worst_gap = 0.0
    min_link = math.inf
    min_slack = math.inf
    min_coherence = math.inf
    for seed in range(20):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        H0 = HermitianOperator(0.5 * (h + h.conj().T))
        beta0 = float(10.0 ** rng.uniform(-0.5, 0.7))
        ang = float(rng.uniform(0.1, 0.5))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        _, vecs = eig_hermitian(H0)
        g01 = np.exp(1j * phi) * np.outer(vecs[:, 0], vecs[:, 1].conj())
        v = expm(-1j * ang * (g01 + g01.conj().T))
        rho0 = DensityMatrix(v @ gibbs_state(H0, beta0).matrix @ v.conj().T)
        in_eigbasis = vecs.conj().T @ rho0.matrix @ vecs
        coherence = float(np.linalg.norm(
            in_eigbasis - np.diag(np.diag(in_eigbasis))))
        H_t = random_hermitian(2, rng)
        u = random_unitary(2, rng)

        data = coherent_initial_construction(rho0, H0)
        # one protocol: a stack of one
        res = coherent_work_fluctuation(data, u[None], H_t.matrix[None])
        value, gt, chain, dfb = (float(a[0]) for a in (
            res.value, res.golden_thompson_bound, res.final_bound,
            res.delta_F_bar))
        final_obs = HermitianOperator(H_t.matrix + u @ data.xi.matrix
                                      @ u.conj().T)
        dist = tpms_distribution(rho0, conjugation_superop(u), data.H_star,
                                 final_obs)
        worst_gap = max(worst_gap,
                        abs(exp_average(dist, data.beta) - value))
        min_link = min(min_link, gt - value, chain - gt)
        rho_t = u @ rho0.matrix @ u.conj().T
        mean_w = float(np.trace(final_obs.matrix @ rho_t).real
                       - np.trace(data.H_star.matrix @ rho0.matrix).real)
        min_slack = min(min_slack, mean_w - dfb - data.lambda_min_xi)
        min_coherence = min(min_coherence, coherence)
    elapsed = time.perf_counter() - start
    ok = (worst_gap <= 1e-9 and min_link >= -1e-12 and min_slack >= -1e-12
          and min_coherence > 1e-3 and elapsed < 30.0)
    _verdict(9, ok, f"20 seeds, scheme/trace gap {worst_gap:.3e} tol 1e-9, "
                    f"weakest chain link {min_link:.2e}, min inequality slack "
                    f"{min_slack:.3f}, min coherence {min_coherence:.3f}, "
                    f"{elapsed:.2f}s budget 30s")
    assert worst_gap <= 1e-9
    assert min_link >= -1e-12
    assert min_slack >= -1e-12
    assert min_coherence > 1e-3
    assert elapsed < 30.0


def _model_zoo():
    p_mono = WeakCouplingParams()
    traj_mono, _ = pc_trajectory(weak_coupling_rates(p_mono), p_mono.grid(200))
    yield "driven qubit, monotonic", traj_mono

    p_per = WeakCouplingParams(Omega=math.pi / 5, drive_mode="periodic")
    traj_per, _ = pc_trajectory(weak_coupling_rates(p_per), p_per.grid(200))
    yield "driven qubit, periodic", traj_per

    rates = PCRates(
        omega=lambda t: 1.0 + 0.4 * np.sin(0.7 * np.asarray(t)),
        gamma_plus=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        gamma_minus=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        gamma_z=lambda t: 0.04 * np.ones_like(np.asarray(t, dtype=float)))
    traj_dec, _ = pc_trajectory(rates, np.linspace(0.0, 6.0, 201))
    yield "pure decoherence", traj_dec

    grid = np.linspace(0.0, 10.0, 201)
    traj_vac, _ = jc_reduced_map(JCParams(omega_m=2.0, g=0.01), grid)
    yield "exchange model, vacuum", traj_vac

    traj_th, _ = jc_reduced_map(
        JCParams(omega_m=2.0, g=0.01, beta=1.0, n_max=25), grid)
    yield "exchange model, thermal", traj_th

    yield "random generator, qubit", random_gksl_trajectory(
        2, np.random.default_rng(101), np.linspace(0.0, 1.5, 65))
    yield "random generator, qutrit", random_gksl_trajectory(
        3, np.random.default_rng(202), np.linspace(0.0, 1.5, 65))


def test_criterion_10_operator_balance_and_shift_freedom():
    worst_balance = 0.0
    worst_shift = 0.0
    n_models = 0
    for k, (name, traj) in enumerate(_model_zoo()):
        n_models += 1
        pipe = ThermoPipeline(traj)
        worst_balance = max(worst_balance, pipe.balance_residual())
        work, heat = pipe.work_heat_observables()
        rng = np.random.default_rng(1000 + k)
        rho0 = random_density_matrix(traj.dim, rng)
        idx = (traj.times.size // 3, (2 * traj.times.size) // 3,
               traj.times.size - 1)
        for series in (work, heat):
            base = [mean_change(series, traj, i, rho0) for i in idx]
            for _ in range(5):
                shifted = shifted_observable(series, traj,
                                             random_hermitian(traj.dim, rng))
                for j, i in enumerate(idx):
                    worst_shift = max(worst_shift, abs(
                        mean_change(shifted, traj, i, rho0) - base[j]))
    ok = n_models == 7 and worst_balance <= 1e-9 and worst_shift <= 1e-9
    _verdict(10, ok, f"{n_models} models, worst balance residual "
                     f"{worst_balance:.3e} tol 1e-9, worst mean-change drift "
                     f"under shifts {worst_shift:.3e} tol 1e-9")
    assert n_models == 7
    assert worst_balance <= 1e-9
    assert worst_shift <= 1e-9
