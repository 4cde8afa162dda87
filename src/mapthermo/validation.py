"""Built-in consistency checks behind the ``validate`` CLI subcommand.

Each check exercises one identity or oracle that the library must satisfy
regardless of parameters: exact-limit Jarzynski identities, agreement between
the generic pipeline and the closed-form qubit engine, the distribution/trace
equivalence of the exponential averages, and file round trips. The fast suite
runs on small grids with fixed seeds; the full suite adds refinement studies
and the heavier model oracles.

Checks raise AssertionError with a measured deviation on failure, so the same
functions double as importable test helpers.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import expm

from .errors import MapThermoError
from .operators import (HermitianOperator, Superoperator, commutator_superop,
                        gibbs_state, project_hermiticity_preserving,
                        random_hermitian)
from .dynamics import MapTrajectory, save_map_trajectory, load_map_trajectory
from .phase_covariant import (PCRates, constant_rate, pc_trajectory,
                              pc_thermo, pc_lambda_w, pc_mean_work_and_deltaF)
from .observables import ThermoPipeline, shifted_observable, mean_change, \
    coherent_initial_construction, coherent_work_fluctuation
from .fluctuations import fluctuation_table, tpms_distribution, exp_average
from .models import (WeakCouplingParams, weak_coupling_rates, JCParams,
                     jc_reduced_map, vacuum_excited_population,
                     extract_pc_rates, ClosedCoherentParams,
                     closed_coherent_protocol)

GKSL_JUMPS = 2
GKSL_JUMP_STRENGTH = 0.3


@dataclass(frozen=True)
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
    gen = -1j * commutator_superop(h.matrix)
    for _ in range(GKSL_JUMPS):
        a = GKSL_JUMP_STRENGTH * (rng.standard_normal((dim, dim))
                                  + 1j * rng.standard_normal((dim, dim))
                                  ) / math.sqrt(2)
        gen = gen + _dissipator_matrix(a)
    # the derivatives are taken of the maps as MapTrajectory stores them
    maps = project_hermiticity_preserving(
        np.stack([expm(t * gen) for t in times]))
    return MapTrajectory(times=times, maps=maps, derivatives=gen @ maps)


# ---------------------------------------------------------------------------
# individual checks (return a detail string, raise AssertionError on failure)

def check_closed_system_jarzynski() -> str:
    p = WeakCouplingParams(gamma=0.0)
    traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(200))
    pipe = ThermoPipeline(traj)
    beta = p.beta
    rho_g = gibbs_state(pipe.effective_hamiltonian_series()[0], beta)
    work, _ = pipe.work_heat_observables()
    rows = [0, 50, 100, 150, 200]
    table = fluctuation_table(pipe, beta, rows)
    dev = 0.0
    for k, i in enumerate(rows):
        dist = tpms_distribution(rho_g, Superoperator(traj.maps[i]), work[0],
                                 work[i])
        jarz = exp_average(dist, beta) * math.exp(beta * table.delta_F_bar[k])
        dev = max(dev, abs(table.lambda_w[k] - 1.0),
                  abs(table.lambda_u[k] - 1.0), abs(jarz - 1.0))
    assert dev <= 1e-9, f"closed-system identity deviation {dev:.3e}"
    return f"max deviation {dev:.3e} (tol 1e-9)"


def check_pure_decoherence_jarzynski() -> str:
    rates = PCRates(
        omega=lambda t: 1.0 + 0.4 * np.sin(0.7 * np.asarray(t)),
        gamma_plus=constant_rate(0.0), gamma_minus=constant_rate(0.0),
        gamma_z=constant_rate(0.04))
    traj, _ = pc_trajectory(rates, np.linspace(0.0, 6.0, 201))
    pipe = ThermoPipeline(traj)
    beta = 0.7
    _, heat = pipe.work_heat_observables()
    max_oq = float(np.max(np.abs(heat.ops)))
    assert max_oq == 0.0, f"heat observable not exactly zero: {max_oq:.3e}"
    table = fluctuation_table(pipe, beta, [60, 130, 200])
    dev_q = float(np.max(np.abs(table.exp_avg_q - 1.0)))
    dev_w = float(np.max(np.abs(table.lambda_w - 1.0)))
    assert dev_q <= 1e-12, f"heat exponential average deviation {dev_q:.3e}"
    assert dev_w <= 1e-9, f"work factor deviation {dev_w:.3e}"
    return f"O_q = 0, exp-avg dev {dev_q:.3e}, factor dev {dev_w:.3e}"


def check_pc_closed_forms() -> str:
    p = WeakCouplingParams()
    traj, coeffs = pc_trajectory(weak_coupling_rates(p), p.grid(400))
    th = pc_thermo(coeffs)
    pipe = ThermoPipeline(traj)
    beta = p.beta
    lam_c, _ = pc_lambda_w(th, coeffs, beta)
    mw_c, df_c = pc_mean_work_and_deltaF(th, coeffs, beta)
    rows = [100, 200, 300, 400]
    table = fluctuation_table(pipe, beta, rows)
    dev = 0.0
    for k, i in enumerate(rows):
        pm = pipe.P[i]
        p0 = 0.5 * float((pm[0, 0] + pm[1, 1]).real)
        p3 = 0.5 * float((pm[0, 0] - pm[1, 1]).real)
        dev = max(dev, abs(table.lambda_w[k] - lam_c[i]), abs(p0 - th.P0[i]),
                  abs(p3 - th.P3[i]), abs(table.mean_w[k] - mw_c[i]),
                  abs(table.delta_F_bar[k] - df_c[i]))
    assert dev <= 1e-6, f"pipeline vs closed forms deviation {dev:.3e}"
    return f"max deviation {dev:.3e} (tol 1e-6)"


def _tpms_identity_deviation(dim: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    traj = random_gksl_trajectory(dim, rng, np.linspace(0.0, 1.5, 65))
    pipe = ThermoPipeline(traj)
    beta = 0.8
    rho_g = gibbs_state(pipe.effective_hamiltonian_series()[0], beta)
    K = pipe.effective_hamiltonian_series()
    work, heat = pipe.work_heat_observables()
    zero = HermitianOperator(np.zeros((dim, dim)))
    rows = [20, 42, 64]
    table = fluctuation_table(pipe, beta, rows)
    dev = 0.0
    for k, i in enumerate(rows):
        fac = math.exp(-beta * table.delta_F_bar[k])
        map_t = Superoperator(traj.maps[i])
        dist_w = tpms_distribution(rho_g, map_t, work[0], work[i])
        dist_u = tpms_distribution(rho_g, map_t, K[0], K[i])
        dist_q = tpms_distribution(rho_g, map_t, zero, heat[i])
        dev = max(dev,
                  abs(exp_average(dist_w, beta) - table.lambda_w[k] * fac),
                  abs(exp_average(dist_u, beta) - table.lambda_u[k] * fac),
                  abs(exp_average(dist_q, beta) - table.exp_avg_q[k]))
    return dev


def check_tpms_trace_identity_qubit() -> str:
    dev = _tpms_identity_deviation(2, seed=7)
    assert dev <= 1e-8, f"distribution vs trace deviation {dev:.3e}"
    return f"max deviation {dev:.3e} (tol 1e-8)"


def check_operator_balance() -> str:
    p = WeakCouplingParams()
    traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(200))
    pipe = ThermoPipeline(traj)
    bal = pipe.balance_residual()
    assert bal <= 1e-9, f"first-law balance residual {bal:.3e}"
    # Means must not depend on the integration-constant freedom.
    work, _ = pipe.work_heat_observables()
    rng = np.random.default_rng(11)
    rho0 = gibbs_state(pipe.effective_hamiltonian_series()[0], p.beta)
    base = mean_change(work, traj, 200, rho0)
    dev = 0.0
    for _ in range(2):
        shift = random_hermitian(2, rng)
        shifted = shifted_observable(work, traj, shift)
        dev = max(dev, abs(mean_change(shifted, traj, 200, rho0) - base))
    assert dev <= 1e-9, f"shift dependence of the mean {dev:.3e}"
    return f"balance {bal:.3e}, shift dependence {dev:.3e}"


def check_map_file_round_trip() -> str:
    p = WeakCouplingParams()
    traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(20))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "traj.csv")
        save_map_trajectory(traj, path)
        back = load_map_trajectory(path)
    dev = float(np.max(np.abs(traj.maps - back.maps)))
    dev_d = float(np.max(np.abs(traj.derivatives - back.derivatives)))
    dev_t = float(np.max(np.abs(traj.times - back.times)))
    dev = max(dev, dev_d, dev_t)
    assert dev == 0.0, f"round trip not exact: {dev:.3e}"
    return "round trip exact"


def check_coherent_work_identity() -> str:
    p = ClosedCoherentParams()
    times = p.grid(200)
    rho0, hams, unitaries = closed_coherent_protocol(p, times)
    data = coherent_initial_construction(rho0, HermitianOperator(hams[0]))
    rows = [80, 200]
    res = coherent_work_fluctuation(data, unitaries[rows], hams[rows],
                                    times[rows])
    chain = float(np.max(np.maximum(
        res.value - res.golden_thompson_bound,
        res.golden_thompson_bound - res.final_bound)))
    dev = max(_coherent_distribution_gap(data, rho0, unitaries[i], hams[i],
                                         value)
              for i, value in zip(rows, res.value))
    assert dev <= 1e-9, f"distribution vs trace deviation {dev:.3e}"
    assert chain <= 1e-12, f"bound chain violated by {chain:.3e}"
    return f"distribution dev {dev:.3e}, chain slack ok"


def _coherent_distribution_gap(data, rho0, u_t, H_t, value: float) -> float:
    """Deviation between the measurement-scheme average and the trace value.

    The scheme measures the modified initial Hamiltonian H*_beta first (its
    exponential weights cancel the initial populations, since rho0 is its
    Gibbs state) and the modified final operator H(t) + U xi U^dag second.
    """
    beta = data.beta
    xi_ev = u_t @ data.xi.matrix @ u_t.conj().T
    o_t = HermitianOperator(H_t + xi_ev)
    u_map = Superoperator(np.kron(u_t.conj(), u_t), trace_preserving=True)
    dist = tpms_distribution(rho0, u_map, data.H_star, o_t)
    return abs(exp_average(dist, beta) - value)


def check_simpson_refinement() -> str:
    p = WeakCouplingParams()
    beta = p.beta

    def deviation(n: int) -> float:
        times = np.linspace(0.0, p.default_t_f, n + 1)
        traj, coeffs = pc_trajectory(weak_coupling_rates(p), times,
                                     derivative_source="finite_difference")
        th = pc_thermo(coeffs)
        pipe = ThermoPipeline(traj)
        lam_c, _ = pc_lambda_w(th, coeffs, beta)
        table = fluctuation_table(pipe, beta, [n])
        return abs(table.lambda_w[0] - lam_c[n])

    coarse, fine = deviation(500), deviation(2000)
    ratio = coarse / max(fine, 1e-300)
    assert ratio >= 10.0, (
        f"refinement gain {ratio:.1f} below 10 "
        f"(coarse {coarse:.3e}, fine {fine:.3e})")
    return f"two halvings shrink the error {ratio:.0f}x"


def check_tpms_trace_identity_qutrit() -> str:
    dev = _tpms_identity_deviation(3, seed=13)
    assert dev <= 1e-8, f"distribution vs trace deviation {dev:.3e}"
    return f"max deviation {dev:.3e} (tol 1e-8)"


def check_jc_vacuum_oracle() -> str:
    params = JCParams(omega=1.0, omega_m=2.0, g=0.01, beta=math.inf)
    times = np.linspace(0.0, 30.0, 301)
    traj, _ = jc_reduced_map(params, times)
    pop = vacuum_excited_population(traj)
    delta = params.omega - params.omega_m
    rabi = math.sqrt(delta ** 2 + 4.0 * params.g ** 2)
    oracle = 1.0 - (4.0 * params.g ** 2 / rabi ** 2) * np.sin(
        0.5 * rabi * times) ** 2
    dev = float(np.max(np.abs(pop - oracle)))
    assert dev <= 1e-8, f"vacuum population vs oracle deviation {dev:.3e}"
    return f"max deviation {dev:.3e} (tol 1e-8)"


def check_jc_rate_round_trip() -> str:
    params = JCParams(omega=1.0, omega_m=2.0, g=0.01, beta=0.2)
    times = np.linspace(0.0, 20.0, 401)
    traj, _ = jc_reduced_map(params, times)
    extracted = extract_pc_rates(traj)
    rebuilt, _ = pc_trajectory(extracted.as_rates(), times)
    dev = float(np.max(np.abs(traj.maps - rebuilt.maps)))
    assert dev <= 1e-6, f"reconstruction deviation {dev:.3e}"
    return f"rebuild deviation {dev:.3e} (tol 1e-6)"


def check_low_temperature_saturation() -> str:
    p = WeakCouplingParams(beta=10.0)
    traj, coeffs = pc_trajectory(weak_coupling_rates(p), p.grid(500))
    th = pc_thermo(coeffs)
    lam, bound = pc_lambda_w(th, coeffs, p.beta)
    ratio = float(lam[-1] / bound[-1])
    assert ratio <= 1.0 + 1e-12, f"factor exceeds its bound: ratio {ratio:.6f}"
    assert ratio > 0.99, f"no saturation at beta=10: ratio {ratio:.6f}"
    return f"factor reaches {ratio:.4f} of its bound at beta 10"


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
    ("jc_vacuum_oracle", check_jc_vacuum_oracle),
    ("jc_rate_round_trip", check_jc_rate_round_trip),
    ("low_temperature_saturation", check_low_temperature_saturation),
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
