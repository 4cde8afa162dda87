import math
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm

from mapthermo.coherent import closed_coherent_protocol
from mapthermo.dynamics import MapTrajectory
from mapthermo import models
from mapthermo.errors import (ConfigError, ConstructionError, SingularMap,
                               TruncationError)
from mapthermo.models import (
    FINE_POINTS,
    NODE_CHUNK,
    PANEL_NODES,
    PANEL_Z,
    exchange_factor_series,
    extract_pc_rates,
    jc_reduced_map,
    vacuum_excited_population,
    _chebyshev_nodes,
    _frequency_families,
    _thermal_weights,
)
from mapthermo.params import (
    JC_AUTO_LEVELS_MAX,
    ClosedCoherentParams,
    JCParams,
    WeakCouplingParams,
    jc_mode_count,
    weak_coupling_rates,
)
from mapthermo.operators import PAULI, column_stacked
from mapthermo.fluctuations import fluctuation_table
from mapthermo.observables import ThermoPipeline
from mapthermo.phase_covariant import (pc_coefficients, pc_integrals,
                                       pc_lambda_u, pc_lambda_w, pc_thermo,
                                       pc_trajectory)
from mapthermo.validation import random_gksl_trajectory
from reference import (Superoperator, cptp_diagnostics, jc_level_sums,
                       map_at, pauli_transfer_matrix, stacked_trajectory)


def test_weak_coupling_params_validation():
    with pytest.raises(ConfigError):
        WeakCouplingParams(drive_mode="sawtooth")
    with pytest.raises(ConfigError):
        WeakCouplingParams(omega0=-1.0)
    with pytest.raises(ConfigError):
        WeakCouplingParams(beta=0.0)
    with pytest.raises(ConfigError):
        WeakCouplingParams(gamma=-0.1)


def test_weak_coupling_default_duration_and_grid():
    p = WeakCouplingParams(Omega=np.pi / 20)
    assert abs(p.default_t_f - 10.0) < 1e-14
    g = p.grid(250)
    assert g.size == 251 and g[0] == 0.0 and abs(g[-1] - 10.0) < 1e-14
    periodic = WeakCouplingParams(Omega=np.pi / 5, drive_mode="periodic")
    assert abs(periodic.default_t_f - 10.0) < 1e-14


def test_weak_coupling_rates_formulas():
    p = WeakCouplingParams(omega0=1.3, delta=0.8, Omega=0.4, gamma=0.05,
                           beta=2.0)
    r = weak_coupling_rates(p)
    ts = np.linspace(0.0, 5.0, 7)
    npt.assert_allclose(r.omega(ts), 1.3 + 0.8 * np.sin(0.4 * ts) ** 2,
                        atol=1e-14)
    n_th = 1.0 / math.expm1(2.0 * 1.3)
    npt.assert_allclose(r.gamma_plus(ts), 0.05 * n_th, atol=1e-15)
    npt.assert_allclose(r.gamma_minus(ts), 0.05 * (n_th + 1.0), atol=1e-15)
    npt.assert_allclose(r.gamma_z(ts), 0.0, atol=1e-15)
    # net bias xi = gamma_plus - gamma_minus is always -gamma
    assert abs((r.gamma_plus(0.0) - r.gamma_minus(0.0)) + 0.05) < 1e-15


def test_jc_params_validation():
    with pytest.raises(ConfigError):
        JCParams(omega_m=0.0)
    with pytest.raises(ConfigError):
        JCParams(beta=-1.0)
    with pytest.raises(ConfigError):
        JCParams(n_max=0)


def test_mode_count_vacuum_defaults_to_single_excitation():
    assert jc_mode_count(JCParams()) == 1
    assert jc_mode_count(JCParams(n_max=7)) == 7


def test_mode_count_rejects_heavy_tail():
    # q = e^{-1}: fourteen levels leave a ~1e-6 tail, far above the gate
    with pytest.raises(TruncationError) as exc:
        jc_mode_count(JCParams(beta=1.0, omega_m=1.0, n_max=13))
    assert exc.value.required_n_max > 13
    # the suggested cutoff passes
    assert jc_mode_count(JCParams(beta=1.0, omega_m=1.0,
                                  n_max=exc.value.required_n_max)) > 13


def test_mode_count_treats_an_underflowing_q_as_the_vacuum():
    # e^{-beta omega_m} is 0 in double precision
    assert jc_mode_count(JCParams(beta=1e300)) == 1
    assert jc_mode_count(JCParams(beta=1e300, n_max=7)) == 7
    times = np.linspace(0.0, 5.0, 41)
    cold, _ = jc_reduced_map(JCParams(beta=1e300), times)
    vacuum, _ = jc_reduced_map(JCParams(), times)
    npt.assert_array_equal(cold.maps, vacuum.maps)


def test_auto_cutoff_above_the_ceiling_fails_before_allocating():
    # beta = 1e-9 asks for about 1.4e10 levels (a 103 GiB weight vector)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"beta = 1e-09 and "
                           r"tail_margin = 1e-12 ask for 1\.38e\+10 photon "
                           r"levels .* ceiling of 100000"):
            JCParams(beta=1e-9)
        # beta omega_m below rounding: q = 1, an unbounded cutoff
        with pytest.raises(ConfigError, match="ask for inf photon levels"):
            JCParams(beta=1e-320)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    # at the ceiling: ln(tail_margin) / ln(q) = JC_AUTO_LEVELS_MAX levels
    beta = -math.log(1e-12) / (2.0 * JC_AUTO_LEVELS_MAX) * (1 + 1e-9)
    assert jc_mode_count(JCParams(beta=beta)) <= JC_AUTO_LEVELS_MAX
    with pytest.raises(ConfigError, match="ceiling"):
        JCParams(beta=beta * (1 - 1e-6))
    # an explicit cutoff is the caller's choice, and q = 1 fails its tail
    assert JCParams(beta=1e-9, n_max=10).n_max == 10
    with pytest.raises(TruncationError) as exc:
        jc_mode_count(JCParams(beta=1e-320, n_max=10))
    assert exc.value.required_n_max is None


def test_explicit_cutoff_above_the_ceiling_fails_before_allocating():
    # n_max = 1e10 would ask _thermal_weights for an 80 GB weight vector
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"n_max = 10000000000 asks for "
                           r"10000000001 photon levels, above the ceiling "
                           r"of 100000"):
            jc_reduced_map(JCParams(beta=1.0, n_max=10**10),
                           np.linspace(0.0, 1.0, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    # the ceiling counts levels, n_max + 1 of them
    top = JC_AUTO_LEVELS_MAX - 1
    assert JCParams(beta=1.0, n_max=top).n_max == top
    with pytest.raises(ConfigError, match="ceiling"):
        JCParams(beta=1.0, n_max=top + 1)


@pytest.mark.parametrize("fields,needle", [
    ({"g": 1e300}, "g = 1e+300"),
    # finite g^2, but 4 g^2 (n_max + 1) overflows
    ({"g": 1e154, "n_max": 10}, "g = 1e+154"),
    ({"omega": 1e300}, "omega - omega_m = 1e+300"),
    ({"omega_m": 1e300}, "omega - omega_m = -1e+300"),
])
def test_an_overflowing_rabi_frequency_is_a_config_error(fields, needle):
    with pytest.raises(ConfigError, match="overflows") as exc:
        JCParams(**fields)
    assert needle in str(exc.value)


def test_mode_count_auto_cutoff_meets_margin():
    p = JCParams(beta=0.2, omega_m=2.0, tail_margin=1e-12)
    n = jc_mode_count(p)
    q = math.exp(-0.4)
    assert q ** (n + 1) < 1e-12
    assert q ** n >= 1e-12 * q  # not wastefully deep


def test_vacuum_detuned_rabi_oracle():
    p = JCParams(omega=1.0, omega_m=2.0, g=0.01, beta=math.inf)
    times = np.linspace(0.0, 40.0, 401)
    traj, _ = jc_reduced_map(p, times)
    pop = vacuum_excited_population(traj)
    delta = p.omega - p.omega_m
    rabi = math.sqrt(delta ** 2 + 4.0 * p.g ** 2)
    expect = (np.cos(rabi * times / 2.0) ** 2
              + (delta / rabi) ** 2 * np.sin(rabi * times / 2.0) ** 2)
    npt.assert_allclose(pop, expect, atol=1e-12)
    assert pop[0] == 1.0


def test_vacuum_resonant_exchange_empties_the_qubit():
    p = JCParams(omega=1.0, omega_m=1.0, g=0.1, beta=math.inf)
    t_swap = np.pi / (2.0 * 0.1)
    times = np.linspace(0.0, t_swap, 101)
    traj, _ = jc_reduced_map(p, times)
    pop = vacuum_excited_population(traj)
    npt.assert_allclose(pop, np.cos(0.1 * times) ** 2, atol=1e-12)
    assert pop[-1] < 1e-12


def test_reduced_map_is_cptp_and_phase_covariant():
    p = JCParams(omega=2.0, omega_m=2.0, g=0.05, beta=1.0, n_max=25)
    times = np.linspace(0.0, 8.0, 81)
    traj, _ = jc_reduced_map(p, times)
    for i in (20, 50, 80):
        rep = cptp_diagnostics(map_at(traj, i))
        assert rep.choi_min_eigenvalue > -1e-9
        assert rep.trace_preserving_residual < 1e-12
        r = pauli_transfer_matrix(map_at(traj, i))
        pattern = np.array([[1, 0, 0, 0], [0, 1, 1, 0],
                            [0, 1, 1, 0], [1, 0, 0, 1]], dtype=bool)
        assert np.max(np.abs(np.where(pattern, 0.0, r))) < 1e-12


def test_reduced_map_decoupled_limit_is_bare_rotation():
    p = JCParams(omega=1.4, omega_m=2.0, g=0.0, beta=1.0, n_max=12)
    times = np.linspace(0.0, 5.0, 51)
    _, coeffs = jc_reduced_map(p, times)
    npt.assert_allclose(coeffs.a, np.cos(1.4 * times), atol=1e-12)
    npt.assert_allclose(coeffs.b, np.sin(1.4 * times), atol=1e-12)
    npt.assert_allclose(coeffs.c, 0.0, atol=1e-12)
    npt.assert_allclose(coeffs.d_par, 1.0, atol=1e-12)


def test_reduced_map_derivatives_match_finite_differences():
    p = JCParams(omega=2.0, omega_m=2.0, g=0.05, beta=0.5, n_max=40)
    times = np.linspace(0.0, 4.0, 801)
    _, coeffs = jc_reduced_map(p, times)
    h = times[1] - times[0]
    for arr, darr in ((coeffs.a, coeffs.da), (coeffs.b, coeffs.db),
                      (coeffs.c, coeffs.dc), (coeffs.d_par, coeffs.dd_par)):
        fd = (arr[2:] - arr[:-2]) / (2.0 * h)
        assert np.max(np.abs(fd - darr[1:-1])) < 2e-4


def test_reduced_map_stable_under_deeper_truncation():
    times = np.linspace(0.0, 6.0, 61)
    shallow = jc_reduced_map(JCParams(omega=2.0, omega_m=2.0, g=0.05,
                                      beta=1.0, n_max=13), times)[1]
    deep = jc_reduced_map(JCParams(omega=2.0, omega_m=2.0, g=0.05,
                                   beta=1.0, n_max=18), times)[1]
    for name in ("a", "b", "c", "d_par"):
        dev = np.max(np.abs(getattr(shallow, name) - getattr(deep, name)))
        assert dev < 1e-8, name


def _joint_unitary_oracle(params, times):
    """Reduced maps and their derivatives from the truncated qubit (x) Fock
    Hamiltonian: Phi_t[rho] = Tr_B[U (rho (x) gamma_th) U^dagger] and
    dPhi_t/dt[rho] = Tr_B[-i [H, U (rho (x) gamma_th) U^dagger]]."""
    dim = jc_mode_count(params) + 1
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    sigma_plus = np.array([[0.0, 1.0], [0.0, 0.0]])  # |e><g|, e first
    H = (0.5 * params.omega * np.kron(PAULI[3], np.eye(dim))
         + params.omega_m * np.kron(np.eye(2), a.T @ a)
         + params.g * (np.kron(sigma_plus, a) + np.kron(sigma_plus.T, a.T)))
    if math.isinf(params.beta):
        weights = np.eye(dim)[0]
    else:
        weights = np.exp(-params.beta * params.omega_m * np.arange(dim))
        weights /= weights.sum()
    gamma = np.diag(weights)

    def trace_mode(x):
        return np.trace(x.reshape(2, dim, 2, dim), axis1=1, axis2=3)

    maps = np.zeros((times.size, 4, 4), dtype=complex)
    derivs = np.zeros_like(maps)
    for k, t in enumerate(times):
        u = expm(-1j * t * H)
        for j in range(2):
            for i in range(2):
                unit = np.zeros((2, 2))
                unit[i, j] = 1.0
                rho = u @ np.kron(unit, gamma) @ u.conj().T
                maps[k, :, i + 2 * j] = trace_mode(rho).reshape(-1, order="F")
                derivs[k, :, i + 2 * j] = trace_mode(
                    -1j * (H @ rho - rho @ H)).reshape(-1, order="F")
    return maps, derivs


@pytest.mark.parametrize("params", [
    pytest.param(JCParams(omega=1.3, omega_m=1.0, g=0.2, beta=0.7),
                 id="detuned_thermal"),
    pytest.param(JCParams(omega=1.0, omega_m=1.0, g=0.15, beta=1.5),
                 id="resonant_thermal"),
    pytest.param(JCParams(omega=1.0, omega_m=2.0, g=0.3), id="vacuum"),
    # n_max = 1 leaves a 6e-6 weight on the edge level |e,1>, |g,1>
    pytest.param(JCParams(omega=0.8, omega_m=1.0, g=0.5, beta=12.0, n_max=1),
                 id="n_max_1"),
])
def test_reduced_map_matches_joint_unitary_evolution(params):
    times = np.linspace(0.0, 9.0, 13)
    traj, _ = jc_reduced_map(params, times)
    maps, derivs = _joint_unitary_oracle(params, times)
    npt.assert_allclose(column_stacked(traj.maps), maps,
                        rtol=0.0, atol=1e-12)
    npt.assert_allclose(column_stacked(traj.derivatives), derivs,
                        rtol=0.0, atol=1e-12)


def test_reduced_map_level_sum_is_chunk_independent():
    # the 1382 levels are compressed onto panels of half-width
    # PANEL_Z / t_N, which differ between the two grids; the 601-point
    # prefix, split into 7 coarse blocks against 13, must give the same sums
    params = JCParams(omega=1.0, omega_m=2.0, g=0.01, beta=0.01)
    assert jc_mode_count(params) + 1 == 1382
    long_grid = np.linspace(0.0, 60.0, 1201)
    _, two_chunks = jc_reduced_map(params, long_grid)
    _, one_chunk = jc_reduced_map(params, long_grid[:601])
    for name in ("a", "b", "c", "d_par", "da", "db", "dc", "dd_par"):
        npt.assert_allclose(getattr(two_chunks, name)[:601],
                            getattr(one_chunk, name), rtol=0.0, atol=1e-13,
                            err_msg=name)


LEVEL_SUM_REGIMES = [
    pytest.param(JCParams(omega=1.3, omega_m=1.0, g=0.2, beta=0.7),
                 id="detuned_thermal"),
    # delta = 0: the edge block n_max has zero Rabi frequency
    pytest.param(JCParams(omega=1.0, omega_m=1.0, g=0.15, beta=1.5),
                 id="resonant_thermal"),
    pytest.param(JCParams(omega=1.0, omega_m=2.0, g=0.3), id="vacuum"),
    pytest.param(JCParams(omega=0.8, omega_m=1.0, g=0.5, beta=12.0, n_max=1),
                 id="n_max_1"),
    pytest.param(JCParams(omega=1.4, omega_m=2.0, g=0.0, beta=1.0, n_max=12),
                 id="g_0"),
    # delta = 0: alpha = 0 on every block, 553 levels on a few panels
    pytest.param(JCParams(omega=1.0, omega_m=1.0, g=0.02, beta=0.05),
                 id="resonant_chunks"),
    # g = 0: all 1382 levels of a family share one frequency, on the lower
    # edge of a single panel
    pytest.param(JCParams(omega=1.4, omega_m=2.0, g=0.0, beta=0.01),
                 id="g_0_compressed"),
]
# grid sizes against the FINE_POINTS of the split grid
SHORT_GRIDS = [
    pytest.param(np.linspace(0.0, 9.0, FINE_POINTS // 2 + 3),
                 id="shorter_than_fine"),
    pytest.param(np.linspace(0.0, 20.0, 2 * FINE_POINTS), id="fine_multiple"),
    pytest.param(np.linspace(0.0, 20.0, 2 * FINE_POINTS + 1),
                 id="fine_multiple_plus_1"),
]
INEXACT_GRID = pytest.param(np.linspace(0.0, 60.0, 2401), id="inexact_h")
# N + 1 points, prime or not a perfect square: the split of the fine times
# into m = i b + j leaves its last row part filled, and at 101 points the
# second coarse block holds one point
PARTIAL_SPLIT_GRIDS = [pytest.param(np.linspace(0.0, 7.0, n), id=f"{n}_points")
                       for n in (2, 3, 7, 53, 97, 101)]


def _assert_level_sums_match_reference(params, times):
    _, coeffs = jc_reduced_map(params, times)
    f, T_ee, T_gg, df, dT_ee, dT_gg = jc_level_sums(params, times)
    for name, got, want in [
            ("f", coeffs.a - 1j * coeffs.b, f),
            ("T_ee", 0.5 * (1.0 + coeffs.c + coeffs.d_par), T_ee),
            ("T_gg", 0.5 * (1.0 - coeffs.c + coeffs.d_par), T_gg),
            ("df", coeffs.da - 1j * coeffs.db, df),
            ("dc", coeffs.dc, dT_ee - dT_gg),
            ("dd_par", coeffs.dd_par, dT_ee + dT_gg)]:
        npt.assert_allclose(got, want, rtol=0.0, atol=1e-13, err_msg=name)


@pytest.mark.parametrize("times",
                         SHORT_GRIDS + [INEXACT_GRID] + PARTIAL_SPLIT_GRIDS)
@pytest.mark.parametrize("params", LEVEL_SUM_REGIMES)
def test_level_sum_matches_elementwise_reference(params, times):
    _assert_level_sums_match_reference(params, times)


@pytest.mark.parametrize("times", SHORT_GRIDS + [
    pytest.param(np.linspace(0.0, 400.0, 1601), id="hot_window")])
def test_hot_level_sum_matches_elementwise_reference(times):
    # 13816 levels, every family compressed onto panels; delta = -1
    params = JCParams(omega_m=2.0, g=0.01, beta=1e-3)
    levels = jc_mode_count(params) + 1
    assert max(node_counts(params, times[-1])) < levels / 10
    _assert_level_sums_match_reference(params, times)


def node_counts(params, t_max):
    """Nodes of the difference, sum and doubled-angle families."""
    p = _thermal_weights(params, jc_mode_count(params))
    return [_chebyshev_nodes(freqs, amps, t_max)[0].size
            for freqs, amps in _frequency_families(params, p)]


def test_chebyshev_panel_constants_meet_the_error_bound():
    # interpolation error of e^{i zeta x}, |zeta| <= z, at m Chebyshev
    # nodes, per unit amplitude
    z, m = PANEL_Z, PANEL_NODES
    assert 4.0 * (z / 2.0) ** m / math.factorial(m) / (
        1.0 - z / (2.0 * m + 2.0)) <= 1e-16


def test_hot_window_node_count():
    params = JCParams(omega_m=2.0, g=0.01, beta=1e-3)
    # the edge levels put one stray panel into the difference family
    counts = node_counts(params, 400.0)
    assert counts == [2 * PANEL_NODES, 940, 940]
    assert sum(counts) < 4200


def test_level_sum_over_several_node_chunks():
    # Rabi frequencies up to 100 on a long window: the sum and doubled
    # families keep their 2501 levels as nodes, over two chunks each
    params = JCParams(omega_m=2.0, g=1.0, beta=1.0, n_max=2500)
    times = np.linspace(0.0, 40.0, 201)
    assert min(node_counts(params, times[-1])[1:]) > NODE_CHUNK
    _assert_level_sums_match_reference(params, times)


def test_level_sum_with_levels_on_a_panel_edge():
    # t_N puts block 40 of the doubled family exactly on the lower edge of
    # the second of five panels
    params = JCParams(omega_m=1.5, g=0.05, beta=0.05)
    p = _thermal_weights(params, jc_mode_count(params))
    rabi = _frequency_families(params, p)[2][0]
    gap = rabi[41] - rabi.min()
    t_max = 2.0 * PANEL_Z / gap
    for _ in range(64):
        ratio = gap / (2.0 * (PANEL_Z / t_max))
        if ratio == 1.0:
            break
        t_max = np.nextafter(t_max, np.inf if ratio > 1.0 else -np.inf)
    assert ratio == 1.0
    times = np.linspace(0.0, t_max, 601)
    assert node_counts(params, t_max)[2] < rabi.size
    _assert_level_sums_match_reference(params, times)


def test_reduced_map_rejects_a_grid_off_the_uniform_split():
    params = JCParams(omega=1.0, omega_m=2.0, g=0.3)
    times = np.linspace(0.0, 10.0, 101)
    jc_reduced_map(params, times)
    # uniform to GRID_RTOL, but 1e-12 is about 560 ulp of t_N = 10
    times[37] += 1e-12
    with pytest.raises(ConstructionError, match=r"t\[37\]"):
        jc_reduced_map(params, times)
    with pytest.raises(ConstructionError, match="not uniform from 0"):
        jc_reduced_map(params, np.linspace(1.0, 10.0, 101))
    with pytest.raises(ConstructionError, match="end after 0"):
        jc_reduced_map(params, np.zeros(3))


def test_extraction_recovers_weak_coupling_rates():
    p = WeakCouplingParams(gamma=0.05, beta=2.0)
    times = p.grid(200)
    traj, _ = pc_trajectory(weak_coupling_rates(p), times)
    ex = extract_pc_rates(traj)
    r = weak_coupling_rates(p)
    npt.assert_allclose(ex.omega, r.omega(times), atol=1e-9)
    npt.assert_allclose(ex.gamma_plus, r.gamma_plus(times), atol=1e-9)
    npt.assert_allclose(ex.gamma_minus, r.gamma_minus(times), atol=1e-9)
    npt.assert_allclose(ex.gamma_z, 0.0, atol=1e-9)
    assert ex.map_residual < 1e-12
    assert ex.generator_residual < 1e-9


def test_extraction_of_decoupled_exchange_is_pure_rotation():
    p = JCParams(omega=1.4, omega_m=2.0, g=0.0, beta=1.0, n_max=12)
    times = np.linspace(0.0, 5.0, 51)
    traj, _ = jc_reduced_map(p, times)
    ex = extract_pc_rates(traj)
    npt.assert_allclose(ex.omega, 1.4, atol=1e-10)
    npt.assert_allclose(ex.kappa, 0.0, atol=1e-10)
    npt.assert_allclose(ex.xi, 0.0, atol=1e-10)
    npt.assert_allclose(ex.gamma_z, 0.0, atol=1e-10)


def test_extraction_interpolator_reproduces_grid_samples():
    p = WeakCouplingParams(gamma=0.05)
    times = p.grid(100)
    traj, _ = pc_trajectory(weak_coupling_rates(p), times)
    ex = extract_pc_rates(traj)
    rates = ex.as_rates()
    npt.assert_allclose(rates.omega(times), ex.omega, atol=1e-14)
    npt.assert_allclose(rates.gamma_plus(times), ex.gamma_plus, atol=1e-14)
    mid = 0.5 * (times[3] + times[4])
    expect = 0.5 * (ex.omega[3] + ex.omega[4])
    assert abs(rates.omega(mid) - expect) < 1e-14


def test_extraction_rejects_non_phase_covariant_trajectory():
    # x-axis rotation mixes y and z: wrong invariant block structure
    sx = PAULI[1]
    times = np.linspace(0.0, 1.0, 11)
    maps = np.stack([Superoperator(np.kron(expm(1j * t * sx),
                                           expm(-1j * t * sx))).matrix
                     for t in times])
    traj = stacked_trajectory(times, maps)
    with pytest.raises(ConfigError):
        extract_pc_rates(traj)


# the excited population of a qutrit stack's entries (0, 0), (0, 3),
# (3, 0), (3, 3) would read 1.5 at t = 0
@pytest.mark.parametrize("read", [extract_pc_rates, pc_coefficients,
                                  vacuum_excited_population])
def test_qubit_readers_reject_a_qutrit_trajectory(read):
    traj = random_gksl_trajectory(3, np.random.default_rng(5),
                                  np.linspace(0.0, 1.0, 11))
    with pytest.raises(ConfigError, match="qubit trajectory, not d = 3"):
        read(traj)


def test_extraction_raises_at_singular_exchange_node():
    p = JCParams(omega=1.0, omega_m=1.0, g=0.1, beta=math.inf)
    t_node = np.pi / 0.2
    times = np.linspace(0.0, 2.0 * t_node, 201)
    traj, _ = jc_reduced_map(p, times)
    with pytest.raises(SingularMap) as exc:
        extract_pc_rates(traj)
    assert abs(exc.value.time - t_node) < 1e-9


def test_extraction_singular_map_names_the_first_failing_point():
    # two exchange nodes on the grid: the error carries the earlier one
    p = JCParams(omega=1.0, omega_m=1.0, g=0.1, beta=math.inf)
    t_node = np.pi / 0.2
    times = np.linspace(0.0, 4.0 * t_node, 401)
    traj, _ = jc_reduced_map(p, times)
    with pytest.raises(SingularMap) as exc:
        extract_pc_rates(traj)
    assert abs(exc.value.time - t_node) < 1e-9
    assert exc.value.condition_number == np.linalg.cond(traj.maps[100])
    assert f"t = {t_node:.6g}" in str(exc.value)


def test_extraction_succeeds_off_resonance():
    p = JCParams(omega=1.0, omega_m=2.0, g=0.01, beta=0.2, n_max=60)
    times = np.linspace(0.0, 30.0, 301)
    traj, _ = jc_reduced_map(p, times)
    ex = extract_pc_rates(traj)
    assert ex.map_residual < 1e-10
    assert ex.generator_residual < 1e-8
    # memory effects show up as a time-dependent splitting
    assert np.ptp(ex.omega) > 1e-4


# the windows of scripts/run_exchange_windows.py:
# name -> (omega_m, g, beta_mode, beta_ref, t_f)
EXCHANGE_WINDOWS = {
    "cold": (2.0, 0.01, 5.0, 5.0, 400.0),
    "hot": (2.0, 0.01, 1e-3, 1.0, 400.0),
    "strong": (1.5, 0.1, 0.2, 1.0, 60.0),
    "weak": (1.5, 0.01, 0.2, 1.0, 60.0),
}


def exchange_window(name, n):
    omega_m, g, beta_mode, beta_ref, t_f = EXCHANGE_WINDOWS[name]
    return (JCParams(omega_m=omega_m, g=g, beta=beta_mode),
            np.linspace(0.0, t_f, n + 1), beta_ref)


@pytest.mark.parametrize("name,n,compressed", [
    ("weak", 2400, [True, True, True]),
    ("strong", 2400, [False, False, False]),
    ("cold", 2000, [False, False, False]),
])
def test_window_level_sums_match_elementwise_reference(name, n, compressed):
    # the windows' own grids; the weak window's 93 levels sit on one panel
    # per family, while the strong and cold windows keep their levels
    params, times, _ = exchange_window(name, n)
    levels = jc_mode_count(params) + 1
    nodes = node_counts(params, times[-1])
    assert [k < size for k, size in zip(nodes, [levels, levels, levels + 1])
            ] == compressed
    _assert_level_sums_match_reference(params, times)


PC_ENTRY_FIELDS = ("times", "a", "b", "c", "d_par", "da", "db", "dc",
                   "dd_par", "map_residual", "omega", "kappa", "xi", "gamma_z",
                   "gamma_plus", "gamma_minus", "generator_residual")


@pytest.mark.parametrize("params,times", [
    pytest.param(*exchange_window("hot", 1600)[:2], id="hot"),
    pytest.param(JCParams(omega=1.0, omega_m=1.0, g=0.1),
                 np.linspace(0.0, 60.0, 2401), id="resonant_vacuum"),
    pytest.param(*exchange_window("strong", 2400)[:2], id="strong")])
def test_jc_coefficients_are_the_entries_its_maps_read_back(monkeypatch,
                                                            params, times):
    def read_back(traj):
        raise AssertionError("jc_reduced_map read its own maps back")

    with monkeypatch.context() as m:
        m.setattr(models, "pc_coefficients", read_back)
        traj, coeffs = jc_reduced_map(params, times)
    with np.errstate(divide="ignore", invalid="ignore"):
        for name, want in zip(PC_ENTRY_FIELDS, (
                getattr(pc_coefficients(traj), name)
                for name in PC_ENTRY_FIELDS)):
            assert np.asarray(getattr(coeffs, name)).tobytes() == \
                np.asarray(want).tobytes(), name


def rate_round_trip(params, times, beta_ref):
    """The closed forms through extracted, interpolated and re-integrated
    rates: (lambda_w, bound, lambda_u)."""
    traj, _ = jc_reduced_map(params, times)
    coeffs = pc_integrals(extract_pc_rates(traj).as_rates(), times)
    lam, bound = pc_lambda_w(pc_thermo(coeffs), coeffs, beta_ref)
    return lam, bound, pc_lambda_u(coeffs, beta_ref)


def max_rel(x, ref):
    return float(np.max(np.abs(x - ref) / np.abs(ref)))


@pytest.mark.parametrize("name", sorted(EXCHANGE_WINDOWS))
def test_exchange_closed_forms_match_the_generic_route(name):
    params, times, beta_ref = exchange_window(name, 400)
    _, lam, bound, lam_u = exchange_factor_series(params, times, beta_ref)
    traj, _ = jc_reduced_map(params, times)
    # the series is the closed forms of the coefficients read from the maps
    coeffs = pc_coefficients(traj)
    closed = pc_lambda_w(pc_thermo(coeffs), coeffs, beta_ref)
    for got, want in zip((lam, bound, lam_u),
                         closed + (pc_lambda_u(coeffs, beta_ref),)):
        assert got.tobytes() == want.tobytes()
    table = fluctuation_table(ThermoPipeline(traj), beta_ref)
    assert max_rel(lam, table.lambda_w) <= 1e-12
    assert max_rel(bound, table.lambda_w_bound) <= 1e-12
    assert max_rel(lam_u, table.lambda_u) <= 1e-12


@pytest.mark.parametrize("name", ["cold", "strong", "weak"])
def test_rate_round_trip_converges_to_the_map_coefficient_route(name):
    # the round trip's gap is its own discretization error: it shrinks by
    # at least 4x per halving of the step
    gaps = []
    for n in (200, 400, 800):
        params, times, beta_ref = exchange_window(name, n)
        new = exchange_factor_series(params, times, beta_ref)[1:]
        old = rate_round_trip(params, times, beta_ref)
        gaps.append([max_rel(o, x) for o, x in zip(old, new)])
    gaps = np.array(gaps)
    assert np.all(gaps > 0.0)
    assert np.all(gaps[:-1] >= 4.0 * gaps[1:])


def test_exchange_closed_forms_stay_finite_at_resonance_from_vacuum():
    # the deep non-Markovian regime: the rates diverge wherever the excited
    # amplitude crosses zero, the map coefficients do not
    params = JCParams(omega=1.0, omega_m=1.0, g=0.1, beta=math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, lam, bound, lam_u = exchange_factor_series(
            params, np.linspace(0.0, 60.0, 2401), 1.0)
    assert np.all(np.isfinite(lam) & np.isfinite(bound) & np.isfinite(lam_u))
    assert np.all(lam <= bound * (1.0 + 1e-9))


def test_exchange_factor_series_raises_at_singular_exchange_node():
    p = JCParams(omega=1.0, omega_m=1.0, g=0.1, beta=math.inf)
    t_node = np.pi / 0.2
    with pytest.raises(SingularMap) as exc:
        exchange_factor_series(p, np.linspace(0.0, 2.0 * t_node, 201), 1.0)
    assert abs(exc.value.time - t_node) < 1e-9


def test_closed_coherent_params_validation():
    with pytest.raises(ConfigError):
        ClosedCoherentParams(drive_mode="square")
    with pytest.raises(ConfigError):
        ClosedCoherentParams(beta0=0.0)


def test_closed_coherent_protocol_structure():
    p = ClosedCoherentParams(rotation_angle=0.5)
    times = p.grid(100)
    rho0, hams, unitaries = closed_coherent_protocol(p, times)
    assert hams.shape == unitaries.shape == (times.size, 2, 2)
    assert abs(np.trace(rho0) - 1.0) < 1e-12
    assert abs(rho0[0, 1]) > 1e-3
    omega = p.omega0 + p.delta * np.sin(p.Omega * times) ** 2
    npt.assert_allclose(hams, 0.5 * omega[:, None, None] * PAULI[3],
                        atol=1e-14)
    npt.assert_allclose(unitaries[0], np.eye(2), atol=1e-14)
    # propagators are phase rotations by the accumulated splitting
    npt.assert_allclose(unitaries @ unitaries.conj().swapaxes(1, 2),
                        np.broadcast_to(np.eye(2), unitaries.shape),
                        atol=1e-12)
    assert np.all(np.abs(unitaries[:, [0, 1], [1, 0]]) < 1e-15)


@pytest.mark.parametrize("times,why", [
    ([0.0, 0.1, 0.5, 0.6, 2.0], "grid must be uniform"),
    ([0.0, 1.0, 1.0], "grid must be strictly increasing"),
    ([0.0], "grid needs at least two points")])
def test_closed_coherent_protocol_refuses_a_grid_that_is_not_uniform(times,
                                                                     why):
    # the accumulated angle is a Simpson sum on the grid's spacing
    with pytest.raises(ValueError, match=why):
        closed_coherent_protocol(ClosedCoherentParams(), np.array(times))


def test_closed_coherent_undriven_propagator_closed_form():
    p = ClosedCoherentParams(delta=1e-30, rotation_angle=0.0)
    times = p.grid(60)
    rho0, hams, unitaries = closed_coherent_protocol(p, times)
    assert abs(rho0[0, 1]) < 1e-15
    # every row, not one: the stack is filled from the accumulated angle
    phase = np.exp(-0.5j * p.omega0 * times)
    npt.assert_allclose(unitaries[:, 0, 0], phase, atol=1e-12)
    npt.assert_allclose(unitaries[:, 1, 1], phase.conj(), atol=1e-12)
    npt.assert_allclose(unitaries[:, [0, 1], [1, 0]], 0.0, atol=0)
