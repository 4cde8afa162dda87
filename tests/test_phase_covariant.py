import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm

from hypothesis import given, settings
from hypothesis.strategies import floats

from mapthermo.dynamics import load_map_trajectory, save_map_trajectory
from mapthermo.errors import ConstructionError, SingularMap
from mapthermo.models import jc_reduced_map
from mapthermo.fluctuations import fluctuation_tables
from mapthermo.observables import ThermoPipeline
from mapthermo.params import (CustomPCParams, JCParams, WeakCouplingParams,
                              custom_pc_rates, weak_coupling_rates)
from mapthermo.operators import PAULI
from mapthermo.phase_covariant import (
    PCRates,
    pc_coefficients,
    pc_generator_transfer_matrix,
    pc_integrals,
    pc_lambda_u,
    pc_lambda_w,
    pc_mean_work_and_deltaF,
    pc_dissipated_bound,
    pc_thermo,
    pc_trajectory,
    pc_transfer_matrices,
)
from mapthermo.quadrature import stencil_derivative
from reference import (constant_rates, map_at, cptp_diagnostics,
                       pauli_transfer_matrix, pc_exp_avg_q, pc_general_d,
                       pc_generator, pc_map)


def fig_drive(gamma=0.01, beta=1.0, **kw):
    return WeakCouplingParams(delta=1.0, beta=beta, Omega=np.pi / 20,
                              gamma=gamma, **kw)


def test_integrals_vanish_for_zero_rates():
    rates = constant_rates(omega=1.0, gamma_plus=0.0, gamma_minus=0.0)
    co = pc_integrals(rates, np.linspace(0.0, 2.0, 41))
    th = pc_thermo(co)
    for arr in (co.I, co.J, th.P0, th.P3):
        npt.assert_allclose(arr, 0.0, atol=1e-15)
    npt.assert_allclose(th.W3, 0.5 * co.omega, atol=1e-15)


def test_integrals_constant_rate_closed_forms():
    gp, gm = 0.05, 0.25
    kappa, xi = gp + gm, gp - gm
    rates = constant_rates(omega=1.0, gamma_plus=gp, gamma_minus=gm)
    t = np.linspace(0.0, 4.0, 1601)
    co = pc_integrals(rates, t)
    npt.assert_allclose(co.I, kappa * t, atol=1e-12)
    npt.assert_allclose(co.J, (xi / kappa) * (np.exp(kappa * t) - 1.0),
                        atol=1e-8)
    npt.assert_allclose(co.c, (xi / kappa) * (1.0 - np.exp(-kappa * t)),
                        atol=1e-8)


def test_coefficient_structure_invariants():
    p = fig_drive(gamma_z=0.02)
    co = pc_integrals(weak_coupling_rates(p), p.grid(200))
    npt.assert_allclose(co.a ** 2 + co.b ** 2, co.d_perp ** 2, atol=1e-10)
    npt.assert_allclose(co.d_par, np.exp(-co.I), atol=1e-10)
    assert co.a[0] == 1.0 and co.b[0] == 0.0 and co.c[0] == 0.0
    assert co.d_par[0] == 1.0


def test_map_at_time_zero_is_identity():
    rates = constant_rates(omega=0.7, gamma_plus=0.1, gamma_minus=0.2)
    co = pc_integrals(rates, np.linspace(0.0, 1.0, 11))
    npt.assert_allclose(pc_map(co, 0).matrix, np.eye(4), atol=1e-14)


def test_pure_decoherence_coefficients_match_gksl():
    om, gz = 1.1, 0.07
    rates = constant_rates(omega=om, gamma_plus=0.0, gamma_minus=0.0,
                           gamma_z=gz)
    t = np.linspace(0.0, 3.0, 301)
    co = pc_integrals(rates, t)
    npt.assert_allclose(co.a, np.exp(-2 * gz * t) * np.cos(om * t), atol=1e-10)
    npt.assert_allclose(co.b, np.exp(-2 * gz * t) * np.sin(om * t), atol=1e-10)
    npt.assert_allclose(co.c, 0.0, atol=1e-15)
    npt.assert_allclose(co.d_par, 1.0, atol=1e-15)
    # direct GKSL integration oracle at a few times
    gen = pc_generator(om, 0.0, 0.0, gz).matrix
    for i in (50, 150, 300):
        direct = expm(t[i] * gen)
        assert np.max(np.abs(pc_map(co, i).matrix - direct)) < 1e-10


def test_thermal_fixed_point_detailed_balance():
    beta, om = 0.9, 1.0
    gm = 0.2
    gp = gm * np.exp(-beta * om)
    rates = constant_rates(omega=om, gamma_plus=gp, gamma_minus=gm)
    t = np.linspace(0.0, 6.0, 601)
    co = pc_integrals(rates, t)
    bias = co.c[1:] / (1.0 - co.d_par[1:])
    npt.assert_allclose(bias, np.tanh(-beta * om / 2.0), atol=1e-6)


def test_thermo_closed_system():
    p = fig_drive(gamma=0.0)
    co = pc_integrals(weak_coupling_rates(p), p.grid(100))
    th = pc_thermo(co)
    npt.assert_allclose(th.P0, 0.0, atol=1e-15)
    npt.assert_allclose(th.P3, 0.0, atol=1e-15)
    npt.assert_allclose(th.W3, co.omega / 2.0, atol=1e-15)


def test_thermo_pure_decoherence_is_heatless():
    rates = constant_rates(omega=1.0, gamma_plus=0.0, gamma_minus=0.0,
                           gamma_z=0.3)
    co = pc_integrals(rates, np.linspace(0.0, 5.0, 201))
    th = pc_thermo(co)
    for arr in (th.P0, th.P3):
        npt.assert_allclose(arr, 0.0, atol=1e-15)


def test_thermo_identities_and_sign():
    p = fig_drive()
    co = pc_integrals(weak_coupling_rates(p), p.grid(400))
    th = pc_thermo(co)
    npt.assert_allclose(th.W3, co.omega / 2.0 - th.P3, atol=1e-12)
    npt.assert_allclose(th.W0, -th.P0, atol=1e-12)
    # emission dominates absorption here, so the sigma_z component of the
    # path operator stays negative once the drive is on
    assert np.all(th.P3[1:] < 0.0)


def test_trajectory_structure_and_positivity():
    p = fig_drive(gamma_z=0.01)
    traj, co = pc_trajectory(weak_coupling_rates(p), p.grid(150))
    assert traj.derivatives is not None
    # the stack is the transfer matrices themselves, bit for bit
    assert traj.maps.tobytes() == pc_transfer_matrices(
        co.a, co.b, co.c, co.d_par).tobytes()
    pattern = np.array([
        [1, 0, 0, 0],
        [0, 1, 1, 0],
        [0, 1, 1, 0],
        [1, 0, 0, 1],
    ], dtype=bool)
    for i in (0, 75, 150):
        r = pauli_transfer_matrix(map_at(traj, i))
        assert np.max(np.abs(np.where(pattern, 0.0, r))) < 1e-10
        rep = cptp_diagnostics(map_at(traj, i))
        assert rep.choi_min_eigenvalue > -1e-12
        assert rep.trace_preserving_residual < 1e-12


# the entries pc_coefficients reads from a derivative stack
DERIVATIVE_ENTRIES = {"da": (1, 1), "db": (2, 1), "dc": (3, 0),
                      "dd_par": (3, 3)}


@pytest.mark.parametrize("build", ["pc_trajectory", "jc_reduced_map"])
def test_coefficients_give_back_the_packed_entries(build):
    times = np.linspace(0.0, 10.0, 151)
    if build == "pc_trajectory":
        traj, packed = pc_trajectory(
            weak_coupling_rates(fig_drive(gamma_z=0.01)), times)
    else:
        traj, packed = jc_reduced_map(
            JCParams(omega=1.3, omega_m=1.0, g=0.2, beta=0.7), times)
    read = pc_coefficients(traj)
    assert read.map_residual == 0.0
    assert read.times.tobytes() == traj.times.tobytes()
    for name in ("a", "b", "c", "d_par"):
        assert getattr(read, name).tobytes() == getattr(packed, name).tobytes()
    # the maps are the pattern of the entries read, bit for bit
    assert pc_transfer_matrices(read.a, read.b, read.c, read.d_par
                                ).tobytes() == traj.maps.tobytes()
    for name, (i, j) in DERIVATIVE_ENTRIES.items():
        assert getattr(read, name).tobytes() == \
            traj.derivatives[:, i, j].tobytes(), name


def test_coefficients_of_a_map_file_without_derivatives(tmp_path):
    p = fig_drive(gamma=0.05, gamma_z=0.01)
    rates = weak_coupling_rates(p)
    times = p.grid(400)
    traj, _ = pc_trajectory(rates, times,
                            derivative_source="finite_difference")
    path = str(tmp_path / "pc.maps")
    save_map_trajectory(traj, path)
    loaded = load_map_trajectory(path)
    assert loaded.derivatives is None
    read = pc_coefficients(loaded)
    stencil = stencil_derivative(loaded.maps, loaded.spacing)
    for name, (i, j) in DERIVATIVE_ENTRIES.items():
        assert getattr(read, name).tobytes() == stencil[:, i, j].tobytes(), \
            name
    assert read.map_residual < 1e-15
    # second-order stencils: the rates to within about h^2 omega^3 / 6
    # (h = 0.025, omega up to 2), one-sided at the ends
    for name, tol in [("omega", 5e-3), ("gamma_plus", 1e-6),
                      ("gamma_minus", 1e-6), ("gamma_z", 2e-4)]:
        npt.assert_allclose(getattr(read, name), getattr(rates, name)(times),
                            rtol=0.0, atol=tol, err_msg=name)


def test_transfer_matrix_stacks_match_scalar_entries():
    a, b, c, d = (np.array([0.5, -0.2]), np.array([0.1, 0.3]),
                  np.array([-0.4, 0.0]), np.array([0.9, 0.7]))
    stack = pc_transfer_matrices(a, b, c, d)
    assert stack.shape == (2, 4, 4)
    npt.assert_array_equal(stack[1], [[1.0, 0.0, 0.0, 0.0],
                                      [0.0, -0.2, -0.3, 0.0],
                                      [0.0, 0.3, -0.2, 0.0],
                                      [0.0, 0.0, 0.0, 0.7]])
    npt.assert_array_equal(pc_transfer_matrices(a, b, c, d, r00=0.0)[:, 0, 0],
                           0.0)
    gens = pc_generator_transfer_matrix(a, b, c, d)
    for k in range(2):
        npt.assert_array_equal(gens[k], pc_generator_transfer_matrix(
            a[k], b[k], c[k], d[k]))
    # omega 0.5, kappa 0.1, xi -0.4, gamma_z 0.9: damping 0.05 + 1.8
    npt.assert_allclose(gens[0], [[0.0, 0.0, 0.0, 0.0],
                                  [0.0, -1.85, -0.5, 0.0],
                                  [0.0, 0.5, -1.85, 0.0],
                                  [-0.4, 0.0, 0.0, -0.1]], rtol=0.0, atol=1e-15)


def test_lambda_w_starts_at_one():
    p = fig_drive()
    co = pc_integrals(weak_coupling_rates(p), p.grid(100))
    lam, bound = pc_lambda_w(pc_thermo(co), co, beta=1.0)
    assert abs(lam[0] - 1.0) < 1e-12
    assert abs(bound[0] - 1.0) < 1e-12


def test_lambda_w_monotone_and_close_to_one():
    p = fig_drive()
    co = pc_integrals(weak_coupling_rates(p), p.grid(1000))
    lam, bound = pc_lambda_w(pc_thermo(co), co, beta=1.0)
    assert np.all(np.diff(lam) >= -1e-10)
    assert np.all(lam <= bound + 1e-12)
    # closeness to the closed-system value 1 is controlled by the coupling:
    # an order of magnitude less damping pulls the factor in accordingly
    dev_ref = np.max(np.abs(lam - 1.0))
    assert dev_ref < 0.2
    p_small = fig_drive(gamma=0.001)
    co_s = pc_integrals(weak_coupling_rates(p_small), p_small.grid(1000))
    lam_s, _ = pc_lambda_w(pc_thermo(co_s), co_s, beta=1.0)
    assert np.max(np.abs(lam_s - 1.0)) < 0.15 * dev_ref


def test_lambda_w_saturates_bound_at_low_temperature():
    p = fig_drive(beta=10.0)
    co = pc_integrals(weak_coupling_rates(p), p.grid(500))
    lam, bound = pc_lambda_w(pc_thermo(co), co, beta=10.0)
    assert lam[-1] / bound[-1] > 0.99
    assert lam[-1] <= bound[-1] * (1.0 + 1e-12)


@pytest.mark.parametrize("rates", [
    weak_coupling_rates(WeakCouplingParams()),
    custom_pc_rates(CustomPCParams(delta=1.0, Omega=np.pi / 20,
                                   gamma_plus=0.05, gamma_minus=0.1,
                                   gamma_z=0.05)),
], ids=["weak_coupling", "custom_pc"])
def test_heat_column_matches_its_closed_form(rates):
    # with analytic derivatives the pipeline's P(t) is pc_thermo's to
    # rounding, so the tables' heat column meets the closed form to it
    traj, coeffs = pc_trajectory(rates, np.linspace(0.0, 10.0, 1001))
    th = pc_thermo(coeffs)
    betas = [0.5, 1.0, 3.0]
    tables = fluctuation_tables(ThermoPipeline(traj), betas)
    for beta, table in zip(betas, tables):
        want = pc_exp_avg_q(th, coeffs, beta)
        assert np.max(np.abs(table.exp_avg_q / want - 1.0)) <= 1e-13


def test_lambda_u_is_one_for_unital_family():
    rates = constant_rates(omega=1.0, gamma_plus=0.1, gamma_minus=0.1,
                           gamma_z=0.05)
    co = pc_integrals(rates, np.linspace(0.0, 3.0, 61))
    npt.assert_allclose(pc_lambda_u(co, beta=2.0), 1.0, atol=1e-12)


def test_mean_work_closed_constant_omega():
    rates = constant_rates(omega=1.0, gamma_plus=0.0, gamma_minus=0.0)
    co = pc_integrals(rates, np.linspace(0.0, 2.0, 81))
    mw, df = pc_mean_work_and_deltaF(pc_thermo(co), co, beta=1.3)
    npt.assert_allclose(mw, 0.0, atol=1e-14)
    npt.assert_allclose(df, 0.0, atol=1e-14)


def test_mean_work_closed_ramp():
    p = fig_drive(gamma=0.0)
    beta = 1.0
    co = pc_integrals(weak_coupling_rates(p), p.grid(400))
    mw, df = pc_mean_work_and_deltaF(pc_thermo(co), co, beta)
    v_z = np.tanh(-beta * co.omega[0] / 2.0)
    npt.assert_allclose(mw, (co.omega - co.omega[0]) / 2.0 * v_z, atol=1e-12)
    expect_df = -np.log(np.cosh(beta * co.omega / 2.0)
                        / np.cosh(beta * co.omega[0] / 2.0)) / beta
    npt.assert_allclose(df, expect_df, atol=1e-12)


def test_dissipated_work_bound_holds_on_grid():
    p = fig_drive()
    beta = 1.0
    co = pc_integrals(weak_coupling_rates(p), p.grid(500))
    th = pc_thermo(co)
    mw, df = pc_mean_work_and_deltaF(th, co, beta)
    bound = pc_dissipated_bound(th, co, beta)
    assert np.all(mw - df >= bound - 1e-12)


def test_general_d_qutrit_analytic_factors():
    # f_jk = exp((-i w_jk - g_jk) t) gives Im{fdot/f} = -w_jk pointwise,
    # so the effective eigenvalues are the centered frequencies
    w = np.array([0.7, -0.2, 1.1])
    g = np.array([[0.0, 0.05, 0.08], [0.05, 0.0, 0.03], [0.08, 0.03, 0.0]])
    t = np.linspace(0.0, 2.0, 201)
    wjk = w[:, None] - w[None, :]
    f = np.exp((-1j * wjk - g)[None, :, :] * t[:, None, None])
    fdot = (-1j * wjk - g)[None, :, :] * f
    R = np.array([[-0.3, 0.1, 0.2], [0.2, -0.4, 0.1], [0.1, 0.3, -0.3]])
    F = np.array([expm(ti * R) for ti in t])
    Fdot = np.array([R @ Fi for Fi in F])
    res = pc_general_d(t, F, f, Fdot=Fdot, fdot=fdot)
    expect_k = np.broadcast_to(w - np.mean(w), res.k.shape)
    npt.assert_allclose(res.k, expect_k, atol=1e-12)
    npt.assert_allclose(res.w, res.k - res.q, atol=1e-14)


def test_general_d_pure_decoherence_has_no_heat():
    w = np.array([0.5, -0.5])
    t = np.linspace(0.0, 1.0, 51)
    wjk = w[:, None] - w[None, :]
    f = np.exp(-1j * wjk[None, :, :] * t[:, None, None])
    F = np.broadcast_to(np.eye(2), (t.size, 2, 2)).copy()
    res = pc_general_d(t, F, f, Fdot=np.zeros_like(F),
                       fdot=(-1j * wjk)[None, :, :] * f)
    npt.assert_allclose(res.q, 0.0, atol=1e-15)


def test_general_d_reduces_to_qubit_engine():
    p = fig_drive()
    t = np.linspace(0.0, 10.0, 2001)
    rates = weak_coupling_rates(p)
    co = pc_integrals(rates, t)
    th = pc_thermo(co)
    gz = np.asarray(rates.gamma_z(t), dtype=float)
    cdot = co.xi - co.kappa * co.c
    ddot = -co.kappa * co.d_par
    F = np.empty((t.size, 2, 2))
    F[:, 0, 0] = 0.5 * (1 + co.c + co.d_par)
    F[:, 0, 1] = 0.5 * (1 + co.c - co.d_par)
    F[:, 1, 0] = 0.5 * (1 - co.c - co.d_par)
    F[:, 1, 1] = 0.5 * (1 - co.c + co.d_par)
    Fdot = np.empty_like(F)
    Fdot[:, 0, 0] = 0.5 * (cdot + ddot)
    Fdot[:, 0, 1] = 0.5 * (cdot - ddot)
    Fdot[:, 1, 0] = 0.5 * (-cdot - ddot)
    Fdot[:, 1, 1] = 0.5 * (-cdot + ddot)
    f01 = co.a - 1j * co.b
    f = np.ones((t.size, 2, 2), dtype=complex)
    f[:, 0, 1] = f01
    f[:, 1, 0] = np.conj(f01)
    fdot = np.zeros_like(f)
    fdot[:, 0, 1] = (-(co.kappa / 2 + 2 * gz) - 1j * co.omega) * f01
    fdot[:, 1, 0] = np.conj(fdot[:, 0, 1])
    res = pc_general_d(t, F, f, Fdot=Fdot, fdot=fdot)
    npt.assert_allclose(res.k[:, 0], co.omega / 2.0, atol=1e-8)
    npt.assert_allclose(res.k[:, 1], -co.omega / 2.0, atol=1e-8)
    npt.assert_allclose(res.q[:, 0], th.P0 + th.P3, atol=1e-8)
    npt.assert_allclose(res.q[:, 1], th.P0 - th.P3, atol=1e-8)


def test_general_d_input_validation():
    t = np.linspace(0.0, 1.0, 11)
    F = np.broadcast_to(np.eye(2), (t.size, 2, 2)).copy()
    f = np.ones((t.size, 2, 2), dtype=complex)
    bad_F = F.copy()
    bad_F[:, 0, 0] = 0.5
    with pytest.raises(ConstructionError):
        pc_general_d(t, bad_F, f)
    bad_f = f.copy()
    bad_f[:, 0, 1] = 1j
    bad_f[:, 1, 0] = 1j
    with pytest.raises(ConstructionError):
        pc_general_d(t, bad_F, bad_f)


def test_general_d_singular_population_matrix():
    t = np.linspace(0.0, 1.0, 11)
    s = 0.5 * t  # reaches the fully mixing (singular) matrix at t = 1
    F = np.empty((t.size, 2, 2))
    F[:, 0, 0] = 1.0 - s
    F[:, 0, 1] = s
    F[:, 1, 0] = s
    F[:, 1, 1] = 1.0 - s
    f = np.ones((t.size, 2, 2), dtype=complex)
    with pytest.raises(SingularMap):
        pc_general_d(t, F, f)


@settings(max_examples=20, deadline=None)
@given(floats(min_value=0.01, max_value=0.5), floats(min_value=0.01, max_value=0.5),
       floats(min_value=0.0, max_value=0.2))
def test_constant_rate_invariants_property(gp, gm, gz):
    rates = constant_rates(omega=1.0, gamma_plus=gp, gamma_minus=gm, gamma_z=gz)
    t = np.linspace(0.0, 2.0, 33)
    co = pc_integrals(rates, t)
    assert np.max(np.abs(co.a ** 2 + co.b ** 2 - co.d_perp ** 2)) < 1e-10
    assert np.max(np.abs(co.d_par - np.exp(-co.I))) < 1e-10
    assert np.max(np.abs(co.J * np.exp(-co.I) - co.c)) < 1e-12
