import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm

from hypothesis import given, settings
from hypothesis.strategies import floats

from mapthermo.dynamics import invertibility_report
from mapthermo.coherent import (
    CoherentInitialData,
    closed_coherent_protocol,
    coherent_initial_construction,
    coherent_work_fluctuation,
    match_beta,
)
from mapthermo.errors import NoMatchingBeta, SingularMap
from mapthermo.fluctuations import fluctuation_table
from mapthermo.params import (ClosedCoherentParams, WeakCouplingParams,
                              weak_coupling_rates)
from mapthermo.observables import (
    ThermoPipeline,
    mean_change,
    shifted_observable,
)
from mapthermo.operators import PAULI, coordinates, from_coordinates
from mapthermo.phase_covariant import pc_integrals, pc_thermo, pc_trajectory
from mapthermo.quadrature import cumulative_simpson
from mapthermo.validation import random_gksl_trajectory
from reference import (Superoperator, apply, coherent_work_row,
                       constant_rates, duration_mean_change, generator_at,
                       gibbs_state, map_at, minimal_dissipation_split,
                       partition_function, random_density_matrix,
                       random_hermitian, single_measure_final_work,
                       single_measure_initial, stacked_trajectory, unvec,
                       vec)

SZ = PAULI[3]


def weak_traj(n=400, **kw):
    p = WeakCouplingParams(**kw)
    traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(n))
    return p, traj


def two_piece_unitary_trajectory(A, B, times):
    """U(t) = e^{-iAt} e^{-iBt}: genuinely time-dependent effective
    Hamiltonian i dU/dt U^dag = A + e^{-iAt} B e^{iAt}, with exact map
    derivatives so no stencil error enters the generator split."""
    maps, derivs = [], []
    for t in times:
        ua, ub = expm(-1j * t * A), expm(-1j * t * B)
        u = ua @ ub
        du = -1j * (A @ u + ua @ B @ ub)
        maps.append(Superoperator(np.kron(u.conj(), u)).matrix)
        derivs.append(np.kron(du.conj(), u) + np.kron(u.conj(), du))
    return stacked_trajectory(np.asarray(times, dtype=float),
                              np.stack(maps), np.stack(derivs))


A_GEN = 0.7 * PAULI[1] + 0.2 * PAULI[3]
B_GEN = 0.5 * PAULI[2] - 0.3 * PAULI[3]


def test_path_operator_vanishes_for_unitary_evolution():
    traj = two_piece_unitary_trajectory(A_GEN, B_GEN, np.linspace(0.0, 2.0, 201))
    pipe = ThermoPipeline(traj)
    for i in (0, 50, 120, 200):
        npt.assert_allclose(from_coordinates(pipe.p[i]), 0.0, atol=1e-14)


def test_path_operator_vanishes_for_pure_decoherence():
    rates = constant_rates(omega=1.3, gamma_plus=0.0, gamma_minus=0.0,
                           gamma_z=0.4)
    traj, _ = pc_trajectory(rates, np.linspace(0.0, 3.0, 151))
    pipe = ThermoPipeline(traj)
    for x in pipe.path_operator_series():
        npt.assert_allclose(x, 0.0, atol=1e-13)


def test_path_operator_matches_closed_form_for_weak_coupling():
    # generic pipeline against the specialised phase-covariant route
    p = WeakCouplingParams()
    rates = weak_coupling_rates(p)
    times = p.grid(400)
    traj, _ = pc_trajectory(rates, times)
    pipe = ThermoPipeline(traj)
    th = pc_thermo(pc_integrals(rates, times))
    for i in range(0, times.size, 25):
        expect = th.P0[i] * np.eye(2) + th.P3[i] * SZ
        npt.assert_allclose(from_coordinates(pipe.p[i]), expect, atol=1e-9)


def test_closed_system_two_point_work_is_effective_hamiltonian():
    traj = two_piece_unitary_trajectory(A_GEN, B_GEN, np.linspace(0.0, 2.0, 201))
    pipe = ThermoPipeline(traj)
    work, heat = pipe.work_heat_observables()
    for i in (0, 80, 200):
        npt.assert_allclose(from_coordinates(work[i]),
                            from_coordinates(pipe.k[i]), atol=1e-13)
        npt.assert_allclose(from_coordinates(heat[i]), 0.0, atol=1e-13)


def test_closed_system_single_measure_initial_operator():
    # duration-t protocol: initial operator is H(0) - U^dag K(t) U,
    # final operator zero by construction
    ts = np.linspace(0.0, 2.0, 201)
    traj = two_piece_unitary_trajectory(A_GEN, B_GEN, ts)
    pipe = ThermoPipeline(traj)
    work, heat = single_measure_initial(pipe)
    i = 150
    ua, ub = expm(-1j * ts[i] * A_GEN), expm(-1j * ts[i] * B_GEN)
    u = ua @ ub
    K_t = A_GEN + ua @ B_GEN @ ua.conj().T
    expect = (A_GEN + B_GEN) - u.conj().T @ K_t @ u
    npt.assert_allclose(from_coordinates(work[i]), expect, atol=1e-12)
    npt.assert_allclose(from_coordinates(heat[i]), 0.0, atol=1e-12)


def test_conventions_agree_on_mean_changes():
    ts = np.linspace(0.0, 2.0, 201)
    traj = two_piece_unitary_trajectory(A_GEN, B_GEN, ts)
    pipe = ThermoPipeline(traj)
    rho0 = random_density_matrix(2, np.random.default_rng(3))
    w_tp, _ = pipe.work_heat_observables()
    w_smf = single_measure_final_work(pipe)
    w_smi, _ = single_measure_initial(pipe)
    npt.assert_allclose(from_coordinates(w_smf[0]), 0.0, atol=1e-12)
    for i in (40, 150, 200):
        ref = mean_change(w_tp, traj, i, rho0)
        assert abs(mean_change(w_smf, traj, i, rho0) - ref) < 1e-10
        assert abs(duration_mean_change(w_smi, i, rho0) - ref) < 1e-10


def test_mean_work_equals_power_integral():
    # <w>(t) = int_0^t Tr{ dK/dtau rho(tau) } dtau for the driven qubit,
    # with dK/dtau known in closed form from the splitting ramp
    p = WeakCouplingParams(gamma=0.4)
    times = p.grid(1600)
    traj, _ = pc_trajectory(weak_coupling_rates(p), times)
    pipe = ThermoPipeline(traj)
    rho0 = random_density_matrix(2, np.random.default_rng(11))
    work, heat = pipe.work_heat_observables()
    mw = mean_change(work, traj, times.size - 1, rho0)
    vz = np.array([float(np.trace(SZ @ apply(map_at(traj, i), rho0)).real)
                   for i in range(times.size)])
    wdot = p.delta * p.Omega * np.sin(2.0 * p.Omega * times)
    oracle = cumulative_simpson(0.5 * wdot * vz, traj.spacing)[-1]
    assert abs(mw - oracle) < 1e-7

    # and the three mean changes close the first law exactly
    mq = mean_change(heat, traj, times.size - 1, rho0)
    du = mean_change(pipe.k, traj, times.size - 1, rho0)
    assert abs(mw + mq - du) < 1e-12


def test_gibbs_fixed_point_absorbs_no_heat():
    # the frozen rates obey detailed balance at beta, so the matching Gibbs
    # state rides the drive without any dissipative energy flow
    p, traj = weak_traj(n=400)
    pipe = ThermoPipeline(traj)
    rho0 = gibbs_state(0.5 * p.omega0 * SZ, p.beta)
    _, heat = pipe.work_heat_observables()
    assert abs(mean_change(heat, traj, traj.times.size - 1, rho0)) < 1e-9


def test_balance_residual_is_tiny():
    _, traj = weak_traj(n=200, gamma=0.3)
    assert ThermoPipeline(traj).balance_residual() < 1e-12


def test_shift_with_same_initial_is_identity():
    _, traj = weak_traj(n=100)
    pipe = ThermoPipeline(traj)
    work, _ = pipe.work_heat_observables()
    same = shifted_observable(work, traj, work[0])
    for i in (0, 50, 100):
        npt.assert_allclose(from_coordinates(same[i]),
                            from_coordinates(work[i]), atol=1e-12)


def test_shift_by_identity_component_is_uniform():
    # trace preservation makes the back-propagated identity the identity,
    # so a c*1 offset at t=0 just subtracts c*1 everywhere
    _, traj = weak_traj(n=100, gamma=0.2)
    pipe = ThermoPipeline(traj)
    work, _ = pipe.work_heat_observables()
    c = 0.7
    new0 = work[0] - c * coordinates(np.eye(2))
    shifted = shifted_observable(work, traj, new0)
    for i in (0, 33, 100):
        npt.assert_allclose(from_coordinates(shifted[i]),
                            from_coordinates(work[i]) - c * np.eye(2),
                            atol=1e-10)


def test_shift_preserves_every_two_point_mean_change():
    _, traj = weak_traj(n=200, gamma=0.3)
    pipe = ThermoPipeline(traj)
    work, _ = pipe.work_heat_observables()
    rng = np.random.default_rng(5)
    shifted = shifted_observable(work, traj,
                                 coordinates(random_hermitian(2, rng)))
    for _ in range(10):
        rho0 = random_density_matrix(2, rng)
        for i in (17, 101, 200):
            before = mean_change(work, traj, i, rho0)
            after = mean_change(shifted, traj, i, rho0)
            assert abs(before - after) < 1e-9


def test_match_beta_recovers_gibbs_temperature():
    H0 = np.array([[0.9, 0.3 - 0.2j], [0.3 + 0.2j, -0.7]])
    beta = match_beta(gibbs_state(H0, 2.31), H0)
    assert abs(beta - 2.31) / 2.31 < 1e-8


def test_match_beta_against_grid_scan():
    rng = np.random.default_rng(7)
    H0 = np.array([[0.9, 0.3 - 0.2j], [0.3 + 0.2j, -0.7]])
    rho = random_density_matrix(2, rng)
    beta = match_beta(rho, H0)
    vals = np.linalg.eigvalsh(H0)
    target = float(np.trace(H0 @ rho).real)
    grid = np.logspace(-3.0, 3.0, 200001)
    w = np.exp(-np.outer(grid, vals - vals.min()))
    energies = (w @ vals) / np.sum(w, axis=1)
    beta_scan = grid[np.argmin(np.abs(energies - target))]
    assert abs(beta - beta_scan) / beta < 1e-4


def test_match_beta_rejects_trivial_hamiltonian():
    H0 = 3.0 * np.eye(2)
    with pytest.raises(NoMatchingBeta):
        match_beta(random_density_matrix(2, np.random.default_rng(0)), H0)


def test_match_beta_rejects_maximally_mixed_state():
    H0 = 0.8 * SZ
    with pytest.raises(NoMatchingBeta):
        match_beta(0.5 * np.eye(2), H0)


def test_match_beta_rejects_energy_outside_spectrum():
    H0 = 0.8 * SZ
    excited = np.diag([1.0, 0.0])
    with pytest.raises(NoMatchingBeta):
        match_beta(excited, H0)


def test_match_beta_respects_bracket():
    H0 = 0.8 * SZ
    rho = gibbs_state(H0, 1.0)
    with pytest.raises(NoMatchingBeta):
        match_beta(rho, H0, bracket=(10.0, 1e6))


@settings(max_examples=25, deadline=None)
@given(floats(min_value=0.1, max_value=5.0))
def test_match_beta_roundtrip_property(beta_true):
    H0 = np.array([[1.1, 0.4], [0.4, -0.5]])
    beta = match_beta(gibbs_state(H0, beta_true), H0)
    assert abs(beta - beta_true) / beta_true < 1e-6


def test_coherent_construction_reproduces_gibbs_reference():
    H0 = 0.8 * SZ + 0.1 * PAULI[1]
    data = coherent_initial_construction(gibbs_state(H0, 1.7), H0)
    assert abs(data.beta - 1.7) / 1.7 < 1e-8
    npt.assert_allclose(data.H_star, H0, atol=1e-8)
    npt.assert_allclose(data.xi, 0.0, atol=1e-8)
    assert abs(data.lambda_min_xi) < 1e-8
    assert abs(data.relative_entropy) < 1e-10


def test_coherent_construction_gibbs_of_h_star_is_the_state():
    rng = np.random.default_rng(21)
    H0 = 0.8 * SZ + 0.1 * PAULI[1]
    r = expm(-0.3j * PAULI[1])
    rho0 = r @ gibbs_state(H0, 1.2) @ r.conj().T
    data = coherent_initial_construction(rho0, H0)
    npt.assert_allclose(gibbs_state(data.H_star, data.beta),
                        rho0, atol=1e-9)
    # normalisation pins Tr e^{-beta H*} to the reference partition function
    assert abs(partition_function(data.H_star, data.beta)
               - partition_function(H0, data.beta)) < 1e-9
    assert data.relative_entropy > 0.0
    assert data.lambda_min_xi < 0.0


def test_coherent_fluctuation_without_coherences_is_free_energy_ratio():
    H0 = 0.8 * SZ + 0.1 * PAULI[1]
    Ht = 0.8 * SZ + 0.6 * PAULI[1]
    data = coherent_initial_construction(gibbs_state(H0, 1.2), H0)
    res = coherent_work_fluctuation(data, expm(-0.7j * PAULI[2])[None],
                                    Ht[None])
    assert res.value.shape == (1,)
    assert abs(res.value[0] - res.jarzynski_factor[0]) < 1e-8
    assert abs(res.golden_thompson_bound[0] - res.value[0]) < 1e-8
    expect = partition_function(Ht, data.beta) / partition_function(H0, data.beta)
    assert abs(res.value[0] - expect) < 1e-10
    assert abs(res.delta_F_bar[0] + np.log(expect) / data.beta) < 1e-10


def test_coherent_fluctuation_chain_and_quadratic_gap():
    H0 = 0.8 * SZ + 0.1 * PAULI[1]
    Ht = 0.8 * SZ + 0.6 * PAULI[1]
    u_prot = expm(-0.7j * PAULI[2])
    gaps = {}
    for eps in (0.02, 0.04, 0.08):
        r = expm(-1j * eps * PAULI[1])
        rho0 = r @ gibbs_state(H0, 1.2) @ r.conj().T
        res = coherent_work_fluctuation(
            coherent_initial_construction(rho0, H0), u_prot[None],
            Ht[None])
        assert res.value[0] <= res.golden_thompson_bound[0] + 1e-12
        assert res.golden_thompson_bound[0] <= res.final_bound[0] + 1e-12
        gaps[eps] = res.golden_thompson_bound[0] - res.value[0]
    # halving the coherence angle shrinks the first gap by about four
    assert 3.3 < gaps[0.04] / gaps[0.02] < 4.7
    assert 3.3 < gaps[0.08] / gaps[0.04] < 4.7


@pytest.mark.parametrize("drive_mode", ["monotonic", "periodic"])
@pytest.mark.parametrize("angle", [0.0, 0.4, 1.3])
def test_coherent_work_stack_matches_per_row_reference(drive_mode, angle):
    p = ClosedCoherentParams(drive_mode=drive_mode, rotation_angle=angle)
    times = p.grid(400)
    rho0, hams, unitaries = closed_coherent_protocol(p, times)
    data = coherent_initial_construction(rho0, hams[0])
    res = coherent_work_fluctuation(data, unitaries, hams, times)
    rows = [coherent_work_row(data, u, h)
            for u, h in zip(unitaries, hams)]
    assert res.beta == data.beta
    assert res.lambda_min_xi == data.lambda_min_xi
    for name in ("value", "golden_thompson_bound", "jarzynski_factor",
                 "delta_F_bar", "final_bound"):
        got = getattr(res, name)
        ref = np.array([getattr(r, name) for r in rows])
        assert got.shape == times.shape
        # bit for bit, signed zeros included
        npt.assert_array_equal(got.view(np.uint64), ref.view(np.uint64),
                               err_msg=name)


def per_point_K_and_P(traj):
    """K(t) and P(t) one grid point at a time: the generator, its split, and
    the integrand Phi^dagger[D^dagger[K]] with the dissipator written out,
    taken through each real map matrix R_t as the trajectory holds it
    (Phi^dagger acts on coordinates as R_t^T)."""
    d = traj.dim
    K, g = [], []
    for i, r in enumerate(traj.maps):
        split = minimal_dissipation_split(generator_at(traj, i))
        dk = split.dissipator.matrix.conj().T @ vec(split.K)
        g.append(r.T @ coordinates(unvec(dk, d)))
        K.append(split.K)
    running = cumulative_simpson(np.array(g), traj.spacing)
    P = [from_coordinates(np.linalg.inv(r).T @ x)
         for r, x in zip(traj.maps, running)]
    return np.array(K), np.array(P)


@pytest.mark.parametrize("source", ["weak_coupling", "finite_difference",
                                    "gksl_qutrit"])
def test_stacked_K_and_P_match_the_per_point_references(source):
    if source == "gksl_qutrit":
        traj = random_gksl_trajectory(3, np.random.default_rng(17),
                                      np.linspace(0.0, 1.5, 65))
    else:
        p = WeakCouplingParams(gamma=0.3)
        traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(200),
                                derivative_source=(
                                    "analytic" if source == "weak_coupling"
                                    else source))
    pipe = ThermoPipeline(traj)
    K, P = per_point_K_and_P(traj)
    npt.assert_allclose(from_coordinates(pipe.k), K, rtol=0, atol=1e-12)
    npt.assert_allclose(from_coordinates(pipe.p), P, rtol=0, atol=1e-12)
    # one representation: read-only coordinates, O_w = K - P
    n, d = K.shape[:2]
    assert pipe.k.shape == (n, d * d)
    assert pipe.path_operator_series() is pipe.p
    npt.assert_array_equal(pipe.w, pipe.k - pipe.p)
    for x in (pipe.k, pipe.p, pipe.w):
        assert not x.flags.writeable
    # the single-measure-initial and shifted work series keep the mean
    # changes of the default one
    work, _ = pipe.work_heat_observables()
    initial, _ = single_measure_initial(pipe)
    rng = np.random.default_rng(6)
    shifted = shifted_observable(work, traj,
                                 coordinates(random_hermitian(d, rng)))
    rho0 = random_density_matrix(d, rng)
    for i in (1, n // 2, n - 1):
        ref = mean_change(work, traj, i, rho0)
        assert abs(duration_mean_change(initial, i, rho0) - ref) < 1e-10
        assert abs(mean_change(shifted, traj, i, rho0) - ref) < 1e-9


def test_pipeline_singular_map_names_the_first_singular_time():
    # the damped qubit's condition number grows with t, so every later
    # point is worse than the first one above the threshold
    rates = constant_rates(omega=1.0, gamma_plus=0.05, gamma_minus=0.15)
    times = np.linspace(0.0, 8.0, 81)
    traj, _ = pc_trajectory(rates, times)
    conds = traj.condition_numbers
    assert conds[-1] > conds[40] > conds[39]
    with pytest.raises(SingularMap) as exc:
        ThermoPipeline(traj, cond_threshold=np.sqrt(conds[39] * conds[40]))
    assert exc.value.time == times[40]
    assert exc.value.condition_number == conds[40]
    assert f"t = {times[40]:.6g}" in str(exc.value)


def count_per_point_work(monkeypatch, n):
    """Run the weak-coupling pipeline end to end on an n-step grid, counting
    the matrices that cond and inv see and the Superoperator
    constructions."""
    counts = dict(cond=0, inv=0, superop=0)

    def per_matrix(name, fn):
        def counted(a, *args, **kwargs):
            counts[name] += int(np.prod(np.shape(a)[:-2]))
            return fn(a, *args, **kwargs)
        return counted

    def per_call(name, fn):
        def counted(self):
            counts[name] += 1
            fn(self)
        return counted

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "cond", per_matrix("cond", np.linalg.cond))
        m.setattr(np.linalg, "inv", per_matrix("inv", np.linalg.inv))
        m.setattr(Superoperator, "__post_init__",
                  per_call("superop", Superoperator.__post_init__))
        p = WeakCouplingParams()
        traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(n))
        pipe = ThermoPipeline(traj)
        pipe.path_operator_series()
        single_measure_final_work(pipe)
        fluctuation_table(pipe, p.beta)
        invertibility_report(traj)
    return counts


def test_pipeline_does_its_per_point_work_once(monkeypatch):
    small = count_per_point_work(monkeypatch, 64)
    large = count_per_point_work(monkeypatch, 256)
    for n, counts in ((64, small), (256, large)):
        assert counts["cond"] == n + 1
        assert counts["inv"] == n + 1
        assert counts["superop"] == 0
