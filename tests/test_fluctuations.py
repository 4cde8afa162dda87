import dataclasses
import re

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm

from hypothesis import given, settings
from hypothesis.strategies import floats

from mapthermo.dynamics import MapTrajectory
from mapthermo.errors import ConstructionError
from mapthermo.fluctuations import (
    CLUSTER_TOL,
    FluctuationReport,
    OutcomeDistribution,
    cluster_eigenvalues,
    dissipated_work_bound,
    exp_average,
    fluctuation_report,
    fluctuation_table,
    free_energies,
    heat_fluctuation,
    lambda_u,
    lambda_w,
    moment,
    noneq_free_energy,
    tpms_distribution,
)
from mapthermo.models import WeakCouplingParams, weak_coupling_rates
from mapthermo.observables import ThermoPipeline, mean_change
from mapthermo.operators import (
    PAULI,
    DensityMatrix,
    HermitianOperator,
    Superoperator,
    apply,
    conjugation_superop,
    gibbs_state,
    random_density_matrix,
    random_hermitian,
    random_unitary,
)
from mapthermo.phase_covariant import (
    constant_rates,
    pc_integrals,
    pc_lambda_u,
    pc_lambda_w,
    pc_thermo,
    pc_trajectory,
)
from mapthermo.validation import random_gksl_trajectory

SZ = PAULI[3]
IDENTITY_MAP = Superoperator(np.eye(4))


def zero_op(dim=2):
    return HermitianOperator(np.zeros((dim, dim)))


def unital_gksl_trajectory(t_f=2.0, n=100):
    """Time-independent GKSL with a Hermitian jump operator that fails to
    commute with H: unital, but with a nonvanishing dissipative energy flow."""
    H = 0.8 * PAULI[3] + 0.3 * PAULI[1]
    A = 0.6 * PAULI[1] + 0.2 * PAULI[2]
    ident = np.eye(2)
    aa = A.conj().T @ A
    diss = (np.kron(A.conj(), A)
            - 0.5 * (np.kron(ident, aa) + np.kron(aa.T, ident)))
    L = -1j * (np.kron(ident, H) - np.kron(H.T, ident)) + diss
    ts = np.linspace(0.0, t_f, n + 1)
    maps, derivs = [], []
    for t in ts:
        m = expm(t * L)
        maps.append(Superoperator(m))
        derivs.append(L @ m)
    return MapTrajectory(times=ts, maps=tuple(maps), derivatives=tuple(derivs))


def test_cluster_eigenvalues_groups_numerical_degeneracies():
    clusters = cluster_eigenvalues(np.array([0.0, 1e-12, 1.0]))
    assert [list(c) for c in clusters] == [[0, 1], [2]]
    assert len(cluster_eigenvalues(np.array([0.0, 0.5, 1.0]))) == 3


def test_distribution_rejects_bad_inputs():
    with pytest.raises(ConstructionError):
        OutcomeDistribution(outcomes=np.array([0.0, 0.0]),
                            probs=np.array([0.5, 0.5]))
    with pytest.raises(ConstructionError):
        OutcomeDistribution(outcomes=np.array([0.0, 1.0]),
                            probs=np.array([0.7, 0.2]))
    with pytest.raises(ConstructionError):
        OutcomeDistribution(outcomes=np.array([0.0, 1.0]),
                            probs=np.array([-1e-6, 1.0 + 1e-6]))


def test_distribution_clips_rounding_level_negatives():
    dist = OutcomeDistribution(outcomes=np.array([0.0, 1.0]),
                               probs=np.array([-1e-13, 1.0]))
    assert dist.probs[0] == 0.0
    assert abs(dist.probs.sum() - 1.0) < 1e-15


def test_tpms_static_diagonal_state_keeps_zero_outcome():
    # repeated measurement of sigma_z without evolution: the +-2 jumps exist
    # as outcomes but carry no weight
    rho0 = DensityMatrix(np.diag([0.3, 0.7]))
    dist = tpms_distribution(rho0, IDENTITY_MAP, HermitianOperator(SZ),
                             HermitianOperator(SZ))
    npt.assert_allclose(dist.outcomes, [-2.0, 0.0, 2.0])
    npt.assert_allclose(dist.probs, [0.0, 1.0, 0.0], atol=1e-15)
    assert dist.initial_coherence == 0.0


def test_tpms_quarter_rotation_splits_evenly():
    u = expm(-1j * (np.pi / 4) * PAULI[1])
    dist = tpms_distribution(DensityMatrix(np.diag([1.0, 0.0])),
                             conjugation_superop(u),
                             HermitianOperator(SZ), HermitianOperator(SZ))
    npt.assert_allclose(dist.outcomes, [-2.0, 0.0, 2.0])
    npt.assert_allclose(dist.probs, [0.5, 0.5, 0.0], atol=1e-12)


def test_tpms_mean_is_trace_formula_for_commuting_state():
    rng = np.random.default_rng(2)
    O0 = random_hermitian(3, rng)
    Ot = random_hermitian(3, rng)
    u = random_unitary(3, rng)
    map_t = conjugation_superop(u)
    # state diagonal in the first measurement basis
    vals, vecs = np.linalg.eigh(O0.matrix)
    p = rng.uniform(0.2, 1.0, size=3)
    p /= p.sum()
    rho0 = DensityMatrix(vecs @ np.diag(p) @ vecs.conj().T)
    dist = tpms_distribution(rho0, map_t, O0, Ot)
    expect = (np.trace(Ot.matrix @ apply(map_t, rho0.matrix)).real
              - np.trace(O0.matrix @ rho0.matrix).real)
    assert dist.initial_coherence < 1e-12
    assert abs(dist.mean() - expect) < 1e-10


def test_tpms_flags_destroyed_coherences():
    rho0 = DensityMatrix(np.array([[0.6, 0.3], [0.3, 0.4]]))
    dist = tpms_distribution(rho0, IDENTITY_MAP, HermitianOperator(SZ),
                             HermitianOperator(0.5 * SZ))
    assert dist.initial_coherence > 0.1


def test_tpms_degenerate_first_observable_is_one_point():
    # zero first observable: single cluster, no dephasing, heat-style scheme
    rho0 = DensityMatrix(np.array([[0.6, 0.3], [0.3, 0.4]]))
    dist = tpms_distribution(rho0, IDENTITY_MAP, zero_op(),
                             HermitianOperator(SZ))
    assert dist.initial_coherence == 0.0
    npt.assert_allclose(dist.outcomes, [-1.0, 1.0])
    npt.assert_allclose(dist.probs, [0.4, 0.6], atol=1e-12)


def test_exp_average_of_delta_is_one():
    H = HermitianOperator(0.7 * SZ)
    dist = tpms_distribution(gibbs_state(H, 1.0), IDENTITY_MAP, H, H)
    assert abs(exp_average(dist, 2.2) - 1.0) < 1e-12


def test_exp_average_symmetric_outcomes_is_cosh():
    dist = tpms_distribution(DensityMatrix(0.5 * np.eye(2)), IDENTITY_MAP,
                             zero_op(), HermitianOperator(0.9 * PAULI[1]))
    beta = 1.4
    assert abs(exp_average(dist, beta) - np.cosh(beta * 0.9)) < 1e-12
    assert abs(moment(dist, 2) - 0.81) < 1e-12


def test_tpms_against_unclustered_brute_force():
    rng = np.random.default_rng(14)
    dim = 3
    O0 = random_hermitian(dim, rng)
    Ot = random_hermitian(dim, rng)
    map_t = conjugation_superop(random_unitary(dim, rng))
    vals0, vecs0 = np.linalg.eigh(O0.matrix)
    p = rng.uniform(0.1, 1.0, size=dim)
    p /= p.sum()
    rho0 = DensityMatrix(vecs0 @ np.diag(p) @ vecs0.conj().T)
    valst, vecst = np.linalg.eigh(Ot.matrix)
    beta = 0.8
    brute = 0.0
    brute_mean = 0.0
    for n in range(dim):
        pn = np.outer(vecs0[:, n], vecs0[:, n].conj())
        branch = apply(map_t, pn @ rho0.matrix @ pn)
        for m in range(dim):
            pm = np.outer(vecst[:, m], vecst[:, m].conj())
            prob = float(np.trace(pm @ branch).real)
            brute += prob * np.exp(-beta * (valst[m] - vals0[n]))
            brute_mean += prob * (valst[m] - vals0[n])
    dist = tpms_distribution(rho0, map_t, O0, Ot)
    assert abs(exp_average(dist, beta) - brute) < 1e-10
    assert abs(dist.mean() - brute_mean) < 1e-10


def test_lambda_u_is_one_for_unital_maps():
    for map_t in (IDENTITY_MAP,
                  conjugation_superop(random_unitary(2, np.random.default_rng(1)))):
        lu = lambda_u(map_t, HermitianOperator(0.8 * SZ), 1.5)
        assert abs(lu.value - 1.0) < 1e-12
        assert abs(lu.bound - 1.0) < 1e-12
        assert lu.cross_check_residual < 1e-12


def test_lambda_u_weak_coupling_exceeds_one_and_matches_closed_form():
    p = WeakCouplingParams()
    rates = weak_coupling_rates(p)
    times = p.grid(200)
    traj, coeffs = pc_trajectory(rates, times)
    pipe = ThermoPipeline(traj)
    closed = pc_lambda_u(coeffs, p.beta)
    prev = 1.0
    for i in (50, 100, 150, 200):
        lu = lambda_u(traj.maps[i], pipe.splits[i].K, p.beta)
        assert abs(lu.value - closed[i]) < 1e-9
        assert lu.cross_check_residual < 1e-10
        assert lu.value > prev
        prev = lu.value


def test_lambda_w_is_one_for_closed_and_pure_decoherence():
    ts = np.linspace(0.0, 2.0, 101)
    closed, _ = pc_trajectory(constant_rates(1.0, 0.0, 0.0), ts)
    dephasing, _ = pc_trajectory(constant_rates(1.0, 0.0, 0.0, gamma_z=0.3), ts)
    for traj in (closed, dephasing):
        pipe = ThermoPipeline(traj)
        i = 100
        Ow = HermitianOperator(pipe.splits[i].K.matrix
                               - pipe.path_operator(i).matrix)
        lam, bound = lambda_w(traj.maps[i], Ow, pipe.splits[i].K,
                              pipe.path_operator(i), 2.0)
        assert abs(lam - 1.0) < 1e-9
        assert abs(bound - 1.0) < 1e-9


def test_lambda_w_weak_coupling_matches_closed_form():
    p = WeakCouplingParams()
    rates = weak_coupling_rates(p)
    times = p.grid(200)
    traj, coeffs = pc_trajectory(rates, times)
    pipe = ThermoPipeline(traj)
    th = pc_thermo(coeffs)
    lam_c, bound_c = pc_lambda_w(th, coeffs, p.beta)
    for i in (60, 140, 200):
        Ow = HermitianOperator(pipe.splits[i].K.matrix
                               - pipe.path_operator(i).matrix)
        lam, bound = lambda_w(traj.maps[i], Ow, pipe.splits[i].K,
                              pipe.path_operator(i), p.beta)
        assert abs(lam - lam_c[i]) < 1e-9
        assert abs(bound - bound_c[i]) < 1e-9
        assert lam <= bound + 1e-12


def test_heat_factor_is_one_without_dissipative_flow():
    ts = np.linspace(0.0, 2.0, 101)
    rng = np.random.default_rng(8)
    for rates in (constant_rates(1.3, 0.0, 0.0),
                  constant_rates(1.3, 0.0, 0.0, gamma_z=0.45)):
        traj, _ = pc_trajectory(rates, ts)
        pipe = ThermoPipeline(traj)
        val, bound = heat_fluctuation(random_density_matrix(2, rng),
                                      traj.maps[100], pipe.path_operator(100),
                                      3.0)
        assert abs(val - 1.0) < 1e-12
        assert abs(bound - 1.0) < 1e-12


def test_heat_factor_matches_one_point_distribution():
    p = WeakCouplingParams(gamma=0.2)
    times = p.grid(200)
    traj, _ = pc_trajectory(weak_coupling_rates(p), times)
    pipe = ThermoPipeline(traj)
    rho0 = random_density_matrix(2, np.random.default_rng(4))
    i = 100
    P = pipe.path_operator(i)
    val, bound = heat_fluctuation(rho0, traj.maps[i], P, p.beta)
    dist = tpms_distribution(rho0, traj.maps[i], zero_op(), P)
    assert abs(exp_average(dist, p.beta) - val) < 1e-10 * abs(val)
    assert val <= bound * (1.0 + 1e-12)


def test_free_energies_qubit_closed_form():
    beta = 1.7
    z0, zt, dfb = free_energies(HermitianOperator(1.0 * SZ / 2),
                                HermitianOperator(0.6 * SZ / 2), beta)
    # careful with the argument order: first argument is the final splitting
    assert abs(zt - 2.0 * np.cosh(beta * 0.5)) < 1e-12
    assert abs(z0 - 2.0 * np.cosh(beta * 0.3)) < 1e-12
    assert abs(dfb - np.log(z0 / zt) / beta) < 1e-12
    with pytest.raises(ValueError):
        free_energies(HermitianOperator(SZ), HermitianOperator(SZ), 0.0)


def test_noneq_free_energy_of_gibbs_state_is_log_partition():
    H = HermitianOperator(np.array([[0.9, 0.3], [0.3, -0.7]]))
    beta = 2.4
    f = noneq_free_energy(gibbs_state(H, beta), H, beta)
    z = np.sum(np.exp(-beta * np.linalg.eigvalsh(H.matrix)))
    assert abs(f + np.log(z) / beta) < 1e-10
    # any other state pays a relative-entropy premium
    other = random_density_matrix(2, np.random.default_rng(9))
    assert noneq_free_energy(other, H, beta) > f + 1e-6


def test_dissipated_bound_vanishes_for_closed_dynamics():
    ts = np.linspace(0.0, 2.0, 101)
    traj, _ = pc_trajectory(constant_rates(1.0, 0.0, 0.0), ts)
    pipe = ThermoPipeline(traj)
    b = dissipated_work_bound(traj.maps[100], pipe.path_operator(100), 1.7)
    assert abs(b) < 1e-12


def test_dissipated_bound_for_unital_dynamics_is_path_operator_top():
    traj = unital_gksl_trajectory()
    pipe = ThermoPipeline(traj)
    i = traj.times.size - 1
    P = pipe.path_operator(i)
    p_max = float(np.linalg.eigvalsh(P.matrix)[-1])
    assert p_max > 0.1
    b = dissipated_work_bound(traj.maps[i], P, 1.3)
    assert abs(b + p_max) < 1e-12
    # the map really is unital, and the internal-energy factor sees that
    phi1 = apply(traj.maps[i], np.eye(2, dtype=complex))
    npt.assert_allclose(phi1, np.eye(2), atol=1e-12)
    lu = lambda_u(traj.maps[i], pipe.splits[i].K, 1.3)
    assert abs(lu.value - 1.0) < 1e-12


def test_report_matches_distribution_routes():
    p = WeakCouplingParams(gamma=0.2)
    times = p.grid(200)
    traj, _ = pc_trajectory(weak_coupling_rates(p), times)
    pipe = ThermoPipeline(traj)
    i = 160
    beta = p.beta
    rep = fluctuation_report(pipe, i, beta)
    rep.check_invariants()

    K0 = pipe.splits[0].K
    K_t = pipe.splits[i].K
    P = pipe.path_operator(i)
    Ow = HermitianOperator(K_t.matrix - P.matrix)
    rho0 = gibbs_state(K0, beta)

    dist_w = tpms_distribution(rho0, traj.maps[i], K0, Ow)
    assert abs(exp_average(dist_w, beta) - rep.exp_avg_w) < 1e-9
    assert abs(moment(dist_w, 1) - rep.mean_w) < 1e-9

    dist_u = tpms_distribution(rho0, traj.maps[i], K0, K_t)
    expect_u = rep.lambda_u * np.exp(-beta * rep.delta_F_bar)
    assert abs(exp_average(dist_u, beta) - expect_u) < 1e-9

    dist_q = tpms_distribution(rho0, traj.maps[i], zero_op(), P)
    assert abs(exp_average(dist_q, beta) - rep.exp_avg_q) < 1e-9

    # dissipated work sits above its bound
    assert rep.mean_w - rep.delta_F_bar >= rep.dissipated_bound - 1e-12


def test_report_invariant_check_catches_tampering():
    p = WeakCouplingParams()
    traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(50))
    rep = fluctuation_report(ThermoPipeline(traj), 50, p.beta)
    broken = dataclasses.replace(rep, exp_avg_w=rep.exp_avg_w + 1e-3)
    with pytest.raises(ConstructionError):
        broken.check_invariants()
    inflated = dataclasses.replace(rep, lambda_w=rep.lambda_w_bound + 1.0,
                                   exp_avg_w=(rep.lambda_w_bound + 1.0)
                                   * np.exp(-p.beta * rep.delta_F_bar))
    with pytest.raises(ConstructionError):
        inflated.check_invariants()


def test_report_csv_row_round_trips():
    p = WeakCouplingParams()
    traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(50))
    rep = fluctuation_report(ThermoPipeline(traj), 50, p.beta)
    row = rep.csv_row()
    names = FluctuationReport.CSV_HEADER.split(",")
    cells = [float(c) for c in row.split(",")]
    assert len(cells) == len(names) == 10
    for name, cell in zip(names, cells):
        attr = {"t": "time"}.get(name, name)
        assert cell == getattr(rep, attr)


def weak_coupling_pipeline(n=120):
    p = WeakCouplingParams(gamma=0.2)
    traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(n))
    return ThermoPipeline(traj)


def qutrit_pipeline():
    times = np.linspace(0.0, 1.5, 65)
    return ThermoPipeline(
        random_gksl_trajectory(3, np.random.default_rng(4), times))


def reference_row(pipe, work, i, beta):
    """The report columns at one row from the per-operator functions."""
    traj = pipe.traj
    K0, K_t = pipe.splits[0].K, pipe.splits[i].K
    P = pipe.path_operator(i)
    Ow = HermitianOperator(K_t.matrix - P.matrix)
    map_t = traj.maps[i]
    rho0 = gibbs_state(K0, beta)
    lw, bound = lambda_w(map_t, Ow, K_t, P, beta)
    _, _, dfb = free_energies(K_t, K0, beta)
    lu = lambda_u(map_t, K_t, beta)
    return lu.cross_check_residual, {
        "time": traj.times[i], "lambda_u": lu.value, "lambda_w": lw,
        "lambda_w_bound": bound, "exp_avg_w": lw * np.exp(-beta * dfb),
        "exp_avg_q": heat_fluctuation(rho0, map_t, P, beta)[0],
        "delta_F_bar": dfb, "mean_w": mean_change(work, traj, i, rho0),
        "dissipated_bound": dissipated_work_bound(map_t, P, beta)}


@pytest.mark.parametrize("make_pipe,beta", [
    (weak_coupling_pipeline, 0.4), (weak_coupling_pipeline, 3.0),
    (qutrit_pipeline, 0.8)])
def test_table_matches_reference_functions_on_every_row(make_pipe, beta):
    pipe = make_pipe()
    table = fluctuation_table(pipe, beta)
    npt.assert_array_equal(table.time, pipe.times)
    table.check_invariants()
    work, _ = pipe.work_heat_observables()
    for i in range(table.time.size):
        ref_residual, ref = reference_row(pipe, work, i, beta)
        for name, expect in ref.items():
            got = getattr(table, name)[i]
            assert abs(got - expect) <= 1e-12 * max(abs(got), abs(expect)), (
                i, name, got, expect)
        assert table.lambda_u_residual[i] <= 1e-12
        assert ref_residual <= 1e-12
    # a report is one row of the same computation
    for i in (0, table.time.size // 2, table.time.size - 1):
        assert fluctuation_report(pipe, i, beta) == table.row(i)


def test_table_invariant_check_names_the_failing_row_time():
    pipe = weak_coupling_pipeline(50)
    table = fluctuation_table(pipe, 1.3, indices=range(10, 40))
    table.check_invariants()
    k = 17
    where = re.escape(f"at t = {table.time[k]:.17g},")
    avg = table.exp_avg_w.copy()
    avg[k] += 1e-3
    with pytest.raises(ConstructionError, match=where):
        dataclasses.replace(table, exp_avg_w=avg).check_invariants()
    lw = table.lambda_w.copy()
    lw[k] = table.lambda_w_bound[k] + 1.0
    avg = table.exp_avg_w.copy()
    avg[k] = lw[k] * np.exp(-table.beta * table.delta_F_bar[k])
    with pytest.raises(ConstructionError, match=where + ".*exceeds its bound"):
        dataclasses.replace(table, lambda_w=lw, exp_avg_w=avg).check_invariants()


@settings(max_examples=30, deadline=None)
@given(floats(min_value=0.05, max_value=3.0),
       floats(min_value=0.05, max_value=4.0))
def test_symmetric_two_outcome_exp_average_property(a, beta):
    dist = OutcomeDistribution(outcomes=np.array([-a, a]),
                               probs=np.array([0.5, 0.5]))
    assert abs(exp_average(dist, beta) - np.cosh(beta * a)) < 1e-11 * np.cosh(beta * a)
