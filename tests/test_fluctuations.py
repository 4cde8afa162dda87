import math
import re

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm

from hypothesis import given, settings
from hypothesis.strategies import floats

from mapthermo import fluctuations
from mapthermo.coherent import coherent_initial_construction
from mapthermo.csvout import csv_text
from mapthermo.dynamics import basis_maps, column_stacked, commutator_superop
from mapthermo.errors import ConstructionError
from mapthermo.fluctuations import (
    CLUSTER_TOL,
    FluctuationTable,
    OutcomeDistribution,
    cluster_eigenvalues,
    exp_average,
    fluctuation_report,
    fluctuation_table,
    fluctuation_tables,
    tpms_distribution,
)
from mapthermo.models import jc_reduced_map
from mapthermo.params import JCParams, WeakCouplingParams, weak_coupling_rates
from mapthermo.records import fields
from mapthermo.trajectory import MapTrajectory
from mapthermo.observables import ThermoPipeline, mean_change
from mapthermo.operators import (
    PAULI,
    adjoint_apply_stack,
    coordinates,
    from_coordinates,
)
from mapthermo.phase_covariant import (
    pc_integrals,
    pc_lambda_u,
    pc_lambda_w,
    pc_thermo,
    pc_trajectory,
)
from mapthermo.validation import _dissipator_matrix, random_gksl_trajectory
from reference import (
    Superoperator,
    adjoint_trace,
    apply,
    conjugation_superop,
    constant_rates,
    csv_rows,
    dissipated_work_bound,
    free_energies,
    gibbs_state,
    heat_fluctuation,
    lambda_u,
    lambda_w,
    map_at,
    matrix_fluctuation_table,
    moment,
    noneq_free_energy,
    one_state_tpms,
    random_density_matrix,
    random_hermitian,
    random_unitary,
    real_map,
    replace,
    stacked_trajectory,
    trace_product,
)

SZ = PAULI[3]
IDENTITY_MAP = Superoperator(np.eye(4))


def zero_op(dim=2):
    return np.zeros((dim, dim))


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
        maps.append(Superoperator(m).matrix)
        derivs.append(L @ m)
    return stacked_trajectory(ts, np.stack(maps), np.stack(derivs))


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


@pytest.mark.parametrize("outcomes,probs", [
    ([0.0, 1.0], [math.nan, 1.0]),
    ([0.0, 1.0], [math.nan, math.nan]),
    ([0.0, 1.0], [0.0, math.inf]),
    ([0.0, math.nan], [0.5, 0.5]),
    ([-math.inf, 0.0], [0.5, 0.5]),
    ([0.0, math.inf], [0.0, 1.0])])
def test_distribution_refuses_values_that_are_not_finite(outcomes, probs):
    with pytest.raises(ConstructionError, match="must be finite"):
        OutcomeDistribution(outcomes=np.array(outcomes),
                            probs=np.array(probs))


def test_tpms_static_diagonal_state_keeps_zero_outcome():
    # repeated measurement of sigma_z without evolution: the +-2 jumps exist
    # as outcomes but carry no weight
    rho0 = np.diag([0.3, 0.7])
    dist = one_state_tpms(rho0, real_map(IDENTITY_MAP), SZ, SZ)
    npt.assert_allclose(dist.outcomes, [-2.0, 0.0, 2.0])
    npt.assert_allclose(dist.probs, [0.0, 1.0, 0.0], atol=1e-15)
    assert dist.initial_coherence == 0.0


def test_tpms_quarter_rotation_splits_evenly():
    u = expm(-1j * (np.pi / 4) * PAULI[1])
    dist = one_state_tpms(np.diag([1.0, 0.0]),
                          real_map(conjugation_superop(u)),
                          SZ, SZ)
    npt.assert_allclose(dist.outcomes, [-2.0, 0.0, 2.0])
    npt.assert_allclose(dist.probs, [0.5, 0.5, 0.0], atol=1e-12)


def test_tpms_mean_is_trace_formula_for_commuting_state():
    rng = np.random.default_rng(2)
    O0 = random_hermitian(3, rng)
    Ot = random_hermitian(3, rng)
    u = random_unitary(3, rng)
    map_t = conjugation_superop(u)
    # state diagonal in the first measurement basis
    vals, vecs = np.linalg.eigh(O0)
    p = rng.uniform(0.2, 1.0, size=3)
    p /= p.sum()
    rho0 = vecs @ np.diag(p) @ vecs.conj().T
    dist = one_state_tpms(rho0, real_map(map_t), O0, Ot)
    expect = (np.trace(Ot @ apply(map_t, rho0)).real
              - np.trace(O0 @ rho0).real)
    assert dist.initial_coherence < 1e-12
    assert abs(moment(dist, 1) - expect) < 1e-10


def test_tpms_flags_destroyed_coherences():
    rho0 = np.array([[0.6, 0.3], [0.3, 0.4]])
    dist = one_state_tpms(rho0, real_map(IDENTITY_MAP), SZ, 0.5 * SZ)
    assert dist.initial_coherence > 0.1


def test_tpms_degenerate_first_observable_is_one_point():
    # zero first observable: single cluster, no dephasing, heat-style scheme
    rho0 = np.array([[0.6, 0.3], [0.3, 0.4]])
    dist = one_state_tpms(rho0, real_map(IDENTITY_MAP), zero_op(), SZ)
    assert dist.initial_coherence == 0.0
    npt.assert_allclose(dist.outcomes, [-1.0, 1.0])
    npt.assert_allclose(dist.probs, [0.4, 0.6], atol=1e-12)


def test_exp_average_of_delta_is_one():
    H = 0.7 * SZ
    dist = one_state_tpms(gibbs_state(H, 1.0), real_map(IDENTITY_MAP),
                          H, H)
    assert abs(exp_average(dist, 2.2) - 1.0) < 1e-12


def test_exp_average_symmetric_outcomes_is_cosh():
    dist = one_state_tpms(0.5 * np.eye(2),
                          real_map(IDENTITY_MAP),
                          zero_op(), 0.9 * PAULI[1])
    beta = 1.4
    assert abs(exp_average(dist, beta) - np.cosh(beta * 0.9)) < 1e-12
    assert abs(moment(dist, 2) - 0.81) < 1e-12


def test_tpms_against_unclustered_brute_force():
    rng = np.random.default_rng(14)
    dim = 3
    O0 = random_hermitian(dim, rng)
    Ot = random_hermitian(dim, rng)
    map_t = conjugation_superop(random_unitary(dim, rng))
    vals0, vecs0 = np.linalg.eigh(O0)
    p = rng.uniform(0.1, 1.0, size=dim)
    p /= p.sum()
    rho0 = vecs0 @ np.diag(p) @ vecs0.conj().T
    valst, vecst = np.linalg.eigh(Ot)
    beta = 0.8
    brute = 0.0
    brute_mean = 0.0
    for n in range(dim):
        pn = np.outer(vecs0[:, n], vecs0[:, n].conj())
        branch = apply(map_t, pn @ rho0 @ pn)
        for m in range(dim):
            pm = np.outer(vecst[:, m], vecst[:, m].conj())
            prob = float(np.trace(pm @ branch).real)
            brute += prob * np.exp(-beta * (valst[m] - vals0[n]))
            brute_mean += prob * (valst[m] - vals0[n])
    dist = one_state_tpms(rho0, real_map(map_t), O0, Ot)
    assert abs(exp_average(dist, beta) - brute) < 1e-10
    assert abs(moment(dist, 1) - brute_mean) < 1e-10


def test_lambda_u_is_one_for_unital_maps():
    for map_t in (IDENTITY_MAP,
                  conjugation_superop(random_unitary(2, np.random.default_rng(1)))):
        lu = lambda_u(map_t, 0.8 * SZ, 1.5)
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
        lu = lambda_u(map_at(traj, i), from_coordinates(pipe.k[i]), p.beta)
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
        K_t, P = from_coordinates(pipe.k[i]), from_coordinates(pipe.p[i])
        lam, bound = lambda_w(map_at(traj, i), K_t - P, K_t, P, 2.0)
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
        K_t, P = from_coordinates(pipe.k[i]), from_coordinates(pipe.p[i])
        lam, bound = lambda_w(map_at(traj, i), K_t - P, K_t, P, p.beta)
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
                                      map_at(traj, 100),
                                      from_coordinates(pipe.p[100]), 3.0)
        assert abs(val - 1.0) < 1e-12
        assert abs(bound - 1.0) < 1e-12


def test_heat_factor_matches_one_point_distribution():
    p = WeakCouplingParams(gamma=0.2)
    times = p.grid(200)
    traj, _ = pc_trajectory(weak_coupling_rates(p), times)
    pipe = ThermoPipeline(traj)
    rho0 = random_density_matrix(2, np.random.default_rng(4))
    i = 100
    P = from_coordinates(pipe.p[i])
    val, bound = heat_fluctuation(rho0, map_at(traj, i), P, p.beta)
    dist, = tpms_distribution(rho0[None], traj.maps[i],
                              np.zeros(4), pipe.p[i])
    assert abs(exp_average(dist, p.beta) - val) < 1e-10 * abs(val)
    assert val <= bound * (1.0 + 1e-12)


def test_free_energies_qubit_closed_form():
    beta = 1.7
    z0, zt, dfb = free_energies(1.0 * SZ / 2, 0.6 * SZ / 2, beta)
    # careful with the argument order: first argument is the final splitting
    assert abs(zt - 2.0 * np.cosh(beta * 0.5)) < 1e-12
    assert abs(z0 - 2.0 * np.cosh(beta * 0.3)) < 1e-12
    assert abs(dfb - np.log(z0 / zt) / beta) < 1e-12
    with pytest.raises(ValueError):
        free_energies(SZ, SZ, 0.0)


def test_noneq_free_energy_of_gibbs_state_is_log_partition():
    H = np.array([[0.9, 0.3], [0.3, -0.7]])
    beta = 2.4
    f = noneq_free_energy(gibbs_state(H, beta), H, beta)
    z = np.sum(np.exp(-beta * np.linalg.eigvalsh(H)))
    assert abs(f + np.log(z) / beta) < 1e-10
    # any other state pays a relative-entropy premium
    other = random_density_matrix(2, np.random.default_rng(9))
    assert noneq_free_energy(other, H, beta) > f + 1e-6


def test_dissipated_bound_vanishes_for_closed_dynamics():
    ts = np.linspace(0.0, 2.0, 101)
    traj, _ = pc_trajectory(constant_rates(1.0, 0.0, 0.0), ts)
    pipe = ThermoPipeline(traj)
    b = dissipated_work_bound(map_at(traj, 100),
                              from_coordinates(pipe.p[100]), 1.7)
    assert abs(b) < 1e-12


def test_dissipated_bound_for_unital_dynamics_is_path_operator_top():
    traj = unital_gksl_trajectory()
    pipe = ThermoPipeline(traj)
    i = traj.times.size - 1
    P = from_coordinates(pipe.p[i])
    p_max = float(np.linalg.eigvalsh(P)[-1])
    assert p_max > 0.1
    b = dissipated_work_bound(map_at(traj, i), P, 1.3)
    assert abs(b + p_max) < 1e-12
    # the map really is unital, and the internal-energy factor sees that
    phi1 = apply(map_at(traj, i), np.eye(2, dtype=complex))
    npt.assert_allclose(phi1, np.eye(2), atol=1e-12)
    lu = lambda_u(map_at(traj, i), from_coordinates(pipe.k[i]), 1.3)
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

    # the pipeline's coordinates, measured as `run` measures them
    rho0 = gibbs_state(from_coordinates(pipe.k[0]), beta)[None]
    k0 = pipe.k[0]

    dist_w, = tpms_distribution(rho0, traj.maps[i], k0, pipe.w[i])
    assert abs(exp_average(dist_w, beta) - rep.exp_avg_w) < 1e-9
    assert abs(moment(dist_w, 1) - rep.mean_w) < 1e-9

    dist_u, = tpms_distribution(rho0, traj.maps[i], k0, pipe.k[i])
    expect_u = rep.lambda_u * np.exp(-beta * rep.delta_F_bar)
    assert abs(exp_average(dist_u, beta) - expect_u) < 1e-9

    dist_q, = tpms_distribution(rho0, traj.maps[i], np.zeros_like(k0),
                                pipe.p[i])
    # about 5e10 on this row, where 1e-9 is below one ulp: the distribution
    # divides its probabilities by their sum, which rounds to 1 or to a few
    # ulps from it, so the two routes agree within a few ulps
    assert abs(exp_average(dist_q, beta) - rep.exp_avg_q) < max(
        1e-9, 4 * np.finfo(float).eps * rep.exp_avg_q)

    # dissipated work sits above its bound
    assert rep.mean_w - rep.delta_F_bar >= rep.dissipated_bound - 1e-12


def test_report_invariant_check_catches_tampering():
    p = WeakCouplingParams()
    traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(50))
    rep = fluctuation_report(ThermoPipeline(traj), 50, p.beta)
    broken = replace(rep, exp_avg_w=rep.exp_avg_w + 1e-3)
    with pytest.raises(ConstructionError):
        broken.check_invariants()
    inflated = replace(rep, lambda_w=rep.lambda_w_bound + 1.0,
                       exp_avg_w=(rep.lambda_w_bound + 1.0)
                       * np.exp(-p.beta * rep.delta_F_bar))
    with pytest.raises(ConstructionError):
        inflated.check_invariants()


def test_report_csv_row_round_trips():
    p = WeakCouplingParams()
    traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(50))
    pipe = ThermoPipeline(traj)
    rep = fluctuation_report(pipe, 50, p.beta)
    table = fluctuation_table(pipe, p.beta)
    row = csv_text(table.csv_columns()).splitlines()[50]
    assert row == csv_rows(table)[50]
    names = FluctuationTable.CSV_HEADER.split(",")
    cells = [float(c) for c in row.split(",")]
    assert len(cells) == len(names) == 10
    for name, cell in zip(names, cells):
        attr = {"t": "time"}.get(name, name)
        assert cell == getattr(rep, attr)


def test_csv_lines_spell_every_cell_as_format_does():
    edge = [-0.0, math.nan, math.inf, -math.inf, 5e-324,
            1.7976931348623157e308, 0.1]
    columns = [np.array(edge), np.array(edge[::-1]), edge]
    expected = [",".join(format(v, ".17g") for v in row)
                for row in zip(*columns)]
    assert csv_text(columns).splitlines() == expected
    assert csv_text([np.array(edge)]).splitlines() == [format(v, ".17g")
                                                       for v in edge]


def weak_coupling_pipeline(n=120):
    p = WeakCouplingParams(gamma=0.2)
    traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(n))
    return ThermoPipeline(traj)


def qutrit_pipeline():
    times = np.linspace(0.0, 1.5, 65)
    return ThermoPipeline(
        random_gksl_trajectory(3, np.random.default_rng(4), times))


def gksl_pipeline(dim=6, n=60):
    times = np.linspace(0.0, 1.0, n + 1)
    return ThermoPipeline(
        random_gksl_trajectory(dim, np.random.default_rng(dim), times))


def reference_row(pipe, work, i, beta):
    """The report columns at one row from the per-operator functions."""
    traj = pipe.traj
    K0, K_t = from_coordinates(pipe.k[0]), from_coordinates(pipe.k[i])
    P = from_coordinates(pipe.p[i])
    Ow = K_t - P
    map_t = map_at(traj, i)
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
    table = fluctuation_table(pipe, 1.3)
    table.check_invariants()
    k = 27
    where = re.escape(f"at t = {table.time[k]:.17g},")
    avg = table.exp_avg_w.copy()
    avg[k] += 1e-3
    with pytest.raises(ConstructionError, match=where):
        replace(table, exp_avg_w=avg).check_invariants()
    lw = table.lambda_w.copy()
    lw[k] = table.lambda_w_bound[k] + 1.0
    avg = table.exp_avg_w.copy()
    avg[k] = lw[k] * np.exp(-table.beta * table.delta_F_bar[k])
    with pytest.raises(ConstructionError, match=where + ".*exceeds its bound"):
        replace(table, lambda_w=lw, exp_avg_w=avg).check_invariants()
    # NaN fails every comparison: a NaN cell fails its row by name, in the
    # table and in the row's report
    for name in ("lambda_w", "lambda_w_bound", "exp_avg_w", "delta_F_bar"):
        col = getattr(table, name).copy()
        col[k] = np.nan
        with pytest.raises(ConstructionError,
                           match=where + f" beta = .*: {name} is NaN"):
            replace(table, **{name: col}).check_invariants()
        with pytest.raises(ConstructionError, match=f": {name} is NaN"):
            replace(table.row(k), **{name: np.nan}).check_invariants()
    # infinite cells are judged as they were: inf - inf compares as NaN,
    # without a RuntimeWarning
    cells = {}
    for name in ("lambda_w", "lambda_w_bound", "exp_avg_w"):
        cells[name] = getattr(table, name).copy()
        cells[name][k] = np.inf
    replace(table, **cells).check_invariants()
    # an infinite average against a finite lambda_w still fails its row
    with pytest.raises(ConstructionError, match="exp average inf"):
        replace(table, exp_avg_w=cells["exp_avg_w"]).check_invariants()


TABLE_FIELDS = [f.name for f in fields(FluctuationTable)
                if f.name != "beta"]


@pytest.mark.parametrize("make_pipe", [weak_coupling_pipeline,
                                       qutrit_pipeline, gksl_pipeline])
def test_table_rows_are_the_full_grid_rows_bit_for_bit(make_pipe):
    # a report is its row of the whole-grid table, at any d: after a table
    # call on the same pipeline, or first on a fresh one
    full_first, rows_first = make_pipe(), make_pipe()
    full = fluctuation_table(full_first, 0.9)
    for pipe in (full_first, rows_first):
        for k in (0, 3, 17, 40):
            rep, row = fluctuation_report(pipe, k, 0.9), full.row(k)
            assert all(np.float64(getattr(rep, f.name)).tobytes()
                       == np.float64(getattr(row, f.name)).tobytes()
                       for f in fields(type(rep))), k


@pytest.mark.parametrize("make_pipe", [weak_coupling_pipeline,
                                       qutrit_pipeline])
def test_mean_work_is_exactly_zero_at_time_zero(make_pipe):
    pipe = make_pipe()
    for beta in (0.3, 1.0, 4.0):
        assert fluctuation_table(pipe, beta).mean_w[0] == 0.0
        assert fluctuation_report(pipe, 0, beta).mean_w == 0.0


def recording(calls, fn):
    """`fn`, appending the shape of its first argument to `calls`."""
    def call(a, *args, **kwargs):
        calls.append(np.shape(a))
        return fn(a, *args, **kwargs)
    return call


def test_a_call_diagonalizes_its_rows_once_and_k0_once(monkeypatch):
    pipe = qutrit_pipeline()
    spectra = []
    monkeypatch.setattr(np.linalg, "eigh", recording(spectra, np.linalg.eigh))
    fluctuation_tables(pipe, (2.0, 0.3, 5.0))
    # K(0) for rho(0) and Z(0), then K, P and O_w over the whole grid
    assert spectra == [(1, 3, 3)] + [(65, 3, 3)] * 3
    fluctuation_report(pipe, 7, 3.0)   # a row of the whole-grid table
    assert spectra[4:] == spectra[:4]


@pytest.mark.parametrize("indices", [None, [0, 1, 7, 30, 59, 60, 7]])
@pytest.mark.parametrize("beta", [0.05, 1.0, 8.0])
@pytest.mark.parametrize("make_pipe", [weak_coupling_pipeline,
                                       qutrit_pipeline, gksl_pipeline])
def test_eigenbasis_table_matches_the_matrix_route(make_pipe, beta, indices):
    # the whole grid's rows against the matrix route on those rows alone
    pipe = make_pipe()
    table = fluctuation_table(pipe, beta)
    ref = matrix_fluctuation_table(pipe, beta, indices)
    rows = slice(None) if indices is None else indices
    assert table.time[rows].tobytes() == ref.time.tobytes()
    for name in TABLE_FIELDS:
        if name in ("time", "lambda_u_residual"):
            continue
        got, want = getattr(table, name)[rows], getattr(ref, name)
        scale = np.maximum(1.0, np.abs(want))
        assert np.all(np.abs(got - want) <= 1e-13 * scale), name
    assert np.all(table.lambda_u_residual <= 1e-12)


@pytest.mark.parametrize("make_pipe", [weak_coupling_pipeline,
                                       qutrit_pipeline, gksl_pipeline])
def test_one_pass_over_several_betas_matches_the_matrix_route(make_pipe):
    pipe = make_pipe()
    betas = (8.0, 0.05, 1.0)
    tables = fluctuation_tables(pipe, betas)
    assert [table.beta for table in tables] == list(betas)
    for beta, table in zip(betas, tables):
        ref = matrix_fluctuation_table(pipe, beta)
        assert table.time.tobytes() == ref.time.tobytes()
        for name in TABLE_FIELDS:
            if name in ("time", "lambda_u_residual"):
                continue
            got, want = getattr(table, name), getattr(ref, name)
            scale = np.maximum(1.0, np.abs(want))
            assert np.all(np.abs(got - want) <= 1e-13 * scale), name
        assert table.mean_w[0] == 0.0
        assert np.all(table.lambda_u_residual <= 1e-12)


def test_one_pass_forms_one_gibbs_stack_of_all_betas(monkeypatch):
    pipe = qutrit_pipeline()
    gibbs, spectra = [], []
    monkeypatch.setattr(fluctuations, "_gibbs_stack",
                        recording(gibbs, fluctuations._gibbs_stack))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        recording(spectra, np.linalg.eigvalsh))
    fluctuation_tables(pipe, (2.0, 0.3, 5.0, 1.0))
    # the K(0) spectrum, weighted at four betas, checked as one stack; the
    # other spectrum is lambda_max of Phi_t[1] on every row
    assert gibbs == [(1, 3)]
    assert spectra == [(4, 3, 3), (65, 3, 3)]


def overflowing_work_pipeline():
    # gamma = 0.5 over the default window: beta O_w(t) leaves exp's range
    p = WeakCouplingParams(gamma=0.5)
    return ThermoPipeline(pc_trajectory(weak_coupling_rates(p),
                                        p.grid(100))[0])


def overflowing_heat_pipeline():
    # resonant vacuum exchange: beta P(t) leaves exp's range, O_w does not
    params = JCParams(omega=1.0, omega_m=1.0, g=0.1)
    return ThermoPipeline(jc_reduced_map(params, np.linspace(0, 30, 201))[0])


@pytest.mark.parametrize("make_pipe,what,ops", [
    (overflowing_work_pipeline, "O_w",
     lambda pipe: from_coordinates(pipe.k) - from_coordinates(pipe.p)),
    (overflowing_heat_pipeline, "P", lambda pipe: from_coordinates(pipe.p))])
def test_an_overflowing_exponential_names_its_first_row(make_pipe, what,
                                                        ops):
    pipe = make_pipe()
    with np.errstate(over="ignore"):
        finite = np.isfinite(np.exp(-np.linalg.eigvalsh(ops(pipe))))
    k = np.flatnonzero(~finite.all(axis=-1))[0]
    message = re.escape(f"e^(-beta {what}) is undefined at "
                        f"t = {pipe.times[k]:.6g}, beta = 1:")
    for table in (fluctuation_table, matrix_fluctuation_table):
        with pytest.raises(ConstructionError, match=message):
            table(pipe, 1.0)


def test_an_overflow_names_the_first_failing_beta_in_order():
    # beta = 1e-3 stays finite on the whole grid; 1 and 2 overflow
    pipe = overflowing_work_pipeline()
    with np.errstate(over="ignore"):
        finite = np.isfinite(np.exp(-np.linalg.eigvalsh(
            from_coordinates(pipe.k) - from_coordinates(pipe.p))))
    k = np.flatnonzero(~finite.all(axis=-1))[0]
    message = re.escape(f"e^(-beta O_w) is undefined at "
                        f"t = {pipe.times[k]:.6g}, beta = 1:")
    with pytest.raises(ConstructionError, match=message):
        fluctuation_tables(pipe, (1e-3, 1.0, 2.0))


def test_tpms_over_several_states_is_each_state_alone():
    rng = np.random.default_rng(21)
    O0, Ot = random_hermitian(3, rng), random_hermitian(3, rng)
    map_t = random_gksl_trajectory(3, rng, np.linspace(0.0, 1.0, 5)).maps[-1]
    states = [random_density_matrix(3, rng) for _ in range(4)]
    batch = tpms_distribution(np.array(states), map_t,
                              coordinates(O0), coordinates(Ot))
    assert len(batch) == len(states)
    for rho, dist in zip(states, batch):
        alone = one_state_tpms(rho, map_t, O0, Ot)
        assert dist.outcomes.tobytes() == alone.outcomes.tobytes()
        assert dist.probs.tobytes() == alone.probs.tobytes()
        assert dist.initial_coherence == alone.initial_coherence


@pytest.mark.parametrize("bad,why", [
    (np.array([[0.5, 0.4], [0.0, 0.5]]), "is not Hermitian"),
    (np.diag([1.5, -0.5]), "is not a state"),
    (np.diag([0.6, 0.6]), "is not a state"),
])
def test_a_bad_state_is_refused_by_its_index(bad, why):
    # each state of the stack is checked where it enters, and the error
    # names the first bad one
    good = np.diag([0.25, 0.75])
    with pytest.raises(ConstructionError, match=f"state 1 {why}"):
        tpms_distribution(np.stack([good, bad]), real_map(IDENTITY_MAP),
                          coordinates(SZ), coordinates(SZ))


@pytest.mark.parametrize("call,message", [
    (lambda: coherent_initial_construction(np.eye(3) / 3, SZ),
     "rho(0) has shape (3, 3), but H(0) has (2, 2)"),
    (lambda: tpms_distribution((np.eye(3) / 3)[None], np.eye(4),
                               coordinates(SZ), coordinates(SZ)),
     "rho0 has shape (1, 3, 3), but o0 of shape (4,) needs (1, 2, 2)"),
    (lambda: tpms_distribution([1.0], np.eye(4), coordinates(SZ),
                               coordinates(np.eye(3))),
     "ot has shape (9,), but o0 of shape (4,) needs (4,)"),
    (lambda: tpms_distribution([1.0], np.eye(9), coordinates(SZ),
                               coordinates(SZ)),
     "map_t has shape (9, 9), but o0 of shape (4,) needs (4, 4)")],
    ids=["coherent_rho0", "tpms_states", "tpms_ot", "tpms_map_t"])
def test_mismatched_dimensions_are_refused_by_argument(call, message):
    with pytest.raises(ConstructionError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0, -math.inf])
def test_a_beta_outside_zero_to_infinity_is_refused(bad):
    pipe = qutrit_pipeline()
    with pytest.raises(ValueError, match="positive and finite"):
        tpms_distribution([1.0, bad], pipe.traj.maps[9], pipe.w[0],
                          pipe.w[9])
    with pytest.raises(ValueError, match="positive and finite"):
        fluctuation_tables(pipe, [1.0, bad])


def dephasing_trajectory(energies, rates, times, analytic=True):
    """e^{tL} of pure decoherence in the energy basis: H = diag(energies)
    and jump operators sqrt(gamma_k) |k><k|, built from the real generator,
    with its exact derivatives or, if not `analytic`, the stencils."""
    d = len(energies)
    gen = -1j * commutator_superop(np.diag(energies))
    for k, gamma in enumerate(rates):
        jump = np.zeros((d, d))
        jump[k, k] = math.sqrt(gamma)
        gen = gen + _dissipator_matrix(jump)
    gen = basis_maps(gen).real
    maps = np.stack([expm(t * gen) for t in times])
    return MapTrajectory(times=times, maps=maps,
                         derivatives=gen @ maps if analytic else None)


@pytest.mark.parametrize("analytic", [True, False],
                         ids=["analytic", "stencils"])
def test_pure_decoherence_qutrit_exchanges_no_heat(analytic):
    # the paper's pure-decoherence class beyond the qubit: P(t) vanishes, so
    # <e^{-beta q}> and Lambda_w are one on every row
    times = np.linspace(0.0, 8.0, 401)
    pipe = ThermoPipeline(dephasing_trajectory(
        (0.0, 1.0, 2.3), (0.1, 0.2, 0.3), times, analytic))
    assert np.max(np.abs(pipe.p)) <= 1e-14
    betas = (0.5, 2.0)
    for table in fluctuation_tables(pipe, betas):
        assert np.max(np.abs(table.exp_avg_q - 1.0)) <= 1e-12
        assert np.max(np.abs(table.lambda_w - 1.0)) <= 1e-12
    # heat from a zero first observable at t = 4: one outcome, zero
    i = 200
    assert times[i] == 4.0
    for dist in tpms_distribution(betas, pipe.traj.maps[i], np.zeros(9),
                                  pipe.p[i]):
        assert dist.outcomes.size == 1
        assert abs(dist.outcomes[0]) <= 1e-14
        assert dist.probs.tolist() == [1.0]


@pytest.mark.parametrize("energies", [
    None, (0.0, 0.0, 1.0), (0.0, 0.1 * CLUSTER_TOL, 1.0)],
    ids=["qubit_zero_K0", "qutrit_doubled_level", "qutrit_near_doubled_level"])
def test_gibbs_betas_weigh_a_degenerate_cluster_as_its_states_do(energies):
    # given betas, a cluster's branch is the sum of its eigenvectors'
    # Gibbs populations times their projectors, as Pi_n rho Pi_n of the
    # Gibbs states themselves
    times = np.linspace(0.0, 5.0, 101)
    if energies is None:  # a damped qubit without splitting: K(0) = 0
        traj = pc_trajectory(constant_rates(0.0, 0.0, 0.1), times)[0]
    else:
        traj = dephasing_trajectory(energies, (0.1, 0.2, 0.3), times)
    pipe = ThermoPipeline(traj)
    d = pipe.traj.dim
    betas = [0.5, 1.0, 3.0]
    _, states = fluctuations._initial_states(pipe, betas)
    second = coordinates(random_hermitian(d, np.random.default_rng(d)))
    for i in (50, 100):
        for ot in (pipe.w[i], second):
            by_beta = tpms_distribution(betas, pipe.traj.maps[i], pipe.w[0],
                                        ot)
            by_state = tpms_distribution(states, pipe.traj.maps[i],
                                         pipe.w[0], ot)
            for a, b in zip(by_beta, by_state):
                npt.assert_allclose(a.outcomes, b.outcomes, rtol=0,
                                    atol=1e-15)
                npt.assert_allclose(a.probs, b.probs, rtol=0, atol=1e-14)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_trace_sums_match_the_formed_products(dim):
    rng = np.random.default_rng(dim)
    n = 50
    times = np.linspace(0.0, 1.0, n)
    # states and exponentials, as the table multiplies
    a, b = (np.array([gibbs_state(random_hermitian(dim, rng), 1.0)
                      for _ in range(n)]) for _ in range(2))
    maps = random_gksl_trajectory(dim, rng, times).maps

    def close(got, want):
        scale = np.maximum(np.abs(got), np.abs(want))
        assert np.all(np.abs(got - want) <= 1e-15 * scale)

    close(trace_product(a, b),
          np.trace(a @ b, axis1=-2, axis2=-1))
    close(adjoint_trace(column_stacked(maps), a),
          np.trace(from_coordinates(adjoint_apply_stack(maps, coordinates(a))),
                   axis1=-2, axis2=-1))


@settings(max_examples=30, deadline=None)
@given(floats(min_value=0.05, max_value=3.0),
       floats(min_value=0.05, max_value=4.0))
def test_symmetric_two_outcome_exp_average_property(a, beta):
    dist = OutcomeDistribution(outcomes=np.array([-a, a]),
                               probs=np.array([0.5, 0.5]))
    assert abs(exp_average(dist, beta) - np.cosh(beta * a)) < 1e-11 * np.cosh(beta * a)
