import os

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm

from mapthermo.dynamics import (
    MapTrajectory,
    condition_flags,
    generator_splits,
    invertibility_report,
    load_map_trajectory,
    map_derivatives,
    read_map_file,
    save_map_trajectory,
)
from mapthermo.errors import BoundaryStencil, ConstructionError
from mapthermo.models import JCParams, WeakCouplingParams, jc_reduced_map, weak_coupling_rates
from mapthermo.operators import (
    PAULI,
    Superoperator,
    apply,
    commutator_superop,
    random_hermitian,
)
from mapthermo.phase_covariant import pc_trajectory
from mapthermo.quadrature import stencil_derivative
from mapthermo.validation import random_gksl_trajectory
from reference import (
    condition_number,
    conjugation_superop,
    constant_rates,
    generator_at,
    identity_superop,
    inverse_propagator,
    map_derivative,
    minimal_dissipation_split,
    random_density_matrix,
    random_unitary,
    reassemble_generator,
)

SZ = PAULI[3]


def unitary_trajectory(h_matrix, times):
    maps = tuple(conjugation_superop(expm(-1j * t * h_matrix)) for t in times)
    return MapTrajectory(times=np.asarray(times, dtype=float), maps=maps)


def test_trajectory_requires_identity_at_zero():
    rng = np.random.default_rng(0)
    u = random_unitary(2, rng)
    times = np.linspace(0.0, 1.0, 3)
    maps = (conjugation_superop(u),) * 3
    with pytest.raises(ConstructionError):
        MapTrajectory(times=times, maps=maps)


def test_trajectory_requires_trace_preservation():
    bad = Superoperator(0.9 * np.eye(4))
    with pytest.raises(ConstructionError):
        MapTrajectory(times=np.array([0.0, 1.0]),
                      maps=(identity_superop(2), bad))


def test_trajectory_requires_uniform_grid_from_zero():
    ident = identity_superop(2)
    with pytest.raises(ConstructionError):
        MapTrajectory(times=np.array([0.5, 1.0]), maps=(ident, ident))
    with pytest.raises(ValueError):
        MapTrajectory(times=np.array([0.0, 0.1, 0.3]), maps=(ident,) * 3)


def test_generator_of_unitary_trajectory():
    h = np.array([[0.4, 0.3 - 0.2j], [0.3 + 0.2j, -0.4]])
    times = np.linspace(0.0, 1.0, 1001)
    traj = unitary_trajectory(h, times)
    L = generator_at(traj, 500)
    expect = -1j * commutator_superop(h)
    assert np.max(np.abs(L.matrix - expect)) < 1e-5  # finite-difference floor
    # derivative from central differences at interior points
    dm = map_derivative(traj, 500)
    assert np.max(np.abs(dm - expect @ traj.maps[500])) < 1e-5


def test_generator_of_identity_trajectory_is_zero():
    times = np.linspace(0.0, 1.0, 5)
    traj = MapTrajectory(times=times, maps=(identity_superop(2),) * 5)
    for i in range(5):
        assert np.max(np.abs(generator_at(traj, i).matrix)) < 1e-12


def test_map_derivative_needs_three_points():
    traj = MapTrajectory(times=np.array([0.0, 0.1]),
                         maps=(identity_superop(2),) * 2)
    with pytest.raises(BoundaryStencil):
        map_derivative(traj, 0)


def test_map_derivative_prefers_analytic():
    times = np.linspace(0.0, 1.0, 3)
    marker = np.full((4, 4), 7.0, dtype=complex)
    traj = MapTrajectory(times=times, maps=(identity_superop(2),) * 3,
                         derivatives=(marker,) * 3)
    assert traj.derivative_source == "analytic"
    npt.assert_allclose(map_derivative(traj, 1), marker)


def test_minimal_split_of_commutator():
    rng = np.random.default_rng(1)
    h = random_hermitian(2, rng).matrix
    h = h - np.trace(h) / 2 * np.eye(2)  # traceless so K is unambiguous
    L = Superoperator(-1j * commutator_superop(h))
    split = minimal_dissipation_split(L)
    assert np.max(np.abs(split.K.matrix - h)) < 1e-10
    assert np.max(np.abs(split.dissipator.matrix)) < 1e-10


def test_minimal_split_of_pure_dissipator():
    # dephasing dissipator has no Hamiltonian part
    gz = 0.3
    ident = np.eye(4)
    D = gz * (np.kron(SZ.conj(), SZ) - ident)
    split = minimal_dissipation_split(Superoperator(D))
    assert np.max(np.abs(split.K.matrix)) < 1e-12
    assert np.max(np.abs(split.dissipator.matrix - D)) < 1e-12


def test_minimal_split_recovers_drive_frequency():
    p = WeakCouplingParams(delta=1.0, beta=1.0, Omega=np.pi / 20, gamma=0.01)
    times = np.linspace(0.0, 10.0, 201)
    traj, coeffs = pc_trajectory(weak_coupling_rates(p), times)
    splits = generator_splits(traj)
    for i in (0, 50, 100, 200):
        expect = 0.5 * coeffs.omega[i] * SZ
        assert np.max(np.abs(splits[i] - expect)) < 1e-9


def test_split_reassembles_generator():
    rng = np.random.default_rng(2)
    traj = random_gksl_trajectory(2, rng, np.linspace(0.0, 1.0, 9))
    for i in (0, 4, 8):
        L = generator_at(traj, i)
        split = minimal_dissipation_split(L, time=float(traj.times[i]))
        back = reassemble_generator(split)
        assert np.max(np.abs(back.matrix - L.matrix)) < 1e-10
        assert abs(np.trace(split.K.matrix)) < 1e-12


def test_split_basis_independence():
    # conjugating the trajectory by a fixed unitary conjugates K
    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 1.0, 9)
    traj = random_gksl_trajectory(2, rng, times)
    v = random_unitary(2, rng)
    vc = conjugation_superop(v)
    vci = conjugation_superop(v.conj().T)
    rotated = MapTrajectory(
        times=times,
        maps=tuple(Superoperator(vc.matrix @ m @ vci.matrix)
                   for m in traj.maps),
        derivatives=None if traj.derivatives is None else tuple(
            vc.matrix @ dm @ vci.matrix for dm in traj.derivatives))
    for i in (2, 6):
        k_orig = minimal_dissipation_split(generator_at(traj, i)).K.matrix
        k_rot = minimal_dissipation_split(generator_at(rotated, i)).K.matrix
        assert np.max(np.abs(k_rot - v @ k_orig @ v.conj().T)) < 1e-8


def test_inverse_propagator_at_equal_times():
    rng = np.random.default_rng(4)
    traj = random_gksl_trajectory(2, rng, np.linspace(0.0, 1.0, 9))
    prop = inverse_propagator(traj, 5, 5)
    assert np.max(np.abs(prop.matrix - np.eye(4))) < 1e-10


def test_inverse_propagator_unitary_case():
    h = np.array([[0.2, 0.5], [0.5, -0.2]], dtype=complex)
    times = np.linspace(0.0, 2.0, 21)
    traj = unitary_trajectory(h, times)
    prop = inverse_propagator(traj, 3, 15)
    u_tau = expm(-1j * times[3] * h)
    u_t = expm(-1j * times[15] * h)
    expect = conjugation_superop(u_tau @ u_t.conj().T)
    assert np.max(np.abs(prop.matrix - expect.matrix)) < 1e-10


def test_inverse_propagator_back_propagates_states():
    rng = np.random.default_rng(5)
    traj = random_gksl_trajectory(2, rng, np.linspace(0.0, 1.2, 13))
    rho0 = random_density_matrix(2, rng)
    rho_t = apply(Superoperator(traj.maps[10]), rho0.matrix)
    rho_tau = apply(Superoperator(traj.maps[4]), rho0.matrix)
    back = apply(inverse_propagator(traj, 4, 10), rho_t)
    assert np.max(np.abs(back - rho_tau)) < 1e-8


def test_inverse_propagator_composition():
    rng = np.random.default_rng(6)
    traj = random_gksl_trajectory(2, rng, np.linspace(0.0, 1.0, 9))
    lhs = inverse_propagator(traj, 2, 7).matrix @ traj.maps[7]
    assert np.max(np.abs(lhs - traj.maps[2])) < 1e-10
    with pytest.raises(ValueError):
        inverse_propagator(traj, 7, 2)


def test_condition_numbers_identity_trajectory():
    times = np.linspace(0.0, 1.0, 5)
    traj = MapTrajectory(times=times, maps=(identity_superop(2),) * 5)
    rows = invertibility_report(traj)
    for row in rows:
        assert abs(row.condition_number - 1.0) < 1e-10
        assert row.flag == "ok"


def test_condition_numbers_grow_monotonically_for_damped_qubit():
    rates = constant_rates(omega=1.0, gamma_plus=0.05, gamma_minus=0.15)
    times = np.linspace(0.0, 8.0, 81)
    traj, _ = pc_trajectory(rates, times)
    conds = np.array([condition_number(Superoperator(m)) for m in traj.maps])
    assert np.all(np.diff(conds) > -1e-9)
    assert conds[-1] > conds[0]


def test_condition_flags_classification():
    conds = np.array([1.0, 2.0, 3.0, 4.0, 5000.0, 6.0, 1e13])
    flags = condition_flags(conds, cond_threshold=1e12)
    assert flags[-1] == "singular"
    assert flags[4] == "spike"
    assert flags[0] == "ok" and flags[5] == "ok"


def test_resonant_exchange_gets_flagged():
    # on-resonance vacuum exchange periodically concentrates all weight,
    # so the condition number blows up at isolated grid times
    g = 0.1
    p = JCParams(omega=1.0, omega_m=1.0, g=g, beta=np.inf, n_max=1)
    times = np.linspace(0.0, np.pi / g, 201)
    traj, _ = jc_reduced_map(p, times)
    rows = invertibility_report(traj)
    flags = [r.flag for r in rows]
    assert "singular" in flags
    assert flags[100] == "singular"  # cos(g t) = 0 exactly at the midpoint


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    traj = random_gksl_trajectory(2, rng, np.linspace(0.0, 1.0, 9))
    path = os.path.join(tmp_path, "traj.maps")
    save_map_trajectory(traj, path)
    back = load_map_trajectory(path)
    npt.assert_array_equal(back.times, traj.times)
    for m1, m2 in zip(back.maps, traj.maps):
        npt.assert_array_equal(m1, m2)
    assert back.derivatives is not None
    for d1, d2 in zip(back.derivatives, traj.derivatives):
        npt.assert_array_equal(d1, d2)


def test_read_map_file_reports_format_problems(tmp_path):
    path = os.path.join(tmp_path, "bad.maps")
    with open(path, "w") as fh:
        fh.write("# not-the-format v9\n# dim=2 vectorization=column-stacking derivatives=0\n")
    with pytest.raises(ConstructionError):
        read_map_file(path)
    with open(path, "w") as fh:
        fh.write("# mapthermo-maps v1\n"
                 "# dim=2 vectorization=column-stacking derivatives=0\n"
                 "0.0,1,0\n")
    with pytest.raises(ConstructionError):
        read_map_file(path)
    with open(path, "w") as fh:
        fh.write("# mapthermo-maps v1\n"
                 "# dim=2 vectorization=column-stacking derivatives=0\n"
                 "0.0,snake\n")
    with pytest.raises(ConstructionError):
        read_map_file(path)
    # header problems above a valid identity row, named by file and line
    row = ",".join(["0"] + [str(x) for z in np.eye(4).reshape(-1)
                            for x in (z, 0.0)])
    dim_line = "# dim=2 vectorization=column-stacking derivatives=0"
    for text, line in ((f"# not-the-format v9\n{dim_line}\n", 1),
                       (f"{dim_line}\n", 1),
                       ("# mapthermo-maps v1\n"
                        "# dim=two vectorization=column-stacking\n", 2),
                       ("# mapthermo-maps v1\n"
                        "# dim=2 vectorization=column-stacking derivatives\n",
                        2)):
        with open(path, "w") as fh:
            fh.write(f"{text}{row}\n")
        with pytest.raises(ConstructionError, match=f"bad.maps:{line}: "):
            read_map_file(path)
    with open(path, "w") as fh:
        fh.write(f"# mapthermo-maps v1\n{dim_line}\n{row}\n"
                 + row.replace("0,1.0", "0.5,nan", 1) + "\n")
    with pytest.raises(ConstructionError, match="bad.maps:4: .*not finite"):
        read_map_file(path)


def test_load_rejects_non_tp_file(tmp_path):
    # read_map_file parses it, load_map_trajectory must refuse it
    path = os.path.join(tmp_path, "shrink.maps")
    rows = []
    for t, scale in ((0.0, 1.0), (0.5, 0.9), (1.0, 0.8)):
        cells = (scale * np.eye(4)).reshape(-1)
        parts = [f"{t:.16e}"]
        for z in cells:
            parts.append(f"{z.real:.16e}")
            parts.append(f"{z.imag:.16e}")
        rows.append(",".join(parts))
    with open(path, "w") as fh:
        fh.write("# mapthermo-maps v1\n")
        fh.write("# dim=2 vectorization=column-stacking derivatives=0\n")
        fh.write("\n".join(rows) + "\n")
    times, mats, derivs = read_map_file(path)
    assert times.size == 3 and derivs is None
    with pytest.raises(ConstructionError):
        load_map_trajectory(path)


@pytest.mark.parametrize("corrupt, needle", [
    (lambda m: 0.9 * m, "not trace-preserving"),
    (lambda m: m + np.diag(np.arange(m.shape[0])) * 1e-3j,
     "not Hermiticity-preserving"),
])
def test_trajectory_names_the_first_failing_map(corrupt, needle):
    times = np.linspace(0.0, 1.0, 9)
    traj = random_gksl_trajectory(3, np.random.default_rng(8), times)
    maps = traj.maps.copy()
    for k in (3, 6):
        maps[k] = corrupt(maps[k])
    with pytest.raises(ConstructionError, match=needle) as exc:
        MapTrajectory(times=times, maps=maps, derivatives=traj.derivatives)
    assert f"t = {times[3]:.6g}" in str(exc.value)


def test_windowed_finite_differences_match_the_whole_grid_stencil():
    p = WeakCouplingParams(gamma=0.3)
    traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(6),
                            derivative_source="finite_difference")
    full = stencil_derivative(traj.maps, traj.spacing)
    for lo in range(7):
        for hi in range(lo + 1, 8):
            npt.assert_array_equal(map_derivatives(traj, lo, hi), full[lo:hi])


def test_read_map_file_rejects_a_header_after_data(tmp_path):
    path = os.path.join(tmp_path, "late.maps")
    save_map_trajectory(random_gksl_trajectory(
        2, np.random.default_rng(9), np.linspace(0.0, 1.0, 3)), path)
    with open(path, "a") as fh:
        fh.write("# dim=2 vectorization=column-stacking derivatives=1\n")
    with pytest.raises(ConstructionError, match="header line after data"):
        read_map_file(path)
