import io
import itertools
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis.strategies import (booleans, composite, floats, integers,
                                   lists, one_of, sampled_from, tuples)
from scipy.linalg import expm

import mapthermo.csvout as csvout
import mapthermo.dynamics as dynamics
import mapthermo.operators as operators
from mapthermo.csvout import csv_text
from mapthermo.dynamics import (
    column_stacked,
    commutator_superop,
    load_map_trajectory,
    read_map_file,
    save_map_trajectory,
)
from mapthermo.errors import BoundaryStencil, ConstructionError
from mapthermo.models import jc_reduced_map
from mapthermo.params import JCParams, WeakCouplingParams, weak_coupling_rates
from mapthermo.operators import PAULI, from_coordinates
from mapthermo.phase_covariant import pc_trajectory
from mapthermo.quadrature import stencil_derivative
from mapthermo.trajectory import (
    MapTrajectory,
    condition_flags,
    generator_splits,
    invertibility_report,
    map_derivatives,
)
from mapthermo.validation import random_gksl_trajectory, random_hermitian
from reference import (
    Superoperator,
    apply,
    condition_number,
    conjugation_superop,
    constant_rates,
    csv_lines,
    generator_at,
    inverse_propagator,
    map_at,
    map_derivative,
    minimal_dissipation_split,
    random_density_matrix,
    random_unitary,
    read_map_file_by_rows,
    reassemble_generator,
    stacked_trajectory,
)

SZ = PAULI[3]


def unitary_trajectory(h_matrix, times):
    maps = np.stack([conjugation_superop(expm(-1j * t * h_matrix)).matrix
                     for t in times])
    return stacked_trajectory(np.asarray(times, dtype=float), maps)


def test_trajectory_requires_identity_at_zero():
    rng = np.random.default_rng(0)
    u = random_unitary(2, rng)
    times = np.linspace(0.0, 1.0, 3)
    maps = np.stack([conjugation_superop(u).matrix] * 3)
    with pytest.raises(ConstructionError):
        stacked_trajectory(times, maps)


def test_trajectory_requires_trace_preservation():
    with pytest.raises(ConstructionError):
        MapTrajectory(times=np.array([0.0, 1.0]),
                      maps=np.stack([np.eye(4), 0.9 * np.eye(4)]))


def test_trajectory_requires_uniform_grid_from_zero():
    ident = np.eye(4)
    with pytest.raises(ConstructionError):
        MapTrajectory(times=np.array([0.5, 1.0]), maps=np.stack([ident] * 2))
    with pytest.raises(ValueError):
        MapTrajectory(times=np.array([0.0, 0.1, 0.3]),
                      maps=np.stack([ident] * 3))


def test_trajectory_refuses_a_grid_that_is_not_finite():
    with pytest.raises(ValueError, match="grid must be finite"):
        MapTrajectory(times=[0.0, np.nan, 2.0],
                      maps=np.stack([np.eye(4)] * 3))


def test_generator_of_unitary_trajectory():
    h = np.array([[0.4, 0.3 - 0.2j], [0.3 + 0.2j, -0.4]])
    times = np.linspace(0.0, 1.0, 1001)
    traj = unitary_trajectory(h, times)
    L = generator_at(traj, 500)
    expect = -1j * commutator_superop(h)
    assert np.max(np.abs(L.matrix - expect)) < 1e-5  # finite-difference floor
    # derivative from central differences at interior points
    dm = map_derivative(traj, 500)
    assert np.max(np.abs(dm - expect @ map_at(traj, 500).matrix)) < 1e-5


def test_generator_of_identity_trajectory_is_zero():
    times = np.linspace(0.0, 1.0, 5)
    traj = MapTrajectory(times=times, maps=np.stack([np.eye(4)] * 5))
    for i in range(5):
        assert np.max(np.abs(generator_at(traj, i).matrix)) < 1e-12


def test_map_derivative_needs_three_points():
    traj = MapTrajectory(times=np.array([0.0, 0.1]),
                         maps=np.stack([np.eye(4)] * 2))
    with pytest.raises(BoundaryStencil):
        map_derivative(traj, 0)


def test_map_derivative_prefers_analytic():
    times = np.linspace(0.0, 1.0, 3)
    marker = np.full((4, 4), 7.0)
    traj = MapTrajectory(times=times, maps=np.stack([np.eye(4)] * 3),
                         derivatives=np.stack([marker] * 3))
    assert traj.derivatives is not None
    npt.assert_array_equal(map_derivatives(traj, 1, 2)[0], marker)


def test_minimal_split_of_commutator():
    rng = np.random.default_rng(1)
    h = random_hermitian(2, rng)
    h = h - np.trace(h) / 2 * np.eye(2)  # traceless so K is unambiguous
    L = Superoperator(-1j * commutator_superop(h))
    split = minimal_dissipation_split(L)
    assert np.max(np.abs(split.K - h)) < 1e-10
    assert np.max(np.abs(split.dissipator.matrix)) < 1e-10


def test_minimal_split_of_pure_dissipator():
    # dephasing dissipator has no Hamiltonian part
    gz = 0.3
    ident = np.eye(4)
    D = gz * (np.kron(SZ.conj(), SZ) - ident)
    split = minimal_dissipation_split(Superoperator(D))
    assert np.max(np.abs(split.K)) < 1e-12
    assert np.max(np.abs(split.dissipator.matrix - D)) < 1e-12


def test_minimal_split_recovers_drive_frequency():
    p = WeakCouplingParams(delta=1.0, beta=1.0, Omega=np.pi / 20, gamma=0.01)
    times = np.linspace(0.0, 10.0, 201)
    traj, coeffs = pc_trajectory(weak_coupling_rates(p), times)
    splits = generator_splits(traj)
    for i in (0, 50, 100, 200):
        expect = 0.5 * coeffs.omega[i] * SZ
        assert np.max(np.abs(from_coordinates(splits[i]) - expect)) < 1e-9


def test_split_reassembles_generator():
    rng = np.random.default_rng(2)
    traj = random_gksl_trajectory(2, rng, np.linspace(0.0, 1.0, 9))
    for i in (0, 4, 8):
        L = generator_at(traj, i)
        split = minimal_dissipation_split(L, time=float(traj.times[i]))
        back = reassemble_generator(split)
        assert np.max(np.abs(back.matrix - L.matrix)) < 1e-10
        assert abs(np.trace(split.K)) < 1e-12


def test_split_basis_independence():
    # conjugating the trajectory by a fixed unitary conjugates K
    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 1.0, 9)
    traj = random_gksl_trajectory(2, rng, times)
    v = random_unitary(2, rng)
    vc = conjugation_superop(v)
    vci = conjugation_superop(v.conj().T)
    rotated = stacked_trajectory(
        times,
        np.stack([Superoperator(vc.matrix @ m @ vci.matrix).matrix
                  for m in column_stacked(traj.maps)]),
        None if traj.derivatives is None else np.stack([
            vc.matrix @ dm @ vci.matrix
            for dm in column_stacked(traj.derivatives)]))
    for i in (2, 6):
        k_orig = minimal_dissipation_split(generator_at(traj, i)).K
        k_rot = minimal_dissipation_split(generator_at(rotated, i)).K
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
    rho_t = apply(map_at(traj, 10), rho0)
    rho_tau = apply(map_at(traj, 4), rho0)
    back = apply(inverse_propagator(traj, 4, 10), rho_t)
    assert np.max(np.abs(back - rho_tau)) < 1e-8


def test_inverse_propagator_composition():
    rng = np.random.default_rng(6)
    traj = random_gksl_trajectory(2, rng, np.linspace(0.0, 1.0, 9))
    lhs = inverse_propagator(traj, 2, 7).matrix @ map_at(traj, 7).matrix
    assert np.max(np.abs(lhs - map_at(traj, 2).matrix)) < 1e-10
    with pytest.raises(ValueError):
        inverse_propagator(traj, 7, 2)


def test_condition_numbers_identity_trajectory():
    times = np.linspace(0.0, 1.0, 5)
    traj = MapTrajectory(times=times, maps=np.stack([np.eye(4)] * 5))
    conds, flags = invertibility_report(traj)
    for cond, flag in zip(conds, flags):
        assert abs(cond - 1.0) < 1e-10
        assert flag == "ok"


@pytest.mark.parametrize("dim", [2, 3, 6])
def test_condition_numbers_are_those_of_the_column_stacked_maps(dim):
    # the basis change is unitary, so the real stack's condition numbers are
    # those of the superoperator matrices
    traj = random_gksl_trajectory(dim, np.random.default_rng(dim),
                                  np.linspace(0.0, 3.0, 41))
    npt.assert_allclose(traj.condition_numbers,
                        np.linalg.cond(column_stacked(traj.maps)), rtol=1e-13)


def test_condition_numbers_grow_monotonically_for_damped_qubit():
    rates = constant_rates(omega=1.0, gamma_plus=0.05, gamma_minus=0.15)
    times = np.linspace(0.0, 8.0, 81)
    traj, _ = pc_trajectory(rates, times)
    conds = np.array([condition_number(map_at(traj, i))
                      for i in range(times.size)])
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
    _, flags = invertibility_report(traj)
    assert "singular" in flags
    assert flags[100] == "singular"  # cos(g t) = 0 exactly at the midpoint


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    traj = random_gksl_trajectory(2, rng, np.linspace(0.0, 1.0, 9))
    path = os.path.join(tmp_path, "traj.maps")
    save_map_trajectory(traj, path)
    # the file holds the column-stacked matrices exactly, and loading
    # changes basis back within a few ulps, the identity at t = 0 exactly
    times, maps, derivs = read_map_file(path)
    npt.assert_array_equal(maps[0], np.eye(4))
    npt.assert_array_equal(maps, column_stacked(traj.maps, dynamical=True))
    npt.assert_array_equal(derivs, column_stacked(traj.derivatives))
    back = load_map_trajectory(path)
    npt.assert_array_equal(back.times, traj.times)
    ulps = 8 * np.finfo(float).eps
    npt.assert_allclose(back.maps, traj.maps, rtol=0, atol=ulps)
    npt.assert_array_equal(back.maps[0], np.eye(4))
    assert back.derivatives is not None
    npt.assert_allclose(back.derivatives, traj.derivatives, rtol=0,
                        atol=ulps * np.abs(traj.derivatives).max())


def test_save_map_trajectory_spells_cells_as_the_f_string(tmp_path,
                                                         monkeypatch):
    # -0.0, subnormals and the largest double among ordinary cells, written
    # as given (no basis change)
    monkeypatch.setattr(dynamics, "column_stacked",
                        lambda r, dynamical=False: r)
    rng = np.random.default_rng(3)
    maps = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
    maps[0, 0, 0] = complex(-0.0, 5e-324)
    maps[1, 2, 3] = complex(1.7976931348623157e+308, 2.2250738585e-310)
    traj = SimpleNamespace(dim=2, times=np.array([0.0, 0.5]), maps=maps,
                           derivatives=-maps)
    path = os.path.join(tmp_path, "edge.maps")
    save_map_trajectory(traj, path)
    with open(path) as fh:
        rows = [line for line in fh.read().splitlines()
                if not line.startswith("#")]
    cells = np.concatenate([maps.reshape(2, -1), -maps.reshape(2, -1)],
                           axis=1).view(float)
    assert rows == [",".join(f"{x:.16e}" for x in (t, *row))
                    for t, row in zip(traj.times, cells)]
    # and read back to the same bits, the sign of -0.0 included
    _, back, derivs = read_map_file(path)
    assert back.tobytes() == maps.tobytes()
    assert derivs.tobytes() == (-maps).tobytes()


def test_read_map_file_reports_format_problems(tmp_path):
    # each case a new file: rewriting one in place costs far more on some
    # disks
    paths = (os.path.join(tmp_path, f"{i}_bad.maps")
             for i in itertools.count())

    def new_file(text):
        path = next(paths)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    with pytest.raises(ConstructionError):
        read_map_file(new_file(
            "# not-the-format v9\n"
            "# dim=2 vectorization=column-stacking derivatives=0\n"))
    with pytest.raises(ConstructionError):
        read_map_file(new_file(
            "# mapthermo-maps v1\n"
            "# dim=2 vectorization=column-stacking derivatives=0\n"
            "0.0,1,0\n"))
    with pytest.raises(ConstructionError):
        read_map_file(new_file(
            "# mapthermo-maps v1\n"
            "# dim=2 vectorization=column-stacking derivatives=0\n"
            "0.0,snake\n"))
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
        with pytest.raises(ConstructionError, match=f"bad.maps:{line}: "):
            read_map_file(new_file(f"{text}{row}\n"))
    with pytest.raises(ConstructionError, match="bad.maps:4: .*not finite"):
        read_map_file(new_file(f"# mapthermo-maps v1\n{dim_line}\n{row}\n"
                               + row.replace("0,1.0", "0.5,nan", 1) + "\n"))


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
    (lambda m: m * np.nan, "not finite"),
])
def test_trajectory_names_the_first_failing_map(corrupt, needle):
    # column-stacked maps, converted as a map file's are: the imaginary part
    # a map keeps in the basis is checked there
    times = np.linspace(0.0, 1.0, 9)
    traj = random_gksl_trajectory(3, np.random.default_rng(8), times)
    maps = traj.maps.astype(complex)
    for k in (3, 6):
        maps[k] = corrupt(maps[k])
    with pytest.raises(ConstructionError, match=needle) as exc:
        stacked_trajectory(times, column_stacked(maps, dynamical=True),
                           column_stacked(traj.derivatives))
    assert f"t = {times[3]:.6g}" in str(exc.value)
    assert exc.value.index == 3


def test_trajectory_names_the_first_non_finite_derivative():
    times = np.linspace(0.0, 1.0, 9)
    traj = random_gksl_trajectory(2, np.random.default_rng(8), times)
    derivs = traj.derivatives.copy()
    derivs[5, 0, 0] = np.inf
    with pytest.raises(ConstructionError, match=f"map derivative at t = "
                                                f"{times[5]:.6g} holds"):
        MapTrajectory(times=times, maps=traj.maps, derivatives=derivs)


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


# Cell spelling. Every cell of a CSV reads as format(x, ".17g"), whether or
# not the vectorised kernel takes it.

def lines_text(lines):
    return "".join(line + "\n" for line in lines)


# any float64: bit patterns (NaN payloads, subnormals and both infinities
# included) and values spread over the kernel's exponents
any_double = one_of(
    integers(0, 2**64 - 1).map(
        lambda b: float(np.array(b, np.uint64).view(np.float64))),
    floats(), floats(-1e18, 1e18), floats(-1e-3, 1e-3))


@settings(max_examples=300, deadline=None)
@given(lists(any_double, min_size=1, max_size=60), integers(1, 6))
def test_csv_text_spells_cells_as_format(xs, n_cols):
    columns = list(np.resize(np.array(xs),
                             (max(1, len(xs) // n_cols), n_cols)).T)
    assert csv_text(columns) == lines_text(csv_lines(columns))


def ulp_neighbours(x):
    """x and its neighbours 1 and 2 ulps away on each side."""
    below = np.nextafter(x, 0.0)
    above = np.nextafter(x, np.inf)
    return [np.nextafter(below, 0.0), below, x, above,
            np.nextafter(above, np.inf)]


SPELLING_EDGES = np.array(
    [v for k in range(-5, 18) for x in ulp_neighbours(10.0**k)
     for v in (x, -x)]
    + [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
       np.inf, -np.inf, np.nan, 9.9999999999999995e-07, 1e-6,
       1000000000000000.25, 1000000000000000.75, 2.0**53 + 2, 0.5, 1.0])


def test_spelling_edge_cases():
    text = csv_text([SPELLING_EDGES])
    assert text == lines_text(format(v, ".17g") for v in SPELLING_EDGES)
    one = {float(v): line for v, line in zip(SPELLING_EDGES,
                                             text.splitlines())}
    # the carry case below 1e-4, the largest double below 1e17, exact ties
    # rounded half-even, and the sign of -0.0
    assert one[float(np.nextafter(1e-4, 0.0))] == "9.9999999999999991e-05"
    assert one[float(np.nextafter(1e17, 0.0))] == "99999999999999984"
    assert one[1000000000000000.25] == "1000000000000000.2"
    assert one[1000000000000000.75] == "1000000000000000.8"
    assert csv_text([[-0.0]]) == "-0\n"


@pytest.mark.parametrize("n_rows", [
    3 * csvout._WRITE_CELLS // 5,        # several blocks, the last whole
    3 * csvout._WRITE_CELLS // 5 + 7,    # ending mid-block
])
def test_tables_spanning_row_blocks(n_rows):
    rng = np.random.default_rng(16)
    columns = [rng.standard_normal(n_rows)
               * 10.0 ** rng.integers(-6, 18, n_rows) for _ in range(5)]
    columns[2][::97] = 0.0   # fallback cells in every block
    assert n_rows * 5 > 2 * csvout._WRITE_CELLS
    assert csv_text(columns) == lines_text(csv_lines(columns))


def spread_columns(n_rows, n_cols, seed):
    """Columns of values the kernel takes, over its exponents and signs."""
    rng = np.random.default_rng(seed)
    return [rng.choice([-1.0, 1.0], n_rows) * rng.uniform(1.0, 9.9, n_rows)
            * 10.0 ** rng.integers(-4, 17, n_rows) for _ in range(n_cols)]


@pytest.mark.parametrize("first", [0.0, -0.0, 1e-300])
def test_a_fallback_cell_first_in_the_table(first):
    columns = spread_columns(7, 3, 18)
    columns[0][0] = first
    assert csv_text(columns) == lines_text(csv_lines(columns))
    assert csv_text(columns).startswith(format(first, ".17g") + ",")


@pytest.mark.parametrize("n_cols", [1, 3, 7])
def test_fallback_cells_first_and_last_in_every_block(n_cols):
    step = csvout._WRITE_CELLS // n_cols   # whole rows per block
    n_rows = 3 * step + step // 2
    columns = spread_columns(n_rows, n_cols, 19)
    columns[0][::step] = [np.nan, -0.0, 1e-300, -np.inf]   # each first cell
    columns[-1][step - 1::step] = [0.0, -1e300, np.inf]    # each last whole
    columns[-1][-1] = -2.2250738585072014e-308   # format's longest spelling
    assert csv_text(columns) == lines_text(csv_lines(columns))


def test_an_all_fallback_column():
    n_rows = csvout._WRITE_CELLS   # two blocks of 3 columns
    columns = spread_columns(n_rows, 3, 20)
    # zeros, and values below 1e-4 (%g's exponent form)
    columns[1] = np.where(np.arange(n_rows) % 3, 0.0,
                          np.ldexp(columns[0], -400))
    assert csvout._g_cells(columns[1], 1)[3].size == n_rows
    assert csv_text(columns) == lines_text(csv_lines(columns))


def test_a_zero_row_table_writes_its_header_only():
    empty = [np.empty(0), np.empty(0)]
    assert csv_text(empty) == ""
    assert csvout.csv_bytes(empty, b"t,x").tobytes() == b"t,x\n"
    assert csvout.csv_bytes(empty, b"t,x", []).tobytes() == b"t,x\n"


@pytest.mark.parametrize("n_rows", [1, 9, csvout._WRITE_CELLS // 2 + 3])
def test_a_label_column_ends_each_row(n_rows):
    columns = spread_columns(n_rows, 2, 21)
    columns[1][::4] = 0.0
    labels = [("ok", "spike", "singular")[k % 3] for k in range(n_rows)]
    assert csvout.csv_bytes(columns, b"t,c,flag", labels).tobytes() == (
        "t,c,flag\n" + "".join(f"{line},{label}\n" for line, label in
                              zip(csv_lines(columns), labels))).encode()


def test_kernel_takes_the_cells_in_its_range():
    # |x| in [1e-4, 1e17), away from powers of ten: nothing goes to the
    # fallback, exact ties included
    rng = np.random.default_rng(17)
    x = rng.choice([-1.0, 1.0], 4000) * rng.uniform(1.0, 9.9, 4000) * 10.0 ** (
        rng.integers(-4, 17, 4000))
    x[:2] = 1000000000000000.25, -6667092368881.09375   # ties
    assert csvout._g_cells(x, 4)[-1] == []
    assert csvout._g_cells(np.array([1e-5, 0.0, np.nan, 0.5]), 1)[-1] == [
        "1.0000000000000001e-05", "0", "nan"]


def test_digit_bytes_split_every_quad():
    v = np.arange(10**4, dtype=np.uint64) * np.uint64(10**4 + 1)
    v = np.concatenate([v, np.arange(10**8 - 10**4, 10**8, dtype=np.uint64)])
    raw = csvout._digit_bytes(v) | np.uint64(0x3030303030303030)
    assert raw.view("S8").astype(str).tolist() == [f"{n:08d}"
                                                   for n in v.tolist()]


# Cell parsing. A row reads as float() reads each cell, whether or not the
# exact vectorised kernel takes the cell.

def cell_row(cells):
    """A data row of the given cells, framed by canonical cells so that the
    cells under test sit inside the row."""
    return (",".join(["1.0000000000000000e+00", *cells,
                      "-2.5000000000000000e-01"]) + "\n").encode()


def parse(line):
    """The cells of one row, read as a block of one row."""
    return dynamics._read_rows("row", 1, line, 0, len(line),
                               line.count(b",") + 1)[0]


def float_bits(line):
    return np.array([float(c) for c in line.split(b",")]).tobytes()


@settings(max_examples=300, deadline=None)
@given(lists(floats(allow_nan=False, allow_infinity=False), min_size=1,
             max_size=40))
def test_written_cells_parse_to_the_bits_of_float(xs):
    line = cell_row([f"{x:.16e}" for x in xs])
    assert parse(line).tobytes() == float_bits(line)


# spellings other writers use; ".16E" is one the kernel reads too
SPELLINGS = ["{:.16e}", "{!r}", "{:.17g}", "{:.16E}"]


@settings(max_examples=300, deadline=None)
@given(lists(tuples(floats(allow_nan=False, allow_infinity=False),
                    sampled_from(SPELLINGS)), min_size=1, max_size=40))
def test_mixed_spellings_parse_to_the_bits_of_float(cells):
    line = cell_row([spelling.format(x) for x, spelling in cells])
    assert parse(line).tobytes() == float_bits(line)


# written cells within 2.5 ulps of the x87 format of a halfway point between
# two doubles, with |q| in the kernel's two-step range 28..54 (found by
# rounding such midpoints to 17 digits); the kernel alone would read the
# first two wrong
HALFWAY_TWO_STEP = ["6.0147140804141281e+61", "2.9980962533624483e-30",
                    "1.9638054652355784e-19", "3.2331449354757240e+48",
                    "4.9672838050810543e+68"]

EDGE_CELLS = [
    "0.0000000000000000e+00", "-0.0000000000000000e+00",
    "5e-324", f"{5e-324:.16e}", f"{-2.2250738585072009e-308:.16e}",
    f"{1.5e-310:.16e}", "1.7976931348623157e+308", f"{1e-100:.16e}",
    f"{-3.25e+250:.16e}",
    # |q| = 27 at e+43 and e-11, 28 at e+44 and e-12, 54 at e+70 and e-38,
    # one past it at e+71 and e-39
    f"{1.2345e43:.16e}", f"{-9.87e-11:.16e}", f"{1.2345e44:.16e}",
    f"{9.87e-12:.16e}", f"{-9.9999e70:.16e}", f"{1.0001e-38:.16e}",
    f"{1.2345e71:.16e}", f"{-9.87e-39:.16e}",
    # 2^53 + 1 exactly: a true halfway decimal, 2^53 by ties-to-even
    "9.0071992547409930e+15",
    # within half an extended-precision ulp of a halfway point, so that
    # step rounds onto it; float() rounds up, ties-to-even would round down
    "8.8549032216538136e-09", "8.6050736450284380e-09",
    *HALFWAY_TWO_STEP,
    # spellings float() accepts that the kernel leaves to it
    "1", "-2.5", " 3.0 ", "1E5", "+1.0e+00", "1e-400",
    "+1.0000000000000000e+00",
    # an upper-case "E" the kernel reads
    "1.0000000000000000E+00", f"{-6.02214076e23:.16E}",
]


@pytest.mark.parametrize("exact", [True, False])
def test_edge_cells_parse_to_the_bits_of_float(monkeypatch, exact):
    monkeypatch.setattr(dynamics, "_EXACT", dynamics._EXACT and exact)
    kernel_blocks = []
    kernel = dynamics._canonical_cells
    monkeypatch.setattr(dynamics, "_canonical_cells",
                        lambda *args: kernel_blocks.append(1) or kernel(*args))
    # enough plain written cells that the kernel takes and keeps the row
    line = cell_row(EDGE_CELLS + 6 * len(EDGE_CELLS)
                    * ["3.2500000000000000e+00"])
    vals = parse(line)
    assert vals.tobytes() == float_bits(line)
    assert vals[1 + EDGE_CELLS.index("9.0071992547409930e+15")] == 2.0**53
    assert len(kernel_blocks) == dynamics._EXACT


def test_two_step_cells_next_to_a_halfway_point_go_to_float():
    from fractions import Fraction
    for cell in HALFWAY_TWO_STEP:
        x = float(cell)
        mid = (Fraction(x) + Fraction(np.nextafter(x, np.inf))) / 2
        if Fraction(cell) < Fraction(x):
            mid = (Fraction(x) + Fraction(np.nextafter(x, 0.0))) / 2
        ulp = Fraction(2) ** (int(np.frexp(x)[1]) - 1 - 63)
        assert abs(Fraction(cell) - mid) <= Fraction(5, 2) * ulp
    if dynamics._EXACT:
        line = cell_row(HALFWAY_TWO_STEP)
        starts = np.array([23 + sum(len(c) + 1 for c in HALFWAY_TWO_STEP[:k])
                           for k in range(len(HALFWAY_TWO_STEP))])
        ends = starts + [len(c) for c in HALFWAY_TWO_STEP]
        _, bad = dynamics._canonical_cells(line, starts, ends)
        assert {0, 1} <= set(bad.tolist())


@pytest.mark.skipif(not dynamics._EXACT,
                    reason="np.longdouble is not the x87 extended format")
def test_written_cells_in_range_skip_float(monkeypatch):
    # exponents -38..70 (|q| <= 54, both steps), with "e" and "E": only the
    # framing cells, at the row's ends, go to float() (this seed draws no
    # cell next to a halfway point)
    rng = np.random.default_rng(12)
    x = (rng.choice([-1.0, 1.0], 218) * rng.uniform(1.0, 9.9, 218)
         * 10.0 ** np.repeat(np.arange(-38, 71), 2))
    line = cell_row([f"{v:.16e}" if k % 2 else f"{v:.16E}"
                     for k, v in enumerate(x)])
    called = []
    monkeypatch.setattr(dynamics, "float",
                        lambda cell: called.append(cell) or float(cell),
                        raising=False)
    assert parse(line).tobytes() == float_bits(line)
    assert called == ["1.0000000000000000e+00", "-2.5000000000000000e-01"]


@pytest.mark.skipif(not dynamics._EXACT,
                    reason="np.longdouble is not the x87 extended format")
def test_rows_the_kernel_reads_little_of_go_to_float_whole(monkeypatch):
    # repr cells are shorter than written cells: the kernel never runs
    line = cell_row([repr(x) for x in np.random.default_rng(15).normal(
        size=200).tolist()])
    monkeypatch.setattr(dynamics, "_canonical_cells", None)
    assert parse(line).tobytes() == float_bits(line)
    monkeypatch.undo()
    # written cells out of the kernel's exponent range (|q| = 76) have the
    # width, so it runs, reads under a third of the row and leaves every
    # cell to float()
    cells = [f"{x:.16e}" for x in 1e-60 * np.arange(1.0, 31.0)]
    line = cell_row(cells[:21] + ["1.0000000000000000e+00"] * 9 + cells)
    called = []
    monkeypatch.setattr(dynamics, "float",
                        lambda cell: called.append(cell) or float(cell),
                        raising=False)
    assert parse(line).tobytes() == float_bits(line)
    assert len(called) == 62


# Whole map files. `read_map_file` reads them in blocks of rows and must
# give the bits, and the errors, of the reader that parsed one row at a time.

# exponents of written cells at the kernel's edges: |q| = |e - 16| of 27,
# 28, 54 and 55, both signs
EDGE_EXPONENTS = [-40, -39, -38, -37, -13, -12, -11, -10, 0, 16, 42, 43, 44,
                  45, 69, 70, 71, 72]
map_cells = one_of(
    tuples(floats(1.0, 10.0, exclude_max=True), sampled_from(EDGE_EXPONENTS),
           sampled_from(["", "-"]), sampled_from(["{:.16e}"] * 3 + SPELLINGS)
           ).map(lambda c: c[3].format(float(f"{c[2]}{c[0]!r}e{c[1]}"))),
    floats(allow_nan=False, allow_infinity=False).map("{:.16e}".format),
    sampled_from(EDGE_CELLS))


@composite
def map_files(draw):
    """The text of a map file: a few rows of edge cells between comment and
    blank lines, each line ending in LF, CRLF or CR (the last in none, at
    times), and at most one fault."""
    dim, has_d = draw(sampled_from([(1, 0), (1, 1), (2, 0)]))
    cols = 1 + 2 * dim**4 * (1 + has_d)
    lines = ["# mapthermo-maps v1",
             f"# dim={dim} vectorization=column-stacking derivatives={has_d}"]
    rows = [draw(lists(map_cells, min_size=cols, max_size=cols))
            for _ in range(draw(integers(1, 5)))]
    fault = draw(sampled_from([None, "snake", "nan", "1,2", "\udcff"]))
    if fault:
        draw(sampled_from(rows))[draw(integers(0, cols - 1))] = fault
    for row in rows:
        lines += draw(lists(sampled_from(["# a comment", "", "   "]),
                            max_size=2)) + [",".join(row)]
    ends = draw(lists(sampled_from(["\n", "\r\n", "\r"]),
                      min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(booleans()) else text.rstrip("\r\n")


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(map_files(), sampled_from([1, 3, dynamics._BLOCK_CELLS]),
       sampled_from([16, 100, dynamics._READ_BUFFER]),
       sampled_from([1, 3, dynamics._FLOAT_CELLS]))
def test_map_files_read_as_row_by_row(tmp_path, text, block_cells,
                                      read_buffer, float_cells):
    # small blocks and buffers put rows across their boundaries, and small
    # float() batches cells across theirs; a new file each time, as
    # rewriting one can cost more than reading it
    path = tmp_path / f"cells{len(list(tmp_path.iterdir()))}.maps"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    try:
        want = read_map_file_by_rows(str(path))
    except ConstructionError as exc:
        want = str(exc)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_BLOCK_CELLS", block_cells)
        mp.setattr(dynamics, "_READ_BUFFER", read_buffer)
        mp.setattr(dynamics, "_FLOAT_CELLS", float_cells)
        try:
            got = read_map_file(str(path))
        except ConstructionError as exc:
            got = str(exc)
    if isinstance(want, str):
        assert got == want
    else:
        assert [a is None or a.tobytes() for a in got] == [
            a is None or a.tobytes() for a in want]


def test_map_file_reads_the_same_without_the_kernel(tmp_path, monkeypatch):
    path = str(tmp_path / "traj.maps")
    save_map_trajectory(random_gksl_trajectory(
        3, np.random.default_rng(13), np.linspace(0.0, 1.0, 6)), path)
    fast = read_map_file(path)
    monkeypatch.setattr(dynamics, "_EXACT", False)
    for a, b in zip(fast, read_map_file(path)):
        assert a.tobytes() == b.tobytes()
    # float() in batches that end inside rows
    monkeypatch.setattr(dynamics, "_FLOAT_CELLS", 100)
    for a, b in zip(fast, read_map_file(path)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_map_file_line_ends_read_as_in_text_mode(tmp_path, newline):
    lf = tmp_path / "lf.maps"
    save_map_trajectory(random_gksl_trajectory(
        2, np.random.default_rng(14), np.linspace(0.0, 1.0, 5)), str(lf))
    other = tmp_path / "other.maps"
    other.write_bytes(lf.read_bytes().replace(b"\n", newline))
    for a, b in zip(read_map_file(str(lf)), read_map_file(str(other))):
        assert a.tobytes() == b.tobytes()
    # line numbers count the same lines
    text = other.read_bytes().split(newline)
    text[4] = text[4].replace(b",", b",x", 1)
    other.write_bytes(newline.join(text))
    with pytest.raises(ConstructionError, match="other.maps:5: "):
        read_map_file(str(other))


def test_read_map_file_checks_columns_before_allocating(tmp_path):
    # dim=100000 would need stacks far beyond any memory
    path = tmp_path / "huge.maps"
    path.write_text("# mapthermo-maps v1\n"
                    "# dim=100000 vectorization=column-stacking "
                    "derivatives=0\n"
                    "0.0,1\n")
    with pytest.raises(ConstructionError,
                       match=f"huge.maps:3: expected {1 + 2 * 10**20} "
                             "columns, got 2"):
        read_map_file(str(path))


@pytest.mark.parametrize("bad, line", [
    (b"\xff\xfe,1\n", 3),
    (b"# comment \xff\n0.0,1\n", 3),
    (b"0.0," + b"\xff" * 3 + b",0" * 31 + b"\n", 3),  # 33 columns
], ids=["data_row", "comment", "written_row"])
def test_read_map_file_rejects_undecodable_bytes(tmp_path, bad, line):
    path = tmp_path / "bytes.maps"
    path.write_bytes(b"# mapthermo-maps v1\n"
                     b"# dim=2 vectorization=column-stacking derivatives=0\n"
                     + bad)
    with pytest.raises(ConstructionError, match=f"bytes.maps:{line}: "):
        read_map_file(str(path))


# One pass. `read_map_file` sizes its stacks from the first run of rows
# and grows them, with one copy, when a later run holds more rows than
# the first's bytes per row allowed for.

class AllocationSpy:
    """numpy, recording the length of each array that `np.empty` makes from
    an int: in `read_map_file`, the time stack at each allocation (the map
    stacks and the reader's scratch are made from shape tuples)."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, *args, **kwargs):
        if isinstance(shape, int):
            self.sizes.append(shape)
        return np.empty(shape, *args, **kwargs)


def short_and_long_rows(path, short_first):
    """A d = 2 map file with derivatives: six rows of cells 0 and 1 spelled
    as "0" and "1", and six of random cells spelled as written, one kind
    after the other, with a comment between."""
    rng = np.random.default_rng(21)
    cols = 1 + 2 * 2**4 * 2
    short = [",".join(map(str, rng.integers(0, 2, cols))) for _ in range(6)]
    long = [",".join(f"{x:.16e}" for x in rng.standard_normal(cols))
            for _ in range(6)]
    first, then = (short, long) if short_first else (long, short)
    path.write_text("# mapthermo-maps v1\n"
                    "# dim=2 vectorization=column-stacking derivatives=1\n"
                    + "".join(f"{row}\n" for row in first)
                    + "# the other spelling\n"
                    + "".join(f"{row}\n" for row in then))


@pytest.mark.parametrize("block_cells, read_buffer", [
    (1, 16), (3, 100), (1, dynamics._READ_BUFFER),
    (dynamics._BLOCK_CELLS, dynamics._READ_BUFFER)])
@pytest.mark.parametrize("short_first", [True, False])
def test_later_rows_of_another_width_read_as_row_by_row(
        tmp_path, monkeypatch, short_first, block_cells, read_buffer):
    path = tmp_path / "widths.maps"
    short_and_long_rows(path, short_first)
    want = read_map_file_by_rows(str(path))
    spy = AllocationSpy()
    monkeypatch.setattr(dynamics, "np", spy)
    monkeypatch.setattr(dynamics, "_BLOCK_CELLS", block_cells)
    monkeypatch.setattr(dynamics, "_READ_BUFFER", read_buffer)
    got = read_map_file(str(path))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    # an empty stack, then one sized by the first run of rows (the comment
    # ends it, in one block or many): the narrower rows after it outgrow it
    # once, the wider ones never
    assert len(spy.sizes) - 2 == (0 if short_first else 1)
    assert spy.sizes[-1] >= 12


def test_a_map_file_longer_than_its_stated_size_reads_the_same(
        tmp_path, monkeypatch):
    # a pipe states size 0, and a file can grow while it is read: each run
    # of rows then grows the stacks to hold it
    path = tmp_path / "widths.maps"
    short_and_long_rows(path, short_first=True)
    want = read_map_file_by_rows(str(path))
    monkeypatch.setattr(dynamics.os.path, "getsize", lambda path: 0)
    monkeypatch.setattr(dynamics, "_BLOCK_CELLS", 1)
    got = read_map_file(str(path))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("block_cells, read_buffer", [(64, 1024), (256, 4096)])
@pytest.mark.parametrize("spell", [repr, "{:.17g}".format],
                         ids=["repr", "g17"])
def test_stacks_are_sized_by_the_rows_after_the_first(tmp_path, monkeypatch,
                                                      spell, block_cells,
                                                      read_buffer):
    # in these spellings the t = 0 row writes the identity map in short
    # cells ("1.0", "0.0"); the first run of rows holds it and others
    path = tmp_path / "gksl.maps"
    save_map_trajectory(random_gksl_trajectory(
        2, np.random.default_rng(23), np.linspace(0.0, 1.0, 201)), str(path))
    path.write_text("".join(
        line if line.startswith("#")
        else ",".join(spell(float(c)) for c in line.split(",")) + "\n"
        for line in path.read_text().splitlines(True)))
    monkeypatch.setattr(dynamics, "_BLOCK_CELLS", block_cells)
    monkeypatch.setattr(dynamics, "_READ_BUFFER", read_buffer)
    assert next(dynamics._data_rows(str(path), {}))[1] > 1
    spy = AllocationSpy()
    monkeypatch.setattr(dynamics, "np", spy)
    times, maps, _ = read_map_file(str(path))
    assert times.size == 201
    assert maps.base.shape[0] <= 1.05 * times.size
    # the rows after t = 0 in the first run are longer than most later
    # ones: an empty stack, then one allocation that holds every row
    assert len(spy.sizes) == 2 and spy.sizes[1] >= times.size


def test_no_byte_of_a_map_file_is_read_twice(tmp_path, monkeypatch):
    path = tmp_path / "gksl.maps"
    save_map_trajectory(random_gksl_trajectory(
        2, np.random.default_rng(22), np.linspace(0.0, 1.0, 9)), str(path))
    read = []

    class CountingFile(io.FileIO):
        def readinto(self, buffer):
            n = super().readinto(buffer)
            read.append(n)
            return n

    def counting_open(file, mode, buffering):
        assert mode == "rb"
        if not buffering:   # the reader reads the raw file into its buffer
            return CountingFile(file)
        return io.BufferedReader(CountingFile(file), buffering)

    monkeypatch.setattr(dynamics, "open", counting_open, raising=False)
    for block_cells in (1, dynamics._BLOCK_CELLS):   # 9 blocks, then 1
        read.clear()
        monkeypatch.setattr(dynamics, "_BLOCK_CELLS", block_cells)
        times, _, _ = read_map_file(str(path))
        assert times.size == 9
        assert sum(read) == path.stat().st_size


def test_reading_a_map_file_takes_memory_for_its_stacks_and_one_block(
        tmp_path, monkeypatch):
    # 128 kB blocks of a 3 MB file: the peak beyond the stacks (and their
    # eighth to spare) is the block buffer, its masks and the kernel's
    # scratch, about ten bytes per byte of the buffer whatever the file's
    # size (5 MB at the default 512 kB); reading the file whole would add
    # at least its 3 MB
    path = tmp_path / "gksl.maps"
    save_map_trajectory(random_gksl_trajectory(
        3, np.random.default_rng(5), np.linspace(0.0, 1.0, 401)), str(path))
    monkeypatch.setattr(dynamics, "_BLOCK_CELLS", 1 << 12)
    buffer = 32 * dynamics._BLOCK_CELLS
    assert path.stat().st_size > 20 * buffer
    tracemalloc.start()
    try:
        stacks = read_map_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.125 * sum(a.nbytes for a in stacks) + 12 * buffer


def test_loading_a_map_file_takes_memory_for_its_stacks_and_one_real_stack(
        tmp_path, monkeypatch):
    # blocks of 64 matrices: the basis stacks are made a block at a time,
    # so while the file's complex stacks live the peak grows by the real
    # map stack alone over the reader's (whole complex basis stacks would
    # add twice as much)
    path = tmp_path / "gksl.maps"
    save_map_trajectory(random_gksl_trajectory(
        2, np.random.default_rng(5), np.linspace(0.0, 1.0, 2001)), str(path))
    monkeypatch.setattr(dynamics, "_BLOCK_CELLS", 1 << 10)
    monkeypatch.setattr(operators, "_STACK_BLOCK_ELEMENTS", 1 << 10)
    buffer = 32 * dynamics._BLOCK_CELLS
    tracemalloc.start()
    try:
        traj = load_map_trajectory(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    complex_stacks = 4 * traj.maps.nbytes   # of the maps and derivatives
    assert peak <= 1.125 * complex_stacks + traj.maps.nbytes + 12 * buffer


# Two faults in one file: the one that comes first in the file is reported.
TWO_FAULTS = ["# mapthermo-maps v1",
              "# dim=1 vectorization=column-stacking derivatives=0",
              "0,1,0",
              "0.5,snake,0",                                          # 4
              "1,1,0,0",                                              # 5
              "# dim=1 vectorization=column-stacking derivatives=0"]  # 6


@pytest.mark.parametrize("block_cells", [1, dynamics._BLOCK_CELLS])
@pytest.mark.parametrize("mend, message", [
    ((), "4: row is not comma-separated numbers"),
    ((4,), "5: expected 3 columns, got 4"),
    ((4, 5), "6: header line after data rows"),
    ((5,), "4: row is not comma-separated numbers"),
    ((6,), "4: row is not comma-separated numbers"),
])
def test_the_first_fault_in_a_map_file_is_reported(tmp_path, monkeypatch,
                                                   block_cells, mend,
                                                   message):
    lines = list(TWO_FAULTS)
    for line in mend:
        lines[line - 1] = "1,1,0"
    path = tmp_path / "faults.maps"
    path.write_text("".join(f"{line}\n" for line in lines))
    monkeypatch.setattr(dynamics, "_BLOCK_CELLS", block_cells)
    with pytest.raises(ConstructionError) as exc:
        read_map_file(str(path))
    assert str(exc.value) == f"{path}:{message}"


def write_rows(path, times, maps, derivs=None):
    """A map file of the given rows (and derivatives), with a comment after
    the first row."""
    d = int(round(np.sqrt(maps.shape[1])))
    cells = [column_stacked(a).reshape(len(times), -1)
             for a in (maps, derivs) if a is not None]
    rows = [",".join(f"{x:.16e}" for x in (t, *row.view(float)))
            for t, row in zip(times, np.concatenate(cells, axis=1))]
    path.write_text("# mapthermo-maps v1\n"
                    f"# dim={d} vectorization=column-stacking "
                    f"derivatives={int(derivs is not None)}\n"
                    f"{rows[0]}\n# a comment\n"
                    + "".join(f"{row}\n" for row in rows[1:]))


@pytest.mark.parametrize("row, corrupt, needle", [
    (0, lambda maps: maps[1], "deviates from the identity"),
    (3, lambda maps: maps[3] + np.diag(np.arange(9)) * 1e-3j,
     "not Hermiticity-preserving"),
    (5, lambda maps: 0.9 * maps[5], "not trace-preserving"),
])
def test_load_names_the_line_of_the_first_failing_map(tmp_path, row,
                                                      corrupt, needle):
    times = np.linspace(0.0, 1.0, 9)
    maps = random_gksl_trajectory(3, np.random.default_rng(8),
                                  times).maps.astype(complex)
    maps[row] = corrupt(maps)
    maps[7] = 0.8 * maps[7]   # a later fault is not the one named
    path = tmp_path / "bad.maps"
    write_rows(path, times, maps)
    with pytest.raises(ConstructionError, match=needle) as exc:
        load_map_trajectory(str(path))
    line = 3 if row == 0 else row + 4   # the comment follows row 0
    assert str(exc.value).startswith(f"{path}:{line}: map at t = ")
    assert dynamics.data_row_line(str(path), row) == line


def test_load_names_a_map_fault_before_an_earlier_derivative_fault(tmp_path):
    # the trajectory checks the maps whole before a derivative's imaginary
    # part is looked at
    times = np.linspace(0.0, 1.0, 9)
    traj = random_gksl_trajectory(2, np.random.default_rng(8), times)
    derivs = traj.derivatives.astype(complex)
    derivs[2] = derivs[2] + np.diag(np.arange(4)) * 1e-3j
    maps = traj.maps.copy()
    maps[5] = 0.9 * maps[5]
    path = tmp_path / "two_faults.maps"
    for stack, fault in ((maps, f":9: map at t = {times[5]:.6g} is not "
                                "trace-preserving"),
                         (traj.maps, f":6: map derivative at t = "
                                     f"{times[2]:.6g} is not Hermiticity")):
        write_rows(path, times, stack, derivs)
        with pytest.raises(ConstructionError) as exc:
            load_map_trajectory(str(path))
        assert str(exc.value).startswith(f"{path}{fault}")


def test_trajectory_refuses_a_complex_stack():
    times = np.linspace(0.0, 1.0, 3)
    real = np.stack([np.eye(4)] * 3)
    for maps, derivs in ((real.astype(complex), None), (real, 0j * real)):
        with pytest.raises(ConstructionError, match="complex: column-stacked "
                           "maps convert with dynamics.basis_maps"):
            MapTrajectory(times=times, maps=maps, derivatives=derivs)


def test_map_check_errors_carry_the_index_of_the_first_failing_map():
    times = np.linspace(0.0, 1.0, 9)
    maps = random_gksl_trajectory(2, np.random.default_rng(8),
                                  times).maps.copy()
    maps[[4, 6], 0, 0] = np.nan
    with pytest.raises(ConstructionError, match="not finite") as exc:
        MapTrajectory(times=times, maps=maps)
    assert exc.value.index == 4
    with pytest.raises(ConstructionError, match="start at 0") as exc:
        MapTrajectory(times=times + 0.5, maps=maps[:1].repeat(9, axis=0))
    assert exc.value.index == 0
