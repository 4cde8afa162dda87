import re

import numpy as np
import numpy.testing as npt
import pytest

from hypothesis import given, settings
from hypothesis.strategies import integers

from mapthermo.coherent import (coherent_initial_construction,
                                coherent_work_fluctuation)
from mapthermo.errors import ConstructionError, SingularMap
from mapthermo.operators import (
    HERMITICITY_TOL,
    PAULI,
    _exp_stack,
    _gibbs_stack,
    _state_stack,
    coordinates,
    from_coordinates,
    hermitian_basis,
    hermitian_stack,
)
from mapthermo.dynamics import basis_maps, column_stacked, map_faults
from mapthermo.fluctuations import tpms_distribution
from mapthermo.observables import mean_change
from mapthermo.trajectory import MapTrajectory
from reference import (
    Superoperator,
    apply,
    choi_matrix,
    compose,
    condition_number,
    conjugation_superop,
    cptp_diagnostics,
    exp_hermitian,
    func_hermitian,
    gibbs_state,
    hermiticity_preservation_by_reshuffle,
    hs_adjoint,
    identity_superop,
    invert,
    kraus_superop,
    partition_function,
    pauli_transfer_matrix,
    random_density_matrix,
    random_hermitian,
    random_unitary,
    superop_from_pauli_transfer,
    unvec,
    vec,
)

SX, SY, SZ = PAULI[1], PAULI[2], PAULI[3]


def test_hermitian_symmetrizes_small_drift():
    m = np.array([[1.0, 0.5 + 1e-14j], [0.5, -1.0]])
    h = hermitian_stack(m[None], HERMITICITY_TOL)[0]
    npt.assert_array_equal(h, h.conj().T)
    npt.assert_allclose(h, m, atol=1e-14)


def test_hermitian_rejects_large_drift():
    # where a caller's Hamiltonian enters: the coherent construction's H(0)
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ConstructionError,
                       match=re.escape("H(0) is not Hermitian")):
        coherent_initial_construction(0.5 * np.eye(2), bad)
    with pytest.raises(ConstructionError, match="matrix is not Hermitian"):
        hermitian_stack(bad[None], HERMITICITY_TOL, what="matrix")
    with pytest.raises(ConstructionError,
                       match=re.escape("stack, got (2, 2)")):
        hermitian_stack(SZ, HERMITICITY_TOL)


def test_density_matrix_invariants():
    # where a caller's state enters: the coherent construction's rho(0) and
    # the two-point mean change
    rho = _state_stack(np.diag([0.25, 0.75])[None])[0]
    assert abs(np.trace(rho) - 1.0) < 1e-12
    times = np.linspace(0.0, 1.0, 17)
    traj = MapTrajectory(times=times, maps=np.stack([np.eye(4)] * 17))
    x = np.zeros((17, 4))
    for bad in (np.diag([1.5, -0.5]), np.diag([0.5, 0.4])):
        for call in (lambda: coherent_initial_construction(bad, SZ),
                     lambda: mean_change(x, traj, 16, bad)):
            with pytest.raises(ConstructionError,
                               match=re.escape("rho(0) is not a state")):
                call()


NAN_MATRIX = np.array([[np.nan, 0.0], [0.0, 1.0]])


def _nan_entries() -> dict:
    """Per entry check of a caller's matrices: a call that hands it
    NAN_MATRIX, and the name its error gives the matrix."""
    rho, h0 = np.diag([0.25, 0.75]), 0.5 * SZ
    traj = MapTrajectory(times=np.linspace(0.0, 1.0, 5),
                         maps=np.stack([np.eye(4)] * 5))
    data = coherent_initial_construction(rho, h0)
    hams = np.stack([h0, h0, NAN_MATRIX])
    return {
        "mean_change": (lambda: mean_change(np.zeros((5, 4)), traj, 3,
                                            NAN_MATRIX), "rho(0)"),
        "tpms_states": (lambda: tpms_distribution(
            np.stack([rho, NAN_MATRIX]), traj.maps[3], coordinates(h0),
            coordinates(h0)), "state 1"),
        "rho(0)": (lambda: coherent_initial_construction(NAN_MATRIX, h0),
                   "rho(0)"),
        "H(0)": (lambda: coherent_initial_construction(rho, NAN_MATRIX),
                 "H(0)"),
        "H(t)": (lambda: coherent_work_fluctuation(
            data, np.stack([np.eye(2)] * 3), hams, np.array([0.0, 0.1, 0.2])),
            "H(t) at t = 0.2"),
    }


@pytest.mark.parametrize("where", ["mean_change", "tpms_states", "rho(0)",
                                   "H(0)", "H(t)"])
def test_a_matrix_that_is_not_finite_is_refused_where_it_enters(where):
    # NaN fails every comparison of the Hermiticity, trace and eigenvalue
    # checks, so the matrix would pass them and poison what follows
    call, name = _nan_entries()[where]
    with pytest.raises(ConstructionError, match=re.escape(
            f"{name} holds a value that is not finite")):
        call()


def test_eig_sigma_z():
    # the convention the library reads spectra in: ascending eigenvalues,
    # eigenvector columns
    vals, vecs = np.linalg.eigh(SZ)
    npt.assert_allclose(vals, [-1.0, 1.0])
    # columns are the computational basis up to phase
    assert abs(abs(vecs[1, 0]) - 1.0) < 1e-12
    assert abs(abs(vecs[0, 1]) - 1.0) < 1e-12


def test_eig_degenerate_identity():
    vals, vecs = np.linalg.eigh(np.eye(2))
    npt.assert_allclose(vals, [1.0, 1.0])
    npt.assert_allclose(vecs.conj().T @ vecs, np.eye(2), atol=1e-10)


def test_eig_reconstruction_random():
    rng = np.random.default_rng(3)
    h = random_hermitian(3, rng)
    vals, vecs = np.linalg.eigh(h)
    rebuilt = (vecs * vals) @ vecs.conj().T
    assert np.linalg.norm(rebuilt - h) < 1e-10


def test_func_hermitian_exp_diag():
    h = np.diag([0.0, np.log(2.0)])
    npt.assert_allclose(func_hermitian(h, np.exp), np.diag([1.0, 2.0]),
                        atol=1e-12)


def test_func_hermitian_square_matches_product():
    rng = np.random.default_rng(11)
    h = random_hermitian(3, rng)
    sq = func_hermitian(h, lambda x: x ** 2)
    assert np.max(np.abs(sq - h @ h)) < 1e-10


def test_apply_identity_and_unitary():
    rng = np.random.default_rng(5)
    a = random_hermitian(2, rng)
    npt.assert_allclose(apply(identity_superop(2), a), a, atol=1e-14)
    u = random_unitary(2, rng)
    out = apply(conjugation_superop(u), a)
    npt.assert_allclose(out, u @ a @ u.conj().T, atol=1e-12)


def test_apply_preserves_trace_for_tp_map():
    rng = np.random.default_rng(6)
    rho = random_density_matrix(2, rng)
    p = 0.3
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - p)]])
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]])
    s = kraus_superop([k0, k1])
    assert s.trace_preserving
    assert abs(np.trace(apply(s, rho)) - 1.0) < 1e-10


def test_hs_adjoint_of_conjugation():
    rng = np.random.default_rng(7)
    u = random_unitary(2, rng)
    adj = hs_adjoint(conjugation_superop(u))
    expect = conjugation_superop(u.conj().T)
    assert np.max(np.abs(adj.matrix - expect.matrix)) < 1e-12


def test_hs_adjoint_involution():
    rng = np.random.default_rng(8)
    s = conjugation_superop(random_unitary(3, rng))
    back = hs_adjoint(hs_adjoint(s))
    assert np.max(np.abs(back.matrix - s.matrix)) < 1e-12


def test_hs_adjoint_duality():
    rng = np.random.default_rng(9)
    p = 0.4
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - p)]])
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]])
    s = kraus_superop([k0, k1])
    a = random_hermitian(2, rng) + 1j * rng.normal(size=(2, 2))
    b = random_hermitian(2, rng)
    lhs = np.trace(a.conj().T @ apply(s, b))
    rhs = np.trace(apply(hs_adjoint(s), a).conj().T @ b)
    assert abs(lhs - rhs) < 1e-10


def test_invert_identity():
    inv, cond = invert(identity_superop(2))
    assert abs(cond - 1.0) < 1e-12
    npt.assert_allclose(inv.matrix, np.eye(4), atol=1e-13)


def test_invert_unitary_conjugation():
    rng = np.random.default_rng(10)
    u = random_unitary(2, rng)
    inv, cond = invert(conjugation_superop(u))
    assert cond < 1.0 + 1e-10
    npt.assert_allclose(inv.matrix, conjugation_superop(u.conj().T).matrix,
                        atol=1e-12)


def test_compose_with_inverse_is_identity():
    # invertible CPTP map: mild amplitude damping plus a rotation
    rng = np.random.default_rng(12)
    p = 0.2
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - p)]])
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]])
    u = random_unitary(2, rng)
    s = compose(conjugation_superop(u), kraus_superop([k0, k1]))
    inv, _ = invert(s)
    assert np.max(np.abs(compose(s, inv).matrix - np.eye(4))) < 1e-10


def test_invert_raises_on_singular():
    # full damping: everything lands on |0><0|, not invertible
    k0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    k1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    s = kraus_superop([k0, k1])
    with pytest.raises(SingularMap):
        invert(s, time=2.5)
    try:
        invert(s, time=2.5)
    except SingularMap as exc:
        assert exc.time == 2.5


def test_condition_number_submultiplicative():
    rng = np.random.default_rng(13)
    for _ in range(5):
        m1 = rng.normal(size=(4, 4))
        m2 = rng.normal(size=(4, 4))
        # symmetrize the action so the matrices preserve Hermiticity
        s1 = Superoperator(np.kron(m1, m1))
        s2 = Superoperator(np.kron(m2, m2))
        lhs = condition_number(compose(s1, s2))
        rhs = condition_number(s1) * condition_number(s2)
        assert lhs <= rhs * 1.1


def test_cptp_diagnostics_identity():
    rep = cptp_diagnostics(identity_superop(2))
    assert rep.trace_preserving_residual < 1e-12
    assert rep.unital_residual < 1e-12
    # Choi of the identity is the unnormalized maximally entangled projector
    assert abs(rep.choi_min_eigenvalue) < 1e-12


def test_cptp_diagnostics_amplitude_damping():
    p = 0.5
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - p)]])
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]])
    rep = cptp_diagnostics(kraus_superop([k0, k1]))
    assert rep.choi_min_eigenvalue >= -1e-12
    assert rep.trace_preserving_residual < 1e-12
    assert rep.unital_residual > 0.1


def test_cptp_diagnostics_reports_noncp():
    # inverse of a damping map is HP and TP but not CP; diagnostics must
    # report the negative Choi eigenvalue rather than raise
    p = 0.4
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - p)]])
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]])
    inv, _ = invert(kraus_superop([k0, k1]))
    rep = cptp_diagnostics(inv)
    assert rep.choi_min_eigenvalue < -1e-6


def test_superoperator_rejects_hermiticity_breaking():
    m = np.eye(4, dtype=complex)
    m[0, 3] = 1.0  # maps sigma_z component into an anti-Hermitian direction
    m[1, 1] = 1.0 + 0.5j
    with pytest.raises(ConstructionError):
        Superoperator(m)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_hermiticity_preservation_matches_the_reshuffle_form(d):
    # the basis is orthonormal and Hermitian, and for d = 2 it is PAULI over
    # sqrt(2): a map's basis matrix is its Pauli transfer matrix
    b = hermitian_basis(d)
    npt.assert_array_equal(b, b.conj().swapaxes(1, 2))
    npt.assert_allclose(np.einsum("aij,bji->ab", b, b), np.eye(d * d),
                        atol=4e-16)
    if d == 2:
        npt.assert_allclose(b * np.sqrt(2), PAULI, atol=1e-15)
    # random stacks: taking the real part in the basis is the projection of
    # the reshuffle form, and the imaginary part is what it removes
    rng = np.random.default_rng(20 + d)
    m = rng.standard_normal((7, d * d, d * d, 2)).view(complex)[..., 0]
    eps = np.finfo(float).eps
    dev, allowed, want = hermiticity_preservation_by_reshuffle(m)
    r, imag = basis_maps(m)
    npt.assert_allclose(column_stacked(r), want, atol=1e-14 * d)
    # and the projected stack passes the check the reshuffle form fails,
    # with an imaginary part of a few ulps left
    t = np.arange(7.0)
    assert np.all(dev > allowed)
    assert list(map_faults(r, imag, t)) == list(range(7))
    projected, imag = basis_maps(want)
    assert not map_faults(projected, imag, t)
    assert np.all(imag <= 8 * d * eps * np.abs(projected).max(axis=(1, 2)))
    # complex -> real -> complex round-trips within a few ulps, the
    # identity map exactly, and the coordinates of Hermitian matrices
    # within a few ulps
    npt.assert_allclose(column_stacked(projected), want,
                        rtol=0, atol=8 * d * eps * np.abs(want).max())
    eye = np.eye(d * d)[None]
    back, imag = basis_maps(eye, dynamical=True)
    npt.assert_array_equal(back, eye)
    npt.assert_array_equal(imag, [0.0])
    npt.assert_array_equal(column_stacked(eye, dynamical=True), eye)
    h = 0.5 * (m[:, :d, :d] + m[:, :d, :d].conj().swapaxes(1, 2))
    x = coordinates(h)
    npt.assert_allclose(from_coordinates(x), h, rtol=0, atol=8 * d * eps)
    npt.assert_allclose(x, [[np.trace(bb @ hh).real for bb in b] for hh in h],
                        rtol=0, atol=8 * d * eps)
    # from coordinates: Hermitian bit for bit, and a row converts to the
    # same bits alone as in a stack, scaled over decades
    y = rng.standard_normal((2001, d * d)) * 10.0 ** rng.uniform(
        -3, 3, (2001, 1))
    back = from_coordinates(y)
    npt.assert_array_equal(back, back.conj().swapaxes(1, 2))
    for i, row in enumerate(y):
        npt.assert_array_equal(from_coordinates(row), back[i])


def test_choi_matrix_of_unitary_is_rank_one():
    # unit-trace normalization: one eigenvalue 1, the rest 0
    rng = np.random.default_rng(14)
    u = random_unitary(2, rng)
    ch = choi_matrix(conjugation_superop(u))
    vals = np.linalg.eigvalsh(ch)
    assert abs(vals[-1] - 1.0) < 1e-10
    assert np.max(np.abs(vals[:-1])) < 1e-10
    assert abs(np.trace(ch) - 1.0) < 1e-12


def test_pauli_transfer_round_trip():
    rng = np.random.default_rng(15)
    p = 0.3
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - p)]])
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]])
    s = compose(conjugation_superop(random_unitary(2, rng)),
                kraus_superop([k0, k1]))
    r = pauli_transfer_matrix(s)
    back = superop_from_pauli_transfer(r)
    assert np.max(np.abs(back.matrix - s.matrix)) < 1e-12
    # TP maps have first transfer row (1, 0, 0, 0)
    npt.assert_allclose(r[0], [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_stacked_pauli_transfer_conversions_match_the_trace_formula():
    rng = np.random.default_rng(16)
    r = rng.normal(size=(5, 4, 4))
    m = column_stacked(r)
    assert m.shape == (5, 4, 4)
    for k in range(5):
        # S[P_j] = sum_i R_ij P_i, read off column by column
        for j, pj in enumerate(PAULI):
            image = unvec(m[k] @ vec(pj))
            npt.assert_allclose(image, sum(r[k, i, j] * PAULI[i]
                                           for i in range(4)), atol=1e-14)
    npt.assert_allclose(basis_maps(m)[0], r, atol=1e-14)


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(16)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    npt.assert_allclose(unvec(vec(a), 3), a)
    # column stacking: first d entries are the first column
    npt.assert_allclose(vec(a)[:3], a[:, 0])


def test_gibbs_state_and_partition_function():
    h = 0.5 * SZ
    beta = 2.0
    rho = gibbs_state(h, beta)
    z = partition_function(h, beta)
    assert abs(z - 2.0 * np.cosh(beta / 2.0)) < 1e-12
    npt.assert_allclose(rho,
                        np.diag([np.exp(-beta / 2), np.exp(beta / 2)]) / z,
                        atol=1e-12)


def test_a_gibbs_stack_of_several_betas_names_the_failing_one():
    h = random_hermitian(3, np.random.default_rng(6))
    vals, vecs = np.linalg.eigh(h)
    betas = np.array([0.5, 2.0, 4.0])
    rhos = _gibbs_stack(vals[None], vecs[None], betas, np.zeros(3))
    for beta, rho in zip(betas, rhos):
        npt.assert_allclose(rho, gibbs_state(h, beta), atol=1e-15)
    # the eigenvectors of the second row are not orthonormal: its trace is 4
    scaled = np.stack([vecs, 2.0 * vecs, vecs])
    with pytest.raises(ConstructionError,
                       match=re.escape("Gibbs state (beta = 2) at t = 0 is "
                                       "not a state: trace deviation")):
        _gibbs_stack(np.stack([vals] * 3), scaled, betas, np.zeros(3))


def test_gibbs_state_checks_its_state_once(monkeypatch):
    h = random_hermitian(3, np.random.default_rng(5))
    vals, vecs = np.linalg.eigh(h)
    want = _gibbs_stack(vals[None], vecs[None], 0.8)[0]
    eigvalsh = np.linalg.eigvalsh
    checks = []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: checks.append(a.shape) or eigvalsh(a))
    rho = gibbs_state(h, 0.8)   # `_gibbs_stack` of one operator
    assert checks == [(1, 3, 3)]
    assert rho.tobytes() == want.tobytes()
    # a state that fails the check still fails it
    with pytest.raises(ConstructionError, match="not a state"):
        _state_stack(np.diag([1.5, -0.5, 0.0])[None])


def test_exp_hermitian_matches_scipy():
    from scipy.linalg import expm
    rng = np.random.default_rng(17)
    h = random_hermitian(3, rng)
    npt.assert_allclose(exp_hermitian(h, -0.7), expm(-0.7 * h),
                        atol=1e-11)
    # the library's stacked exponential, e^{-beta X} per row
    stack = np.stack([random_hermitian(3, rng) for _ in range(4)])
    got = _exp_stack(*np.linalg.eigh(stack), 0.7)
    for x, e in zip(stack, got):
        npt.assert_allclose(e, expm(-0.7 * x), atol=1e-11)


@settings(max_examples=25, deadline=None)
@given(integers(min_value=0, max_value=10_000), integers(min_value=2, max_value=4))
def test_spectral_reconstruction_property(seed, dim):
    rng = np.random.default_rng(seed)
    h = random_hermitian(dim, rng)
    vals, vecs = np.linalg.eigh(h)
    assert np.all(np.diff(vals) >= 0)
    rebuilt = (vecs * vals) @ vecs.conj().T
    assert np.linalg.norm(rebuilt - h) < 1e-10


@settings(max_examples=25, deadline=None)
@given(integers(min_value=0, max_value=10_000))
def test_adjoint_duality_property(seed):
    rng = np.random.default_rng(seed)
    u = random_unitary(2, rng)
    v = random_unitary(2, rng)
    s = compose(conjugation_superop(u), conjugation_superop(v))
    a = random_hermitian(2, rng)
    b = random_hermitian(2, rng)
    lhs = np.trace(a.conj().T @ apply(s, b))
    rhs = np.trace(apply(hs_adjoint(s), a).conj().T @ b)
    assert abs(lhs - rhs) < 1e-10
