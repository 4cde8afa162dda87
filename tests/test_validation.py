import numpy as np
import numpy.testing as npt

from mapthermo import validation
from mapthermo.errors import ConstructionError
from mapthermo.validation import (
    CheckResult,
    FAST_CHECKS,
    FULL_CHECKS,
    format_report,
    random_gksl_trajectory,
    run_checks,
)
from reference import apply, cptp_diagnostics, map_at


def test_run_checks_reports_every_check_it_runs(monkeypatch):
    # the checks themselves pass in tests/test_acceptance.py; here stubs
    # test the plumbing: one result per check, in order, with its detail
    def failing(exc):
        def check():
            raise exc
        return check

    fast = (("passes", lambda: "dev 1e-12"),
            ("asserts", failing(AssertionError("dev 0.5"))),
            ("asserts_bare", failing(AssertionError())))
    full = fast + (("raises", failing(ConstructionError("map at t = 1"))),)
    monkeypatch.setattr(validation, "FAST_CHECKS", fast)
    monkeypatch.setattr(validation, "FULL_CHECKS", full)
    assert run_checks(full=False) == [
        CheckResult("passes", True, "dev 1e-12"),
        CheckResult("asserts", False, "dev 0.5"),
        CheckResult("asserts_bare", False, "failed")]
    assert run_checks(full=True)[3:] == [
        CheckResult("raises", False, "ConstructionError: map at t = 1")]


def test_full_suite_extends_fast_suite():
    fast_names = [n for n, _ in FAST_CHECKS]
    full_names = [n for n, _ in FULL_CHECKS]
    assert full_names[:len(fast_names)] == fast_names
    assert len(full_names) > len(fast_names)


def test_format_report_counts_and_flags():
    results = [CheckResult("alpha", True, "dev 1e-12"),
               CheckResult("beta", False, "dev 0.5")]
    text = format_report(results, full=False)
    assert "PASS alpha" in text
    assert "FAIL beta" in text
    assert "1/2 checks passed" in text
    assert "(fast)" in text


def test_random_gksl_trajectory_properties():
    rng = np.random.default_rng(42)
    times = np.linspace(0.0, 1.5, 31)
    for dim in (2, 3):
        traj = random_gksl_trajectory(dim, rng, times)
        assert traj.dim == dim
        assert traj.derivatives is not None
        npt.assert_allclose(traj.maps[0], np.eye(dim * dim),
                            atol=1e-12)
        for i in (10, 30):
            rep = cptp_diagnostics(map_at(traj, i))
            assert rep.choi_min_eigenvalue > -1e-10
            assert rep.trace_preserving_residual < 1e-10
        # semigroup property on the uniform grid
        one = traj.maps[10]
        npt.assert_allclose(traj.maps[20], one @ one, atol=1e-10)


def test_random_gksl_trajectory_is_seed_deterministic():
    times = np.linspace(0.0, 1.0, 11)
    a = random_gksl_trajectory(2, np.random.default_rng(7), times)
    b = random_gksl_trajectory(2, np.random.default_rng(7), times)
    for ma, mb in zip(a.maps, b.maps):
        npt.assert_array_equal(ma, mb)
