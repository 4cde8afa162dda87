from functools import partial

import numpy as np
import numpy.testing as npt
import pytest

from hypothesis import given, settings
from hypothesis.strategies import floats

from mapthermo.quadrature import (
    cumulative_exp_weighted,
    cumulative_simpson,
    grid_fault,
    grid_spacing,
)
from reference import exp_weighted_loop

sane_floats = partial(floats, allow_nan=False, allow_infinity=False)


def test_grid_spacing_uniform():
    t = np.linspace(0.0, 3.0, 31)
    assert abs(grid_spacing(t) - 0.1) < 1e-12


def test_grid_spacing_rejects_nonuniform():
    with pytest.raises(ValueError):
        grid_spacing(np.array([0.0, 0.1, 0.3]))
    with pytest.raises(ValueError):
        grid_spacing(np.array([0.0, 0.1, 0.1]))
    with pytest.raises(ValueError):
        grid_spacing(np.array([0.5]))


def test_grid_fault_names_the_first_point_of_the_failing_check():
    assert grid_fault(np.linspace(0.0, 3.0, 31)) is None
    # a step that does not increase outranks an earlier uneven one
    assert grid_fault([0.0, 0.1, 0.3, 0.4, 0.4]) == (
        4, "grid must be strictly increasing")
    assert grid_fault([0.0, 0.1, 0.2, 0.35, 0.4]) == (3, "grid must be uniform")
    assert grid_fault([0.5]) == (0, "grid needs at least two points")
    # NaN fails every comparison: a point that is not finite is the fault,
    # ahead of the step checks
    assert grid_fault([0.0, np.nan, 2.0]) == (1, "grid must be finite")
    assert grid_fault([0.0, np.inf, np.inf]) == (1, "grid must be finite")
    assert grid_fault([0.0, 0.2, 0.1, np.nan]) == (3, "grid must be finite")


def test_cumulative_simpson_exact_on_cubics():
    # Simpson pairs integrate cubics exactly; check on even prefixes
    t = np.linspace(0.0, 2.0, 21)
    f = t ** 3 - 2.0 * t ** 2 + 0.5
    out = cumulative_simpson(f, grid_spacing(t))
    exact = t ** 4 / 4 - 2.0 * t ** 3 / 3 + 0.5 * t
    npt.assert_allclose(out[::2], exact[::2], atol=1e-13)


def test_cumulative_simpson_fourth_order_on_sin():
    # even prefixes are pure Simpson (order 4); odd prefixes end with one
    # trapezoid and converge one order slower, so track the two separately
    even_errs = []
    all_errs = []
    for n in (40, 80, 160):
        t = np.linspace(0.0, 2.0, n + 1)
        out = cumulative_simpson(np.sin(t), grid_spacing(t))
        err = np.abs(out - (1.0 - np.cos(t)))
        even_errs.append(np.max(err[::2]))
        all_errs.append(np.max(err))
    assert even_errs[0] / even_errs[1] > 12.0
    assert even_errs[1] / even_errs[2] > 12.0
    assert all_errs[0] / all_errs[1] > 3.5
    assert all_errs[1] / all_errs[2] > 3.5


def test_cumulative_simpson_vector_samples():
    t = np.linspace(0.0, 1.0, 11)
    f = np.stack([t, t ** 2], axis=1)
    out = cumulative_simpson(f, grid_spacing(t))
    npt.assert_allclose(out[:, 0], t ** 2 / 2, atol=1e-12)
    npt.assert_allclose(out[-1, 1], 1.0 / 3.0, atol=1e-5)


def test_cumulative_simpson_single_point():
    out = cumulative_simpson(np.array([3.0]), 0.1)
    npt.assert_allclose(out, [0.0])


def test_exp_weighted_matches_naive_for_small_growth():
    rng = np.random.default_rng(2)
    t = np.linspace(0.0, 1.0, 41)
    h = grid_spacing(t)
    xi = rng.normal(size=t.size)
    G = cumulative_simpson(rng.uniform(0.0, 0.5, size=t.size), h)
    naive = np.exp(-G) * cumulative_simpson(xi * np.exp(G), h)
    stable = cumulative_exp_weighted(xi, G, h)
    npt.assert_allclose(stable, naive, atol=1e-12)


def test_exp_weighted_survives_large_growth():
    # naive integrand e^G overflows near G ~ 710, the scaled form must not;
    # oracle: per-target-time prefix integral with all exponents shifted <= 0
    t = np.linspace(0.0, 1.0, 201)
    h = grid_spacing(t)
    G = 2000.0 * t
    xi = np.cos(3.0 * t)
    out = cumulative_exp_weighted(xi, G, h)
    assert np.all(np.isfinite(out))
    for i in (1, 2, 50, 151, 200):
        shifted = xi[:i + 1] * np.exp(G[:i + 1] - G[i])
        oracle = cumulative_simpson(shifted, h)[i]
        assert abs(out[i] - oracle) < 1e-12


def test_exp_weighted_constant_rates_closed_form():
    kappa, xi_val = 0.8, -0.3
    t = np.linspace(0.0, 2.0, 801)
    h = grid_spacing(t)
    out = cumulative_exp_weighted(np.full_like(t, xi_val), kappa * t, h)
    exact = (xi_val / kappa) * (1.0 - np.exp(-kappa * t))
    npt.assert_allclose(out, exact, atol=1e-8, rtol=0.0)


@pytest.mark.parametrize("n_steps", [0, 1, 2, 3, 10, 1600, 2000, 2001])
def test_exp_weighted_is_bit_identical_to_the_loop(n_steps):
    rng = np.random.default_rng(n_steps)
    xi = rng.standard_normal(n_steps + 1)
    # growth of either sign, past where e^G overflows
    G = np.cumsum(rng.uniform(-2.0, 5.0, n_steps + 1))
    fast = cumulative_exp_weighted(xi, G, 0.37)
    slow = exp_weighted_loop(xi, G, 0.37)
    assert np.array_equal(fast.view(np.int64), slow.view(np.int64))


@settings(max_examples=30, deadline=None)
@given(sane_floats(min_value=-5.0, max_value=5.0),
       sane_floats(min_value=-5.0, max_value=5.0))
def test_cumulative_simpson_exact_on_lines(a, b):
    t = np.linspace(0.0, 1.5, 13)
    out = cumulative_simpson(a * t + b, grid_spacing(t))
    npt.assert_allclose(out, a * t ** 2 / 2 + b * t, atol=1e-10)


def simpson_loop(samples, h):
    """The pair-by-pair accumulation that `cumulative_simpson` replaces."""
    f = np.asarray(samples)
    n = f.shape[0] - 1
    out = np.zeros_like(f, dtype=np.result_type(f.dtype, float))
    for i in range(2, n + 1, 2):
        out[i] = out[i - 2] + (h / 3.0) * (f[i - 2] + 4.0 * f[i - 1] + f[i])
    for i in range(1, n + 1, 2):
        out[i] = out[i - 1] + (h / 2.0) * (f[i - 1] + f[i])
    return out


@pytest.mark.parametrize("shape", [(2,), (3,), (2000,), (2001,), (401, 6, 6)])
def test_cumulative_simpson_is_bit_identical_to_the_loop(shape):
    rng = np.random.default_rng(len(shape) * 10_000 + shape[0])
    f = rng.standard_normal(shape)
    if len(shape) > 1:
        f = f + 1j * rng.standard_normal(shape)
    fast, slow = cumulative_simpson(f, 0.37), simpson_loop(f, 0.37)
    assert fast.dtype == slow.dtype
    assert fast.tobytes() == slow.tobytes()
