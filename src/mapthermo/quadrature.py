"""Cumulative quadrature on uniform time grids.

Everything path-dependent in this package is a running integral evaluated at
every grid point, so the workhorse here is a *cumulative* composite Simpson
rule: prefix integrals over an even number of intervals use Simpson pairs,
and a prefix ending on an odd interval count gets a single trapezoid for the
final interval. The same policy is used everywhere (path operators, the
analytic qubit engine, mean-work cross checks) so that discretizations match
between independent routes to the same quantity.

Derivatives of sampled data use second-order stencils on the same grids
(`stencil_derivative`). Grids are required to be uniform; `grid_spacing`
checks that.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundaryStencil

GRID_RTOL = 1e-9


def grid_fault(times: np.ndarray) -> tuple[int, str] | None:
    """The first point of `times` at fault as a uniform, strictly increasing
    grid, and why; None when it is one. That is point 0 of a grid of fewer
    than two points, else the first point that is not finite, else the end
    of the first step that is not positive, else the end of the first step
    off the first by more than GRID_RTOL (relative, floor 1)."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2:
        return 0, "grid needs at least two points"
    bad = ~np.isfinite(t)
    if bad.any():
        return int(np.argmax(bad)), "grid must be finite"
    steps = np.diff(t)
    bad = steps <= 0
    if bad.any():
        return int(np.argmax(bad)) + 1, "grid must be strictly increasing"
    bad = np.abs(steps - steps[0]) > GRID_RTOL * max(abs(steps[0]), 1.0)
    if bad.any():
        return int(np.argmax(bad)) + 1, "grid must be uniform"
    return None


def grid_spacing(times: np.ndarray) -> float:
    """Return the spacing of a uniform, strictly increasing grid.

    Raises ValueError with the reason of `grid_fault` if the grid has fewer
    than two points, is not strictly increasing, or is not uniform to
    relative tolerance GRID_RTOL.
    """
    t = np.asarray(times, dtype=float)
    fault = grid_fault(t)
    if fault:
        raise ValueError(fault[1])
    return float(t[1] - t[0])


def cumulative_simpson(samples: np.ndarray, h: float) -> np.ndarray:
    """Prefix integrals of sampled data on a uniform grid.

    samples has shape (N+1, ...) with samples[j] = f(t_j); the result has the
    same shape, result[i] = integral of f from t_0 to t_i. Composite Simpson
    over interval pairs; a prefix with an odd interval count ends with one
    trapezoid on the last interval (attached to the Simpson value two points
    back, so even prefixes never contain a trapezoid contribution). The even
    prefixes are a cumsum of the pair terms, which adds in grid order.
    """
    f = np.asarray(samples)
    n = f.shape[0] - 1
    out = np.zeros_like(f, dtype=np.result_type(f.dtype, float))
    if n == 0:
        return out
    pairs = (h / 3.0) * (f[0:n - 1:2] + 4.0 * f[1:n:2] + f[2:n + 1:2])
    np.cumsum(pairs, axis=0, out=out[2::2])
    out[1::2] = out[0:n:2] + (h / 2.0) * (f[0:n:2] + f[1:n + 1:2])
    return out


def stencil_derivative(samples: np.ndarray, h: float) -> np.ndarray:
    """Second-order derivative of (N+1, ...) samples along axis 0: central
    differences in the interior, one-sided three-point stencils at the two
    ends. Raises BoundaryStencil for fewer than three grid points."""
    f = np.asarray(samples)
    if f.shape[0] < 3:
        raise BoundaryStencil(
            "second-order stencils need at least three grid points")
    out = np.empty(f.shape, dtype=np.result_type(f.dtype, float))
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    return out


def cumulative_exp_weighted(xi: np.ndarray, growth: np.ndarray,
                            h: float) -> np.ndarray:
    """Stable prefix integrals of the form e^{-G(t_i)} * int_0^{t_i} xi(s) e^{G(s)} ds.

    `growth` holds G(t_j) on the grid (any real accumulating function, often
    itself a cumulative integral). Naively integrating xi * e^G overflows once
    G grows past ~700; instead each Simpson pair / trapezoid tail is
    accumulated in the rescaled variable, so every stored term carries a
    non-positive exponent. Algebraically identical to
    exp(-G) * cumulative_simpson(xi * exp(G)) in exact arithmetic.

    The factors and the Simpson pair terms are array expressions; the even
    prefixes are one recurrence over floats, in grid order, and each odd
    prefix adds its trapezoid to the even one before it.
    """
    x = np.asarray(xi, dtype=float)
    G = np.asarray(growth, dtype=float)
    n = x.shape[0] - 1
    out = np.zeros_like(x)
    back = np.exp(G[0:n - 1:2] - G[2::2])
    pairs = (h / 3.0) * (x[0:n - 1:2] * back
                         + 4.0 * x[1:n:2] * np.exp(G[1:n:2] - G[2::2])
                         + x[2::2])
    acc, evens = 0.0, []
    for decay, pair in zip(back.tolist(), pairs.tolist()):
        acc = acc * decay + pair
        evens.append(acc)
    out[2::2] = evens
    back = np.exp(G[0:n:2] - G[1::2])
    out[1::2] = out[0:n:2] * back + (h / 2.0) * (x[0:n:2] * back + x[1::2])
    return out
