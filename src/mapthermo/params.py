"""Scenario parameters: one frozen dataclass per model, with its defaults
and checks, and the qubit rates built from it.

The fields of each class are the keys of its model's config section
(`cli.parse_config`), their defaults the keys' defaults. The three
sinusoidally driven families (weak coupling, custom rates, the closed
drive) share omega(t) = omega0 + delta sin^2(Omega t) and its grid; the
exchange model's parameters carry its photon cutoff (`jc_mode_count`).
No model is built here: the builders live in `phase_covariant`, `models`
and `coherent`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, TruncationError
from .phase_covariant import PCRates, constant_rate

TAIL_WEIGHT_MAX = 1e-10
# photon levels the exchange-model cutoff may hold, automatic or explicit:
# seven times the hot window's 13 816; the level sum's time grows as
# K PANEL_NODES (compression) plus nodes N (evaluation) for K levels and N
# grid steps, where nodes <= K is set by the frequency spread times t_N
JC_AUTO_LEVELS_MAX = 100_000

DRIVE_MODES = ("monotonic", "periodic")


def drive_frequency(omega0: float, delta: float, Omega: float) -> Callable:
    """The sinusoidal drive omega(t) = omega0 + delta sin^2(Omega t)."""
    def omega(t):
        return omega0 + delta * np.sin(Omega * np.asarray(t, dtype=float)) ** 2
    return omega


class _SinSquaredDrive:
    """Duration and grid of a drive family with fields omega0, delta, Omega
    and drive_mode: "monotonic" stops at the quarter period pi/(2 Omega)
    where the splitting peaks, "periodic" runs one full period 2 pi/Omega."""

    def _check_drive_mode(self) -> None:
        if self.drive_mode not in DRIVE_MODES:
            raise ConfigError(f"unknown drive_mode {self.drive_mode!r} "
                              f"(allowed: {', '.join(DRIVE_MODES)})")

    @property
    def default_t_f(self) -> float:
        if self.drive_mode == "monotonic":
            return math.pi / (2.0 * self.Omega)
        return 2.0 * math.pi / self.Omega

    def grid(self, n_steps: int = 1000) -> np.ndarray:
        return np.linspace(0.0, self.default_t_f, n_steps + 1)


@dataclass(frozen=True)
class WeakCouplingParams(_SinSquaredDrive):
    """Driven qubit with rates frozen at their initial-splitting values.

    The splitting is omega(t) = omega0 + delta sin^2(Omega t). Decay and
    excitation rates are gamma (n_th + 1) and gamma n_th with
    n_th = 1/(e^{beta omega0} - 1), held constant over the drive.
    drive_mode fixes the default duration (`_SinSquaredDrive`).
    """

    omega0: float = 1.0
    delta: float = 1.0
    Omega: float = math.pi / 20
    gamma: float = 0.01
    beta: float = 1.0
    drive_mode: str = "monotonic"
    gamma_z: float = 0.0

    def __post_init__(self):
        self._check_drive_mode()
        if self.omega0 <= 0 or self.Omega <= 0:
            raise ConfigError("omega0 and Omega must be positive")
        if self.beta <= 0:
            raise ConfigError("beta must be positive")
        if self.gamma < 0 or self.gamma_z < 0:
            raise ConfigError("rates must be nonnegative")


def weak_coupling_rates(params: WeakCouplingParams) -> PCRates:
    try:
        n_th = 1.0 / math.expm1(params.beta * params.omega0)
    except OverflowError:  # 1/(e^x - 1) is e^{-x} to rounding there
        n_th = math.exp(-params.beta * params.omega0)
    return PCRates(
        omega=drive_frequency(params.omega0, params.delta, params.Omega),
        gamma_plus=constant_rate(params.gamma * n_th),
        gamma_minus=constant_rate(params.gamma * (n_th + 1.0)),
        gamma_z=constant_rate(params.gamma_z),
    )


@dataclass(frozen=True)
class CustomPCParams:
    """Qubit with constant rates gamma_plus, gamma_minus, gamma_z and the
    splitting omega(t) = omega0 + delta sin^2(Omega t)."""

    omega0: float = 1.0
    delta: float = 0.0
    Omega: float = 1.0
    gamma_plus: float = 0.0
    gamma_minus: float = 0.0
    gamma_z: float = 0.0

    def __post_init__(self):
        # a negative rate gives maps that are not completely positive
        if min(self.gamma_plus, self.gamma_minus, self.gamma_z) < 0:
            raise ConfigError("rates must be nonnegative")


def custom_pc_rates(params: CustomPCParams) -> PCRates:
    return PCRates(
        omega=drive_frequency(params.omega0, params.delta, params.Omega),
        gamma_plus=constant_rate(params.gamma_plus),
        gamma_minus=constant_rate(params.gamma_minus),
        gamma_z=constant_rate(params.gamma_z),
    )


@dataclass(frozen=True)
class ClosedCoherentParams(_SinSquaredDrive):
    """Closed sinusoidal drive applied to a rotated thermal state.

    The drive Hamiltonian is H(t) = (omega(t)/2) sigma_z with the same
    omega(t) as the weak-coupling family. The initial state is the Gibbs
    state of H(0) at beta0, rotated about the y axis by rotation_angle, so
    it carries coherences in the H(0) eigenbasis whenever the angle is not
    a multiple of pi.
    """

    omega0: float = 1.0
    delta: float = 1.0
    Omega: float = math.pi / 20
    beta0: float = 1.0
    rotation_angle: float = 0.5
    drive_mode: str = "monotonic"

    def __post_init__(self):
        self._check_drive_mode()
        if self.beta0 <= 0 or self.omega0 <= 0 or self.Omega <= 0:
            raise ConfigError("beta0, omega0 and Omega must be positive")


@dataclass(frozen=True)
class JCParams:
    """Qubit coupled to one bosonic mode under excitation exchange.

    H = (omega/2) sigma_z + omega_m a^dag a + g (sigma_+ a + sigma_- a^dag).

    beta is the mode inverse temperature; math.inf selects the vacuum. The
    mode space is truncated at n_max photons and the coupling out of the
    edge state is dropped, so the joint evolution stays exactly unitary and
    the reduced map exactly completely positive; the price is a tail error
    of the order of the discarded thermal weight q^{n_max+1}, q = e^{-beta
    omega_m}. Leave n_max as None to have it chosen from tail_margin.
    """

    omega: float = 1.0
    omega_m: float = 2.0
    g: float = 0.01
    beta: float = math.inf
    n_max: int | None = None
    tail_margin: float = 1e-12

    def __post_init__(self):
        if self.omega_m <= 0:
            raise ConfigError("omega_m must be positive")
        if self.beta <= 0:
            raise ConfigError("beta must be positive (math.inf for vacuum)")
        if self.n_max is not None and self.n_max < 1:
            raise ConfigError("n_max must be at least 1")
        if self.n_max is not None and self.n_max + 1 > JC_AUTO_LEVELS_MAX:
            raise ConfigError(
                f"n_max = {self.n_max} asks for {self.n_max + 1} photon "
                f"levels, above the ceiling of {JC_AUTO_LEVELS_MAX}")
        if not 0.0 < self.tail_margin < 1.0:
            raise ConfigError("tail_margin must lie in (0, 1)")
        n = self.n_max if self.n_max is not None else jc_mode_count(self)
        # the squared Rabi frequency of the top block must be a double
        if not math.isfinite(4.0 * self.g * self.g * (n + 1.0)):
            raise ConfigError(f"g = {self.g:g}: the squared coupling of "
                              f"the top level, 4 g^2 (n_max + 1), overflows")
        delta = self.omega - self.omega_m
        if not math.isfinite(delta * delta):
            raise ConfigError(f"omega - omega_m = {delta:g}: its square "
                              "overflows")


def jc_mode_count(params: JCParams) -> int:
    """Photon cutoff actually used, with the tail-weight invariant enforced.

    An explicit n_max must leave q^{n_max+1} below TAIL_WEIGHT_MAX or the
    truncated model is not a faithful stand-in for the infinite one;
    TruncationError then reports the smallest acceptable cutoff. A mode so
    cold that q underflows to 0 (beta = inf among them) is the vacuum. The
    automatic cutoff may hold at most JC_AUTO_LEVELS_MAX levels, checked
    before anything is allocated; above it ConfigError names the keys. (An
    explicit n_max meets the same ceiling in `JCParams`.)
    """
    q = math.exp(-params.beta * params.omega_m)
    if q == 0.0:
        return params.n_max if params.n_max is not None else 1
    log_q = math.log(q)  # 0 where beta omega_m is below rounding
    if params.n_max is not None:
        tail = q ** (params.n_max + 1)
        if tail >= TAIL_WEIGHT_MAX:
            needed = None if log_q == 0 else max(
                math.ceil(math.log(TAIL_WEIGHT_MAX) / log_q) - 1,
                params.n_max + 1)
            raise TruncationError(
                f"thermal tail weight {tail:.3e} at n_max={params.n_max} "
                f"exceeds {TAIL_WEIGHT_MAX:.0e}", required_n_max=needed)
        return params.n_max
    levels = math.log(params.tail_margin) / log_q if log_q < 0 else math.inf
    if levels > JC_AUTO_LEVELS_MAX:
        raise ConfigError(
            f"beta = {params.beta:g} and tail_margin = "
            f"{params.tail_margin:g} ask for {levels:.3g} photon levels "
            f"(n_max = auto), above the ceiling of {JC_AUTO_LEVELS_MAX}: "
            "raise beta or tail_margin, or set n_max")
    return max(math.ceil(levels) - 1, 1)
