"""Exception types shared across the package."""

from __future__ import annotations


class MapThermoError(Exception):
    """Base class for all package-specific failures."""


class ConstructionError(MapThermoError):
    """An operator or map violates its type invariants (non-Hermitian input,
    trace off by more than tolerance, negative eigenvalue, ...). Carries
    the position in its stack of the first failing matrix when one is
    known."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class SingularMap(MapThermoError):
    """A dynamical map could not be inverted below the configured condition
    threshold. Carries the time label when one is known."""

    def __init__(self, message: str, time: float | None = None,
                 condition_number: float | None = None):
        super().__init__(message)
        self.time = time
        self.condition_number = condition_number


class BoundaryStencil(MapThermoError):
    """The time grid is too short for the requested finite-difference
    stencil."""


class NoMatchingBeta(MapThermoError):
    """Energy matching for a coherent initial state has no solution: the
    state's energy lies outside the open spectral interval of the reference
    Hamiltonian, or no root exists inside the search bracket."""


class TruncationError(MapThermoError):
    """The requested Fock-space truncation leaves too much thermal weight in
    the tail. Carries the smallest acceptable truncation when known."""

    def __init__(self, message: str, required_n_max: int | None = None):
        super().__init__(message)
        self.required_n_max = required_n_max


class ConfigError(MapThermoError):
    """A scenario configuration failed to parse or validate."""
