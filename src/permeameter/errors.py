"""Exception and warning taxonomy shared across the package."""

from __future__ import annotations


class PermeameterError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGeometryError(PermeameterError, ValueError):
    """A geometry or domain value violates its constraints (names the field)."""


class DomainError(PermeameterError, ValueError):
    """A field evaluation point lies outside the cavity."""


class UnsupportedModeError(PermeameterError, ValueError):
    """Printed closed form requested for an odd mode index, which it does not cover."""


class AccuracyError(PermeameterError, ArithmeticError):
    """Numerical quadrature failed to converge; carries the last delta."""

    def __init__(self, message: str, last_delta: float):
        super().__init__(message)
        self.last_delta = last_delta


class DegenerateGeometryError(PermeameterError, ValueError):
    """Geometry factor too small to invert (sample volume effectively zero)."""


class UnphysicalResultError(PermeameterError, ValueError):
    """Extraction produced a permeability the model cannot represent."""


class ModelBreakdownError(PermeameterError, ValueError):
    """Forward model pushed outside the small-perturbation regime."""


class TouchstoneParseError(PermeameterError, ValueError):
    """Malformed Touchstone input; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InsufficientSpanError(PermeameterError, ValueError):
    """Trace does not bracket a half-power crossing; names the missing side."""

    def __init__(self, side: str, message: str | None = None):
        super().__init__(message or f"no half-power crossing on the {side} side")
        self.side = side


class FitFailureError(PermeameterError, ArithmeticError):
    """Resonance fit failed; carries the bandwidth-method fallback if any."""

    def __init__(self, message: str, fallback=None):
        super().__init__(message)
        self.fallback = fallback


class OverCoupledError(PermeameterError, ValueError):
    """Insertion loss at or above unity; unloading formula undefined."""


class NoPairableResonanceError(PermeameterError, ValueError):
    """No empty/loaded resonance pair within the frequency guard band."""


class ConfigurationError(PermeameterError, ValueError):
    """Invalid run configuration (file content, spans, paths)."""


class NearCriticalCouplingWarning(UserWarning):
    """Insertion loss close to unity; unloaded Q is poorly conditioned."""
