"""Exception and warning taxonomy shared across the package."""

from __future__ import annotations


class PermeameterError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGeometryError(PermeameterError, ValueError):
    """A value the model or a library type cannot work with; names the field if any.

    Covers out-of-range geometry, a point outside the cavity, a degenerate g,
    a shift beyond the perturbation regime and a non-converging integral.
    """


class UnphysicalResultError(PermeameterError, ValueError):
    """Extraction produced a permeability the model cannot represent."""


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
        super().__init__(f"resonance fit failed: {message}")
        self.fallback = fallback


class OverCoupledError(PermeameterError, ValueError):
    """Insertion loss at or above unity; unloading formula undefined."""


class NoPairableResonanceError(PermeameterError, ValueError):
    """No empty/loaded resonance pair within the frequency guard band."""


class ConfigurationError(PermeameterError, ValueError):
    """Invalid run configuration (file content, spans, paths)."""


class NearCriticalCouplingWarning(UserWarning):
    """Insertion loss close to unity; unloaded Q is poorly conditioned."""
