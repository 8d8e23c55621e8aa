"""Exception and warning taxonomy shared across the package.

Every error is a PermeameterError.  The CLI exits 3 for a
NoUsableResonanceError (a trace with no resonance whose Q can be read,
or none that pairs), 4 for an UnphysicalResultError and 2 for any other.
"""

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


class NoUsableResonanceError(PermeameterError, ValueError):
    """No resonance to extract from: none found, none pairable, or one
    whose Q cannot be read (net gain, or no half-power crossing)."""


class InsufficientSpanError(NoUsableResonanceError):
    """Trace does not bracket a half-power crossing."""


class FitFailureError(NoUsableResonanceError, ArithmeticError):
    """Resonance fit failed; carries the bandwidth-method fallback if any."""

    def __init__(self, message: str, fallback=None):
        super().__init__(f"resonance fit failed: {message}")
        self.fallback = fallback


class ConfigurationError(PermeameterError, ValueError):
    """Invalid run configuration (file content, spans, paths)."""


class NearCriticalCouplingWarning(UserWarning):
    """Insertion loss close to unity; unloaded Q is poorly conditioned."""
