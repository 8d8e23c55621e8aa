"""Analytic model of the rectangular (SIW-equivalent) resonant cavity.

Axis convention used by the whole package:

    x : broad dimension, 0 <= x <= a   (width)
    y : substrate thickness, 0 <= y <= h
    z : length, 0 <= z <= l            (the TE10n index n counts
                                        half-wavelengths along z)

TE10n mode quantities, with k_x = pi/a and k_z = n*pi/l:

    f_n      = c / (2*sqrt(eps_r * Re(mu_rs))) * sqrt((1/a)^2 + (n/l)^2)
    lambda_g = 2*l / n
    h_x      = -k_z * sin(k_x x) * cos(k_z z)
    h_z      =  k_x * cos(k_x x) * sin(k_z z)
    e_y_rel  =        sin(k_x x) * sin(k_z z)

Fields are relative amplitudes (common scale factor 1); every consumer
of these fields uses only ratios of field integrals, which are
normalization independent.  An SIW via fence is reduced to an effective
rectangular width a_eff = a - d^2/(0.95 p); all mode formulas use a_eff.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt
from typing import NamedTuple, Union

import numpy as np

from .errors import InvalidGeometryError

C_LIGHT = 299_792_458.0  # m/s, exact

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class CavitySpec:
    """Effective rectangular cavity geometry plus substrate constants.

    Lengths in meters.  ``mu_rs`` is the substrate relative permeability
    mu' - j mu'' (1+0j for nonmagnetic substrates); a passive substrate
    has mu'' >= 0, so its imaginary part is never positive.  Optional
    via fields describe an SIW side-wall fence; when present, ``a_eff``
    applies the standard effective-width correction.
    """

    width_a: float
    length_l: float
    height_h: float
    eps_r: float = 1.0
    mu_rs: complex = 1.0 + 0.0j
    via_diameter_d: float | None = None
    via_pitch_p: float | None = None

    def __post_init__(self):
        for name in ("width_a", "length_l", "height_h"):
            if not getattr(self, name) > 0:
                raise InvalidGeometryError(f"{name} must be > 0")
        if not self.height_h < self.width_a:
            raise InvalidGeometryError("height_h must be < width_a")
        if not self.eps_r >= 1:
            raise InvalidGeometryError("eps_r must be >= 1")
        mu = complex(self.mu_rs)
        if not mu.real >= 1:
            raise InvalidGeometryError("mu_rs real part must be >= 1")
        if not mu.imag <= 0:
            raise InvalidGeometryError("mu_rs imaginary part must be <= 0")
        has_d = self.via_diameter_d is not None
        has_p = self.via_pitch_p is not None
        if has_d != has_p:
            raise InvalidGeometryError(
                "via_diameter_d and via_pitch_p must be given together"
            )
        if has_d:
            # Raises InvalidGeometryError on a non-positive corrected width.
            effective_width(self.width_a, self.via_diameter_d, self.via_pitch_p)

    @property
    def a_eff(self) -> float:
        """Width of the equivalent rectangular cavity (via-corrected)."""
        if self.via_diameter_d is None:
            return self.width_a
        return effective_width(self.width_a, self.via_diameter_d, self.via_pitch_p)

    @property
    def volume(self) -> float:
        return self.a_eff * self.length_l * self.height_h


@dataclass(frozen=True)
class ModeSpec:
    """Longitudinal TE10n mode index."""

    n: int

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise InvalidGeometryError("n must be an integer >= 1")

    @property
    def is_even(self) -> bool:
        return self.n % 2 == 0


class FieldPoint(NamedTuple):
    """Relative TE10n field amplitudes at one point (arrays allowed)."""

    h_x: ArrayLike
    h_z: ArrayLike
    e_y_rel: ArrayLike


def effective_width(
    physical_width: float, via_diameter: float, via_pitch: float
) -> float:
    """Equivalent rectangular width of an SIW cavity.

    a_eff = a - d^2 / (0.95 p).  Raises unless a_eff exceeds the via
    diameter d.
    """
    if not (0 < via_diameter < via_pitch):
        raise InvalidGeometryError(
            "via geometry requires 0 < via_diameter_d < via_pitch_p"
        )
    correction = via_diameter**2 / (0.95 * via_pitch)
    corrected = physical_width - correction
    # below one via diameter the equivalent-width picture has collapsed
    if corrected <= via_diameter:
        raise InvalidGeometryError(
            "width_a less via_diameter_d^2 / (0.95 via_pitch_p) must exceed via_diameter_d"
        )
    return corrected


def wavenumbers(cavity: CavitySpec, mode: ModeSpec) -> tuple[float, float]:
    """(k_x, k_z) for the TE10n mode, in 1/m."""
    return pi / cavity.a_eff, mode.n * pi / cavity.length_l


def resonant_frequency(cavity: CavitySpec, mode: ModeSpec) -> float:
    """TE10n resonant frequency in Hz."""
    a, l = cavity.a_eff, cavity.length_l
    scale = C_LIGHT / (2.0 * sqrt(cavity.eps_r * complex(cavity.mu_rs).real))
    return scale * sqrt((1.0 / a) ** 2 + (mode.n / l) ** 2)


def guided_wavelength(cavity: CavitySpec, mode: ModeSpec) -> float:
    """Longitudinal guided wavelength at resonance: 2 l / n, meters."""
    return 2.0 * cavity.length_l / mode.n


def mode_field(
    cavity: CavitySpec, mode: ModeSpec, x: ArrayLike, z: ArrayLike
) -> FieldPoint:
    """Relative TE10n fields at (x, z); uniform along y.

    Accepts scalars or broadcastable arrays.  Points outside the cavity
    cross-section raise InvalidGeometryError.
    """
    a, l = cavity.a_eff, cavity.length_l
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(x < 0) or np.any(x > a) or np.any(z < 0) or np.any(z > l):
        raise InvalidGeometryError(f"point outside cavity: need 0 <= x <= {a}, 0 <= z <= {l}")
    k_x, k_z = wavenumbers(cavity, mode)
    sx, cx = np.sin(k_x * x), np.cos(k_x * x)
    sz, cz = np.sin(k_z * z), np.cos(k_z * z)
    h_x = -k_z * sx * cz
    h_z = k_x * cx * sz
    e_y = sx * sz
    if h_x.ndim == 0:
        return FieldPoint(float(h_x), float(h_z), float(e_y))
    return FieldPoint(h_x, h_z, e_y)


def stored_field_norm(cavity: CavitySpec, mode: ModeSpec) -> float:
    """Cavity-volume integral of |h_x|^2 + |h_z|^2.

    Both sin^2 and cos^2 factors integrate to half the side length over
    the full cavity, giving the closed form h * (a l / 4) * (k_x^2 + k_z^2).
    """
    k_x, k_z = wavenumbers(cavity, mode)
    return (
        cavity.height_h
        * (cavity.a_eff * cavity.length_l / 4.0)
        * (k_x**2 + k_z**2)
    )
