"""Complex frequency shift <-> complex permeability for a centered bar sample.

Two independent routes compute the dimensionless geometry factor g that
couples the sample to the TE10n mode:

  * closed forms: analytic integrals of the selected |H|^2 components
    over the centered box (sinc products), plus the published prefactor
    variant 4 a^2 (1 - sinc(k_z a1)) (4 pi a^2 + lambda_g^2)^-1
    (1 - sinc(k_x l1)) kept verbatim for diagnostics;
  * numerical quadrature: midpoint box integration of the same field
    energy with Richardson acceleration over grid doublings.

The two routes cross-check each other; extraction defaults to the
quadrature-backed value.  geometry_factor is the one place a model name
("quadrature", "derived" or "printed") selects a route.  Sign
conventions (time factor e^{+j w t}, mu_r = mu_re - j mu_im):

    shift = -(mu_r / (2 mu_rs) - 1/2) * g
    re(shift) = (f_loaded - f_empty) / f_loaded  (< 0 when mu_re > 1)
    im(shift) = (1/2) (1/Q_loaded - 1/Q_empty)   (> 0 when lossy)

so that invert_permeability is the exact algebraic inverse of
fractional_shift_closed.

Naming note: the bar extent along x is called l1 and the extent along z
is called a1.  The cross-axis naming is kept deliberately because the
closed forms are conventionally written with (1 - sinc(k_z a1)) and
(1 - sinc(k_x l1)); swapping the labels silently breaks that pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import pi, sin

import numpy as np

from .cavity import CavitySpec, ModeSpec, guided_wavelength, stored_field_norm, wavenumbers
from .errors import (
    AccuracyError,
    ConfigurationError,
    DegenerateGeometryError,
    InvalidGeometryError,
    UnphysicalResultError,
    UnsupportedModeError,
)

#: g below this is treated as "no sample" and refuses to invert.
DEGENERATE_G = 1e-12

#: Relative tolerance of the convergence-by-doubling quadrature loop.
QUADRATURE_RTOL = 1e-6

#: Maximum number of grid doublings before giving up.
MAX_DOUBLINGS = 3

#: Geometry-factor models that geometry_factor accepts by name.
MODELS = ("quadrature", "derived", "printed")


class InteractionChoice(str, Enum):
    """Which magnetic-field components the sample is taken to interact with.

    The component along z (``transverse-hz``) carries the
    (1 - sinc)(1 - sinc) structure of the published closed form and is
    the extraction default; the component maximal at the cavity center
    (``axial-hx``) gives the uniform-field small-sample limit.
    """

    AXIAL_HX = "axial-hx"
    TRANSVERSE_HZ = "transverse-hz"
    BOTH = "both-components"


@dataclass(frozen=True)
class SampleSpec:
    """Bar sample centered at (a/2, l/2), axis-aligned.

    extent_x_l1 : bar extent along x (meters)
    extent_z_a1 : bar extent along z (meters)
    thickness   : extent along y (meters)
    """

    extent_x_l1: float
    extent_z_a1: float
    thickness: float

    def __post_init__(self):
        for name in ("extent_x_l1", "extent_z_a1", "thickness"):
            if not getattr(self, name) > 0:
                raise InvalidGeometryError(f"{name} must be > 0")

    @property
    def volume(self) -> float:
        return self.extent_x_l1 * self.extent_z_a1 * self.thickness


@dataclass(frozen=True)
class ComplexPermeability:
    """mu_r = mu_re - j mu_im with magnetic loss tangent mu_im / mu_re."""

    mu_re: float
    mu_im: float = 0.0

    def __post_init__(self):
        if not self.mu_re > 0:
            raise InvalidGeometryError("mu_re must be > 0")
        if self.mu_im < 0:
            raise InvalidGeometryError("mu_im must be >= 0")

    @classmethod
    def from_loss_tangent(cls, mu_re: float, tan_dm: float) -> "ComplexPermeability":
        return cls(mu_re, mu_re * tan_dm)

    @property
    def tan_dm(self) -> float:
        return self.mu_im / self.mu_re

    @property
    def as_complex(self) -> complex:
        return self.mu_re - 1j * self.mu_im


@dataclass(frozen=True)
class FractionalShift:
    """Complex fractional resonance shift between empty and loaded states."""

    re: float
    im: float

    def __post_init__(self):
        if not (np.isfinite(self.re) and np.isfinite(self.im)):
            raise InvalidGeometryError("shift components must be finite")
        if not abs(self.re) < 1:
            raise InvalidGeometryError("|re| of a fractional shift must be < 1")

    @property
    def as_complex(self) -> complex:
        return self.re + 1j * self.im


@dataclass(frozen=True)
class GeometryFactor:
    """Dimensionless coupling factor with its computation provenance."""

    value: float
    provenance: str

    def __post_init__(self):
        if self.value < 0:
            raise InvalidGeometryError("geometry factor must be >= 0")


def _sinc(u: float) -> float:
    """Unnormalized cardinal sine sin(u)/u with sinc(0) = 1."""
    return sin(u) / u if u != 0.0 else 1.0


def _check_sample(cavity: CavitySpec, sample: SampleSpec) -> None:
    if sample.extent_x_l1 > cavity.a_eff:
        raise InvalidGeometryError("extent_x_l1 exceeds cavity width")
    if sample.extent_z_a1 > cavity.length_l:
        raise InvalidGeometryError("extent_z_a1 exceeds cavity length_l")
    if sample.thickness > cavity.height_h:
        raise InvalidGeometryError("thickness exceeds cavity height_h")


def geometry_factor_printed(
    cavity: CavitySpec, sample: SampleSpec, mode: ModeSpec
) -> GeometryFactor:
    """Published closed-form factor, kept verbatim.

    4 a^2 (1 - sinc(k_z a1)) (4 pi a^2 + lambda_g^2)^-1 (1 - sinc(k_x l1))

    Whether the 4 pi a^2 term should read 4 pi^2 a^2 is an open question;
    this form is reported as a diagnostic (see cli quadcheck) and never
    silently preferred for extraction.
    """
    if not mode.is_even:
        raise UnsupportedModeError(
            f"printed geometry factor is defined for even mode indices only (got n={mode.n})"
        )
    _check_sample(cavity, sample)
    a = cavity.a_eff
    k_x, k_z = wavenumbers(cavity, mode)
    lam_g = guided_wavelength(cavity, mode)
    value = (
        4.0
        * a**2
        * (1.0 - _sinc(k_z * sample.extent_z_a1))
        / (4.0 * pi * a**2 + lam_g**2)
        * (1.0 - _sinc(k_x * sample.extent_x_l1))
    )
    return GeometryFactor(value, "printed")


def geometry_factor_derived(
    cavity: CavitySpec,
    sample: SampleSpec,
    mode: ModeSpec,
    choice: InteractionChoice = InteractionChoice.TRANSVERSE_HZ,
) -> GeometryFactor:
    """Closed-form sample/cavity energy ratio for the selected components.

    Exact integrals over the centered box (width w, any n):

        int sin^2(k x) = (w/2)(1 + sinc(k w))          across the x half-wave
        int cos^2(k x) = (w/2)(1 - sinc(k w))
        int cos^2(k z) = (w/2)(1 + (-1)^n sinc(k w))   across the z standing wave
        int sin^2(k z) = (w/2)(1 - (-1)^n sinc(k w))

    divided by the whole-cavity field norm.  The parity factor (-1)^n is
    cos(n pi) from centering the box at l/2.
    """
    _check_sample(cavity, sample)
    k_x, k_z = wavenumbers(cavity, mode)
    l1, a1, t = sample.extent_x_l1, sample.extent_z_a1, sample.thickness
    sinc_x = _sinc(k_x * l1)
    sinc_z = (1.0 if mode.is_even else -1.0) * _sinc(k_z * a1)
    ix_sin = (l1 / 2.0) * (1.0 + sinc_x)  # int sin^2(k_x x) dx over the bar
    ix_cos = (l1 / 2.0) * (1.0 - sinc_x)
    iz_cos = (a1 / 2.0) * (1.0 + sinc_z)  # int cos^2(k_z z) dz over the bar
    iz_sin = (a1 / 2.0) * (1.0 - sinc_z)
    axial = k_z**2 * ix_sin * iz_cos
    transverse = k_x**2 * ix_cos * iz_sin
    if choice == InteractionChoice.AXIAL_HX:
        numerator, tag = axial, "derived-axial"
    elif choice == InteractionChoice.TRANSVERSE_HZ:
        numerator, tag = transverse, "derived-transverse"
    else:
        numerator, tag = axial + transverse, "derived-both"
    value = numerator * t / stored_field_norm(cavity, mode)
    return GeometryFactor(value, tag)


def geometry_factor_conventional(
    cavity: CavitySpec, sample: SampleSpec, mode: ModeSpec
) -> GeometryFactor:
    """Uniform-maximum-field small-sample factor.

    Classical baseline: the sample is assumed to sit in the field
    maximum, |H|^2 = k_z^2 uniformly, giving
    4 k_z^2 V_s / (V_c (k_x^2 + k_z^2)).  Coincides with the vanishing-
    extent limit of the axial-hx derived factor.
    """
    _check_sample(cavity, sample)
    k_x, k_z = wavenumbers(cavity, mode)
    value = (
        4.0
        * k_z**2
        * sample.volume
        / (cavity.volume * (k_x**2 + k_z**2))
    )
    return GeometryFactor(value, "conventional")


def sample_energy_midpoint(
    cavity: CavitySpec,
    sample: SampleSpec,
    mode: ModeSpec,
    choice: InteractionChoice,
    cells_per_axis: int,
) -> float:
    """Midpoint product rule for the sample-box integral of selected |H|^2.

    Each selected component is a product X(x) Z(z), k_z^2 sin^2(k_x x)
    cos^2(k_z z) or k_x^2 cos^2(k_x x) sin^2(k_z z), so its sum over the
    m x m grid of midpoints equals (sum_x X)(sum_z Z): four m-point sums
    replace the m^2-point grid.  The integrand is uniform along y, so the
    y sum collapses to a factor of the sample thickness.  Summation order
    is fixed by the grid, so the result is deterministic for a given
    cells_per_axis.
    """
    a, l = cavity.a_eff, cavity.length_l
    l1, a1 = sample.extent_x_l1, sample.extent_z_a1
    m = cells_per_axis
    dx = l1 / m
    dz = a1 / m
    x = (a - l1) / 2.0 + (np.arange(m) + 0.5) * dx
    z = (l - a1) / 2.0 + (np.arange(m) + 0.5) * dz
    k_x, k_z = wavenumbers(cavity, mode)
    sin_x, cos_x = (float(np.sum(trig(k_x * x) ** 2)) for trig in (np.sin, np.cos))
    sin_z, cos_z = (float(np.sum(trig(k_z * z) ** 2)) for trig in (np.sin, np.cos))
    total = 0.0
    if choice != InteractionChoice.TRANSVERSE_HZ:  # axial-hx or both-components
        total += k_z**2 * sin_x * cos_z
    if choice != InteractionChoice.AXIAL_HX:  # transverse-hz or both-components
        total += k_x**2 * cos_x * sin_z
    return total * dx * dz * sample.thickness


def sample_energy_quadrature(
    cavity: CavitySpec,
    sample: SampleSpec,
    mode: ModeSpec,
    choice: InteractionChoice = InteractionChoice.TRANSVERSE_HZ,
    cells_per_axis: int = 64,
) -> float:
    """Convergence-by-doubling box integral of the selected |H|^2.

    Builds midpoint sums at cells_per_axis, 2x, 4x, ... and Richardson-
    extrapolates the ladder (the midpoint error is a clean h^2 series
    for trigonometric integrands, so each doubling gains two orders).
    Converged when successive extrapolants agree to QUADRATURE_RTOL;
    raises AccuracyError after MAX_DOUBLINGS doublings without that.
    """
    if cells_per_axis < 8:
        raise InvalidGeometryError("cells_per_axis must be >= 8")
    _check_sample(cavity, sample)
    prev: list[float] = []  # the previous row of the Richardson table
    delta = float("inf")
    for k in range(MAX_DOUBLINGS + 1):
        m = cells_per_axis * (2**k)
        row = [sample_energy_midpoint(cavity, sample, mode, choice, m)]
        for j, coarse in enumerate(prev, start=1):
            weight = 4.0**j
            row.append((weight * row[j - 1] - coarse) / (weight - 1.0))
        if prev:
            delta = abs(row[-1] - prev[-1]) / max(abs(row[-1]), 1e-300)
            if delta < QUADRATURE_RTOL:
                return row[-1]
        prev = row
    raise AccuracyError(
        f"box integral did not converge within {MAX_DOUBLINGS} grid doublings "
        f"(last relative delta {delta:.3e})",
        last_delta=delta,
    )


def geometry_factor(
    cavity: CavitySpec,
    sample: SampleSpec,
    mode: ModeSpec,
    model: str = "quadrature",
    choice: InteractionChoice = InteractionChoice.TRANSVERSE_HZ,
    cells_per_axis: int = 64,
) -> GeometryFactor:
    """Geometry factor of the named model, one of MODELS.

    "quadrature" integrates the selected |H|^2 numerically (provenance
    quadrature-<choice>), "derived" is the closed form for the same
    components, "printed" the published form (choice does not apply).
    """
    if model == "quadrature":
        integral = sample_energy_quadrature(cavity, sample, mode, choice, cells_per_axis)
        value = integral / stored_field_norm(cavity, mode)
        return GeometryFactor(value, f"quadrature-{choice.value}")
    if model == "derived":
        return geometry_factor_derived(cavity, sample, mode, choice)
    if model == "printed":
        return geometry_factor_printed(cavity, sample, mode)
    raise ConfigurationError(f"unknown geometry-factor model {model!r}; expected one of {MODELS}")


def shift_complex(mu_r: ComplexPermeability, mu_rs: complex, g_value: float) -> complex:
    """Raw complex shift -(mu_r/(2 mu_rs) - 1/2) * g, unvalidated."""
    return -(mu_r.as_complex / (2.0 * complex(mu_rs)) - 0.5) * g_value


def fractional_shift_closed(
    mu_r: ComplexPermeability, mu_rs: complex, g: GeometryFactor
) -> FractionalShift:
    """Closed-form fractional shift -(mu_r/(2 mu_rs) - 1/2) * g."""
    if not np.isfinite(g.value):
        raise InvalidGeometryError("geometry factor must be finite")
    delta = shift_complex(mu_r, mu_rs, g.value)
    return FractionalShift(delta.real, delta.imag)


def complex_shift_from_resonances(empty, loaded) -> FractionalShift:
    """Measured fractional shift between an empty and a loaded resonance.

    re = (f_loaded - f_empty) / f_loaded
    im = (1/2) (1/Q_loaded - 1/Q_empty), unloaded Q on both sides.
    Pairing the two is the caller's: see traceio.pair_resonances.
    """
    if not (empty.f0 > 0 and loaded.f0 > 0):
        raise InvalidGeometryError("resonance frequencies must be > 0")
    if not (empty.q_unloaded > 0 and loaded.q_unloaded > 0):
        raise InvalidGeometryError("unloaded Q must be > 0")
    re = (loaded.f0 - empty.f0) / loaded.f0
    im = 0.5 * (1.0 / loaded.q_unloaded - 1.0 / empty.q_unloaded)
    return FractionalShift(re, im)


def invert_permeability(
    shift: FractionalShift, g: GeometryFactor, mu_rs: complex
) -> ComplexPermeability:
    """Exact algebraic inverse of fractional_shift_closed.

    mu_r = mu_rs (1 - 2 shift / g); raises when the factor is degenerate
    or the result leaves the model's parameter space.
    """
    if g.value <= DEGENERATE_G:
        raise DegenerateGeometryError(
            f"geometry factor {g.value:.3e} is degenerate (<= {DEGENERATE_G:.0e}); "
            "sample volume is effectively zero"
        )
    mu_c = complex(mu_rs) * (1.0 - 2.0 * shift.as_complex / g.value)
    mu_re, mu_im = mu_c.real, -mu_c.imag
    if mu_re <= 0:
        raise UnphysicalResultError(
            f"extracted mu_re = {mu_re:.6g} <= 0; shift inconsistent with the model"
        )
    if mu_im < 0:
        raise UnphysicalResultError(
            f"extracted mu_im = {mu_im:.6g} < 0 (negative magnetic loss); "
            "shift inconsistent with the model"
        )
    return ComplexPermeability(mu_re, mu_im)

