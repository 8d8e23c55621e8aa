"""Complex frequency shift <-> complex permeability for a centered bar sample.

Two independent routes compute the dimensionless geometry factor g that
couples the sample to the TE10n mode:

  * closed forms: analytic integrals of the selected |H|^2 components
    over the centered box (sinc products), plus the published prefactor
    variant 4 a^2 (1 - sinc(k_z a1)) (4 pi a^2 + lambda_g^2)^-1
    (1 - sinc(k_x l1)) kept verbatim for quadcheck alone;
  * numerical quadrature: midpoint box integration of the same field
    energy with Richardson acceleration over grid doublings.

The two routes cross-check each other; extraction defaults to the
quadrature-backed value.  geometry_factor is the one place a model name
("quadrature" or "derived") selects a route.  Sign conventions (time
factor e^{+j w t}, mu_r = mu_re - j mu_im):

    shift = -(mu_r / (2 mu_rs) - 1/2) * g
    re(shift) = (f_loaded - f_empty) / f_loaded  (< 0 when mu_re > 1)
    im(shift) = (1/2) (1/Q_loaded - 1/Q_empty)   (> 0 when lossy)

so that invert_permeability is the exact algebraic inverse of
fractional_shift_closed, and loaded_resonance the forward map that
complex_shift_from_resonances reads back.  check_shift holds the domain
of both directions (a finite shift, |re| < 1, g above DEGENERATE_G).

Naming note: the bar extent along x is called l1 and the extent along z
is called a1.  The cross-axis naming is kept deliberately because the
closed forms are conventionally written with (1 - sinc(k_z a1)) and
(1 - sinc(k_x l1)); swapping the labels silently breaks that pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import inf, pi, sin
from typing import Callable

import numpy as np

from .cavity import CavitySpec, ModeSpec, guided_wavelength, stored_field_norm, wavenumbers
from .errors import ConfigurationError, InvalidGeometryError, NoUsableResonanceError, UnphysicalResultError
from .traceio import Resonance

#: g below this is treated as "no sample": check_shift rejects it.
DEGENERATE_G = 1e-12

#: Pairing guard band: a loaded resonance pairs within this fraction of the empty f0.
PAIRING_GUARD = 0.10

#: Relative tolerance of the convergence-by-doubling quadrature loop.
QUADRATURE_RTOL = 1e-6

#: Maximum number of grid doublings before giving up.
MAX_DOUBLINGS = 3

#: Finest starting grid: the ladder converges from 64 cells, so a larger
#: start gains nothing, and one large enough would exhaust memory.
MAX_CELLS_PER_AXIS = 2**16

#: Geometry-factor models that geometry_factor accepts by name.
MODELS = ("quadrature", "derived")


class InteractionChoice(str, Enum):
    """Which magnetic-field components the sample is taken to interact with.

    The component along z (``transverse-hz``) carries the
    (1 - sinc)(1 - sinc) structure of the published closed form and is
    the extraction default; the component maximal at the cavity center
    (``axial-hx``) gives the uniform-field small-sample limit.  Every
    function that takes a choice takes a member's value as the member;
    InteractionChoice(value) raises ConfigurationError for any other.
    """

    AXIAL_HX = "axial-hx"
    TRANSVERSE_HZ = "transverse-hz"
    BOTH = "both-components"

    @classmethod
    def _missing_(cls, value):
        raise ConfigurationError(f"interaction must be one of {[choice.value for choice in cls]}")


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
        if not 0 < self.mu_re < inf:  # NaN fails both comparisons
            raise InvalidGeometryError("mu_re must be finite and > 0")
        if not 0 <= self.mu_im < inf:
            raise InvalidGeometryError("mu_im must be finite and >= 0")

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
class GeometryFactor:
    """Dimensionless coupling factor with its computation provenance."""

    value: float
    provenance: str

    def __post_init__(self):
        if not 0 <= self.value < inf:  # NaN fails both comparisons
            raise InvalidGeometryError("geometry factor must be finite and >= 0")


def _sinc(u: float) -> float:
    """Unnormalized cardinal sine sin(u)/u with sinc(0) = 1."""
    return sin(u) / u if u != 0.0 else 1.0


def check_sample(cavity: CavitySpec, sample: SampleSpec) -> None:
    """Reject a bar that does not fit the cavity; the message names fields only."""
    if sample.extent_x_l1 > cavity.a_eff:
        vias = "" if cavity.via_diameter_d is None else " less via_diameter_d^2 / (0.95 via_pitch_p)"
        raise InvalidGeometryError(f"extent_x_l1 exceeds width_a{vias}")
    if sample.extent_z_a1 > cavity.length_l:
        raise InvalidGeometryError("extent_z_a1 exceeds length_l")
    if sample.thickness > cavity.height_h:
        raise InvalidGeometryError("thickness exceeds height_h")


def geometry_factor_printed(
    cavity: CavitySpec, sample: SampleSpec, mode: ModeSpec
) -> GeometryFactor:
    """Published closed-form factor, kept verbatim.

    4 a^2 (1 - sinc(k_z a1)) (4 pi a^2 + lambda_g^2)^-1 (1 - sinc(k_x l1))

    Whether the 4 pi a^2 term should read 4 pi^2 a^2 is an open question;
    cli quadcheck reports this form as a diagnostic; it is no model of
    geometry_factor, so extraction and synthesis never use it.
    """
    if not mode.is_even:
        raise InvalidGeometryError(
            f"printed geometry factor is defined for even mode indices only (got n={mode.n})"
        )
    check_sample(cavity, sample)
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


def _selected_energy(
    choice: InteractionChoice, k_x: float, k_z: float,
    along_x: Callable[[np.ufunc], float], along_z: Callable[[np.ufunc], float],
) -> float:
    """The |H|^2 terms that choice selects.  along_x(trig) and along_z(trig)
    give the 1-D integral or sum of trig^2 (np.sin or np.cos) across the
    bar; only the ones a selected term reads are asked for."""
    choice = InteractionChoice(choice)
    total = 0.0
    if choice != InteractionChoice.TRANSVERSE_HZ:  # axial-hx or both-components
        total += k_z**2 * along_x(np.sin) * along_z(np.cos)
    if choice != InteractionChoice.AXIAL_HX:  # transverse-hz or both-components
        total += k_x**2 * along_x(np.cos) * along_z(np.sin)
    return total


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
    check_sample(cavity, sample)
    k_x, k_z = wavenumbers(cavity, mode)
    l1, a1, t = sample.extent_x_l1, sample.extent_z_a1, sample.thickness
    sinc_x = _sinc(k_x * l1)
    sinc_z = (1.0 if mode.is_even else -1.0) * _sinc(k_z * a1)
    ix_sin = (l1 / 2.0) * (1.0 + sinc_x)  # int sin^2(k_x x) dx over the bar
    ix_cos = (l1 / 2.0) * (1.0 - sinc_x)
    iz_cos = (a1 / 2.0) * (1.0 + sinc_z)  # int cos^2(k_z z) dz over the bar
    iz_sin = (a1 / 2.0) * (1.0 - sinc_z)
    numerator = _selected_energy(
        choice, k_x, k_z, {np.sin: ix_sin, np.cos: ix_cos}.get, {np.sin: iz_sin, np.cos: iz_cos}.get
    )
    value = numerator * t / stored_field_norm(cavity, mode)
    return GeometryFactor(value, f"derived-{InteractionChoice(choice).value.split('-')[0]}")


def geometry_factor_conventional(
    cavity: CavitySpec, sample: SampleSpec, mode: ModeSpec
) -> GeometryFactor:
    """Uniform-maximum-field small-sample factor.

    Classical baseline: the sample is assumed to sit in the field
    maximum, |H|^2 = k_z^2 uniformly, giving
    4 k_z^2 V_s / (V_c (k_x^2 + k_z^2)).  Coincides with the vanishing-
    extent limit of the axial-hx derived factor.
    """
    check_sample(cavity, sample)
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
    m x m grid of midpoints equals (sum_x X)(sum_z Z): two m-point sums
    per selected component replace the m^2-point grid, and only the sums
    the chosen components need are computed.  The integrand is uniform
    along y, so the y sum collapses to a factor of the sample thickness.
    Summation order is fixed by the grid, so the result is deterministic
    for a given cells_per_axis.
    """
    a, l = cavity.a_eff, cavity.length_l
    l1, a1 = sample.extent_x_l1, sample.extent_z_a1
    m = cells_per_axis
    dx = l1 / m
    dz = a1 / m
    mid = np.arange(m) + 0.5  # midpoint index, shared by both axes
    k_x, k_z = wavenumbers(cavity, mode)
    arg_x = k_x * ((a - l1) / 2.0 + mid * dx)
    arg_z = k_z * ((l - a1) / 2.0 + mid * dz)
    total = _selected_energy(
        choice, k_x, k_z,
        lambda trig: float((trig(arg_x) ** 2).sum()),
        lambda trig: float((trig(arg_z) ** 2).sum()),
    )
    return total * dx * dz * sample.thickness


def check_cells_per_axis(cells_per_axis: int) -> None:
    """Reject a grid too coarse or too fine for sample_energy_quadrature to start from."""
    if cells_per_axis < 8:
        raise InvalidGeometryError("cells_per_axis must be >= 8")
    if cells_per_axis > MAX_CELLS_PER_AXIS:
        raise InvalidGeometryError(f"cells_per_axis must be <= {MAX_CELLS_PER_AXIS}")


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
    raises InvalidGeometryError after MAX_DOUBLINGS doublings without that.
    """
    check_cells_per_axis(cells_per_axis)
    check_sample(cavity, sample)
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
    raise InvalidGeometryError(
        f"box integral did not converge within {MAX_DOUBLINGS} grid doublings "
        f"(last relative delta {delta:.3e})"
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
    components.  The published prefactor is no model (see quadcheck).
    """
    if model == "quadrature":
        integral = sample_energy_quadrature(cavity, sample, mode, choice, cells_per_axis)
        value = integral / stored_field_norm(cavity, mode)
        return GeometryFactor(value, f"quadrature-{InteractionChoice(choice).value}")
    if model == "derived":
        return geometry_factor_derived(cavity, sample, mode, choice)
    raise ConfigurationError(f"unknown geometry-factor model {model!r}; expected one of {MODELS}")


def fractional_shift_closed(
    mu_r: ComplexPermeability, mu_rs: complex, g: GeometryFactor
) -> complex:
    """Closed-form fractional shift -(mu_r/(2 mu_rs) - 1/2) * g, unchecked."""
    return -(mu_r.as_complex / (2.0 * complex(mu_rs)) - 0.5) * g.value


def check_shift(shift: complex, g: GeometryFactor) -> None:
    """Reject a shift outside the first-order model, or a degenerate g."""
    if not np.isfinite(shift):
        raise InvalidGeometryError("shift components must be finite")
    if not abs(shift.real) < 1:
        raise InvalidGeometryError("|re| of a fractional shift must be < 1")
    if g.value <= DEGENERATE_G:
        raise InvalidGeometryError(
            f"geometry factor {g.value:.3e} is degenerate (<= {DEGENERATE_G:.0e}); "
            "sample volume is effectively zero"
        )


def loaded_resonance(
    mu_r: ComplexPermeability, mu_rs: complex, g: GeometryFactor, empty: Resonance
) -> Resonance:
    """Loaded resonance for a sample of known permeability, coupling copied from empty.

    f_loaded = f_empty / (1 - re), 1/Q_loaded = 1/Q_empty + 2 im on unloaded Q.
    """
    delta = fractional_shift_closed(mu_r, mu_rs, g)
    check_shift(delta, g)
    f_loaded = empty.f0 / (1.0 - delta.real)
    inv_q = 1.0 / empty.q_unloaded + 2.0 * delta.imag
    if inv_q <= 0:
        raise InvalidGeometryError("predicted unloaded Q is not positive")
    return Resonance.from_unloaded(f_loaded, 1.0 / inv_q, empty.il_linear, "model")


def pair_resonances(
    empty: list[Resonance], loaded: list[Resonance]
) -> list[tuple[Resonance, Resonance]]:
    """Nearest-frequency pairing of empty/loaded resonances.

    Each empty resonance, in frequency order, takes the closest unused
    loaded one if it lies within +-PAIRING_GUARD (10 %) of the empty
    frequency; every resonance is used at most once.
    Raises NoUsableResonanceError when nothing pairs, with each side's
    count if one is empty, else with how far the nearest loaded one lies.
    """
    if not empty or not loaded:
        raise NoUsableResonanceError(f"found {len(empty)} empty / {len(loaded)} loaded resonances")
    pairs: list[tuple[Resonance, Resonance]] = []
    remaining = list(loaded)
    for e in sorted(empty, key=lambda r: r.f0):
        if not remaining:
            break
        best = min(remaining, key=lambda r: abs(r.f0 - e.f0))
        if abs(best.f0 - e.f0) <= PAIRING_GUARD * e.f0:
            pairs.append((e, best))
            remaining.remove(best)
    if not pairs:
        nearest = min(abs(r.f0 - e.f0) / e.f0 for e in empty for r in loaded)
        raise NoUsableResonanceError(
            f"no loaded resonance within {PAIRING_GUARD:.0%} of an empty one, "
            f"the perturbation model's guard; the nearest lies {nearest:.3g} of its f0 away"
        )
    return pairs


def complex_shift_from_resonances(empty: Resonance, loaded: Resonance) -> complex:
    """Measured fractional shift between an empty and a loaded resonance.

    re = (f_loaded - f_empty) / f_loaded
    im = (1/2) (1/Q_loaded - 1/Q_empty), unloaded Q on both sides.
    Pairing the two is the caller's: see pair_resonances.
    """
    re = (loaded.f0 - empty.f0) / loaded.f0
    im = 0.5 * (1.0 / loaded.q_unloaded - 1.0 / empty.q_unloaded)
    # numpy complex when the fit gives numpy floats; complex(re, im) would make
    # invert_permeability use Python's complex arithmetic, which rounds 1 ulp apart
    return re + 1j * im


def invert_permeability(
    shift: complex, g: GeometryFactor, mu_rs: complex
) -> ComplexPermeability:
    """Exact algebraic inverse of fractional_shift_closed.

    mu_r = mu_rs (1 - 2 shift / g); raises where check_shift does or mu_r is unphysical.
    """
    check_shift(shift, g)
    mu_c = complex(mu_rs) * (1.0 - 2.0 * shift / g.value)
    # 0.0 - imag, not -imag: a zero loss reads +0.0, and every other value is the same
    mu_re, mu_im = mu_c.real, 0.0 - mu_c.imag
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

