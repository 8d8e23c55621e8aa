"""The exact slab resonance (slab_oracle) against the package's mode and g.

A slab is a bar that spans the cavity's full width or full length, so
its resonance is known exactly and independently of the field model:
the first-order slope of the exact shift at mu = 1 must be the derived
geometry factor of the same slab, for each interaction.

Bounds, fixed from the error terms before the first run:

  * the empty k0 is the root of an equation evaluated in double precision
    and stopped at a Newton step of 4 ulp, and resonant_frequency rounds
    a few operations: 16 eps relative;
  * the slope is a central difference with step H in mu.  Its truncation
    is H^2 f'''/6; the shift's third derivative is at most that of the
    demagnetized normal component, g (1 - 1/mu)/2, whose relative
    H^2 f'''/(6 f') is H^2, so 10 H^2 covers it.  Its round-off is two
    shifts, each k0 good to 8 eps, over a difference g H: 16 eps/(g H),
    the larger term where g is small (H_x of a thin full-width slab at
    odd n, which sits at that component's null).

Measured: the empty k0 within 3.0e-16 (1.35 ulp) of resonant_frequency's
in all 24 cases; the slope within 1.1e-8 of g, relative, where g > 1e-3,
which is the H^2 truncation, and within 5.4e-8 at the smallest g (1.2e-5,
axial-hx on the 2 mm full-width slab at n = 1).  The worst of the 72
slopes uses 0.099 of its bound; every imaginary part is exactly 0.
"""

from __future__ import annotations

import math

import pytest
from slab_oracle import Slab

from permeameter import InteractionChoice, ModeSpec, SampleSpec, geometry_factor_derived, resonant_frequency
from permeameter.cavity import C_LIGHT

EPS = 2.0**-52
H = 1e-4  # central-difference step in mu

# (orientation, slab width in meters): full-width slabs are layers along z,
# full-length slabs layers along x
SLABS = [("x", 0.002), ("x", 0.004), ("z", 0.002), ("z", 0.010)]

# which diagonal component of mu the interaction's field component sees
COMPONENTS = {
    InteractionChoice.AXIAL_HX: lambda mu: (mu, 1.0),
    InteractionChoice.TRANSVERSE_HZ: lambda mu: (1.0, mu),
    InteractionChoice.BOTH: lambda mu: (mu, mu),
}


def slab_of(cavity, spans, width, n):
    return Slab(cavity.width_a, cavity.length_l, cavity.eps_r, n, width, spans)


def sample_of(cavity, spans, width):
    if spans == "x":
        return SampleSpec(extent_x_l1=cavity.width_a, extent_z_a1=width, thickness=cavity.height_h)
    return SampleSpec(extent_x_l1=width, extent_z_a1=cavity.length_l, thickness=cavity.height_h)


def model_k0(cavity, n):
    return 2 * math.pi * resonant_frequency(cavity, ModeSpec(n)) / C_LIGHT


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("spans, width", SLABS)
def test_empty_k0_is_resonant_frequency(worked_cavity, spans, width, n):
    expected = model_k0(worked_cavity, n)
    got = slab_of(worked_cavity, spans, width, n).k0(0.98 * expected)
    assert abs(got.imag) <= 16 * EPS * expected
    assert abs(got.real - expected) <= 16 * EPS * expected


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("spans, width", SLABS)
def test_first_order_slope_is_derived_g(worked_cavity, spans, width, n):
    slab = slab_of(worked_cavity, spans, width, n)
    k_empty = slab.k0(model_k0(worked_cavity, n))
    sample = sample_of(worked_cavity, spans, width)
    for choice, components in COMPONENTS.items():
        shift = {}
        for mu in (1 - H, 1 + H):
            k = slab.k0(k_empty, *components(mu))
            shift[mu] = (k - k_empty) / k
        slope = -2 * (shift[1 + H] - shift[1 - H]) / (2 * H)  # -2 d(shift)/dmu at mu = 1
        g = geometry_factor_derived(worked_cavity, sample, ModeSpec(n), choice).value
        assert abs(slope.imag) <= 16 * EPS / H, choice
        assert abs(slope.real - g) <= 10 * H**2 * g + 16 * EPS / H, (choice, slope.real, g)
