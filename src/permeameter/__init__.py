"""Permeability extraction for bar samples in planar resonant cavities.

Subpackages:
  cavity       : analytic TE10n cavity model (frequencies, fields, norms)
  perturbation : geometry factors and shift <-> permeability conversions
  traceio      : Touchstone I/O, resonance detection, Q extraction
  synth        : forward trace synthesis standing in for a field solver
  cli          : command-line front end
"""

from .cavity import (
    C_LIGHT,
    CavitySpec,
    FieldPoint,
    ModeSpec,
    effective_width,
    guided_wavelength,
    mode_field,
    resonant_frequency,
    stored_field_norm,
    wavenumbers,
)
from .perturbation import (
    ComplexPermeability,
    FractionalShift,
    GeometryFactor,
    InteractionChoice,
    SampleSpec,
    complex_shift_from_resonances,
    fractional_shift_closed,
    geometry_factor,
    geometry_factor_conventional,
    geometry_factor_derived,
    geometry_factor_printed,
    invert_permeability,
    sample_energy_midpoint,
    sample_energy_quadrature,
)
from .synth import (
    SynthConfig,
    campaign_traces,
    forward_load,
    lorentzian_trace,
    synth_campaign,
)
from .traceio import (
    FrequencyTrace,
    Resonance,
    find_resonances,
    fit_lorentzian,
    pair_resonances,
    parse_touchstone,
    q_3db,
    unload_q,
    write_touchstone,
)

__version__ = "0.1.0"

__all__ = [
    "C_LIGHT",
    "CavitySpec",
    "ComplexPermeability",
    "FieldPoint",
    "FractionalShift",
    "FrequencyTrace",
    "GeometryFactor",
    "InteractionChoice",
    "ModeSpec",
    "Resonance",
    "SampleSpec",
    "SynthConfig",
    "campaign_traces",
    "complex_shift_from_resonances",
    "effective_width",
    "find_resonances",
    "fit_lorentzian",
    "forward_load",
    "fractional_shift_closed",
    "geometry_factor",
    "geometry_factor_conventional",
    "geometry_factor_derived",
    "geometry_factor_printed",
    "guided_wavelength",
    "invert_permeability",
    "lorentzian_trace",
    "mode_field",
    "pair_resonances",
    "parse_touchstone",
    "q_3db",
    "resonant_frequency",
    "sample_energy_midpoint",
    "sample_energy_quadrature",
    "stored_field_norm",
    "synth_campaign",
    "unload_q",
    "wavenumbers",
    "write_touchstone",
]
