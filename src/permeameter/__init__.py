"""Permeability extraction for bar samples in planar resonant cavities.

Subpackages:
  cavity       : analytic TE10n cavity model (frequencies, fields, norms)
  perturbation : geometry factors, the shift model both ways, its domain, pairing
  touchstone   : the trace type and its Touchstone v1.0 reader and writer
  traceio      : resonance detection, Q extraction
  synth        : forward trace synthesis standing in for a field solver
  errors       : the error taxonomy, one exit-3 class for a trace with no usable resonance
  config       : the JSON config and materials files, read into a RunConfig and a roster
  cli          : command-line front end: the verbs, the extraction pipeline, the exit codes
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
    pair_resonances,
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
from .touchstone import FrequencyTrace, parse_touchstone, write_touchstone
from .traceio import Resonance, find_resonances, fit_lorentzian, q_3db

__version__ = "0.1.0"

__all__ = [
    "C_LIGHT",
    "CavitySpec",
    "ComplexPermeability",
    "FieldPoint",
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
    "wavenumbers",
    "write_touchstone",
]
