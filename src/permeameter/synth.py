"""Forward trace synthesis: known permeability -> loaded resonance -> S21 trace.

Stands in for a full-wave solver at desk scale: the perturbation model
maps a material to a resonance shift, and a single-resonance Lorentzian
with optional seeded noise renders the scattering trace.  Coupling
(insertion loss) is held constant between empty and loaded states.
Each loaded trace spans the empty trace's window in its own bandwidths,
centred on its own resonance, as an operator re-centres the analyzer.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .cavity import CavitySpec, ModeSpec
from .errors import ConfigurationError, ModelBreakdownError
from .perturbation import (
    ComplexPermeability,
    GeometryFactor,
    InteractionChoice,
    SampleSpec,
    fractional_shift_closed,
    geometry_factor,
)
# imported only as lookup sites that perfbench/spans.py WRAP_POINTS wraps
from .perturbation import geometry_factor_derived, sample_energy_quadrature  # noqa: F401
from .traceio import FrequencyTrace, Resonance, write_touchstone


@dataclass(frozen=True)
class SynthConfig:
    """Sweep window and trace options for synthesized S21 data."""

    f_start: float
    f_stop: float
    n_points: int = 4001
    noise_floor_db: float | None = None
    seed: int = 0
    il_linear: float = 0.3

    def __post_init__(self):
        if not 0 < self.f_start < self.f_stop:
            raise ConfigurationError("f_start must be > 0 and < f_stop")
        if self.n_points < 101:
            raise ConfigurationError("n_points must be >= 101")
        if self.noise_floor_db is not None and not self.noise_floor_db < -20:
            raise ConfigurationError("noise_floor_db must be < -20 dB")
        if not 0 < self.il_linear < 1:
            raise ConfigurationError("il_linear must be in (0, 1)")
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError("seed must fit in 64 bits")


def forward_load(
    cavity: CavitySpec,
    sample: SampleSpec,
    mode: ModeSpec,
    mu_r: ComplexPermeability,
    empty: Resonance,
    model: str = "quadrature",
    choice: InteractionChoice = InteractionChoice.TRANSVERSE_HZ,
    cells_per_axis: int = 64,
) -> Resonance:
    """Loaded resonance predicted for a sample of known permeability.

    f_loaded = f_empty / (1 - re); 1/Q_loaded = 1/Q_empty + 2 im, on
    unloaded Q.  Coupling is copied from the empty state.
    """
    g = geometry_factor(cavity, sample, mode, model, choice, cells_per_axis)
    return _loaded(mu_r, cavity.mu_rs, g, empty)


def _loaded(
    mu_r: ComplexPermeability, mu_rs: complex, g: GeometryFactor, empty: Resonance
) -> Resonance:
    """forward_load's resonance for a geometry factor already computed."""
    delta = fractional_shift_closed(mu_r, mu_rs, g)
    if delta.real >= 1:
        raise ModelBreakdownError(
            f"fractional shift re = {delta.real:.4g} >= 1; perturbation assumption violated"
        )
    f_loaded = empty.f0 / (1.0 - delta.real)
    inv_q = 1.0 / empty.q_unloaded + 2.0 * delta.imag
    if inv_q <= 0:
        raise ModelBreakdownError("predicted unloaded Q is not positive")
    q_unloaded = 1.0 / inv_q
    q_loaded = q_unloaded * (1.0 - empty.il_linear)
    return Resonance(f_loaded, q_loaded, q_unloaded, empty.il_linear, method="model")


#: Bandwidths of sweep that a synthesized resonance needs on either side.
MARGIN_BANDWIDTHS = 3.0


def lorentzian_trace(res: Resonance, cfg: SynthConfig) -> FrequencyTrace:
    """Single-resonance transmission trace on a uniform frequency grid.

    S21(f) = IL / (1 + 2j Q_L (f - f0)/f0), i.e. magnitude
    IL/sqrt(1 + 4 Q_L^2 u^2) with phase -atan(2 Q_L u).  Optional noise
    is complex Gaussian with RMS 10^(noise_floor_db/20), reproducible
    for a fixed seed.
    """
    # to 1 part in 10^9, so that rounding cannot fail a window built at
    # exactly MARGIN_BANDWIDTHS a side for a Q_L below ~10^6
    margin = MARGIN_BANDWIDTHS * (1.0 - 1e-9) * (res.f0 / res.q_loaded)
    if not (cfg.f_start + margin <= res.f0 <= cfg.f_stop - margin):
        raise ConfigurationError(
            f"resonance at {res.f0:.6g} Hz needs {MARGIN_BANDWIDTHS:g} bandwidths "
            f"({margin:.6g} Hz) of margin inside ({cfg.f_start:.6g}, {cfg.f_stop:.6g})"
        )
    f = np.linspace(cfg.f_start, cfg.f_stop, cfg.n_points)
    u = (f - res.f0) / res.f0
    s21 = res.il_linear / (1.0 + 2j * res.q_loaded * u)
    if cfg.noise_floor_db is not None:
        rng = np.random.default_rng(cfg.seed)
        sigma = 10.0 ** (cfg.noise_floor_db / 20.0) / np.sqrt(2.0)
        s21 = s21 + sigma * (
            rng.standard_normal(cfg.n_points) + 1j * rng.standard_normal(cfg.n_points)
        )
    return FrequencyTrace(f, s21)


def _item_seed(base_seed: int, label: str) -> int:
    """Stable per-item seed: campaign seed mixed with the material label."""
    return (base_seed ^ zlib.crc32(label.encode("utf-8"))) % 2**64


def campaign_traces(
    sample_table: list[tuple[str, ComplexPermeability]],
    empty: Resonance,
    cfg: SynthConfig,
    g: GeometryFactor,
    mu_rs: complex,
) -> dict[str, FrequencyTrace]:
    """One trace per material plus the empty-cavity trace, in memory.

    Each loaded resonance is the one forward_load predicts for geometry
    factor g and the cavity's mu_rs.  Returns {label: trace}; the empty
    trace is keyed "empty".  Labels may not collide with it or each other.
    The empty trace is rendered on cfg, and each loaded one on cfg's
    window re-centred on its own resonance in its own bandwidths bw =
    f0/Q_L, f -> f0 + (f - f0_empty) bw/bw_empty, as an operator
    re-centres the analyzer.  A window reaching 0 Hz names its material.
    """
    labels = [name for name, _ in sample_table]
    if len(set(labels)) != len(labels) or "empty" in labels:
        raise ConfigurationError("material labels must be unique and not 'empty'")

    traces = {"empty": lorentzian_trace(empty, replace(cfg, seed=_item_seed(cfg.seed, "empty")))}
    for name, mu_r in sample_table:
        res = _loaded(mu_r, mu_rs, g, empty)
        scale = (res.f0 / res.q_loaded) / (empty.f0 / empty.q_loaded)
        f_start = res.f0 + (cfg.f_start - empty.f0) * scale
        f_stop = res.f0 + (cfg.f_stop - empty.f0) * scale
        if not 0 < f_start:
            raise ConfigurationError(
                f"material {name!r}: its sweep, re-centred on {res.f0:.6g} Hz, "
                f"starts at {f_start:.6g} Hz; it must start above 0 Hz"
            )
        sweep = replace(cfg, f_start=f_start, f_stop=f_stop, seed=_item_seed(cfg.seed, name))
        traces[name] = lorentzian_trace(res, sweep)
    return traces


def synth_campaign(traces: dict[str, FrequencyTrace], out_dir: str | Path) -> dict[str, Path]:
    """Write each trace as campaign_<label>.s2p in RI format; returns {label: path}."""
    for label in traces:  # all before the first write, so a bad name leaves no files
        if "/" in label or "\0" in label:
            raise ConfigurationError(f"material name {label!r} cannot be part of a file name")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    for label, trace in traces.items():
        written[label] = out / f"campaign_{label}.s2p"
        written[label].write_bytes(write_touchstone(trace))
    return written
