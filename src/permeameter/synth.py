"""Forward trace synthesis: known permeability -> loaded resonance -> S21 trace.

Stands in for a full-wave solver at desk scale: perturbation.loaded_resonance
maps a material to a loaded resonance, and a single-resonance Lorentzian
with optional seeded noise renders the scattering trace.  Coupling
(insertion loss) is held constant between empty and loaded states.
empty_sweep reads the config's synth section (SynthOptions) into the empty
resonance and its window; each loaded trace spans that window in its own
bandwidths, centred on its own resonance, as an operator re-centres the analyzer.
campaign_traces checks every material and renders the empty trace, then
returns a renderer per loaded trace: compare extracts, and synth_campaign
writes, one trace at a time.  A bad name or a model error leaves no files;
an OS error while writing, or a MemoryError while rendering a loaded trace
(the empty trace's size), can leave the files written before it.
"""

from __future__ import annotations

import math
import os
import zlib
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .cavity import CavitySpec, ModeSpec
from .errors import ConfigurationError, InvalidGeometryError
from .perturbation import (
    DEGENERATE_G,
    PAIRING_GUARD,
    ComplexPermeability,
    GeometryFactor,
    SampleSpec,
    geometry_factor,
    loaded_resonance,
)
# imported only as lookup sites that perfbench/spans.py WRAP_POINTS wraps
from .perturbation import geometry_factor_derived, sample_energy_quadrature  # noqa: F401
from .touchstone import FrequencyTrace, write_touchstone
from .traceio import Resonance

#: Most points a synthesized trace may have: ten times a 100 001-point analyzer sweep.
MAX_N_POINTS = 1_000_001
Campaign = list[tuple[str, Callable[[], FrequencyTrace]]]  # (label, render) pairs, "empty" first


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
        if not 0 < self.f_start < self.f_stop < math.inf:
            raise ConfigurationError("f_start must be > 0 and < f_stop, and f_stop finite")
        if self.n_points < 101:
            raise ConfigurationError("n_points must be >= 101")
        if self.n_points > MAX_N_POINTS:
            raise ConfigurationError(f"n_points must be <= {MAX_N_POINTS}")
        if self.noise_floor_db is not None and not self.noise_floor_db < -20:
            raise ConfigurationError("noise_floor_db must be < -20 dB")
        if not 0 < self.il_linear < 1:
            raise ConfigurationError("il_linear must be in (0, 1)")
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError("seed must fit in 64 bits")


@dataclass(frozen=True)
class SynthOptions:
    """The config's synth section: the empty resonance and the sweep around it."""

    q0_empty: float = 800.0  # unloaded empty-cavity Q; has to be supplied, no physics behind the default
    il_linear: float = 0.3
    n_points: int = 4001
    span_bandwidths: float = 40.0
    noise_floor_db: float | None = None
    seed: int = 0


def forward_load(
    cavity: CavitySpec, sample: SampleSpec, mode: ModeSpec, mu_r: ComplexPermeability, empty: Resonance
) -> Resonance:
    """perturbation.loaded_resonance for geometry_factor's default (quadrature, transverse-hz) g."""
    return loaded_resonance(mu_r, cavity.mu_rs, geometry_factor(cavity, sample, mode), empty)


#: Bandwidths of sweep that a synthesized resonance needs on either side.
MARGIN_BANDWIDTHS = 3.0


def empty_sweep(f0: float, opts: SynthOptions) -> tuple[Resonance, SynthConfig]:
    """The modelled empty resonance at f0 and the window centred on it; errors name opts' fields."""
    for key, valid, bound in (
        ("q0_empty", opts.q0_empty > 0, "> 0"),
        ("il_linear", 0 < opts.il_linear < 1, "in (0, 1)"),
        ("span_bandwidths", opts.span_bandwidths >= 2 * MARGIN_BANDWIDTHS,
         f">= {2 * MARGIN_BANDWIDTHS:g} ({MARGIN_BANDWIDTHS:g} bandwidths of margin on each side)"),
    ):
        if not valid:
            raise ConfigurationError(f"{key} must be {bound}")
    q0 = opts.q0_empty
    empty = Resonance.from_unloaded(f0, q0, opts.il_linear, "model")
    span = opts.span_bandwidths * f0 / empty.q_loaded
    f_start, f_stop = f0 - span / 2.0, f0 + span / 2.0
    if not (math.isfinite(f_stop) and 0 < f_start < f_stop):
        raise ConfigurationError(
            f"span_bandwidths = {opts.span_bandwidths:g} bandwidths at "
            f"q0_empty = {q0:g} give a sweep of {span:g} Hz; it must be finite, "
            f"start above 0 Hz and be wide enough that its edges around {f0:g} Hz differ"
        )
    return empty, SynthConfig(f_start, f_stop, opts.n_points, opts.noise_floor_db, opts.seed, opts.il_linear)


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
) -> Campaign:
    """One trace per material plus the empty-cavity trace, each rendered when called.

    Each loaded resonance is the one loaded_resonance predicts for g and
    the cavity's mu_rs.  Returns (label, render) pairs, "empty" first, then
    the table in order; labels may not collide with it or each other.
    The empty trace is rendered on cfg, and each loaded one on cfg's
    window re-centred on its own resonance in its own bandwidths bw =
    f0/Q_L, f -> f0 + (f - f0_empty) bw/bw_empty, as an operator
    re-centres the analyzer.  A resonance beyond PAIRING_GUARD of the empty
    f0, which extraction could not pair, a window reaching 0 Hz, or a
    loaded_resonance error other than a degenerate g names its material.
    The labels and every material are checked, and the empty trace
    rendered, before this returns, so a model error leaves no files; each
    loaded trace, the empty one's size, is rendered when its render is
    called, so a caller that drops each after use holds one at a time
    and only a MemoryError can stop it part way.
    """
    labels = [name for name, _ in sample_table]
    if len(set(labels)) != len(labels) or "empty" in labels:
        raise ConfigurationError("material labels must be unique and not 'empty'")

    empty_trace = lorentzian_trace(empty, replace(cfg, seed=_item_seed(cfg.seed, "empty")))
    campaign: Campaign = [("empty", lambda: empty_trace)]
    for name, mu_r in sample_table:
        try:
            res = loaded_resonance(mu_r, mu_rs, g, empty)
        except InvalidGeometryError as exc:
            if g.value <= DEGENERATE_G:  # the sample's fault, the same for every material
                raise
            raise type(exc)(f"material {name!r}: {exc}") from None
        if abs(res.f0 - empty.f0) > PAIRING_GUARD * empty.f0:
            raise ConfigurationError(
                f"material {name!r}: its resonance lies {abs(res.f0 - empty.f0) / empty.f0:.3g} "
                f"of the empty f0 away, beyond {PAIRING_GUARD:.0%}, the perturbation model's guard"
            )
        scale = (res.f0 / res.q_loaded) / (empty.f0 / empty.q_loaded)
        f_start = res.f0 + (cfg.f_start - empty.f0) * scale
        f_stop = res.f0 + (cfg.f_stop - empty.f0) * scale
        if not 0 < f_start:
            raise ConfigurationError(
                f"material {name!r}: its sweep, re-centred on {res.f0:.6g} Hz, "
                f"starts at {f_start:.6g} Hz; it must start above 0 Hz"
            )
        sweep = replace(cfg, f_start=f_start, f_stop=f_stop, seed=_item_seed(cfg.seed, name))
        campaign.append((name, partial(lorentzian_trace, res, sweep)))
    return campaign


def _fits_file_name(label: str) -> bool:
    """No / or NUL, and the file-system encoding (ASCII in the C locale) holds it."""
    try:
        os.fsencode(label)
    except UnicodeEncodeError:
        return False
    return "/" not in label and "\0" not in label


def synth_campaign(traces: Campaign, out_dir: str | Path) -> dict[str, Path]:
    """Render and write each trace, one at a time, as campaign_<label>.s2p (RI); returns {label: path}."""
    for label, _ in traces:  # all before the first write, so a bad name leaves no files
        if not _fits_file_name(label):
            raise ConfigurationError(f"material name {label!r} cannot be part of a file name")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    for label, render in traces:
        written[label] = out / f"campaign_{label}.s2p"
        written[label].write_bytes(write_touchstone(render()))
    return written
