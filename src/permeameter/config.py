"""The run-configuration file format: a JSON config read into a RunConfig,
and a JSON materials roster read into its permeabilities.

Config and materials files are read as UTF-8 JSON.  One reader reads
each config section into its type, a key per field, and the values are
type-checked: a number is a finite JSON number (not a string, boolean or
null, nor the NaN and Infinity that Python's json reads), and the integer
keys (mode.n, cells_per_axis, n_points, seed) take JSON integers only,
within the float range too.  cells_per_axis lies in [8, 2**16]
(perturbation.check_cells_per_axis), so that a start finer than the
quadrature needs is refused before it is allocated.  A malformed value,
a key the schema does not
list, or a key repeated in one JSON object is a config error that names
its key.  The choice keys (extraction.q_method, interaction, model) take
one of the strings CHOICES lists, which ExtractionOptions checks; the
error reads "extraction.<key> must be one of [...]".  A cavity and mode
whose TE10n frequency or field norm leaves the float range are a config
error too, and so is a modes --max-n whose frequency does.  A value
that a library type rejects, and a sample that does not fit the cavity,
name each key the message involves ("sample.thickness_mm exceeds
cavity.height_h_mm"), and so do the errors of synth.empty_sweep, which
load_config runs (RunConfig.sweep), so that every verb checks the synth
section at load.  A JSON string that is not Unicode text (a
lone surrogate escape such as "\\ud800"), an integer of more digits than
Python converts, and arrays or objects nested past the recursion limit
are config errors too.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .cavity import CavitySpec, ModeSpec, resonant_frequency, stored_field_norm
from .errors import ConfigurationError, PermeameterError
from .perturbation import (
    MODELS,
    ComplexPermeability,
    GeometryFactor,
    InteractionChoice,
    SampleSpec,
    check_cells_per_axis,
    check_sample,
    geometry_factor,
    geometry_factor_conventional,
)
from .synth import SynthConfig, SynthOptions, empty_sweep
from .traceio import Resonance

MM = 1e-3

# the fields of CavitySpec and SampleSpec that the config gives as <field>_mm
LENGTHS = {"width_a", "length_l", "height_h", "via_diameter_d", "via_pitch_p",
           "extent_x_l1", "extent_z_a1", "thickness"}

# the allowed values of each ExtractionOptions field that names a choice
CHOICES = {
    "q_method": ("lorentzian-fit", "three-db"),
    "interaction": tuple(choice.value for choice in InteractionChoice),
    "model": MODELS,
}


@dataclass(frozen=True)
class ExtractionOptions:
    q_method: str = "lorentzian-fit"
    interaction: InteractionChoice = InteractionChoice.TRANSVERSE_HZ
    model: str = "quadrature"
    cells_per_axis: int = 64

    def __post_init__(self):
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:  # a tuple: a JSON list or object is unhashable
                raise ConfigurationError(f"{name} must be one of {list(allowed)}")
        object.__setattr__(self, "interaction", InteractionChoice(self.interaction))
        check_cells_per_axis(self.cells_per_axis)  # for every model, not only where the quadrature runs


@dataclass(frozen=True)
class RunConfig:
    cavity: CavitySpec
    sample: SampleSpec
    mode: ModeSpec
    extraction: ExtractionOptions = field(default_factory=ExtractionOptions)
    synth: SynthOptions = field(default_factory=SynthOptions)

    @functools.cached_property
    def factors(self) -> tuple[GeometryFactor, GeometryFactor]:
        """The run's two geometry factors, the configured model's g and the
        conventional one: computed on first use and kept on this object (a
        replace() makes a new one, and an error is raised again, not kept)."""
        cavity, sample, mode, ext = self.cavity, self.sample, self.mode, self.extraction
        g = geometry_factor(cavity, sample, mode, ext.model, ext.interaction, ext.cells_per_axis)
        return g, geometry_factor_conventional(cavity, sample, mode)

    @functools.cached_property
    def sweep(self) -> tuple[Resonance, SynthConfig]:
        """synth.empty_sweep at the mode's TE10n frequency, the empty resonance and
        the window centred on it: kept like factors, its errors named by synth key."""
        try:
            return empty_sweep(resonant_frequency(self.cavity, self.mode), self.synth)
        except PermeameterError as exc:
            raise renamed(exc, ("synth", SynthOptions)) from None


def _read_json(path: str | Path, what: str):
    def unique(pairs: list[tuple]) -> dict:
        # json keeps the last of a repeated key; reject it like an unknown key
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigurationError(f"{what} repeats key {key!r}")
            obj[key] = value
        return obj

    def integer(digits: str) -> int:
        try:
            return int(digits)
        except ValueError:  # int() converts at most sys.get_int_max_str_digits() digits
            raise ConfigurationError(f"{what} {str(path)!r} holds an integer of too many digits") from None

    try:  # JSON text is UTF-8 (RFC 8259), whatever the locale's encoding
        text = Path(path).read_bytes().decode("utf-8")
        doc = json.loads(text, object_pairs_hook=unique, parse_int=integer)
        if "\\u" in text:  # only an escape gives a lone surrogate, which UTF-8 cannot encode
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        return doc
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{what} {str(path)!r} is not UTF-8 text: {exc}") from None
    except UnicodeEncodeError:
        raise ConfigurationError(
            f"{what} {str(path)!r} is not Unicode text: a string escapes a lone surrogate"
        ) from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:  # arrays or objects nested deeper than the interpreter's recursion limit
        raise ConfigurationError(f"{what} {str(path)!r} nests arrays or objects too deeply") from None


def _section(doc: dict, name: str, required: bool = True) -> dict:
    if required and name not in doc:
        raise ConfigurationError(f"missing config section {name!r}")
    section = doc.pop(name, {})
    if not isinstance(section, dict):
        raise ConfigurationError(f"config section {name!r} must be an object")
    return section


def _reject_unknown(section: dict, where: str) -> None:
    """Reject the keys left in `section`: each reader pops the key it reads."""
    if section:
        raise ConfigurationError("unknown key " + ", ".join(f"{where}.{key}" for key in section))


def _finite(value, name: str, hint: str = "", integer: bool = False) -> float | int:
    """A finite JSON number as a float (as the int itself if `integer`), else a ConfigurationError."""
    # type(), not isinstance: JSON true and false are bools, an int subclass
    if integer and type(value) is not int:
        raise ConfigurationError(f"{name} must be an integer")
    if type(value) not in (int, float):
        raise ConfigurationError(f"{name} must be a number{hint}")
    if not abs(value) <= sys.float_info.max:  # NaN, the infinities, integers beyond the float range
        raise ConfigurationError(f"{name} must be a finite number")
    return value if integer else float(value)


def _key(name: str) -> str:
    """The config key of a field: <field>_mm for a length."""
    return f"{name}_mm" if name in LENGTHS else name


def _options(cls, section: dict, where: str):
    """`cls` read from `section`, a key per field (see _key): an absent key
    takes the field's default (without one, an error), a string-default
    field any value for cls to check, a None-default field also null, a
    complex field a number or a [re, im] pair, an int field a JSON integer
    and any other a number, in millimeters for a LENGTHS field.  An error
    of cls names the keys."""
    values = {}
    for f in fields(cls):
        key = _key(f.name)
        name = f"{where}.{key}"
        if key not in section:
            if f.default is MISSING:
                raise ConfigurationError(f"missing {name}")
            values[f.name] = f.default
            continue
        value = section.pop(key)
        if isinstance(f.default, str) or (value is None and f.default is None):
            values[f.name] = value
        elif f.type == "complex":
            parts = value if isinstance(value, list) and len(value) == 2 else (value, 0.0)
            values[f.name] = complex(*(_finite(part, name, " or a [re, im] pair") for part in parts))
        elif f.name in LENGTHS:
            values[f.name] = _finite(value, name, " (millimeters)") * MM
        else:
            values[f.name] = _finite(value, name, integer=f.type == "int")
    _reject_unknown(section, where)
    try:
        return cls(**values)
    except PermeameterError as exc:
        raise renamed(exc, (where, cls)) from None


def renamed(exc: PermeameterError, *sections: tuple[str, type]) -> ConfigurationError:
    """`exc` as a ConfigurationError that calls each field of a (where,
    cls) section by its config key, <where>.<key>."""
    names = {f.name: f"{where}.{_key(f.name)}" for where, cls in sections for f in fields(cls)}
    return ConfigurationError(re.sub(r"\w+", lambda word: names.get(word[0], word[0]), str(exc)))


def in_float_range(what: str, cavity: CavitySpec, mode: ModeSpec, *formulas) -> None:
    """ConfigurationError "<what> outside the float range" unless each
    formula(cavity, mode) is a finite positive float."""
    try:  # Python's float power raises where a product would reach inf
        scales = [formula(cavity, mode) for formula in formulas]
    except OverflowError:
        scales = [math.inf]
    if not all(0 < scale < math.inf for scale in scales):
        raise ConfigurationError(f"{what} outside the float range")


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate the run-configuration JSON document."""
    doc = _read_json(path, "config")
    if not isinstance(doc, dict):
        raise ConfigurationError("config must be a JSON object")
    specs = (("cavity", CavitySpec), ("sample", SampleSpec), ("mode", ModeSpec))
    sections = [(where, cls, _section(doc, where)) for where, cls in specs]  # a missing one first
    cavity, sample, mode = (_options(cls, section, where) for where, cls, section in sections)
    in_float_range("cavity and mode give a TE10n frequency or field norm",
                    cavity, mode, resonant_frequency, stored_field_norm)
    try:
        check_sample(cavity, sample)
    except PermeameterError as exc:
        raise renamed(exc, *specs[:2]) from None
    extraction = _options(ExtractionOptions, _section(doc, "extraction", required=False), "extraction")
    synth = _options(SynthOptions, _section(doc, "synth", required=False), "synth")
    _reject_unknown(doc, "config")
    cfg = RunConfig(cavity, sample, mode, extraction, synth)
    cfg.sweep  # the synth section is checked at load, like every other
    return cfg


def load_materials(path: str | Path) -> list[dict]:
    """Materials roster: JSON array of {name, mu_re, tan_dm|mu_im, note?}."""
    doc = _read_json(path, "materials file")
    if not isinstance(doc, list):
        raise ConfigurationError("materials file must be a JSON array")
    roster = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict) or "name" not in entry or "mu_re" not in entry:
            raise ConfigurationError(f"materials[{i}] needs 'name' and 'mu_re'")
        where = f"materials[{i}]"
        if "mu_im" in entry and "tan_dm" in entry:
            raise ConfigurationError(f"{where} gives both tan_dm and mu_im")
        name, note = entry.pop("name"), entry.pop("note", "")
        for key, value in (("name", name), ("note", note)):
            if not isinstance(value, str):
                raise ConfigurationError(f"{where}.{key} must be a string")
        key = "mu_im" if "mu_im" in entry else "tan_dm"
        mu_re = _finite(entry.pop("mu_re"), f"{where}.mu_re")
        loss = _finite(entry.pop(key, 0.0), f"{where}.{key}")
        if not mu_re > 0:
            raise ConfigurationError(f"{where}.mu_re must be > 0")
        if loss < 0:
            raise ConfigurationError(f"{where}.{key} must be >= 0")
        mu_im = loss if key == "mu_im" else mu_re * loss
        if not math.isfinite(mu_im):
            raise ConfigurationError(f"{where}.{key} gives mu_im = {mu_im}; it must be finite")
        mu = ComplexPermeability(mu_re, mu_im)
        _reject_unknown(entry, where)
        roster.append({"name": name, "mu": mu, "note": note})
    return roster
