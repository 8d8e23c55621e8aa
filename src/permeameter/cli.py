"""Command-line front end.

Verbs: modes, synth, extract, compare, quadcheck.  One JSON config file
(lengths in millimeters) describes the cavity, sample, mode, and method
options; see the README for the schema.  The config path comes from
--config or the PERMEAMETER_CONFIG environment variable.  The common
flags (--config, --seed, --json) work before or after the verb; a value
given after the verb overrides one given before it.  A --seed outside
[0, 2**64) is a config error that names the flag.

Config and materials values are type-checked: a number is a finite JSON
number (not a string, boolean or null, nor the NaN and Infinity that
Python's json reads), and the integer keys (mode.n, cells_per_axis,
n_points, seed) take JSON integers only.  A malformed value, a key the
schema does not list, or a key repeated in one JSON object is a config
error that names its key.  The choice keys (extraction.q_method,
interaction, model) take one of the strings CHOICES lists, and the
error reads "extraction.<key> must be one of [...]".  synth and compare
check the synth values that shape the traces (q0_empty > 0,
span_bandwidths >= 6, il_linear in (0, 1), a finite sweep above 0 Hz
whose edges differ) and name the keys too.

Exit codes: 0 success, 2 config/parse error, 3 no usable resonance (none
found, none pairable, or its Q could not be read), 4 unphysical
extraction result; EXIT_STATUS maps each error to its code.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .cavity import CavitySpec, ModeSpec, guided_wavelength, resonant_frequency
from .errors import (
    ConfigurationError,
    FitFailureError,
    InsufficientSpanError,
    NearCriticalCouplingWarning,
    NoPairableResonanceError,
    OverCoupledError,
    PermeameterError,
    UnphysicalResultError,
)
from .perturbation import (
    MODELS,
    ComplexPermeability,
    GeometryFactor,
    InteractionChoice,
    SampleSpec,
    check_cells_per_axis,
    complex_shift_from_resonances,
    geometry_factor,
    geometry_factor_conventional,
    invert_permeability,
)
# imported only as lookup sites that perfbench/spans.py WRAP_POINTS wraps
from .perturbation import geometry_factor_derived, sample_energy_quadrature  # noqa: F401
from .synth import MARGIN_BANDWIDTHS, SynthConfig, campaign_traces, synth_campaign
from .traceio import (
    FrequencyTrace,
    Resonance,
    find_resonances,
    fit_lorentzian,
    pair_resonances,
    parse_touchstone,
    q_3db,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_RESONANCE = 3
EXIT_UNPHYSICAL = 4

# the status main returns for an error: the first class it is an instance of, else EXIT_CONFIG
EXIT_STATUS = (
    (NoPairableResonanceError, EXIT_NO_RESONANCE),
    (FitFailureError, EXIT_NO_RESONANCE),
    (InsufficientSpanError, EXIT_NO_RESONANCE),
    (OverCoupledError, EXIT_NO_RESONANCE),
    (UnphysicalResultError, EXIT_UNPHYSICAL),
)

CONFIG_ENV = "PERMEAMETER_CONFIG"

MM = 1e-3

# the allowed values of each option that names a choice
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

    def __post_init__(self):  # for every model, not only where the quadrature runs
        check_cells_per_axis(self.cells_per_axis)


@dataclass(frozen=True)
class SynthOptions:
    q0_empty: float = 800.0  # unloaded empty-cavity Q; has to be supplied, no physics behind the default
    il_linear: float = 0.3
    n_points: int = 4001
    span_bandwidths: float = 40.0
    noise_floor_db: float | None = None
    seed: int = 0


@dataclass(frozen=True)
class RunConfig:
    cavity: CavitySpec
    sample: SampleSpec
    mode: ModeSpec
    extraction: ExtractionOptions = field(default_factory=ExtractionOptions)
    synth: SynthOptions = field(default_factory=SynthOptions)


def _read_json(path: str | Path, what: str):
    def unique(pairs: list[tuple]) -> dict:
        # json keeps the last of a repeated key; reject it like an unknown key
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigurationError(f"{what} repeats key {key!r}")
            obj[key] = value
        return obj

    try:
        return json.loads(Path(path).read_text(), object_pairs_hook=unique)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{what} is not valid JSON: {exc}") from None


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


_REQUIRED = object()


def _finite(value: int | float, name: str) -> float:
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"{name} must be a finite number")
    return number


def _number(section: dict, key: str, where: str, default=_REQUIRED, integer: bool = False):
    """section.pop(key) as a float, or as an int for an integer key.

    An absent key takes `default`; a key whose default is None may also be
    null.  An integer key takes JSON integers only, other keys any finite
    JSON number; a key ending in _mm is a length in millimeters, returned
    in meters.  Anything else raises a ConfigurationError naming the key.
    """
    value = section.pop(key, default)
    if value is _REQUIRED:
        raise ConfigurationError(f"missing {where}.{key}")
    if integer:
        if type(value) is int:
            return value
        raise ConfigurationError(f"{where}.{key} must be an integer")
    if value is None and default is None:
        return None
    # type(), not isinstance: JSON true and false are bools, an int subclass
    if type(value) not in (int, float):
        unit = " (millimeters)" if key.endswith("_mm") else ""
        raise ConfigurationError(f"{where}.{key} must be a number{unit}")
    number = _finite(value, f"{where}.{key}")
    return number * MM if key.endswith("_mm") else number


def _options(cls, section: dict, where: str):
    """`cls` read from `section`, each field defaulting to its value in
    `cls()`: a field named in CHOICES takes one of its choices, any other
    a number (an integer key if its default is an int)."""
    defaults, values = cls(), {}
    for f in fields(cls):
        default = getattr(defaults, f.name)
        if f.name not in CHOICES:
            values[f.name] = _number(section, f.name, where, default, isinstance(default, int))
            continue
        value = section.pop(f.name, default)
        if value not in CHOICES[f.name]:  # a tuple: a JSON list or object is unhashable
            raise ConfigurationError(f"{where}.{f.name} must be one of {list(CHOICES[f.name])}")
        values[f.name] = type(default)(value)  # so interaction stays an InteractionChoice
    _reject_unknown(section, where)
    return _built(cls, where, **values)


def _built(cls, where: str, *args, **keys):
    """cls(*args, **keys), each key without its _mm.  The library's range
    errors start with the field name; reword one to name <where>.<key>."""
    try:
        return cls(*args, **{key.removesuffix("_mm"): value for key, value in keys.items()})
    except PermeameterError as exc:
        name, _, rest = str(exc).partition(" ")
        key = next((key for key in keys if key.removesuffix("_mm") == name), None)
        if key is None:
            raise
        raise ConfigurationError(f"{where}.{key} {rest}") from None


def _as_complex(value) -> complex:
    parts = value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, 0.0)
    if any(type(part) not in (int, float) for part in parts):
        raise ConfigurationError("mu_rs must be a number or a [re, im] pair")
    return complex(*(_finite(part, "cavity.mu_rs") for part in parts))


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate the run-configuration JSON document."""
    doc = _read_json(path, "config")
    if not isinstance(doc, dict):
        raise ConfigurationError("config must be a JSON object")
    cav, smp, mod = (_section(doc, name) for name in ("cavity", "sample", "mode"))
    cavity = _built(
        CavitySpec, "cavity",
        width_a_mm=_number(cav, "width_a_mm", "cavity"),
        length_l_mm=_number(cav, "length_l_mm", "cavity"),
        height_h_mm=_number(cav, "height_h_mm", "cavity"),
        eps_r=_number(cav, "eps_r", "cavity", 1.0),
        mu_rs=_as_complex(cav.pop("mu_rs", 1.0)),
        via_diameter_d_mm=_number(cav, "via_diameter_d_mm", "cavity", None),
        via_pitch_p_mm=_number(cav, "via_pitch_p_mm", "cavity", None),
    )
    sample = _built(
        SampleSpec, "sample",
        extent_x_l1_mm=_number(smp, "extent_x_l1_mm", "sample"),
        extent_z_a1_mm=_number(smp, "extent_z_a1_mm", "sample"),
        thickness_mm=_number(smp, "thickness_mm", "sample"),
    )
    mode = _built(ModeSpec, "mode", n=_number(mod, "n", "mode", integer=True))
    extraction = _options(ExtractionOptions, _section(doc, "extraction", required=False), "extraction")
    synth = _options(SynthOptions, _section(doc, "synth", required=False), "synth")
    for section, where in ((cav, "cavity"), (smp, "sample"), (mod, "mode"), (doc, "config")):
        _reject_unknown(section, where)
    return RunConfig(cavity, sample, mode, extraction, synth)


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
        mu_re, loss = _number(entry, "mu_re", where), _number(entry, key, where, 0.0)
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


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------


def extract_trace_resonances(cfg: RunConfig, trace: FrequencyTrace) -> list[Resonance]:
    """Detected resonances of a trace with the configured Q method."""
    out = []
    for peak in find_resonances(trace):
        if cfg.extraction.q_method == "three-db":
            out.append(q_3db(trace, peak))
            continue
        try:
            out.append(fit_lorentzian(trace, peak))
        except FitFailureError as exc:
            if exc.fallback is None:
                raise
            out.append(exc.fallback)
    return out


def _resonance_dict(res: Resonance) -> dict:
    return {
        "f0_hz": res.f0,
        "q_loaded": res.q_loaded,
        "q_unloaded": res.q_unloaded,
        "il_linear": res.il_linear,
        "method": res.method,
    }


def extract_report(
    cfg: RunConfig, empty_trace: FrequencyTrace, loaded_trace: FrequencyTrace
) -> dict:
    """Permeability extraction report for one empty/loaded trace pair."""
    empties = extract_trace_resonances(cfg, empty_trace)
    loadeds = extract_trace_resonances(cfg, loaded_trace)
    return _pair_report(_factors(cfg), cfg.cavity.mu_rs, empties, loadeds)


def _factors(cfg: RunConfig) -> tuple[GeometryFactor, GeometryFactor]:
    """The run's two geometry factors: the configured model's g and the conventional one."""
    cavity, sample, mode, ext = cfg.cavity, cfg.sample, cfg.mode, cfg.extraction
    g = geometry_factor(cavity, sample, mode, ext.model, ext.interaction, ext.cells_per_axis)
    return g, geometry_factor_conventional(cavity, sample, mode)


def _pair_report(
    factors: tuple[GeometryFactor, GeometryFactor], mu_rs: complex,
    empties: list[Resonance], loadeds: list[Resonance],
) -> dict:
    """Pair the resonances and invert each pair with g and the conventional factor."""
    if not empties or not loadeds:
        raise NoPairableResonanceError(
            f"found {len(empties)} empty / {len(loadeds)} loaded resonances"
        )
    g, g_conv = factors
    pairs = []
    for empty_res, loaded_res in pair_resonances(empties, loadeds):
        shift = complex_shift_from_resonances(empty_res, loaded_res)
        mu_mod = invert_permeability(shift, g, mu_rs)
        try:
            mu_conv = invert_permeability(shift, g_conv, mu_rs)
        except PermeameterError:
            mu_conv = None
        entry = {
            "empty": _resonance_dict(empty_res),
            "loaded": _resonance_dict(loaded_res),
            "shift_re": shift.real,
            "shift_im": shift.imag,
            "g_value": g.value,
            "g_provenance": g.provenance,
            "mu_re": mu_mod.mu_re,
            "mu_im": mu_mod.mu_im,
            "tan_dm": mu_mod.tan_dm,
            "g_conventional": g_conv.value,
        }
        for part in ("mu_re", "mu_im", "tan_dm"):
            entry[f"{part}_conventional"] = None if mu_conv is None else getattr(mu_conv, part)
        pairs.append(entry)
    return {"pairs": pairs}


def _roster_traces(cfg: RunConfig, roster: list[dict], g: GeometryFactor) -> dict[str, FrequencyTrace]:
    """Empty-cavity and per-material traces of the roster, in memory.

    The empty sweep is centered on the modeled empty resonance and spans
    span_bandwidths of its loaded bandwidth, at least the 3-bandwidth
    margin on each side; campaign_traces re-centres it on each loaded
    resonance, in that resonance's bandwidths.
    """
    syn = cfg.synth
    for key, valid, bound in (
        ("q0_empty", syn.q0_empty > 0, "> 0"),
        ("il_linear", 0 < syn.il_linear < 1, "in (0, 1)"),
        ("span_bandwidths", syn.span_bandwidths >= 2 * MARGIN_BANDWIDTHS,
         f">= {2 * MARGIN_BANDWIDTHS:g} ({MARGIN_BANDWIDTHS:g} bandwidths of margin on each side)"),
    ):
        if not valid:
            raise ConfigurationError(f"synth.{key} must be {bound}")
    f0 = resonant_frequency(cfg.cavity, cfg.mode)
    q0 = syn.q0_empty
    empty = Resonance(f0, q0 * (1.0 - syn.il_linear), q0, syn.il_linear, method="model")
    span = syn.span_bandwidths * f0 / empty.q_loaded
    f_start, f_stop = f0 - span / 2.0, f0 + span / 2.0
    if not (math.isfinite(f_stop) and 0 < f_start < f_stop):
        raise ConfigurationError(
            f"synth.span_bandwidths = {syn.span_bandwidths:g} bandwidths at "
            f"synth.q0_empty = {q0:g} give a sweep of {span:g} Hz; it must be finite, "
            f"start above 0 Hz and be wide enough that its edges around {f0:g} Hz differ"
        )
    sweep = _built(
        SynthConfig, "synth", f_start, f_stop,
        n_points=syn.n_points, noise_floor_db=syn.noise_floor_db, seed=syn.seed,
    )
    table = [(m["name"], m["mu"]) for m in roster]
    return campaign_traces(table, empty, sweep, g, cfg.cavity.mu_rs)


def compare_rows(cfg: RunConfig, roster: list[dict]) -> list[dict]:
    """Synthesize the roster, extract each material in memory, tabulate both methods."""
    factors = _factors(cfg)
    traces = _roster_traces(cfg, roster, factors[0])
    empties = extract_trace_resonances(cfg, traces["empty"])
    rows = []
    for m in roster:
        loadeds = extract_trace_resonances(cfg, traces[m["name"]])
        pair = _pair_report(factors, cfg.cavity.mu_rs, empties, loadeds)["pairs"][0]
        values = (
            m["name"],
            m["mu"].mu_re,
            pair["mu_re_conventional"],
            pair["mu_re"],
            m["mu"].tan_dm,
            pair["tan_dm_conventional"],
            pair["tan_dm"],
            m["note"],
        )
        rows.append(dict(zip(COMPARE_COLUMNS, values, strict=True)))
    return rows


COMPARE_COLUMNS = [
    "material",
    "mu_re_actual",
    "mu_re_conventional",
    "mu_re_modified",
    "tan_dm_actual",
    "tan_dm_conventional",
    "tan_dm_modified",
    "note",
]


def compare_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COMPARE_COLUMNS)
    for row in rows:
        cells = []
        for col in COMPARE_COLUMNS:
            v = row[col]
            cells.append(f"{v:.10g}" if isinstance(v, float) else ("" if v is None else str(v)))
        writer.writerow(cells)
    return buf.getvalue()


def quadcheck_report(cfg: RunConfig) -> dict:
    """All geometry-factor routes side by side with relative deviations.

    The printed form covers even n only; for odd n it and its deviation
    are reported as None.
    """
    cavity, sample, mode = cfg.cavity, cfg.sample, cfg.mode

    def g(model: str, choice: InteractionChoice = InteractionChoice.TRANSVERSE_HZ) -> float:
        return geometry_factor(
            cavity, sample, mode, model, choice, cfg.extraction.cells_per_axis
        ).value

    g_printed = g("printed") if mode.is_even else None
    report: dict = {"g_printed": g_printed}
    for choice in InteractionChoice:
        tag = choice.value
        g_d = g("derived", choice)
        g_q = g("quadrature", choice)
        report[f"g_derived_{tag}"] = g_d
        report[f"g_quadrature_{tag}"] = g_q
        report[f"deviation_derived_vs_quadrature_{tag}"] = abs(g_q - g_d) / g_d if g_d else None
    g_ref = report["g_derived_transverse-hz"]
    report["deviation_printed_vs_derived_transverse-hz"] = (
        abs(g_printed - g_ref) / g_ref if g_ref and g_printed is not None else None
    )
    report["g_conventional"] = geometry_factor_conventional(cavity, sample, mode).value
    return report


# ---------------------------------------------------------------------------
# Commands: each returns the --json document and the human-readable text
# ---------------------------------------------------------------------------


def _text(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def cmd_modes(cfg: RunConfig, args: argparse.Namespace) -> tuple[dict, str]:
    if args.max_n < 0:
        raise ConfigurationError("--max-n must be >= 0")
    rows = []
    lines = [f"{'n':>3}  {'f (GHz)':>10}  {'lambda_g (mm)':>14}  even"]
    for n in range(1, args.max_n + 1):
        mode = ModeSpec(n)
        row = {
            "n": n,
            "f_hz": resonant_frequency(cfg.cavity, mode),
            "lambda_g_m": guided_wavelength(cfg.cavity, mode),
            "even": mode.is_even,
        }
        rows.append(row)
        lines.append(
            f"{n:>3}  {row['f_hz'] / 1e9:>10.6f}  "
            f"{row['lambda_g_m'] * 1e3:>14.4f}  {'*' if mode.is_even else ''}"
        )
    return {"modes": rows}, _text(lines)


def cmd_synth(cfg: RunConfig, args: argparse.Namespace) -> tuple[dict, str]:
    roster = load_materials(args.materials)
    traces = _roster_traces(cfg, roster, _factors(cfg)[0])
    try:
        files = synth_campaign(traces, args.out_dir)
    except OSError as exc:
        raise ConfigurationError(f"cannot write to {args.out_dir!r}: {exc}") from None
    document = {"files": {label: str(path) for label, path in files.items()}}
    return document, _text([f"{label}: {path}" for label, path in files.items()])


def _extract_text(report: dict) -> str:
    lines = []
    for i, pair in enumerate(report["pairs"], start=1):
        e, s = pair["empty"], pair["loaded"]
        lines += [
            f"pair {i}:",
            f"  empty : f0 = {e['f0_hz'] / 1e9:.6f} GHz  Q0 = {e['q_unloaded']:.1f}"
            f"  IL = {e['il_linear']:.4f}  ({e['method']})",
            f"  loaded: f0 = {s['f0_hz'] / 1e9:.6f} GHz  Q0 = {s['q_unloaded']:.1f}"
            f"  IL = {s['il_linear']:.4f}  ({s['method']})",
            f"  shift : re = {pair['shift_re']:+.6e}  im = {pair['shift_im']:+.6e}",
            f"  g     : {pair['g_value']:.6e}  ({pair['g_provenance']})",
            f"  modified    : mu' = {pair['mu_re']:.6f}  tan_dm = {pair['tan_dm']:.6f}",
        ]
        if pair["mu_re_conventional"] is None:
            lines.append("  conventional: (inversion failed)")
        else:
            lines.append(
                f"  conventional: mu' = {pair['mu_re_conventional']:.6f}"
                f"  tan_dm = {pair['tan_dm_conventional']:.6f}"
            )
    return _text(lines)


def cmd_extract(cfg: RunConfig, args: argparse.Namespace) -> tuple[dict, str]:
    empty_trace = parse_touchstone(Path(args.empty_s2p).read_bytes())
    loaded_trace = parse_touchstone(Path(args.loaded_s2p).read_bytes())
    report = extract_report(cfg, empty_trace, loaded_trace)
    return report, _extract_text(report)


def cmd_compare(cfg: RunConfig, args: argparse.Namespace) -> tuple[dict, str]:
    out_csv = Path(args.out_csv).resolve()
    for what, path in (("--materials", args.materials), ("the config file", args.config)):
        if out_csv == Path(path).resolve():
            raise ConfigurationError(f"--out-csv must differ from {what}")
    rows = compare_rows(cfg, load_materials(args.materials))
    text = compare_csv(rows)
    try:
        Path(args.out_csv).write_text(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {args.out_csv!r}: {exc}") from None
    return {"rows": rows, "csv_path": args.out_csv}, text


def cmd_quadcheck(cfg: RunConfig, args: argparse.Namespace) -> tuple[dict, str]:
    report = quadcheck_report(cfg)
    lines = ["geometry factors:"]
    for key in sorted(report):
        value = report[key]
        shown = "n/a" if value is None else f"{value:.9e}"
        lines.append(f"  {key:<48} {shown}")
    return report, _text(lines)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # cached: argparse and gettext set-up cost more than a parse, and
    # parse_args leaves the parser as it was.  The common flags go on the
    # top level and on every verb, so they work in either position;
    # nothing is set unless given, so a value given after the verb
    # overrides one given before it
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", "-c", help=f"run-config JSON path (or set ${CONFIG_ENV})")
    common.add_argument("--seed", type=int, help="override synth seed")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    parser = argparse.ArgumentParser(
        prog="permeameter",
        description="Complex-permeability extraction from resonator S-parameter traces.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("modes", parents=[common], help="list TE10n resonances")
    p.add_argument("--max-n", type=int, default=4)
    p.set_defaults(run=cmd_modes)

    p = sub.add_parser("synth", parents=[common], help="synthesize a Touchstone campaign")
    p.add_argument("--materials", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(run=cmd_synth)

    p = sub.add_parser("extract", parents=[common], help="extract permeability from two traces")
    p.add_argument("empty_s2p")
    p.add_argument("loaded_s2p")
    p.set_defaults(run=cmd_extract)

    p = sub.add_parser(
        "compare", parents=[common], help="synthesize, re-extract, and tabulate a roster"
    )
    p.add_argument("--materials", required=True)
    p.add_argument("--out-csv", required=True)
    p.set_defaults(run=cmd_compare)

    p = sub.add_parser("quadcheck", parents=[common], help="report geometry-factor route deviations")
    p.set_defaults(run=cmd_quadcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    shown = set()  # the NearCriticalCouplingWarning messages this call has printed
    show = warnings.showwarning

    def show_once(message, category, *where):
        if not issubclass(category, NearCriticalCouplingWarning):
            show(message, category, *where)
        elif str(message) not in shown:
            shown.add(str(message))
            print(f"warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.simplefilter("always", NearCriticalCouplingWarning)
        warnings.showwarning = show_once
        try:
            args.config = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
            if not args.config:
                raise ConfigurationError(f"no config given; use --config or set ${CONFIG_ENV}")
            cfg = load_config(args.config)
            seed = getattr(args, "seed", None)
            if seed is not None:
                if not 0 <= seed < 2**64:
                    raise ConfigurationError("--seed must fit in 64 bits")
                cfg = replace(cfg, synth=replace(cfg.synth, seed=seed))
            document, text = args.run(cfg, args)
            if getattr(args, "json", False):
                text = json.dumps(document, indent=2) + "\n"
            print(text, end="")
            return EXIT_OK
        except (PermeameterError, OSError) as exc:
            prefix = "resonance fit failed: " if isinstance(exc, FitFailureError) else ""
            print(f"error: {prefix}{exc}", file=sys.stderr)
            return next((status for cls, status in EXIT_STATUS if isinstance(exc, cls)), EXIT_CONFIG)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
