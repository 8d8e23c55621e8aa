"""Command-line front end.

Verbs: modes, synth, extract, compare, quadcheck.  One JSON config file
(lengths in millimeters) describes the cavity, sample, mode, and method
options; see the README for the schema.  The config path comes from
--config or the PERMEAMETER_CONFIG environment variable.  The common
flags (--config, --seed, --json) work before or after the verb; a value
given after the verb overrides one given before it.

Config and materials values are type-checked: a number is a finite JSON
number (not a string, boolean or null, nor the NaN and Infinity that
Python's json reads), and the integer keys (mode.n, cells_per_axis,
n_points, seed) take JSON integers only.  A malformed value, or a key
the schema does not list, is a config error that names its key.

Exit codes: 0 success, 2 config/parse error, 3 no pairable resonance,
4 unphysical extraction result.
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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .cavity import CavitySpec, ModeSpec, guided_wavelength, resonant_frequency
from .errors import (
    ConfigurationError,
    FitFailureError,
    NoPairableResonanceError,
    PermeameterError,
    UnphysicalResultError,
)
from .perturbation import (
    MODELS,
    ComplexPermeability,
    GeometryFactor,
    InteractionChoice,
    SampleSpec,
    complex_shift_from_resonances,
    geometry_factor,
    geometry_factor_conventional,
    invert_permeability,
)
# imported only as lookup sites that perfbench/spans.py WRAP_POINTS wraps
from .perturbation import geometry_factor_derived, sample_energy_quadrature  # noqa: F401
from .synth import SynthConfig, campaign_traces, synth_campaign
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

CONFIG_ENV = "PERMEAMETER_CONFIG"

MM = 1e-3


@dataclass(frozen=True)
class ExtractionOptions:
    q_method: str = "lorentzian-fit"
    interaction: InteractionChoice = InteractionChoice.TRANSVERSE_HZ
    model: str = "quadrature"
    cells_per_axis: int = 64


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
    try:
        return json.loads(Path(path).read_text())
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


def _options(cls, section: dict, where: str, **given):
    """`cls` with the fields in `given`, and every other field read as a
    number from `section`, defaulting to the value in `cls()`; a field
    whose default is an int is an integer key."""
    defaults = cls()
    for f in fields(cls):
        if f.name not in given:
            default = getattr(defaults, f.name)
            given[f.name] = _number(section, f.name, where, default, isinstance(default, int))
    _reject_unknown(section, where)
    return cls(**given)


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
    cavity = CavitySpec(
        width_a=_number(cav, "width_a_mm", "cavity"),
        length_l=_number(cav, "length_l_mm", "cavity"),
        height_h=_number(cav, "height_h_mm", "cavity"),
        eps_r=_number(cav, "eps_r", "cavity", 1.0),
        mu_rs=_as_complex(cav.pop("mu_rs", 1.0)),
        via_diameter_d=_number(cav, "via_diameter_d_mm", "cavity", None),
        via_pitch_p=_number(cav, "via_pitch_p_mm", "cavity", None),
    )
    sample = SampleSpec(
        extent_x_l1=_number(smp, "extent_x_l1_mm", "sample"),
        extent_z_a1=_number(smp, "extent_z_a1_mm", "sample"),
        thickness=_number(smp, "thickness_mm", "sample"),
    )
    mode = ModeSpec(n=_number(mod, "n", "mode", integer=True))
    ext = _section(doc, "extraction", required=False)
    defaults = ExtractionOptions()
    try:
        interaction = InteractionChoice(ext.pop("interaction", defaults.interaction))
    except ValueError:
        raise ConfigurationError(
            f"extraction.interaction must be one of {[c.value for c in InteractionChoice]}"
        ) from None
    q_method = ext.pop("q_method", defaults.q_method)
    if q_method not in ("lorentzian-fit", "three-db"):
        raise ConfigurationError("extraction.q_method must be 'lorentzian-fit' or 'three-db'")
    model = ext.pop("model", defaults.model)
    if model not in MODELS:
        raise ConfigurationError(f"extraction.model must be one of {list(MODELS)}")
    extraction = _options(
        ExtractionOptions, ext, "extraction", q_method=q_method, interaction=interaction, model=model
    )
    synth = _options(SynthOptions, _section(doc, "synth", required=False), "synth")
    for section, where in ((cav, "cavity"), (smp, "sample"), (mod, "mode"), (doc, "config")):
        _reject_unknown(section, where)
    return RunConfig(cavity, sample, mode, extraction, synth)


def load_materials(path: str | Path) -> list[dict]:
    """Materials roster: JSON array of {name, mu_re, tan_dm|mu_im, note?}."""
    doc = _read_json(path, "materials file")
    if isinstance(doc, dict):
        doc = doc.get("materials")
    if not isinstance(doc, list):
        raise ConfigurationError("materials file must be a JSON array (or {'materials': [...]})")
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
        mu_re = _number(entry, "mu_re", where)
        if "mu_im" in entry:
            mu = ComplexPermeability(mu_re, _number(entry, "mu_im", where))
        else:
            mu = ComplexPermeability.from_loss_tangent(mu_re, _number(entry, "tan_dm", where, 0.0))
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
            "shift_re": shift.re,
            "shift_im": shift.im,
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

    The sweep is centered on the modeled empty resonance and spans
    span_bandwidths of its loaded bandwidth.  campaign_traces widens it
    where a modelled loaded resonance inside it is too broad for the
    3-bandwidth margin, as with axial-hx or both-components on a lossy
    material; a resonance shifted out of the sweep is still an error.
    """
    syn = cfg.synth
    f0 = resonant_frequency(cfg.cavity, cfg.mode)
    q0 = syn.q0_empty
    empty = Resonance(f0, q0 * (1.0 - syn.il_linear), q0, syn.il_linear, method="model")
    span = syn.span_bandwidths * f0 / empty.q_loaded
    sweep = SynthConfig(
        f_start=f0 - span / 2.0,
        f_stop=f0 + span / 2.0,
        n_points=syn.n_points,
        noise_floor_db=syn.noise_floor_db,
        seed=syn.seed,
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
    try:
        args.config = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
        if not args.config:
            raise ConfigurationError(
                f"no config given; use --config or set ${CONFIG_ENV}"
            )
        cfg = load_config(args.config)
        seed = getattr(args, "seed", None)
        if seed is not None:
            cfg = replace(cfg, synth=replace(cfg.synth, seed=seed))
        document, text = args.run(cfg, args)
        if getattr(args, "json", False):
            text = json.dumps(document, indent=2) + "\n"
        print(text, end="")
        return EXIT_OK
    except NoPairableResonanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_RESONANCE
    except FitFailureError as exc:
        print(f"error: resonance fit failed: {exc}", file=sys.stderr)
        return EXIT_NO_RESONANCE
    except UnphysicalResultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNPHYSICAL
    except (PermeameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
