"""Command-line front end.

Verbs: modes, synth, extract, compare, quadcheck.  One JSON config file
(lengths in millimeters) describes the cavity, sample, mode, and method
options; see the README for the schema.  The config path comes from
--config or the PERMEAMETER_CONFIG environment variable.

Exit codes: 0 success, 2 config/parse error, 3 no pairable resonance,
4 unphysical extraction result.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field, replace
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
    InteractionChoice,
    SampleSpec,
    complex_shift_from_resonances,
    geometry_factor,
    geometry_factor_conventional,
    invert_conventional,
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
    min_prominence_db: float = 3.0
    window_bandwidths: float = 5.0
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


def _mm(section: dict, key: str, where: str) -> float:
    try:
        value = section[key]
    except KeyError:
        raise ConfigurationError(f"missing {where}.{key}") from None
    if not isinstance(value, (int, float)):
        raise ConfigurationError(f"{where}.{key} must be a number (millimeters)")
    return float(value) * MM


def _opt_mm(section: dict, key: str) -> float | None:
    value = section.get(key)
    return None if value is None else float(value) * MM


def _as_complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigurationError("mu_rs must be a number or a [re, im] pair")


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate the run-configuration JSON document."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from None
    for section in ("cavity", "sample", "mode"):
        if section not in doc:
            raise ConfigurationError(f"missing config section {section!r}")
    cav = doc["cavity"]
    cavity = CavitySpec(
        width_a=_mm(cav, "width_a_mm", "cavity"),
        length_l=_mm(cav, "length_l_mm", "cavity"),
        height_h=_mm(cav, "height_h_mm", "cavity"),
        eps_r=float(cav.get("eps_r", 1.0)),
        mu_rs=_as_complex(cav.get("mu_rs", 1.0)),
        via_diameter_d=_opt_mm(cav, "via_diameter_d_mm"),
        via_pitch_p=_opt_mm(cav, "via_pitch_p_mm"),
    )
    smp = doc["sample"]
    sample = SampleSpec(
        extent_x_l1=_mm(smp, "extent_x_l1_mm", "sample"),
        extent_z_a1=_mm(smp, "extent_z_a1_mm", "sample"),
        thickness=_mm(smp, "thickness_mm", "sample"),
    )
    n = doc["mode"].get("n")
    if not isinstance(n, int):
        raise ConfigurationError("mode.n must be an integer")
    mode = ModeSpec(n=n)
    ext = doc.get("extraction", {})
    try:
        interaction = InteractionChoice(ext.get("interaction", "transverse-hz"))
    except ValueError:
        raise ConfigurationError(
            f"extraction.interaction must be one of {[c.value for c in InteractionChoice]}"
        ) from None
    q_method = ext.get("q_method", "lorentzian-fit")
    if q_method not in ("lorentzian-fit", "three-db"):
        raise ConfigurationError("extraction.q_method must be 'lorentzian-fit' or 'three-db'")
    model = ext.get("model", "quadrature")
    if model not in MODELS:
        raise ConfigurationError(f"extraction.model must be one of {list(MODELS)}")
    extraction = ExtractionOptions(
        q_method=q_method,
        interaction=interaction,
        model=model,
        min_prominence_db=float(ext.get("min_prominence_db", 3.0)),
        window_bandwidths=float(ext.get("window_bandwidths", 5.0)),
        cells_per_axis=int(ext.get("cells_per_axis", 64)),
    )
    syn = doc.get("synth", {})
    noise = syn.get("noise_floor_db")
    synth = SynthOptions(
        q0_empty=float(syn.get("q0_empty", 800.0)),
        il_linear=float(syn.get("il_linear", 0.3)),
        n_points=int(syn.get("n_points", 4001)),
        span_bandwidths=float(syn.get("span_bandwidths", 40.0)),
        noise_floor_db=None if noise is None else float(noise),
        seed=int(syn.get("seed", 0)),
    )
    return RunConfig(cavity, sample, mode, extraction, synth)


def load_materials(path: str | Path) -> list[dict]:
    """Materials roster: JSON array of {name, mu_re, tan_dm|mu_im, note?}."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read materials file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"materials file is not valid JSON: {exc}") from None
    if isinstance(doc, dict):
        doc = doc.get("materials")
    if not isinstance(doc, list):
        raise ConfigurationError("materials file must be a JSON array (or {'materials': [...]})")
    roster = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict) or "name" not in entry or "mu_re" not in entry:
            raise ConfigurationError(f"materials[{i}] needs 'name' and 'mu_re'")
        mu_re = float(entry["mu_re"])
        if "mu_im" in entry:
            mu = ComplexPermeability(mu_re, float(entry["mu_im"]))
        else:
            mu = ComplexPermeability.from_loss_tangent(mu_re, float(entry.get("tan_dm", 0.0)))
        roster.append({"name": str(entry["name"]), "mu": mu, "note": entry.get("note", "")})
    return roster


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------


def extract_trace_resonances(cfg: RunConfig, trace: FrequencyTrace) -> list[Resonance]:
    """Detected resonances of a trace with the configured Q method."""
    ext = cfg.extraction
    out = []
    for peak in find_resonances(trace, ext.min_prominence_db):
        if ext.q_method == "three-db":
            out.append(q_3db(trace, peak))
            continue
        try:
            out.append(fit_lorentzian(trace, peak, ext.window_bandwidths))
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
    if not empties or not loadeds:
        raise NoPairableResonanceError(
            f"found {len(empties)} empty / {len(loadeds)} loaded resonances"
        )
    ext = cfg.extraction
    g = geometry_factor(
        cfg.cavity, cfg.sample, cfg.mode, ext.model, ext.interaction, ext.cells_per_axis
    )
    g_conv = geometry_factor_conventional(cfg.cavity, cfg.sample, cfg.mode)
    mu_rs = cfg.cavity.mu_rs
    pairs = []
    for empty_res, loaded_res in pair_resonances(empties, loadeds):
        shift = complex_shift_from_resonances(empty_res, loaded_res)
        mu_mod = invert_permeability(shift, g, mu_rs)
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
        try:
            mu_conv = invert_conventional(shift, cfg.cavity, cfg.sample, cfg.mode, mu_rs)
            entry["mu_re_conventional"] = mu_conv.mu_re
            entry["mu_im_conventional"] = mu_conv.mu_im
            entry["tan_dm_conventional"] = mu_conv.tan_dm
        except PermeameterError:
            entry["mu_re_conventional"] = None
            entry["mu_im_conventional"] = None
            entry["tan_dm_conventional"] = None
        pairs.append(entry)
    return {"pairs": pairs}


def _empty_resonance(cfg: RunConfig) -> Resonance:
    f0 = resonant_frequency(cfg.cavity, cfg.mode)
    q0 = cfg.synth.q0_empty
    il = cfg.synth.il_linear
    return Resonance(f0, q0 * (1.0 - il), q0, il, method="model")


def _sweep_config(cfg: RunConfig, empty: Resonance) -> SynthConfig:
    span = cfg.synth.span_bandwidths * empty.f0 / empty.q_loaded
    return SynthConfig(
        f_start=empty.f0 - span / 2.0,
        f_stop=empty.f0 + span / 2.0,
        n_points=cfg.synth.n_points,
        noise_floor_db=cfg.synth.noise_floor_db,
        seed=cfg.synth.seed,
        il_linear=cfg.synth.il_linear,
    )


def _roster_traces(cfg: RunConfig, roster: list[dict]) -> dict[str, FrequencyTrace]:
    empty = _empty_resonance(cfg)
    ext = cfg.extraction
    table = [(m["name"], m["mu"]) for m in roster]
    return campaign_traces(
        cfg.cavity, cfg.sample, cfg.mode, table, empty, _sweep_config(cfg, empty),
        ext.model, ext.interaction, ext.cells_per_axis,
    )


def run_campaign(cfg: RunConfig, roster: list[dict], out_dir: str | Path, campaign: str):
    return synth_campaign(_roster_traces(cfg, roster), out_dir, campaign)


def compare_rows(cfg: RunConfig, roster: list[dict]) -> list[dict]:
    """Synthesize the roster, extract each material in memory, tabulate both methods."""
    traces = _roster_traces(cfg, roster)
    rows = []
    for m in roster:
        pair = extract_report(cfg, traces["empty"], traces[m["name"]])["pairs"][0]
        rows.append(
            {
                "material": m["name"],
                "mu_re_actual": m["mu"].mu_re,
                "mu_re_conventional": pair["mu_re_conventional"],
                "mu_re_modified": pair["mu_re"],
                "tan_dm_actual": m["mu"].tan_dm,
                "tan_dm_conventional": pair["tan_dm_conventional"],
                "tan_dm_modified": pair["tan_dm"],
                "note": m["note"],
            }
        )
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
# Commands
# ---------------------------------------------------------------------------


def cmd_modes(cfg: RunConfig, max_n: int, as_json: bool) -> int:
    rows = []
    for n in range(1, max_n + 1):
        mode = ModeSpec(n)
        rows.append(
            {
                "n": n,
                "f_hz": resonant_frequency(cfg.cavity, mode),
                "lambda_g_m": guided_wavelength(cfg.cavity, mode),
                "even": mode.is_even,
            }
        )
    if as_json:
        print(json.dumps({"modes": rows}, indent=2))
        return EXIT_OK
    print(f"{'n':>3}  {'f (GHz)':>10}  {'lambda_g (mm)':>14}  even")
    for row in rows:
        marker = "*" if row["even"] else ""
        print(
            f"{row['n']:>3}  {row['f_hz'] / 1e9:>10.6f}  "
            f"{row['lambda_g_m'] * 1e3:>14.4f}  {marker}"
        )
    return EXIT_OK


def cmd_synth(cfg: RunConfig, materials_path: str, out_dir: str, campaign: str, as_json: bool) -> int:
    roster = load_materials(materials_path)
    try:
        files = run_campaign(cfg, roster, out_dir, campaign)
    except OSError as exc:
        raise ConfigurationError(f"cannot write to {out_dir!r}: {exc}") from None
    if as_json:
        print(json.dumps({"files": {k: str(v) for k, v in files.items()}}, indent=2))
    else:
        for label, path in files.items():
            print(f"{label}: {path}")
    return EXIT_OK


def _print_extract_human(report: dict) -> None:
    for i, pair in enumerate(report["pairs"], start=1):
        e, s = pair["empty"], pair["loaded"]
        print(f"pair {i}:")
        print(
            f"  empty : f0 = {e['f0_hz'] / 1e9:.6f} GHz  Q0 = {e['q_unloaded']:.1f}"
            f"  IL = {e['il_linear']:.4f}  ({e['method']})"
        )
        print(
            f"  loaded: f0 = {s['f0_hz'] / 1e9:.6f} GHz  Q0 = {s['q_unloaded']:.1f}"
            f"  IL = {s['il_linear']:.4f}  ({s['method']})"
        )
        print(f"  shift : re = {pair['shift_re']:+.6e}  im = {pair['shift_im']:+.6e}")
        print(f"  g     : {pair['g_value']:.6e}  ({pair['g_provenance']})")
        print(f"  modified    : mu' = {pair['mu_re']:.6f}  tan_dm = {pair['tan_dm']:.6f}")
        if pair["mu_re_conventional"] is None:
            print("  conventional: (inversion failed)")
        else:
            print(
                f"  conventional: mu' = {pair['mu_re_conventional']:.6f}"
                f"  tan_dm = {pair['tan_dm_conventional']:.6f}"
            )


def cmd_extract(cfg: RunConfig, empty_path: str, loaded_path: str, as_json: bool) -> int:
    empty_trace = parse_touchstone(Path(empty_path).read_bytes(), source=empty_path)
    loaded_trace = parse_touchstone(Path(loaded_path).read_bytes(), source=loaded_path)
    report = extract_report(cfg, empty_trace, loaded_trace)
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        _print_extract_human(report)
    return EXIT_OK


def cmd_compare(cfg: RunConfig, materials_path: str, out_csv: str, as_json: bool) -> int:
    if Path(out_csv).resolve() == Path(materials_path).resolve():
        raise ConfigurationError("--out-csv must differ from --materials")
    roster = load_materials(materials_path)
    rows = compare_rows(cfg, roster)
    text = compare_csv(rows)
    try:
        Path(out_csv).write_text(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {out_csv!r}: {exc}") from None
    if as_json:
        print(json.dumps({"rows": rows, "csv_path": out_csv}, indent=2))
    else:
        print(text, end="")
    return EXIT_OK


def cmd_quadcheck(cfg: RunConfig, as_json: bool) -> int:
    report = quadcheck_report(cfg)
    if as_json:
        print(json.dumps(report, indent=2))
        return EXIT_OK
    print("geometry factors:")
    for key in sorted(report):
        value = report[key]
        shown = "n/a" if value is None else f"{value:.9e}"
        print(f"  {key:<48} {shown}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _add_common_flags(parser: argparse.ArgumentParser, top_level: bool) -> None:
    # registered on the top level and on every verb so the flags work in
    # either position; the verb copies must not clobber earlier values
    kwargs = {} if top_level else {"default": argparse.SUPPRESS}
    parser.add_argument(
        "--config", "-c", help=f"run-config JSON path (or set ${CONFIG_ENV})", **kwargs
    )
    parser.add_argument("--seed", type=int, help="override synth seed", **kwargs)
    parser.add_argument("--json", action="store_true", help="machine-readable output", **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permeameter",
        description="Complex-permeability extraction from resonator S-parameter traces.",
    )
    _add_common_flags(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("modes", help="list TE10n resonances")
    _add_common_flags(p, top_level=False)
    p.add_argument("--max-n", type=int, default=4)

    p = sub.add_parser("synth", help="synthesize a Touchstone campaign")
    _add_common_flags(p, top_level=False)
    p.add_argument("--materials", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--campaign", default="campaign")

    p = sub.add_parser("extract", help="extract permeability from two traces")
    _add_common_flags(p, top_level=False)
    p.add_argument("empty_s2p")
    p.add_argument("loaded_s2p")

    p = sub.add_parser("compare", help="synthesize, re-extract, and tabulate a roster")
    _add_common_flags(p, top_level=False)
    p.add_argument("--materials", required=True)
    p.add_argument("--out-csv", required=True)

    p = sub.add_parser("quadcheck", help="report geometry-factor route deviations")
    _add_common_flags(p, top_level=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config_path = args.config or os.environ.get(CONFIG_ENV)
        if not config_path:
            raise ConfigurationError(
                f"no config given; use --config or set ${CONFIG_ENV}"
            )
        cfg = load_config(config_path)
        if args.seed is not None:
            cfg = replace(cfg, synth=replace(cfg.synth, seed=args.seed))
        if args.command == "modes":
            if args.max_n < 0:
                raise ConfigurationError("--max-n must be >= 0")
            return cmd_modes(cfg, args.max_n, args.json)
        if args.command == "synth":
            return cmd_synth(cfg, args.materials, args.out_dir, args.campaign, args.json)
        if args.command == "extract":
            return cmd_extract(cfg, args.empty_s2p, args.loaded_s2p, args.json)
        if args.command == "compare":
            return cmd_compare(cfg, args.materials, args.out_csv, args.json)
        return cmd_quadcheck(cfg, args.json)
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
