"""Command-line front end.

Verbs: modes, synth, extract, compare, quadcheck.  One JSON config file
(lengths in millimeters) describes the cavity, sample, mode, and method
options; permeameter.config reads it, and the README gives its schema.
The config path comes from --config alone; no environment variable is
read.  The common flags (--config, --seed, --json) work before or
after the verb; a value given after the verb overrides one given before
it.  A --seed outside [0, 2**64) is a config error that names the flag.

Exit codes: 0 success, 2 config/parse error (so is a MemoryError: an
allocation the inputs make impossible), 3 no usable resonance (none
found, none pairable, or its Q could not be read), 4 unphysical
extraction result; EXIT_STATUS maps each error class to its code.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from .cavity import ModeSpec, guided_wavelength, resonant_frequency, stored_field_norm
from .config import RunConfig, in_float_range, load_config, load_materials
from .errors import (
    ConfigurationError,
    FitFailureError,
    NearCriticalCouplingWarning,
    NoUsableResonanceError,
    PermeameterError,
    UnphysicalResultError,
)
from .perturbation import (
    InteractionChoice,
    complex_shift_from_resonances,
    geometry_factor_conventional,
    geometry_factor_derived,
    geometry_factor_printed,
    invert_permeability,
    pair_resonances,
    sample_energy_quadrature,
)
from .synth import Campaign, campaign_traces, synth_campaign
from .touchstone import FrequencyTrace, parse_touchstone
from .traceio import Resonance, find_resonances, fit_lorentzian, q_3db

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_RESONANCE = 3
EXIT_UNPHYSICAL = 4

# the status main returns for an error: the first class it is an instance of, else EXIT_CONFIG
EXIT_STATUS = ((NoUsableResonanceError, EXIT_NO_RESONANCE), (UnphysicalResultError, EXIT_UNPHYSICAL))

#: Most rows `modes` lists; each costs ~1.2 KB with --json.
MAX_MODES = 10_000


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
    return _pair_report(cfg, empties, loadeds)


def _pair_report(cfg: RunConfig, empties: list[Resonance], loadeds: list[Resonance]) -> dict:
    """Pair the resonances and invert each pair with g and the conventional factor."""
    g, g_conv = cfg.factors
    mu_rs = cfg.cavity.mu_rs
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


def _roster_traces(cfg: RunConfig, roster: list[dict]) -> Campaign:
    """Empty-cavity and per-material traces of the roster, each rendered when called:
    synth.campaign_traces over the config's sweep, which load_config has checked."""
    table = [(m["name"], m["mu"]) for m in roster]
    return campaign_traces(table, *cfg.sweep, cfg.factors[0], cfg.cavity.mu_rs)


def compare_rows(cfg: RunConfig, roster: list[dict]) -> list[dict]:
    """Synthesize the roster, extract each material as its trace is rendered, tabulate both
    methods; only the rows are kept, so memory does not grow with the roster."""
    (_, render_empty), *loaded = _roster_traces(cfg, roster)
    empties = extract_trace_resonances(cfg, render_empty())
    rows = []
    for m, (_, render) in zip(roster, loaded, strict=True):
        loadeds = extract_trace_resonances(cfg, render())
        pair = _pair_report(cfg, empties, loadeds)["pairs"][0]
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
    for row in rows:  # csv writes None as an empty field and any other value as str() does
        writer.writerow(f"{row[c]:.10g}" if isinstance(row[c], float) else row[c] for c in COMPARE_COLUMNS)
    return buf.getvalue()


def quadcheck_report(cfg: RunConfig) -> dict:
    """All geometry-factor routes side by side with relative deviations.

    The printed form covers even n only; for odd n it and its deviation
    are reported as None.
    """
    cavity, sample, mode, cells = cfg.cavity, cfg.sample, cfg.mode, cfg.extraction.cells_per_axis
    norm = stored_field_norm(cavity, mode)
    g_printed = geometry_factor_printed(cavity, sample, mode).value if mode.is_even else None
    report: dict = {"g_printed": g_printed}
    for choice in InteractionChoice:
        tag = choice.value
        g_d = geometry_factor_derived(cavity, sample, mode, choice).value
        g_q = sample_energy_quadrature(cavity, sample, mode, choice, cells) / norm
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
    if args.max_n > MAX_MODES:
        raise ConfigurationError(f"--max-n must be <= {MAX_MODES}")
    if args.max_n:  # the frequency grows with n, so the highest is the one to check
        in_float_range(f"cavity and --max-n {args.max_n} give a TE10n frequency",
                        cfg.cavity, ModeSpec(args.max_n), resonant_frequency)
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
    traces = _roster_traces(cfg, load_materials(args.materials))
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
    for what, path in (("--materials", args.materials), ("the config file", args.config)):
        if os.path.exists(args.out_csv) and os.path.exists(path) and os.path.samefile(args.out_csv, path):
            raise ConfigurationError(f"--out-csv must differ from {what}")
    rows = compare_rows(cfg, load_materials(args.materials))
    text = compare_csv(rows)
    try:
        Path(args.out_csv).write_text(text, encoding="utf-8")
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
    common.add_argument("--config", "-c", help="run-config JSON path (required)")
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
            args.config = getattr(args, "config", None)
            if not args.config:
                raise ConfigurationError("no config given; use --config")
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
        except (PermeameterError, OSError, MemoryError) as exc:  # numpy names the size it could not allocate
            print(f"error: {exc}", file=sys.stderr)
            return next((status for cls, status in EXIT_STATUS if isinstance(exc, cls)), EXIT_CONFIG)


def entrypoint() -> None:
    # a name the locale's encoding cannot hold prints escaped, not as a UnicodeEncodeError
    sys.stdout.reconfigure(errors="backslashreplace")
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
