"""Inputs, operations and output checks of the four workloads.

Every workload builds its inputs from a seeded generator at set-up and
returns one round: a fixed list of operations.  A run repeats whole
rounds, so each run attempts the same mix and the share of failed
operations is the same in every run.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
import permeameter.cli as cli
from permeameter import FrequencyTrace
from permeameter.errors import PermeameterError

HERE = Path(__file__).resolve().parent

#: The run configuration and 6-material roster of the test suite's
#: compare fixtures (tests/conftest.py), lengths in millimeters.
BASE_CONFIG = {
    "cavity": {"width_a_mm": 30.0, "length_l_mm": 60.0, "height_h_mm": 1.57, "eps_r": 2.2, "mu_rs": 1.0},
    "sample": {"extent_x_l1_mm": 10.0, "extent_z_a1_mm": 2.0, "thickness_mm": 1.57},
    "mode": {"n": 4},
    "extraction": {
        "q_method": "lorentzian-fit",
        "interaction": "transverse-hz",
        "model": "quadrature",
        "cells_per_axis": 64,
    },
    "synth": {
        "q0_empty": 800.0,
        "il_linear": 0.3,
        "n_points": 4001,
        "span_bandwidths": 40.0,
        "noise_floor_db": None,
        "seed": 12345,
    },
}
ROSTER = [
    {"name": "U", "mu_re": 1.2, "tan_dm": 0.040},
    {"name": "V", "mu_re": 1.4, "tan_dm": 0.060},
    {"name": "W", "mu_re": 1.6, "tan_dm": 0.100},
    {"name": "X", "mu_re": 1.5, "tan_dm": 0.050},
    {"name": "Y", "mu_re": 1.7, "tan_dm": 0.008},
    {"name": "Z", "mu_re": 1.3, "tan_dm": 0.150},
]

INTERACTIONS = ("axial-hx", "transverse-hz", "both-components")
#: Significant digits of S values in the VNA-style files (frequencies get two more).
VNA_DIGITS = 9
#: Noise floor of the VNA-style files: quiet, so that the parser carries the workload.
VNA_FLOOR_DB = (-160.0, -140.0)
#: Noise floors of the extract-sweep fit items, one per interaction.
SWEEP_FIT_FLOORS_DB = (-90.0, -100.0, -110.0)
SWEEP_POINTS = (4001, 10001, 20001, 40001)
#: Floor of the fixed items that the peak gate of find_resonances fails on.
NOISY_FLOOR_DB = -60.0


class ExitError(Exception):
    """The CLI returned a nonzero exit code (its documented error exits)."""


@dataclass
class Op:
    """One operation: `run` is timed; `check` returns a fault or None.

    `traced_run`, where given, runs the operation with spans recorded
    out of process; otherwise a traced round wraps `run` in-process.
    """

    run: Callable[[], object]
    samples: int
    check: Callable[[object], str | None]
    may_fail: bool = False
    traced_run: Callable[[], object] | None = None


@dataclass(frozen=True)
class Case:
    """A known material in a known geometry, and the two traces it gives."""

    geo: oracle.Geometry
    interaction: str
    mu_re: float
    tan_dm: float
    empty: oracle.Resonance
    loaded: oracle.Resonance

    @property
    def g(self) -> float:
        return self.geo.g(self.interaction)

    @property
    def shift(self) -> complex:
        return oracle.shift(self.mu_re, self.mu_re * self.tan_dm, self.g)


def make_case(geo, interaction, mu_re, tan_dm, q0, il) -> Case:
    empty = oracle.Resonance(geo.f_res(), q0 * (1 - il), il)
    loaded = empty.loaded_by(oracle.shift(mu_re, mu_re * tan_dm, geo.g(interaction)))
    return Case(geo, interaction, mu_re, tan_dm, empty, loaded)


def base_geometry() -> oracle.Geometry:
    cav, smp = BASE_CONFIG["cavity"], BASE_CONFIG["sample"]
    mm = 1e-3
    return oracle.Geometry(
        cav["width_a_mm"] * mm, cav["length_l_mm"] * mm, cav["height_h_mm"] * mm, cav["eps_r"],
        smp["extent_x_l1_mm"] * mm, smp["extent_z_a1_mm"] * mm, smp["thickness_mm"] * mm,
        BASE_CONFIG["mode"]["n"],
    )


def config_doc(geo: oracle.Geometry, interaction: str, model: str, q_method: str) -> dict:
    doc = json.loads(json.dumps(BASE_CONFIG))
    km = 1e3
    doc["cavity"].update(width_a_mm=geo.a * km, length_l_mm=geo.l * km, height_h_mm=geo.h * km, eps_r=geo.eps_r)
    doc["sample"] = {"extent_x_l1_mm": geo.l1 * km, "extent_z_a1_mm": geo.a1 * km, "thickness_mm": geo.t * km}
    doc["mode"] = {"n": geo.n}
    doc["extraction"].update(interaction=interaction, model=model, q_method=q_method)
    return doc


def grid_around(empty: oracle.Resonance, n_points: int, bandwidths: float = 40.0) -> np.ndarray:
    """The program's synth grid: `bandwidths` empty-cavity bandwidths centered on f0."""
    span = bandwidths * empty.f0 / empty.q_loaded
    return np.linspace(empty.f0 - span / 2, empty.f0 + span / 2, n_points)


def grid_spanning(case: Case, n_points: int) -> np.ndarray:
    """A grid centered between both resonances with 20 bandwidths beyond each."""
    bw = max(r.f0 / r.q_loaded for r in (case.empty, case.loaded))
    mid = (case.empty.f0 + case.loaded.f0) / 2
    half = abs(case.empty.f0 - case.loaded.f0) / 2 + 20 * bw
    return np.linspace(mid - half, mid + half, n_points)


def run_main(argv: list[str]) -> str:
    """permeameter.cli.main in-process; its standard output, or ExitError."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise ExitError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


# ---------------------------------------------------------------------------
# Checks against the oracle
# ---------------------------------------------------------------------------


class KnownFault(str):
    """A check's finding that matches a known program fault rather than a
    new one: reported and counted apart, and not a failed check."""


def budgets(case: Case, freqs, q_method: str, noise_db, rounding=(None, None)):
    """Error budgets of the empty and loaded trace; `rounding` holds each
    side's (format, digits) as written, or None for in-memory traces."""
    budget = oracle.budget_fit if q_method == "lorentzian-fit" else oracle.budget_three_db
    return (budget(freqs, case.empty, noise_db, rounding[0]),
            budget(freqs, case.loaded, noise_db, rounding[1]))


def check_inversion(label: str, mu_re, tan_dm, shift: complex, g: float, be, bl, f_loaded: float) -> list[str]:
    """mu' and tan_dm against `shift` inverted with g, within the budgets.
    Where that inversion fails (mu' <= 0 or mu'' < 0), both must be empty."""
    want_re, want_im = oracle.invert(shift, g)
    if want_re <= 0 or want_im < 0:
        return [] if mu_re is None else [f"{label}mu_re {mu_re} where inversion fails"]
    if mu_re is None:
        return [f"{label}inversion missing"]
    want_tan = want_im / want_re
    tol_mu, tol_tan = oracle.tolerances(be, bl, f_loaded, g, want_re, want_tan)
    faults = []
    for name, got, want, tol in (("mu_re", mu_re, want_re, tol_mu), ("tan_dm", tan_dm, want_tan, tol_tan)):
        if not abs(got - want) <= tol:
            faults.append(f"{label}{name} {got:.9g} vs {want:.9g}: error {abs(got - want):.3g}, {abs(got - want) / tol:.3g} x tol")
    return faults


def check_pair(pair: dict, case: Case, be, bl, g_rtol: float, shift: complex | None = None) -> str | None:
    """g, g_conventional, and the mu' and tan_dm columns of one extracted
    pair, against `shift` (by default the true one) inverted with the
    closed-form g and with the uniform-field factor."""
    shift = case.shift if shift is None else shift
    g, g_conv = case.g, case.geo.g_conventional()
    faults = []
    if abs(pair["g_value"] - g) > g_rtol * g:
        faults.append(f"g_value {pair['g_value']:.15g} vs closed form {g:.15g}")
    if abs(pair["g_conventional"] - g_conv) > oracle.G_RTOL_CLOSED * g_conv:
        faults.append(f"g_conventional {pair['g_conventional']:.15g} vs {g_conv:.15g}")
    faults += check_inversion("", pair["mu_re"], pair["tan_dm"], shift, g, be, bl, case.loaded.f0)
    faults += check_inversion("conventional ", pair["mu_re_conventional"], pair["tan_dm_conventional"],
                              shift, g_conv, be, bl, case.loaded.f0)
    return "; ".join(faults) or None


def extract_checker(case: Case, freqs, noise_db, formats) -> Callable[[str], str | None]:
    """Check of `extract --json` output for one pair of Touchstone files
    written in the (empty, loaded) `formats`."""
    be, bl = budgets(case, freqs, "lorentzian-fit", noise_db, [(fmt, VNA_DIGITS) for fmt, _unit in formats])

    def check(out: str) -> str | None:
        pairs = json.loads(out)["pairs"]
        if len(pairs) != 1:
            return f"{len(pairs)} pairs from single-resonance traces"
        return check_pair(pairs[0], case, be, bl, oracle.G_RTOL_QUADRATURE)

    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def vna_pair(rng, work: Path, tag: str, n_points: int, formats) -> tuple[Case, np.ndarray, float, list[Path]]:
    """Empty and loaded Touchstone files of the base geometry, one seeded material."""
    case = make_case(
        base_geometry(), "transverse-hz", rng.uniform(1.1, 2.0), rng.uniform(0.02, 0.15),
        rng.uniform(600, 1000), rng.uniform(0.2, 0.5),
    )
    freqs = grid_around(case.empty, n_points)
    noise_db = rng.uniform(*VNA_FLOOR_DB)
    paths = []
    for res, (fmt, unit), label in zip((case.empty, case.loaded), formats, ("empty", "loaded")):
        s21 = oracle.lorentzian(freqs, res, noise_db, rng)
        text = oracle.touchstone_text(
            freqs, s21, 1 - s21, fmt, unit, VNA_DIGITS,
            [f"{label} cavity, {n_points} points", f"start {freqs[0]:.6e} Hz stop {freqs[-1]:.6e} Hz", "IFBW 1 kHz"],
        )
        path = work / f"{tag}_{label}.s2p"
        path.write_text(text)
        paths.append(path)
    return case, freqs, noise_db, paths


def write_config(work: Path, name: str, doc: dict) -> Path:
    path = work / name
    path.write_text(json.dumps(doc))
    return path


#: (empty, loaded) format and unit of each extract-vna pair: every format
#: and every unit appears once on each side.
VNA_FORMATS = [
    (("RI", "HZ"), ("MA", "GHZ")),
    (("MA", "MHZ"), ("DB", "HZ")),
    (("DB", "GHZ"), ("RI", "MHZ")),
]


def extract_vna(rng, work: Path) -> list[Op]:
    cfg = write_config(work, "config.json", BASE_CONFIG)
    ops = []
    for i, formats in enumerate(VNA_FORMATS):
        case, freqs, noise_db, (e, l) = vna_pair(rng, work, f"vna{i}", 40001, formats)
        ops.append(Op(
            run=lambda e=e, l=l: run_main(["-c", str(cfg), "extract", "--json", str(e), str(l)]),
            samples=2 * len(freqs),
            check=extract_checker(case, freqs, noise_db, formats),
        ))
    return ops


def compare_roster(rng, work: Path, seed: int) -> list[Op]:
    cfg = write_config(work, "config.json", BASE_CONFIG)
    materials = write_config(work, "materials.json", ROSTER)
    out_csv = work / "compare.csv"
    syn = BASE_CONFIG["synth"]
    geo = base_geometry()
    cases = [make_case(geo, "transverse-hz", m["mu_re"], m["tan_dm"], syn["q0_empty"], syn["il_linear"]) for m in ROSTER]
    freqs = grid_around(cases[0].empty, syn["n_points"], syn["span_bandwidths"])
    case_budgets = [budgets(case, freqs, "lorentzian-fit", None) for case in cases]

    def check(out: str) -> str | None:
        rows = json.loads(out)["rows"]
        if [r["material"] for r in rows] != [m["name"] for m in ROSTER]:
            return "roster rows out of order or missing"
        if len(out_csv.read_text().splitlines()) != len(ROSTER) + 1:
            return "CSV does not hold one row per material"
        faults = []
        for row, case, (be, bl) in zip(rows, cases, case_budgets):
            label = f"{row['material']}: "
            if row["mu_re_actual"] != case.mu_re or abs(row["tan_dm_actual"] - case.tan_dm) > 1e-15:
                faults.append(f"{label}actual columns differ from the roster")
            faults += check_inversion(label, row["mu_re_modified"], row["tan_dm_modified"],
                                      case.shift, case.g, be, bl, case.loaded.f0)
            faults += check_inversion(label + "conventional ", row["mu_re_conventional"], row["tan_dm_conventional"],
                                      case.shift, case.geo.g_conventional(), be, bl, case.loaded.f0)
        return "; ".join(faults) or None

    argv = ["-c", str(cfg), "--seed", str(seed), "compare", "--json",
            "--materials", str(materials), "--out-csv", str(out_csv)]
    return [Op(run=lambda: run_main(argv), samples=(len(ROSTER) + 1) * len(freqs), check=check)]


def sweep_case(rng, n: int, interaction: str) -> Case:
    """A seeded cavity, bar and material, kept inside the small-perturbation
    regime: |re| <= 2 % and the sample at most halves the unloaded Q."""
    while True:
        a = rng.uniform(0.02, 0.04)
        l = a * rng.uniform(1.5, 2.5)
        h = rng.uniform(0.8e-3, 1.6e-3)
        geo = oracle.Geometry(
            a, l, h, rng.uniform(2.2, 4.5),
            a * rng.uniform(0.2, 0.5), l * rng.uniform(0.03, 0.1), h * rng.uniform(0.5, 1.0), n,
        )
        case = make_case(geo, interaction, rng.uniform(1.1, 2.0), rng.uniform(0.02, 0.15),
                         rng.uniform(500, 1500), rng.uniform(0.2, 0.6))
        re = 1 - case.empty.f0 / case.loaded.f0
        if abs(re) <= 0.02 and case.loaded.q_unloaded >= 0.5 * case.empty.q_unloaded:
            return case


def sweep_op(case: Case, freqs, q_method: str, model: str, noise_db, rng, work: Path, name: str, may_fail=False) -> Op:
    doc = config_doc(case.geo, case.interaction, model, q_method)
    cfg = cli.load_config(write_config(work, name, doc))
    empty = FrequencyTrace(freqs, oracle.lorentzian(freqs, case.empty, noise_db, rng))
    loaded = FrequencyTrace(freqs, oracle.lorentzian(freqs, case.loaded, noise_db, rng))
    g_rtol = oracle.G_RTOL_QUADRATURE if model == "quadrature" else oracle.G_RTOL_CLOSED
    be, bl = budgets(case, freqs, q_method, noise_db)
    # traceio.q_3db takes its -3 dB target from the highest sample, not the
    # peak; the shift that reading gives, to tell that fault from others
    peak_sample_shift = oracle.shift_between(
        oracle.peak_sample_reading(freqs, case.empty), oracle.peak_sample_reading(freqs, case.loaded))

    def check(report) -> str | None:
        if len(report["pairs"]) != 1:
            return f"{name}: {len(report['pairs'])} pairs from single-resonance traces"
        fault = check_pair(report["pairs"][0], case, be, bl, g_rtol)
        if fault and q_method == "three-db" and check_pair(
                report["pairs"][0], case, be, bl, g_rtol, peak_sample_shift) is None:
            return KnownFault(f"{name}: {fault}")
        return fault and f"{name}: {fault}"

    return Op(run=lambda: cli.extract_report(cfg, empty, loaded), samples=2 * len(freqs), check=check, may_fail=may_fail)


#: Items per trace length and interaction in one extract-sweep round.
SWEEP_DESIGN = (("lorentzian-fit", 1), ("three-db", 2))


def extract_sweep(rng, work: Path) -> list[Op]:
    """36 seeded items on a fixed design, then 6 fixed -60 dB items.

    Design: four trace lengths x three interactions, once with the
    Lorentzian fit and twice with the half-power method; the mode index
    cycles through 1..6, odd n with the quadrature model and even n
    alternating quadrature and derived.  Fit items carry a -90, -100 or
    -110 dB floor (by interaction); the half-power method reads single
    samples, so its items are noiseless.  Two thirds of the items are
    cheap (under ~4 ms), so the median latency sits inside that group
    rather than in the gap above it.
    """
    ops = []
    i = 0
    for q_method, copies in SWEEP_DESIGN:
        for n_points in SWEEP_POINTS * copies:
            for k, interaction in enumerate(INTERACTIONS):
                n = i % 6 + 1
                model = "quadrature" if n % 2 or (i // 6) % 2 else "derived"
                noise_db = SWEEP_FIT_FLOORS_DB[k] if q_method == "lorentzian-fit" else None
                case = sweep_case(rng, n, interaction)
                freqs = grid_spanning(case, n_points)
                ops.append(sweep_op(case, freqs, q_method, model, noise_db, rng, work, f"sweep{i:02d}.json"))
                i += 1
    # Fixed inputs, the same for every seed: the base geometry and roster
    # at a -60 dB floor, which the fixed 3 dB peak gate turns into spurious
    # pairs (an UnphysicalResultError for every one of them at present).
    syn = BASE_CONFIG["synth"]
    for j, m in enumerate(ROSTER):
        case = make_case(base_geometry(), "transverse-hz", m["mu_re"], m["tan_dm"], syn["q0_empty"], syn["il_linear"])
        freqs = grid_around(case.empty, 4001)
        ops.append(sweep_op(case, freqs, "lorentzian-fit", "quadrature", NOISY_FLOOR_DB,
                            np.random.default_rng(12345 + j), work, f"noisy_{m['name']}.json", may_fail=True))
    return ops


def cli_oneshot(rng, work: Path, tracer) -> list[Op]:
    """Two 4001-point pairs, each run by a fresh interpreter.

    Each child's output is checked against the oracle and must equal the
    same command's output run in-process at set-up.
    """
    cfg = write_config(work, "config.json", BASE_CONFIG)
    dump = work / "child-spans.json"
    ops = []
    for i, formats in enumerate(VNA_FORMATS[:2]):
        case, freqs, noise_db, (e, l) = vna_pair(rng, work, f"oneshot{i}", 4001, formats)
        args = ["-c", str(cfg), "extract", "--json", str(e), str(l)]
        want = json.loads(run_main(args))
        oracle_check = extract_checker(case, freqs, noise_db, formats)

        def run(args=args) -> str:
            return run_child([sys.executable, "-m", "permeameter.cli", *args])

        def traced_run(args=args) -> str:
            out = run_child([sys.executable, str(HERE / "oneshot.py"), str(dump), *args])
            child = json.loads(dump.read_text())
            tracer.absorb(child["spans"])
            tracer.import_ms.append(child["import_ms"])
            return out

        def check(out: str, want=want, oracle_check=oracle_check) -> str | None:
            if json.loads(out) != want:
                return "JSON differs from the in-process result"
            return oracle_check(out)

        ops.append(Op(run=run, samples=2 * len(freqs), check=check, traced_run=traced_run))
    return ops


def run_child(cmd: list[str]) -> str:
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise ExitError(f"exit {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def build(name: str, seed: int, worker: int, work: Path, tracer) -> list[Op]:
    """One round of the workload; each worker of a run draws its own inputs."""
    rng = np.random.default_rng([seed, worker])
    if name == "extract-vna":
        return extract_vna(rng, work)
    if name == "compare-roster":
        return compare_roster(rng, work, seed)
    if name == "extract-sweep":
        return extract_sweep(rng, work)
    return cli_oneshot(rng, work, tracer)


def expected_failure(exc: BaseException) -> bool:
    """Failures the program documents: its error taxonomy and its exit codes."""
    return isinstance(exc, (PermeameterError, ExitError))
