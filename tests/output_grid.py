"""Hash every CLI output over a grid of configs, to compare two source trees.

    PYTHONPATH=<tree>/src python tests/output_grid.py > out.txt
    python tests/output_grid.py --against REF

Without PYTHONPATH the grid runs on this tree's src/.

Runs permeameter.cli.main in-process for each config of the grid: 2
models x 3 interactions x 2 Q methods x n in {2, 3, 4} x {noiseless,
-90 dB, -60 dB noise floor}, 108 configs on the test suite's base
geometry and 6-material roster, all at its 4001 points.  At -60 dB the noise
moves each fitted resonance, and some transverse-hz configs exit 4 on a
noise-driven mu_im < 0, so the detector's and the fit's choices show in
the outputs.  Each config runs `compare --json`, `synth --json`,
`extract --json` on every written empty/material pair and `quadcheck
--json`; so that the text reports have a gate too, it also runs `modes
--max-n 6` with and without --json, `quadcheck` without it, and
`extract` without it on the first material pair.
A slice at 40001 points follows: the quadrature model x 3 interactions
x 2 Q methods x n = 4 x {-90, -60 dB}, where ~10^4 noise maxima take
several pruning passes, the 3-dB window grows and the fit window holds
~5000 samples.  So that it adds only ~30 s, it runs `extract` (with and
without --json) on the first material pair only; compare still
extracts every material.  The grid prints 2546 lines.
One line per output gives the config, the verb, the exit code and the
sha256 of stdout and of stderr, with the temporary directory replaced by
a fixed token; each written .s2p and CSV file gets a line with its
sha256 as well.  Extra cases at the end cover configs that fail, two of
them in more than one way, where only the exit code is promised to stay
the same, and the grid's one complex (lossy) substrate, which every verb
runs on.

`--slice` prints a tier-1 slice of the main grid instead: the derived
model x 3 interactions x 2 Q methods x n = 4 x {noiseless, -90 dB,
-60 dB}, `extract` on the first material pair only, headed by the numpy
version.  tests/output_slice.txt holds it, and tests/test_output_slice.py
compares a fresh run with that file; a deliberate output change
regenerates it with

    python tests/output_grid.py --slice > tests/output_slice.txt

To check that a change keeps outputs byte-identical, pass `--against`
a git revision such as HEAD: tests/git_tree.py extracts its `src/`
with `git archive` into a temporary directory, the grid runs on that
copy and on the working tree's `src/` (in two processes at once), and
the lines that differ are printed; the exit code is 1 if any do.  The
script is not named test_*, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# after PYTHONPATH, so a tree given there is the one imported
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from conftest import BASE_CONFIG, TABLE_MATERIALS  # noqa: E402
from git_tree import ROOT, checked_out  # noqa: E402
from permeameter.cli import main  # noqa: E402

MODELS = ("quadrature", "derived")
INTERACTIONS = ("transverse-hz", "axial-hx", "both-components")
Q_METHODS = ("lorentzian-fit", "three-db")
MODES = (2, 3, 4)
NOISE_FLOORS_DB = (None, -90.0, -60.0)
#: The 40001-point slice: interactions x Q methods x these floors, quadrature model, n = 4.
LONG_N_POINTS = 40001
LONG_NOISE_FLOORS_DB = (-90.0, -60.0)

# (label, config patch, roster): the first two fail on the geometry and on one
# other check; the sweep of the next two reaches 0 Hz or lacks the 3-bandwidth
# margins; the next names the published prefactor, which is no extraction model;
# the next three give a via diameter above its pitch, a bar thicker than the cavity
# and a via fence that leaves less than one via diameter of width; the next two
# give a lossy substrate, on which every verb exits 0, and one with gain; the last
# four reach the model's limits: a box integral that does not converge, a 1 um
# bar whose geometry factor is degenerate, a mu' of 70 on axial-hx, whose shift
# has |re| = 1.104, and a mu' of 40 there, whose resonance lies beyond pairing
EXTRA_CASES = [
    ("duplicate-labels+oversize-sample", {"sample": {"extent_x_l1_mm": 40.0}},
     [{"name": "A", "mu_re": 1.2}, {"name": "A", "mu_re": 1.3}]),
    ("short-sweep+oversize-sample", {"sample": {"extent_x_l1_mm": 40.0}, "synth": {"n_points": 50}},
     TABLE_MATERIALS),
    ("zero-hz-sweep", {"synth": {"q0_empty": 30.0, "il_linear": 0.5}}, TABLE_MATERIALS),
    ("narrow-span", {"synth": {"span_bandwidths": 5.0}}, TABLE_MATERIALS),
    ("printed-model", {"extraction": {"model": "printed"}}, TABLE_MATERIALS),
    ("via-order", {"cavity": {"via_diameter_d_mm": 0.5, "via_pitch_p_mm": 0.4}}, TABLE_MATERIALS),
    ("thick-sample", {"sample": {"thickness_mm": 1.6}}, TABLE_MATERIALS),
    ("via-collapse", {"cavity": {"width_a_mm": 1.8, "height_h_mm": 1.0, "via_diameter_d_mm": 1.0,
                                 "via_pitch_p_mm": 1.1}}, TABLE_MATERIALS),
    ("lossy-substrate", {"cavity": {"mu_rs": [1.0, -0.002]}}, TABLE_MATERIALS),
    ("active-substrate", {"cavity": {"mu_rs": [1.0, 0.002]}}, TABLE_MATERIALS),
    ("quadrature-nonconvergence", {"mode": {"n": 200}, "extraction": {"cells_per_axis": 8},
                                   "sample": {"extent_x_l1_mm": 29.0, "extent_z_a1_mm": 59.0,
                                              "thickness_mm": 1.0}}, TABLE_MATERIALS),
    ("degenerate-sample", {"sample": {"extent_x_l1_mm": 0.001, "extent_z_a1_mm": 0.001,
                                      "thickness_mm": 0.001}}, TABLE_MATERIALS),
    ("outsize-shift", {"extraction": {"interaction": "axial-hx"}}, [{"name": "F", "mu_re": 70.0}]),
    ("beyond-guard", {"extraction": {"interaction": "axial-hx"}}, [{"name": "F", "mu_re": 40.0}]),
]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def config(patch: dict) -> dict:
    doc = json.loads(json.dumps(BASE_CONFIG))
    for section, values in patch.items():
        doc[section].update(values)
    return doc


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=2))
    return path


def run(tmp: Path, label: str, verb: str, argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    hashes = (sha(s.getvalue().replace(str(tmp), "<tmp>").encode()) for s in (out, err))
    print(label, verb, code, *hashes)


def run_config(tmp: Path, label: str, doc: dict, roster: list[dict], pairs: int | None = None) -> None:
    """Run every verb on one config; `extract` on the first `pairs` material pairs (all if None)."""
    work = tmp / label.replace("/", "_")
    work.mkdir()
    cfg = ["--config", str(write_json(work / "config.json", doc))]
    mats = str(write_json(work / "materials.json", roster))
    csv = work / "compare.csv"
    run(tmp, label, "compare", cfg + ["--json", "compare", "--materials", mats, "--out-csv", str(csv)])
    if csv.exists():
        print(label, "compare.csv", sha(csv.read_bytes()))
    out_dir = work / "campaign"
    run(tmp, label, "synth", cfg + ["--json", "synth", "--materials", mats, "--out-dir", str(out_dir)])
    files = sorted(out_dir.glob("*.s2p")) if out_dir.exists() else []
    for path in files:
        print(label, path.name, sha(path.read_bytes()))
    empty = out_dir / "campaign_empty.s2p"
    materials = [path for path in files if path != empty][:pairs]
    for path in materials:
        run(tmp, label, f"extract:{path.stem}", cfg + ["--json", "extract", str(empty), str(path)])
    if materials:
        run(tmp, label, f"extract-text:{materials[0].stem}", cfg + ["extract", str(empty), str(materials[0])])
    run(tmp, label, "quadcheck", cfg + ["--json", "quadcheck"])
    run(tmp, label, "quadcheck-text", cfg + ["quadcheck"])
    run(tmp, label, "modes", cfg + ["--json", "modes", "--max-n", "6"])
    run(tmp, label, "modes-text", cfg + ["modes", "--max-n", "6"])


def grid_config(model: str, interaction: str, q_method: str, n: int, noise: float | None) -> tuple[str, dict]:
    """Label and config of one main-grid point."""
    label = f"{model}/{interaction}/{q_method}/n{n}/{'noiseless' if noise is None else f'{noise:g}dB'}"
    return label, config({
        "extraction": {"model": model, "interaction": interaction, "q_method": q_method},
        "mode": {"n": n},
        "synth": {"noise_floor_db": noise},
    })


def slice_header() -> str:
    return f"# numpy {np.__version__}"


def output_slice() -> None:
    """The tier-1 slice: derived model, n = 4, `extract` on one material pair."""
    print(slice_header())
    with tempfile.TemporaryDirectory() as name:
        for interaction, q_method, noise in itertools.product(INTERACTIONS, Q_METHODS, NOISE_FLOORS_DB):
            run_config(Path(name), *grid_config("derived", interaction, q_method, 4, noise),
                       TABLE_MATERIALS, pairs=1)


def grid() -> None:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for point in itertools.product(MODELS, INTERACTIONS, Q_METHODS, MODES, NOISE_FLOORS_DB):
            run_config(tmp, *grid_config(*point), TABLE_MATERIALS)
        for interaction, q_method, noise in itertools.product(
            INTERACTIONS, Q_METHODS, LONG_NOISE_FLOORS_DB
        ):
            label = f"quadrature/{interaction}/{q_method}/n4/{noise:g}dB/{LONG_N_POINTS}pts"
            doc = config({
                "extraction": {"model": "quadrature", "interaction": interaction, "q_method": q_method},
                "mode": {"n": 4},
                "synth": {"noise_floor_db": noise, "n_points": LONG_N_POINTS},
            })
            run_config(tmp, label, doc, TABLE_MATERIALS, pairs=1)
        for label, patch, roster in EXTRA_CASES:
            run_config(tmp, label, config(patch), roster)


def against(ref: str) -> int:
    """Run the grid on REF's src/ and on the working tree's; print the lines that differ."""
    with checked_out(ref, "src") as tree:
        runs = [
            subprocess.Popen([sys.executable, __file__], stdout=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
            for src in (tree / "src", ROOT / "src")
        ]
        outputs = [run.communicate()[0].splitlines() for run in runs]
    if any(run.returncode for run in runs):
        raise SystemExit("a grid run failed")
    old, new = outputs
    diff = list(difflib.unified_diff(old, new, ref, "working tree", lineterm="", n=0))
    for line in diff:
        print(line)
    removed, added = (sum(line[0] == sign for line in diff[2:]) for sign in "-+")
    print(f"{removed} of {len(old)} lines ({ref}) and {added} of {len(new)} (working tree) differ")
    return 1 if diff else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    choice = parser.add_mutually_exclusive_group()
    choice.add_argument("--against", metavar="REF", help="git revision whose outputs to compare")
    choice.add_argument("--slice", action="store_true", help="print the tier-1 slice only")
    args = parser.parse_args()
    if args.against:
        sys.exit(against(args.against))
    if args.slice:
        output_slice()
    else:
        grid()
