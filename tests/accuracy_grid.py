"""Accuracy of `compare` through the synthesis loop, over a fixed grid of noise floors and seeds.

    PYTHONPATH=<tree>/src python tests/accuracy_grid.py
    python tests/accuracy_grid.py --against REF

Without PYTHONPATH the grid runs on this tree's src/.

It measures noise robustness through the synthesis loop, not the model's
truth.  `compare` synthesizes each material with the same first-order
perturbation model that it inverts, so a noiseless run reads mu back to
round-off however wrong that model is for the real bar; the errors below
are what the noise, the Q reading and the pairing add.  The slab oracle
(tests/slab_oracle.py) and a 2-D solve of the bar (ROADMAP item 4)
measure the model's truth.

Runs permeameter.cli.compare_rows in-process on the test suite's base
config and 6-material roster, with the derived model at n = 4: 3
interactions x 2 Q methods x {none, -100, -90, -80, -70, -60 dB} noise
floor x synth seeds 2000-2019, 720 runs.  Per cell it prints the runs
that finish; the rms and max relative error of mu' and of tan_dm, for
the modified and the conventional result, over every row of the runs
that finish; the share of those rows where the conventional error is
smaller; and the runs that fail, by error class.  A row whose
conventional inversion failed counts in no conventional figure and is
listed with the failures as `conventional-none`.

A second table follows (ROADMAP item 3's lossless rosters): one-material
rosters, mu' = 1.05 to 3.00 in steps of 0.05 with tan_dm 0, noiseless,
on the same config; per interaction and Q method it prints the share of
runs that exit 4 (an UnphysicalResultError) and any other failures, by
error class.

The grid and its seeds are fixed; no figure has a bound, and tier-1 runs
only a one-cell grid, to check that the script prints
(tests/test_accuracy_grid.py).  `--against REF` extracts REF's src/ with
tests/git_tree.py, runs this script on that copy and on the working
tree's src/, one after the other, and prints both tables.  The script is
not named test_*, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

# after PYTHONPATH, so a tree given there is the one imported
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from conftest import BASE_CONFIG, TABLE_MATERIALS  # noqa: E402
from git_tree import ROOT, checked_out  # noqa: E402
from permeameter.cli import compare_rows  # noqa: E402
from permeameter.config import load_config, load_materials  # noqa: E402
from permeameter.errors import NearCriticalCouplingWarning, PermeameterError  # noqa: E402

INTERACTIONS = ("transverse-hz", "axial-hx", "both-components")
Q_METHODS = ("lorentzian-fit", "three-db")
NOISE_FLOORS_DB = (None, -100.0, -90.0, -80.0, -70.0, -60.0)
SEEDS = tuple(range(2000, 2020))
#: mu' of the lossless one-material rosters: 1.05 to 3.00 in steps of 0.05.
LOSSLESS_MU_RE = tuple(round(1.0 + 0.05 * k, 2) for k in range(1, 41))
PARTS = ("mu_re", "tan_dm")


def load(work: Path, interaction: str, q_method: str, noise: float | None):
    """The base config with the derived model at n = 4 and these options, read by load_config."""
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["extraction"].update(model="derived", interaction=interaction, q_method=q_method)
    doc["mode"]["n"] = 4
    doc["synth"]["noise_floor_db"] = noise
    path = work / "config.json"
    path.write_text(json.dumps(doc))
    return load_config(path)


def roster(work: Path, materials: list[dict]) -> list[dict]:
    path = work / "materials.json"
    path.write_text(json.dumps(materials))
    return load_materials(path)


def attempt(cfg, materials: list[dict]) -> list[dict] | PermeameterError:
    """compare_rows' rows, or the error that stopped it."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearCriticalCouplingWarning)
            return compare_rows(cfg, materials)
    except PermeameterError as exc:
        return exc


def failures(results: list) -> collections.Counter:
    """The errors among attempt's results, counted by class name."""
    return collections.Counter(type(r).__name__ for r in results if not isinstance(r, list))


def spread(errors: list[float]) -> str:
    """rms/max of relative errors, or '-' for none."""
    if not errors:
        return "-"
    return f"{math.sqrt(sum(e * e for e in errors) / len(errors)):.2g}/{max(errors):.2g}"


def tally(counts: collections.Counter) -> str:
    return " ".join(f"{name}x{n}" for name, n in sorted(counts.items())) or "-"


def cell(results: list) -> str:
    """Runs that finish, the four error spreads, the conventional-closer shares and the failures."""
    rows = [row for result in results if isinstance(result, list) for row in result]
    failed = failures(results)
    failed["conventional-none"] = sum(row["mu_re_conventional"] is None for row in rows)
    errors = collections.defaultdict(list)
    closer = dict.fromkeys(PARTS, 0)
    for row, part in itertools.product(rows, PARTS):
        actual = row[f"{part}_actual"]
        errors[part, "modified"].append(abs(row[f"{part}_modified"] - actual) / actual)
        if row[f"{part}_conventional"] is not None:
            errors[part, "conventional"].append(abs(row[f"{part}_conventional"] - actual) / actual)
            closer[part] += errors[part, "conventional"][-1] < errors[part, "modified"][-1]
    done = sum(isinstance(result, list) for result in results)
    spreads = [spread(errors[part, result]) for result in ("modified", "conventional") for part in PARTS]
    shares = "/".join(f"{closer[part] / len(rows):.2f}" for part in PARTS) if rows else "-"
    return (f"{f'{done}/{len(results)}':>5}  " + "  ".join(f"{s:<15}" for s in spreads)
            + f"  {shares:<11}  {tally(+failed)}")


def report(interactions=INTERACTIONS, q_methods=Q_METHODS, floors=NOISE_FLOORS_DB, seeds=SEEDS,
           lossless_mu_re=LOSSLESS_MU_RE) -> None:
    """Print the noise grid's table, then the lossless table, over these axes."""
    print(f"# compare_rows on the base config and {len(TABLE_MATERIALS)}-material roster, "
          f"derived model, n = 4, seeds {seeds[0]}-{seeds[-1]}")
    print("# relative error rms/max over the rows of the runs that finish; "
          "conv closer: share of rows where the conventional error is smaller, mu_re/tan_dm")
    print(f"{'interaction':<16} {'q method':<15} {'floor':>5}  {'done':>5}  {'modified mu_re':<15}  "
          f"{'modified tan_dm':<15}  {'conv. mu_re':<15}  {'conv. tan_dm':<15}  {'conv closer':<11}  failures")
    with tempfile.TemporaryDirectory() as name:
        work = Path(name)
        table = roster(work, TABLE_MATERIALS)
        for interaction, q_method, noise in itertools.product(interactions, q_methods, floors):
            cfg = load(work, interaction, q_method, noise)
            results = [attempt(replace(cfg, synth=replace(cfg.synth, seed=s)), table) for s in seeds]
            floor = "none" if noise is None else f"{noise:g}"
            print(f"{interaction:<16} {q_method:<15} {floor:>5}  {cell(results)}")

        print(f"# lossless one-material rosters, mu_re = {lossless_mu_re[0]:.2f} to "
              f"{lossless_mu_re[-1]:.2f}, tan_dm 0, noiseless: the share that exits 4, "
              "and the other failures")
        print(f"{'interaction':<16} {'q method':<15} {'exit 4':>6}  other failures")
        for interaction, q_method in itertools.product(interactions, q_methods):
            cfg = load(work, interaction, q_method, None)
            results = [attempt(cfg, roster(work, [{"name": "M", "mu_re": mu_re, "tan_dm": 0.0}]))
                       for mu_re in lossless_mu_re]
            failed = failures(results)
            shown = f"{failed.pop('UnphysicalResultError', 0)}/{len(results)}"
            print(f"{interaction:<16} {q_method:<15} {shown:>6}  {tally(failed)}")


def against(ref: str) -> None:
    """Run the grid on REF's src/ and on the working tree's; print both tables."""
    with checked_out(ref, "src") as tree:
        for label, src in ((ref, tree / "src"), ("working tree", ROOT / "src")):
            run = subprocess.run([sys.executable, __file__], stdout=subprocess.PIPE, text=True,
                                 env={**os.environ, "PYTHONPATH": str(src)})
            if run.returncode:
                raise SystemExit(f"the grid run on {label} failed")
            print(f"## {label}\n{run.stdout}", end="")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--against", metavar="REF", help="git revision to tabulate beside this tree")
    args = parser.parse_args()
    if args.against:
        against(args.against)
    else:
        report()
