"""A/B the benchmark: alternating pairs of runs, a git revision against the working tree.

    python tests/bench_pairs.py --against HEAD --workload extract-sweep --seeds 12-21

--workload takes a comma-separated list of workloads, by default those
that BENCHMARK.json names; `all` is refused, since run.py's `all` also
runs the ungated extract-vna.  Each pair runs, for every listed workload
W in turn, `perfbench/run.py --workload W --seed s --seconds S --trace
0` once on REF and once on the working tree, one run at a time; which
side goes first alternates from pair to pair.  REF is extracted with
`git archive` into a temporary directory by tests/git_tree.py, as for
`output_grid.py --against`, and its own perfbench/ runs its own src/.
Per workload, for every pair the script prints each end-to-end metric
of both sides, whether the run was correct, its failed share and its
count of KNOWN lines.  Then,
per metric: each side's median and quartiles, the number of pairs the
working tree wins (BENCHMARK.json says which way is better), and whether
the gap between the medians is wider than REF's quartile spread, and
whether these meet the claim rule: a gain holds only if the tree wins
at least nine tenths of the pairs (a tie counts for neither side), its
median is better than REF's by more than REF's quartile spread, and no
pair's failed share is higher on the tree.  The verdict covers only the
pairs of this invocation; a claim is judged on every pair run for it,
so pool the lines of several invocations before reading it as one.  It
also applies the benchmark's reject rules: per metric, whether the
tree's median is worse than REF's by more than that metric's `bound` in
BENCHMARK.json (a fraction of REF's median), and whether any pair shows
a higher failed share on the tree than on REF.  The header gives the
pair count and --seconds; below 10 pairs, or below BENCHMARK.json's
run_seconds, every gain and bound line ends "advisory: below the claim
rule", since so few or so short runs can read equal-cost code as worse
or better than it is.  It exits 1 if, on any
workload, a run fails, a run reads `correct: false`, a median is worse
than its bound allows or a pair's failed share rises.  The script is not
named test_*, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from git_tree import ROOT, checked_out

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    """'12-21' or '3,5,8' as a list of seeds."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def workloads(text: str) -> list[str]:
    """'compare-roster,cli-oneshot' as a list of workload names; not 'all'."""
    names = [name for name in text.split(",") if name]
    if "all" in names:
        raise argparse.ArgumentTypeError("'all' also runs the ungated extract-vna; list the workloads")
    if not names:
        raise argparse.ArgumentTypeError("name at least one workload")
    return names


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run on a checkout: its result line, with the stderr KNOWN count."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode:
        raise SystemExit(f"{tree}: run exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["known"] = sum(line.startswith("KNOWN") for line in proc.stderr.splitlines())
    return result


def failed_share(result: dict) -> float:
    return result["failed"] / result["attempted"] if result["attempted"] else 0.0


def report(pairs: list[tuple[int, dict, dict]], ref: str, note: str) -> int:
    """Print the pairs and each metric's verdicts, each verdict line ending in note."""
    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    names = [name for name in metrics if name in pairs[0][1]["metrics"]]
    rejected = False
    risen = [seed for seed, old, new in pairs if failed_share(new) > failed_share(old)]
    for seed, old, new in pairs:
        cells = [f"{name} {old['metrics'][name]['value']:.6g} -> {new['metrics'][name]['value']:.6g}"
                 for name in names]
        runs = "; ".join(
            f"{side}: correct {r['correct']}, failed {r['failed']}/{r['attempted']}, KNOWN {r['known']}"
            for side, r in ((ref, old), ("tree", new))
        )
        print(f"seed {seed}: " + ", ".join(cells) + f" [{runs}]")
    for name in names:
        olds = [old["metrics"][name]["value"] for _, old, _ in pairs]
        news = [new["metrics"][name]["value"] for _, _, new in pairs]
        sign = 1.0 if metrics[name]["better"] == "higher" else -1.0
        wins = sum(sign * (b - a) > 0 for a, b in zip(olds, news))
        (o1, o2, o3), (n1, n2, n3) = (statistics.quantiles(v, n=4, method="inclusive") for v in (olds, news))
        print(f"{name}: {ref} {o2:.6g} [{o1:.6g}, {o3:.6g}] -> tree {n2:.6g} [{n1:.6g}, {n3:.6g}]"
              f" ({(n2 - o2) / o2:+.1%}), tree better in {wins} of {len(pairs)},"
              f" median gap {abs(n2 - o2):.4g} {'>' if abs(n2 - o2) > o3 - o1 else '<='}"
              f" {ref} quartile spread {o3 - o1:.4g}")
        gain = 10 * wins >= 9 * len(pairs) and sign * (n2 - o2) > o3 - o1 and not risen
        print(f"{name}: a claimed gain {'holds' if gain else 'does not hold'} over these {len(pairs)} pairs"
              f" (tree better in >= 9/10 of them, by more than {ref}'s quartile spread, no failed share higher)"
              + note)
        bound = metrics[name]["bound"]
        worse = sign * (o2 - n2) > bound * abs(o2)
        rejected |= worse
        print(f"{name}: tree median {'WORSE' if worse else 'not worse'} than {ref}'s"
              f" by more than the bound {bound:.0%}" + note)
    rejected |= bool(risen)
    print(f"failed share higher on the tree than on {ref} in {len(risen)} of {len(pairs)} pairs"
          + (f" (seeds {', '.join(map(str, risen))})" if risen else ""))
    correct = all(r["correct"] for _, *sides in pairs for r in sides)
    return 0 if correct and not rejected else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--against", default="HEAD", metavar="REF", help="git revision to compare with")
    parser.add_argument("--workload", type=workloads, metavar="W[,W...]",
                        default=",".join(w["name"] for w in BENCHMARK["workloads"]),
                        help="workloads to run in each pair (default: those BENCHMARK.json names)")
    parser.add_argument("--seeds", type=seeds, default=seeds("12-21"), help="'12-21' or '3,5,8': one pair each")
    parser.add_argument("--seconds", type=float, default=16.0)
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two pairs")
    advisory = len(args.seeds) < 10 or args.seconds < BENCHMARK["run_seconds"]
    note = "; advisory: below the claim rule" if advisory else ""
    pairs = {workload: [] for workload in args.workload}
    with checked_out(args.against) as tree:
        trees = [tree, ROOT]
        for k, seed in enumerate(args.seeds):
            order = (0, 1) if k % 2 == 0 else (1, 0)
            for workload in args.workload:
                sides = {side: run(trees[side], workload, seed, args.seconds) for side in order}
                pairs[workload].append((seed, sides[0], sides[1]))
            print(f"pair {k + 1} of {len(args.seeds)} done", file=sys.stderr, flush=True)
    print(f"{len(args.seeds)} pairs, --seconds {args.seconds:g}, against {args.against}"
          + (f"{note} (10 pairs at --seconds {BENCHMARK['run_seconds']:g})" if advisory else ""))
    status = 0
    for workload, runs in pairs.items():
        print(f"== {workload}")
        status |= report(runs, args.against, note)
    return status


if __name__ == "__main__":
    sys.exit(main())
