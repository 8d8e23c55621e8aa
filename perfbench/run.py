"""permeameter benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME `all` runs the four workloads in turn and prints one result line
per workload, each with a "workload" key added.

Run from the root of a source checkout; the program is imported from its
src/.  The run starts WORKERS fresh worker processes one after another.
Each imports the program, builds the workload's inputs from the seed,
warms up, then repeats whole rounds of operations, one at a time, for
S / WORKERS seconds of operation time, and checks every output against
the oracle.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the rounds alternate
traced and untraced and the metrics are the per-layer ones.  Summary
lines and any faults go to standard error; spans go to
.perfbench/<workload>-seed<N>-trace<T>/spans-w<k>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("extract-vna", "compare-roster", "extract-sweep", "cli-oneshot")
WORKERS = 3
#: numpy's thread pools are capped to one thread: one caller, one core.
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: Per worker, the time a run allows beyond its share of --seconds: interpreter
#: start, imports, inputs, warm-up, checks and the overrun of the last round.
WORKER_ALLOWANCE_S = 40

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Worker: one process, one set-up, whole rounds of operations
# ---------------------------------------------------------------------------


def worker(args) -> int:
    start = time.perf_counter()
    import permeameter.cli  # first, so that this is a fresh import

    import_ms = (time.perf_counter() - start) * 1e3
    if not Path(permeameter.cli.__file__).resolve().is_relative_to(SRC):
        print(f"permeameter imported from {permeameter.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    tracer = spans.Tracer()
    work = Path(args.work) / f"w{args.worker}"
    work.mkdir(parents=True)
    ops = workloads.build(args.workload, args.seed, args.worker, work, tracer)
    in_process = args.workload != "cli-oneshot"
    if in_process:
        tracer.import_ms.append(import_ms)
        ops[0].run()  # warm-up

    budget = args.seconds / WORKERS
    lat, ok, samples, traced, faults, known = [], [], [], [], [], []
    setup_s = time.monotonic() - args.t0
    spent = 0.0
    rnd = 0
    while spent < budget or (args.trace and rnd < 2):
        tracing = bool(args.trace) and rnd % 2 == 0
        if tracing and in_process:
            tracer.install()
        for op in ops:
            begin = time.perf_counter()
            try:
                if not tracing:
                    out = op.run()
                elif in_process:
                    out = tracer.operation(op.run)
                else:
                    out = op.traced_run()
            except Exception as exc:  # every failure is counted and judged below
                out, failure = None, exc
            else:
                failure = None
            elapsed = time.perf_counter() - begin
            spent += elapsed
            lat.append(elapsed)
            ok.append(failure is None)
            samples.append(op.samples)
            traced.append(tracing)
            if failure is None:
                fault = op.check(out)
            elif not op.may_fail:
                fault = f"unexpected failure: {type(failure).__name__}: {failure}"
            elif not workloads.expected_failure(failure):
                fault = f"failure outside the error taxonomy: {type(failure).__name__}: {failure}"
            else:
                fault = None
            if isinstance(fault, workloads.KnownFault):
                known.append(fault)
            elif fault and len(faults) < 20:
                faults.append(fault)
        if tracer.installed:
            tracer.uninstall()
        rnd += 1

    usage = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    shutil.rmtree(work)
    if args.trace:
        tracer.dump(Path(args.work) / f"spans-w{args.worker}.jsonl")
    print(json.dumps({
        "setup_s": setup_s,
        "lat": lat,
        "ok": ok,
        "samples": samples,
        "traced": traced,
        "faults": faults,
        "known": known,
        "rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        "layers": tracer.totals(),
        "traced_ops": tracer.ops,
        "import_ms": tracer.import_ms,
    }))
    return 0


# ---------------------------------------------------------------------------
# Parent: start the workers in turn and aggregate
# ---------------------------------------------------------------------------


def end_to_end(results: list[dict]) -> dict:
    lat = [x for r in results for x in r["lat"]]
    done = sum(s for r in results for s, k in zip(r["samples"], r["ok"]) if k)
    return {
        "latency_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "samples_per_s": {"value": done / sum(lat), "unit": "samples/s"},
        "peak_rss_mb": {"value": max(r["rss_mb"] for r in results), "unit": "MB"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in results), "unit": "s"},
    }


def per_layer(results: list[dict]) -> dict:
    layers: dict = {}
    for r in results:
        for name, entry in r["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "count": 0, "fallbacks": 0})
            for key in acc:
                acc[key] += entry[key]
    ops = sum(r["traced_ops"] for r in results)
    empty = {"calls": 0, "self_s": 0.0, "count": 0, "fallbacks": 0}

    def get(name):
        return layers.get(name, empty)

    def ms(name):
        return get(name)["self_s"] * 1e3 / ops

    parse, find = get("traceio.parse_touchstone"), get("traceio.find_resonances")
    lat_traced = [x for r in results for x, t in zip(r["lat"], r["traced"]) if t]
    lat_plain = [x for r in results for x, t in zip(r["lat"], r["traced"]) if not t]
    values = {
        "cli.import_ms": (statistics.median(x for r in results for x in r["import_ms"]), "ms"),
        "cli.load_config_ms": (ms("cli.load_config"), "ms"),
        "cli.extract_report_self_ms": (ms("cli.extract_report"), "ms"),
        "cli.compare_rows_self_ms": (ms("cli.compare_rows"), "ms"),
        "traceio.parse_touchstone_ms": (ms("traceio.parse_touchstone"), "ms"),
        "traceio.parse_touchstone_mb_per_s": (
            parse["count"] / 1e6 / parse["self_s"] if parse["self_s"] else 0.0, "MB/s"),
        "traceio.write_touchstone_ms": (ms("traceio.write_touchstone"), "ms"),
        "traceio.touchstone_bytes_per_op": (get("traceio.write_touchstone")["count"] / ops, "bytes"),
        "traceio.find_resonances_ms": (ms("traceio.find_resonances"), "ms"),
        "traceio.peaks_per_trace": (find["count"] / find["calls"] if find["calls"] else 0.0, "count"),
        "traceio.fit_lorentzian_ms": (ms("traceio.fit_lorentzian"), "ms"),
        "traceio.fit_lorentzian_calls_per_op": (get("traceio.fit_lorentzian")["calls"] / ops, "count"),
        "traceio.fit_fallbacks": (get("traceio.fit_lorentzian")["fallbacks"] / ops, "count"),
        "traceio.q_3db_ms": (ms("traceio.q_3db"), "ms"),
        "traceio.pairs_per_peak": (
            2 * get("cli.extract_report")["count"] / find["count"] if find["count"] else 0.0, "ratio"),
        "perturbation.sample_energy_quadrature_ms": (ms("perturbation.sample_energy_quadrature"), "ms"),
        "perturbation.sample_energy_quadrature_calls_per_op": (
            get("perturbation.sample_energy_quadrature")["calls"] / ops, "count"),
        "perturbation.geometry_factor_derived_ms": (ms("perturbation.geometry_factor_derived"), "ms"),
        "synth.forward_load_ms": (ms("synth.forward_load"), "ms"),
        "synth.forward_load_calls_per_op": (get("synth.forward_load")["calls"] / ops, "count"),
        "synth.lorentzian_trace_ms": (ms("synth.lorentzian_trace"), "ms"),
        "synth.synth_campaign_self_ms": (ms("synth.synth_campaign"), "ms"),
        "trace.overhead_ms": (
            (statistics.median(lat_traced) - statistics.median(lat_plain)) * 1e3, "ms"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def summary(name: str, results: list[dict]) -> str:
    """Median and the highest percentile with ten operations beyond it."""
    lat = sorted(x for r in results for x, t in zip(r["lat"], r["traced"]) if not t)
    n = len(lat)
    line = f"{name}: {n} untraced ops, median {statistics.median(lat) * 1e3:.3f} ms" if n else f"{name}: no untraced ops"
    if n >= 40:
        pct = 100 * (1 - 10 / n)
        line += f", p{pct:.1f} {lat[n - 11] * 1e3:.3f} ms"
    setups = ", ".join(f"{r['setup_s']:.3f}" for r in results)
    known = sum(len(r["known"]) for r in results)
    return line + f"; set-ups {setups} s; {known} ops match a known fault"


def run_workload(name: str, args) -> dict | None:
    """Start the workers of one run in turn; the run's result, or None."""
    work = ROOT / ".perfbench" / f"{name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work / "tmp"))
    env.update({cap: "1" for cap in THREAD_CAPS})
    results = []
    allowed_s = args.seconds + WORKERS * WORKER_ALLOWANCE_S
    deadline = time.monotonic() + allowed_s
    for k in range(WORKERS):
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--worker", str(k), "--t0", repr(t0), "--work", str(work)],
                env=env, capture_output=True, text=True, timeout=max(1.0, deadline - t0),
            )
        except subprocess.TimeoutExpired:
            print(f"worker {k} did not finish within the run's {allowed_s:g} s", file=sys.stderr)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"worker {k} exited with {proc.returncode}", file=sys.stderr)
            return None
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    shutil.rmtree(work / "tmp" if args.trace else work)
    faults = [f for r in results for f in r["faults"]]
    for fault in faults:
        print(f"FAULT {fault}", file=sys.stderr)
    known = [f for r in results for f in r["known"]]
    for fault in dict.fromkeys(known):
        print(f"KNOWN q_3db peak-sample target: {fault}", file=sys.stderr)
    print(summary(name, results), file=sys.stderr)
    return {
        "correct": not faults,
        "attempted": sum(len(r["lat"]) for r in results),
        "failed": sum(not k for r in results for k in r["ok"]),
        "metrics": per_layer(results) if args.trace else end_to_end(results),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker is not None:
        return worker(args)
    if not (SRC / "permeameter" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'permeameter'} is missing", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    for name in WORKLOADS:
        result = run_workload(name, args)
        if result is None:
            return 1
        print(json.dumps({"workload": name, **result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
