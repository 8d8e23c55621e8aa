"""Per-stage reference timings at 4001 and 40001 trace points.

    PYTHONPATH=src OMP_NUM_THREADS=1 python3 perfbench/stages.py

Times each public stage on the base geometry (the test suite's
BASE_CONFIG) and prints a markdown table of medians in ms, over REPEATS
calls at 4001 points and a third as many at 40001.
"""

import statistics
import time

import numpy as np

import oracle
import workloads
from permeameter import (
    ComplexPermeability,
    FrequencyTrace,
    GeometryFactor,
    InteractionChoice,
    SynthConfig,
    complex_shift_from_resonances,
    find_resonances,
    fit_lorentzian,
    forward_load,
    geometry_factor_derived,
    invert_permeability,
    lorentzian_trace,
    parse_touchstone,
    q_3db,
    sample_energy_quadrature,
    write_touchstone,
)
from permeameter.cli import extract_report, load_config

REPEATS = 15


def median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def stages(n_points: int, repeats: int, work) -> dict:
    case = workloads.make_case(workloads.base_geometry(), "transverse-hz", 1.5, 0.05, 800.0, 0.3)
    freqs = workloads.grid_around(case.empty, n_points)
    rng = np.random.default_rng(0)
    clean = FrequencyTrace(freqs, oracle.lorentzian(freqs, case.empty, None, rng))
    noisy = FrequencyTrace(freqs, oracle.lorentzian(freqs, case.empty, -100.0, rng))
    loaded = FrequencyTrace(freqs, oracle.lorentzian(freqs, case.loaded, None, rng))
    ri17 = write_touchstone(clean)
    vna9 = oracle.touchstone_text(freqs, clean.s21, 1 - clean.s21, "DB", "GHZ", 9, []).encode()
    peak = find_resonances(clean)[0]
    cfg = load_config(workloads.write_config(work, "stages.json", workloads.BASE_CONFIG))
    cavity, sample, mode = cfg.cavity, cfg.sample, cfg.mode
    res_e, res_l = fit_lorentzian(clean, peak), fit_lorentzian(loaded, find_resonances(loaded)[0])
    g = GeometryFactor(case.g, "closed")
    synth_cfg = SynthConfig(freqs[0], freqs[-1], n_points, None, 0, res_e.il_linear)
    mu = ComplexPermeability.from_loss_tangent(1.5, 0.05)
    return {
        "write_touchstone (RI, 17 digits)": median_ms(lambda: write_touchstone(clean), repeats),
        "parse_touchstone (RI, 17 digits)": median_ms(lambda: parse_touchstone(ri17), repeats),
        "parse_touchstone (DB GHZ, 9 digits)": median_ms(lambda: parse_touchstone(vna9), repeats),
        "find_resonances (noiseless)": median_ms(lambda: find_resonances(clean), repeats),
        "find_resonances (-100 dB floor)": median_ms(lambda: find_resonances(noisy), repeats),
        "q_3db": median_ms(lambda: q_3db(clean, peak), repeats),
        "fit_lorentzian": median_ms(lambda: fit_lorentzian(clean, peak), repeats),
        "sample_energy_quadrature (n=4)": median_ms(
            lambda: sample_energy_quadrature(cavity, sample, mode, InteractionChoice.TRANSVERSE_HZ), repeats),
        "geometry_factor_derived (n=4)": median_ms(lambda: geometry_factor_derived(cavity, sample, mode), repeats),
        "shift + invert_permeability": median_ms(
            lambda: invert_permeability(complex_shift_from_resonances(res_e, res_l), g, 1.0), repeats),
        "forward_load (quadrature)": median_ms(lambda: forward_load(cavity, sample, mode, mu, res_e), repeats),
        "lorentzian_trace": median_ms(lambda: lorentzian_trace(res_e, synth_cfg), repeats),
        "extract_report (noiseless pair)": median_ms(lambda: extract_report(cfg, clean, loaded), repeats),
    }


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    scratch = Path(__file__).resolve().parent.parent / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        short, long = stages(4001, REPEATS, Path(tmp)), stages(40001, REPEATS // 3, Path(tmp))
    print("| stage | 4001 points (ms) | 40001 points (ms) |")
    print("| --- | ---: | ---: |")
    for name in short:
        print(f"| {name} | {short[name]:.3f} | {long[name]:.3f} |")
