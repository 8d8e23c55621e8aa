"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [ACCEPTANCE] pass/fail line via the conftest hook.
"""

import json
import time

import numpy as np
import pytest

from permeameter import (
    CavitySpec,
    ComplexPermeability,
    GeometryFactor,
    InteractionChoice,
    ModeSpec,
    Resonance,
    SampleSpec,
    SynthConfig,
    find_resonances,
    fit_lorentzian,
    fractional_shift_closed,
    geometry_factor,
    geometry_factor_derived,
    invert_permeability,
    lorentzian_trace,
    mode_field,
    parse_touchstone,
    wavenumbers,
    write_touchstone,
)
from permeameter.cli import main
from permeameter.errors import TouchstoneParseError

from conftest import TABLE_MATERIALS
from touchstone_reference import reference_write_touchstone


# ---------------------------------------------------------------------------
# criteria 1 and 2 share one compare run
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def compare_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("compare")
    config = {
        "cavity": {"width_a_mm": 30.0, "length_l_mm": 60.0, "height_h_mm": 1.57,
                   "eps_r": 2.2, "mu_rs": 1.0},
        "sample": {"extent_x_l1_mm": 10.0, "extent_z_a1_mm": 2.0, "thickness_mm": 1.57},
        "mode": {"n": 4},
        "extraction": {"q_method": "lorentzian-fit", "interaction": "transverse-hz",
                       "model": "quadrature", "cells_per_axis": 64},
        "synth": {"q0_empty": 800.0, "il_linear": 0.3, "n_points": 4001,
                  "span_bandwidths": 40.0, "noise_floor_db": None, "seed": 7},
    }
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(config))
    mat_path = tmp / "materials.json"
    mat_path.write_text(json.dumps(TABLE_MATERIALS))
    out_csv = tmp / "table.csv"
    start = time.perf_counter()
    code = main(["--config", str(cfg_path), "compare",
                 "--materials", str(mat_path), "--out-csv", str(out_csv)])
    elapsed = time.perf_counter() - start
    assert code == 0
    header, *rows = out_csv.read_text().splitlines()
    columns = header.split(",")
    parsed = [dict(zip(columns, line.split(","))) for line in rows]
    return parsed, elapsed


def test_criterion_1_material_band_reproduction(compare_run):
    rows, elapsed = compare_run
    assert elapsed < 10.0
    assert len(rows) == 6
    for row in rows:
        mu_actual = float(row["mu_re_actual"])
        mu_got = float(row["mu_re_modified"])
        assert abs(mu_got - mu_actual) / mu_actual <= 0.01, row["material"]
        if row["material"] == "Y":
            continue  # reference loss tangent for this row is anomalous
        tan_actual = float(row["tan_dm_actual"])
        tan_got = float(row["tan_dm_modified"])
        assert abs(tan_got - tan_actual) / tan_actual <= 0.06, row["material"]


def test_criterion_2_conventional_baseline_is_worse(compare_run):
    rows, _ = compare_run
    err_modified = np.mean(
        [abs(float(r["mu_re_modified"]) - float(r["mu_re_actual"])) for r in rows]
    )
    err_conventional = np.mean(
        [abs(float(r["mu_re_conventional"]) - float(r["mu_re_actual"])) for r in rows]
    )
    assert err_conventional > err_modified


# ---------------------------------------------------------------------------
# criterion 3: closed form vs quadrature across random geometries
# ---------------------------------------------------------------------------


def random_geometry(rng):
    a = rng.uniform(0.012, 0.08)
    l = a * rng.uniform(1.2, 3.0)
    h = a * rng.uniform(0.02, 0.08)
    cavity = CavitySpec(a, l, h, rng.uniform(1.0, 10.0))
    sample = SampleSpec(
        a * rng.uniform(0.08, 0.92),
        l * rng.uniform(0.08, 0.92),
        h * rng.uniform(0.3, 1.0),
    )
    mode = ModeSpec(int(rng.choice([2, 4])))
    # keep |re| < 1 even for a near-full sample with the both-components
    # factor (g -> 1), where re = -(mu_re - 1)/2 * g
    mu = ComplexPermeability.from_loss_tangent(
        rng.uniform(1.05, 2.5), rng.uniform(0.0, 0.3)
    )
    return cavity, sample, mode, mu


def test_criterion_3_oracle_equivalence_and_self_convergence():
    start = time.perf_counter()
    rng = np.random.default_rng(20260810)
    for _ in range(50):
        cavity, sample, mode, mu = random_geometry(rng)
        for choice in InteractionChoice:
            closed = fractional_shift_closed(
                mu, cavity.mu_rs, geometry_factor_derived(cavity, sample, mode, choice)
            )
            g_64, g_128 = (
                geometry_factor(cavity, sample, mode, "quadrature", choice, m) for m in (64, 128)
            )
            quad_64 = fractional_shift_closed(mu, cavity.mu_rs, g_64)
            quad_128 = fractional_shift_closed(mu, cavity.mu_rs, g_128)
            rel = abs(quad_64 - closed) / abs(closed)
            assert rel < 1e-7, (cavity, sample, mode.n, choice)
            self_delta = abs(quad_64 - quad_128) / abs(quad_128)
            assert self_delta < 1e-6, (cavity, sample, mode.n, choice)
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# criterion 4: algebraic round trip
# ---------------------------------------------------------------------------


def test_criterion_4_inversion_round_trip():
    rng = np.random.default_rng(41)
    g = GeometryFactor(1.114462393507e-5, "quadrature-transverse-hz")
    for _ in range(100):
        mu = ComplexPermeability.from_loss_tangent(
            rng.uniform(1.0, 5.0), rng.uniform(0.0, 0.3)
        )
        back = invert_permeability(fractional_shift_closed(mu, 1.0, g), g, 1.0)
        assert abs(back.mu_re - mu.mu_re) / mu.mu_re < 1e-12
        if mu.mu_im > 0:
            assert abs(back.mu_im - mu.mu_im) / mu.mu_im < 1e-12
        else:
            assert abs(back.mu_im) < 1e-15


# ---------------------------------------------------------------------------
# criterion 5: Q extraction accuracy
# ---------------------------------------------------------------------------


def test_criterion_5_q_extraction_accuracy():
    start = time.perf_counter()
    f0, q_loaded, il = 7.5e9, 500.0, 0.5
    res = Resonance.from_loaded(f0, q_loaded, il, "model")
    span = 40.0 * f0 / q_loaded
    noiseless = SynthConfig(f0 - span / 2, f0 + span / 2, 1001, None, 0, il)
    trace = lorentzian_trace(res, noiseless)
    fit = fit_lorentzian(trace, find_resonances(trace)[0])
    assert abs(fit.q_loaded - q_loaded) / q_loaded < 1e-4
    noisy_cfg = SynthConfig(f0 - span / 2, f0 + span / 2, 1001, -60.0, 4242, il)
    noisy = lorentzian_trace(res, noisy_cfg)
    fit_noisy = fit_lorentzian(noisy, find_resonances(noisy)[0])
    assert abs(fit_noisy.q_loaded - q_loaded) / q_loaded < 0.02
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# criterion 6: Touchstone conformance corpus
# ---------------------------------------------------------------------------

VALID_CORPUS = [
    # (label, file text)
    ("ri_hz", "# HZ S RI R 50\n1e9 0.1 -0.2 0.5 0.25 0.5 0.25 0.1 -0.2\n2e9 0 0.1 0.4 -0.3 0.4 -0.3 0 0.1\n"),
    ("ri_ghz", "! campaign export\n# GHZ S RI R 50\n1.0 0.1 0 0.5 0 0.5 0 0.1 0\n2.5 0 0 0.25 0.1 0.25 0.1 0 0\n"),
    ("ma_hz", "# HZ S MA R 50\n1e9 0.9 -12 0.5 45 0.5 45 0.9 -12\n2e9 0.8 -24 0.25 90 0.25 90 0.8 -24\n"),
    ("ma_ghz_lower", "# ghz s ma r 50\n3.1 0.5 10 0.71 -170 0.71 -170 0.5 10\n3.2 0.4 20 0.6 150 0.6 150 0.4 20\n"),
    ("db_hz", "# HZ S DB R 50\n1e9 -20 5 -6.0206 0 -6.0206 0 -20 5\n2e9 -30 15 -12 90 -12 90 -30 15\n"),
    ("db_ghz_comment", "# GHZ S DB R 50 ! exported\n7.5 -40 0 -3.5 12 -3.5 12 -40 0 ! marker\n7.6 -42 3 -4.5 24 -4.5 24 -42 3\n"),
    ("ri_sci", "# HZ S RI R 50\n1.0E+09 1.0e-1 0.0E0 5.0e-1 0 5.0e-1 0 1.0e-1 0\n2.0E+09 0 0 2.5e-1 0 2.5e-1 0 0 0\n"),
    ("ma_blank_lines", "# HZ S MA R 50\n\n1e9 0.9 0 0.5 30 0.5 30 0.9 0\n\n2e9 0.8 0 0.4 60 0.4 60 0.8 0\n\n"),
    ("db_z0_75", "# HZ S DB R 75\n1e9 -10 0 -6 45 -6 45 -10 0\n2e9 -12 0 -7 90 -7 90 -12 0\n"),
    ("ri_many_points", "# GHZ S RI R 50\n" + "".join(
        f"{1 + 0.1 * i:.2f} 0.0{i} 0 0.{i + 1} 0 0.{i + 1} 0 0.0{i} 0\n" for i in range(10)
    )),
    ("ma_negative_angles", "# GHZ S MA R 50\n5.5 0.123456 -179.5 0.654321 -0.25 0.654321 -0.25 0.123456 -179.5\n5.6 0.2 -90 0.5 -45 0.5 -45 0.2 -90\n"),
    ("ri_tabs", "# HZ	S	RI	R	50\n1e9\t0.1\t0\t0.5\t0\t0.5\t0\t0.1\t0\n2e9\t0\t0\t0.25\t0\t0.25\t0\t0\t0\n"),
    ("option_any_order", "# S RI R 50 GHZ\n7.5 0.1 0 0.5 0.2 0.5 0.2 0.1 0\n7.6 0.1 0 0.4 0.3 0.4 0.3 0.1 0\n"),
    ("option_defaults", "#\n7.5 0.1 0 0.5 20 0.5 20 0.1 0\n7.6 0.1 0 0.4 30 0.4 30 0.1 0\n"),
    ("noise_block", "# GHZ S MA R 50\n7.5 0.1 0 0.5 20 0.5 20 0.1 0\n7.6 0.1 0 0.4 30 0.4 30 0.1 0\n"
     "! noise parameters\n7.5 1.2 0.3 45 0.4\n7.6 1.3 0.31 50 0.41\n"),
    # NEL (cp1252's ellipsis) and a form feed in comments end no line
    ("comment_nel_ff", "! measured \x85 by VNA\x0c\r\n# HZ S RI R 50\r\n"
     "1e9 0.1 0 0.5 0 0.5 0 0.1 0 ! \x85\r\n2e9 0 0 0.25 0.1 0.25 0.1 0 0\r\n"),
]

MALFORMED_CORPUS = [
    # (label, file text, 1-based error line)
    ("data_before_option", "1e9 0 0 0.5 0 0 0 0 0\n# HZ S RI R 50\n", 1),
    ("unknown_format", "! header\n# HZ S XY R 50\n1e9 0 0 0 0 0 0 0 0\n", 2),
    ("wrong_columns", "# HZ S RI R 50\n1e9 0 0 0.5 0 0 0 0 0\n2e9 0 0 0.5\n", 3),
    ("non_increasing", "# HZ S RI R 50\n1e9 0 0 0.5 0 0 0 0 0\n2e9 0 0 0.5 0 0 0 0 0\n1.5e9 0 0 0.5 0 0 0 0 0\n", 4),
    ("v2_file", "[Version] 2.0\n# HZ S RI R 50\n", 1),
    ("bad_number", "# HZ S RI R 50\n1e9 0 0 half 0 0 0 0 0\n", 2),
    ("double_option", "# HZ S RI R 50\n1e9 0 0 0.5 0 0 0 0 0\n# HZ S RI R 50\n", 3),
    ("db_level_overflows", "# HZ S DB R 50\n1e9 0 0 20000 0 0 0 0 0\n", 2),
    ("frequency_overflows_in_hz", "# GHZ S RI R 50\n1e300 0 0 0.5 0 0 0 0 0\n", 2),
    ("nan_in_data_row", "# HZ S RI R 50\n1e9 0 0 nan 0 0 0 0 0\n", 2),
    ("inf_in_data_row", "# HZ S RI R 50\n1e9 0 0 0.5 0 0 0 0 0\n2e9 0 0 0.5 0 0 0 0 -inf\n", 3),
    ("noise_row_short", "# HZ S RI R 50\n1e9 0 0 0.5 0 0 0 0 0\n2e9 0 0 0.5 0 0 0 0 0\n"
     "1e9 1.2 0.3 45 0.4\n2e9 1.3 0.31 50\n", 5),
    ("noise_non_increasing", "# HZ S RI R 50\n1e9 0 0 0.5 0 0 0 0 0\n2e9 0 0 0.5 0 0 0 0 0\n"
     "1e9 1.2 0.3 45 0.4\n2e9 1.3 0.31 50 0.41\n2e9 1.4 0.32 55 0.42\n", 6),
]


def test_criterion_6_touchstone_conformance():
    assert len(VALID_CORPUS) >= 12
    for label, text in VALID_CORPUS:
        first = parse_touchstone(text.encode())
        # the program writes RI, which parses back bit for bit
        again = parse_touchstone(write_touchstone(first))
        for a, b in ((again.freqs, first.freqs), (again.s21, first.s21), (again.s11, first.s11)):
            assert a.tobytes() == b.tobytes(), label
        # a VNA may also save MA or DB, written here by the reference writer
        for fmt in ("MA", "DB"):
            again = parse_touchstone(reference_write_touchstone(first, fmt))
            np.testing.assert_allclose(
                again.freqs, first.freqs, rtol=1e-12, err_msg=label
            )
            np.testing.assert_allclose(
                again.s21, first.s21, rtol=1e-12, atol=1e-15, err_msg=label
            )
            np.testing.assert_allclose(
                again.s11, first.s11, rtol=1e-12, atol=1e-15, err_msg=label
            )
    assert len(MALFORMED_CORPUS) >= 6
    for label, text, line in MALFORMED_CORPUS:
        with pytest.raises(TouchstoneParseError) as err:
            parse_touchstone(text.encode())
        assert err.value.line == line, label


# ---------------------------------------------------------------------------
# criterion 7: field invariant suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_criterion_7_field_invariants(n):
    cavity = CavitySpec(0.030, 0.060, 0.00157, 2.2)
    mode = ModeSpec(n)
    a, l = cavity.a_eff, cavity.length_l
    k_x, k_z = wavenumbers(cavity, mode)
    k_scale = max(k_x, k_z)
    rng = np.random.default_rng(700 + n)
    x = rng.uniform(0.0, a, 1000)
    z = rng.uniform(0.0, l, 1000)
    base = mode_field(cavity, mode, x, z)
    mag = np.hypot(base.h_x, base.h_z)
    for xm, zm in ((a - x, z), (x, l - z)):
        mirrored = mode_field(cavity, mode, xm, zm)
        np.testing.assert_allclose(
            np.hypot(mirrored.h_x, mirrored.h_z), mag,
            rtol=1e-9, atol=1e-9 * k_scale,
        )
    # wall conditions
    zero = np.zeros(1000)
    for wall_x in (zero, np.full(1000, a)):
        fp = mode_field(cavity, mode, wall_x, z)
        assert np.max(np.abs(fp.e_y_rel)) < 1e-9
        assert np.max(np.abs(fp.h_x)) < 1e-9 * k_scale
    for wall_z in (zero, np.full(1000, l)):
        fp = mode_field(cavity, mode, x, wall_z)
        assert np.max(np.abs(fp.e_y_rel)) < 1e-9
        assert np.max(np.abs(fp.h_z)) < 1e-9 * k_scale
    # even-mode center conditions
    if mode.is_even:
        center = mode_field(cavity, mode, a / 2, l / 2)
        assert abs(center.e_y_rel) < 1e-12
        assert abs(center.h_z) < 1e-9 * k_scale
        along = mode_field(cavity, mode, x, np.full(1000, l / 2))
        assert np.all(abs(center.h_x) >= np.abs(along.h_x) - 1e-9 * k_scale)


# ---------------------------------------------------------------------------
# criterion 8: printed-formula diagnostic is reported, never asserted
# ---------------------------------------------------------------------------


def test_criterion_8_printed_formula_diagnostic(tmp_path, capsys):
    config = {
        "cavity": {"width_a_mm": 30.0, "length_l_mm": 60.0, "height_h_mm": 1.57,
                   "eps_r": 2.2, "mu_rs": 1.0},
        "sample": {"extent_x_l1_mm": 10.0, "extent_z_a1_mm": 2.0, "thickness_mm": 1.57},
        "mode": {"n": 4},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["--config", str(cfg_path), "quadcheck", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    deviation = doc["deviation_printed_vs_derived_transverse-hz"]
    # the printed prefactor disagrees with the field-integral routes by a
    # large factor; the report carries the number without judging it
    assert deviation is not None and deviation > 0
    assert doc["g_printed"] > 0
    assert doc["deviation_derived_vs_quadrature_transverse-hz"] < 1e-7
