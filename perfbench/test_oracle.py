"""Tests of the benchmark's own oracles against the program.

    PYTHONPATH=src python3 -m pytest perfbench/test_oracle.py -q
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import oracle
from permeameter import (
    CavitySpec,
    FrequencyTrace,
    InteractionChoice,
    ModeSpec,
    SampleSpec,
    geometry_factor_conventional,
    geometry_factor_derived,
    parse_touchstone,
    q_3db,
    resonant_frequency,
    sample_energy_quadrature,
    stored_field_norm,
)

GEOMETRIES = [
    oracle.Geometry(0.030, 0.060, 0.00157, 2.2, 0.010, 0.002, 0.00157, 1),
    oracle.Geometry(0.025, 0.050, 0.0010, 3.5, 0.012, 0.004, 0.0008, 1),
    oracle.Geometry(0.036, 0.081, 0.0012, 4.4, 0.016, 0.007, 0.0011, 1),
]


def program_geometry(geo: oracle.Geometry):
    return (
        CavitySpec(geo.a, geo.l, geo.h, geo.eps_r),
        SampleSpec(geo.l1, geo.a1, geo.t),
        ModeSpec(geo.n),
    )


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("geo", GEOMETRIES)
def test_closed_form_g_matches_quadrature(geo, n):
    geo = replace(geo, n=n)
    cavity, sample, mode = program_geometry(geo)
    for choice in InteractionChoice:
        quad = sample_energy_quadrature(cavity, sample, mode, choice, 64) / stored_field_norm(cavity, mode)
        assert abs(quad - geo.g(choice.value)) <= oracle.G_RTOL_QUADRATURE * geo.g(choice.value), choice
        if mode.is_even:
            derived = geometry_factor_derived(cavity, sample, mode, choice).value
            assert abs(derived - geo.g(choice.value)) <= oracle.G_RTOL_CLOSED * derived, choice
    conventional = geometry_factor_conventional(cavity, sample, mode).value
    assert abs(conventional - geo.g_conventional()) <= oracle.G_RTOL_CLOSED * conventional
    assert geo.f_res() == pytest.approx(resonant_frequency(cavity, mode), rel=1e-14)


@pytest.mark.parametrize("fmt", ["RI", "MA", "DB"])
@pytest.mark.parametrize("unit", ["HZ", "MHZ", "GHZ"])
def test_touchstone_writer_round_trips(fmt, unit):
    digits = 9
    res = oracle.Resonance(7.05e9, 560.0, 0.3)
    freqs = np.linspace(6.8e9, 7.3e9, 2001)
    s21 = oracle.lorentzian(freqs, res, -100.0, np.random.default_rng(3))
    text = oracle.touchstone_text(freqs, s21, 1 - s21, fmt, unit, digits, ["written by the oracle"])
    trace = parse_touchstone(text.encode("ascii"))
    assert trace.fmt == fmt and trace.z0 == 50.0
    np.testing.assert_allclose(trace.freqs, freqs, rtol=10.0 ** (1 - (digits + 2)))
    # per-sample rounding as the error budget models it, plus float slack
    for got, want in ((trace.s21, s21), (trace.s11, 1 - s21)):
        bound = np.hypot(*oracle.rounding_halfwidths(fmt, digits, want)) + 1e-14 * np.abs(want)
        assert np.all(np.abs(got - want) <= bound)


def test_peak_sample_reading_matches_the_half_power_method():
    # a noiseless trace whose highest sample sits off the peak
    res = oracle.Resonance(7.05e9, 560.0, 0.3)
    freqs = np.linspace(6.8e9, 7.3e9, 2001) + 37e3
    trace = FrequencyTrace(freqs, oracle.lorentzian(freqs, res, None, None))
    read = q_3db(trace, int(np.argmax(np.abs(trace.s21))))
    want = oracle.peak_sample_reading(freqs, res)
    # the budget's Q_L allowance on a noiseless trace, relative
    rtol = oracle.budget_three_db(freqs, res, None, None).offset_inv_qu * res.q_unloaded
    assert abs(read.q_loaded - want.q_loaded) <= rtol * res.q_loaded
    assert abs(read.q_loaded - res.q_loaded) > rtol * res.q_loaded


def test_lorentzian_noise_has_the_stated_floor():
    freqs = np.linspace(1e9, 2e9, 200001)
    res = oracle.Resonance(1.5e9, 100.0, 0.5)
    clean = oracle.lorentzian(freqs, res, None, None)
    noisy = oracle.lorentzian(freqs, res, -60.0, np.random.default_rng(0))
    power = np.mean(np.abs(noisy - clean) ** 2)
    assert 10 * math.log10(power) == pytest.approx(-60.0, abs=0.05)
