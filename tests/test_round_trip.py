"""Random-geometry round trip through compare: synthesize one material,
extract it again, and compare with what went in.

The draws span a 10-40 mm, l/a 1-3, h 0.5-3 mm, eps_r 1-10; bar extents
2-90 % of a and l and 10-100 % of h; n 1-6; every interaction and Q
method; Q0 200-5000, IL 0.05-0.9; mu' 1.01-3, tan_dm 0 or 1e-3-0.2.
The traces are noiseless, 4001 points over 40 empty bandwidths, and
both synthesis and extraction use the derived g, so the model is exact
and each outcome is pinned:

* a sweep reaching 0 Hz (the empty one at Q_L <= 20, a re-centred
  loaded one at its own Q_L <= 20) is a config error at synthesis;
* so is a loaded resonance beyond PAIRING_GUARD of the empty f0, which
  extraction could not pair;
* a run that finishes with the fit recovers mu' and mu'' within 1e-9
  relative, or within what the shift's conditioning allows: re is read
  from two fitted f0 doubles, and allowing it 1e-14 of error, mu' = 1 -
  2 re / g may be off by 2e-14 / g; the loss is read against 1/Q0, and
  allowing 1/Q an error of 1e-9 of itself, mu'' may be off by
  1e-9 / (g Q0);
* a lossless draw may end in UnphysicalResultError for a negative
  mu_im, within that bound with the fit.  With three-db its size is not
  bounded: the 3-dB reading takes its half-power level from the peak
  sample, not from the refined vertex.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permeameter import (
    CavitySpec,
    ComplexPermeability,
    InteractionChoice,
    ModeSpec,
    SampleSpec,
    geometry_factor,
    resonant_frequency,
)
from permeameter.cli import compare_rows
from permeameter.config import ExtractionOptions, RunConfig
from permeameter.errors import ConfigurationError, UnphysicalResultError
from permeameter.perturbation import PAIRING_GUARD, loaded_resonance
from permeameter.synth import SynthOptions, empty_sweep

SPAN_BANDWIDTHS = 40.0
RTOL = 1e-9
#: Error in mu' * g that a 1e-14 error in the re shift gives.
RE_FLOOR = 2e-14
#: Q_L at or below which 20 bandwidths below f0 reach 0 Hz, with room for rounding.
ZERO_HZ_Q = SPAN_BANDWIDTHS / 2 * (1 + 1e-9)


def between(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def draws(draw):
    a = draw(between(10e-3, 40e-3))
    length = a * draw(between(1.0, 3.0))
    h = draw(between(0.5e-3, 3e-3))
    cavity = CavitySpec(a, length, h, draw(between(1.0, 10.0)))
    sample = SampleSpec(
        a * draw(between(0.02, 0.9)),
        length * draw(between(0.02, 0.9)),
        h * draw(between(0.1, 1.0)),
    )
    extraction = ExtractionOptions(
        draw(st.sampled_from(["lorentzian-fit", "three-db"])),
        draw(st.sampled_from(list(InteractionChoice))),
        "derived",
    )
    synth = SynthOptions(
        draw(between(200.0, 5000.0)), draw(between(0.05, 0.9)), 4001, SPAN_BANDWIDTHS
    )
    mode = ModeSpec(draw(st.integers(1, 6)))
    mu_re = draw(between(1.01, 3.0))
    tan_dm = draw(st.one_of(st.just(0.0), between(1e-3, 0.2)))
    mu = ComplexPermeability.from_loss_tangent(mu_re, tan_dm)
    return RunConfig(cavity, sample, mode, extraction, synth), mu


@pytest.mark.filterwarnings("ignore::permeameter.errors.NearCriticalCouplingWarning")
@given(case=draws())
@settings(max_examples=300, deadline=None)
def test_compare_round_trip_over_random_geometries(case):
    cfg, mu = case
    syn, ext = cfg.synth, cfg.extraction
    g = geometry_factor(cfg.cavity, cfg.sample, cfg.mode, "derived", ext.interaction)
    q0 = syn.q0_empty
    try:
        empty, _ = empty_sweep(resonant_frequency(cfg.cavity, cfg.mode), syn)
    except ConfigurationError as exc:
        assert "above 0 Hz" in str(exc) and q0 * (1.0 - syn.il_linear) <= ZERO_HZ_Q
        with pytest.raises(ConfigurationError, match="synth.q0_empty"):
            compare_rows(cfg, [{"name": "M", "mu": mu, "note": ""}])
        return
    loaded = loaded_resonance(mu, cfg.cavity.mu_rs, g, empty)
    fit = ext.q_method == "lorentzian-fit"

    # mu_rs = 1 in every draw
    re_tol = RTOL * mu.mu_re + RE_FLOOR / g.value
    im_tol = RTOL * (mu.mu_im + 1.0 / (g.value * q0))

    try:
        (row,) = compare_rows(cfg, [{"name": "M", "mu": mu, "note": ""}])
    except ConfigurationError as exc:
        assert "material 'M'" in str(exc)
        if "guard" in str(exc):
            assert abs(loaded.f0 - empty.f0) > PAIRING_GUARD * empty.f0
        else:
            assert "above 0 Hz" in str(exc) and loaded.q_loaded <= ZERO_HZ_Q
        return
    except UnphysicalResultError as exc:
        found = re.search(r"extracted mu_im = (\S+) < 0", str(exc))
        assert found and mu.mu_im == 0.0
        assert not fit or abs(float(found[1])) <= im_tol
        return
    if fit:
        mu_re = row["mu_re_modified"]
        assert abs(mu_re - mu.mu_re) <= re_tol
        assert abs(row["tan_dm_modified"] * mu_re - mu.mu_im) <= im_tol
