import math

import numpy as np
import pytest

from permeameter import (
    ComplexPermeability,
    GeometryFactor,
    InteractionChoice,
    FrequencyTrace,
    Resonance,
    SynthConfig,
    campaign_traces,
    complex_shift_from_resonances,
    find_resonances,
    fit_lorentzian,
    forward_load,
    fractional_shift_closed,
    geometry_factor,
    geometry_factor_printed,
    invert_permeability,
    lorentzian_trace,
    parse_touchstone,
    resonant_frequency,
    sample_energy_quadrature,
    stored_field_norm,
    synth_campaign,
)
from permeameter import perturbation, synth
from permeameter.synth import SynthOptions, empty_sweep
from permeameter.errors import ConfigurationError, InvalidGeometryError


@pytest.fixture
def empty_resonance(worked_cavity, mode4):
    f0 = resonant_frequency(worked_cavity, mode4)
    return Resonance.from_loaded(f0, 800.0 * 0.7, 0.3, "model")


def sweep_for(res, n_points=4001, span_bw=40.0, noise=None, seed=0):
    span = span_bw * res.f0 / res.q_loaded
    return SynthConfig(res.f0 - span / 2, res.f0 + span / 2, n_points, noise, seed, res.il_linear)


class TestForwardLoad:
    def test_identity_material(self, worked_cavity, worked_sample, mode4, empty_resonance):
        loaded = forward_load(
            worked_cavity, worked_sample, mode4, ComplexPermeability(1.0, 0.0), empty_resonance
        )
        assert loaded.f0 == empty_resonance.f0
        assert loaded.q_unloaded == pytest.approx(empty_resonance.q_unloaded, rel=1e-15)
        assert loaded.il_linear == empty_resonance.il_linear

    def test_worked_chain_printed_factor(
        self, worked_cavity, worked_sample, mode4, empty_resonance
    ):
        # the published worked example, on the forward model with the printed g
        mu = ComplexPermeability.from_loss_tangent(1.5, 0.05)
        printed = geometry_factor_printed(worked_cavity, worked_sample, mode4)
        loaded = perturbation.loaded_resonance(mu, worked_cavity.mu_rs, printed, empty_resonance)
        g = printed.value
        delta_re = -0.25 * g  # -(mu_re - 1)/2 * g for mu_rs = 1
        delta_im = 0.5 * 1.5 * 0.05 * g
        assert loaded.f0 == pytest.approx(empty_resonance.f0 / (1 - delta_re), rel=1e-12)
        assert 1 / loaded.q_unloaded == pytest.approx(
            1 / 800.0 + 2 * delta_im, rel=1e-12
        )
        # drop of roughly 2.8 MHz and Q near 735 for the worked geometry
        assert empty_resonance.f0 - loaded.f0 == pytest.approx(2.78e6, rel=0.01)
        assert loaded.q_unloaded == pytest.approx(734.8, abs=0.5)

    def test_loss_only_affects_q(self, worked_cavity, worked_sample, mode4, empty_resonance):
        mus = [ComplexPermeability.from_loss_tangent(1.5, t) for t in (0.01, 0.05, 0.2)]
        loadeds = [
            forward_load(worked_cavity, worked_sample, mode4, mu, empty_resonance)
            for mu in mus
        ]
        assert loadeds[0].f0 == loadeds[1].f0 == loadeds[2].f0
        assert loadeds[0].q_loaded > loadeds[1].q_loaded > loadeds[2].q_loaded

    def test_model_breakdown(self, empty_resonance):
        # with g <= 1 a passive substrate keeps re <= g/2, so an outsize g
        # stands in: re = -(0.5/2 - 1/2) * 10 = 2.5
        with pytest.raises(
            InvalidGeometryError,
            match=r"^\|re\| of a fractional shift must be < 1$",
        ):
            perturbation.loaded_resonance(
                ComplexPermeability(0.5, 0.0), 1.0, GeometryFactor(10.0, "derived-both"),
                empty_resonance,
            )

    @pytest.mark.parametrize("model", ["bogus", "printed"])
    def test_unknown_model_tag(self, worked_cavity, worked_sample, mode4, model):
        # the published prefactor is a quadcheck diagnostic, not a model
        with pytest.raises(ConfigurationError, match=f"model.*'{model}'"):
            geometry_factor(worked_cavity, worked_sample, mode4, model)

    def test_shift_round_trip(self, worked_cavity, worked_sample, mode4, empty_resonance):
        mu = ComplexPermeability.from_loss_tangent(1.4, 0.06)
        loaded = forward_load(worked_cavity, worked_sample, mode4, mu, empty_resonance)
        measured = complex_shift_from_resonances(empty_resonance, loaded)
        g = geometry_factor(worked_cavity, worked_sample, mode4, "quadrature")
        modeled = fractional_shift_closed(mu, worked_cavity.mu_rs, g)
        assert measured.real == pytest.approx(modeled.real, rel=1e-12)
        assert measured.imag == pytest.approx(modeled.imag, rel=1e-12)


class TestLorentzianTrace:
    def test_value_at_peak_equals_il(self):
        res = Resonance.from_loaded(7.5e9, 500.0, 0.5, "model")
        cfg = SynthConfig(7.0e9, 8.0e9, 1001, None, 0, 0.5)  # center point hits f0
        trace = lorentzian_trace(res, cfg)
        assert abs(trace.s21[500]) == pytest.approx(0.5, rel=1e-12)

    def test_half_power_points(self):
        # integer-Hz grid: f0 +- f0/(2 Q) are exact grid points
        f0, q = 7.5e9, 750.0
        res = Resonance.from_loaded(f0, q, 0.5, "model")
        cfg = SynthConfig(f0 - 50e6, f0 + 50e6, 101, None, 0, 0.5)  # 1 MHz steps
        trace = lorentzian_trace(res, cfg)
        half = f0 / (2 * q)  # 5 MHz
        for f_half in (f0 - half, f0 + half):
            idx = int(np.argmin(np.abs(trace.freqs - f_half)))
            assert trace.freqs[idx] == f_half
            assert abs(trace.s21[idx]) == pytest.approx(0.5 / np.sqrt(2), rel=1e-12)

    def test_phase_sign(self):
        res = Resonance.from_loaded(7.5e9, 500.0, 0.5, "model")
        trace = lorentzian_trace(res, sweep_for(res))
        above = trace.freqs > res.f0 * (1 + 1 / (2 * res.q_loaded))
        assert np.all(np.angle(trace.s21[above]) < 0)

    def test_margin_violation(self):
        res = Resonance.from_loaded(7.5e9, 500.0, 0.5, "model")
        with pytest.raises(ConfigurationError, match="margin"):
            lorentzian_trace(res, SynthConfig(7.49e9, 7.502e9, 101, None, 0, 0.5))

    def test_seed_determinism(self):
        res = Resonance.from_loaded(7.5e9, 500.0, 0.5, "model")
        cfg = sweep_for(res, noise=-70.0, seed=99)
        a, b = lorentzian_trace(res, cfg), lorentzian_trace(res, cfg)
        assert a.freqs.tobytes() == b.freqs.tobytes()
        assert a.s21.tobytes() == b.s21.tobytes()

    def test_seeds_change_fitted_q(self):
        res = Resonance.from_loaded(7.5e9, 500.0, 0.5, "model")
        fits = []
        for seed in (1, 2):
            trace = lorentzian_trace(res, sweep_for(res, noise=-60.0, seed=seed))
            fits.append(fit_lorentzian(trace, find_resonances(trace)[0]).q_loaded)
        assert fits[0] != fits[1]

    def test_config_validation(self):
        for f_start, f_stop in ((2e9, 1e9), (0.0, 2e9), (-1e9, 2e9)):
            with pytest.raises(ConfigurationError, match="f_start must be > 0 and < f_stop"):
                SynthConfig(f_start, f_stop, 1001, None, 0, 0.5)
        with pytest.raises(ConfigurationError):
            SynthConfig(1e9, 2e9, 51, None, 0, 0.5)
        with pytest.raises(ConfigurationError):
            SynthConfig(1e9, 2e9, 1001, -10.0, 0, 0.5)
        for il in (0.0, 1.0):
            with pytest.raises(ConfigurationError, match="il_linear must be in"):
                SynthConfig(1e9, 2e9, 1001, None, 0, il)
        for seed in (-1, 2**64):
            with pytest.raises(ConfigurationError, match="seed must fit in 64 bits"):
                SynthConfig(1e9, 2e9, 1001, None, seed, 0.5)

    @pytest.mark.parametrize("f_start, f_stop", [(1.0, math.inf), (math.inf, math.inf), (1.0, math.nan)])
    def test_non_finite_window_rejected(self, f_start, f_stop):
        # the window's own check, not a numpy warning from the grid that lorentzian_trace builds
        with pytest.raises(ConfigurationError, match=r"^f_start must be > 0 and < f_stop, and f_stop finite$"):
            SynthConfig(f_start, f_stop)


class TestEmptySweep:
    def test_window_is_centred_on_the_empty_resonance(self):
        f0, opts = 7.5e9, SynthOptions(q0_empty=640.0, il_linear=0.25, span_bandwidths=30.0)
        empty, cfg = empty_sweep(f0, opts)
        assert (empty.f0, empty.q_unloaded, empty.il_linear) == (f0, 640.0, 0.25)
        assert empty.q_loaded == 640.0 * (1.0 - 0.25)
        span = 30.0 * f0 / empty.q_loaded
        assert (cfg.f_start, cfg.f_stop) == (f0 - span / 2, f0 + span / 2)
        assert (cfg.n_points, cfg.noise_floor_db, cfg.seed, cfg.il_linear) == (4001, None, 0, 0.25)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(q0_empty=-1.0), r"^q0_empty must be > 0$"),
            (dict(il_linear=1.2), r"^il_linear must be in \(0, 1\)$"),
            (dict(span_bandwidths=5.99),
             r"^span_bandwidths must be >= 6 \(3 bandwidths of margin on each side\)$"),
            (dict(q0_empty=30.0, il_linear=0.5),
             r"^span_bandwidths = 40 bandwidths at q0_empty = 30 give a sweep of .* start above 0 Hz"),
            (dict(n_points=50), r"^n_points must be >= 101$"),
            (dict(n_points=1_000_002), r"^n_points must be <= 1000001$"),
        ],
    )
    def test_errors_name_the_bare_fields(self, fields, message):
        # RunConfig.sweep prefixes each with synth.
        with pytest.raises(ConfigurationError, match=message):
            empty_sweep(7.5e9, SynthOptions(**fields))


def render_all(campaign):
    """{label: trace} of a campaign, every trace rendered."""
    return {label: render() for label, render in campaign}


class TestCampaign:
    def table(self):
        return [
            ("U", ComplexPermeability.from_loss_tangent(1.2, 0.04)),
            ("X", ComplexPermeability.from_loss_tangent(1.5, 0.05)),
        ]

    def campaign(self, cavity, sample, mode, empty, table):
        g = geometry_factor(cavity, sample, mode)
        return campaign_traces(table, empty, sweep_for(empty), g, cavity.mu_rs)

    def test_file_roster(
        self, tmp_path, worked_cavity, worked_sample, mode4, empty_resonance
    ):
        campaign = self.campaign(
            worked_cavity, worked_sample, mode4, empty_resonance, self.table()
        )
        traces = render_all(campaign)
        assert set(traces) == {"empty", "U", "X"}
        assert all(isinstance(t, FrequencyTrace) for t in traces.values())
        files = synth_campaign(campaign, tmp_path)
        assert set(files) == {"empty", "U", "X"}
        assert files["U"].name == "campaign_U.s2p"
        assert all(p.exists() for p in files.values())

    def test_empty_roster(self, tmp_path, worked_cavity, worked_sample, mode4, empty_resonance):
        campaign = self.campaign(worked_cavity, worked_sample, mode4, empty_resonance, [])
        assert set(render_all(campaign)) == {"empty"}
        files = synth_campaign(campaign, tmp_path)
        assert set(files) == {"empty"}

    def test_duplicate_labels_rejected(
        self, worked_cavity, worked_sample, mode4, empty_resonance
    ):
        table = [("A", ComplexPermeability(1.2, 0.0))] * 2
        with pytest.raises(ConfigurationError):
            self.campaign(worked_cavity, worked_sample, mode4, empty_resonance, table)
        with pytest.raises(ConfigurationError):
            self.campaign(
                worked_cavity, worked_sample, mode4, empty_resonance,
                [("empty", ComplexPermeability(1.2, 0.0))],
            )

    @pytest.mark.parametrize("choice", list(InteractionChoice))
    def test_each_trace_spans_the_empty_window_in_its_own_bandwidths(
        self, worked_cavity, worked_sample, mode4, empty_resonance, choice
    ):
        # axial-hx and both-components broaden lossy W to Q_L ~ 110, which
        # would lack its 3-bandwidth margin on the empty trace's grid
        table = self.table() + [("W", ComplexPermeability.from_loss_tangent(1.6, 0.1))]
        cfg = sweep_for(empty_resonance)
        g = geometry_factor(worked_cavity, worked_sample, mode4, choice=choice)
        traces = render_all(campaign_traces(table, empty_resonance, cfg, g, worked_cavity.mu_rs))
        empty = traces["empty"].freqs
        assert np.array_equal(empty, np.linspace(cfg.f_start, cfg.f_stop, cfg.n_points))

        def in_bandwidths(freqs, res):
            return (freqs - res.f0) * res.q_loaded / res.f0

        expected = in_bandwidths(empty, empty_resonance)
        for name, mu in table:
            res = perturbation.loaded_resonance(mu, worked_cavity.mu_rs, g, empty_resonance)
            freqs = traces[name].freqs
            assert freqs.size == empty.size
            np.testing.assert_allclose(in_bandwidths(freqs, res), expected, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("choice", list(InteractionChoice))
    def test_window_of_exactly_the_margins_passes_despite_rounding(
        self, worked_cavity, worked_sample, mode4, choice
    ):
        # 6 bandwidths leave every resonance exactly 3 on each side; an edge
        # an ulp short of them must not fail the margin check
        f0 = resonant_frequency(worked_cavity, mode4)
        table = self.table() + [("W", ComplexPermeability.from_loss_tangent(1.6, 0.1))]
        g = geometry_factor(worked_cavity, worked_sample, mode4, choice=choice)
        for q_loaded in np.linspace(200.0, 5000.0, 25):
            empty = Resonance.from_loaded(f0, q_loaded, 0.3, "model")
            cfg = sweep_for(empty, n_points=101, span_bw=6.0)
            traces = render_all(campaign_traces(table, empty, cfg, g, worked_cavity.mu_rs))
            assert len(traces) == 1 + len(table)

    def test_window_reaching_zero_hz_names_the_material(
        self, worked_cavity, worked_sample, mode4, empty_resonance
    ):
        # Q_L ~ 6: 20 of its bandwidths below f0 reach below 0 Hz
        table = self.table() + [("lossy", ComplexPermeability(1.5, 1.0e4))]
        g = geometry_factor(worked_cavity, worked_sample, mode4)
        with pytest.raises(ConfigurationError, match="material 'lossy'.*above 0 Hz"):
            campaign_traces(
                table, empty_resonance, sweep_for(empty_resonance), g, worked_cavity.mu_rs
            )

    @pytest.mark.parametrize("choice", list(InteractionChoice))
    def test_loaded_resonances_are_forward_load_bit_for_bit(
        self, monkeypatch, worked_cavity, worked_sample, mode4, empty_resonance, choice
    ):
        rendered = []  # empty first, then the table in order

        def record(res, cfg):
            rendered.append(res)
            return lorentzian_trace(res, cfg)

        monkeypatch.setattr(synth, "lorentzian_trace", record)
        g = geometry_factor(worked_cavity, worked_sample, mode4, choice=choice)
        render_all(campaign_traces(
            self.table(), empty_resonance, sweep_for(empty_resonance), g, worked_cavity.mu_rs
        ))
        assert len(rendered) == 1 + len(self.table())
        for (_, mu), got in zip(self.table(), rendered[1:]):
            expected = perturbation.loaded_resonance(mu, worked_cavity.mu_rs, g, empty_resonance)
            assert got.f0 == expected.f0
            assert got.q_loaded == expected.q_loaded
            assert got.q_unloaded == expected.q_unloaded

    def test_full_loop_recovery(
        self, tmp_path, worked_cavity, worked_sample, mode4, empty_resonance
    ):
        # trace -> fit -> unload -> shift -> invert recovers the input mu
        files = synth_campaign(
            self.campaign(worked_cavity, worked_sample, mode4, empty_resonance, self.table()),
            tmp_path,
        )
        empty_trace = parse_touchstone(files["empty"].read_bytes())
        fit_empty = fit_lorentzian(empty_trace, find_resonances(empty_trace)[0])
        g = GeometryFactor(
            sample_energy_quadrature(worked_cavity, worked_sample, mode4)
            / stored_field_norm(worked_cavity, mode4),
            "quadrature-transverse-hz",
        )
        for name, mu in self.table():
            trace = parse_touchstone(files[name].read_bytes())
            fit = fit_lorentzian(trace, find_resonances(trace)[0])
            shift = complex_shift_from_resonances(fit_empty, fit)
            got = invert_permeability(shift, g, worked_cavity.mu_rs)
            assert got.mu_re == pytest.approx(mu.mu_re, rel=1e-4)
            assert got.mu_im == pytest.approx(mu.mu_im, rel=1e-4, abs=1e-12)
