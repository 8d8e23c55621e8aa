import contextlib
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from permeameter import (
    CavitySpec,
    ComplexPermeability,
    GeometryFactor,
    InteractionChoice,
    ModeSpec,
    Resonance,
    SampleSpec,
    complex_shift_from_resonances,
    fractional_shift_closed,
    geometry_factor,
    geometry_factor_conventional,
    geometry_factor_derived,
    geometry_factor_printed,
    invert_permeability,
    sample_energy_midpoint,
    sample_energy_quadrature,
    stored_field_norm,
    wavenumbers,
)
from permeameter.errors import ConfigurationError, InvalidGeometryError, UnphysicalResultError
from permeameter.perturbation import DEGENERATE_G, MAX_CELLS_PER_AXIS, MODELS, loaded_resonance

CHOICES = list(InteractionChoice)


def box_energy_dblquad(cavity, sample, mode, choice):
    """Adaptive-quadrature oracle for the sample-box energy integral."""
    k_x, k_z = wavenumbers(cavity, mode)
    a, l = cavity.a_eff, cavity.length_l
    x0, x1 = (a - sample.extent_x_l1) / 2, (a + sample.extent_x_l1) / 2
    z0, z1 = (l - sample.extent_z_a1) / 2, (l + sample.extent_z_a1) / 2

    def integrand(z, x):
        hx2 = (k_z * math.sin(k_x * x) * math.cos(k_z * z)) ** 2
        hz2 = (k_x * math.cos(k_x * x) * math.sin(k_z * z)) ** 2
        if choice == InteractionChoice.AXIAL_HX:
            return hx2
        if choice == InteractionChoice.TRANSVERSE_HZ:
            return hz2
        return hx2 + hz2

    value, _ = integrate.dblquad(integrand, x0, x1, z0, z1, epsabs=1e-16, epsrel=1e-13)
    return value * sample.thickness


def reference_sample_energy_midpoint(cavity, sample, mode, choice, cells_per_axis):
    """sample_energy_midpoint as it was before it computed only the sums
    the chosen components need: all four m-point sums, every time."""
    a, l = cavity.a_eff, cavity.length_l
    l1, a1 = sample.extent_x_l1, sample.extent_z_a1
    m = cells_per_axis
    dx = l1 / m
    dz = a1 / m
    x = (a - l1) / 2.0 + (np.arange(m) + 0.5) * dx
    z = (l - a1) / 2.0 + (np.arange(m) + 0.5) * dz
    k_x, k_z = wavenumbers(cavity, mode)
    sin_x, cos_x = (float(np.sum(trig(k_x * x) ** 2)) for trig in (np.sin, np.cos))
    sin_z, cos_z = (float(np.sum(trig(k_z * z) ** 2)) for trig in (np.sin, np.cos))
    total = 0.0
    if choice != InteractionChoice.TRANSVERSE_HZ:
        total += k_z**2 * sin_x * cos_z
    if choice != InteractionChoice.AXIAL_HX:
        total += k_x**2 * cos_x * sin_z
    return total * dx * dz * sample.thickness


def assert_midpoint_matches_reference(cavity, sample):
    for choice in CHOICES:
        for n in range(1, 7):
            for m in (8, 64, 512):
                args = (cavity, sample, ModeSpec(n), choice, m)
                got, expected = sample_energy_midpoint(*args), reference_sample_energy_midpoint(*args)
                assert (type(got), got) == (type(expected), expected), args


class TestGeometryFactorPrinted:
    def test_worked_value(self, worked_cavity, worked_sample, mode4):
        g = geometry_factor_printed(worked_cavity, worked_sample, mode4)
        assert g.value == pytest.approx(1.4786801609189932e-3, rel=1e-12)
        assert g.provenance == "printed"

    def test_vanishing_extents(self, worked_cavity, mode4):
        values = [
            geometry_factor_printed(
                worked_cavity, SampleSpec(0.010, a1, 0.00157), mode4
            ).value
            for a1 in (1e-3, 1e-4, 1e-5)
        ]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-4 * values[0] * 1.1  # quadratic smallness

    def test_monotone_in_extents(self, worked_cavity, mode4):
        k_x, k_z = wavenumbers(worked_cavity, mode4)
        a1_grid = np.linspace(0.05, 1.0, 12) * (math.pi / k_z)
        vals = [
            geometry_factor_printed(
                worked_cavity, SampleSpec(0.010, a1, 0.00157), mode4
            ).value
            for a1 in a1_grid
        ]
        assert all(u < v for u, v in zip(vals, vals[1:]))
        l1_grid = np.linspace(0.05, 1.0, 12) * (math.pi / k_x)
        vals = [
            geometry_factor_printed(
                worked_cavity, SampleSpec(l1, 0.002, 0.00157), mode4
            ).value
            for l1 in l1_grid
        ]
        assert all(u < v for u, v in zip(vals, vals[1:]))

    def test_odd_mode_rejected(self, worked_cavity, worked_sample):
        with pytest.raises(
            InvalidGeometryError,
            match=r"^printed geometry factor is defined for even mode indices only \(got n=3\)$",
        ):
            geometry_factor_printed(worked_cavity, worked_sample, ModeSpec(3))


class TestGeometryFactorDerived:
    def test_full_cavity_both_components_is_one(self, worked_cavity, mode4):
        full = SampleSpec(
            worked_cavity.a_eff, worked_cavity.length_l, worked_cavity.height_h
        )
        g = geometry_factor_derived(worked_cavity, full, mode4, InteractionChoice.BOTH)
        assert g.value == pytest.approx(1.0, rel=1e-12)

    def test_small_sample_axial_reaches_uniform_limit(self, worked_cavity, mode4):
        tiny = SampleSpec(1e-5, 1e-5, 1e-5)
        k_x, k_z = wavenumbers(worked_cavity, mode4)
        expected = (
            4.0 * k_z**2 * tiny.volume / (worked_cavity.volume * (k_x**2 + k_z**2))
        )
        g = geometry_factor_derived(
            worked_cavity, tiny, mode4, InteractionChoice.AXIAL_HX
        )
        assert g.value == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("choice", CHOICES)
    def test_matches_adaptive_quadrature_oracle(
        self, worked_cavity, worked_sample, mode4, choice
    ):
        g = geometry_factor_derived(worked_cavity, worked_sample, mode4, choice)
        oracle = box_energy_dblquad(
            worked_cavity, worked_sample, mode4, choice
        ) / stored_field_norm(worked_cavity, mode4)
        assert g.value == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("choice", CHOICES)
    def test_matches_oracle_asymmetric_case(self, choice):
        cavity = CavitySpec(0.022, 0.071, 0.0008, 6.15)
        sample = SampleSpec(0.013, 0.009, 0.0005)
        for n in (2, 1, 3, 5):
            mode = ModeSpec(n)
            g = geometry_factor_derived(cavity, sample, mode, choice)
            oracle = box_energy_dblquad(cavity, sample, mode, choice) / stored_field_norm(
                cavity, mode
            )
            assert g.value == pytest.approx(oracle, rel=1e-10), n

    def test_provenance_tags(self, worked_cavity, worked_sample, mode4):
        tags = {
            geometry_factor_derived(worked_cavity, worked_sample, mode4, c).provenance
            for c in CHOICES
        }
        assert tags == {"derived-axial", "derived-transverse", "derived-both"}

    def test_odd_modes_match_oracle(self, worked_cavity, worked_sample):
        # the centered z integrals carry a (-1)^n parity factor
        for n in (1, 3, 5):
            mode = ModeSpec(n)
            for choice in CHOICES:
                g = geometry_factor_derived(worked_cavity, worked_sample, mode, choice)
                oracle = box_energy_dblquad(
                    worked_cavity, worked_sample, mode, choice
                ) / stored_field_norm(worked_cavity, mode)
                assert g.value == pytest.approx(oracle, rel=1e-10), (n, choice)

    def test_sample_exceeding_cavity_rejected(self, worked_cavity, mode4):
        with pytest.raises(InvalidGeometryError, match="extent_x_l1"):
            geometry_factor_derived(
                worked_cavity, SampleSpec(0.031, 0.002, 0.001), mode4
            )

    @pytest.mark.parametrize(
        "extents, field",
        [((0.010, 0.061, 0.001), "extent_z_a1 exceeds"), ((0.010, 0.002, 0.002), "thickness exceeds")],
    )
    def test_sample_longer_or_thicker_than_cavity_rejected(self, worked_cavity, mode4, extents, field):
        with pytest.raises(InvalidGeometryError, match=field):
            geometry_factor_derived(worked_cavity, SampleSpec(*extents), mode4)

    @given(scale=st.floats(0.2, 5.0))
    @settings(max_examples=30)
    def test_scale_invariance(self, scale):
        cavity = CavitySpec(0.030, 0.060, 0.00157, 2.2)
        sample = SampleSpec(0.010, 0.002, 0.00157)
        scaled_cavity = CavitySpec(0.030 * scale, 0.060 * scale, 0.00157 * scale, 2.2)
        scaled_sample = SampleSpec(0.010 * scale, 0.002 * scale, 0.00157 * scale)
        mode = ModeSpec(4)
        for factor in (
            geometry_factor_printed,
            geometry_factor_conventional,
        ):
            assert factor(scaled_cavity, scaled_sample, mode).value == pytest.approx(
                factor(cavity, sample, mode).value, rel=1e-9
            )
        for choice in CHOICES:
            assert geometry_factor_derived(
                scaled_cavity, scaled_sample, mode, choice
            ).value == pytest.approx(
                geometry_factor_derived(cavity, sample, mode, choice).value, rel=1e-9
            )


class TestGeometryFactorEntryPoint:
    @pytest.mark.parametrize("choice", CHOICES)
    def test_models_match_direct_calls(self, worked_cavity, worked_sample, mode4, choice):
        args = (worked_cavity, worked_sample, mode4)
        got = {model: geometry_factor(*args, model, choice, 32) for model in MODELS}
        assert got["quadrature"] == GeometryFactor(
            sample_energy_quadrature(*args, choice, 32) / stored_field_norm(worked_cavity, mode4),
            f"quadrature-{choice.value}",
        )
        assert got["derived"] == geometry_factor_derived(*args, choice)

    def test_printed_is_no_model(self, worked_cavity, worked_sample, mode4):
        # the published prefactor is a quadcheck diagnostic, not a route for extraction
        assert MODELS == ("quadrature", "derived")
        with pytest.raises(ConfigurationError, match="'printed'"):
            geometry_factor(worked_cavity, worked_sample, mode4, "printed")

    @pytest.mark.parametrize("choice", CHOICES)
    def test_a_choice_given_by_value_is_its_member(self, worked_cavity, worked_sample, mode4, choice):
        args = (worked_cavity, worked_sample, mode4)
        for model in MODELS:
            assert geometry_factor(*args, model, choice.value, 16) == geometry_factor(*args, model, choice, 16)
        assert geometry_factor_derived(*args, choice.value) == geometry_factor_derived(*args, choice)
        assert sample_energy_midpoint(*args, choice.value, 16) == sample_energy_midpoint(*args, choice, 16)

    @pytest.mark.parametrize(
        "call",
        [
            lambda *args: geometry_factor(*args, "quadrature", "bogus"),
            lambda *args: geometry_factor(*args, "derived", "bogus"),
            lambda *args: geometry_factor_derived(*args, "bogus"),
            lambda *args: sample_energy_quadrature(*args, "bogus"),
            lambda *args: sample_energy_midpoint(*args, "bogus", 16),
        ],
        ids=["quadrature", "derived", "geometry_factor_derived", "sample_energy_quadrature", "midpoint"],
    )
    def test_any_other_choice_is_a_configuration_error(self, worked_cavity, worked_sample, mode4, call):
        # before, the quadrature read an unknown string as both components
        with pytest.raises(ConfigurationError, match=re.escape(
            "interaction must be one of ['axial-hx', 'transverse-hz', 'both-components']"
        )):
            call(worked_cavity, worked_sample, mode4)


class TestQuadratureShift:
    def test_identity_material_gives_zero(self, worked_cavity, worked_sample, mode4):
        g = geometry_factor(worked_cavity, worked_sample, mode4, "quadrature")
        shift = fractional_shift_closed(ComplexPermeability(1.0, 0.0), worked_cavity.mu_rs, g)
        assert shift.real == 0.0 and shift.imag == 0.0

    @pytest.mark.parametrize("choice", CHOICES)
    def test_agrees_with_closed_form(self, worked_cavity, worked_sample, mode4, choice):
        mu = ComplexPermeability.from_loss_tangent(1.8, 0.12)
        quad = fractional_shift_closed(
            mu,
            worked_cavity.mu_rs,
            geometry_factor(worked_cavity, worked_sample, mode4, "quadrature", choice, 64),
        )
        closed = fractional_shift_closed(
            mu,
            worked_cavity.mu_rs,
            geometry_factor_derived(worked_cavity, worked_sample, mode4, choice),
        )
        rel = abs(quad - closed) / abs(closed)
        assert rel < 1e-8

    def test_midpoint_rule_value(self, worked_cavity, worked_sample, mode4):
        # raw midpoint converges O(cells^-2) toward the closed integral
        closed = box_energy_dblquad(
            worked_cavity, worked_sample, mode4, InteractionChoice.TRANSVERSE_HZ
        )
        errs = [
            abs(
                sample_energy_midpoint(
                    worked_cavity,
                    worked_sample,
                    mode4,
                    InteractionChoice.TRANSVERSE_HZ,
                    m,
                )
                - closed
            )
            / closed
            for m in (64, 128, 256)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("choice", CHOICES)
    def test_midpoint_matches_outer_product_sum(self, worked_cavity, worked_sample, n, choice):
        # the product of 1-D sums against the m x m grid it factors
        mode = ModeSpec(n)
        k_x, k_z = wavenumbers(worked_cavity, mode)
        a, l = worked_cavity.a_eff, worked_cavity.length_l
        l1, a1 = worked_sample.extent_x_l1, worked_sample.extent_z_a1
        for m in (8, 64, 512):
            x = (a - l1) / 2 + (np.arange(m) + 0.5) * (l1 / m)
            z = (l - a1) / 2 + (np.arange(m) + 0.5) * (a1 / m)
            hx2 = k_z**2 * np.outer(np.sin(k_x * x) ** 2, np.cos(k_z * z) ** 2)
            hz2 = k_x**2 * np.outer(np.cos(k_x * x) ** 2, np.sin(k_z * z) ** 2)
            grid = {
                InteractionChoice.AXIAL_HX: hx2,
                InteractionChoice.TRANSVERSE_HZ: hz2,
                InteractionChoice.BOTH: hx2 + hz2,
            }[choice]
            reference = float(grid.sum()) * (l1 / m) * (a1 / m) * worked_sample.thickness
            got = sample_energy_midpoint(worked_cavity, worked_sample, mode, choice, m)
            assert got == pytest.approx(reference, rel=1e-14, abs=0)

    def test_midpoint_matches_the_four_sum_reference(self, worked_cavity, worked_sample):
        # the sums a choice does not read are skipped, not approximated
        assert_midpoint_matches_reference(worked_cavity, worked_sample)

    @given(
        width=st.floats(0.005, 0.1),
        length=st.floats(0.005, 0.2),
        eps_r=st.floats(1.0, 12.0),
        x_frac=st.floats(0.01, 1.0),
        z_frac=st.floats(0.01, 1.0),
        t_frac=st.floats(0.01, 1.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_midpoint_matches_the_four_sum_reference_on_drawn_geometries(
        self, width, length, eps_r, x_frac, z_frac, t_frac
    ):
        cavity = CavitySpec(width, length, 0.5 * width, eps_r)
        sample = SampleSpec(x_frac * width, z_frac * length, t_frac * 0.5 * width)
        assert_midpoint_matches_reference(cavity, sample)

    def test_lossless_high_mu_moves_down(self, worked_cavity, worked_sample, mode4):
        g = geometry_factor(worked_cavity, worked_sample, mode4, "quadrature")
        shift = fractional_shift_closed(ComplexPermeability(2.0, 0.0), worked_cavity.mu_rs, g)
        assert shift.real < 0
        assert shift.imag == 0.0

    def test_odd_mode_allowed(self, worked_cavity, worked_sample):
        g = geometry_factor(
            worked_cavity, worked_sample, ModeSpec(3), "quadrature", InteractionChoice.BOTH
        )
        shift = fractional_shift_closed(ComplexPermeability(1.5, 0.0), worked_cavity.mu_rs, g)
        assert shift.real < 0 and math.isfinite(shift.real)

    def test_cells_validation(self, worked_cavity, worked_sample, mode4):
        with pytest.raises(InvalidGeometryError, match="cells_per_axis"):
            sample_energy_quadrature(
                worked_cavity, worked_sample, mode4, InteractionChoice.BOTH, 4
            )

    def test_cells_bound_is_the_finest_start(self, worked_cavity, worked_sample, mode4):
        # the bound itself runs and agrees with the default start; one more is refused
        at_bound = sample_energy_quadrature(
            worked_cavity, worked_sample, mode4, InteractionChoice.BOTH, MAX_CELLS_PER_AXIS
        )
        default = sample_energy_quadrature(worked_cavity, worked_sample, mode4, InteractionChoice.BOTH)
        assert at_bound == pytest.approx(default, rel=1e-6)
        with pytest.raises(InvalidGeometryError, match=f"^cells_per_axis must be <= {MAX_CELLS_PER_AXIS}$"):
            sample_energy_quadrature(
                worked_cavity, worked_sample, mode4, InteractionChoice.BOTH, MAX_CELLS_PER_AXIS + 1
            )

    def test_bitwise_determinism(self, worked_cavity, worked_sample, mode4):
        runs = [
            sample_energy_quadrature(
                worked_cavity, worked_sample, mode4, InteractionChoice.BOTH, 64
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_non_convergence_raises_accuracy_error(self):
        # hundreds of field oscillations across the sample starve an
        # 8..64 cell ladder of resolution
        cavity = CavitySpec(0.030, 0.060, 0.00157, 2.2)
        sample = SampleSpec(0.029, 0.059, 0.001)
        mode = ModeSpec(200)
        # a nonzero delta: 1-9 leading digit, any mantissa and exponent
        with pytest.raises(
            InvalidGeometryError,
            match=r"^box integral did not converge within 3 grid doublings "
            r"\(last relative delta [1-9]\.\d{3}e[+-]\d+\)$",
        ):
            sample_energy_quadrature(
                cavity, sample, mode, InteractionChoice.TRANSVERSE_HZ, 8
            )


class TestClosedShift:
    def test_identity(self):
        shift = fractional_shift_closed(
            ComplexPermeability(1.0, 0.0), 1.0, GeometryFactor(0.1, "derived-both")
        )
        assert shift.real == 0.0 and shift.imag == 0.0

    def test_lossless_arithmetic(self):
        shift = fractional_shift_closed(
            ComplexPermeability(2.0, 0.0), 1.0, GeometryFactor(0.1, "derived-both")
        )
        assert shift.real == pytest.approx(-0.05, rel=1e-12)
        assert shift.imag == 0.0

    def test_worked_example(self):
        mu = ComplexPermeability.from_loss_tangent(1.5, 0.05)
        shift = fractional_shift_closed(mu, 1.0, GeometryFactor(1.464e-3, "printed"))
        assert shift.real == pytest.approx(-3.66e-4, rel=1e-9)
        assert shift.imag == pytest.approx(+5.49e-5, rel=1e-9)

    def test_monotonicity_and_loss_signs(self):
        g = GeometryFactor(2e-3, "derived-transverse")
        res = [
            fractional_shift_closed(ComplexPermeability(mu, 0.0), 1.0, g).real
            for mu in (1.2, 1.5, 2.5)
        ]
        assert res[0] > res[1] > res[2]
        ims = [
            fractional_shift_closed(ComplexPermeability(1.5, mu_im), 1.0, g).imag
            for mu_im in (0.0, 0.05, 0.2)
        ]
        assert ims[0] == 0.0
        assert ims[0] < ims[1] < ims[2]


class TestShiftFromResonances:
    def test_identical_resonances(self):
        res = Resonance.from_loaded(7.5e9, 500.0, 0.5, "three-db")
        shift = complex_shift_from_resonances(res, res)
        assert shift.real == 0.0 and shift.imag == 0.0

    def test_worked_pair(self):
        empty = Resonance(7.533e9, 800.0 * 0.7, 800.0, 0.3, "model")
        loaded = Resonance(7.53024e9, 735.4 * 0.7, 735.4, 0.3, "model")
        shift = complex_shift_from_resonances(empty, loaded)
        assert shift.real == pytest.approx(-3.665221825599184e-4, rel=1e-12)
        assert shift.imag == pytest.approx(5.4902094098449854e-5, rel=1e-12)
        assert abs(shift.real - (-3.66e-4)) < 1e-6
        assert abs(shift.imag - 5.49e-5) < 1e-7

    def test_pure_loss_perturbation(self):
        empty = Resonance(7.5e9, 400.0, 800.0, 0.5, "model")
        loaded = Resonance(7.5e9, 200.0, 400.0, 0.5, "model")
        shift = complex_shift_from_resonances(empty, loaded)
        assert shift.real == 0.0
        assert shift.imag == pytest.approx(1.0 / 1600.0, rel=1e-12)


class TestInversion:
    def test_zero_shift_returns_substrate(self):
        mu = invert_permeability(
            0j, GeometryFactor(1e-3, "derived-transverse"), 1.0
        )
        assert mu.mu_re == 1.0 and mu.mu_im == 0.0

    @pytest.mark.parametrize("shift", [0j, -1e-4 + 0j, -1e-4 + 1e-5j])
    def test_loss_is_never_negative_zero(self, shift):
        # mu_im is 0.0 - imag: +0.0 where -imag gives -0.0, the same bits elsewhere
        g = GeometryFactor(1e-3, "derived-transverse")
        mu = invert_permeability(shift, g, 1.0)
        imag = (1.0 - 2.0 * shift / g.value).imag
        assert math.copysign(1.0, mu.mu_im) == math.copysign(1.0, mu.tan_dm) == 1.0
        assert mu.mu_im == -imag

    def test_worked_example(self):
        mu = invert_permeability(
            -3.659e-4 + 5.49e-5j, GeometryFactor(1.464e-3, "printed"), 1.0
        )
        assert mu.mu_re == pytest.approx(1.499863387978142, rel=1e-12)
        assert mu.tan_dm == pytest.approx(0.05000455414882959, rel=1e-12)
        assert mu.mu_re == pytest.approx(1.5, rel=1e-3)
        assert mu.tan_dm == pytest.approx(0.05, rel=1e-3)

    @given(
        mu_re=st.floats(1.0, 5.0),
        tan_dm=st.floats(0.0, 0.3),
        g_value=st.floats(1e-6, 0.3),
    )
    @settings(max_examples=100)
    def test_round_trip_identity(self, mu_re, tan_dm, g_value):
        mu = ComplexPermeability.from_loss_tangent(mu_re, tan_dm)
        g = GeometryFactor(g_value, "derived-transverse")
        back = invert_permeability(fractional_shift_closed(mu, 1.0, g), g, 1.0)
        assert back.mu_re == pytest.approx(mu.mu_re, rel=1e-12)
        assert back.mu_im == pytest.approx(mu.mu_im, rel=1e-12, abs=1e-15)

    def test_round_trip_with_complex_substrate(self):
        mu_rs = 1.0 - 0.02j
        mu = ComplexPermeability.from_loss_tangent(2.5, 0.1)
        g = GeometryFactor(5e-4, "derived-both")
        back = invert_permeability(fractional_shift_closed(mu, mu_rs, g), g, mu_rs)
        assert back.mu_re == pytest.approx(mu.mu_re, rel=1e-12)
        assert back.mu_im == pytest.approx(mu.mu_im, rel=1e-12)

    def test_degenerate_geometry(self):
        with pytest.raises(
            InvalidGeometryError,
            match=r"^geometry factor 1\.000e-13 is degenerate \(<= 1e-12\); "
            "sample volume is effectively zero$",
        ):
            invert_permeability(
                -1e-4 + 0j, GeometryFactor(1e-13, "conventional"), 1.0
            )

    def test_unphysical_mu_re(self):
        with pytest.raises(UnphysicalResultError, match="mu_re"):
            invert_permeability(
                0.01 + 0j, GeometryFactor(1e-3, "printed"), 1.0
            )

    def test_unphysical_negative_loss(self):
        with pytest.raises(UnphysicalResultError, match="loss"):
            invert_permeability(
                -1e-4 - 1e-5j, GeometryFactor(1e-3, "printed"), 1.0
            )


#: How far a drawn closed-form |re| stays from 1, fixed before the first run, so
#: that rounding through f0 and Q cannot carry the read-back shift across 1.
RE_MARGIN = 1e-6


class TestOneDomain:
    @given(
        mu_re=st.floats(1e-3, 200.0),
        tan_dm=st.floats(0.0, 1.0),
        mu_rs_re=st.floats(0.5, 10.0),
        tan_ds=st.floats(0.0, 0.1),
        # around DEGENERATE_G, the usual range, and outsize factors that put |re| past 1
        g_value=st.one_of(st.floats(0.0, 2 * DEGENERATE_G), st.floats(0.0, 0.1), st.floats(0.0, 4.0)),
    )
    @settings(max_examples=300)
    def test_what_synthesis_predicts_inversion_accepts(self, mu_re, tan_dm, mu_rs_re, tan_ds, g_value):
        mu = ComplexPermeability.from_loss_tangent(mu_re, tan_dm)
        mu_rs = complex(mu_rs_re, -mu_rs_re * tan_ds)  # passive substrate
        g = GeometryFactor(g_value, "drawn")
        empty = Resonance.from_loaded(7.5e9, 560.0, 0.3, "model")
        closed = fractional_shift_closed(mu, mu_rs, g)
        assume(abs(abs(closed.real) - 1.0) > RE_MARGIN)
        try:
            shift = complex_shift_from_resonances(empty, loaded_resonance(mu, mu_rs, g, empty))
        except InvalidGeometryError as exc:
            if str(exc) != "predicted unloaded Q is not positive":
                # synthesis refused the shift: inversion refuses it with the same words
                with pytest.raises(InvalidGeometryError, match=f"^{re.escape(str(exc))}$"):
                    invert_permeability(closed, g, mu_rs)
                return
            # a loaded Q that is not positive is no resonance, so no measured pair
            # carries this shift; the shift itself lies inside the domain
            shift = closed
        # inside the domain a shift may still read as an unphysical permeability (exit 4)
        with contextlib.suppress(UnphysicalResultError):
            invert_permeability(shift, g, mu_rs)


class TestConventionalBaseline:
    def test_zero_shift(self, worked_cavity, worked_sample, mode4):
        mu = invert_permeability(
            0j,
            geometry_factor_conventional(worked_cavity, worked_sample, mode4),
            1.0,
        )
        assert mu.mu_re == 1.0 and mu.mu_im == 0.0

    def test_small_sample_limits_coincide(self, worked_cavity, mode4):
        tiny = SampleSpec(1e-5, 1e-5, 1e-5)
        g_conv = geometry_factor_conventional(worked_cavity, tiny, mode4)
        g_axial = geometry_factor_derived(
            worked_cavity, tiny, mode4, InteractionChoice.AXIAL_HX
        )
        assert g_conv.value == pytest.approx(g_axial.value, rel=1e-6)
        shift = -2e-9 + 3e-10j
        mu_conv = invert_permeability(
            shift, geometry_factor_conventional(worked_cavity, tiny, mode4), 1.0
        )
        mu_axial = invert_permeability(shift, g_axial, 1.0)
        assert mu_conv.mu_re == pytest.approx(mu_axial.mu_re, rel=1e-6)

    def test_all_factor_routes_vanish_with_volume(self, worked_cavity, mode4):
        shrunk = SampleSpec(1e-6, 1e-6, 1e-6)
        values = [
            geometry_factor_printed(worked_cavity, shrunk, mode4).value,
            geometry_factor_conventional(worked_cavity, shrunk, mode4).value,
            *(
                geometry_factor_derived(worked_cavity, shrunk, mode4, c).value
                for c in CHOICES
            ),
        ]
        assert all(0 <= v < 1e-9 for v in values)

    def test_conventional_differs_for_worked_sample(
        self, worked_cavity, worked_sample, mode4
    ):
        g_conv = geometry_factor_conventional(worked_cavity, worked_sample, mode4)
        g_hz = geometry_factor_derived(
            worked_cavity, worked_sample, mode4, InteractionChoice.TRANSVERSE_HZ
        )
        assert g_conv.value > 100 * g_hz.value


class TestDomainTypes:
    def test_permeability_validation(self):
        with pytest.raises(InvalidGeometryError):
            ComplexPermeability(0.0, 0.0)
        with pytest.raises(InvalidGeometryError):
            ComplexPermeability(1.5, -0.01)
        with pytest.raises(InvalidGeometryError, match="finite"):
            ComplexPermeability(10.0, float("inf"))
        with pytest.raises(InvalidGeometryError, match="finite"):
            ComplexPermeability(float("nan"), 0.0)

    def test_loss_tangent_consistency(self):
        mu = ComplexPermeability.from_loss_tangent(1.7, 0.123)
        assert abs(mu.tan_dm - 0.123) < 1e-12
        assert mu.as_complex == pytest.approx(1.7 - 1j * 1.7 * 0.123)

    def test_shift_validation(self):
        g = GeometryFactor(1e-3, "printed")
        with pytest.raises(InvalidGeometryError):
            invert_permeability(1.5 + 0j, g, 1.0)
        with pytest.raises(InvalidGeometryError):
            invert_permeability(complex(float("nan"), 0.0), g, 1.0)

    def test_sample_validation(self):
        with pytest.raises(InvalidGeometryError, match="thickness"):
            SampleSpec(0.01, 0.002, 0.0)

    def test_geometry_factor_validation(self):
        with pytest.raises(InvalidGeometryError):
            GeometryFactor(-1e-3, "printed")
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidGeometryError):
                GeometryFactor(value, "printed")
