import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permeameter import (
    CavitySpec,
    ModeSpec,
    effective_width,
    guided_wavelength,
    mode_field,
    resonant_frequency,
    stored_field_norm,
    wavenumbers,
)
from permeameter.errors import InvalidGeometryError


def norm_by_midpoint(cavity, mode, cells=200):
    """Brute-force cavity integral of |h_x|^2 + |h_z|^2 (midpoint rule)."""
    a, l = cavity.a_eff, cavity.length_l
    x = (np.arange(cells) + 0.5) * a / cells
    z = (np.arange(cells) + 0.5) * l / cells
    X, Z = np.meshgrid(x, z, indexing="ij")
    fields = mode_field(cavity, mode, X, Z)
    energy = fields.h_x**2 + fields.h_z**2
    return energy.sum() * (a / cells) * (l / cells) * cavity.height_h


class TestEffectiveWidth:
    def test_worked_value(self):
        got = effective_width(0.03045, 0.0008, 0.0015)
        assert got == pytest.approx(0.03000087719298246, rel=1e-12)
        assert got == pytest.approx(30.001e-3, abs=1e-6)

    def test_vanishing_via_limit(self):
        assert effective_width(0.030, 1e-12, 0.001) == pytest.approx(0.030, rel=1e-12)

    def test_correction_exceeding_width(self):
        with pytest.raises(InvalidGeometryError, match="0.95"):
            effective_width(0.001, 0.0008, 0.001)

    def test_bad_via_ordering(self):
        with pytest.raises(InvalidGeometryError, match="via"):
            effective_width(0.030, 0.002, 0.001)

    def test_cavity_applies_correction(self):
        cav = CavitySpec(0.03045, 0.060, 0.00157, 2.2,
                         via_diameter_d=0.0008, via_pitch_p=0.0015)
        assert cav.a_eff == pytest.approx(0.03000087719298246, rel=1e-12)


class TestResonantFrequency:
    def test_worked_values(self, worked_cavity):
        f1 = resonant_frequency(worked_cavity, ModeSpec(1))
        f4 = resonant_frequency(worked_cavity, ModeSpec(4))
        assert f1 == pytest.approx(3766284462.743864, rel=1e-12)
        assert f4 == pytest.approx(7532568925.487728, rel=1e-12)
        assert abs(f1 - 3.766e9) < 1e6
        assert abs(f4 - 7.533e9) < 1e6

    def test_halving_lengths_doubles_frequency(self, worked_cavity):
        half = CavitySpec(0.015, 0.030, 0.000785, 2.2)
        for n in range(1, 5):
            assert resonant_frequency(half, ModeSpec(n)) == pytest.approx(
                2 * resonant_frequency(worked_cavity, ModeSpec(n)), rel=1e-12
            )

    def test_monotonic_in_n(self, worked_cavity):
        freqs = [resonant_frequency(worked_cavity, ModeSpec(n)) for n in range(1, 8)]
        assert all(a < b for a, b in zip(freqs, freqs[1:]))

    @given(
        a=st.floats(0.01, 0.1),
        l=st.floats(0.02, 0.2),
        eps=st.floats(1.0, 12.0),
        factor=st.floats(1.01, 2.0),
        n=st.integers(1, 6),
    )
    @settings(max_examples=50)
    def test_monotonic_in_dimensions(self, a, l, eps, factor, n):
        h = 0.1 * a
        base = resonant_frequency(CavitySpec(a, l, h, eps), ModeSpec(n))
        assert resonant_frequency(CavitySpec(a * factor, l, h, eps), ModeSpec(n)) < base
        assert resonant_frequency(CavitySpec(a, l * factor, h, eps), ModeSpec(n)) < base
        assert resonant_frequency(CavitySpec(a, l, h, eps * factor), ModeSpec(n)) < base


class TestGuidedWavelength:
    @pytest.mark.parametrize(
        "l,n,expected", [(0.060, 4, 0.030), (0.060, 2, 0.060), (0.045, 3, 0.030)]
    )
    def test_two_l_over_n(self, l, n, expected):
        cav = CavitySpec(0.030, l, 0.00157, 2.2)
        assert guided_wavelength(cav, ModeSpec(n)) == pytest.approx(expected, rel=1e-12)


class TestModeField:
    def test_even_mode_center(self, worked_cavity):
        mode = ModeSpec(4)
        k_x, k_z = wavenumbers(worked_cavity, mode)
        fp = mode_field(worked_cavity, mode, 0.015, 0.030)
        assert abs(fp.h_z) < 1e-9 * k_x
        assert abs(fp.e_y_rel) < 1e-12
        assert abs(fp.h_x) == pytest.approx(k_z, rel=1e-12)

    def test_side_wall_kills_normal_h(self, worked_cavity):
        for z in (0.0, 0.01, 0.037, 0.060):
            assert mode_field(worked_cavity, ModeSpec(3), 0.0, z).h_x == 0.0

    def test_frozen_values_n2(self, worked_cavity):
        fp = mode_field(worked_cavity, ModeSpec(2), 0.0075, 0.0075)
        assert fp.h_x == pytest.approx(-52.35987755982988, rel=1e-12)
        assert fp.h_z == pytest.approx(+52.35987755982988, rel=1e-12)

    def test_out_of_cavity(self, worked_cavity):
        outside = r"point outside cavity: need 0 <= x <= 0\.03, 0 <= z <= 0\.06$"
        with pytest.raises(InvalidGeometryError, match=outside):
            mode_field(worked_cavity, ModeSpec(1), -1e-6, 0.01)
        with pytest.raises(InvalidGeometryError, match=outside):
            mode_field(worked_cavity, ModeSpec(1), 0.01, 0.0601)

    def test_array_evaluation(self, worked_cavity):
        x = np.linspace(0, 0.030, 7)
        fp = mode_field(worked_cavity, ModeSpec(2), x, 0.01)
        assert fp.h_x.shape == x.shape


class TestStoredFieldNorm:
    def test_worked_value(self, worked_cavity, mode4):
        got = stored_field_norm(worked_cavity, mode4)
        assert got == pytest.approx(0.03873819727427573, rel=1e-12)
        assert abs(got - 0.03874) < 1e-5

    def test_symmetric_collapse(self, worked_cavity):
        # k_x == k_z for n=2 in the 30x60 cavity
        mode = ModeSpec(2)
        k_x, k_z = wavenumbers(worked_cavity, mode)
        assert k_x == pytest.approx(k_z, rel=1e-12)
        expected = (
            worked_cavity.height_h
            * worked_cavity.a_eff
            * worked_cavity.length_l
            * k_x**2
            / 2.0
        )
        assert stored_field_norm(worked_cavity, mode) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_midpoint_integration(self, worked_cavity, n):
        mode = ModeSpec(n)
        closed = stored_field_norm(worked_cavity, mode)
        brute = norm_by_midpoint(worked_cavity, mode, cells=200)
        assert abs(brute - closed) / closed < 1e-9


class TestFieldInvariants:
    def rng_points(self, cavity, count, seed):
        rng = np.random.default_rng(seed)
        return (
            rng.uniform(0, cavity.a_eff, count),
            rng.uniform(0, cavity.length_l, count),
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_mirror_symmetry(self, worked_cavity, n):
        mode = ModeSpec(n)
        a, l = worked_cavity.a_eff, worked_cavity.length_l
        x, z = self.rng_points(worked_cavity, 300, seed=n)
        base = mode_field(worked_cavity, mode, x, z)
        mag = np.hypot(base.h_x, base.h_z)
        for xm, zm in ((a - x, z), (x, l - z)):
            mirrored = mode_field(worked_cavity, mode, xm, zm)
            np.testing.assert_allclose(
                np.hypot(mirrored.h_x, mirrored.h_z), mag, rtol=1e-9, atol=1e-9
            )

    @pytest.mark.parametrize("n", [2, 4])
    def test_even_center_null_and_hx_max(self, worked_cavity, n):
        mode = ModeSpec(n)
        a, l = worked_cavity.a_eff, worked_cavity.length_l
        k_x, k_z = wavenumbers(worked_cavity, mode)
        center = mode_field(worked_cavity, mode, a / 2, l / 2)
        assert abs(center.e_y_rel) < 1e-12
        assert abs(center.h_z) < 1e-9 * k_x
        x = np.linspace(0, a, 501)
        along = mode_field(worked_cavity, mode, x, l / 2)
        assert np.all(abs(center.h_x) >= np.abs(along.h_x) - 1e-9 * k_z)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_wall_conditions(self, worked_cavity, n):
        mode = ModeSpec(n)
        a, l = worked_cavity.a_eff, worked_cavity.length_l
        k_x, k_z = wavenumbers(worked_cavity, mode)
        span_x = np.linspace(0, a, 64)
        span_z = np.linspace(0, l, 64)
        for x_wall in (0.0, a):
            fp = mode_field(worked_cavity, mode, np.full_like(span_z, x_wall), span_z)
            assert np.all(np.abs(fp.e_y_rel) < 1e-9)
            assert np.all(np.abs(fp.h_x) < 1e-9 * k_z)
        for z_wall in (0.0, l):
            fp = mode_field(worked_cavity, mode, span_x, np.full_like(span_x, z_wall))
            assert np.all(np.abs(fp.e_y_rel) < 1e-9)
            assert np.all(np.abs(fp.h_z) < 1e-9 * k_x)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs,needle",
        [
            (dict(width_a=-0.03, length_l=0.06, height_h=0.001, eps_r=2.2), "width_a"),
            (dict(width_a=0.03, length_l=0.0, height_h=0.001, eps_r=2.2), "length_l"),
            (dict(width_a=0.03, length_l=0.06, height_h=-1.0, eps_r=2.2), "height_h"),
            (dict(width_a=0.03, length_l=0.06, height_h=0.001, eps_r=0.5), "eps_r"),
            (dict(width_a=0.03, length_l=0.06, height_h=0.04, eps_r=2.2), "height_h"),
            (
                dict(width_a=0.03, length_l=0.06, height_h=0.001, eps_r=2.2, mu_rs=0.5),
                "mu_rs",
            ),
            # mu' - j mu'': a positive imaginary part is a substrate with gain
            (
                dict(width_a=0.03, length_l=0.06, height_h=0.001, eps_r=2.2, mu_rs=1 + 0.002j),
                "^mu_rs imaginary part must be <= 0$",
            ),
            (
                dict(width_a=0.03, length_l=0.06, height_h=0.001, eps_r=2.2,
                     mu_rs=complex(1, float("nan"))),
                "^mu_rs imaginary part must be <= 0$",
            ),
        ],
    )
    def test_cavity_invariants_name_field(self, kwargs, needle):
        with pytest.raises(InvalidGeometryError, match=needle):
            CavitySpec(**kwargs)

    @pytest.mark.parametrize("via", [dict(via_diameter_d=0.0005), dict(via_pitch_p=0.001)])
    def test_via_diameter_and_pitch_come_together(self, via):
        with pytest.raises(InvalidGeometryError, match="must be given together"):
            CavitySpec(0.03, 0.06, 0.001, 2.2, **via)

    def test_mode_index_validation(self):
        with pytest.raises(InvalidGeometryError, match="n must be an integer >= 1"):
            ModeSpec(0)
        assert ModeSpec(2).is_even and not ModeSpec(3).is_even

    @given(scale=st.floats(0.25, 4.0), n=st.integers(1, 5))
    @settings(max_examples=40)
    def test_frequency_scales_inversely_with_size(self, scale, n):
        base = CavitySpec(0.03, 0.06, 0.0015, 3.0)
        scaled = CavitySpec(0.03 * scale, 0.06 * scale, 0.0015 * scale, 3.0)
        f_base = resonant_frequency(base, ModeSpec(n))
        f_scaled = resonant_frequency(scaled, ModeSpec(n))
        assert f_scaled == pytest.approx(f_base / scale, rel=1e-9)
