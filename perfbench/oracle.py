"""Reference models the benchmark checks the program against.

Nothing here imports permeameter: the TE10n forward model, the
Lorentzian trace, the Touchstone writer and the error budget are written
from the formulas alone, so a fault in the program cannot cancel out of
a check.

Conventions follow the program's: x across the broad wall (width a),
z along the cavity (length l, n half-waves), a bar of extent l1 along x
and a1 along z centered in the cavity; mu_r = mu_re - j mu_im; the
fractional shift is -(mu_r / (2 mu_rs) - 1/2) g, with
re = (f_loaded - f_empty) / f_loaded and
im = (1/Q_loaded,u - 1/Q_empty,u) / 2 on unloaded Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

C0 = 299_792_458.0  # m/s

#: Error-budget multiplier on the predicted 1-sigma estimator noise.
K_SIGMA = 6.0
#: Relative f0 error the fit's stopping rule (relative step < 1e-10) and
#: the parabolic vertex may leave on a noiseless trace.
F0_FLOOR = 1e-9
#: Relative Q and IL error left on a noiseless trace: the fit's stopping
#: rule, and the linear (f, dB) interpolation of the 3-dB crossings.
Q_FLOOR = 1e-7
#: Relative tolerance on a quadrature-backed g: the program's own
#: convergence target for its box integral.
G_RTOL_QUADRATURE = 1e-6
#: Relative tolerance on a closed-form g (derived or conventional).
G_RTOL_CLOSED = 1e-12

UNIT_SCALE = {"HZ": 1.0, "MHZ": 1e6, "GHZ": 1e9}


def sinc(u: float) -> float:
    return math.sin(u) / u if u else 1.0


@dataclass(frozen=True)
class Geometry:
    """Cavity, bar and mode, lengths in meters."""

    a: float
    l: float
    h: float
    eps_r: float
    l1: float
    a1: float
    t: float
    n: int

    @property
    def k(self) -> tuple[float, float]:
        return math.pi / self.a, self.n * math.pi / self.l

    def f_res(self) -> float:
        """f_n = c / (2 sqrt(eps_r)) sqrt((1/a)^2 + (n/l)^2)."""
        return C0 / (2.0 * math.sqrt(self.eps_r)) * math.hypot(1.0 / self.a, self.n / self.l)

    def g(self, interaction: str) -> float:
        """Sample share of the stored |H|^2 for the chosen field components.

        Box integrals about the cavity center, with the parity factor of
        cos^2/sin^2(k_z z) across z = l/2:
            int sin^2(k_x x) = (l1/2)(1 + sinc(k_x l1))
            int cos^2(k_z z) = (a1/2)(1 + (-1)^n sinc(k_z a1))
        over the cavity norm (k_x^2 + k_z^2) a l h / 4.
        """
        kx, kz = self.k
        sx = sinc(kx * self.l1)
        sz = (-1) ** self.n * sinc(kz * self.a1)
        axial = kz**2 * (self.l1 / 2) * (1 + sx) * (self.a1 / 2) * (1 + sz)
        transverse = kx**2 * (self.l1 / 2) * (1 - sx) * (self.a1 / 2) * (1 - sz)
        energy = {
            "axial-hx": axial,
            "transverse-hz": transverse,
            "both-components": axial + transverse,
        }[interaction]
        return energy * self.t / ((kx**2 + kz**2) * self.a * self.l * self.h / 4)

    def g_conventional(self) -> float:
        """Uniform-field factor 4 k_z^2 V_s / (V_c (k_x^2 + k_z^2))."""
        kx, kz = self.k
        return 4 * kz**2 * self.l1 * self.a1 * self.t / (
            self.a * self.l * self.h * (kx**2 + kz**2)
        )


def shift(mu_re: float, mu_im: float, g: float, mu_rs: float = 1.0) -> complex:
    return -((mu_re - 1j * mu_im) / (2 * mu_rs) - 0.5) * g


def invert(shift_c: complex, g: float, mu_rs: float = 1.0) -> tuple[float, float]:
    """(mu_re, mu_im) from a fractional shift: mu_r = mu_rs (1 - 2 shift / g)."""
    mu = mu_rs * (1 - 2 * shift_c / g)
    return mu.real, -mu.imag


@dataclass(frozen=True)
class Resonance:
    f0: float
    q_loaded: float
    il: float

    @property
    def q_unloaded(self) -> float:
        return self.q_loaded / (1 - self.il)

    def loaded_by(self, shift_c: complex) -> "Resonance":
        """The resonance after a sample with fractional shift shift_c goes in."""
        inv_qu = 1 / self.q_unloaded + 2 * shift_c.imag
        return Resonance(self.f0 / (1 - shift_c.real), (1 - self.il) / inv_qu, self.il)


def lorentzian(freqs: np.ndarray, res: Resonance, noise_db: float | None, rng) -> np.ndarray:
    """S21 = IL / (1 + 2j Q_L (f - f0) / f0) plus complex Gaussian noise of
    total RMS 10^(noise_db / 20)."""
    s21 = res.il / (1 + 2j * res.q_loaded * (freqs - res.f0) / res.f0)
    if noise_db is not None:
        sigma = 10 ** (noise_db / 20) / math.sqrt(2)
        s21 = s21 + sigma * (rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs)))
    return s21


def touchstone_text(
    freqs: np.ndarray,
    s21: np.ndarray,
    s11: np.ndarray,
    fmt: str,
    unit: str,
    digits: int,
    comments: list[str],
) -> str:
    """A Touchstone v1 two-port file as a VNA writes one: comment lines, an
    option line, and `digits` significant digits per number."""

    def pair(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if fmt == "RI":
            return v.real, v.imag
        ang = np.degrees(np.angle(v))
        mag = np.abs(v)
        return (mag if fmt == "MA" else 20 * np.log10(mag)), ang

    a11, b11 = pair(s11)
    a21, b21 = pair(s21)
    cols = np.column_stack([freqs / UNIT_SCALE[unit], a11, b11, a21, b21, a21, b21, a11, b11])
    row = " ".join([f"%.{digits + 2}g"] + [f"%.{digits}g"] * 8)
    lines = [f"! {c}" for c in comments]
    lines.append(f"# {unit} S {fmt} R 50")
    lines.extend(row % tuple(r) for r in cols.tolist())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Error budget: how far an honest estimator may land from the truth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Budget:
    """Predicted 1-sigma noise and worst-case offset of one estimate."""

    sigma_f0: float
    sigma_inv_qu: float
    offset_f0: float
    offset_inv_qu: float


def rounding_halfwidths(fmt: str, digits: int, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest per-sample error, in S units, of writing S with `digits`
    significant digits, along its two written components.

    A number v written with d significant digits is off by at most half a
    unit in its last place, |v| 10^(1-d) / 2.  RI rounds the two parts; MA
    rounds |S| and the angle in degrees, which moves S by |S| times the
    angle error in radians; DB rounds 20 log10 |S|, which moves |S| by
    |S| ln(10) / 20 times the dB error.
    """
    half_ulp = 0.5 * 10.0 ** (1 - digits)
    mag = np.abs(s)
    if fmt == "RI":
        return np.abs(s.real) * half_ulp, np.abs(s.imag) * half_ulp
    angle = np.abs(np.degrees(np.angle(s))) * half_ulp * math.pi / 180 * mag
    if fmt == "MA":
        return mag * half_ulp, angle
    return np.abs(20 * np.log10(mag)) * half_ulp * math.log(10) / 20 * mag, angle


def noise_power(noise_db: float | None, rounding: tuple[str, int] | None, s: np.ndarray) -> np.ndarray:
    """Per-sample complex noise power: the trace's floor plus the rounding
    of a (format, digits) Touchstone file.

    Rounding is uniform over each component's half-width h, of variance
    h^2 / 3.  The budgets treat noise as circular, half its power along
    |S|; counting twice the sum of both components' variances keeps that
    half at least as large as either component.
    """
    power = np.zeros(np.shape(s), dtype=float)
    if noise_db is not None:
        power += 10 ** (noise_db / 10)
    if rounding is not None:
        h_a, h_b = rounding_halfwidths(*rounding, s)
        power += 2 * (h_a**2 + h_b**2) / 3
    return power


def budget_fit(freqs, res: Resonance, noise_db, rounding, window_bandwidths=5.0) -> Budget:
    """Linearised least-squares spread of an |S21|^2 Lorentzian fit.

    Sandwich covariance (J^T J)^-1 J^T V J (J^T J)^-1 of the unweighted fit
    over its window, with var(|S + n|^2) = 2 |S|^2 P, and the offset the
    noise power P adds to E|S + n|^2 = |S|^2 + P carried through the same
    normal equations.
    """
    f0, q, il = res.f0, res.q_loaded, res.il
    mask = np.abs(freqs - f0) <= 0.5 * window_bandwidths * f0 / q
    f = freqs[mask]
    u = (f - f0) / f0
    den = 1 + 4 * q**2 * u**2
    s2 = il**2 / den
    jac = np.column_stack(
        [il**2 * 8 * q**2 * u * f / (f0**2 * den**2), -(il**2) * 8 * q * u**2 / den**2, 2 * il / den]
    )
    p = noise_power(noise_db, rounding, il / (1 + 2j * q * u))
    a = np.linalg.inv(jac.T @ jac)
    cov = a @ (jac.T * (2 * s2 * p)) @ jac @ a
    offset = np.abs(a @ (jac.T @ p))
    s_f0, s_q, s_il = np.sqrt(np.diag(cov))
    return Budget(
        sigma_f0=s_f0,
        sigma_inv_qu=s_il / q + (1 - il) * s_q / q**2,
        offset_f0=offset[0] + F0_FLOOR * f0,
        offset_inv_qu=offset[2] / q + (1 - il) * offset[1] / q**2 + Q_FLOOR / res.q_unloaded,
    )


def budget_three_db(freqs, res: Resonance, noise_db, rounding) -> Budget:
    """Spread of the half-power method: the two 3-dB crossings and the
    three-sample parabola through the peak, each read off noisy samples.

    In x = 2 Q_L (f - f0) / f0 the dB curve falls 4.343 dB per unit x at
    the crossings and curves by 8.686 dB per unit x^2 at the peak.  The
    grid step h_x bounds the vertex error by h_x^3.  The crossings are
    interpolated linearly in (f, dB) across an inflection of the dB curve
    at x = +-1, which leaves Q_L off by at most h_x^3 / 4 relative.
    """
    f0, q, il = res.f0, res.q_loaded, res.il
    step = freqs[1] - freqs[0]
    hx = 2 * q * step / f0
    p_peak = float(noise_power(noise_db, rounding, np.array([il + 0j]))[0])
    p_cross = float(noise_power(noise_db, rounding, np.array([il / (1 + 1j)]))[0])
    db = 20 / math.log(10)
    s_peak_db = db * math.sqrt(p_peak / 2) / il * math.sqrt(3)
    s_cross_db = db * math.sqrt(p_cross / 2) / (il / math.sqrt(2))
    slope = db / 2  # dB per unit x at x = +-1
    s_bw_x = math.hypot(math.sqrt(2) * s_cross_db / slope, 2 * s_peak_db / slope)
    s_vertex_x = math.sqrt(2) * s_peak_db / (2 * db * hx)
    s_q = q * s_bw_x / 2
    s_il = il * s_peak_db / db
    return Budget(
        sigma_f0=s_vertex_x * f0 / (2 * q),
        sigma_inv_qu=s_il / q + (1 - il) * s_q / q**2,
        offset_f0=hx**3 * f0 / (2 * q) + F0_FLOOR * f0,
        offset_inv_qu=(hx**3 / 4 + Q_FLOOR) / res.q_unloaded,
    )


def peak_sample_reading(freqs, res: Resonance) -> Resonance:
    """The resonance a half-power reading reports on a noiseless trace when
    it takes its -3 dB target from the highest sample instead of the peak.

    That sample sits at x_s = 2 Q_L (f_s - f0) / f0, 10 log10(1 + x_s^2) dB
    below the peak, so the crossings move out to 1 + x^2 = 2 (1 + x_s^2)
    and Q_L reads low by the factor 1 / sqrt(1 + 2 x_s^2), at most
    h_x^2 / 4 relative for a grid step h_x.  f0 and IL are unchanged.
    """
    f_s = freqs[np.argmin(np.abs(freqs - res.f0))]
    x_s = 2 * res.q_loaded * (f_s - res.f0) / res.f0
    return Resonance(res.f0, res.q_loaded / math.sqrt(1 + 2 * x_s**2), res.il)


def shift_between(empty: Resonance, loaded: Resonance) -> complex:
    """The fractional shift the program infers from two resonances."""
    re = (loaded.f0 - empty.f0) / loaded.f0
    return complex(re, (1 / loaded.q_unloaded - 1 / empty.q_unloaded) / 2)


def tolerances(empty: Budget, loaded: Budget, f_loaded: float, g: float, mu_re: float, tan_dm: float, mu_rs: float = 1.0):
    """Allowed |error| of (mu_re, tan_dm) given both traces' budgets.

    mu_r = mu_rs (1 - 2 shift / g) is affine in the shift, so errors in
    re and im scale by 2 |mu_rs| / g.
    """
    d_re = (
        K_SIGMA * math.hypot(empty.sigma_f0, loaded.sigma_f0) + empty.offset_f0 + loaded.offset_f0
    ) / f_loaded
    d_im = 0.5 * (
        K_SIGMA * math.hypot(empty.sigma_inv_qu, loaded.sigma_inv_qu)
        + empty.offset_inv_qu
        + loaded.offset_inv_qu
    )
    tol_mu_re = 2 * abs(mu_rs) * d_re / g
    tol_mu_im = 2 * abs(mu_rs) * d_im / g
    return tol_mu_re, tol_mu_im / mu_re + tan_dm * tol_mu_re / mu_re
