"""Reference 3-dB Q and Lorentzian fit for the differential tests in test_traceio.py.

These are `permeameter.traceio.q_3db` and `fit_lorentzian` as they were
before they became peak-local: `q_3db` converted the whole trace to dB
and walked to each half-power crossing one sample at a time, and the
fit selected its window with a boolean mask over the whole trace.  They
are kept unchanged apart from their names, their edge-peak and
missing-crossing errors, which spell the message out as the error no
longer does and are NoUsableResonanceError, the one class the package
raises for them now, and the fit's catch of its 3-dB start, which takes
every NoUsableResonanceError (a net-gain start too) as the package's fit
does.  So that they pin the bits of the current code on their own, they
also keep their own copies of the dB conversion and of the least-squares
pass, as they were before those were made leaner.
"""

from __future__ import annotations

import numpy as np

from permeameter.errors import FitFailureError, InvalidGeometryError, NoUsableResonanceError
from permeameter.traceio import (
    FIT_WINDOW_BANDWIDTHS,
    HALF_POWER_DB,
    FrequencyTrace,
    Resonance,
    _parabolic_vertex,
)


def _db(s21: np.ndarray) -> np.ndarray:
    """|S21| in dB, a zero magnitude read as 1e-300 (-6000 dB)."""
    return 20.0 * np.log10(np.maximum(np.abs(s21), 1e-300))


def _quadratic_pass(
    powers: np.ndarray, root_w: np.ndarray, target: np.ndarray, fallback
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares quadratic with rows scaled by root_w: (coefficients, model)."""
    rows = powers * root_w[:, None]
    try:
        coef = np.linalg.solve(rows.T @ rows, rows.T @ target)
    except np.linalg.LinAlgError:
        raise FitFailureError("singular normal equations", fallback) from None
    model = powers @ coef
    if not np.all(model > 0):
        raise FitFailureError("fitted 1/|S21|^2 is not positive over the window", fallback)
    return coef, model


def _crossing(
    f: np.ndarray, db: np.ndarray, peak: int, target: float, step: int
) -> float:
    """Frequency where db falls to target, walking from peak by step."""
    side = "left" if step < 0 else "right"
    j = peak
    while True:
        j += step
        if j < 0 or j >= len(db):
            raise NoUsableResonanceError(f"no half-power crossing on the {side} side")
        if db[j] <= target:
            # linear interpolation in (f, dB) between j and the sample before it
            f_a, f_b = f[j - step], f[j]
            y_a, y_b = db[j - step], db[j]
            return f_a + (target - y_a) * (f_b - f_a) / (y_b - y_a)


def reference_q_3db(trace: FrequencyTrace, peak_index: int) -> Resonance:
    """The whole-trace `q_3db` that the peak-local one replaced."""
    db = _db(trace.s21)
    f = trace.freqs
    i = peak_index
    if i <= 0 or i >= len(f) - 1:
        raise NoUsableResonanceError("peak at trace edge")
    target = db[i] - HALF_POWER_DB
    f_lo = _crossing(f, db, i, target, -1)
    f_hi = _crossing(f, db, i, target, +1)
    f0, peak_db = _parabolic_vertex(f, db, i)
    q_loaded = f0 / (f_hi - f_lo)
    with np.errstate(over="ignore"):  # a vertex far above the samples: from_loaded rejects inf
        il = 10.0 ** (peak_db / 20.0)
    return Resonance.from_loaded(f0, q_loaded, il, method="three-db")


def reference_fit_lorentzian(trace: FrequencyTrace, peak_index: int) -> Resonance:
    """The mask-window `fit_lorentzian` that the sliced one replaced."""
    fallback = None
    f = trace.freqs
    try:
        fallback = reference_q_3db(trace, peak_index)
        f_s, bandwidth = fallback.f0, fallback.f0 / fallback.q_loaded
    except (NoUsableResonanceError, InvalidGeometryError):
        # crude starting window; the fit either rescues it or reports failure
        f_s, bandwidth = f[min(max(peak_index, 0), len(f) - 1)], f[-1] - f[0]
    h = 0.5 * FIT_WINDOW_BANDWIDTHS * bandwidth
    mask = (f >= f_s - h) & (f <= f_s + h)
    if mask.sum() < 4:
        raise FitFailureError("fewer than 4 samples in the fit window", fallback)
    y = np.abs(trace.s21[mask]) ** 2
    if np.max(y) - np.min(y) <= 1e-12 * np.max(y):
        raise FitFailureError("no curvature in the fit window", fallback)
    # a zero or extreme sample turns into inf or nan here, and then into a
    # FitFailureError from the checks below rather than a warning
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        powers = np.vander((f[mask] - f_s) / h, 3, increasing=True)
        # pass 1 scales each row by |S21|^3, so its target 1/|S21|^2 becomes |S21|
        _, p = _quadratic_pass(powers, y**1.5, np.sqrt(y), fallback)
        noise = np.mean((1.0 / y - p) ** 2 / (2.0 * p**3))
        root_w = p**-1.5
        (c0, c1, c2), _ = _quadratic_pass(
            powers, root_w, (1.0 / y - noise * p**2) * root_w, fallback
        )
        x_v = -c1 / (2.0 * c2)
        p_v = c0 + 0.5 * c1 * x_v
        f0_fit = f_s + h * x_v
        q_fit = f0_fit / (2.0 * h) * np.sqrt(c2 / p_v)
        il_fit = p_v**-0.5
    if not (q_fit > 0 and f0_fit > 0 and 0 < il_fit < 1):
        raise FitFailureError(
            f"fit left the valid region (f0={f0_fit:.6g}, Q={q_fit:.6g}, IL={il_fit:.6g})",
            fallback,
        )
    return Resonance.from_loaded(f0_fit, q_fit, il_fit, method="lorentzian-fit")
