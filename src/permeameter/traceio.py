"""Resonance detection and Q extraction on an S21 trace."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    FitFailureError,
    InsufficientSpanError,
    InvalidGeometryError,
    NearCriticalCouplingWarning,
    NoUsableResonanceError,
)
from .touchstone import FrequencyTrace

HALF_POWER_DB = 10.0 * math.log10(2.0)  # 3.0103 dB

#: Least prominence of a |S21| maximum that find_resonances reports, in
#: noise standard deviations of the trace (see _noise_sigma).
MIN_PROMINENCE_SIGMAS = 10.0

#: Most adjacent-sample pairs that _noise_sigma reads.
NOISE_PAIRS = 4096

#: Standard deviation of a normal variable per median absolute
#: difference of two independent draws: 1.4826 / sqrt(2).
MAD_DIFF_SCALE = 1.4826 / math.sqrt(2.0)

#: Width of the Lorentzian fit window, in 3-dB bandwidths (perfbench's fit budget assumes 5).
FIT_WINDOW_BANDWIDTHS = 5.0


def _db(s21: np.ndarray) -> np.ndarray:
    """|S21| in dB, a zero magnitude read as 1e-300 (-6000 dB)."""
    db = np.abs(s21)
    np.maximum(db, 1e-300, out=db)
    np.log10(db, out=db)
    db *= 20.0
    return db


@dataclass(frozen=True)
class Resonance:
    """One resonant feature of a transmission trace."""

    f0: float
    q_loaded: float
    q_unloaded: float
    il_linear: float
    method: str = ""

    def __post_init__(self):
        for name in ("f0", "q_loaded", "q_unloaded"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidGeometryError(f"{name} must be > 0 and finite")
        if not 0 < self.il_linear < 1:
            raise InvalidGeometryError("il_linear must be in (0, 1)")
        expected = self.q_loaded / (1.0 - self.il_linear)
        if abs(self.q_unloaded - expected) > 1e-9 * expected:
            raise InvalidGeometryError(
                "q_unloaded inconsistent with q_loaded/(1 - il_linear)"
            )

    @classmethod
    def from_loaded(
        cls, f0: float, q_loaded: float, il_linear: float, method: str = ""
    ) -> "Resonance":
        """Resonance with the unloaded Q of symmetric two-port coupling, Q_L / (1 - IL)."""
        if il_linear >= 1:
            raise NoUsableResonanceError(
                f"il_linear = {il_linear:.6g} >= 1; trace shows net gain, unloading undefined"
            )
        if il_linear > 0.9:
            warnings.warn(
                f"il_linear = {il_linear:.3g} is near critical coupling; "
                "unloaded Q is poorly conditioned",
                NearCriticalCouplingWarning,
                stacklevel=2,
            )
        return cls(f0, q_loaded, q_loaded / (1.0 - il_linear), il_linear, method)

    @classmethod
    def from_unloaded(
        cls, f0: float, q_unloaded: float, il_linear: float, method: str = ""
    ) -> "Resonance":
        """Resonance with the loaded Q of symmetric two-port coupling, Q_u (1 - IL)."""
        return cls(f0, q_unloaded * (1.0 - il_linear), q_unloaded, il_linear, method)


# ---------------------------------------------------------------------------
# Resonance detection and Q extraction
# ---------------------------------------------------------------------------


def find_resonances(trace: FrequencyTrace) -> list[int]:
    """Indices of the maxima of the linear |S21| whose prominence is at
    least MIN_PROMINENCE_SIGMAS times the trace's own noise level
    (_noise_sigma); see _prominent_peaks for the rule.  A threshold that
    scales with the noise keeps the resonance at any floor, while the
    maxima that noise makes on its skirt stay below it."""
    mag = np.abs(trace.s21)
    return _prominent_peaks(mag, MIN_PROMINENCE_SIGMAS * _noise_sigma(mag))


def _noise_sigma(mag: np.ndarray) -> float:
    """Robust noise standard deviation of mag, from its finest-scale
    differences (Donoho & Johnstone, Biometrika 81, 425 (1994)).

    sigma = 1.4826 / sqrt(2) * median |mag[2k + 1] - mag[2k]| over
    non-overlapping adjacent pairs, at most NOISE_PAIRS of them at a fixed
    stride; the median is the upper one of an even count, found with one
    np.partition.  A resonance moves only the few pairs on its flanks, so
    the median reads the noise, or on a noiseless trace the smooth slope.

    The median is 0 only when more than half the pairs are equal, as on
    a trace quantized more coarsely than its noise.  A zero threshold
    would report every maximum, so the least nonzero step of the whole
    trace, one quantization step, stands in for sigma; a constant trace,
    or one of fewer than 3 samples, has no maximum and gets inf.
    """
    if mag.size < 3:
        return math.inf
    stride = 2 * -(-(mag.size // 2) // NOISE_PAIRS)
    diffs = np.abs(mag[1::stride] - mag[0:mag.size - 1:stride])
    middle = diffs.size // 2
    median = np.partition(diffs, middle)[middle]
    if median > 0:
        return MAD_DIFF_SCALE * float(median)
    steps = np.abs(mag[1:] - mag[:-1])
    steps = steps[steps > 0]
    return float(steps.min()) if steps.size else math.inf


def _prominent_peaks(y: np.ndarray, p: float) -> list[int]:
    """Indices of the local maxima of y with a prominence of at least p > 0.

    The rule is that of ``scipy.signal.find_peaks(y, prominence=p)``,
    and the indices are the same on any float array without NaN,
    infinities included:

    * a peak is a sample, or a plateau of equal samples, with a strictly
      lower sample on either side; a plateau is reported at its
      midpoint, rounded down, so the first and last samples never
      qualify;
    * each base walks out from the peak until it meets a sample strictly
      higher than the peak, or the trace edge, and takes the lowest
      sample it passed;
    * the prominence is the peak level minus the higher of the two
      bases, and a peak qualifies when its prominence is >= p.

    Comparisons of neighbouring samples, not their differences (inf - inf
    is NaN), find the turning points.  Once runs of equal samples are
    merged, they are maxima and minima in alternation, so the lowest
    sample between two neighbouring maxima is the minimum between them,
    and the lowest before the first maximum (after the last) is the edge
    sample or a minimum between it and that maximum.

    Most maxima of a noisy trace are blocked: a strictly higher
    neighbouring peak lies across a valley less than p deep.  The walk
    from a blocked peak stops before it passes a valley p deep, so the
    peak cannot qualify.  Dropping it, and merging the two valleys beside
    it into their minimum, keeps every other verdict: a lower peak whose
    walk now runs on past it passes only valleys less than p below the
    blocked peak, hence less than p below itself; if one of them becomes
    its base, the peak fails the >= p test, and failed it before too,
    when its base was no lower.  Vector passes drop the blocked peaks,
    repeating while a pass removes at least half of them, so together
    they cost about twice the first pass; the O(peaks) base walk then
    runs only on the survivors (of the ~10^4 maxima of a noisy
    40001-point |S21| at floors of -110 to -40 dB, the resonance alone
    survives find_resonances' threshold).

    Sorted by frequency.
    """
    size = y.size
    runs = None
    if (y[1:] == y[:-1]).any():
        # one sample per run of equal samples, so a plateau is one maximum
        runs = np.concatenate(([True], y[1:] != y[:-1])).nonzero()[0]
        y = y[runs]
    rising = y[1:] > y[:-1]
    # no two neighbours are equal now, so "not rising" is falling, and the
    # turning points alternate, a maximum first when the trace starts by rising
    turns = (rising[:-1] != rising[1:]).nonzero()[0] + 1
    first = 0 if turns.size and rising[0] else 1
    peaks = turns[first::2]
    if not peaks.size:
        return []
    heights = y[peaks]
    # gaps[k]: lowest sample between peak k-1 (or the left edge) and peak k;
    # gaps[-1]: lowest sample right of the last peak.  A minimum between
    # an edge and its nearest peak is the first (last) turn, and a peak
    # there is above the edge sample
    gaps = np.empty(peaks.size + 1)
    gaps[0] = min(y[0], y[turns[0]])
    gaps[1:-1] = y[turns[first + 1::2][:peaks.size - 1]]
    gaps[-1] = min(y[-1], y[turns[-1]])
    while heights.size > 1:
        # a peak with a strictly higher neighbour across a valley less than
        # p deep is blocked; the test is the same float expression as the
        # final one, so rounding cannot set the two apart
        valleys = gaps[1:-1]
        blocked = np.zeros(heights.size, dtype=bool)
        blocked[1:] = (heights[:-1] > heights[1:]) & (heights[1:] - valleys < p)
        blocked[:-1] |= (heights[1:] > heights[:-1]) & (heights[:-1] - valleys < p)
        keep = (~blocked).nonzero()[0]
        # the merged valley between two kept peaks is the lowest of the
        # valleys they span, the right tail included
        gaps = np.minimum.reduceat(gaps, np.concatenate(([0], keep + 1)))
        peaks, heights = peaks[keep], heights[keep]
        if 2 * keep.size > blocked.size:
            break
    levels = heights.tolist()
    gaps = gaps.tolist()
    left = _base_levels(levels, gaps[:-1])
    right = _base_levels(levels[::-1], gaps[:0:-1])[::-1]
    found = peaks[heights - np.maximum(left, right) >= p]
    if runs is not None:
        ends = np.append(runs[1:], size) - 1
        found = (runs[found] + ends[found]) // 2
    return [int(i) for i in found]


def _base_levels(levels: list[float], gaps: list[float]) -> list[float]:
    """Base of each peak on one side, walking against the list order.

    gaps[k] is the lowest sample between peak k and the peak (or trace
    edge) before it.  The stack holds the earlier peaks not yet passed
    by a walk, each with its own base; their levels strictly decrease
    from the bottom.  A walk from a new peak passes every stacked peak
    no higher than it and takes their bases, and one that empties the
    stack has reached the trace edge.  Each peak is pushed and popped
    once, O(peaks) per trace rather than O(samples x peaks).
    """
    stack = []
    out = []
    for level, base in zip(levels, gaps):
        while stack and stack[-1][0] <= level:
            passed = stack.pop()[1]
            if passed < base:
                base = passed
        stack.append((level, base))
        out.append(base)
    return out


def _parabolic_vertex(f: np.ndarray, y: np.ndarray, i: int) -> tuple[float, float]:
    """Vertex of the parabola through points i-1, i, i+1 of (f, y)."""
    f0, f1, f2 = f[i - 1], f[i], f[i + 1]
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    d1, d2 = f1 - f0, f1 - f2
    num = d1**2 * (y1 - y2) - d2**2 * (y1 - y0)
    den = d1 * (y1 - y2) - d2 * (y1 - y0)
    if den == 0:
        return f1, y1
    fv = f1 - 0.5 * num / den
    # evaluate the parabola at its vertex via Lagrange form
    l0 = (fv - f1) * (fv - f2) / ((f0 - f1) * (f0 - f2))
    l1 = (fv - f0) * (fv - f2) / ((f1 - f0) * (f1 - f2))
    l2 = (fv - f0) * (fv - f1) / ((f2 - f0) * (f2 - f1))
    return fv, y0 * l0 + y1 * l1 + y2 * l2


def _crossing(f: np.ndarray, db: np.ndarray, j: int, target: float, step: int) -> float:
    """Frequency where db falls to target between sample j, at or below
    it, and sample j - step, above it: linear in (f, dB)."""
    f_a, f_b = f[j - step], f[j]
    y_a, y_b = db[j - step], db[j]
    return f_a + (target - y_a) * (f_b - f_a) / (y_b - y_a)


def q_3db(trace: FrequencyTrace, peak_index: int) -> Resonance:
    """Half-power-bandwidth Q at a detected peak.

    Each crossing is linearly interpolated in (f, dB) next to the sample
    nearest the peak at or below its level less 3 dB; the peak frequency
    and level are refined by a parabola through the three dB samples
    around the maximum.  Only the samples near the peak are converted to
    dB: +-max(64, len(trace) // 64) of them, which hold both crossings
    at the first try when the trace spans at least ~32 bandwidths, and
    the window is widened x4 until both crossings or the whole trace are
    inside.
    """
    f = trace.freqs
    i = peak_index
    if i <= 0 or i >= len(f) - 1:
        raise InsufficientSpanError("peak at trace edge")
    half = max(64, len(f) // 64)
    while True:
        lo, hi = max(i - half, 0), min(i + half + 1, len(f))
        db = _db(trace.s21[lo:hi])
        k = i - lo
        target = db[k] - HALF_POWER_DB
        below = db <= target
        left = below[:k].nonzero()[0]
        right = below[k + 1:].nonzero()[0]
        if (left.size or lo == 0) and (right.size or hi == len(f)):
            break
        half *= 4
    if not (left.size and right.size):
        side = "right" if left.size else "left"
        raise InsufficientSpanError(f"no half-power crossing on the {side} side")
    f = f[lo:hi]
    f_lo = _crossing(f, db, left[-1], target, -1)
    f_hi = _crossing(f, db, k + 1 + right[0], target, +1)
    f0, peak_db = _parabolic_vertex(f, db, k)
    q_loaded = f0 / (f_hi - f_lo)
    with np.errstate(over="ignore"):  # a vertex far above the samples: from_loaded rejects inf
        il = 10.0 ** (peak_db / 20.0)
    return Resonance.from_loaded(f0, q_loaded, il, method="three-db")


def fit_lorentzian(trace: FrequencyTrace, peak_index: int) -> Resonance:
    """Closed-form Lorentzian refinement of a resonance.

    |S21|^2 = IL^2 / (1 + 4 Q^2 ((f - f0)/f0)^2), so 1/|S21|^2 is exactly
    a quadratic p(x) = c0 + c1 x + c2 x^2 in x = (f - f_s)/h, where f_s is
    the bandwidth-method f0 and h half of a window of FIT_WINDOW_BANDWIDTHS
    3-dB bandwidths centered on it.  Only the magnitude is fitted, so a
    phase offset or an uncalibrated cable delay leaves the result exact.
    Two weighted linear least-squares passes, no iteration:

    1. rows weighted by |S21|^6, the inverse variance of 1/|S21|^2 under
       additive complex noise; the residuals give the noise power
       P = mean((1/|S21|^2 - p)^2 / (2 p^3));
    2. a refit of 1/|S21|^2 - P p^2 with model weights p^-3, which removes
       the noise bias E[1/|S21 + n|^2] = p + P p^2.

    At the vertex x_v: f0 = f_s + h x_v, IL = p(x_v)^(-1/2) and
    Q = (f0 / 2h) sqrt(c2 / p(x_v)).  A failed fit raises FitFailureError
    carrying the bandwidth-method result as fallback (when available).
    """
    fallback = None
    f = trace.freqs
    try:
        fallback = q_3db(trace, peak_index)
        f_s, bandwidth = fallback.f0, fallback.f0 / fallback.q_loaded
    except (InsufficientSpanError, InvalidGeometryError):
        # crude starting window; the fit either rescues it or reports failure
        f_s, bandwidth = f[min(max(peak_index, 0), len(f) - 1)], f[-1] - f[0]
    h = 0.5 * FIT_WINDOW_BANDWIDTHS * bandwidth
    # freqs strictly increase, so the samples in [f_s - h, f_s + h] are one slice
    window = slice(f.searchsorted(f_s - h), f.searchsorted(f_s + h, side="right"))
    f = f[window]
    if len(f) < 4:
        raise FitFailureError("fewer than 4 samples in the fit window", fallback)
    y = np.abs(trace.s21[window]) ** 2
    y_max = y.max()
    if y_max - y.min() <= 1e-12 * y_max:
        raise FitFailureError("no curvature in the fit window", fallback)
    # a zero or extreme sample turns into inf or nan here, and then into a
    # FitFailureError from the checks below rather than a warning
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # np.vander(x, 3, increasing=True), C-ordered as it makes it
        x = (f - f_s) / h
        powers = np.empty((len(x), 3))
        powers[:, 0], powers[:, 1], powers[:, 2] = 1.0, x, x * x
        inv_y = 1.0 / y
        # pass 1 scales each row by |S21|^3, so its target 1/|S21|^2 becomes |S21|
        _, p = _quadratic_pass(powers, y**1.5, np.sqrt(y), fallback)
        noise = ((inv_y - p) ** 2 / (2.0 * p**3)).sum() / len(p)
        root_w = p**-1.5
        (c0, c1, c2), _ = _quadratic_pass(
            powers, root_w, (inv_y - noise * p**2) * root_w, fallback
        )
        x_v = -c1 / (2.0 * c2)
        p_v = c0 + 0.5 * c1 * x_v
        f0_fit = f_s + h * x_v
        q_fit = f0_fit / (2.0 * h) * np.sqrt(c2 / p_v)
        il_fit = p_v**-0.5
    if not (0 < q_fit < math.inf and 0 < f0_fit < math.inf and 0 < il_fit < 1):
        raise FitFailureError(
            f"fit left the valid region (f0={f0_fit:.6g}, Q={q_fit:.6g}, IL={il_fit:.6g})",
            fallback,
        )
    return Resonance.from_loaded(f0_fit, q_fit, il_fit, method="lorentzian-fit")


def _quadratic_pass(
    powers: np.ndarray, root_w: np.ndarray, target: np.ndarray, fallback
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares quadratic with rows scaled by root_w: (coefficients, model).

    target is already scaled.  The model is 1/|S21|^2, so it must be
    positive over the window; the next step divides by its powers.
    """
    rows = powers * root_w[:, None]
    try:
        coef = np.linalg.solve(rows.T @ rows, rows.T @ target)
    except np.linalg.LinAlgError:
        raise FitFailureError("singular normal equations", fallback) from None
    model = powers @ coef
    if not (model > 0).all():
        raise FitFailureError("fitted 1/|S21|^2 is not positive over the window", fallback)
    return coef, model
