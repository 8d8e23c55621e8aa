"""Touchstone two-port I/O, resonance detection, and Q extraction.

Accepted file grammar (Touchstone v1.0, two ports):

    ! comment lines anywhere; trailing '!' comments allowed on any line
    # [unit] [S] [fmt] [R z0]    one option line, case-insensitive, tokens
                                 in any order, each optional (defaults
                                 GHZ S MA R 50), unit in {HZ, KHZ, MHZ,
                                 GHZ}, fmt in {RI, MA, DB}
    f  S11 S11  S21 S21  S12 S12  S22 S22     nine numbers per row,
                                              v1 column order, f strictly
                                              increasing
    f  NFmin  Gopt Gopt  Rn                   optional noise-parameter
                                              block: five numbers per row,
                                              the first f not above the
                                              last S row's, then strictly
                                              increasing; checked, not read

v2 files ([Version] ...) are rejected.  All parse errors carry the
1-based line number of the offending line.
"""

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
    TouchstoneParseError,
)

FREQ_UNITS = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}
FORMATS = ("RI", "MA", "DB")
#: What each option-line token sets; "R" is followed by the impedance.
OPTION_TOKENS = {**dict.fromkeys(FREQ_UNITS, "unit"), **dict.fromkeys(FORMATS, "format"),
                 "S": "parameter type", "R": "reference impedance"}

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


@dataclass(frozen=True)
class FrequencyTrace:
    """Frequency grid with complex linear transmission samples."""

    freqs: np.ndarray
    s21: np.ndarray
    s11: np.ndarray | None = None
    z0: float = 50.0
    fmt: str = "RI"

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        s21 = np.asarray(self.s21, dtype=complex)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "s21", s21)
        if self.s11 is not None:
            s11 = np.asarray(self.s11, dtype=complex)
            object.__setattr__(self, "s11", s11)
            if s11.shape != freqs.shape or not np.all(np.isfinite(s11)):
                raise InvalidGeometryError("s11 must be finite and match freqs")
        if freqs.ndim != 1 or len(freqs) < 1:
            raise InvalidGeometryError("trace needs at least one point")
        if s21.shape != freqs.shape:
            raise InvalidGeometryError("s21 length must match freqs")
        if not (np.all(np.isfinite(freqs)) and np.all(np.isfinite(s21))):
            raise InvalidGeometryError("trace values must be finite")
        if np.any(freqs[1:] <= freqs[:-1]):  # no np.diff: a difference can overflow
            raise InvalidGeometryError("freqs must be strictly increasing")
        if not self.z0 > 0:
            raise InvalidGeometryError("reference impedance z0 must be > 0")

    def __len__(self) -> int:
        return len(self.freqs)

    @property
    def s21_db(self) -> np.ndarray:
        return _db(self.s21)


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
        if not self.f0 > 0:
            raise InvalidGeometryError("f0 must be > 0")
        if not self.q_loaded > 0:
            raise InvalidGeometryError("q_loaded must be > 0")
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


# ---------------------------------------------------------------------------
# Touchstone parsing / writing
# ---------------------------------------------------------------------------


def _number(token: str) -> float:
    """float(token), but only for what np.loadtxt also reads: ASCII with
    no '_' digit separator."""
    if token.isascii() and "_" not in token:
        return float(token)
    raise ValueError(f"could not convert string to float: {token!r}")


def _lines(text: str) -> list[str]:
    """text split where a line ends: at CR, LF or CRLF, and nowhere else
    (str.splitlines also breaks at VT, FF, FS, GS, RS, NEL, LS and PS).
    Text with no CR, as write_touchstone writes, is split at LF alone,
    skipping the rewrite of CR and CRLF, which takes longer than the
    split itself."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.removesuffix("\n").split("\n")


def _content_lines(lines: list[str], start: int = 0):
    """(1-based number, text) of each line after `start` that has text
    once its '!' comment is cut; a v2 keyword line is rejected."""
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        line = raw.split("!", 1)[0].strip()
        if line.startswith("["):
            raise TouchstoneParseError(lineno, f"keyword {line.split()[0]!r} is Touchstone v2; "
                                       "only v1.0 is supported")
        if line:
            yield lineno, line


def _option_line(lineno: int, line: str) -> tuple[str, str, float]:
    """(unit, format, z0) of an option line."""
    found: dict = {}
    tokens = iter(line[1:].split())
    for tok in tokens:
        key = tok.upper()
        kind = OPTION_TOKENS.get(key)
        if key in ("Y", "Z", "H", "G"):
            raise TouchstoneParseError(lineno, f"unsupported parameter type {tok!r}")
        if kind is None:
            raise TouchstoneParseError(lineno, f"unknown option token {tok!r}: expected a frequency"
                                       " unit, S, a format (RI, MA, DB) or R <z0>")
        if kind in found:
            raise TouchstoneParseError(lineno, f"{kind} given twice")
        if key == "R":
            z_tok = next(tokens, "")
            try:
                key = _number(z_tok)
            except ValueError:
                raise TouchstoneParseError(lineno, f"bad reference impedance {z_tok!r}") from None
            if not 0 < key < math.inf:
                raise TouchstoneParseError(lineno, "reference impedance must be finite and > 0")
        found[kind] = key
    return found.get("unit", "GHZ"), found.get("format", "MA"), found.get("reference impedance", 50.0)


def _to_complex(a: np.ndarray, b: np.ndarray, fmt: str) -> np.ndarray:
    """One column pair as complex, each value as Python's complex(a, b) or
    mag * complex(cos, sin) gives it; OverflowError past ~6165 dB."""
    if fmt != "RI":
        cos, sin = np.cos(np.radians(b)), np.sin(np.radians(b))
        # Python's float power, as np.power can miss it by one ulp
        mag = a if fmt == "MA" else np.array([10.0 ** v for v in (a / 20.0).tolist()])
        # (mag + 0j) * (cos + j sin), as CPython up to 3.13 multiplies a float
        # by a complex: the zero terms set the sign of a zero part
        a, b = mag * cos - 0.0 * sin, mag * sin + 0.0 * cos
    out = np.empty(len(a), dtype=complex)
    out.real, out.imag = a, b
    return out


def parse_touchstone(data: bytes | str) -> FrequencyTrace:
    """Parse a Touchstone v1.0 two-port file into a FrequencyTrace.

    The lines up to the option line are read one by one, and the data
    rows after it in one np.loadtxt pass, checked as whole arrays.  Only
    when a check fails are the data lines walked again: to raise the
    error of the first offending line with its line number, or to find
    the noise-parameter block that ends the S data, which one pass then
    reads without it.
    """
    text = data.decode("latin-1") if isinstance(data, bytes) else data
    lines = _lines(text)
    for start, line in _content_lines(lines):
        if not line.startswith("#"):
            raise TouchstoneParseError(start, "data row before the option line")
        unit, fmt, z0 = _option_line(start, line)
        break
    else:
        raise TouchstoneParseError(max(len(lines), 1), "missing option line")
    try:
        return _data_rows(lines[start:], unit, fmt, z0)
    except (ValueError, OverflowError):
        noise = _noise_block_start(lines, start, unit, fmt)
        return _data_rows(lines[start:noise - 1], unit, fmt, z0)


def _data_rows(lines: list[str], unit: str, fmt: str, z0: float) -> FrequencyTrace:
    """The trace of S data lines in one np.loadtxt pass; ValueError (the
    trace's InvalidGeometryError for frequencies that are not finite and
    strictly increasing) or OverflowError if any line is rejected."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an empty data block warns: "no data rows" later
        rows = np.loadtxt(lines, comments="!", ndmin=2)
    if not (rows.shape[1] == 9 and len(rows) and np.isfinite(rows).all()):
        raise ValueError("a data row is rejected")
    with np.errstate(over="ignore"):  # an overflow fails the trace's isfinite check
        freqs = rows[:, 0] * FREQ_UNITS[unit]
    s11, s21 = _to_complex(rows[:, 1], rows[:, 2], fmt), _to_complex(rows[:, 3], rows[:, 4], fmt)
    return FrequencyTrace(freqs, s21, s11, z0=z0, fmt=fmt)


def _noise_block_start(lines: list[str], start: int, unit: str, fmt: str) -> int:
    """Walk the data lines after line `start` and raise the error of the
    first one that parse_touchstone's one pass rejects.  A 5-number row
    whose frequency is not above the last S row's starts a noise-parameter
    block (Touchstone v1): its rows are checked (5 finite numbers,
    frequencies increasing within the block) but not read, and its first
    line number is returned.  With no bad line and no block: "no data rows"."""
    last = -math.inf
    noise = 0  # line number of the noise block's first row, once met
    for lineno, line in _content_lines(lines, start):
        if line.startswith("#"):
            raise TouchstoneParseError(lineno, "multiple option lines")
        fields = line.split()
        if len(fields) == 5 and not noise and last > -math.inf:
            try:
                if _number(fields[0]) * FREQ_UNITS[unit] <= last:
                    noise, last = lineno, -math.inf
            except ValueError:
                pass  # not a frequency, so an S row with too few numbers
        width, kind = (5, "noise-parameter") if noise else (9, "data")
        if len(fields) != width:
            per = "noise-parameter row" if noise else "row"
            raise TouchstoneParseError(lineno, f"expected {width} numbers per {per}, got {len(fields)}")
        try:
            nums = [_number(tok) for tok in fields]
        except ValueError as exc:
            raise TouchstoneParseError(lineno, f"bad number: {exc}") from None
        if not all(math.isfinite(v) for v in nums):
            raise TouchstoneParseError(lineno, f"non-finite number in {kind} row")
        f_hz = nums[0] * FREQ_UNITS[unit]
        if not math.isfinite(f_hz):
            raise TouchstoneParseError(lineno, f"frequency {fields[0]} {unit} overflows in Hz")
        if f_hz <= last:
            raise TouchstoneParseError(lineno, f"frequency {f_hz:.6g} Hz not strictly increasing")
        last = f_hz
        if fmt == "DB" and not noise:
            try:
                _to_complex(np.array(nums[1:5:2]), np.array(nums[2:5:2]), fmt)
            except OverflowError:
                raise TouchstoneParseError(lineno, "dB level overflows |S|") from None
    if noise:
        return noise
    raise TouchstoneParseError(max(len(lines), 1), "no data rows")


def write_touchstone(trace: FrequencyTrace) -> bytes:
    """Serialize a trace as Touchstone v1.0 in RI, normalized to HZ frequencies.

    Values are written with 17 significant digits, so the file parses
    back to the same floats bit for bit.  S12 mirrors S21 and S22 mirrors
    S11 (reciprocal, symmetric network assumed).
    """
    lines = []
    if trace.s11 is None:
        lines.append("! s11 synthesized as zero")
        s11 = np.zeros_like(trace.s21)
    else:
        s11 = trace.s11
    lines.append(f"# HZ S RI R {trace.z0:.17g}")
    p11, p21 = (s11.real, s11.imag), (trace.s21.real, trace.s21.imag)
    rows = np.column_stack((trace.freqs, *p11, *p21, *p21, *p11))  # v1 order: S11 S21 S12 S22
    template = " ".join(["%.17g"] * 9)
    lines += [template % tuple(row) for row in rows.tolist()]
    return ("\n".join(lines) + "\n").encode("ascii")


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
    and the indices are the same on every trace:

    * a peak is a sample, or a plateau of equal samples, with a strictly
      lower sample on either side; a plateau is reported at its
      midpoint, rounded down, so the first and last samples never
      qualify;
    * each base walks out from the peak until it meets a sample strictly
      higher than the peak, or the trace edge, and takes the lowest
      sample it passed;
    * the prominence is the peak level minus the higher of the two
      bases, and a peak qualifies when its prominence is >= p.

    One pass over the trace finds its turning points.  Once runs of equal
    samples are merged, they are maxima and minima in alternation, so the
    lowest sample between two neighbouring maxima is the minimum between
    them, and the lowest before the first maximum (after the last) is
    the edge sample or a minimum between it and that maximum.

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
    step = y[1:] - y[:-1]  # np.diff without its wrapper
    runs = None
    if not step.all():
        # one sample per run of equal samples, so a plateau is one maximum;
        # done only when needed, as it costs more than the whole search on
        # a typical noiseless trace
        runs = np.concatenate(([True], step != 0)).nonzero()[0]
        y = y[runs]
        step = y[1:] - y[:-1]
    rising = step > 0
    # no step is zero now, so "not rising" is falling, and the turning
    # points alternate, a maximum first when the trace starts by rising
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
    no higher than it and takes their bases, so each peak is pushed and
    popped once, O(peaks) per trace rather than O(samples x peaks).
    """
    stack = [(math.inf, 0.0)]
    out = []
    for level, base in zip(levels, gaps):
        while stack[-1][0] <= level:
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
    if not (q_fit > 0 and f0_fit > 0 and 0 < il_fit < 1):
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
