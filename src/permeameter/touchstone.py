"""Touchstone v1.0 two-port files: the trace type, its reader and its writer.

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

import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGeometryError, TouchstoneParseError

FREQ_UNITS = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}
FORMATS = ("RI", "MA", "DB")
#: What each option-line token sets; "R" is followed by the impedance.
OPTION_TOKENS = {**dict.fromkeys(FREQ_UNITS, "unit"), **dict.fromkeys(FORMATS, "format"),
                 "S": "parameter type", "R": "reference impedance"}
#: Rows write_touchstone formats at once, so that the Python floats it makes
#: for them take a fixed size, not one that grows with the trace.
WRITE_BLOCK_ROWS = 4096


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
            if s11.shape != freqs.shape or not np.isfinite(np.abs(s11)).all():
                raise InvalidGeometryError("s11 must be finite and match freqs")
        if freqs.ndim != 1 or len(freqs) < 1:
            raise InvalidGeometryError("trace needs at least one point")
        if s21.shape != freqs.shape:
            raise InvalidGeometryError("s21 length must match freqs")
        # |S| is finite only where both parts are, and not always then (1.5e308 + 1.5e308j)
        if not (np.isfinite(freqs).all() and np.isfinite(np.abs(s21)).all()):
            raise InvalidGeometryError("trace values must be finite")
        if np.any(freqs[1:] <= freqs[:-1]):  # no np.diff: a difference can overflow
            raise InvalidGeometryError("freqs must be strictly increasing")
        if not self.z0 > 0:
            raise InvalidGeometryError("reference impedance z0 must be > 0")

    def __len__(self) -> int:
        return len(self.freqs)


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
    strictly increasing, or an |S| that overflows) or OverflowError if
    any line is rejected."""
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
        # |S| overflows from a dB level, or in RI and MA from a part above 1e308
        if not noise and (fmt == "DB" or abs(nums[1]) + abs(nums[2]) + abs(nums[3]) + abs(nums[4]) > 1e308):
            try:
                s11_s21 = _to_complex(np.array(nums[1:5:2]), np.array(nums[2:5:2]), fmt)
            except OverflowError:
                raise TouchstoneParseError(lineno, "dB level overflows |S|") from None
            if not np.isfinite(np.abs(s11_s21)).all():
                raise TouchstoneParseError(lineno, "|S| overflows")
    if noise:
        return noise
    raise TouchstoneParseError(max(len(lines), 1), "no data rows")


def write_touchstone(trace: FrequencyTrace) -> bytes:
    """Serialize a trace as Touchstone v1.0 in RI, normalized to HZ frequencies.

    Values are written with 17 significant digits, so the file parses
    back to the same floats bit for bit.  S12 mirrors S21 and S22 mirrors
    S11 (reciprocal, symmetric network assumed).  Rows are formatted
    WRITE_BLOCK_ROWS at a time.
    """
    out = io.BytesIO()
    if trace.s11 is None:
        out.write(b"! s11 synthesized as zero\n")
        s11 = np.zeros_like(trace.s21)
    else:
        s11 = trace.s11
    out.write(f"# HZ S RI R {trace.z0:.17g}\n".encode("ascii"))
    p11, p21 = (s11.real, s11.imag), (trace.s21.real, trace.s21.imag)
    columns = (trace.freqs, *p11, *p21, *p21, *p11)  # v1 order: S11 S21 S12 S22
    row = " ".join(["%.17g"] * 9) + "\n"
    for start in range(0, len(trace.freqs), WRITE_BLOCK_ROWS):
        block = np.column_stack([column[start:start + WRITE_BLOCK_ROWS] for column in columns])
        out.write((row * len(block) % tuple(block.ravel().tolist())).encode("ascii"))
    return out.getvalue()
