"""Reference Touchstone parser and writer for the differential tests in test_touchstone.py.

The parser is the row-by-row one `permeameter.touchstone.parse_touchstone`
had before it became a single numpy pass, kept unchanged apart from its
name, the `source` label it no longer passes on (FrequencyTrace has
none) and its line split, which breaks at CR, LF and CRLF only, as the
parser's does, where `str.splitlines` also broke at FF, NEL and the
other Unicode line boundaries.  The deliberate differences between the
two are listed next to the test.  The writer is the per-value one
`write_touchstone` had before it converted whole columns, kept unchanged
apart from its name and its own DB_FLOOR.  `write_touchstone` now
writes RI only; this writer still writes RI, MA and DB, so the tests
write their MA and DB files with it.
"""

from __future__ import annotations

import math

import numpy as np

from permeameter.errors import InvalidGeometryError, TouchstoneParseError
from permeameter.touchstone import FrequencyTrace

FREQ_UNITS = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}
FORMATS = ("RI", "MA", "DB")
DB_FLOOR = -400.0  # the dB level the writer gives a zero magnitude


def _pair_to_complex(a: float, b: float, fmt: str) -> complex:
    if fmt == "RI":
        return complex(a, b)
    phase = math.radians(b)
    mag = a if fmt == "MA" else 10.0 ** (a / 20.0)
    return mag * complex(math.cos(phase), math.sin(phase))


def reference_parse_touchstone(data: bytes | str) -> FrequencyTrace:
    """The row-by-row parser that the one-pass `parse_touchstone` replaced."""
    text = data.decode("latin-1") if isinstance(data, bytes) else data
    unit = fmt = None
    z0 = 50.0
    freqs: list[float] = []
    s11: list[complex] = []
    s21: list[complex] = []
    last_line = 0
    lines = text.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        last_line = lineno
        line = raw.split("!", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            raise TouchstoneParseError(
                lineno, f"keyword {line.split()[0]!r} is Touchstone v2; only v1.0 is supported"
            )
        if line.startswith("#"):
            if fmt is not None:
                raise TouchstoneParseError(lineno, "multiple option lines")
            tokens = line[1:].split()
            if len(tokens) != 5:
                raise TouchstoneParseError(
                    lineno, "option line must read '# <unit> S <fmt> R <z0>'"
                )
            u, s_tok, f_tok, r_tok, z_tok = (t.upper() for t in tokens)
            if u not in FREQ_UNITS:
                raise TouchstoneParseError(lineno, f"unknown frequency unit {tokens[0]!r}")
            if s_tok != "S":
                raise TouchstoneParseError(lineno, f"unsupported parameter type {tokens[1]!r}")
            if f_tok not in FORMATS:
                raise TouchstoneParseError(lineno, f"unknown format token {tokens[2]!r}")
            if r_tok != "R":
                raise TouchstoneParseError(lineno, f"expected 'R', got {tokens[3]!r}")
            try:
                z0 = float(z_tok)
            except ValueError:
                raise TouchstoneParseError(lineno, f"bad reference impedance {tokens[4]!r}") from None
            if not z0 > 0:
                raise TouchstoneParseError(lineno, "reference impedance must be > 0")
            unit, fmt = u, f_tok
            continue
        if fmt is None:
            raise TouchstoneParseError(lineno, "data row before the option line")
        fields = line.split()
        if len(fields) != 9:
            raise TouchstoneParseError(
                lineno, f"expected 9 numbers per row, got {len(fields)}"
            )
        try:
            nums = [float(tok) for tok in fields]
        except ValueError as exc:
            raise TouchstoneParseError(lineno, f"bad number: {exc}") from None
        if not all(math.isfinite(v) for v in nums):
            raise TouchstoneParseError(lineno, "non-finite number in data row")
        f_hz = nums[0] * FREQ_UNITS[unit]
        if freqs and f_hz <= freqs[-1]:
            raise TouchstoneParseError(
                lineno, f"frequency {f_hz:.6g} Hz not strictly increasing"
            )
        freqs.append(f_hz)
        s11.append(_pair_to_complex(nums[1], nums[2], fmt))
        s21.append(_pair_to_complex(nums[3], nums[4], fmt))
    if fmt is None:
        raise TouchstoneParseError(max(last_line, 1), "missing option line")
    if not freqs:
        raise TouchstoneParseError(max(last_line, 1), "no data rows")
    return FrequencyTrace(np.array(freqs), np.array(s21), np.array(s11), z0=z0, fmt=fmt)


def _complex_to_pair(v: complex, fmt: str) -> tuple[float, float]:
    if fmt == "RI":
        return v.real, v.imag
    mag = abs(v)
    ang = math.degrees(math.atan2(v.imag, v.real))
    if fmt == "MA":
        return mag, ang
    db = 20.0 * math.log10(mag) if mag > 0 else DB_FLOOR
    return max(db, DB_FLOOR), ang


def reference_write_touchstone(trace: FrequencyTrace, fmt: str = "RI") -> bytes:
    """The per-value writer that the column-wise `write_touchstone` replaced."""
    fmt = fmt.upper()
    if fmt not in FORMATS:
        raise InvalidGeometryError(f"unknown Touchstone format {fmt!r}")
    lines = []
    if trace.s11 is None:
        lines.append("! s11 synthesized as zero")
        s11 = np.zeros_like(trace.s21)
    else:
        s11 = trace.s11
    lines.append(f"# HZ S {fmt} R {trace.z0:.17g}")
    for f_hz, v11, v21 in zip(trace.freqs, s11, trace.s21):
        cells = [f"{f_hz:.17g}"]
        for v in (v11, v21, v21, v11):  # v1 order: S11 S21 S12 S22
            a, b = _complex_to_pair(v, fmt)
            cells.append(f"{a:.17g}")
            cells.append(f"{b:.17g}")
        lines.append(" ".join(cells))
    return ("\n".join(lines) + "\n").encode("ascii")
