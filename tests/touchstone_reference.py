"""Reference Touchstone parser for the differential test in test_traceio.py.

This is the row-by-row parser `permeameter.traceio.parse_touchstone` had
before it became a single numpy pass, kept unchanged apart from its name
and the `source` label it no longer passes on (FrequencyTrace has none).
The deliberate differences between the two are listed next to the test.
"""

from __future__ import annotations

import math

import numpy as np

from permeameter.errors import TouchstoneParseError
from permeameter.traceio import FrequencyTrace

FREQ_UNITS = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}
FORMATS = ("RI", "MA", "DB")


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
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
