import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from q_reference import reference_fit_lorentzian, reference_q_3db
from scipy.signal import find_peaks
from touchstone_reference import reference_parse_touchstone, reference_write_touchstone

import permeameter.traceio as traceio
from permeameter import (
    FrequencyTrace,
    Resonance,
    SynthConfig,
    find_resonances,
    fit_lorentzian,
    lorentzian_trace,
    pair_resonances,
    parse_touchstone,
    q_3db,
    write_touchstone,
)
from permeameter.errors import (
    FitFailureError,
    InsufficientSpanError,
    InvalidGeometryError,
    NearCriticalCouplingWarning,
    NoUsableResonanceError,
    PermeameterError,
    TouchstoneParseError,
)
from permeameter.traceio import FORMATS, FREQ_UNITS, _prominent_peaks

FLOAT_MAX = np.finfo(float).max


def lorentz_trace(f0=7.5e9, q_loaded=500.0, il=0.5, n_points=1001, span_bw=40.0,
                  noise_db=None, seed=0):
    res = Resonance.from_loaded(f0, q_loaded, il, "model")
    span = span_bw * f0 / q_loaded
    cfg = SynthConfig(f0 - span / 2, f0 + span / 2, n_points, noise_db, seed, il)
    return lorentzian_trace(res, cfg)


def two_peak_trace():
    # grid chosen so both resonances sit exactly on grid points
    f = np.linspace(3e9, 8e9, 2001)  # 2.5 MHz spacing
    s21 = np.zeros_like(f, dtype=complex)
    for f0, q, il in ((3.77e9, 500.0, 0.5), (7.53e9, 600.0, 0.4)):
        u = (f - f0) / f0
        s21 += il / (1.0 + 2j * q * u)
    return FrequencyTrace(f, s21)


class TestParse:
    def test_single_point_ri(self):
        data = b"# GHz S RI R 50\n7.5 0 0 0.5 0 0 0 0 0\n"
        trace = parse_touchstone(data)
        assert len(trace) == 1
        assert trace.freqs[0] == pytest.approx(7.5e9, rel=1e-15)
        assert trace.s21[0] == pytest.approx(0.5 + 0j)
        assert trace.s11[0] == 0j
        assert trace.z0 == 50.0 and trace.fmt == "RI"

    def test_ma_polar_conversion(self):
        data = b"# GHZ S MA R 50\n7.5 0.1 0 0.5 90 0.5 90 0.1 0\n"
        trace = parse_touchstone(data)
        assert trace.s21[0] == pytest.approx(0.5j, abs=1e-12)

    def test_db_conversion(self):
        data = b"# ghz s db r 50\n7.5 -40 0 -6.0206 0 -6.0206 0 -40 0\n"
        trace = parse_touchstone(data)
        assert abs(abs(trace.s21[0]) - 0.5) < 1e-4

    @pytest.mark.parametrize(
        "unit,value", [("HZ", 7.5e9), ("KHZ", 7.5e6), ("MHZ", 7.5e3), ("GHZ", 7.5)]
    )
    def test_frequency_units(self, unit, value):
        data = f"# {unit} S RI R 50\n{value:.17g} 0 0 0.5 0 0 0 0 0\n"
        trace = parse_touchstone(data.encode())
        assert trace.freqs[0] == pytest.approx(7.5e9, rel=1e-12)

    def test_comments_and_blank_lines(self):
        data = (
            b"! exported trace\n"
            b"\n"
            b"# HZ S RI R 75  ! inline comment\n"
            b"1e9 0 0 0.5 0 0 0 0 0 ! first point\n"
            b"2e9 0 0 0.25 0 0 0 0 0\n"
        )
        trace = parse_touchstone(data)
        assert len(trace) == 2 and trace.z0 == 75.0

    def test_scientific_notation(self):
        data = b"# HZ S RI R 50\n1.0E+09 0 0 5.0e-1 0 0 0 0 0\n2.0E+09 0 0 2.5e-1 0 0 0 0 0\n"
        trace = parse_touchstone(data)
        assert trace.s21[0] == pytest.approx(0.5 + 0j)

    @pytest.mark.parametrize(
        "data,line,needle",
        [
            (b"1e9 0 0 0.5 0 0 0 0 0\n", 1, "option line"),
            (b"! c\n# HZ S XX R 50\n1e9 0 0 0 0 0 0 0 0\n", 2, "format"),
            (b"# HZ S RI R 50\n1e9 0 0 0.5 0\n", 2, "9 numbers"),
            (b"# HZ S RI R 50\n2e9 0 0 0.5 0 0 0 0 0\n1e9 0 0 0.5 0 0 0 0 0\n", 3, "increasing"),
            (b"[Version] 2.0\n# HZ S RI R 50\n", 1, "v2"),
            (b"# HZ S RI R 50\n1e9 0 0 zap 0 0 0 0 0\n", 2, "number"),
            (b"# HZ S RI R 50\n# HZ S RI R 50\n", 2, "option"),
            (b"# FURLONG S RI R 50\n1e9 0 0 0 0 0 0 0 0\n", 1, "unit"),
            (b"! only comments\n", 1, "option line"),
        ],
    )
    def test_errors_carry_line_numbers(self, data, line, needle):
        with pytest.raises(TouchstoneParseError, match=needle) as err:
            parse_touchstone(data)
        assert err.value.line == line

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
    def test_only_cr_and_lf_end_a_line(self, newline):
        # 0x85 is NEL in latin-1 (cp1252's ellipsis) and 0x0c a form feed:
        # str.splitlines breaks at both, a Touchstone line at neither
        data = newline.join([
            b"! measured \x85 by VNA\x0c", b"# HZ S RI R 50", b"1e9 0 0 0.5 0 0 0 0 0",
            b"! \x0b\x1c\x1d\x1e\x85", b"2e9 0 0 zap 0 0 0 0 0", b"",
        ])
        with pytest.raises(TouchstoneParseError, match="bad number") as err:
            parse_touchstone(data)
        assert err.value.line == 5


# ---------------------------------------------------------------------------
# parse_touchstone against the row-by-row parser it replaced
# ---------------------------------------------------------------------------

# FF and NEL are whitespace inside a line, and only CR, LF and CRLF end one
SEPARATORS = [" ", "  ", "\t", "\xa0", " \t ", "\x0c", " \x85"]
NEWLINES = ["\n", "\r\n", "\r"]
BAD_TOKENS = ["half", "1_0", "2_5e3", "nan", "-inf", "Infinity", "1e400", "0x10", "1,5", "1e", ".", "--1", "1j"]
FAULTS = ["short_row", "long_row", "bad_token", "repeat_freq", "earlier_freq", "option", "version"]


def _number_text(draw, value):
    style = draw(st.sampled_from(["repr", "e", "g", "plus", "E"]))
    if style == "repr":
        return repr(value)
    if style == "e":
        return f"{value:.6e}"
    if style == "g":
        return f"{value:.3g}"  # may round two frequencies together
    if style == "plus":
        return f"{value:+.17g}"
    return f"{value:.9E}"


@st.composite
def touchstone_texts(draw):
    """Touchstone text built line by line: valid rows in RI, MA and DB,
    comments, blank lines and assorted whitespace and line breaks, and
    (in about half of the files) wrong field counts, bad or non-finite
    tokens, non-increasing rows, a second option line or a v2 keyword."""
    unit = draw(st.sampled_from(sorted(FREQ_UNITS)))
    fmt = draw(st.sampled_from(FORMATS))
    case = draw(st.sampled_from([str.upper, str.lower, str.title]))
    z0 = draw(st.sampled_from(["50", "75", "1e-3", "50.0"]))
    sep = draw(st.sampled_from(SEPARATORS))
    option = sep.join([case("#"), case(unit), case("s"), case(fmt), case("r"), z0])
    zeros = st.sampled_from([0.0, -0.0])
    first = st.floats(-2.0, 2.0) if fmt == "RI" else st.floats(-400.0, 40.0) if fmt == "DB" else st.floats(0.0, 2.0)
    second = st.floats(-2.0, 2.0) if fmt == "RI" else (
        st.sampled_from([0.0, -0.0, 90.0, -90.0, 180.0, -180.0, 270.0, 360.0]) | st.floats(-360.0, 360.0)
    )
    kinds = ["row"] * 8 + ["comment", "blank"] + (FAULTS if draw(st.booleans()) else [])
    lines = [draw(st.sampled_from(["! header", "", " \t", "!_[#"])) for _ in range(draw(st.integers(0, 2)))]
    if draw(st.integers(0, 19)) == 0:
        lines.append(draw(st.sampled_from(["1 2 3 4 5 6 7 8 9", "[Version] 2.0"])))
    if draw(st.integers(0, 19)):
        lines.append(option + draw(st.sampled_from(["", " ! opts"])))
    freq = draw(st.floats(0.0, 10.0))
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(kinds))
        if kind == "comment":
            lines.append(draw(st.sampled_from(
                ["! note", "!", "  ! [Version] # 1_0", "! measured \x85 by VNA\x0b\x0c\x1c\x1d\x1e 1e9"]
            )))
            continue
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\xa0"])))
            continue
        if kind == "option":
            lines.append(option)
            continue
        if kind == "version":
            lines.append("[Number of Ports] 2")
            continue
        if kind == "repeat_freq":
            value = freq
        elif kind == "earlier_freq":
            value = freq - draw(st.floats(0.0, 1.0))
        else:
            freq = value = freq + draw(st.floats(1e-6, 2.0))
        cells = [_number_text(draw, value)]
        for _ in range(4):
            a = draw(st.one_of(zeros, first))
            b = draw(st.one_of(zeros, second))
            cells += [_number_text(draw, a), _number_text(draw, b)]
        if kind == "short_row":  # never 5 numbers, which may start a noise block
            cells = cells[: draw(st.sampled_from([1, 2, 3, 4, 6, 7, 8]))]
        elif kind == "long_row":
            cells.append("0")
        elif kind == "bad_token":
            cells[draw(st.integers(0, 8))] = draw(st.sampled_from(BAD_TOKENS))
        line = draw(st.sampled_from(["", " "])) + sep.join(cells)
        lines.append(line + draw(st.sampled_from(["", " ! marker", "!x", sep])))
    newline = draw(st.sampled_from(NEWLINES))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _outcome(parse, data):
    try:
        trace = parse(data)
    except TouchstoneParseError as err:
        return ("error", err.line, str(err))
    return (
        "trace", trace.freqs.tobytes(), trace.s21.tobytes(), trace.s11.tobytes(),
        trace.z0, trace.fmt,
    )


class TestParseDifferential:
    """parse_touchstone gives what the row-by-row parser it replaced gave
    (tests/touchstone_reference.py), bit for bit, with these deliberate
    exceptions, each kept out of the generated files and tested below:

    * option lines: tokens in any order, each optional (GHZ S MA R 50 by
      default), a repeated or unknown token rejected; generated option
      lines keep the 5-token form;
    * overflow: a dB level whose |S| overflows, or a frequency that
      overflows once scaled to Hz, is a TouchstoneParseError at its line
      (the old parser raised OverflowError or InvalidGeometryError);
      generated values never overflow;
    * a '_' digit separator ('1_0') is a bad number at its line, as the
      Touchstone grammar has none; the generator does make such tokens,
      and the reference reads them with '_' replaced by an invalid '@';
    * a 5-number row whose frequency is not above the last S row's starts
      a noise-parameter block, which ends the S data (the old parser
      rejected every 5-number row); generated short rows never have 5
      numbers, and a 5-number row whose frequency increases is pinned
      as an example: both parsers reject it.
    """

    @given(text=touchstone_texts(), as_bytes=st.booleans())
    @example(text="# HZ S MA R 50\n1e9 0 90 0 -90 0 0 0 0\n", as_bytes=True)  # zero parts' signs
    @example(text="# HZ S RI R 50\n1e9 0 0 1_0 0 0 0 0 0\n", as_bytes=True)
    @example(text="! comments only\n# HZ S RI R 50\n! no data\n", as_bytes=False)
    @example(text="# HZ S RI R 50\n1e9 0 0 0.5 0 0 0 0 0\n2e9 1.2 0.3 45 0.4\n", as_bytes=False)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_row_by_row_parser(self, text, as_bytes):
        def encode(t):
            return t.encode("latin-1") if as_bytes else t

        expected = _outcome(reference_parse_touchstone, encode(text.replace("_", "@")))
        if expected[0] == "error":
            expected = ("error", expected[1], expected[2].replace("@", "_"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(parse_touchstone, encode(text)) == expected

    @pytest.mark.parametrize(
        "data,line,needle",
        [
            (b"# HZ S DB R 50\n1e9 0 0 20000 0 0 0 0 0\n", 2, "overflows"),
            (b"# HZ S DB R 50\n1e9 0 0 0 0 0 0 0 0\n2e9 7000 0 0 0 0 0 0 0\n", 3, "overflows"),
            (b"# GHZ S RI R 50\n1e300 0 0 0.5 0 0 0 0 0\n", 2, "overflows"),
            (b"# HZ S RI R 50\n1e9 0 0 0.5 0 0 0 0 1_0\n", 2, "bad number: could not convert string to float: '1_0'"),
        ],
    )
    def test_deliberate_changes(self, data, line, needle):
        with pytest.raises(TouchstoneParseError, match=needle) as err:
            parse_touchstone(data)
        assert err.value.line == line

    def test_empty_data_block_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TouchstoneParseError, match="no data rows") as err:
                parse_touchstone(b"# HZ S RI R 50\n! nothing\n\n")
        assert err.value.line == 3


class TestNoiseBlock:
    """A Touchstone v1 noise-parameter block ends the S data: it starts at
    the first 5-number row whose frequency is not above the last S row's."""

    S_ROWS = "# GHZ S RI R 50\n7.5 0.1 0 0.5 0.2 0.5 0.2 0.1 0\n7.6 0.1 0 0.4 0.3 0.4 0.3 0.1 0\n"

    @pytest.mark.parametrize(
        "noise",
        [
            "7.5 1.2 0.3 45 0.4\n7.6 1.3 0.31 50 0.41\n",
            "! noise\n7.6 1.2 0.3 45 0.4 ! same f as the last S row\n\n",
            "1 1.2 0.3 45 0.4\n1e3 -1e300 0 0 0\n",
        ],
        ids=["below", "equal-with-comments", "far-below"],
    )
    def test_block_is_checked_and_not_read(self, noise):
        assert _outcome(parse_touchstone, self.S_ROWS + noise) == _outcome(parse_touchstone, self.S_ROWS)

    @pytest.mark.parametrize(
        "noise,line,needle",
        [
            ("7.5 1.2 0.3 45\n", 4, "expected 9 numbers per row, got 4"),
            ("7.7 1.2 0.3 45 0.4\n", 4, "expected 9 numbers per row, got 5"),
            ("7.5 1.2 0.3 45 0.4\n7.6 1.3 0.31 50\n", 5, "expected 5 numbers per noise-parameter row, got 4"),
            ("7.5 1.2 0.3 45 0.4\n7.7 0.1 0 0.5 0.2 0.5 0.2 0.1 0\n", 5, "expected 5 numbers per noise"),
            ("7.5 1.2 0.3 45 0.4\n7.5 1.3 0.31 50 0.41\n", 5, "not strictly increasing"),
            ("7.5 1.2 0.3 45 0.4\n7.6 1.3 inf 50 0.41\n", 5, "non-finite number in noise-parameter row"),
            ("7.5 1.2 0.3 45 0.4\n7.6 1.3 0.3_1 50 0.41\n", 5, "bad number"),
            ("7.5 1.2 0.3 45 0.4\n# GHZ S RI R 50\n", 5, "multiple option lines"),
            ("half 1.2 0.3 45 0.4\n", 4, "expected 9 numbers per row, got 5"),
        ],
        ids=["short-s-row", "increasing-5-numbers", "short-noise-row", "s-row-after-block",
             "repeat-noise-f", "non-finite-noise", "bad-noise-number", "option-in-block", "bad-frequency"],
    )
    def test_bad_rows_rejected_at_their_line(self, noise, line, needle):
        with pytest.raises(TouchstoneParseError, match=needle) as err:
            parse_touchstone(self.S_ROWS + noise)
        assert err.value.line == line

    def test_no_block_without_s_rows(self):
        with pytest.raises(TouchstoneParseError, match="expected 9 numbers per row, got 5") as err:
            parse_touchstone("# GHZ S RI R 50\n7.5 1.2 0.3 45 0.4\n")
        assert err.value.line == 2


class TestOptionLine:
    ROW = "\n1 0 0 0.5 0 0 0 0 0\n"

    @pytest.mark.parametrize(
        "option,unit_hz,fmt,z0",
        [
            ("#", 1e9, "MA", 50.0),
            ("# GHZ", 1e9, "MA", 50.0),
            ("# S RI R 50 GHZ", 1e9, "RI", 50.0),
            ("# r 75 db mhz", 1e6, "DB", 75.0),
            ("# HZ", 1.0, "MA", 50.0),
            ("# ri", 1e9, "RI", 50.0),
            ("#R 25 S", 1e9, "MA", 25.0),
        ],
    )
    def test_any_order_with_defaults(self, option, unit_hz, fmt, z0):
        trace = parse_touchstone((option + self.ROW).encode())
        assert trace.freqs[0] == unit_hz and trace.fmt == fmt and trace.z0 == z0
        assert trace.s21[0] == (10.0 ** (0.5 / 20.0) if fmt == "DB" else 0.5)

    @pytest.mark.parametrize(
        "option,needle",
        [
            ("# GHZ GHZ", "unit given twice"),
            ("# HZ S RI R 50 MHZ", "unit given twice"),
            ("# RI MA", "format given twice"),
            ("# S S", "parameter type given twice"),
            ("# R 50 R 75", "reference impedance given twice"),
            ("# HZ S RI R", "bad reference impedance ''"),
            ("# R fifty", "bad reference impedance 'fifty'"),
            ("# R 0", "finite and > 0"),
            ("# R -50", "finite and > 0"),
            ("# R inf", "finite and > 0"),
            ("# R nan", "finite and > 0"),
            ("# R 5_0", "bad reference impedance '5_0'"),
            ("# HZ Y RI R 50", "unsupported parameter type 'Y'"),
            ("# z", "unsupported parameter type 'z'"),
            ("# HZ S RI R 50 extra", "unknown option token 'extra'"),
            ("# 50", "unknown option token '50'"),
        ],
    )
    def test_rejected_at_the_option_line(self, option, needle):
        with pytest.raises(TouchstoneParseError, match=needle) as err:
            parse_touchstone(("! c\n" + option + self.ROW).encode())
        assert err.value.line == 2


def _traces(draw, n):
    parts = st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0])
    freqs = np.cumsum(draw(st.lists(st.floats(1e-3, 1e9), min_size=n, max_size=n)))
    return [
        freqs,
        np.array([complex(draw(parts), draw(parts)) for _ in range(n)]),
        np.array([complex(draw(parts), draw(parts)) for _ in range(n)]),
    ]


class TestParseProperties:
    @given(data=st.binary(max_size=400) | st.text(max_size=400).map(str.encode))
    @example(data=b"# DB R 50\n1 9000 0 0 0 0 0 0 0\n")
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_raise_only_parse_errors(self, data):
        try:
            parse_touchstone(data)
        except TouchstoneParseError:
            pass

    @given(text=st.text(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_raises_only_parse_errors(self, text):
        try:
            parse_touchstone("# HZ S RI R 50\n" + text)
        except TouchstoneParseError:
            pass

    @given(data=st.data(), n=st.integers(1, 20), z0=st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_ri_write_parse_is_the_identity(self, data, n, z0):
        freqs, s21, s11 = _traces(data.draw, n)
        trace = FrequencyTrace(freqs, s21, s11, z0=z0)
        back = parse_touchstone(write_touchstone(trace))
        for a, b in ((back.freqs, freqs), (back.s21, s21), (back.s11, s11)):
            assert a.tobytes() == b.tobytes()
        assert back.z0 == z0


class TestWrite:
    def trace(self, s11=True):
        rng = np.random.default_rng(11)
        f = np.sort(rng.uniform(1e9, 9e9, 40))
        s21 = rng.uniform(-0.7, 0.7, 40) + 1j * rng.uniform(-0.7, 0.7, 40)
        s11v = rng.uniform(-0.7, 0.7, 40) + 1j * rng.uniform(-0.7, 0.7, 40)
        return FrequencyTrace(f, s21, s11v if s11 else None, z0=50.0)

    def test_round_trip(self):
        trace = self.trace()
        back = parse_touchstone(write_touchstone(trace))
        for a, b in ((back.freqs, trace.freqs), (back.s21, trace.s21), (back.s11, trace.s11)):
            assert a.tobytes() == b.tobytes()
        assert back.z0 == trace.z0
        assert back.fmt == "RI"

    def test_missing_s11_written_as_zero(self):
        trace = self.trace(s11=False)
        payload = write_touchstone(trace)
        assert b"! s11 synthesized as zero" in payload
        back = parse_touchstone(payload)
        assert np.all(back.s11 == 0)

    def test_ri_db_ri_chain(self):
        trace = self.trace()
        once = parse_touchstone(reference_write_touchstone(trace, "DB"))
        twice = parse_touchstone(write_touchstone(once))
        np.testing.assert_allclose(twice.s21, trace.s21, rtol=1e-9, atol=1e-12)

    @given(
        values=st.lists(
            st.tuples(
                st.floats(1e-6, 1.0), st.floats(-179.0, 179.0)
            ),
            min_size=2,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, values):
        f = 1e9 + np.arange(len(values)) * 1e7
        s21 = np.array(
            [m * np.exp(1j * math.radians(a)) for m, a in values], dtype=complex
        )
        trace = FrequencyTrace(f, s21)
        written = [reference_write_touchstone(trace, fmt) for fmt in ("MA", "DB")]
        for payload in (write_touchstone(trace), *written):
            back = parse_touchstone(payload)
            np.testing.assert_allclose(back.s21, s21, rtol=1e-9, atol=1e-15)


def _written_trace(draw):
    """A trace whose values are any finite doubles: +-0, subnormals and
    huge values included, with or without s11, at a random z0."""
    n = draw(st.integers(1, 20))
    freqs = sorted(draw(st.lists(st.floats(-FLOAT_MAX, FLOAT_MAX), min_size=n, max_size=n,
                                 unique=True)))
    parts = st.floats(-FLOAT_MAX, FLOAT_MAX)

    def column():
        return np.array([complex(draw(parts), draw(parts)) for _ in range(n)])

    s11 = column() if draw(st.booleans()) else None
    z0 = draw(st.floats(0.0, FLOAT_MAX, exclude_min=True))
    return FrequencyTrace(np.array(freqs), column(), s11, z0=z0)


class TestWriteDifferential:
    """write_touchstone against the per-value writer it replaced
    (tests/touchstone_reference.py), byte for byte."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_ri_bytes_match_the_per_value_writer(self, data):
        trace = _written_trace(data.draw)
        assert write_touchstone(trace) == reference_write_touchstone(trace, "RI")


class TestFindResonances:
    def test_monotone_trace_has_no_peaks(self):
        f = np.linspace(1e9, 2e9, 101)
        trace = FrequencyTrace(f, np.linspace(0.01, 0.9, 101) + 0j)
        assert find_resonances(trace) == []

    def test_two_mode_trace(self):
        trace = two_peak_trace()
        peaks = find_resonances(trace)
        assert len(peaks) == 2
        np.testing.assert_allclose(trace.freqs[peaks], [3.77e9, 7.53e9], rtol=1e-12)

    @pytest.mark.parametrize("n_points", [4001, 40001])
    @pytest.mark.parametrize("noise_db", [None, -110.0, -90.0, -60.0, -40.0])
    @pytest.mark.parametrize("seed", [7, 8])
    def test_one_peak_per_resonance_at_any_floor(self, n_points, noise_db, seed):
        # a 3 dB gate kept ~15 noise maxima per 4001-point trace at -60 dB;
        # a threshold in noise deviations keeps only the resonance
        trace = lorentz_trace(7.5e9, 560.0, 0.3, n_points, noise_db=noise_db, seed=seed)
        assert find_resonances(trace) == [int(np.argmax(np.abs(trace.s21)))]

    def test_two_mode_trace_under_noise(self):
        trace = two_peak_trace()
        rng = np.random.default_rng(7)
        sigma = 10.0 ** (-60.0 / 20.0) / math.sqrt(2.0)
        noisy = trace.s21 + sigma * (rng.standard_normal(len(trace)) + 1j * rng.standard_normal(len(trace)))
        mag = np.abs(noisy)
        half = len(mag) // 2
        expected = [int(np.argmax(mag[:half])), half + int(np.argmax(mag[half:]))]
        assert find_resonances(FrequencyTrace(trace.freqs, noisy)) == expected

    def test_zero_median_difference_falls_back_to_the_quantization_step(self):
        # |S21| rounded to 1e-3 with noise far below that: more than half the
        # adjacent pairs are equal, so the median difference is 0.  A zero
        # threshold would keep every maximum that a flickering last digit makes
        trace = lorentz_trace(7.5e9, 560.0, 0.3, 4001, noise_db=-90.0, seed=7)
        quantum = 1e-3
        mag = np.round(np.abs(trace.s21) / quantum) * quantum
        quantized = FrequencyTrace(trace.freqs, mag + 0j)
        pairs = np.abs(mag[1::2] - mag[0:-1:2])
        assert np.median(pairs) == 0
        assert len(_prominent_peaks(mag, 1e-300)) > 1
        assert traceio._noise_sigma(mag) == pytest.approx(quantum, rel=1e-9)
        top = (mag == mag.max()).nonzero()[0]  # the resonance is a plateau
        assert find_resonances(quantized) == [int(top[0] + top[-1]) // 2]

    @pytest.mark.parametrize("size", [1, 2, 3, 101])
    def test_constant_or_short_trace_has_no_peak(self, size):
        trace = FrequencyTrace(1e9 + np.arange(size) * 1e6, np.full(size, 0.5 + 0j))
        assert traceio._noise_sigma(np.abs(trace.s21)) == math.inf
        assert find_resonances(trace) == []

    def test_threshold_above_tallest(self):
        assert _prominent_peaks(two_peak_trace().s21_db, 80.0) == []

    def test_db_offset_invariance(self):
        trace = two_peak_trace()
        shifted = FrequencyTrace(trace.freqs, trace.s21 * 10 ** (-12 / 20))
        assert find_resonances(shifted) == find_resonances(trace)

    # find_resonances promises scipy's find_peaks(prominence=p) peaks exactly;
    # coarse levels make plateaus, ties and equal neighbouring maxima common
    @given(
        levels=st.lists(
            st.one_of(
                st.integers(-4, 4).map(float),
                st.floats(-3.0, 3.0).map(lambda v: round(v, 1)),
            ),
            min_size=1,
            max_size=60,
        ),
        p=st.sampled_from([1e-9, 0.1, 0.5, 1.0, 2.0, 3.0]),
    )
    @example(levels=[0, 3, 1, 3, 0], p=3.0)  # a base walk passes an equal peak
    @example(levels=[0, 2, 2, 2, 2, 0], p=1.0)  # plateau midpoint, rounded down
    @example(levels=[2, 2, 0, 1, 1], p=0.5)  # plateaus at the edges never qualify
    @example(levels=[0, 2, 1, 2, 0, 1, 0], p=1.0)  # prominence exactly p qualifies
    # the pruning pass must round as the prominence test does: 1.8 - (-1.2)
    # is exactly 3.0 there, but -1.2 > 1.8 - 3.0 holds
    @example(levels=[0.2, 2.5, -1.2, 1.8, -1.8], p=3.0)
    # a pruned last peak: the valleys on both its sides fold into the tail
    @example(levels=[2.4, 0.0, 2.8, -2.7, -2.4, -1.5, -2.9, 2.8], p=3.0)
    @example(levels=[0.8, 2.9, 2.0, 2.6, 0.1], p=1.0)
    # the valleys at the edges: the lowest sample before the first peak is
    # the first sample or a minimum between it and the peak, and likewise
    # after the last peak; each case below fails if one of the two is dropped
    @example(levels=[0, -1, 2, -1, 0], p=3.0)  # a single maximum
    @example(levels=[0, 3, 1, 3, 0], p=3.0)  # maxima at index 1 and n - 2
    @example(levels=[1, -1, 2, 0, 1], p=2.0)  # falls before its first peak
    @example(levels=[-1, 0, 2, 1, -1], p=3.0)  # falls after its last peak
    @example(levels=[1, 0, 0, 3, -1], p=3.0)  # a plateau next to the first maximum
    @settings(max_examples=400, deadline=None)
    def test_matches_scipy_find_peaks(self, levels, p):
        db = np.array(levels)
        trace = FrequencyTrace(1e9 + np.arange(len(db)) * 1e6, 10 ** (db / 20))
        expected = find_peaks(trace.s21_db, prominence=p)[0].tolist()
        assert _prominent_peaks(trace.s21_db, p) == expected

    # slow random walks nest shallow valleys inside deeper ones, so short
    # arrays take several pruning passes before the base walk
    @given(
        steps=st.lists(st.floats(-0.6, 0.6), min_size=1, max_size=80),
        p=st.sampled_from([0.5, 1.0, 3.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_find_peaks_on_random_walks(self, steps, p):
        db = np.round(np.cumsum(steps), 1)
        trace = FrequencyTrace(1e9 + np.arange(len(db)) * 1e6, 10 ** (db / 20))
        expected = find_peaks(trace.s21_db, prominence=p)[0].tolist()
        assert _prominent_peaks(trace.s21_db, p) == expected

    @pytest.mark.parametrize("n_points", [4001, 40001])
    @pytest.mark.parametrize(
        "noise_db, seed",
        [
            pytest.param(db, seed, id=f"{db}" if seed == 7 else f"{db}-seed{seed}")
            for seed in (7, 8)
            for db in (-110.0, -90.0, -60.0, -40.0)
        ],
    )
    def test_matches_scipy_find_peaks_on_noisy_traces(self, n_points, noise_db, seed):
        # up to ~13000 noise maxima: deep stacks that short arrays never reach;
        # -40 dB stops after one pruning pass, the lower floors take several
        trace = lorentz_trace(7.5e9, 560.0, 0.3, n_points, noise_db=noise_db, seed=seed)
        for p in (0.01, 0.5, 3.0):
            expected = find_peaks(trace.s21_db, prominence=p)[0].tolist()
            assert _prominent_peaks(trace.s21_db, p) == expected


class TestQ3db:
    def test_exact_lorentzian(self):
        trace = lorentz_trace(7.5e9, 500.0, 0.5, 1001)
        res = q_3db(trace, find_resonances(trace)[0])
        assert res.q_loaded == pytest.approx(500.0, rel=0.005)
        assert res.f0 == pytest.approx(7.5e9, rel=1e-9)
        assert res.method == "three-db"
        # bandwidth definition: f0 / (f_hi - f_lo) = 500 -> 15 MHz
        assert res.f0 / res.q_loaded == pytest.approx(15e6, rel=0.005)

    def test_unload_rule_applied(self):
        trace = lorentz_trace(7.5e9, 500.0, 0.5, 1001)
        res = q_3db(trace, find_resonances(trace)[0])
        assert res.q_unloaded == pytest.approx(res.q_loaded / (1 - res.il_linear), rel=1e-9)

    def test_edge_peak_rejected(self):
        trace = lorentz_trace()
        with pytest.raises(InsufficientSpanError):
            q_3db(trace, 0)

    def test_missing_crossing_names_side(self):
        f0, q = 7.5e9, 500.0
        res = Resonance.from_loaded(f0, q, 0.5, "model")
        bw = f0 / q
        cfg = SynthConfig(f0 - 3.2 * bw, f0 + 12 * bw, 1001, None, 0, 0.5)
        trace = lorentzian_trace(res, cfg)
        # keep only samples above the lower half-power point on the left
        keep = trace.freqs > (f0 - 0.4 * bw)
        clipped = FrequencyTrace(trace.freqs[keep], trace.s21[keep])
        with pytest.raises(InsufficientSpanError, match="^no half-power crossing on the left side$"):
            q_3db(clipped, int(np.argmax(np.abs(clipped.s21))))

    def test_vertex_far_above_the_samples_is_over_coupled(self):
        # a 2 Hz step beside a 40 MHz one: the parabola through the three
        # samples peaks near +3e7 dB, whose linear level overflows to inf
        f = np.array([1.0e9, 1.0e9 + 2.0, 1.0e9 + 4e7, 1.0e9 + 8e7])
        trace = FrequencyTrace(f, 10 ** (np.array([-30.0, -24.0, -30.0, -40.0]) / 20))
        assert _prominent_peaks(trace.s21_db, 0.5) == [1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoUsableResonanceError, match="net gain"):
                q_3db(trace, 1)

    def test_db_offset_leaves_q_unchanged(self):
        trace = lorentz_trace(7.5e9, 500.0, 0.5, 1001)
        scaled = FrequencyTrace(trace.freqs, trace.s21 * 10 ** (-10 / 20))
        peak = find_resonances(trace)[0]
        assert q_3db(scaled, peak).q_loaded == pytest.approx(
            q_3db(trace, peak).q_loaded, rel=1e-12
        )


class TestFitLorentzian:
    def test_noiseless_recovery(self):
        trace = lorentz_trace(7.5e9, 500.0, 0.5, 1001)
        res = fit_lorentzian(trace, find_resonances(trace)[0])
        assert res.f0 == pytest.approx(7.5e9, rel=1e-12)
        assert res.q_loaded == pytest.approx(500.0, rel=1e-12)
        assert res.il_linear == pytest.approx(0.5, rel=1e-12)
        assert res.method == "lorentzian-fit"

    def test_off_grid_resonance(self):
        f0 = 7.5e9 + 12345.678
        res = Resonance.from_loaded(f0, 500.0, 0.5, "model")
        cfg = SynthConfig(7.5e9 - 3e8, 7.5e9 + 3e8, 1001, None, 0, 0.5)
        fit = fit_lorentzian(lorentzian_trace(res, cfg), 500)
        assert fit.f0 == pytest.approx(f0, rel=1e-12)

    @pytest.mark.parametrize("delay_ns", [0.0, 0.1, 1.0, 5.0])
    @pytest.mark.parametrize("phase", [0.0, 1.0, 3.0])
    def test_phase_and_cable_delay_leave_the_fit_unchanged(self, phase, delay_ns):
        # only |S21| is fitted, so neither a phase offset nor an
        # uncalibrated electrical delay may move f0, Q_L or IL
        trace = lorentz_trace(7.5e9, 560.0, 0.3, 4001, noise_db=-60.0, seed=7)
        peak = int(np.argmax(np.abs(trace.s21)))
        turn = np.exp(1j * (phase - 2 * np.pi * trace.freqs * delay_ns * 1e-9))
        ref = fit_lorentzian(trace, peak)
        res = fit_lorentzian(FrequencyTrace(trace.freqs, trace.s21 * turn), peak)
        assert res.f0 == pytest.approx(ref.f0, rel=1e-12)
        assert res.q_loaded == pytest.approx(ref.q_loaded, rel=1e-12)
        assert res.il_linear == pytest.approx(ref.il_linear, rel=1e-12)

    def test_q_accuracy_at_minus_40_db(self):
        # bounds fixed beforehand from the iterative |S21|^2 fit this one
        # replaced (mean -3.1e-3, rms 7.67e-3); without the noise-bias
        # correction the mean reads about +4.8e-3
        errors = []
        for seed in range(60):
            trace = lorentz_trace(7.5e9, 560.0, 0.3, 4001, noise_db=-40.0, seed=seed)
            res = fit_lorentzian(trace, int(np.argmax(np.abs(trace.s21))))
            errors.append(res.q_loaded / 560.0 - 1.0)
        errors = np.array(errors)
        assert abs(errors.mean()) <= 2e-3
        assert math.sqrt(np.mean(errors**2)) <= 7.67e-3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.filterwarnings("ignore::permeameter.errors.NearCriticalCouplingWarning")
    @settings(max_examples=150, deadline=None)
    @given(
        n_points=st.integers(16, 600),
        resonant=st.booleans(),
        q_loaded=st.floats(5.0, 5000.0),
        il=st.floats(0.05, 0.9),
        span_bw=st.floats(6.0, 80.0),
        noise_db=st.floats(-120.0, -10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_detected_peak_fits_or_raises_a_package_error(
        self, n_points, resonant, q_loaded, il, span_bw, noise_db, seed
    ):
        # pure complex noise or a noisy Lorentzian on a uniform grid
        f0 = 7.5e9
        span = span_bw * f0 / q_loaded
        f = np.linspace(f0 - span / 2, f0 + span / 2, n_points)
        rng = np.random.default_rng(seed)
        sigma = 10.0 ** (noise_db / 20.0) / math.sqrt(2.0)
        s21 = sigma * (rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points))
        if resonant:
            s21 = s21 + il / (1.0 + 2j * q_loaded * (f - f0) / f0)
        trace = FrequencyTrace(f, s21)
        for peak in _prominent_peaks(trace.s21_db, 0.5):
            try:
                res = fit_lorentzian(trace, peak)
            except PermeameterError:
                continue
            assert isinstance(res, Resonance)
            assert res.method == "lorentzian-fit"
            assert math.isfinite(res.f0) and math.isfinite(res.q_loaded)

    def test_noisy_recovery_within_two_percent(self):
        trace = lorentz_trace(7.5e9, 500.0, 0.5, 1001, noise_db=-60.0, seed=2024)
        res = fit_lorentzian(trace, find_resonances(trace)[0])
        assert res.q_loaded == pytest.approx(500.0, rel=0.02)

    def test_agrees_with_q3db_on_clean_data(self):
        # >= 25 points inside the 3-dB bandwidth
        trace = lorentz_trace(7.5e9, 500.0, 0.5, 1001, span_bw=40.0)
        peak = find_resonances(trace)[0]
        q_bw = q_3db(trace, peak).q_loaded
        q_fit = fit_lorentzian(trace, peak).q_loaded
        assert abs(q_fit - q_bw) / q_fit < 0.01

    def test_constant_trace_fails(self):
        f = np.linspace(1e9, 2e9, 201)
        trace = FrequencyTrace(f, np.full(201, 0.5 + 0j))
        with pytest.raises(FitFailureError):
            fit_lorentzian(trace, 100)

    def test_singular_solve_fails_without_fallback(self):
        # an edge peak has no 3-dB estimate, so the window is the whole
        # trace; its one nonzero sample sits at x = 0 and fixes c0 alone
        f = np.linspace(1e9, 2e9, 201)
        s21 = np.zeros(201, dtype=complex)
        s21[0] = 0.5
        with pytest.raises(FitFailureError, match="singular") as err:
            fit_lorentzian(FrequencyTrace(f, s21), 0)
        assert err.value.fallback is None

    def test_non_positive_model_fails_with_fallback(self):
        # at ~15 dB peak SNR this seed's noise drives the fitted 1/|S21|^2 negative
        trace = lorentz_trace(7.5e9, 500.0, 0.3, 1001, noise_db=-25.0, seed=3)
        peak = int(np.argmax(np.abs(trace.s21)))
        with pytest.raises(FitFailureError, match="not positive") as err:
            fit_lorentzian(trace, peak)
        assert err.value.fallback == q_3db(trace, peak)


def _q_case_trace(n, q_loaded, span_bw, offset, noise_db, levels, zeros, spikes, seed):
    """A Lorentzian on n samples over span_bw bandwidths, centered `offset`
    spans off the middle (+-0.5 is an edge), with optional noise, plateaus
    (|S21| rounded to multiples of 1/levels, the smallest to exact zeros),
    zeroed samples and spikes."""
    f0 = 7.5e9
    span = span_bw * f0 / q_loaded
    f = f0 + span * (np.linspace(-0.5, 0.5, n) + offset)
    s21 = 0.5 / (1.0 + 2j * q_loaded * (f - f0) / f0)
    rng = np.random.default_rng(seed)
    if noise_db is not None:
        sigma = 10.0 ** (noise_db / 20.0) / math.sqrt(2.0)
        s21 = s21 + sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    if levels:
        s21 = np.round(np.abs(s21) * levels) / levels + 0j
    s21[rng.integers(0, n, zeros)] = 0.0
    s21[rng.integers(0, n, spikes)] = rng.uniform(0.3, 1.5, spikes)
    return FrequencyTrace(f, s21)


def _resonance_bits(res):
    if res is None:
        return None
    values = (res.f0, res.q_loaded, res.q_unloaded, res.il_linear)
    return tuple((type(v).__name__, float(v).hex()) for v in values) + (res.method,)


def _q_outcome(extract, trace, peak):
    """The result's bits, or the error's type, message and fallback,
    with the warnings raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = _resonance_bits(extract(trace, peak))
        except Exception as exc:
            outcome = (type(exc), str(exc), _resonance_bits(getattr(exc, "fallback", None)))
    return outcome, [(w.category, str(w.message)) for w in caught]


class TestPeakLocalQ:
    """q_3db and fit_lorentzian read only the samples around their peak,
    and give what the whole-trace versions in q_reference.py give."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(3, 5000),
        q_loaded=st.floats(5.0, 5000.0),
        span_bw=st.floats(0.2, 400.0),
        offset=st.floats(-0.7, 0.7),
        noise_db=st.none() | st.floats(-120.0, -10.0),
        levels=st.sampled_from([0, 4, 50, 1000]),
        zeros=st.integers(0, 20),
        spikes=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
        pick=st.floats(0.0, 1.0),
    )
    # resonance at the right edge, and centered on the second sample
    @example(1001, 500.0, 40.0, 0.5, None, 0, 0, 0, 0, 0.5)
    @example(1001, 500.0, 40.0, -0.5 + 1 / 1000, None, 0, 0, 0, 0, 0.5)
    # plateaus with exact zeros; noise spikes
    @example(1001, 500.0, 40.0, 0.0, None, 4, 20, 0, 1, 0.5)
    @example(4001, 500.0, 40.0, 0.1, -40.0, 0, 0, 5, 2, 0.3)
    # wider than the trace; outside it
    @example(1001, 500.0, 0.5, 0.0, -60.0, 0, 0, 0, 3, 0.5)
    @example(1001, 500.0, 40.0, 0.7, None, 0, 0, 0, 0, 0.5)
    # crossings ~1250 samples out: the window grows three times
    @example(5000, 500.0, 2.0, 0.0, -90.0, 0, 0, 0, 4, 0.5)
    # the first window is +-625 samples at 40001 points: peaks 50 samples
    # from an edge, a crossing on the first (last) sample itself
    @example(40001, 500.0, 400.0, 0.49875, None, 0, 0, 0, 0, 0.5)
    @example(40001, 500.0, 400.0, -0.49875, None, 0, 0, 0, 0, 0.5)
    # crossings ~2000 samples out, past the first window: it must still grow
    @example(40001, 500.0, 10.0, 0.0, -90.0, 0, 0, 0, 5, 0.5)
    # a trace shorter than one first window
    @example(100, 500.0, 10.0, 0.1, None, 0, 0, 0, 0, 0.5)
    def test_matches_the_whole_trace_versions(
        self, n, q_loaded, span_bw, offset, noise_db, levels, zeros, spikes, seed, pick
    ):
        trace = _q_case_trace(n, q_loaded, span_bw, offset, noise_db, levels, zeros, spikes, seed)
        peaks = {-1, 0, 1, n - 2, n - 1, n, int(np.argmax(np.abs(trace.s21))), round(pick * (n - 1))}
        peaks.update(_prominent_peaks(trace.s21_db, 0.5)[:8])
        for peak in sorted(peaks):
            assert _q_outcome(q_3db, trace, peak) == _q_outcome(reference_q_3db, trace, peak)
            assert _q_outcome(fit_lorentzian, trace, peak) == _q_outcome(
                reference_fit_lorentzian, trace, peak
            )

    def test_fit_window_keeps_samples_on_its_edges(self):
        # add samples exactly at f_s -+ h, 2.5 bandwidths out, where the
        # 3-dB reading does not look: both are inside the window
        f0, q = 7.5e9, 500.0
        trace = lorentz_trace(f0, q, 0.5, 1001)
        peak = find_resonances(trace)[0]
        res = q_3db(trace, peak)
        h = 0.5 * traceio.FIT_WINDOW_BANDWIDTHS * (res.f0 / res.q_loaded)
        f = np.sort(np.concatenate((trace.freqs, [res.f0 - h, res.f0 + h])))
        edged = FrequencyTrace(f, 0.5 / (1.0 + 2j * q * (f - f0) / f0))
        assert q_3db(edged, peak + 1) == res
        assert _q_outcome(fit_lorentzian, edged, peak + 1) == _q_outcome(
            reference_fit_lorentzian, edged, peak + 1
        )

    @pytest.mark.parametrize("n_points", [4001, 10001, 20001, 40001])
    def test_converts_only_samples_near_the_peak(self, monkeypatch, n_points):
        # the same resonance over 40 bandwidths, so a bandwidth is n_points / 40
        # samples and each crossing lies half a bandwidth from the peak: the
        # first window, +-max(64, n_points // 64) samples, holds both, so one
        # conversion of < 6 bandwidths' worth of samples does
        trace = lorentz_trace(7.5e9, 500.0, 0.5, n_points, span_bw=40.0)
        peak = find_resonances(trace)[0]
        converted = []
        db = traceio._db
        monkeypatch.setattr(traceio, "_db", lambda s21: converted.append(len(s21)) or db(s21))
        for extract in (q_3db, fit_lorentzian):
            converted.clear()
            extract(trace, peak)
            assert len(converted) == 1
            assert 0 < sum(converted) <= 6 * n_points / 40
            assert max(converted) < n_points


class TestUnloadQ:
    def test_half_coupling(self):
        res = Resonance.from_loaded(7.5e9, 500.0, 0.5)
        assert res.q_unloaded == pytest.approx(1000.0, rel=1e-12)

    def test_near_critical_warns(self):
        with pytest.warns(NearCriticalCouplingWarning) as record:
            res = Resonance.from_loaded(7.5e9, 500.0, 0.99)
        assert res.q_unloaded == pytest.approx(50000.0, rel=1e-9)
        assert record[0].filename == __file__  # the warning names the caller

    def test_over_coupled(self):
        with pytest.raises(NoUsableResonanceError, match="net gain"):
            Resonance.from_loaded(7.5e9, 500.0, 1.0)


class TestTraceType:
    @pytest.mark.parametrize("freqs", [[1.0, np.inf, np.inf], [1.0, np.nan, 3.0]])
    def test_non_finite_freqs_rejected_without_warning(self, freqs):
        # the finiteness check runs before the increasing-order check, so a
        # non-finite frequency is named as such and nothing warns on it
        with pytest.raises(InvalidGeometryError, match="finite"):
            FrequencyTrace(np.array(freqs), np.zeros(3))

    @pytest.mark.parametrize(
        "freqs, s21, extra, message",
        [
            ([1.0, 2.0], [0.1, 0.2], {"s11": [0.1]}, "s11 must be finite and match freqs"),
            ([], [], {}, "at least one point"),
            ([[1.0, 2.0]], [[0.1, 0.2]], {}, "at least one point"),
            ([1.0, 2.0], [0.1], {}, "s21 length must match freqs"),
            ([1.0, 2.0], [0.1, 0.2], {"z0": 0.0}, "z0 must be > 0"),
        ],
        ids=["s11-length", "no-points", "two-dimensional", "s21-length", "z0"],
    )
    def test_shape_and_impedance_checks(self, freqs, s21, extra, message):
        with pytest.raises(InvalidGeometryError, match=message):
            FrequencyTrace(np.array(freqs), np.array(s21), **extra)

    def test_decreasing_freqs_rejected(self):
        with pytest.raises(InvalidGeometryError, match="strictly increasing"):
            FrequencyTrace(np.array([2.0, 1.0]), np.zeros(2))

    def test_increasing_freqs_farther_apart_than_float_max(self):
        # their difference overflows, which must neither warn nor reject
        trace = FrequencyTrace(np.array([-FLOAT_MAX, 3e292]), np.zeros(2))
        back = parse_touchstone(write_touchstone(trace))
        assert back.freqs.tobytes() == trace.freqs.tobytes()


class TestResonanceType:
    def test_consistency_enforced(self):
        with pytest.raises(InvalidGeometryError):
            Resonance(7.5e9, 500.0, 600.0, 0.5, "model")

    def test_constructed_invariant(self):
        res = Resonance.from_loaded(7.5e9, 500.0, 0.25, "three-db")
        assert res.q_unloaded * (1 - res.il_linear) == pytest.approx(
            res.q_loaded, rel=1e-9
        )

    def test_il_bounds(self):
        with pytest.raises(InvalidGeometryError):
            Resonance.from_loaded(7.5e9, 500.0, 0.0, "model")

    def test_q_loaded_must_be_positive(self):
        with pytest.raises(InvalidGeometryError, match="q_loaded must be > 0"):
            Resonance(7.5e9, 0.0, 0.0, 0.5, "model")


class TestPairing:
    def r(self, f0):
        return Resonance.from_loaded(f0, 500.0, 0.5, "model")

    def test_nearest_within_guard(self):
        pairs = pair_resonances(
            [self.r(3.77e9), self.r(7.53e9)], [self.r(7.51e9), self.r(3.75e9)]
        )
        assert [(e.f0, l.f0) for e, l in pairs] == [(3.77e9, 3.75e9), (7.53e9, 7.51e9)]

    def test_out_of_band_rejected(self):
        # the message says how far the nearest loaded resonance lies
        with pytest.raises(
            NoUsableResonanceError,
            match=r"within 10% of an empty one, the perturbation model's guard; "
            r"the nearest lies 0\.108 of its f0 away$",
        ):
            pair_resonances([self.r(3.7e9), self.r(6.0e9)], [self.r(7.53e9), self.r(4.1e9)])

    @pytest.mark.parametrize("n_empty, n_loaded", [(0, 1), (1, 0), (0, 0)])
    def test_an_empty_side_is_counted(self, n_empty, n_loaded):
        # pairing, not its callers, reports that one side found nothing
        with pytest.raises(
            NoUsableResonanceError, match=f"^found {n_empty} empty / {n_loaded} loaded resonances$"
        ):
            pair_resonances([self.r(7.53e9)] * n_empty, [self.r(7.51e9)] * n_loaded)

    def test_each_loaded_used_once(self):
        pairs = pair_resonances(
            [self.r(5.0e9), self.r(5.2e9)], [self.r(5.1e9)]
        )
        assert len(pairs) == 1
