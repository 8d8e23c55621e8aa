"""Touchstone v1.0 files: the trace type, the reader and the writer."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from layering import module_tree, package_imports, top_level_names
from touchstone_reference import reference_parse_touchstone, reference_write_touchstone

from permeameter import FrequencyTrace, parse_touchstone, write_touchstone
from permeameter.errors import InvalidGeometryError, TouchstoneParseError
from permeameter.touchstone import FORMATS, FREQ_UNITS

FLOAT_MAX = np.finfo(float).max


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
    * overflow: a row whose |S| overflows, from a dB level or from two
      finite RI parts (1.5e308 1.5e308), or a frequency that overflows
      once scaled to Hz, is a TouchstoneParseError at its line (the old
      parser raised OverflowError or InvalidGeometryError, or read the
      RI row into a trace with an infinite |S21|); generated values
      never overflow;
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
            (b"# HZ S RI R 50\n1e9 0 0 1.5e308 1.5e308 0 0 0 0\n", 2, "overflows"),
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
    huge values included, with or without s11, at a random z0.  Two
    finite parts whose |S| overflows make no trace, so they are not drawn."""
    n = draw(st.integers(1, 20))
    freqs = sorted(draw(st.lists(st.floats(-FLOAT_MAX, FLOAT_MAX), min_size=n, max_size=n,
                                 unique=True)))
    parts = st.floats(-FLOAT_MAX, FLOAT_MAX)
    samples = st.builds(complex, parts, parts).filter(lambda z: np.isfinite(np.abs(z)))

    def column():
        return np.array([draw(samples) for _ in range(n)])

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


class TestTraceType:
    @pytest.mark.parametrize("freqs", [[1.0, np.inf, np.inf], [1.0, np.nan, 3.0]])
    def test_non_finite_freqs_rejected_without_warning(self, freqs):
        # the finiteness check runs before the increasing-order check, so a
        # non-finite frequency is named as such and nothing warns on it
        with pytest.raises(InvalidGeometryError, match="finite"):
            FrequencyTrace(np.array(freqs), np.zeros(3))

    @pytest.mark.parametrize("part", ["s21", "s11"])
    def test_overflowing_magnitude_rejected_without_warning(self, part):
        # both parts are finite, but |S| is not
        samples = {"s21": np.zeros(2, dtype=complex), "s11": np.zeros(2, dtype=complex)}
        samples[part][1] = complex(1.5e308, 1.5e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGeometryError, match="finite"):
                FrequencyTrace(np.array([1.0, 2.0]), **samples)

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


def test_touchstone_is_a_leaf_that_traceio_does_not_restate():
    # the file format depends on nothing of the analysis it feeds, and the
    # analysis module imports the trace type rather than defining any of it
    touchstone = module_tree("touchstone")
    assert package_imports(touchstone) == {"errors"}
    defined = top_level_names(touchstone)
    assert {"FrequencyTrace", "parse_touchstone", "write_touchstone", "FREQ_UNITS"} <= defined
    assert top_level_names(module_tree("traceio")) & defined == set()
