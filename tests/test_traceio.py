import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from q_reference import reference_fit_lorentzian, reference_q_3db
from scipy.signal import find_peaks

import permeameter.traceio as traceio
from permeameter import (
    FrequencyTrace,
    Resonance,
    SynthConfig,
    find_resonances,
    fit_lorentzian,
    lorentzian_trace,
    pair_resonances,
    q_3db,
)
from permeameter.errors import (
    FitFailureError,
    InvalidGeometryError,
    NearCriticalCouplingWarning,
    NoUsableResonanceError,
    PermeameterError,
)
from permeameter.traceio import _prominent_peaks

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
        assert _prominent_peaks(traceio._db(two_peak_trace().s21), 80.0) == []

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
        expected = find_peaks(traceio._db(trace.s21), prominence=p)[0].tolist()
        assert _prominent_peaks(traceio._db(trace.s21), p) == expected

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
        expected = find_peaks(traceio._db(trace.s21), prominence=p)[0].tolist()
        assert _prominent_peaks(traceio._db(trace.s21), p) == expected

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
            expected = find_peaks(traceio._db(trace.s21), prominence=p)[0].tolist()
            assert _prominent_peaks(traceio._db(trace.s21), p) == expected

    def test_matches_scipy_find_peaks_on_long_plateaus(self):
        # |S21| rounded to 1e-3 with noise far below that: most neighbours
        # tie, so the merge of equal runs handles plateaus of many samples
        trace = lorentz_trace(7.5e9, 560.0, 0.3, 40001, noise_db=-90.0, seed=7)
        db = traceio._db(np.round(np.abs(trace.s21), 3))
        assert 2 * np.count_nonzero(db[1:] == db[:-1]) > db.size
        for p in (0.01, 0.5, 3.0):
            assert _prominent_peaks(db, p) == find_peaks(db, prominence=p)[0].tolist()

    # a trace cannot hold these levels (|S21| must be finite), so the rule is
    # checked on the search itself: an infinite level is a peak, a plateau
    # or a valley as any other, where differences would give inf - inf = NaN
    @pytest.mark.parametrize(
        "levels, peaks",
        [
            ([0, math.inf, math.inf, 0], [1]),
            ([0, math.inf, math.inf, math.inf, 0], [2]),
            ([0, 1, math.inf, 0, 2, 0], [2, 4]),
            ([math.inf, 0, 1, 0, math.inf], [2]),
            ([0, 2, -math.inf, 1, 0], [1, 3]),
        ],
    )
    def test_matches_scipy_find_peaks_on_infinite_levels(self, levels, peaks):
        y = np.array(levels, dtype=float)
        assert find_peaks(y, prominence=1.0)[0].tolist() == peaks
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _prominent_peaks(y, 1.0) == peaks


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
        with pytest.raises(NoUsableResonanceError, match="^peak at trace edge$") as err:
            q_3db(trace, 0)
        assert type(err.value) is NoUsableResonanceError

    def test_missing_crossing_names_side(self):
        f0, q = 7.5e9, 500.0
        res = Resonance.from_loaded(f0, q, 0.5, "model")
        bw = f0 / q
        cfg = SynthConfig(f0 - 3.2 * bw, f0 + 12 * bw, 1001, None, 0, 0.5)
        trace = lorentzian_trace(res, cfg)
        # keep only samples above the lower half-power point on the left
        keep = trace.freqs > (f0 - 0.4 * bw)
        clipped = FrequencyTrace(trace.freqs[keep], trace.s21[keep])
        with pytest.raises(NoUsableResonanceError, match="^no half-power crossing on the left side$") as err:
            q_3db(clipped, int(np.argmax(np.abs(clipped.s21))))
        assert type(err.value) is NoUsableResonanceError

    def test_vertex_far_above_the_samples_is_over_coupled(self):
        # a 2 Hz step beside a 40 MHz one: the parabola through the three
        # samples peaks near +3e7 dB, whose linear level overflows to inf
        f = np.array([1.0e9, 1.0e9 + 2.0, 1.0e9 + 4e7, 1.0e9 + 8e7])
        trace = FrequencyTrace(f, 10 ** (np.array([-30.0, -24.0, -30.0, -40.0]) / 20))
        assert _prominent_peaks(traceio._db(trace.s21), 0.5) == [1]
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

    @pytest.mark.filterwarnings("ignore::permeameter.errors.NearCriticalCouplingWarning")
    @pytest.mark.parametrize("il", [0.99, 0.995])
    @pytest.mark.parametrize("noise_db", [-40.0, -50.0])
    def test_a_net_gain_start_falls_back_and_fits(self, noise_db, il):
        # near critical coupling the noise lifts many seeds' 3-dB vertex to
        # IL >= 1, which q_3db refuses; the fit then starts from the crude
        # window and still reads the peak (bounds fixed before the first run)
        for seed in range(40):
            trace = lorentz_trace(7.5e9, 1000.0, il, 4001, noise_db=noise_db, seed=seed)
            peak = max(find_resonances(trace), key=lambda i: abs(trace.s21[i]))
            res = fit_lorentzian(trace, peak)
            assert res.method == "lorentzian-fit"
            assert abs(res.q_loaded / 1000.0 - 1.0) <= 0.10, seed
            assert abs(res.il_linear - il) <= 0.03, seed

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
        for peak in _prominent_peaks(traceio._db(trace.s21), 0.5):
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
        peaks.update(_prominent_peaks(traceio._db(trace.s21), 0.5)[:8])
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

    @pytest.mark.parametrize(
        "values, name",
        [
            ((math.inf, 100.0, 100.0 / 0.7, 0.3), "f0"),
            ((math.nan, 100.0, 100.0 / 0.7, 0.3), "f0"),
            # inf - inf is NaN, and the consistency check reads a NaN difference as consistent
            ((1e9, math.inf, math.inf, 0.3), "q_loaded"),
            ((1e9, 100.0, math.nan, 0.3), "q_unloaded"),
            ((1e9, 100.0, math.inf, 0.3), "q_unloaded"),
        ],
    )
    def test_non_finite_rejected(self, values, name):
        with pytest.raises(InvalidGeometryError, match=rf"^{name} must be > 0 and finite$"):
            Resonance(*values, "model")

    def test_from_unloaded_states_the_coupling_once(self):
        res = Resonance.from_unloaded(7.5e9, 800.0, 0.3, "model")
        assert res == Resonance(7.5e9, 800.0 * (1.0 - 0.3), 800.0, 0.3, "model")
        back = Resonance.from_loaded(res.f0, res.q_loaded, res.il_linear, "model")
        assert back.q_unloaded == pytest.approx(800.0, rel=1e-15)


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
