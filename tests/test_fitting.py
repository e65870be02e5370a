"""Fitter tests: trace validation, baseline removal, seeding, recovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.signal import find_peaks, peak_widths

from resotrim.errors import InvalidTraceError, NoResonanceError
from resotrim.fitting import (
    MIN_FIT_POINTS,
    TransmissionTrace,
    correct_baseline,
    fit_pair,
    initial_guess,
)
from resotrim.fitting import _find_dips, _half_widths
from resotrim.fitting import _model_and_jacobian, _pack, _IDEAL_NAMES, _FULL_NAMES
from resotrim.pairmodel import PairParams, s21_full, s21_ideal

from conftest import random_regime, synth_trace as make_trace


def rel_errors(fit, truth, names=("f_r", "f_p", "j", "kappa")):
    return {
        n: abs(getattr(fit, n) - getattr(truth, n)) / max(abs(getattr(truth, n)), 1.0)
        for n in names
    }


class TestTransmissionTrace:
    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidTraceError):
            TransmissionTrace(freqs=np.arange(5.0), values=np.zeros(4, complex))

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidTraceError):
            TransmissionTrace(freqs=np.array([1.0, 3.0, 2.0]), values=np.ones(3, complex))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidTraceError):
            TransmissionTrace(
                freqs=np.array([1.0, 2.0]), values=np.array([1.0, np.nan], complex)
            )

    def test_short_trace_loadable_but_not_fittable(self):
        tr = TransmissionTrace(freqs=np.arange(3.0) + 1, values=np.ones(3, complex))
        assert len(tr) == 3
        with pytest.raises(InvalidTraceError):
            initial_guess(tr)


def windowed_trace(p, span, n):
    """Trace whose resonance deviation vanishes exactly in the wings.

    The measured span is wide enough that the outer 10% windows used by
    the baseline fit contain no resonance tail at all; a Tukey-style
    taper forces that exactly, which real 1/Delta tails never do."""
    f = np.linspace(0.5 * (p.f_r + p.f_p) - span / 2,
                    0.5 * (p.f_r + p.f_p) + span / 2, n)
    x = (f - f[0]) / span
    window = np.clip((0.5 - np.abs(x - 0.5)) / 0.15 - 1.0, 0.0, 1.0)
    values = 1.0 + (s21_ideal(f, p) - 1.0) * window
    return TransmissionTrace(freqs=f, values=values)


class TestCorrectBaseline:
    def test_identity_on_normalized_trace(self):
        p = PairParams(f_r=7.5e9, f_p=7.5e9, j=10e6, kappa=2e6)
        tr = windowed_trace(p, span=4e8, n=801)
        out = correct_baseline(tr)
        assert np.max(np.abs(out.values - tr.values)) < 1e-9

    def test_recovers_known_background(self):
        p = PairParams(f_r=7.5e9, f_p=7.5e9, j=10e6, kappa=2e6)
        tr = windowed_trace(p, span=4e8, n=801)
        g, tau = 1.7, 38e-9
        dirty = TransmissionTrace(
            freqs=tr.freqs,
            values=tr.values * g * np.exp(-2j * np.pi * tr.freqs * tau),
        )
        out = correct_baseline(dirty)
        # background recovered within 0.1% amplitude over the clean trace
        assert np.max(np.abs(out.values - tr.values)) < 1e-3

    def test_pure_delay_becomes_flat_unity(self):
        f = np.linspace(7.4e9, 7.6e9, 401)
        dirty = TransmissionTrace(freqs=f, values=np.exp(-2j * np.pi * f * 20e-9))
        out = correct_baseline(dirty)
        assert np.max(np.abs(out.values - 1.0)) < 1e-6

    def test_resonant_wings_flagged(self):
        # a span barely wider than the resonance leaks it into the wings
        p = PairParams(f_r=7.5e9, f_p=7.5e9, j=10e6, kappa=20e6)
        tr = make_trace(p, span=3e7, n=801)
        out = correct_baseline(tr)
        assert any("baseline-unreliable" in w for w in out.warnings)


class TestInitialGuess:
    def test_flat_trace_raises(self):
        tr = TransmissionTrace(
            freqs=np.linspace(7.4e9, 7.6e9, 401), values=np.ones(401, complex)
        )
        with pytest.raises(NoResonanceError):
            initial_guess(tr)

    def test_matched_pair_seed(self):
        p = PairParams(f_r=7.5e9, f_p=7.5e9, j=10e6, kappa=2e6)
        g = initial_guess(make_trace(p, span=2e8, n=1201))
        assert abs(g.j - p.j) / p.j < 0.3
        assert abs(g.f_r - p.f_r) < p.kappa
        assert abs(g.f_p - p.f_p) < p.kappa

    def test_mismatched_pair_assigns_narrow_dip_to_readout(self):
        p = PairParams(f_r=7.5e9, f_p=7.54e9, j=8e6, kappa=6e6)
        g = initial_guess(make_trace(p, span=2e8, n=4001))
        # bare readout estimate on the narrow-dip side of center
        assert abs(g.f_r - p.f_r) < abs(g.f_r - p.f_p)
        assert abs(g.f_p - p.f_p) < abs(g.f_p - p.f_r)


# small integers make plateaus and equal heights; floats make generic traces
dip_arrays = st.one_of(
    arrays(float, st.integers(1, 80), elements=st.integers(0, 4).map(float)),
    arrays(float, st.integers(1, 80), elements=st.floats(-1.0, 1.0)),
)


# a prominence below the float spacing at the peak gives a zero width, which scipy warns about
@pytest.mark.filterwarnings("ignore:some peaks have a width of 0")
@settings(max_examples=500, deadline=None)
@given(dip_arrays, st.sampled_from([0.0, 0.05, 0.5, 1.0, 2.0]))
def test_dip_finder_matches_scipy(x, min_prominence):
    peaks, props = find_peaks(x, prominence=min_prominence)
    got = _find_dips(x, min_prominence)
    np.testing.assert_array_equal(got[0], peaks)
    np.testing.assert_array_equal(got[1], props["prominences"])
    np.testing.assert_array_equal(got[2], props["left_bases"])
    np.testing.assert_array_equal(got[3], props["right_bases"])
    np.testing.assert_array_equal(_half_widths(x, *got), peak_widths(x, peaks, rel_height=0.5)[0])


class TestJacobian:
    @pytest.mark.parametrize("names", [_IDEAL_NAMES, _FULL_NAMES])
    def test_matches_finite_differences(self, names):
        p = PairParams(
            f_r=7.5e9, f_p=7.52e9, j=9e6, kappa=4e6,
            gamma_r=3e4, gamma_p=9e4, kappa_drive=2e5,
        )
        f = np.linspace(7.46e9, 7.57e9, 64)
        theta = _pack(p, names, kappa_floor=1.0)
        _, jac = _model_and_jacobian(theta, f, names)
        for i in range(len(theta)):
            h = 1.0 if i < 2 else 1e-7
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            sp, _ = _model_and_jacobian(tp, f, names)
            sm, _ = _model_and_jacobian(tm, f, names)
            fd = (sp - sm) / (2 * h)
            scale = max(np.max(np.abs(jac[:, i])), 1e-12)
            assert np.max(np.abs(jac[:, i] - fd)) / scale < 1e-5


class TestFitPair:
    def test_fixed_point(self):
        truth = PairParams(f_r=7.5e9, f_p=7.503e9, j=10e6, kappa=3e6)
        tr = make_trace(truth, span=1e8, n=801)
        result = fit_pair(tr, truth, restarts=False)
        assert result.converged
        assert max(rel_errors(result.params, truth).values()) < 1e-6

    def test_round_trip_from_initial_guess(self):
        truth = PairParams(f_r=7.5e9, f_p=7.503e9, j=10e6, kappa=3e6)
        tr = make_trace(truth, span=1e8, n=801)
        result = fit_pair(tr, initial_guess(tr))
        assert result.converged
        assert max(rel_errors(result.params, truth).values()) < 1e-6
        assert result.residual_rms < 1e-8

    def test_round_trip_strongly_mismatched(self):
        truth = PairParams(f_r=7.5e9, f_p=7.468e9, j=8.6e6, kappa=1.4e6)
        tr = make_trace(truth, span=1.2e8, n=4001)
        result = fit_pair(tr, initial_guess(tr))
        assert result.converged
        assert max(rel_errors(result.params, truth).values()) < 1e-6

    def test_full_model_round_trip(self):
        truth = PairParams(
            f_r=7.5e9, f_p=7.504e9, j=10e6, kappa=3e6,
            gamma_r=5e4, gamma_p=1e5, kappa_drive=2e5,
        )
        tr = make_trace(truth, span=1e8, n=1601, model=s21_full)
        result = fit_pair(tr, truth, model="full", restarts=False)
        assert result.converged
        names = ("f_r", "f_p", "j", "kappa", "gamma_r", "gamma_p", "kappa_drive")
        assert max(rel_errors(result.params, truth, names).values()) < 1e-4

    def test_noisy_recovery_single_seed(self):
        truth = PairParams(f_r=7.5e9, f_p=7.503e9, j=10e6, kappa=3e6)
        tr = make_trace(truth, span=5e7, n=801, noise=0.01, seed=12)
        result = fit_pair(tr, initial_guess(tr))
        assert abs(result.params.f_r - truth.f_r) < 1e5
        assert abs(result.params.f_p - truth.f_p) < 1e5
        # confidence half-widths should be commensurate with the error
        assert 1e3 < result.confidence["f_r"] < 1e6

    def test_nonconvergence_reported_not_raised(self):
        truth = PairParams(f_r=7.5e9, f_p=7.503e9, j=10e6, kappa=3e6)
        tr = make_trace(truth, span=1e8, n=801, noise=0.01, seed=3)
        result = fit_pair(tr, initial_guess(tr), max_iter=1, restarts=False)
        assert not result.converged

    def test_rejects_unknown_model(self):
        truth = PairParams(f_r=7.5e9, f_p=7.503e9, j=10e6, kappa=3e6)
        tr = make_trace(truth, span=1e8, n=801)
        with pytest.raises(InvalidTraceError):
            fit_pair(tr, truth, model="exotic")

    def test_rejects_short_trace(self):
        truth = PairParams(f_r=7.5e9, f_p=7.503e9, j=10e6, kappa=3e6)
        tr = make_trace(truth, span=1e8, n=MIN_FIT_POINTS - 1)
        with pytest.raises(InvalidTraceError):
            fit_pair(tr, truth)


def test_round_trip_random_regimes():
    rng = np.random.default_rng(0)
    for _ in range(25):
        truth, tr = random_regime(rng)
        result = fit_pair(tr, initial_guess(tr))
        assert result.converged
        assert max(rel_errors(result.params, truth).values()) < 1e-6
