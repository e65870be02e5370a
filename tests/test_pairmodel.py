"""Coupled-mode model tests.

The full-transmission oracle is an independent extended-precision
re-implementation of the lossy formula in mpmath; the closed-form mode
solver is checked against numpy's eigen-decomposition of the coupled-mode
matrix.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resotrim.errors import DomainError, InvalidParamsError
from resotrim.pairmodel import (
    PairParams,
    eigenmodes,
    kappa_eff_pair,
    matching_figure,
    s21,
)


def s21_oracle(f, p):
    """Extended-precision evaluation of the lossy transmission formula."""
    with mpmath.workdps(50):
        d_r = mpmath.mpf(p.f_r) - mpmath.mpf(f)
        d_p = mpmath.mpf(p.f_p) - mpmath.mpf(f)
        t_r = mpmath.mpf(p.gamma_r) + 2j * d_r
        t_p = mpmath.mpf(p.gamma_p) + 2j * d_p + mpmath.mpf(p.kappa)
        val = 1 - (mpmath.mpf(p.kappa) / 2) * t_r / (
            4 * mpmath.mpf(p.j) ** 2 + t_p * t_r
        )
        return complex(val)


def detuning_frame_matrix(p, excited=False):
    """Coupled-mode matrix (Hz) with the bare readout frequency subtracted."""
    return np.array([
        [(p.chi if excited else 0.0) - 0.5j * p.gamma_r, p.j],
        [p.j, p.delta_pr - 0.5j * (p.kappa + p.gamma_p)],
    ])


class TestS21Ideal:
    def test_far_detuned_transparency(self):
        p = PairParams(f_r=7.5e9, f_p=7.51e9, j=10e6, kappa=2e6)
        f = p.f_r + 1000 * p.kappa
        assert abs(s21(f, p) - 1.0) < 1e-3

    def test_zero_at_readout_frequency(self):
        p = PairParams(f_r=7.5e9, f_p=7.51e9, j=10e6, kappa=2e6)
        assert s21(p.f_r, p) == 1.0 + 0.0j

    def test_half_transmission_at_delta_equal_j(self):
        # matched pair probed at Delta_P = Delta_R = J gives exactly 1/2
        p = PairParams(f_r=7.5e9, f_p=7.5e9, j=10e6, kappa=2e6)
        val = s21(p.f_r - p.j, p)
        assert abs(val - 0.5) < 1e-12

    def test_array_input(self):
        p = PairParams(f_r=7.5e9, f_p=7.5e9, j=10e6, kappa=2e6)
        f = np.linspace(7.4e9, 7.6e9, 101)
        vals = s21(f, p)
        assert vals.shape == (101,)
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    def test_passivity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = PairParams(
                f_r=7.5e9,
                f_p=7.5e9 + rng.uniform(-5e7, 5e7),
                j=10 ** rng.uniform(5, 7.5),
                kappa=10 ** rng.uniform(5, 7.5),
            )
            f = 7.5e9 + rng.uniform(-1e8, 1e8, 200)
            assert np.all(np.abs(s21(f, p)) <= 1.0 + 1e-12)


class TestS21Full:
    def test_far_detuned_transparency(self):
        p = PairParams(
            f_r=7.5e9, f_p=7.51e9, j=10e6, kappa=2e6,
            gamma_r=6e4, gamma_p=2e4,
        )
        assert abs(s21(p.f_r + 1000 * p.kappa, p) - 1.0) < 1e-3

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(11)
        p = PairParams(
            f_r=7.5e9, f_p=7.46e9, j=12e6, kappa=4e6,
            gamma_r=1.8e5, gamma_p=8e4,
        )
        for f in 7.5e9 + rng.uniform(-8e7, 8e7, 50):
            got = s21(float(f), p)
            want = s21_oracle(float(f), p)
            assert abs(got - want) < 1e-12

    def test_single_notch_floor(self):
        # one resonator effectively decoupled: |S21| dips to 1/2 on
        # resonance of the remaining feedline-coupled mode
        p = PairParams(f_r=6.0e9, f_p=7.5e9, j=1.0, kappa=2e6)
        assert abs(s21(p.f_p, p) - 0.5) < 1e-3


class TestKappaEffPair:
    def test_matched_regime_equal_split(self):
        r_like, p_like = kappa_eff_pair(10e6, 2e6, 0.0)
        assert r_like == pytest.approx(1e6, rel=1e-12)
        assert p_like == pytest.approx(1e6, rel=1e-12)

    def test_decoupled_limit(self):
        r_like, p_like = kappa_eff_pair(1.0, 2e6, 0.0)
        assert r_like == pytest.approx(0.0, abs=1e-3)
        assert p_like == pytest.approx(2e6, rel=1e-9)

    def test_far_detuned_asymptote(self):
        j = 1e6
        kappa = j
        delta = 100 * j
        r_like, _ = kappa_eff_pair(j, kappa, delta)
        assert r_like == pytest.approx(kappa * j**2 / delta**2, rel=0.05)

    def test_r_like_never_larger(self):
        rng = np.random.default_rng(3)
        j = 10 ** rng.uniform(4, 8, 500)
        kappa = 10 ** rng.uniform(4, 8, 500)
        delta = rng.uniform(-1e8, 1e8, 500)
        r_like, p_like = kappa_eff_pair(j, kappa, delta)
        assert np.all(r_like <= p_like + 1e-9)
        assert np.all(r_like >= -1e-6)

    def test_sum_is_kappa(self):
        # trace of the decay matrix is preserved under hybridization
        r_like, p_like = kappa_eff_pair(7e6, 3e6, 12e6)
        assert r_like + p_like == pytest.approx(3e6, rel=1e-12)

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(DomainError):
            kappa_eff_pair(-1e6, 2e6, 0.0)


@pytest.mark.parametrize("fn, args", [
    (kappa_eff_pair, (math.nan, 2e7, 0.0)), (kappa_eff_pair, (1e7, math.inf, 0.0)),
    (kappa_eff_pair, (1e7, 2e7, math.nan)), (kappa_eff_pair, (1e7, 2e7, math.inf)),
    (matching_figure, (1e6, math.nan)), (matching_figure, (math.inf, 2e6)),
])
def test_non_finite_input_is_a_domain_error(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


class TestEigenmodes:
    def test_matched_split_is_2j(self):
        # kappa << J so the splitting reduction sqrt(J^2 - kappa^2/16)
        # is 2J to well below the tolerance
        p = PairParams(f_r=7.5e9, f_p=7.5e9, j=10e6, kappa=1e3)
        lo, hi = eigenmodes(p)
        assert hi.f_mode - lo.f_mode == pytest.approx(2 * p.j, rel=1e-9)
        assert lo.kappa_eff == pytest.approx(p.kappa / 2, rel=1e-9)
        assert hi.kappa_eff == pytest.approx(p.kappa / 2, rel=1e-9)

    def test_matched_chi_eff_is_half(self):
        p = PairParams(f_r=7.5e9, f_p=7.5e9, j=10e6, kappa=1e3, chi=-0.2e6)
        for mode in eigenmodes(p):
            assert mode.chi_eff == pytest.approx(p.chi / 2, rel=0.01)

    def test_matches_closed_form_linewidths(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            p = PairParams(
                f_r=7.5e9,
                f_p=7.5e9 + rng.uniform(-5e7, 5e7),
                j=10 ** rng.uniform(4.5, 7.5),
                kappa=10 ** rng.uniform(4.5, 7.5),
            )
            lo, hi = eigenmodes(p)
            # reference: numerical eigenvalues of the detuning-frame matrix
            vals = np.linalg.eigvals(detuning_frame_matrix(p))
            want = sorted(-2.0 * vals.imag)
            got = sorted([lo.kappa_eff, hi.kappa_eff])
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-9, abs=1e-3)

    def test_chi_additivity(self):
        # the coupled-mode matrix trace shifts by exactly chi
        p = PairParams(f_r=7.5e9, f_p=7.52e9, j=9e6, kappa=4e6, chi=-8e6)
        lo, hi = eigenmodes(p)
        assert lo.chi_eff + hi.chi_eff == pytest.approx(p.chi, rel=1e-6)

    def test_excited_state_frequencies(self):
        p = PairParams(f_r=7.5e9, f_p=7.52e9, j=9e6, kappa=4e6, chi=-8e6)
        ground = eigenmodes(p, "ground")
        excited = eigenmodes(p, "excited")
        for g, e in zip(ground, excited):
            assert e.f_mode - g.f_mode == pytest.approx(g.chi_eff, abs=1.0)

    def test_r_weights_sum_to_one(self):
        p = PairParams(f_r=7.5e9, f_p=7.53e9, j=6e6, kappa=9e6)
        lo, hi = eigenmodes(p)
        assert lo.r_weight + hi.r_weight == pytest.approx(1.0, rel=1e-9)
        # the lower mode is closer to the bare readout frequency here
        assert lo.r_weight > hi.r_weight

    def test_exceptional_point_flagged(self):
        p = PairParams(f_r=7.5e9, f_p=7.5e9, j=1e6, kappa=4e6)
        lo, hi = eigenmodes(p)
        assert lo.degenerate and hi.degenerate
        assert lo.r_weight == pytest.approx(0.5)
        assert hi.r_weight == pytest.approx(0.5)

    def test_rejects_unknown_state(self):
        p = PairParams(f_r=7.5e9, f_p=7.5e9, j=1e6, kappa=2e6)
        with pytest.raises(DomainError):
            eigenmodes(p, "superposition")


rates = st.floats(4.0, 7.5).map(lambda x: 10.0**x)
losses = st.one_of(st.just(0.0), st.floats(2.0, 6.0).map(lambda x: 10.0**x))


@st.composite
def lossy_pairs(draw):
    f_r = draw(st.floats(4e9, 8e9))
    j, kappa = draw(rates), draw(rates)
    return PairParams(
        f_r=f_r, f_p=f_r + draw(st.floats(-3.0, 3.0)) * max(j, kappa), j=j, kappa=kappa,
        gamma_r=draw(losses), gamma_p=draw(losses),
        chi=-draw(rates),
    )


@settings(max_examples=300, deadline=None)
@given(lossy_pairs(), st.sampled_from(["ground", "excited"]))
def test_eigenmodes_match_numpy_eig(p, state):
    m = detuning_frame_matrix(p, excited=state == "excited")
    vals, vecs = np.linalg.eig(m)
    # eigenvectors are ill-conditioned next to the exceptional point
    assume(abs(vals[0] - vals[1]) > 1e-3 * np.abs(m).max())
    modes = eigenmodes(p, state)
    assert modes[0].f_mode <= modes[1].f_mode
    assert modes[0].r_weight + modes[1].r_weight == pytest.approx(1.0, abs=1e-12)
    weights = np.abs(vecs[0]) ** 2 / (np.abs(vecs) ** 2).sum(axis=0)
    for mode in modes:
        # pair each mode with the nearest numerical eigenvalue
        k = int(np.argmin(np.abs(vals + p.f_r - complex(mode.f_mode, -mode.kappa_eff / 2))))
        assert mode.f_mode == pytest.approx(p.f_r + vals[k].real, rel=0, abs=1e-3)
        assert mode.kappa_eff == pytest.approx(-2.0 * vals[k].imag, rel=1e-6, abs=1e-3)
        assert mode.r_weight == pytest.approx(weights[k], rel=0, abs=1e-8)


class TestPairParams:
    def test_rejects_nonpositive_frequencies(self):
        with pytest.raises(InvalidParamsError):
            PairParams(f_r=-7.5e9, f_p=7.5e9, j=1e6, kappa=2e6)

    def test_rejects_negative_losses(self):
        with pytest.raises(InvalidParamsError):
            PairParams(f_r=7.5e9, f_p=7.5e9, j=1e6, kappa=2e6, gamma_r=-1.0)

    def test_delta_pr_sign(self):
        p = PairParams(f_r=7.5e9, f_p=7.48e9, j=1e6, kappa=2e6)
        assert p.delta_pr == pytest.approx(-20e6)


class TestPhotonFractionAndMatching:
    def test_matching_condition_is_unity(self):
        assert matching_figure(1e6, 2e6) == pytest.approx(1.0)

    def test_rejects_nonpositive_linewidth(self):
        with pytest.raises(DomainError):
            matching_figure(1e6, 0.0)

    def test_pathological_pre_trim_pair(self):
        # strongly mismatched pair: narrow R-like mode far over-matched,
        # broad P-like mode far under-matched
        p = PairParams(f_r=7.5e9, f_p=7.58e9, j=10e6, kappa=20e6, chi=-6e6)
        lo, hi = eigenmodes(p)
        ratios = sorted(
            matching_figure(m.chi_eff / 2, m.kappa_eff) for m in (lo, hi)
        )
        assert ratios[1] == pytest.approx(20.0, rel=0.1)
        assert ratios[0] < 0.05

    def test_post_trim_pair(self):
        p = PairParams(f_r=7.5e9, f_p=7.4992e9, j=10e6, kappa=20e6, chi=-11.2e6)
        lo, hi = eigenmodes(p)
        assert matching_figure(lo.chi_eff / 2, lo.kappa_eff) == pytest.approx(0.70, abs=0.02)
        assert matching_figure(hi.chi_eff / 2, hi.kappa_eff) == pytest.approx(0.40, abs=0.02)
