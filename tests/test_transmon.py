"""Transmon spectrum, spectroscopy inversion, and anneal-loop tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resotrim import transmon
from resotrim.errors import (
    CutoffError, DirectionError, DomainError, InversionError, ResotrimError,
)
from resotrim.registry import TransmonEntry
from resotrim.transmon import (
    AnnealConfig,
    LogAnnealResponse,
    anneal_closed_loop,
    asymptotic_fq,
    invert_spectroscopy,
    predict_fq,
    rj_target,
    transmon_spectrum,
)


class TestTransmonSpectrum:
    def test_close_to_asymptotic_formula(self):
        e_c = 250e6
        e_j = 50 * e_c
        f_q, alpha = transmon_spectrum(e_j, e_c)
        assert f_q == pytest.approx(asymptotic_fq(e_j, e_c), rel=0.01)
        assert alpha == pytest.approx(-e_c, rel=0.15)
        assert alpha < 0

    def test_cutoff_converged(self):
        e_c = 250e6
        e_j = 50 * e_c
        f15, _ = transmon_spectrum(e_j, e_c, cutoff=15)
        f30, _ = transmon_spectrum(e_j, e_c, cutoff=30)
        assert abs(f30 - f15) < 1.0

    def test_scaling_linearity(self):
        f1, a1 = transmon_spectrum(12e9, 250e6)
        f2, a2 = transmon_spectrum(3 * 12e9, 3 * 250e6)
        assert f2 == pytest.approx(3 * f1, rel=1e-12)
        assert a2 == pytest.approx(3 * a1, rel=1e-10)

    def test_asymptotic_error_monotone(self):
        e_c = 250e6
        errs = []
        for ratio in (20, 40, 80, 120, 200):
            f_q, _ = transmon_spectrum(ratio * e_c, e_c, cutoff=40)
            errs.append(abs(f_q - asymptotic_fq(ratio * e_c, e_c)) / f_q)
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_small_cutoff_raises(self):
        with pytest.raises(CutoffError):
            transmon_spectrum(200 * 250e6, 250e6, cutoff=10)

    def test_cutoff_below_ten_is_a_domain_error(self):
        with pytest.raises(DomainError, match="cutoff must be at least 10"):
            transmon_spectrum(1e10, 2.5e8, cutoff=9)

    def test_rejects_nonpositive_energies(self):
        with pytest.raises(DomainError):
            transmon_spectrum(-1e9, 250e6)

    @settings(max_examples=300, deadline=None)
    @given(
        e_c=st.floats(50e6, 1e9),
        ratio=st.floats(1.0, 200.0),
        cutoff=st.integers(10, 40),
    )
    def test_matches_the_full_charge_basis_matrix(self, e_c, ratio, cutoff):
        e_j = ratio * e_c
        try:
            f_q, alpha = transmon_spectrum(e_j, e_c, cutoff)
        except CutoffError:
            return
        n = np.arange(-cutoff, cutoff + 1.0)
        hop = np.full(2 * cutoff, -e_j / 2.0)
        levels = np.linalg.eigvalsh(np.diag(4.0 * e_c * n**2) + np.diag(hop, 1) + np.diag(hop, -1))
        assert f_q == pytest.approx(levels[1] - levels[0], rel=1e-11)
        assert alpha == pytest.approx(levels[2] - 2.0 * levels[1] + levels[0], rel=1e-10)


class TestSpectrumJacobian:
    @settings(max_examples=100, deadline=None)
    @given(e_c=st.floats(50e6, 1e9), ratio=st.floats(20.0, 150.0))
    def test_matches_a_central_difference(self, e_c, ratio):
        e_j, h = ratio * e_c, 1e-5
        f_q, alpha, jac = transmon_spectrum(e_j, e_c, 40, jacobian=True)
        assert (f_q, alpha) == pytest.approx(transmon_spectrum(e_j, e_c, 40), rel=1e-12)
        for col, (dj, dc) in enumerate(((h, 0.0), (0.0, h))):
            up = transmon_spectrum(e_j * math.exp(dj), e_c * math.exp(dc), 40)
            down = transmon_spectrum(e_j * math.exp(-dj), e_c * math.exp(-dc), 40)
            for row in range(2):
                assert jac[row, col] == pytest.approx((up[row] - down[row]) / (2 * h), rel=1e-6)

    def test_newton_solves_the_spectrum_once_per_step(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return transmon_spectrum(*args, **kwargs)

        monkeypatch.setattr(transmon, "transmon_spectrum", counted)
        e_j, e_c = invert_spectroscopy(6.0e9, -300e6)
        rj_target(6000.0, 6.0e9, 5.9e9, e_c)
        assert len(calls) <= 16


class TestInvertSpectroscopy:
    def test_round_trip_fixed_case(self):
        f_q, alpha = 6.0e9, -300e6
        e_j, e_c = invert_spectroscopy(f_q, alpha)
        # closed-form seed is e_c = 300 MHz, e_j = 16.5375 GHz; the exact
        # solution stays in that neighborhood
        assert e_c == pytest.approx(300e6, rel=0.2)
        assert e_j == pytest.approx((f_q - alpha) ** 2 / (-8 * alpha), rel=0.2)
        f_back, a_back = transmon_spectrum(e_j, e_c)
        assert abs(f_back - f_q) < 1e3
        assert abs(a_back - alpha) < 1e3

    def test_round_trip_random_regime(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            e_c = rng.uniform(150e6, 350e6)
            e_j = rng.uniform(25, 90) * e_c
            f_q, alpha = transmon_spectrum(e_j, e_c, cutoff=40)
            e_j2, e_c2 = invert_spectroscopy(f_q, alpha, cutoff=40)
            f2, a2 = transmon_spectrum(e_j2, e_c2, cutoff=40)
            assert abs(f2 - f_q) < 1e3
            assert abs(a2 - alpha) < 1e3

    def test_rejects_positive_alpha(self):
        with pytest.raises(DomainError):
            invert_spectroscopy(6.0e9, 300e6)

    def test_rejects_non_transmon_regime(self):
        # |alpha| comparable to f_q implies e_j/e_c far below the floor
        with pytest.raises((InversionError, DomainError)):
            invert_spectroscopy(2.0e9, -1.5e9)

    def test_refuses_the_spectrum_of_a_ratio_below_the_floor(self):
        with pytest.raises(InversionError, match="solution ratio 19.0 below transmon floor"):
            invert_spectroscopy(*transmon_spectrum(19 * 250e6, 250e6))

    @pytest.mark.parametrize("ratio", [20.0, 20.005])
    def test_inverts_the_spectrum_of_a_ratio_at_the_floor(self, ratio):
        # at leading order these spectra seed a ratio near 10, half the floor
        e_j, e_c = invert_spectroscopy(*transmon_spectrum(ratio * 250e6, 250e6))
        assert e_j / e_c == pytest.approx(ratio, rel=1e-9)

    def test_refuses_a_solution_ratio_below_the_floor(self, monkeypatch):
        # a spectrum that needs twice the true E_J: the data of E_J / E_c = 30
        # solve to a ratio of 15
        true = transmon_spectrum
        monkeypatch.setattr(transmon, "transmon_spectrum",
                            lambda e_j, e_c, cutoff, jacobian: true(2 * e_j, e_c, cutoff, jacobian))
        with pytest.raises(InversionError, match="solution ratio 15.0 below"):
            invert_spectroscopy(*true(30 * 250e6, 250e6))

    def test_refuses_a_seed_whose_e_j_underflows(self):
        # (f_q + e_c)**2 underflows to 0 for f_q of this size
        with pytest.raises(InversionError, match="the seed E_J of f_q 2.2e-261 Hz underflows"):
            invert_spectroscopy(2.2e-261, -2.2e-309)

    def test_refuses_residuals_above_the_tolerance(self):
        # at 1e15 Hz a last Newton step of 1e-10 in log energy leaves kHz residuals
        with pytest.raises(InversionError, match="inversion residuals .* above 1000 Hz"):
            invert_spectroscopy(1e15, -1.2e14)

    @settings(max_examples=200, deadline=None)
    @given(f_q=st.floats(1e6, 1e12), alpha=st.floats(-1e11, -1e3),
           cutoff=st.integers(10, 40))
    def test_every_failure_is_an_inversion_error(self, f_q, alpha, cutoff):
        try:
            e_j, e_c = invert_spectroscopy(f_q, alpha, cutoff)
        except (DomainError, InversionError):
            return
        f_back, a_back = transmon_spectrum(e_j, e_c, cutoff)
        assert abs(f_back - f_q) < 1e3 and abs(a_back - alpha) < 1e3


class TestRjTarget:
    def test_no_move_no_change(self):
        assert rj_target(6000.0, 6.0e9, 6.0e9, 300e6) == pytest.approx(6000.0, rel=1e-9)

    def test_halving_ej_doubles_resistance(self):
        e_c = 300e6
        f_now, _ = transmon_spectrum(16e9, e_c)
        f_target, _ = transmon_spectrum(8e9, e_c)
        assert rj_target(6000.0, f_now, f_target, e_c) == pytest.approx(12000.0, rel=1e-6)

    def test_6p0_to_5p8_ratio(self):
        # asymptotically r2/r1 = (f1 + e_c)^2 / (f2 + e_c)^2 ~ (6.3/6.1)^2
        ratio = rj_target(1.0, 6.0e9, 5.8e9, 300e6)
        assert ratio == pytest.approx((6.3 / 6.1) ** 2, rel=0.01)

    def test_wrong_direction(self):
        with pytest.raises(DirectionError):
            rj_target(6000.0, 6.0e9, 6.2e9, 300e6)

    def test_predict_fq_identity(self):
        assert predict_fq(6000.0, 6000.0, 16e9, 300e6) == pytest.approx(
            transmon_spectrum(16e9, 300e6)[0]
        )

    def test_predict_fq_doubled_resistance(self):
        e_c = 300e6
        got = predict_fq(12000.0, 6000.0, 16e9, e_c)
        assert got == pytest.approx(asymptotic_fq(8e9, e_c), rel=0.01)

    def test_predict_fq_monotone(self):
        e_c = 300e6
        rs = np.linspace(5000.0, 15000.0, 8)
        fs = [predict_fq(r, 6000.0, 16e9, e_c) for r in rs]
        assert all(a > b for a, b in zip(fs, fs[1:]))

    def test_round_trip_with_predict(self):
        # resistance computed by rj_target maps back to the target f_q
        e_c = 300e6
        r_now, f_now, f_target = 6000.0, 6.0e9, 5.7e9
        e_j_now = None
        from resotrim.transmon import _ej_from_fq

        e_j_now = _ej_from_fq(f_now, e_c)
        r_t = rj_target(r_now, f_now, f_target, e_c)
        assert abs(predict_fq(r_t, r_now, e_j_now, e_c) - f_target) < 1e3

    @settings(max_examples=200, deadline=None)
    @given(f_now=st.floats(1e6, 1e12), share=st.floats(1e-6, 1.0), e_c=st.floats(1e3, 1e11))
    def test_every_failure_is_an_inversion_error(self, f_now, share, e_c):
        try:
            r = rj_target(6000.0, f_now, f_now * share, e_c)
        except InversionError:
            return
        assert 6000.0 <= r < math.inf

    @pytest.mark.parametrize("f_target, e_c, reason", [
        (1e9, 300e6, "no transmon solution"),  # below the E_J -> 0 limit 4 E_c: no root
        (5e9, 1e3, "cutoff 30 too small"),  # the seed E_J needs more charge states
        (5e9, 1e-300, "positive and finite"),  # the seed E_J overflows to inf
    ])
    def test_solver_failures_are_inversion_errors(self, f_target, e_c, reason):
        with pytest.raises(InversionError, match=reason):
            rj_target(6000.0, 6.0e9, f_target, e_c)

    def test_non_finite_spectrum_is_an_inversion_error(self, monkeypatch):
        monkeypatch.setattr(transmon, "transmon_spectrum",
                            lambda *args, jacobian: (math.nan, math.nan, np.full((2, 2), math.nan)))
        with pytest.raises(InversionError):
            rj_target(6000.0, 6.0e9, 5.9e9, 300e6)

    def test_step_cap_is_an_inversion_error(self, monkeypatch):
        # f_q - 6 GHz ~ sign(d) sqrt|d| in d = log(E_J / 16 GHz): Newton
        # jumps between d and -d and never converges
        def spectrum(e_j, e_c, cutoff, jacobian):
            d = math.log(e_j / 16e9)
            jac = [[1e9 / (2.0 * math.sqrt(abs(d))), 0.0], [0.0, -e_c]]
            return 6.0e9 + math.copysign(1e9 * math.sqrt(abs(d)), d), -e_c, np.array(jac)

        monkeypatch.setattr(transmon, "transmon_spectrum", spectrum)
        with pytest.raises(InversionError, match="no convergence"):
            rj_target(6000.0, 6.0e9, 5.9e9, 300e6)


# any float, with plausible magnitudes mixed in so that draws reach the solver
ANY_FLOAT = st.one_of(st.floats(), st.floats(1e2, 1e11))


class TestEntryPointsOnAnyFloat:
    @pytest.mark.parametrize("call, arity", [
        (invert_spectroscopy, 2), (rj_target, 4), (predict_fq, 4),
    ])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_returns_finite_values_or_refuses(self, call, arity, data):
        args = data.draw(st.tuples(*[ANY_FLOAT] * arity))
        try:
            out = call(*args)
        except ResotrimError:
            return
        assert np.all(np.isfinite(out)), (args, out)

    @pytest.mark.parametrize("call, args, error", [
        (rj_target, (math.inf, 6e9, 5e9, 3e8), DomainError),
        (rj_target, (math.nan, 6e9, 5e9, 3e8), DomainError),
        (predict_fq, (1.0, 1.0, 1.0, 5e304), DomainError),  # the Hamiltonian overflows
        (invert_spectroscopy, (math.inf, -3e8), DomainError),
        (rj_target, (6000.0, 1e300, 5e9, 3e8), InversionError),  # the seed E_J overflows
        (invert_spectroscopy, (1e300, -3e8), InversionError),
    ])
    def test_refuses_non_finite_input_and_overflow(self, call, args, error):
        with pytest.raises(error):
            call(*args)


class TestTransmonRecord:
    def test_rejects_low_ratio(self):
        with pytest.raises(DomainError):
            TransmonEntry(id="q0", f_q=6e9, alpha=-0.3e9, e_j=1e9, e_c=0.3e9, r_j=6e3)

    def test_valid_record(self):
        rec = TransmonEntry(id="q0", f_q=6e9, alpha=-0.3e9, e_j=16e9, e_c=0.3e9, r_j=6e3)
        assert rec.e_j / rec.e_c > 20


class TestAnnealLoop:
    def test_single_exposure_success(self):
        config = AnnealConfig(
            r_start=6000.0, r_target=6060.0, exposure_threshold=100.0,
            power_schedule=[0.17],
        )
        response = LogAnnealResponse({0.17: (0.1, 0.1)})
        trace = anneal_closed_loop(config, response)
        assert trace.status == "success"
        assert len(trace.history) == 1

    def test_target_already_reached(self):
        config = AnnealConfig(
            r_start=6000.0, r_target=6000.1, exposure_threshold=100.0,
            power_schedule=[0.17],
        )

        class Null:
            def expose(self, power, dt):
                return 1.0

        # a hair above start still requires one exposure; exactly at or
        # below start would return immediately
        trace = anneal_closed_loop(config, LogAnnealResponse({0.17: (0.1, 0.1)}))
        assert trace.status == "success"

    def test_power_escalation_on_saturation(self):
        # P1 saturates well below target; P2 reaches it: the trace must
        # show exposures at both powers, in order
        config = AnnealConfig(
            r_start=6000.0, r_target=6120.0, exposure_threshold=3600.0,
            power_schedule=[0.17, 0.2],
        )
        response = LogAnnealResponse({0.17: (0.001, 1.0), 0.2: (0.02, 1.0)})
        trace = anneal_closed_loop(config, response)
        assert trace.status == "success"
        powers = [p for p, _, _ in trace.history]
        assert 0.17 in powers and 0.2 in powers
        assert powers.index(0.2) > powers.index(0.17)
        rs = trace.resistances()
        assert all(b >= a for a, b in zip(rs, rs[1:]))
        assert trace.model_violations == 0

    def test_schedule_exhaustion(self):
        config = AnnealConfig(
            r_start=6000.0, r_target=7200.0, exposure_threshold=10.0,
            power_schedule=[0.17, 0.2],
        )
        response = LogAnnealResponse({0.17: (0.0001, 1.0), 0.2: (0.0002, 1.0)})
        trace = anneal_closed_loop(config, response)
        assert trace.status == "power-exhausted"

    def test_non_monotone_observation_flagged(self):
        config = AnnealConfig(
            r_start=6000.0, r_target=6300.0, exposure_threshold=1e5,
            power_schedule=[0.17],
            max_cycles_per_power=10,
        )

        class Glitchy:
            """Response that dips once, violating monotonicity."""

            def __init__(self):
                self.calls = 0
                self.ratio = 1.0

            def expose(self, power, dt):
                self.calls += 1
                if self.calls == 3:
                    return self.ratio - 0.005
                self.ratio += 0.02
                return self.ratio

        trace = anneal_closed_loop(config, Glitchy())
        assert trace.model_violations == 1
        rs = trace.resistances()
        assert all(b >= a for a, b in zip(rs, rs[1:]))

    @pytest.mark.parametrize("r_start, r_target", [
        (-5.0, 6060.0), (0.0, 6060.0), (math.nan, 6060.0), (6000.0, math.nan),
        (6000.0, math.inf), (-math.inf, 6060.0),
    ])
    def test_config_refuses_impossible_resistances(self, r_start, r_target):
        with pytest.raises(DomainError, match="positive and finite"):
            AnnealConfig(r_start=r_start, r_target=r_target, exposure_threshold=100.0,
                         power_schedule=[0.17])

    def test_config_validation(self):
        with pytest.raises(DomainError):
            AnnealConfig(r_start=6000.0, r_target=5000.0,
                         exposure_threshold=1.0, power_schedule=[0.17])
        with pytest.raises(DomainError):
            AnnealConfig(r_start=6000.0, r_target=7000.0,
                         exposure_threshold=1.0, power_schedule=[])
