"""Trim-planner tests: shift arithmetic, matching, crowding, two-cycle loop."""

import copy
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resotrim.errors import DomainError, ResotrimError, UnderdeterminedError
from resotrim import pairmodel
from resotrim.pairmodel import PairParams
from resotrim.planner import (
    DEFAULT_PITCH,
    NAIVE_SLOPE,
    PairEntry,
    ResonatorRecord,
    ShoelaceArray,
    TrimAction,
    TrimPlan,
    apply_plan,
    eq2_shift_fn,
    fit_nu_rho,
    freq_shift,
    linear_shift_fn,
    plan_crowding,
    plan_match_all,
    plan_pair_match,
    simulate_outcomes,
    two_cycle_protocol,
    velocity_samples,
    _action,
    _crowding_objective,
    _exhaustive,
    _pair_candidates,
)

NU_RHO = 1.076e8  # m/s, fitted phase velocity


def record(rid, role, f, remaining=10):
    return ResonatorRecord(
        id=rid, role=role, f_meas=f,
        shoelaces=ShoelaceArray(total=10, remaining=remaining),
    )


class TestFreqShift:
    def test_zero_length(self):
        assert freq_shift(7.5e9, NU_RHO, 0.0) == 0.0

    def test_one_shoelace_at_7p5_ghz(self):
        # -4 f0^2 dl / nu_rho at the paper's fitted velocity
        assert freq_shift(7.5e9, NU_RHO, 5e-6) == pytest.approx(-10.456e6, abs=1e3)

    def test_naive_slope_consistency(self):
        # per-um slope near 7.33 GHz matches the -2 MHz/um rule of thumb
        slope = freq_shift(7.33e9, NU_RHO, 1e-6) / 1e-6
        assert slope == pytest.approx(NAIVE_SLOPE, rel=0.02)

    def test_rejects_negative_length(self):
        with pytest.raises(DomainError):
            freq_shift(7.5e9, NU_RHO, -1e-6)

    def test_rejects_nonpositive_velocity(self):
        with pytest.raises(DomainError):
            freq_shift(7.5e9, 0.0, 1e-6)

    def test_linear_shift_fn(self):
        fn = linear_shift_fn()
        assert fn(7.5e9, 5e-6) == pytest.approx(-10e6)
        with pytest.raises(DomainError):
            linear_shift_fn(2e12)


def pair_count(f_low, f_high, remaining=10, pitch=DEFAULT_PITCH, model=None):
    """Shoelaces plan_pair_match removes from a Purcell resonator at f_high
    to bring it closest to a readout resonator at f_low."""
    high = ResonatorRecord(id="h", role="purcell", f_meas=f_high,
                           shoelaces=ShoelaceArray(total=remaining, remaining=remaining,
                                                   pitch=pitch))
    action = plan_pair_match(record("l", "readout", f_low), high, NU_RHO, model)
    assert action.resonator_id == "h"
    return action.n_remove


class TestShiftToCount:
    """The one count rule: the gap of a pair to the closest count in the budget."""

    def test_zero_target(self):
        assert pair_count(7.5e9, 7.5e9) == 0

    def test_two_shoelaces_for_21_mhz(self):
        n = pair_count(7.479e9, 7.5e9)
        assert n == 2
        # exhaustive oracle over the whole range
        errs = [abs(freq_shift(7.5e9, NU_RHO, k * DEFAULT_PITCH) + 21e6) for k in range(11)]
        assert n == int(np.argmin(errs))

    def test_exhaustive_agreement_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            f_low = 7.5e9 - rng.uniform(0, 100e6)
            n = pair_count(f_low, 7.5e9)
            errs = [
                abs(7.5e9 + freq_shift(7.5e9, NU_RHO, k * DEFAULT_PITCH) - f_low)
                for k in range(11)
            ]
            assert errs[n] == pytest.approx(min(errs), abs=1e-6)

    @settings(max_examples=500, deadline=None)
    @given(
        f0=st.floats(4e9, 9e9),
        model=st.one_of(st.floats(3e7, 3e8).map(eq2_shift_fn),
                        st.floats(-1e13, -1e5).map(linear_shift_fn)),
        pitch=st.floats(1e-7, 2e-5),
        remaining=st.integers(0, 60),
        steps=st.one_of(st.integers(0, 130).map(lambda k: k / 2),  # exact half-quantum ties
                        st.floats(0.0, 65.0)),
    )
    def test_matches_the_full_count_scan(self, f0, model, pitch, remaining, steps):
        # a gap beyond the budget, or any gap with no budget, clamps to the budget
        def full_scan(landing, target):
            best_n, best_err = 0, abs(landing(0) - target)
            tol = 1e-12 * max(1.0, best_err)
            for n in range(1, remaining + 1):
                err = abs(landing(n) - target)
                if err < best_err - tol:
                    best_n, best_err = n, err
            return best_n

        quantum = abs(model(f0, pitch))
        assume(quantum >= 1.0)
        f_high = f0 + steps * quantum
        assert pair_count(f0, f_high, remaining, pitch, model) == full_scan(
            lambda n: f_high + model(f_high, n * pitch), f0)


class TestPlanPairMatch:
    def test_already_matched(self):
        r = record("r1", "readout", 7.5e9)
        p = record("p1", "purcell", 7.5e9)
        assert plan_pair_match(r, p, NU_RHO).n_remove == 0

    def test_trims_purcell_when_higher(self):
        r = record("r1", "readout", 7.5e9)
        p = record("p1", "purcell", 7.521e9)
        a = plan_pair_match(r, p, NU_RHO)
        assert a.resonator_id == "p1"
        assert a.n_remove == 2
        assert abs(a.predicted_f - r.f_meas) < 5e6

    def test_trims_readout_when_higher(self):
        r = record("r1", "readout", 7.521e9)
        p = record("p1", "purcell", 7.5e9)
        a = plan_pair_match(r, p, NU_RHO)
        assert a.resonator_id == "r1"
        assert a.n_remove == 2

    def test_unmatchable_without_shoelaces(self):
        r = record("r1", "readout", 7.5e9)
        p = record("p1", "purcell", 7.53e9, remaining=0)
        a = plan_pair_match(r, p, NU_RHO)
        assert (a.resonator_id, a.n_remove, a.predicted_f) == ("p1", 0, 7.53e9)

    def test_requires_velocity_or_shift_fn(self):
        r, p = record("r1", "readout", 7.5e9), record("p1", "purcell", 7.53e9)
        for plan in (lambda: plan_pair_match(r, p, None),
                     lambda: plan_match_all([(r, p)], None, None, 1)):
            with pytest.raises(DomainError, match="provide nu_rho or shift_fn"):
                plan()

    def test_role_check(self):
        r = record("r1", "readout", 7.5e9)
        with pytest.raises(DomainError):
            plan_pair_match(r, r, NU_RHO)


def crowding_entries(freqs, j=10e6, kappa=2e6):
    """Build PairEntry fixtures from (f_r, f_p) tuples."""
    entries = []
    for k, (fr, fp) in enumerate(freqs):
        entries.append(
            PairEntry(
                pair_id=f"pair{k}",
                params=PairParams(f_r=fr, f_p=fp, j=j, kappa=kappa),
                readout=record(f"r{k}", "readout", fr),
                purcell=record(f"p{k}", "purcell", fp),
            )
        )
    return entries


class TestPlanCrowding:
    def test_spaced_and_matched_pairs_need_nothing(self):
        entries = crowding_entries([(7.3e9, 7.3e9), (7.5e9, 7.5e9), (7.7e9, 7.7e9)])
        plan = plan_crowding(entries, guard_band=20e6, nu_rho=NU_RHO)
        assert plan.actions == []
        assert plan.feasible

    def test_single_pair_reduces_to_matching(self):
        entries = crowding_entries([(7.5e9, 7.521e9)])
        plan = plan_crowding(entries, guard_band=20e6, nu_rho=NU_RHO)
        direct = plan_pair_match(entries[0].readout, entries[0].purcell, NU_RHO)
        assert len(plan.actions) == 1
        assert plan.actions[0] == direct

    def test_three_pair_scenario_reaches_guard_band(self):
        # two hybridized modes of different pairs only 5 MHz apart
        entries = crowding_entries(
            [(7.30e9, 7.30e9), (7.325e9, 7.325e9), (7.60e9, 7.60e9)]
        )
        plan = plan_crowding(entries, guard_band=20e6, nu_rho=NU_RHO)
        assert plan.feasible
        assert plan.objective_after >= 20e6

    def test_matches_exhaustive_optimum(self):
        from resotrim.planner import (
            _crowding_objective,
            _pair_candidates,
        )

        entries = crowding_entries(
            [(7.30e9, 7.30e9), (7.325e9, 7.325e9), (7.60e9, 7.60e9)]
        )
        shift = eq2_shift_fn(NU_RHO)
        candidates = [_pair_candidates(e, NU_RHO, shift) for e in entries]
        best = None
        for combo in itertools.product(*(range(len(c)) for c in candidates)):
            choice = [candidates[i][combo[i]] for i in range(len(entries))]
            score, _ = _crowding_objective(entries, choice, 20e6)
            if best is None or score < best:
                best = score
        plan = plan_crowding(entries, guard_band=20e6, nu_rho=NU_RHO)
        chosen = {(a.resonator_id, a.n_remove) for a in plan.actions}
        # re-score the planner's own output against the brute-force optimum
        removed = sum(n for _, n in chosen)
        assert plan.feasible == (best[0] == 0)
        assert removed == best[2]

    def test_infeasible_flagged(self):
        entries = crowding_entries(
            [(7.50e9, 7.50e9), (7.502e9, 7.502e9)],
        )
        for e in entries:
            e.readout.shoelaces.remaining = 0
            e.purcell.shoelaces.remaining = 0
        plan = plan_crowding(entries, guard_band=20e6, nu_rho=NU_RHO)
        assert not plan.feasible
        assert plan.notes

    def test_plans_around_an_unmatchable_pair(self):
        # p0 has no shoelaces left for its 30 MHz gap; its mismatch only counts
        entries = crowding_entries([(7.30e9, 7.33e9), (7.305e9, 7.305e9)])
        entries[0].purcell.shoelaces.remaining = 0
        plan = plan_crowding(entries, guard_band=20e6, nu_rho=NU_RHO)
        assert [(a.resonator_id, a.n_remove) for a in plan.actions] == [("r1", 4), ("p1", 4)]
        assert plan.feasible and plan.objective_after >= 20e6

    def test_requires_velocity_or_shift_fn(self):
        entries = crowding_entries([(7.5e9, 7.5e9)])
        with pytest.raises(DomainError):
            plan_crowding(entries)

    def test_candidates_stop_above_zero_hertz(self):
        # a 10^4-shoelace budget would reach below 0 Hz after about 700 extra removals
        from resotrim.planner import _pair_candidates

        (entry,) = crowding_entries([(7.5e9, 7.545e9)])
        for rec in (entry.readout, entry.purcell):
            rec.shoelaces = ShoelaceArray(total=10**4, remaining=10**4)
        candidates = _pair_candidates(entry, NU_RHO, eq2_shift_fn(NU_RHO))
        assert 100 < len(candidates) < 10**4
        assert all(a.predicted_f > 0 for pair in candidates for a in pair)
        deeper = [rec.f_meas + freq_shift(rec.f_meas, NU_RHO, (a.n_remove + 1) * DEFAULT_PITCH)
                  for rec, a in zip((entry.readout, entry.purcell), candidates[-1])]
        assert min(deeper) <= 0

    def test_search_path_survives_int64_overflow(self):
        # four pairs at 7.0-7.15 GHz with 10^5 shoelaces of 50 nm have these
        # counts; their product, 3.3e19, wraps below zero in int64
        counts = [76858, 76313, 75775, 75245]
        assert int(np.prod(counts)) < 0
        assert not _exhaustive(counts)
        assert _exhaustive([13, 13, 13, 13]) and not _exhaustive([2] * 5)


def reference_objective(entries, choice, guard_band):
    """The objective as scored per combination before the mode table."""
    modes = []
    mismatch = 0.0
    removed = 0
    for entry, (a_r, a_p) in zip(entries, choice):
        modes.append((cached_modes(entry.params.with_frequencies(a_r.predicted_f,
                                                                 a_p.predicted_f)),
                      entry.pair_id))
        mismatch += abs(a_p.predicted_f - a_r.predicted_f)
        removed += a_r.n_remove + a_p.n_remove
    violations = 0
    min_spacing = np.inf
    for (m1, _), (m2, _) in itertools.combinations(modes, 2):
        for fa in m1:
            for fb in m2:
                gap = abs(fa - fb)
                min_spacing = min(min_spacing, gap)
                if gap < guard_band:
                    violations += 1
    return (violations, mismatch, removed), min_spacing


@functools.lru_cache(maxsize=None)
def cached_modes(params):
    low, high = pairmodel.eigenmodes(params, "ground")
    return low.f_mode, high.f_mode


def reference_crowding(entries, guard_band, nu_rho):
    """plan_crowding as it searched before the mode table: every candidate
    combination re-scored from its actions. Returns (plan, chosen actions)."""
    shift_fn = eq2_shift_fn(nu_rho)
    if guard_band is None:
        guard_band = 3.0 * max(m.kappa_eff for e in entries
                               for m in pairmodel.eigenmodes(e.params, "ground"))
    candidates = [_pair_candidates(e, nu_rho, shift_fn) for e in entries]
    zero = [(_action(e.readout, 0, shift_fn), _action(e.purcell, 0, shift_fn))
            for e in entries]
    _, spacing_before = reference_objective(entries, zero, guard_band)

    def pick(ix):
        return [candidates[i][ix[i]] for i in range(len(entries))]

    if len(entries) <= 4 and math.prod(len(c) for c in candidates) <= 200_000:
        best_idx, best = None, None
        for combo in itertools.product(*(range(len(c)) for c in candidates)):
            score, _ = reference_objective(entries, pick(combo), guard_band)
            if best is None or score < best:
                best_idx, best = combo, score
    else:
        best_idx = [0] * len(entries)
        best = reference_objective(entries, pick(best_idx), guard_band)
        improved = True
        while improved:
            improved = False
            for i in range(len(entries)):
                for k in range(len(candidates[i])):
                    if k == best_idx[i]:
                        continue
                    trial = list(best_idx)
                    trial[i] = k
                    s = reference_objective(entries, pick(trial), guard_band)
                    if s < best:
                        best_idx, best = trial, s
                        improved = True
    choice = pick(best_idx)
    score, spacing_after = reference_objective(entries, choice, guard_band)
    plan = TrimPlan(
        actions=[a for pair in choice for a in pair if a.n_remove > 0],
        objective_before=float(spacing_before),
        objective_after=float(spacing_after),
        feasible=score[0] == 0,
    )
    if score[0] > 0:
        plan.notes.append(f"{score[0]} guard-band violations remain (best effort)")
    return plan, choice


@st.composite
def crowded_feedlines(draw):
    """2-6 pairs within 200 MHz, each resonator with a budget of 0-12 shoelaces."""
    entries = []
    for k in range(draw(st.integers(2, 6))):
        f_r = draw(st.floats(7.0e9, 7.2e9))
        f_p = f_r + draw(st.floats(-30e6, 30e6))
        budgets = [draw(st.integers(0, 12)) for _ in range(2)]
        entries.append(PairEntry(
            pair_id=f"pair{k}",
            params=PairParams(f_r=f_r, f_p=f_p, j=draw(st.floats(5e6, 15e6)),
                              kappa=draw(st.floats(1e6, 5e6))),
            readout=ResonatorRecord(f"r{k}", "readout", f_r, ShoelaceArray(12, budgets[0])),
            purcell=ResonatorRecord(f"p{k}", "purcell", f_p, ShoelaceArray(12, budgets[1])),
        ))
    return entries


def plan_or_error(plan, *args):
    try:
        return plan(*args)
    except ResotrimError as exc:
        return type(exc)


class TestCrowdingModeTable:
    """The mode table changes how often the modes are solved, never the plan."""

    @settings(max_examples=60, deadline=None)
    @given(entries=crowded_feedlines(),
           guard_band=st.one_of(st.none(), st.floats(0.0, 40e6)))
    def test_plans_match_the_per_combination_search(self, entries, guard_band):
        got = plan_or_error(plan_crowding, entries, guard_band, NU_RHO)
        want = plan_or_error(reference_crowding, entries, guard_band, NU_RHO)
        if isinstance(want, tuple):
            want, choice = want
            # the score, bit for bit, with its mismatches summed in pair order
            gb = 20e6 if guard_band is None else guard_band
            assert (_crowding_objective(entries, choice, gb)
                    == reference_objective(entries, choice, gb))
        assert got == want

    def test_mismatches_are_summed_in_pair_order(self):
        # at GHz every mismatch is a multiple of 2^-20 Hz and any order sums
        # exactly; here 1 + 2^-53 rounds to 1 twice, while 2^-53 + 2^-53 + 1
        # is 1 + 2^-52, so only the pair order gives 1.0
        entries = crowding_entries([(1.0, 2.0), (0.5, 0.5 + 2**-53), (0.5, 0.5 + 2**-53)])
        shift = eq2_shift_fn(NU_RHO)
        zero = [(_action(e.readout, 0, shift), _action(e.purcell, 0, shift)) for e in entries]
        (_, mismatch, _), _ = _crowding_objective(entries, zero, 20e6)
        assert mismatch == 1.0
        assert _crowding_objective(entries, zero, 20e6) == reference_objective(entries, zero, 20e6)

    @pytest.mark.parametrize("guard_band", [20e6, None], ids=["given", "default"])
    @pytest.mark.parametrize("n_pairs", [3, 6])
    def test_modes_are_solved_once_per_candidate(self, monkeypatch, n_pairs, guard_band):
        entries = crowding_entries([(7.3e9 + 15e6 * k, 7.3e9 + 15e6 * k + 4e6)
                                    for k in range(n_pairs)])
        shift = eq2_shift_fn(NU_RHO)
        n_candidates = sum(len(_pair_candidates(e, NU_RHO, shift)) for e in entries)
        calls = []
        solve = pairmodel.eigenmodes
        monkeypatch.setattr(pairmodel, "eigenmodes",
                            lambda *args: calls.append(args) or solve(*args))
        plan_crowding(entries, guard_band=guard_band, nu_rho=NU_RHO)
        # one per candidate and one per untrimmed pair, plus one per pair for
        # the default guard band
        assert len(calls) <= n_candidates + n_pairs * (1 if guard_band else 2)


class TestPlanMatchAll:
    def test_unmatchable_pair_makes_the_plan_infeasible(self):
        # ten shoelaces move p0 down by 100 MHz, half of its 200 MHz gap
        pairs = [(record("r0", "readout", 7.5e9), record("p0", "purcell", 7.7e9)),
                 (record("r1", "readout", 7.6e9), record("p1", "purcell", 7.62e9))]
        plan = plan_match_all(pairs, None, linear_shift_fn(), cycle_index=1)
        assert [(a.resonator_id, a.n_remove) for a in plan.actions] == [("p0", 10), ("p1", 2)]
        assert not plan.feasible
        (note,) = plan.notes
        assert note == "p0 cannot be matched to r0: predicted residual 1.000e+08 Hz"

    @pytest.mark.parametrize("nu_rho, shift_fn", [(None, linear_shift_fn()), (NU_RHO, None)],
                             ids=["naive", "fitted"])
    def test_matchable_pairs_stay_feasible(self, nu_rho, shift_fn):
        # 45 MHz is a tie at 4.5 naive quanta: the residual is half a quantum
        pairs = [(record("r0", "readout", 7.5e9), record("p0", "purcell", 7.545e9)),
                 (record("r1", "readout", 7.631e9), record("p1", "purcell", 7.6e9))]
        plan = plan_match_all(pairs, nu_rho, shift_fn, cycle_index=1)
        assert plan.feasible and plan.notes == []
        assert [a.resonator_id for a in plan.actions] == ["p0", "r1"]


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


class TestNonFiniteArguments:
    """Each entry point returns a finite value or raises a ResotrimError."""

    @settings(max_examples=500, deadline=None)
    @given(f0=ANY_FLOAT, nu_rho=ANY_FLOAT, delta_l=ANY_FLOAT, slope=ANY_FLOAT)
    def test_shift_predictors(self, f0, nu_rho, delta_l, slope):
        for shift in (lambda: freq_shift(f0, nu_rho, delta_l),
                      lambda: eq2_shift_fn(nu_rho)(f0, delta_l),
                      lambda: linear_shift_fn(slope)(7.5e9, DEFAULT_PITCH)):
            try:
                value = shift()
            except ResotrimError:
                continue
            assert math.isfinite(value) and value <= 0

    @settings(max_examples=200, deadline=None)
    @given(nu_rho=ANY_FLOAT)
    def test_simulated_outcomes_and_matching(self, nu_rho):
        r, p = record("r0", "readout", 7.5e9), record("p0", "purcell", 7.52e9)
        plan = plan_match_all([(r, p)], NU_RHO, None, cycle_index=1)
        try:
            outcome = simulate_outcomes([r, p], plan, nu_rho)
            assert all(math.isfinite(f) for f in outcome.values())
        except ResotrimError:
            pass
        for pairs in ([(r, p)], []):
            try:
                replanned = plan_match_all(pairs, nu_rho, None, cycle_index=1)
            except ResotrimError:
                continue
            assert 0 < nu_rho < math.inf
            assert math.isfinite(replanned.objective_before + replanned.objective_after)

    @settings(max_examples=100, deadline=None)
    @given(guard_band=ANY_FLOAT, nu_rho=st.one_of(st.just(NU_RHO), ANY_FLOAT))
    def test_crowding(self, guard_band, nu_rho):
        entries = crowding_entries([(7.5e9, 7.52e9), (7.51e9, 7.51e9)])
        try:
            plan = plan_crowding(entries, guard_band=guard_band, nu_rho=nu_rho)
        except ResotrimError:
            assert nu_rho != NU_RHO or not 0 <= guard_band < math.inf
            return
        assert 0 <= guard_band < math.inf
        assert math.isfinite(plan.objective_before) and math.isfinite(plan.objective_after)

    # finite shifts whose least-squares sums overflow imply no finite velocity
    @pytest.mark.parametrize("delta_f, error", [
        (math.nan, DomainError), (-math.inf, DomainError), (math.inf, DomainError),
        (-1.7e308, UnderdeterminedError)])
    def test_velocity_fit(self, delta_f, error):
        with pytest.raises(error):
            fit_nu_rho([(7.5e9, 5e-6, delta_f), (7.5e9, 5e-6, delta_f), (7.6e9, 5e-6, -10e6)])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    def test_resonator_frequency(self, value):
        with pytest.raises(DomainError, match="f_meas"):
            ResonatorRecord(id="r0", role="readout", f_meas=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    def test_shoelace_pitch(self, value):
        with pytest.raises(DomainError, match="pitch"):
            ShoelaceArray(pitch=value)


class TestFitNuRho:
    def test_exact_round_trip(self):
        rng = np.random.default_rng(7)
        samples = []
        for _ in range(20):
            f0 = rng.uniform(7.0e9, 8.0e9)
            dl = rng.integers(1, 10) * DEFAULT_PITCH
            samples.append((f0, dl, freq_shift(f0, NU_RHO, dl)))
        nu, resid = fit_nu_rho(samples)
        assert nu == pytest.approx(NU_RHO, rel=1e-6)
        assert resid < 1e-3

    def test_single_sample_interpolates_exactly(self):
        nu, resid = fit_nu_rho([(7.5e9, 5e-6, freq_shift(7.5e9, NU_RHO, 5e-6))])
        assert nu == pytest.approx(NU_RHO, rel=1e-12)
        assert resid == 0.0

    def test_noisy_recovery(self):
        # 5% multiplicative noise, 32 samples, 95th percentile within 2%
        errors = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            samples = []
            for _ in range(32):
                f0 = rng.uniform(7.0e9, 8.0e9)
                dl = 5 * DEFAULT_PITCH
                df = freq_shift(f0, NU_RHO, dl) * rng.normal(1.0, 0.05)
                samples.append((f0, dl, df))
            nu, _ = fit_nu_rho(samples)
            errors.append(abs(nu - NU_RHO) / NU_RHO)
        assert np.percentile(errors, 95) < 0.02

    def test_underdetermined_without_moves(self):
        with pytest.raises(UnderdeterminedError):
            fit_nu_rho([(7.5e9, 0.0, 0.0)])


def synthetic_device(n_pairs, seed, f_lo=7.6e9, f_hi=8.0e9):
    """Pairs with random mismatches; the readout sits below its Purcell."""
    rng = np.random.default_rng(seed)
    pairs = []
    for k in range(n_pairs):
        fr = rng.uniform(f_lo, f_hi)
        fp = fr + rng.uniform(5e6, 80e6)
        pairs.append(
            (record(f"r{k}", "readout", fr), record(f"p{k}", "purcell", fp))
        )
    return pairs


def run_two_cycles(pairs, nu_true):
    """Drive two_cycle_protocol with measurements simulated at nu_true."""
    cycle0 = {rec.id: rec.f_meas for pair in pairs for rec in pair}

    plan1 = plan_match_all(pairs, None, linear_shift_fn(), cycle_index=1)
    realized1 = simulate_outcomes(
        [rec for pair in pairs for rec in pair], plan1, nu_true
    )
    result = two_cycle_protocol(pairs, cycle0, realized1)
    realized2 = simulate_outcomes(
        [rec for pair in result.pairs_cycle1 for rec in pair], result.plan_cycle2, nu_true
    )
    return result, realized2


class TestTwoCycleProtocol:
    def test_cycle1_overshoots_above_crossover(self):
        # above ~7.33 GHz the true per-um slope exceeds 2 MHz/um, so the
        # naive plan removes too much
        pairs = synthetic_device(6, seed=1, f_lo=7.6e9, f_hi=8.0e9)
        result, _ = run_two_cycles(pairs, NU_RHO)
        for a in result.plan_cycle1.actions:
            realized = freq_shift(a.predicted_f - a.predicted_delta_f, NU_RHO, a.delta_l)
            assert abs(realized) > abs(a.predicted_delta_f)

    def test_exact_crossover_needs_no_second_cycle(self):
        # at f0 with 4 f0^2 / nu_rho = 2 MHz/um the naive slope is exact
        f0 = float(np.sqrt(-NAIVE_SLOPE * NU_RHO / 4.0))
        pairs = [(record("r0", "readout", f0), record("p0", "purcell", f0 + 21e6))]
        result, _ = run_two_cycles(pairs, NU_RHO)
        assert result.plan_cycle2.actions == []

    def test_recovers_velocity_and_closes_gaps(self):
        pairs = synthetic_device(17, seed=42)
        result, realized2 = run_two_cycles(pairs, NU_RHO)
        assert result.nu_rho == pytest.approx(NU_RHO, rel=0.02)
        gaps = [abs(realized2[p.id] - realized2[r.id]) for r, p in pairs]
        assert np.mean(gaps) <= 5e6
        assert max(gaps) <= 10e6

    def test_leaves_its_inputs_unchanged(self):
        pairs = synthetic_device(6, seed=3)
        records = [rec for pair in pairs for rec in pair]
        cycle0 = {rec.id: rec.f_meas - 1e6 for rec in records}
        realized1 = simulate_outcomes(records, plan_match_all(
            pairs, None, linear_shift_fn(), cycle_index=1), NU_RHO)
        before = copy.deepcopy((pairs, cycle0, realized1))
        result = two_cycle_protocol(pairs, cycle0, realized1)
        assert (pairs, cycle0, realized1) == before
        trimmed = {a.resonator_id: a.n_remove for a in result.plan_cycle1.actions}
        for rec, new in zip(records, [rec for pair in result.pairs_cycle1 for rec in pair]):
            assert new.f_meas == realized1[rec.id]
            assert new.shoelaces.remaining == rec.shoelaces.remaining - trimmed.get(rec.id, 0)


class TestApplyPlan:
    @settings(max_examples=300, deadline=None)
    @given(
        budgets=st.lists(st.integers(0, 10), min_size=1, max_size=4),
        planned=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 12)), max_size=6),
        realize=st.booleans(),
    )
    def test_never_mutates_and_keeps_budgets(self, budgets, planned, realize):
        # resonator index len(budgets) and above names no record
        records = [record(f"r{k}", "readout", 7.5e9 + 1e7 * k, remaining=b)
                   for k, b in enumerate(budgets)]
        actions = [TrimAction(f"r{k}", n, n * DEFAULT_PITCH, -1e6 * n, 7.5e9 - 1e6 * n)
                   for k, n in planned]
        plan = TrimPlan(actions=actions, objective_before=0.0, objective_after=0.0)
        realized = {rec.id: rec.f_meas - 3e6 for rec in records} if realize else None
        before = copy.deepcopy((records, plan, realized))
        removals = {}
        for a in actions:
            removals[a.resonator_id] = removals.get(a.resonator_id, 0) + a.n_remove
        budget = {rec.id: rec.shoelaces.remaining for rec in records}
        valid = all(rid in budget and n <= budget[rid] for rid, n in removals.items())
        try:
            new, trims = apply_plan(records, plan, realized)
        except ResotrimError:
            assert not valid
            assert (records, plan, realized) == before
            return
        assert valid
        assert (records, plan, realized) == before
        for rec in records:
            left = new[rec.id].shoelaces.remaining
            assert left == rec.shoelaces.remaining - removals.get(rec.id, 0) >= 0
        assert [t.resonator_id for t in trims] == [r.id for r in records if r.id in removals]

    def test_trims_carry_the_measured_frequency(self):
        r = record("r0", "readout", 7.5e9)
        p = record("p0", "purcell", 7.52e9)
        plan = plan_match_all([(r, p)], NU_RHO, None, cycle_index=1)
        (action,) = plan.actions
        new, (trim,) = apply_plan([r, p], plan, {"p0": 7.501e9})
        assert (trim.f_before, trim.delta_l, trim.f_after) == (7.52e9, action.delta_l, 7.501e9)
        assert trim.predicted_f == action.predicted_f
        assert new["p0"].f_meas == 7.501e9 and new["r0"].f_meas == 7.5e9
        _, (predicted,) = apply_plan([r, p], plan)
        assert predicted.f_after == action.predicted_f
        assert velocity_samples([trim], {"p0": 7.501e9}) == [
            (7.52e9, action.delta_l, 7.501e9 - 7.52e9)]
        with pytest.raises(UnderdeterminedError, match="p0"):
            velocity_samples([trim], {"r0": 7.5e9})
