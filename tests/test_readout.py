"""Readout benchmark estimator tests against Gaussian-overlap oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from resotrim.errors import (
    DomainError,
    EstimationError,
    UndefinedConditionalError,
)
from resotrim import readout
from resotrim.pairmodel import kappa_eff_pair
from resotrim.readout import (
    SCAN_BINS,
    BlobModel,
    ReadoutBenchmarks,
    ShotSet,
    assignment_fidelity,
    depletion_time,
    pqnd,
    _scan,
    synth_shots,
)


class TestSynthShots:
    def test_deterministic_per_seed(self):
        model = BlobModel(mean0=(0.0, 0.0), mean1=(4.0, 0.0), sigma=1.0)
        a = synth_shots(model, 500, seed=3)
        b = synth_shots(model, 500, seed=3)
        assert np.array_equal(a.i, b.i) and np.array_equal(a.q, b.q)

    def test_negative_seed_is_a_domain_error(self):
        model = BlobModel(mean0=(0.0, 0.0), mean1=(4.0, 0.0), sigma=1.0)
        with pytest.raises(DomainError, match="seed"):
            synth_shots(model, 10, seed=-1)

    def test_no_shots_is_a_domain_error(self):
        model = BlobModel(mean0=(0.0, 0.0), mean1=(4.0, 0.0), sigma=1.0)
        with pytest.raises(DomainError, match="n_per_state must be at least 1"):
            synth_shots(model, 0, 1)

    def test_integer_means_keep_a_fractional_leakage_blob(self):
        model = BlobModel(mean0=(0, 0), mean1=(4, 0), sigma=1e-9, leak_prob=0.5, mean2=(2.5, 1.5))
        shots = synth_shots(model, 200, seed=1)
        assert shots.leaked.any()
        assert np.allclose(shots.i[shots.leaked], 2.5) and np.allclose(shots.q[shots.leaked], 1.5)

    def test_tiny_sigma_pins_shots_to_means(self):
        model = BlobModel(mean0=(0.0, 0.0), mean1=(4.0, 1.0), sigma=1e-12)
        shots = synth_shots(model, 100, seed=0)
        assert np.allclose(shots.i[shots.labels == 0], 0.0, atol=1e-9)
        assert np.allclose(shots.i[shots.labels == 1], 4.0, atol=1e-9)

    def test_leakage_populates_third_blob(self):
        model = BlobModel(
            mean0=(0.0, 0.0), mean1=(4.0, 0.0), sigma=0.01,
            leak_prob=0.3, mean2=(0.0, 4.0),
        )
        shots = synth_shots(model, 2000, seed=1)
        frac = shots.leaked.mean() * 2  # leakage only applies to |1> half
        assert frac == pytest.approx(0.3, abs=0.03)
        assert np.all(shots.q[shots.leaked] > 3.5)

    def test_misassignment_matches_overlap(self):
        # d = 4 sigma: per-state misassignment Phi(-2) at the midpoint
        model = BlobModel(mean0=(0.0, 0.0), mean1=(4.0, 0.0), sigma=1.0)
        shots = synth_shots(model, 1_000_000, seed=7)
        wrong0 = np.mean(shots.i[shots.labels == 0] > 2.0)
        p = norm.cdf(-2.0)
        se = math.sqrt(p * (1 - p) / 1_000_000)
        assert abs(wrong0 - p) < 3 * se

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_sigma_must_be_positive_and_finite(self, sigma):
        with pytest.raises(DomainError, match="sigma"):
            BlobModel(mean0=(0, 0), mean1=(1, 0), sigma=sigma)

    def test_model_validation(self):
        with pytest.raises(DomainError):
            BlobModel(mean0=(0, 0), mean1=(1, 0), sigma=0.0)
        with pytest.raises(DomainError):
            BlobModel(mean0=(0, 0), mean1=(1, 0), sigma=1.0, leak_prob=0.1)


class TestAssignmentFidelity:
    def test_disjoint_blobs(self):
        model = BlobModel(mean0=(0.0, 0.0), mean1=(100.0, 0.0), sigma=1.0)
        bench = assignment_fidelity(synth_shots(model, 2000, seed=0))
        assert bench.f_ro == 1.0
        assert bench.eps_ro == 0.0

    def test_identical_distributions_chance_level(self):
        model = BlobModel(mean0=(1.0, 1.0), mean1=(1.0, 1.0), sigma=1.0)
        bench = assignment_fidelity(synth_shots(model, 100_000, seed=2))
        assert abs(bench.f_ro - 0.5) < 0.01

    def test_matches_analytic_overlap(self):
        model = BlobModel(mean0=(0.0, 0.0), mean1=(4.0, 0.0), sigma=1.0)
        bench = assignment_fidelity(synth_shots(model, 1_000_000, seed=5))
        want = 1.0 - norm.cdf(-2.0)
        assert abs(bench.f_ro - want) / want < 0.002

    def test_eps_complements_f(self):
        model = BlobModel(mean0=(0.0, 0.0), mean1=(3.0, 1.0), sigma=1.0)
        bench = assignment_fidelity(synth_shots(model, 10_000, seed=9))
        assert bench.eps_ro == pytest.approx(1.0 - bench.f_ro, abs=1e-12)

    def test_invariant_under_plane_isometries(self):
        model = BlobModel(mean0=(0.0, 0.0), mean1=(4.0, 0.0), sigma=1.0)
        shots = synth_shots(model, 20_000, seed=4)
        base = assignment_fidelity(shots).f_ro
        theta = 0.7
        c, s = math.cos(theta), math.sin(theta)
        for scale, (dx, dy) in ((1.0, (5.0, -3.0)), (2.5, (0.0, 0.0))):
            i2 = scale * (c * shots.i - s * shots.q) + dx
            q2 = scale * (s * shots.i + c * shots.q) + dy
            moved = ShotSet(i=i2, q=q2, labels=shots.labels)
            assert assignment_fidelity(moved).f_ro == pytest.approx(base, abs=1e-12)

    def test_monotone_in_separation(self):
        prev = 0.0
        for d in (0.5, 1.5, 2.5, 3.5, 4.5):
            model = BlobModel(mean0=(0.0, 0.0), mean1=(d, 0.0), sigma=1.0)
            f = assignment_fidelity(synth_shots(model, 100_000, seed=8)).f_ro
            se = 3.0 / math.sqrt(100_000)
            assert f > prev - se
            prev = f

    def test_single_label_rejected(self):
        shots = ShotSet(i=np.zeros(10), q=np.zeros(10), labels=np.zeros(10, int))
        with pytest.raises(EstimationError):
            assignment_fidelity(shots)

    @pytest.mark.parametrize("i, q, labels, match", [
        # the label-1 sum overflows, so its mean is inf
        ([0.0, 1e308, 1.7e308], [0.0, 0.0, 0.0], [0, 1, 1], "means"),
        # finite means 3.4e308 apart: the axis between them overflows
        ([-1.7e308, 1.7e308], [0.0, 0.0], [0, 1], "axis"),
        # means (0, 0) and (1, 1); the diagonal axis takes (1.7e308, 1.7e308) to 2.4e308
        ([0.0, 1.7e308, -1.7e308, 3.0], [0.0, 1.7e308, -1.7e308, 3.0], [0, 1, 1, 1],
         "projection"),
    ], ids=["mean", "axis", "projection"])
    def test_refuses_shots_it_cannot_project(self, i, q, labels, match):
        with pytest.raises(EstimationError, match=match):
            assignment_fidelity(ShotSet(i=i, q=q, labels=labels))

    @pytest.mark.parametrize("labels", [[0, 0, 1, 1], [0, 1, 0, 1]])
    def test_split_between_equal_projections_is_no_threshold(self, labels):
        # the two middle shots project to 1.0 with different labels: no
        # threshold separates them, so at best 3 of 4 shots are assigned right
        shots = ShotSet(i=[0.0, 1.0, 1.0, 2.0], q=np.zeros(4), labels=labels)
        bench = assignment_fidelity(shots)
        assert bench.f_ro == 0.75
        assert bench.threshold in (0.5, 1.5)

    @given(st.data())
    def test_tie_free_shots_match_one_stable_argsort(self, data):
        n = data.draw(st.integers(2, 40))
        coord = st.floats(-1e3, 1e3, allow_nan=False)
        i = data.draw(st.lists(coord, min_size=n, max_size=n, unique=True))
        q = data.draw(st.lists(coord, min_size=n, max_size=n, unique=True))
        labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)
                           .filter(lambda ls: 0 < sum(ls) < n))
        shots = ShotSet(i=i, q=q, labels=labels)
        want = _one_stable_argsort_scan(shots)
        x = np.column_stack([shots.i, shots.q]) @ np.array(want.axis)
        assume(not np.isin(x[shots.labels == 0], x[shots.labels == 1]).any())
        assert assignment_fidelity(shots) == want

    @given(st.data())
    def test_tied_shots_score_the_best_threshold_in_any_order(self, data):
        n = data.draw(st.integers(2, 30))
        coord = st.integers(-2, 2)
        i = data.draw(st.lists(coord, min_size=n, max_size=n))
        q = data.draw(st.lists(coord, min_size=n, max_size=n))
        labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)
                           .filter(lambda ls: 0 < sum(ls) < n))
        shots = ShotSet(i=i, q=q, labels=labels)
        bench = assignment_fidelity(shots)
        perm = np.array(data.draw(st.permutations(range(n))))
        moved = ShotSet(i=shots.i[perm], q=shots.q[perm], labels=shots.labels[perm])
        assert assignment_fidelity(moved) == bench
        # brute force: assign 0 at or below each distinct projection, and
        # below all shots
        x = np.column_stack([shots.i, shots.q]) @ np.array(bench.axis)
        x0, x1 = x[shots.labels == 0], x[shots.labels == 1]
        scores = [(x0 <= v).mean() + (x1 > v).mean() for v in np.unique(x)] + [1.0]
        assert bench.f_ro == pytest.approx(max(scores) / 2.0, abs=1e-12)

    @given(st.data())
    def test_same_result_for_every_layout_of_i_and_q(self, data):
        n = data.draw(st.integers(2, 50))
        coord = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3))
        pts = np.array(data.draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
        labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)
                           .filter(lambda ls: 0 < sum(ls) < n))
        wide = np.zeros((n, 3))
        wide[:, 1:] = pts
        fortran = np.asfortranarray(pts)
        layouts = [
            (pts[:, 0], pts[:, 1]),  # the columns of one (n, 2) array: projected in place
            (pts[:, 0].copy(), pts[:, 1].copy()),
            (wide[:, 1], wide[:, 2]),
            (fortran[:, 0], fortran[:, 1]),
        ]
        assert readout._points(*layouts[0]) is pts
        want = assignment_fidelity(ShotSet(*layouts[1], labels=labels))
        # the label means add their shots in shot order, one after another
        means = np.array([[_sum_in_order(pts[np.array(labels) == k, c]) / labels.count(k)
                           for c in (0, 1)] for k in (0, 1)])
        axis = means[1] - means[0]
        if np.linalg.norm(axis) > 0:
            assert want.axis == tuple(axis / np.linalg.norm(axis))
        for i, q in layouts:
            assert assignment_fidelity(ShotSet(i=i, q=q, labels=labels)) == want
        # the two columns of one array, but q first: not the array itself
        swapped = np.ascontiguousarray(pts[:, ::-1])
        assert assignment_fidelity(ShotSet(i=swapped[:, 1], q=swapped[:, 0], labels=labels)) == want

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_windowed_scan_matches_a_full_sort(self, data):
        n = data.draw(st.integers(1, 60))
        x = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), float)
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)
                                    .filter(lambda ls: 0 < sum(ls) < n)))
        n0 = int((labels == 0).sum())
        want = _full_sort_scan(x, labels)
        for bins in (1, 2, 3, 7):
            assert _scan(x, labels, n0, bins) == want

    @pytest.mark.parametrize("bins", [1, 2, 3, 7, SCAN_BINS])
    def test_no_threshold_above_every_shot(self, bins):
        # the splits below and above every shot both score 1.0, and the
        # first best split wins, so the threshold above every shot never does
        x, labels = np.array([0.0, 1.0, 1.0, 2.0]), np.array([1, 0, 1, 0])
        assert _full_sort_scan(x, labels) == (1.0, -1.0)
        assert _scan(x, labels, 2, bins) == (1.0, -1.0)


def _sum_in_order(values):
    total = 0.0
    for v in values:
        total += v
    return total


def _full_sort_scan(x, labels):
    """(score, threshold) of the first best split, from one stable sort of
    every projection, label 0 first among equal ones."""
    n0 = int((labels == 0).sum())
    n1 = len(x) - n0
    order = np.lexsort((labels, x))
    xs = x[order]
    cum0 = np.concatenate([[0], np.cumsum(labels[order] == 0)])
    cum1 = np.arange(len(x) + 1) - cum0
    correct = cum0 / n0 + (n1 - cum1) / n1
    correct[1:-1][xs[1:] == xs[:-1]] = -np.inf
    k = int(np.argmax(correct))
    if k == 0:
        return correct[k], xs[0] - 1.0
    if k == len(x):
        return correct[k], xs[-1] + 1.0
    return correct[k], 0.5 * (xs[k - 1] + xs[k])


def _one_stable_argsort_scan(shots):
    """The threshold scan as one stable argsort over all projections, with
    every split scored, ties included."""
    labels = shots.labels
    pts = np.column_stack([shots.i, shots.q])
    axis = pts[labels == 1].mean(axis=0) - pts[labels == 0].mean(axis=0)
    norm_ = np.linalg.norm(axis)
    axis = np.array([1.0, 0.0]) if norm_ == 0 else axis / norm_
    x = pts @ axis
    order = np.argsort(x, kind="stable")
    xs, ls = x[order], labels[order]
    n0, n1 = int((labels == 0).sum()), int((labels == 1).sum())
    cum0 = np.concatenate([[0], np.cumsum(ls == 0)])
    cum1 = np.concatenate([[0], np.cumsum(ls == 1)])
    correct = cum0 / n0 + (n1 - cum1) / n1
    k = int(np.argmax(correct))
    f_ro = float(correct[k] / 2.0)
    if k == 0:
        threshold = xs[0] - 1.0
    elif k == len(xs):
        threshold = xs[-1] + 1.0
    else:
        threshold = 0.5 * (xs[k - 1] + xs[k])
    return ReadoutBenchmarks(f_ro=f_ro, eps_ro=1.0 - f_ro, threshold=float(threshold),
                             axis=(float(axis[0]), float(axis[1])))


class TestShotSet:
    @pytest.mark.parametrize("field, value, match", [
        ("i", math.nan, "finite"),
        ("q", math.inf, "finite"),
        ("i", -math.inf, "finite"),
        ("labels", 2, "0 or 1"),
        ("labels", -1, "0 or 1"),
        ("labels", 0.7, "0 or 1"),
        ("labels", math.nan, "0 or 1"),
    ])
    def test_refuses_shots_it_cannot_score(self, field, value, match):
        fields = {"i": [0.0, 1.0, 2.0], "q": [0.0, 0.0, 0.0], "labels": [0, 1, 1]}
        fields[field] = fields[field][:2] + [value]
        with pytest.raises(DomainError, match=f"{match}.*shot 2"):
            ShotSet(**fields)

    def test_refuses_non_numeric_labels(self):
        with pytest.raises(DomainError, match="0 or 1"):
            ShotSet(i=[0.0, 1.0], q=[0.0, 0.0], labels=["0", "1"])

    def test_refuses_unequal_lengths(self):
        with pytest.raises(DomainError, match="equal lengths"):
            ShotSet(i=[0.0, 1.0], q=[0.0], labels=[0, 1])

    def test_refuses_scalars(self):
        with pytest.raises(DomainError, match="one-dimensional"):
            ShotSet(i=0.0, q=0.0, labels=0)

    def test_integral_float_and_bool_labels_become_ints(self):
        shots = ShotSet(i=[0.0, 1.0], q=[0.0, 0.0], labels=np.array([False, True]))
        assert shots.labels.dtype.kind == "i" and list(shots.labels) == [0, 1]
        assert list(ShotSet(i=[0.0, 1.0], q=[0.0, 0.0], labels=[1.0, 0.0]).labels) == [1, 0]


class TestPqnd:
    def test_perfect_pi_pulse(self):
        m1 = np.array([0, 1, 0, 1, 1, 0])
        assert pqnd(m1, 1 - m1) == 1.0

    def test_fully_non_qnd(self):
        m1 = np.array([0, 1, 0, 1, 1, 0])
        assert pqnd(m1, m1) == 0.0

    def test_symmetric_under_relabeling(self):
        rng = np.random.default_rng(0)
        m1 = rng.integers(0, 2, 1000)
        m2 = rng.integers(0, 2, 1000)
        assert pqnd(m1, m2) == pytest.approx(pqnd(1 - m1, 1 - m2))

    def test_programmed_violation_recovered(self):
        # ideal sequence with 5% of second outcomes flipped
        rng = np.random.default_rng(31)
        n = 100_000
        m1 = rng.integers(0, 2, n)
        m2 = 1 - m1
        flip = rng.random(n) < 0.05
        m2[flip] = 1 - m2[flip]
        se = math.sqrt(0.05 * 0.95 / n)
        assert abs(pqnd(m1, m2) - 0.95) < 3 * se

    def test_empty_condition_named(self):
        with pytest.raises(UndefinedConditionalError) as exc:
            pqnd(np.array([0, 0]), np.array([0, 0]))
        assert exc.value.condition == "m2=1"

    def test_no_m2_zero_shots_named(self):
        with pytest.raises(UndefinedConditionalError, match="m2=0") as exc:
            pqnd(np.array([0, 1]), np.array([1, 1]))
        assert exc.value.condition == "m2=0"

    @pytest.mark.parametrize("m1, m2", [
        ([0, 1], [1]), ([[0, 1]], [[1, 0]]), ([], []), (0, 1),
    ], ids=["unequal", "two-dimensional", "empty", "scalar"])
    def test_refuses_shapes_it_cannot_count(self, m1, m2):
        with pytest.raises(DomainError, match="equal-length non-empty"):
            pqnd(m1, m2)


class TestDepletionTime:
    def test_already_depleted(self):
        assert depletion_time(1e6, 1.0) == 0.0
        assert depletion_time(1e6, 0.5) == 0.0

    def test_single_time_constant(self):
        assert depletion_time(1e6, math.e) == pytest.approx(1.0 / (2 * math.pi * 1e6))

    def test_mismatch_degrades_depletion(self):
        # pre-trim mismatched pair vs post-trim matched pair: the R-like
        # linewidth collapses with detuning and depletion slows in step
        j, kappa = 10e6, 20e6
        keff_pre, _ = kappa_eff_pair(j, kappa, 80e6)
        keff_post, _ = kappa_eff_pair(j, kappa, 0.0)
        ratio = depletion_time(keff_pre, 100.0) / depletion_time(keff_post, 100.0)
        assert ratio == pytest.approx(keff_post / keff_pre, rel=1e-9)
        assert ratio > 3.0

    def test_rejects_nonpositive_linewidth(self):
        with pytest.raises(DomainError):
            depletion_time(0.0, 10.0)
