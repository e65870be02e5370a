"""Synthetic single-shot readout generation and benchmark estimators."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EstimationError, UndefinedConditionalError
from .rules import FINITE, POSITIVE, check, number, or_null, pair_of, refuse

__all__ = [
    "BlobModel", "ShotSet", "ReadoutBenchmarks", "synth_shots", "assignment_fidelity", "pqnd",
    "depletion_time",
]

SCAN_BINS = 2048  # bins of the threshold scan; the result does not depend on the count

_IQ = pair_of(FINITE, FINITE, "a list [i, q]")


@dataclass(frozen=True)
class BlobModel:
    """Two Gaussian IQ blobs plus an optional leakage blob for |1> shots."""

    mean0: tuple
    mean1: tuple
    sigma: float
    leak_prob: float = 0.0
    mean2: tuple | None = None

    RULES = {"mean0": _IQ, "mean1": _IQ, "mean2": or_null(_IQ), "sigma": POSITIVE,
             "leak_prob": number(lambda v: 0 <= v <= 1, "a number in [0, 1]")}

    def __post_init__(self):
        check(self, DomainError)
        if self.leak_prob > 0 and self.mean2 is None:
            refuse(self, DomainError, "mean2", "leakage (leak_prob > 0) needs a third blob centre")


@dataclass
class ShotSet:
    i: np.ndarray
    q: np.ndarray
    labels: np.ndarray  # prepared state per shot, 0 or 1
    leaked: np.ndarray | None = None

    def __post_init__(self):
        self.i = np.asarray(self.i, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        labels = np.asarray(self.labels)
        if not (self.i.ndim == self.q.ndim == labels.ndim == 1):
            raise DomainError("i, q and labels must be one-dimensional")
        if not (len(self.i) == len(self.q) == len(labels)):
            raise DomainError("i, q and labels must have equal lengths")
        if not (np.isfinite(self.i).all() and np.isfinite(self.q).all()):
            bad = ~(np.isfinite(self.i) & np.isfinite(self.q))
            raise DomainError(f"i and q must be finite; shot {int(bad.argmax())} is not")
        # checked before the cast, which would turn 0.7 into 0
        if labels.dtype.kind not in "biuf":
            raise DomainError(f"labels must be 0 or 1, not {labels.dtype} values")
        bad = (labels != 0) & (labels != 1)
        if bad.any():
            k = int(bad.argmax())
            raise DomainError(f"labels must be 0 or 1; shot {k} has {labels.item(k)!r}")
        self.labels = labels.astype(int)

    def __len__(self):
        return len(self.i)


@dataclass
class ReadoutBenchmarks:
    f_ro: float
    eps_ro: float
    threshold: float
    axis: tuple


def synth_shots(model, n_per_state, seed):
    """Deterministic Gaussian shot generator for the estimator tests."""
    if n_per_state < 1:
        raise DomainError("n_per_state must be at least 1")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    n = int(n_per_state)
    centers0 = np.tile(model.mean0, (n, 1))
    leaked1 = rng.random(n) < model.leak_prob
    # float centres: integer means would truncate mean2 when it is assigned below
    centers1 = np.tile(np.asarray(model.mean1, dtype=float), (n, 1))
    if model.mean2 is not None:
        centers1[leaked1] = model.mean2
    pts = np.vstack([centers0, centers1]) + model.sigma * rng.standard_normal((2 * n, 2))
    labels = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
    leaked = np.concatenate([np.zeros(n, dtype=bool), leaked1])
    return ShotSet(i=pts[:, 0], q=pts[:, 1], labels=labels, leaked=leaked)


def _points(i, q):
    """The (n, 2) array whose columns are i and q.

    When i and q are the two columns of one C-contiguous float64 array,
    as :func:`synth_shots` makes them, that array itself; otherwise a copy.
    """
    pts = i.base
    if (isinstance(pts, np.ndarray) and pts.dtype == np.float64 and pts.shape == (len(i), 2)
            and pts.flags.c_contiguous and i.strides == q.strides == (16,)
            and i.ctypes.data == pts.ctypes.data and q.ctypes.data == pts.ctypes.data + 8):
        return pts
    return np.column_stack([i, q])


def assignment_fidelity(shots):
    """Average assignment fidelity via the optimal 1-d threshold.

    Shots are projected on the axis joining the per-label means, and
    :func:`_scan` finds the threshold between consecutive sorted
    projections that maximizes the average correct-assignment
    probability. A split between two equal projections is not a threshold
    and scores nothing, so the result does not depend on the shot order.
    The four per-label sums come from one weighted ``np.bincount`` over
    the (n, 2) points, which adds each label's values in shot order, and
    the points are not copied when i and q are the columns of one (n, 2)
    array. Raises EstimationError when a label mean, the axis or a
    projection overflows.
    """
    labels = shots.labels
    n1 = int(np.count_nonzero(labels))
    n0 = len(labels) - n1  # ShotSet admits only labels 0 and 1
    if n0 == 0 or n1 == 0:
        raise EstimationError("both prepared states are required")
    pts = _points(shots.i, shots.q)
    key = np.empty(pts.shape, np.intp)  # 2 label + column
    np.multiply(labels, 2, out=key[:, 0])
    np.add(key[:, 0], 1, out=key[:, 1])
    # overflow is reported below as an EstimationError, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        # rows: label; columns: i, q
        mu = np.bincount(key.ravel(), weights=pts.ravel(), minlength=4).reshape(2, 2)
        mu /= np.array([[n0], [n1]])
        axis = mu[1] - mu[0]
        norm = np.linalg.norm(axis)  # not finite if a mean or the axis is not
        if not np.isfinite(norm):
            raise EstimationError("the label means or the axis between them overflow")
        if norm == 0:
            axis = np.array([1.0, 0.0])
            norm = 1.0
        axis = axis / norm
        x = pts @ axis
    if not np.isfinite(x).all():
        raise EstimationError("a shot's projection on the axis overflows")
    best, threshold = _scan(x, labels, n0)
    f_ro = float(best / 2.0)
    return ReadoutBenchmarks(
        f_ro=f_ro,
        eps_ro=1.0 - f_ro,
        threshold=float(threshold),
        axis=(float(axis[0]), float(axis[1])),
    )


def _scan(x, labels, n0, bins=SCAN_BINS):
    """(score, threshold) of the first best split of the sorted projections.

    Sorted by projection, the split after k shots assigns them 0 and
    scores cum0/n0 + (n1 - cum1)/n1, with cum0 and cum1 the zeros and ones
    among them; a split between equal projections scores -inf. The
    projections fall into ``bins`` equal bins between their min and max,
    and prefix counts score every split at a bin edge exactly. A split
    inside a bin scores at most the bin's zeros added and none of its
    ones, and the score is monotone in both counts, also after rounding;
    so only the bins from the first to the last whose bound reaches the
    best edge score are sorted. They hold every split that can score the
    best, and both neighbours of each best edge, so any bin count gives
    the same result.
    """
    n1 = len(x) - n0
    lo, hi = float(x.min()), float(x.max())
    scale = bins / (hi - lo) if hi > lo else math.inf
    if 0 < scale < math.inf:
        # a monotone map, so equal projections share a bin and the bins keep
        # their order; (x - lo) * scale rounds to at most ``bins``, so the
        # keys run from 0 to ``bins``
        key = ((x - lo) * scale).astype(np.intp)
        bins += 1
    else:  # all projections equal, or a span that overflows: one bin, a full sort
        bins = 1
        key = np.zeros(len(x), np.intp)
    key *= 2
    key += labels
    counts = np.bincount(key, minlength=2 * bins).reshape(bins, 2)
    edge = np.concatenate([[[0, 0]], np.cumsum(counts, axis=0)])  # (zeros, ones) below each edge
    best = np.max(edge[:, 0] / n0 + (n1 - edge[:, 1]) / n1)
    window = np.flatnonzero(edge[1:, 0] / n0 + (n1 - edge[:-1, 1]) / n1 >= best)
    a, b = window[0], window[-1] + 1  # sort the bins from the first to the last in the window
    picked = np.flatnonzero((key >= 2 * a) & (key < 2 * b))
    xs, ls = x[picked], labels[picked]
    order = np.argsort(xs)  # any order within a tie: splits inside one score -inf
    xs, ls = xs[order], ls[order]
    # the split below every shot, then the split after each sorted shot but the last
    cum0 = np.cumsum(ls[:-1] == 0) + edge[a, 0]
    cum1 = np.cumsum(ls[:-1]) + edge[a, 1]
    correct = np.concatenate([[1.0], cum0 / n0 + (n1 - cum1) / n1])
    correct[1:][xs[1:] == xs[:-1]] = -np.inf
    # splits before and after every shot both score 1.0, so the first
    # best split is never the one above every shot
    k = int(np.argmax(correct))
    threshold = lo - 1.0 if k == 0 else 0.5 * (xs[k - 1] + xs[k])
    return correct[k], threshold


def pqnd(m1, m2):
    """QND probability from the last two measurement outcomes.

    Returns [p(m1=0|m2=1) + p(m1=1|m2=0)] / 2 from empirical counts; the
    pi pulse between the measurements is the caller's sequence semantics.
    """
    m1 = np.asarray(m1, dtype=int)
    m2 = np.asarray(m2, dtype=int)
    if m1.shape != m2.shape or m1.ndim != 1 or len(m1) < 1:
        raise DomainError("m1 and m2 must be equal-length non-empty sequences")
    n2_1 = int((m2 == 1).sum())
    n2_0 = int((m2 == 0).sum())
    if n2_1 == 0:
        raise UndefinedConditionalError("no shots with m2=1", condition="m2=1")
    if n2_0 == 0:
        raise UndefinedConditionalError("no shots with m2=0", condition="m2=0")
    p01 = float(((m1 == 0) & (m2 == 1)).sum() / n2_1)
    p10 = float(((m1 == 1) & (m2 == 0)).sum() / n2_0)
    return 0.5 * (p01 + p10)


def depletion_time(kappa_eff, n_initial_over_threshold):
    """Exponential ring-down time to deplete to the photon threshold (s)."""
    if kappa_eff <= 0:
        raise DomainError("kappa_eff must be positive")
    if n_initial_over_threshold <= 1.0:
        return 0.0
    return math.log(n_initial_over_threshold) / (2.0 * math.pi * kappa_eff)
