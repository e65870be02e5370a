"""Extraction of pair parameters from complex feedline-transmission traces.

Pipeline: baseline correction (cable delay and complex gain fitted on the
off-resonant wings), dip-based initial guess, then damped least squares on
the stacked real/imaginary residuals with an analytic Jacobian. Rates are
fitted in log space to stay positive.
"""

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidTraceError, NoResonanceError
from .pairmodel import PairParams, _s21

__all__ = [
    "TransmissionTrace", "FitResult", "correct_baseline", "initial_guess", "fit_pair",
]

MIN_FIT_POINTS = 16
WING_FRACTION = 0.1  # share of the span at each end that correct_baseline takes as wing
WING_SCATTER_LIMIT = 0.05  # relative wing |S21| scatter above which it attaches a warning
MIN_DIP_DEPTH = 0.05  # least dip depth, 1 - |S21|, that seeds a mode in initial_guess
COST_RTOL, GRAD_TOL = 1e-10, 1e-8  # fit_pair convergence thresholds
MAX_ITER = 500  # iterations of one fit_pair run


@dataclass
class TransmissionTrace:
    """Sampled complex feedline transmission vs frequency."""

    freqs: np.ndarray
    values: np.ndarray
    source: str = ""
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.freqs.ndim != 1 or self.freqs.shape != self.values.shape:
            raise InvalidTraceError("freqs and values must be 1-d and equal length")
        if len(self.freqs) >= 2 and not np.all(np.diff(self.freqs) > 0):
            raise InvalidTraceError("freqs must be strictly increasing")
        if not (np.all(np.isfinite(self.freqs)) and np.all(np.isfinite(self.values))):
            raise InvalidTraceError("trace contains non-finite values")

    def __len__(self):
        return len(self.freqs)


@dataclass
class FitResult:
    params: PairParams
    residual_rms: float
    converged: bool
    iterations: int
    confidence: dict  # parameter name -> 1-sigma half-width

    def as_dict(self):
        return {
            **{f"{name}_hz": getattr(self.params, name) for name in PairParams.RULES
               if name != "chi"},
            "residual_rms": self.residual_rms,
            "converged": self.converged,
            "iterations": self.iterations,
            "confidence": dict(self.confidence),
        }


def correct_baseline(trace):
    """Remove electrical delay and constant complex gain.

    The outer wings of the span are assumed resonance-free: a linear
    phase (delay) is fitted per wing by closed-form least squares about
    the wing's centre, and the amplitude gain is the wing mean. The phase
    offset is that of the wing points with the delay rotated out. A
    warning is attached (correction still applied) when the wing
    amplitude scatter suggests a resonance leaking into the wings.
    """
    if len(trace) < 8:
        raise InvalidTraceError("too few points for baseline correction")
    f, z = trace.freqs, trace.values
    k = max(2, int(round(len(f) * WING_FRACTION)))
    slopes = []
    for sl in (slice(0, k), slice(len(f) - k, None)):
        df = f[sl] - f[sl].mean()
        phase = np.unwrap(np.angle(z[sl]))
        slopes.append(df @ (phase - phase.mean()) / (df @ df))
    tau = -np.mean(slopes) / (2.0 * np.pi)

    mask = np.r_[:k, len(f) - k:len(f)]  # both wings
    wings = np.abs(z[mask])
    gain = float(np.mean(wings))
    phi0 = float(np.angle(np.mean(z[mask] * np.exp(2j * np.pi * tau * f[mask]))))
    background = gain * np.exp(1j * (phi0 - 2.0 * np.pi * tau * f))

    warnings = list(trace.warnings)
    scatter = float(np.std(wings) / max(gain, 1e-300))
    if scatter > WING_SCATTER_LIMIT:
        warnings.append("baseline-unreliable: wing amplitude variance above threshold")
    return replace(trace, freqs=f.copy(), values=z / background, warnings=warnings)


def _find_dips(x, min_prominence):
    """Local maxima of x whose topographic prominence is at least min_prominence.

    Same peaks, prominences and bases as ``scipy.signal.find_peaks(x,
    prominence=min_prominence)``: a flat top counts once, at its midpoint
    rounded down, and a peak's base on each side is the lowest point
    before x first rises above the peak (the one nearest the peak on
    ties). Returns (peaks, prominences, left_bases, right_bases).
    """
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    ends = np.r_[starts[1:] - 1, len(x) - 1]
    v = x[starts]
    top = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    peaks = (starts[top] + ends[top]) // 2
    # a prominence never exceeds the height above the global minimum,
    # so this drops only peaks the scan below would drop too
    peaks = peaks[x[peaks] - x.min() >= min_prominence]
    prominences = np.empty(len(peaks))
    left_bases = np.empty(len(peaks), dtype=np.intp)
    right_bases = np.empty(len(peaks), dtype=np.intp)
    for n, p in enumerate(peaks):
        higher = np.flatnonzero(x > x[p])
        k = np.searchsorted(higher, p)
        lo = higher[k - 1] + 1 if k > 0 else 0
        hi = higher[k] - 1 if k < len(higher) else len(x) - 1
        left_bases[n] = p - np.argmin(x[lo:p + 1][::-1])
        right_bases[n] = p + np.argmin(x[p:hi + 1])
        prominences[n] = x[p] - max(x[left_bases[n]], x[right_bases[n]])
    keep = prominences >= min_prominence
    return peaks[keep], prominences[keep], left_bases[keep], right_bases[keep]


def _half_widths(x, peaks, prominences, left_bases, right_bases):
    """Widths in samples at half prominence, linearly interpolated.

    Same as ``scipy.signal.peak_widths(x, peaks, rel_height=0.5)[0]``:
    each side walks out from the peak, no further than its base, to the
    first sample at or below the half-height line.
    """
    widths = []
    for p, prom, lb, rb in zip(peaks, prominences, left_bases, right_bases):
        height = x[p] - prom * 0.5
        below = np.flatnonzero(x[lb + 1:p + 1] <= height)
        i = lb + 1 + below[-1] if len(below) else lb
        left = float(i)
        if x[i] < height:
            left += (height - x[i]) / (x[i + 1] - x[i])
        below = np.flatnonzero(x[p:rb] <= height)
        i = p + below[0] if len(below) else rb
        right = float(i)
        if x[i] < height:
            right -= (height - x[i]) / (x[i - 1] - x[i])
        widths.append(right - left)
    return np.array(widths, dtype=float)


def initial_guess(trace):
    """Seed pair parameters from the dips of |S21|.

    Up to two qualifying dips: similar widths seed a matched pair
    (f_r = f_p at the center, J from half the splitting); strongly
    unequal widths assign the narrow dip to the readout-like mode. A
    single dip seeds a near-matched pair. Raises NoResonanceError when
    no dip clears the depth threshold.
    """
    if len(trace) < MIN_FIT_POINTS:
        raise InvalidTraceError(f"need at least {MIN_FIT_POINTS} points")
    f = trace.freqs
    depth = 1.0 - np.abs(trace.values)
    peaks, prominences, left_bases, right_bases = _find_dips(depth, MIN_DIP_DEPTH)
    if len(peaks) == 0:
        raise NoResonanceError("no dip below the prominence threshold")
    # the two most prominent dips, in frequency order
    top = np.sort(np.argsort(prominences)[::-1][:2])
    widths_pts = _half_widths(depth, peaks[top], prominences[top],
                              left_bases[top], right_bases[top])
    grid = float(np.mean(np.diff(f)))
    dips = [(f[p], max(w * grid, grid)) for p, w in zip(peaks[top], widths_pts)]

    if len(dips) == 1:
        f0, w = dips[0]
        return PairParams(f_r=f0, f_p=f0, j=w / 4.0, kappa=w)

    (f_lo, w_lo), (f_hi, w_hi) = dips
    splitting = f_hi - f_lo
    # The dips sit at the dressed mode frequencies, not the bare ones.
    # Each mode's linewidth is kappa times its Purcell weight, so the
    # width ratio encodes the mixing angle: invert it for the bare
    # detuning and coupling (splitting^2 = delta^2 + 4 J^2).  The narrow
    # dip is R-like, so the bare readout frequency lies on its side.
    ratio = min(w_lo, w_hi) / max(w_lo, w_hi)
    delta = splitting * (1.0 - ratio) / (1.0 + ratio)
    j = 0.5 * math.sqrt(max(splitting**2 - delta**2, (grid / 2.0) ** 2))
    center = 0.5 * (f_lo + f_hi)
    if w_lo < w_hi:
        f_r, f_p = center - delta / 2.0, center + delta / 2.0
    else:
        f_r, f_p = center + delta / 2.0, center - delta / 2.0
    return PairParams(f_r=f_r, f_p=f_p, j=j, kappa=w_lo + w_hi)


_IDEAL_NAMES = ("f_r", "f_p", "j", "kappa")
_FULL_NAMES = _IDEAL_NAMES + ("gamma_r", "gamma_p")


def _values(theta):
    """(f_r, f_p, j, kappa[, gamma_r, gamma_p]) from theta, and their derivatives wrt theta.

    theta packs the two frequencies, then the logs of the rates.
    """
    rates = [math.exp(t) for t in theta[2:]]
    return [theta[0], theta[1], *rates], np.array([1.0, 1.0, *rates])


def _model_and_jacobian(theta, f):
    """Full-model S21, absent loss rates zero, and its complex Jacobian wrt theta."""
    values, scale = _values(theta)
    s, d = _s21(f, *values, n_jac=len(theta))
    d = np.array(d)  # one row per parameter
    d *= scale[:, None]
    return s, d.T


def _pack(guess, n, kappa_floor):
    """The first n of (f_r, f_p, log j, log kappa, log gamma_r, log gamma_p)."""
    losses = [math.log(max(rate, kappa_floor)) for rate in (guess.gamma_r, guess.gamma_p)]
    return np.array([guess.f_r, guess.f_p, math.log(guess.j), math.log(guess.kappa), *losses][:n])


def _residuals(theta, f, z):
    """Real residuals and Jacobian: each point's real then imaginary part, as views."""
    s, jac_c = _model_and_jacobian(theta, f)
    return (s - z).view(float), jac_c.T.view(float).T


def _guess_variants(guess):
    """Deterministic alternative starting points around one guess.

    The dip heuristics can mislabel which dip is which or misread J from
    the splitting; a handful of restarts makes the damped loop robust to
    that without any stochastic machinery.
    """
    swapped = guess.with_frequencies(guess.f_p, guess.f_r)
    return [guess, swapped] + [
        replace(base, j=base.j * jf, kappa=base.kappa * kf) for base in (guess, swapped)
        for jf, kf in ((0.5, 1.0), (2.0, 1.0), (1.0, 4.0), (0.4, 2.0))]


def fit_pair(trace, guess, model="ideal"):
    """Damped least squares of the pair model against a corrected trace.

    Accepted steps never increase the cost. A run converges when the
    relative cost decrease stays below ``COST_RTOL`` or the gradient
    inf-norm below ``GRAD_TOL`` for 3 consecutive iterations, within
    ``MAX_ITER``. Runs go from the guess and then from deterministic
    variants of it, and stop as soon as the lowest-cost run so far has
    converged; that run is the result. When none converges, the
    lowest-cost run comes back with ``converged=False`` rather than
    failing silently.
    """
    if model not in ("ideal", "full"):
        raise InvalidTraceError(f"unknown model {model!r}")
    if len(trace) < MIN_FIT_POINTS:
        raise InvalidTraceError(f"need at least {MIN_FIT_POINTS} points to fit")
    names = _IDEAL_NAMES if model == "ideal" else _FULL_NAMES
    f, z = trace.freqs, trace.values

    best = None
    for start in _guess_variants(guess):
        fit = _lm_loop(start, f, z, len(names))
        if best is None or fit[3] < best[3]:
            best = fit
        if best[4]:
            break
    theta, r, jac, cost, converged, it = best

    values, scale = _values(theta)
    m = 2 * len(f)
    sigma2 = cost / max(m - len(names), 1)
    confidence = {}
    try:
        cov = sigma2 * np.linalg.pinv(jac.T @ jac)
        hw = np.sqrt(np.clip(np.diag(cov), 0.0, None))
        confidence = {name: float(h * s) for name, h, s in zip(names, hw, scale)}
    except np.linalg.LinAlgError:
        pass

    return FitResult(
        params=PairParams(*values),
        residual_rms=float(np.sqrt(cost / m)),
        converged=converged,
        iterations=it,
        confidence=confidence,
    )


def _lm_loop(guess, f, z, n):
    # the start and every trial are clipped into a box: resonances must stay
    # near the measured span, as a frequency walking far outside it degenerates
    # the model into a single resonator, and log-rates in a sane physical
    # window, as a huge rate overflows the model
    span = f[-1] - f[0]
    lo = np.array([f[0] - span] * 2 + [math.log(1e-3)] * (n - 2))
    hi = np.array([f[-1] + span] * 2 + [math.log(1e12)] * (n - 2))
    # a zero loss rate starts at a millionth of kappa, and never at 0, whose log fails
    theta = np.clip(_pack(guess, n, max(guess.kappa * 1e-6, sys.float_info.min)), lo, hi)
    r, jac = _residuals(theta, f, z)
    cost = float(r @ r)
    lam = 1e-3
    streak = 0
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        jtj = jac.T @ jac
        grad = jac.T @ r
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1.0
        step = None
        for _ in range(40):
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = np.clip(theta + step, lo, hi)
            r_t, jac_t = _residuals(trial, f, z)
            cost_t = float(r_t @ r_t)
            if np.isfinite(cost_t) and cost_t <= cost:
                break
            lam *= 10.0
            step = None
        if step is None:
            break  # damping exhausted; report non-convergence
        decrease = (cost - cost_t) / max(cost, 1e-300)
        theta, r, jac, cost = trial, r_t, jac_t, cost_t
        lam = max(lam / 3.0, 1e-12)
        if decrease < COST_RTOL or float(np.max(np.abs(grad))) < GRAD_TOL:
            streak += 1
            if streak >= 3:
                converged = True
                break
        else:
            streak = 0

    return theta, r, jac, cost, converged, it
