"""Extraction of pair parameters from complex feedline-transmission traces.

Pipeline: baseline correction (cable delay and complex gain fitted on the
off-resonant wings), dip-based initial guess, then damped least squares on
the stacked real/imaginary residuals with an analytic Jacobian. Rates are
fitted in log space to stay positive.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidTraceError, NoResonanceError
from .pairmodel import PairParams, _s21

__all__ = [
    "TransmissionTrace",
    "FitResult",
    "correct_baseline",
    "initial_guess",
    "fit_pair",
]

MIN_FIT_POINTS = 16


@dataclass
class TransmissionTrace:
    """Sampled complex feedline transmission vs frequency."""

    freqs: np.ndarray
    values: np.ndarray
    source: str = ""
    qubit_state: str | None = None
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
            "f_r_hz": self.params.f_r,
            "f_p_hz": self.params.f_p,
            "j_hz": self.params.j,
            "kappa_hz": self.params.kappa,
            "gamma_r_hz": self.params.gamma_r,
            "gamma_p_hz": self.params.gamma_p,
            "kappa_drive_hz": self.params.kappa_drive,
            "residual_rms": self.residual_rms,
            "converged": self.converged,
            "iterations": self.iterations,
            "confidence": dict(self.confidence),
        }


def _wing_mask(n, fraction=0.1):
    k = max(2, int(round(n * fraction)))
    mask = np.zeros(n, dtype=bool)
    mask[:k] = True
    mask[-k:] = True
    return mask


def correct_baseline(trace, wing_fraction=0.1, wing_variance_threshold=0.05):
    """Remove electrical delay and constant complex gain.

    The outer wings of the span are assumed resonance-free: a linear
    phase (delay) is fitted per wing, the amplitude gain is the wing
    mean. A warning is attached (correction still applied) when the wing
    amplitude scatter suggests a resonance leaking into the wings.
    """
    if len(trace) < 8:
        raise InvalidTraceError("too few points for baseline correction")
    f, z = trace.freqs, trace.values
    k = max(2, int(round(len(f) * wing_fraction)))
    slopes = []
    for sl in (slice(0, k), slice(len(f) - k, None)):
        phase = np.unwrap(np.angle(z[sl]))
        slopes.append(np.polyfit(f[sl], phase, 1)[0])
    tau = -np.mean(slopes) / (2.0 * np.pi)

    mask = _wing_mask(len(f), wing_fraction)
    rotated = z * np.exp(2j * np.pi * f * tau)
    gain = float(np.mean(np.abs(z[mask])))
    phi0 = float(np.angle(np.mean(rotated[mask])))
    background = gain * np.exp(1j * phi0) * np.exp(-2j * np.pi * f * tau)

    warnings = list(trace.warnings)
    scatter = float(np.std(np.abs(z[mask])) / max(gain, 1e-300))
    if scatter > wing_variance_threshold:
        warnings.append("baseline-unreliable: wing amplitude variance above threshold")
    return TransmissionTrace(
        freqs=f.copy(),
        values=z / background,
        source=trace.source,
        qubit_state=trace.qubit_state,
        warnings=warnings,
    )


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


def _dip_stats(f, depth, peaks, widths_pts):
    df = float(np.mean(np.diff(f)))
    return [(f[p], depth[p], w * df) for p, w in zip(peaks, widths_pts)]


def initial_guess(trace, min_depth=0.05):
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
    peaks, prominences, left_bases, right_bases = _find_dips(depth, min_depth)
    if len(peaks) == 0:
        raise NoResonanceError("no dip below the prominence threshold")
    # the two most prominent dips, in frequency order
    top = np.sort(np.argsort(prominences)[::-1][:2])
    widths_pts = _half_widths(depth, peaks[top], prominences[top],
                              left_bases[top], right_bases[top])
    dips = _dip_stats(f, depth, peaks[top], widths_pts)

    if len(dips) == 1:
        f0, _, w = dips[0]
        w = max(w, float(np.mean(np.diff(f))))
        return PairParams(f_r=f0, f_p=f0, j=w / 4.0, kappa=w)

    (f_lo, _, w_lo), (f_hi, _, w_hi) = dips
    splitting = f_hi - f_lo
    grid = float(np.mean(np.diff(f)))
    w_lo, w_hi = max(w_lo, grid), max(w_hi, grid)
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
_FULL_NAMES = _IDEAL_NAMES + ("gamma_r", "gamma_p", "kappa_drive")


def _model_and_jacobian(theta, f, names):
    """Full-model S21 and its complex Jacobian wrt the packed parameters.

    theta packs (f_r, f_p, log j, log kappa[, log gamma_r, log gamma_p,
    log kappa_drive]); absent loss rates are zero.
    """
    j, kappa = math.exp(theta[2]), math.exp(theta[3])
    lossy = len(names) > 4
    gamma_r, gamma_p, kappa_d = map(math.exp, theta[4:7]) if lossy else (0.0, 0.0, 0.0)
    s, d = _s21(f, theta[0], theta[1], j, kappa, gamma_r + kappa_d, gamma_p,
                n_jac=6 if lossy else 4)
    cols = [d[0], d[1], j * d[2], kappa * d[3]]
    if lossy:
        # gamma_r and kappa_drive enter only through their sum
        cols += [gamma_r * d[4], gamma_p * d[5], kappa_d * d[4]]
    return s, np.stack(cols, axis=1)


def _pack(guess, names, kappa_floor):
    theta = [guess.f_r, guess.f_p, math.log(guess.j), math.log(guess.kappa)]
    if len(names) > 4:
        for rate in (guess.gamma_r, guess.gamma_p, guess.kappa_drive):
            theta.append(math.log(max(rate, kappa_floor)))
    return np.array(theta, dtype=float)


def _unpack(theta, names):
    kwargs = {"f_r": theta[0], "f_p": theta[1], "j": math.exp(theta[2]), "kappa": math.exp(theta[3])}
    if len(names) > 4:
        kwargs["gamma_r"] = math.exp(theta[4])
        kwargs["gamma_p"] = math.exp(theta[5])
        kwargs["kappa_drive"] = math.exp(theta[6])
    return PairParams(**kwargs)


def _residuals(theta, f, z, names):
    s, jac_c = _model_and_jacobian(theta, f, names)
    r = np.concatenate([(s - z).real, (s - z).imag])
    jac = np.concatenate([jac_c.real, jac_c.imag], axis=0)
    return r, jac


def _guess_variants(guess):
    """Deterministic alternative starting points around one guess.

    The dip heuristics can mislabel which dip is which or misread J from
    the splitting; a handful of restarts makes the damped loop robust to
    that without any stochastic machinery.
    """
    out = [guess]
    swapped = PairParams(
        f_r=guess.f_p, f_p=guess.f_r, j=guess.j, kappa=guess.kappa,
        gamma_r=guess.gamma_r, gamma_p=guess.gamma_p,
        kappa_drive=guess.kappa_drive, chi=guess.chi,
    )
    out.append(swapped)
    for base in (guess, swapped):
        for jf, kf in ((0.5, 1.0), (2.0, 1.0), (1.0, 4.0), (0.4, 2.0)):
            out.append(
                PairParams(
                    f_r=base.f_r, f_p=base.f_p, j=base.j * jf, kappa=base.kappa * kf,
                    gamma_r=base.gamma_r, gamma_p=base.gamma_p,
                    kappa_drive=base.kappa_drive, chi=base.chi,
                )
            )
    return out


def fit_pair(trace, guess, model="ideal", max_iter=500, cost_rtol=1e-10, grad_tol=1e-8,
             restarts=True):
    """Damped least squares of the pair model against a corrected trace.

    Accepted steps never increase the cost. Convergence requires the
    relative cost decrease below ``cost_rtol`` or the gradient inf-norm
    below ``grad_tol`` on 3 consecutive iterations; otherwise the result
    comes back with ``converged=False`` rather than failing silently.
    With ``restarts`` the loop also runs from a few deterministic
    variants of the guess and the lowest final cost wins.
    """
    if model not in ("ideal", "full"):
        raise InvalidTraceError(f"unknown model {model!r}")
    if len(trace) < MIN_FIT_POINTS:
        raise InvalidTraceError(f"need at least {MIN_FIT_POINTS} points to fit")
    names = _IDEAL_NAMES if model == "ideal" else _FULL_NAMES
    f, z = trace.freqs, trace.values

    starts = _guess_variants(guess) if restarts else [guess]
    best = None
    for start in starts:
        fit = _lm_loop(start, f, z, names, max_iter, cost_rtol, grad_tol)
        if best is None or fit[3] < best[3]:
            best = fit
        if best[3] <= 1e-24 * len(f) and best[4]:
            break
    theta, r, jac, cost, converged, it = best

    m, n = 2 * len(f), len(names)
    sigma2 = cost / max(m - n, 1)
    confidence = {}
    try:
        cov = sigma2 * np.linalg.pinv(jac.T @ jac)
        hw = np.sqrt(np.clip(np.diag(cov), 0.0, None))
        params = _unpack(theta, names)
        scale = [1.0, 1.0, params.j, params.kappa]
        if n > 4:
            scale += [params.gamma_r, params.gamma_p, params.kappa_drive]
        confidence = {name: float(h * s) for name, h, s in zip(names, hw, scale)}
    except np.linalg.LinAlgError:
        pass

    return FitResult(
        params=_unpack(theta, names),
        residual_rms=float(np.sqrt(cost / m)),
        converged=converged,
        iterations=it,
        confidence=confidence,
    )


def _lm_loop(guess, f, z, names, max_iter, cost_rtol, grad_tol):
    # resonances must stay near the measured span; a frequency walking
    # far outside it degenerates the model into a single resonator
    span = f[-1] - f[0]
    f_lo, f_hi = f[0] - span, f[-1] + span
    theta = _pack(guess, names, kappa_floor=guess.kappa * 1e-6)
    r, jac = _residuals(theta, f, z, names)
    cost = float(r @ r)
    lam = 1e-3
    streak = 0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
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
            trial = theta + step
            # keep log-rates in a sane physical window to avoid overflow
            trial[0:2] = np.clip(trial[0:2], f_lo, f_hi)
            trial[2:] = np.clip(trial[2:], math.log(1e-3), math.log(1e12))
            r_t, jac_t = _residuals(trial, f, z, names)
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
        if decrease < cost_rtol or float(np.max(np.abs(grad))) < grad_tol:
            streak += 1
            if streak >= 3:
                converged = True
                break
        else:
            streak = 0

    return theta, r, jac, cost, converged, it
