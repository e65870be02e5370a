"""Transmon spectroscopy inversion and closed-loop anneal simulation.

Energies are expressed in Hz units (E/h) throughout. The transmon levels
come from diagonalizing the charge-basis Hamiltonian at zero offset charge
(symmetric SQUID at the flux sweetspot); junction-resistance targeting uses
E_J proportional to 1/R_J with the charging energy held fixed (annealing
acts on the junctions, not the capacitor).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffError, DirectionError, DomainError, InversionError

__all__ = [
    "TransmonRecord",
    "AnnealConfig",
    "AnnealTrace",
    "LogAnnealResponse",
    "transmon_spectrum",
    "invert_spectroscopy",
    "rj_target",
    "predict_fq",
    "anneal_closed_loop",
]

DEFAULT_CUTOFF = 30
TRANSMON_RATIO_FLOOR = 20.0


@dataclass
class TransmonRecord:
    id: str
    f_q: float  # Hz, sweetspot
    alpha: float  # Hz, negative
    e_j: float  # Hz units, E_J / h
    e_c: float  # Hz units, E_c / h
    r_j: float  # Ohm, junction-pair normal-state resistance

    def __post_init__(self, ratio_floor=TRANSMON_RATIO_FLOOR):
        if self.f_q <= 0 or self.alpha >= 0:
            raise DomainError("need f_q > 0 and alpha < 0")
        if self.e_j <= 0 or self.e_c <= 0 or self.r_j <= 0:
            raise DomainError("e_j, e_c and r_j must be positive")
        if self.e_j / self.e_c < ratio_floor:
            raise DomainError(f"e_j/e_c below transmon floor {ratio_floor}")


def transmon_spectrum(e_j, e_c, cutoff=DEFAULT_CUTOFF, population_tol=1e-10):
    """Qubit frequency and anharmonicity from charge-basis diagonalization.

    The Hamiltonian is diagonal 4 E_c n^2 with off-diagonal -E_J/2 over
    n in [-cutoff, cutoff]. Returns (f_q, alpha) in Hz. Raises
    CutoffError when the third level still has weight at the basis edge.
    """
    if e_j <= 0 or e_c <= 0:
        raise DomainError("e_j and e_c must be positive")
    if cutoff < 10:
        raise DomainError("cutoff must be at least 10")
    # scipy is imported on first use: importing it costs about a second,
    # which every CLI command would pay at start-up
    from scipy.linalg import eigh_tridiagonal

    n = np.arange(-cutoff, cutoff + 1)
    diag = 4.0 * e_c * n.astype(float) ** 2
    off = np.full(len(n) - 1, -e_j / 2.0)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 2))
    edge = np.abs(vecs[0, 2]) ** 2 + np.abs(vecs[-1, 2]) ** 2
    if edge > population_tol:
        raise CutoffError(
            f"cutoff {cutoff} too small: edge population {edge:.2e}; increase it"
        )
    f_q = float(vals[1] - vals[0])
    alpha = float(vals[2] - 2.0 * vals[1] + vals[0])
    return f_q, alpha


def asymptotic_fq(e_j, e_c):
    """Large-ratio approximation sqrt(8 E_J E_c) - E_c, in Hz."""
    return math.sqrt(8.0 * e_j * e_c) - e_c


def invert_spectroscopy(f_q, alpha, cutoff=DEFAULT_CUTOFF, tol=1e3,
                        ratio_floor=TRANSMON_RATIO_FLOOR):
    """Recover (e_j, e_c) from measured (f_q, alpha), both in Hz.

    Two-dimensional root finding on :func:`transmon_spectrum` seeded by
    the closed-form estimates e_c = -alpha, e_j = (f_q - alpha)^2 /
    (-8 alpha); converged when both residuals are below ``tol`` (1 kHz).
    """
    if not (f_q > 0 > alpha):
        raise DomainError("need f_q > 0 and alpha < 0")
    if -alpha >= f_q:
        raise DomainError("|alpha| must be below f_q")
    e_c0 = -alpha
    e_j0 = (f_q - alpha) ** 2 / (-8.0 * alpha)
    # the closed-form seed underestimates the true ratio near the floor,
    # so only clearly non-transmon inputs are rejected up front; the
    # converged solution is checked against the exact floor below
    if e_j0 / e_c0 < 0.5 * ratio_floor:
        raise InversionError(
            f"seed ratio {e_j0 / e_c0:.1f} far below transmon floor {ratio_floor}; "
            "no transmon-regime solution"
        )

    def residual(logs):
        ej, ec = math.exp(logs[0]), math.exp(logs[1])
        try:
            fq_m, a_m = transmon_spectrum(ej, ec, cutoff)
        except CutoffError as exc:
            raise InversionError(f"iteration left the transmon regime: {exc}") from exc
        return [fq_m - f_q, a_m - alpha]

    from scipy.optimize import root

    sol = root(residual, [math.log(e_j0), math.log(e_c0)], method="hybr")
    e_j, e_c = math.exp(sol.x[0]), math.exp(sol.x[1])
    res = residual(sol.x)
    if max(abs(res[0]), abs(res[1])) > tol:
        raise InversionError(
            f"inversion residuals {res[0]:.1f}, {res[1]:.1f} Hz above {tol:.0f} Hz"
        )
    if e_j / e_c < ratio_floor:
        raise InversionError(f"solution ratio {e_j / e_c:.1f} below transmon floor")
    return e_j, e_c


def _ej_from_fq(f_q, e_c, cutoff=DEFAULT_CUTOFF):
    """1-d inversion of the spectrum at fixed charging energy."""
    seed = (f_q + e_c) ** 2 / (8.0 * e_c)

    def g(ej):
        return transmon_spectrum(ej, e_c, cutoff)[0] - f_q

    lo, hi = seed, seed
    while g(lo) > 0:
        lo /= 1.5
        if lo < e_c * 1e-3:
            raise InversionError("no e_j solution at this e_c")
    while g(hi) < 0:
        hi *= 1.5
        if hi > seed * 1e6:
            raise InversionError("no e_j solution at this e_c")
    from scipy.optimize import brentq

    return brentq(g, lo, hi, xtol=1e-3, rtol=1e-14)


def rj_target(r_now, f_q_now, f_q_target, e_c, cutoff=DEFAULT_CUTOFF):
    """Junction resistance that brings f_q to the target, at fixed e_c.

    Annealing only increases R_J, i.e. only lowers f_q.
    """
    if min(r_now, f_q_now, f_q_target, e_c) <= 0:
        raise DomainError("all arguments must be positive")
    if f_q_target > f_q_now:
        raise DirectionError("annealing can only lower the qubit frequency")
    e_j_now = _ej_from_fq(f_q_now, e_c, cutoff)
    e_j_target = _ej_from_fq(f_q_target, e_c, cutoff)
    return r_now * (e_j_now / e_j_target)


def predict_fq(r_j_measured, r_j_reference, e_j_reference, e_c, cutoff=DEFAULT_CUTOFF):
    """Post-anneal frequency prediction from the measured resistance."""
    if min(r_j_measured, r_j_reference, e_j_reference, e_c) <= 0:
        raise DomainError("all arguments must be positive")
    e_j = e_j_reference * r_j_reference / r_j_measured
    return transmon_spectrum(e_j, e_c, cutoff)[0]


@dataclass
class AnnealConfig:
    r_start: float  # Ohm, pre-anneal resistance
    r_target: float  # Ohm
    exposure_threshold: float  # s, max acceptable expected next-cycle exposure
    power_schedule: list  # W, escalating
    initial_exposure: float = 1.0  # s
    exposure_growth: float = 2.0
    max_cycles_per_power: int = 200

    def __post_init__(self):
        if self.r_target <= self.r_start:
            raise DomainError("r_target must exceed the starting resistance")
        if not self.power_schedule:
            raise DomainError("power schedule must not be empty")


@dataclass
class AnnealTrace:
    history: list = field(default_factory=list)  # (power_w, exposure_s, r_over_r0)
    status: str = "running"  # "success" | "power-exhausted"
    model_violations: int = 0

    def resistances(self):
        return [r for _, _, r in self.history]


class LogAnnealResponse:
    """Synthetic junction response dR/R0 = c(P) * log(1 + t/t0(P)).

    Per-power exposure time accumulates independently; the resistance
    ratio only ever grows. ``coeffs`` maps power (W) -> (c, t0_s).
    """

    def __init__(self, coeffs):
        self.coeffs = dict(coeffs)
        self.ratio = 1.0
        self._t = {}

    def expose(self, power, dt):
        c, t0 = self.coeffs[power]
        t = self._t.get(power, 0.0)
        self.ratio += c * (math.log1p((t + dt) / t0) - math.log1p(t / t0))
        self._t[power] = t + dt
        return self.ratio


def _expected_next_exposure(points, target_ratio):
    """Extrapolated exposure still needed, from the last two points.

    ``points`` holds (cumulative_exposure_s, r_over_r0) at the current
    power; the extrapolation is linear in log-exposure. Returns inf when
    the local slope is non-positive.
    """
    (t1, r1), (t2, r2) = points[-2], points[-1]
    if t2 <= t1 or r2 <= r1:
        return math.inf
    slope = (r2 - r1) / (math.log(t2) - math.log(t1))
    log_t_target = math.log(t2) + (target_ratio - r2) / slope
    if log_t_target > 700.0:
        return math.inf
    return math.exp(log_t_target) - t2


def anneal_closed_loop(config, response):
    """Simulated measure/expose loop with the two exit criteria.

    Per power: expose with a growing step; once two points exist, the
    expected remaining exposure is extrapolated and, when it exceeds the
    threshold, the loop escalates to the next power in the schedule.
    Success means the resistance reached its target; an exhausted
    schedule ends the trace with status "power-exhausted". An observed
    resistance decrease is flagged as a model violation and the step is
    halved rather than aborting.
    """
    target_ratio = config.r_target / config.r_start
    trace = AnnealTrace()
    ratio = 1.0
    if ratio >= target_ratio:
        trace.status = "success"
        return trace
    for power in config.power_schedule:
        dt = config.initial_exposure
        points = []
        elapsed = 0.0
        for _ in range(config.max_cycles_per_power):
            if len(points) >= 2:
                expected = _expected_next_exposure(points, target_ratio)
                if expected > config.exposure_threshold:
                    break
            new_ratio = response.expose(power, dt)
            elapsed += dt
            if new_ratio < ratio:
                trace.model_violations += 1
                new_ratio = ratio  # resistance cannot decrease; keep the max
                dt = max(dt / 2.0, 1e-6)
            else:
                ratio = new_ratio
                dt *= config.exposure_growth
            trace.history.append((power, elapsed, ratio))
            points.append((elapsed, ratio))
            if ratio >= target_ratio:
                trace.status = "success"
                return trace
    trace.status = "power-exhausted"
    return trace
