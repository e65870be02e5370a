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
from .rules import NON_NEGATIVE, POSITIVE, Field, check, refuse

__all__ = [
    "AnnealConfig", "AnnealTrace", "LogAnnealResponse", "transmon_spectrum", "invert_spectroscopy",
    "rj_target", "predict_fq", "anneal_closed_loop",
]

DEFAULT_CUTOFF = 30
TRANSMON_RATIO_FLOOR = 20.0
EDGE_POPULATION_TOL = 1e-10  # largest third-level population at the charge-basis edge
INVERSION_TOL_HZ = 1e3  # largest f_q and alpha residuals of invert_spectroscopy
NEWTON_STEP_TOL = 1e-10  # Newton stops once a step moves no log energy by more than this
NEWTON_MAX_STEPS = 50


def transmon_spectrum(e_j, e_c, cutoff=DEFAULT_CUTOFF, jacobian=False):
    """Qubit frequency and anharmonicity from charge-basis diagonalization.

    The Hamiltonian is diagonal 4 E_c n^2 with off-diagonal -E_J/2 over
    n in [-cutoff, cutoff]. It is even in n, so its even block over n >= 0
    holds levels 0 and 2 and its odd block level 1. Returns (f_q, alpha)
    in Hz. Raises CutoffError when level 2 has weight at the basis edge.

    With ``jacobian``, returns (f_q, alpha, jac) with jac the Jacobian of
    (f_q, alpha) in (ln E_J, ln E_c), from one batched eigh that solves
    both blocks with their eigenvectors; the odd block sits in rows 1.. of
    the second matrix, under a decoupled row 0 whose diagonal
    2 (4 E_c cutoff^2 + E_J) lies above every odd level (Gershgorin).
    Hellmann-Feynman gives E_c dE/dE_c = 4 E_c <n^2> for each level. The
    Hamiltonian is homogeneous of degree 1 in (E_J, E_c), and so are f_q
    and alpha, so E_J df/dE_J = f - E_c df/dE_c.
    """
    # levels lie within 4 E_c cutoff^2 + 2 E_J of zero (Gershgorin): this keeps alpha finite
    if not (0 < e_j and 0 < e_c and 16.0 * e_c * cutoff**2 + 8.0 * e_j < math.inf):
        raise DomainError("e_j and e_c must be positive and finite, with a finite spectrum")
    if cutoff < 10:
        raise DomainError("cutoff must be at least 10")
    n = cutoff + 1
    h = np.zeros((2 if jacobian else 1, n, n))
    flat = h.reshape(len(h), n * n)
    flat[:, ::n + 1] = 4.0 * e_c * np.arange(n + 0.0) ** 2  # the diagonal
    flat[:, 1::n + 1] = -e_j / 2.0  # and the one above it
    h[0, 0, 1] *= math.sqrt(2.0)  # n = 0 couples to (|1> + |-1>)/sqrt(2)
    if jacobian:
        h[1, 0, :2] = 2.0 * (4.0 * e_c * cutoff**2 + e_j), 0.0
        (vals, odd), (vecs, odd_vecs) = np.linalg.eigh(h, UPLO="U")
    else:
        vals, vecs = np.linalg.eigh(h[0], UPLO="U")
        odd = np.linalg.eigvalsh(h[0, 1:, 1:], UPLO="U")
    edge = vecs[-1, 1] ** 2  # the even vector's last entry is shared by n = +-cutoff
    if edge > EDGE_POPULATION_TOL:
        raise CutoffError(f"cutoff {cutoff} too small: edge population {edge:.2e}; increase it")
    f_q, alpha = float(odd[0] - vals[0]), float(vals[1] - 2.0 * odd[0] + vals[0])
    if not jacobian:
        return f_q, alpha
    charging = h[0].diagonal()  # 4 E_c n^2 for n from 0 to cutoff; 0 on the decoupled row
    c0, c2 = (vecs[:, :2] ** 2).T @ charging  # E_c dE/dE_c of levels 0 and 2
    c1 = odd_vecs[:, 0] ** 2 @ charging  # and of level 1
    d_fq, d_alpha = c1 - c0, c2 - 2.0 * c1 + c0
    return f_q, alpha, np.array([[f_q - d_fq, d_fq], [alpha - d_alpha, d_alpha]])


def asymptotic_fq(e_j, e_c):
    """Large-ratio approximation sqrt(8 E_J E_c) - E_c, in Hz."""
    return math.sqrt(8.0 * e_j * e_c) - e_c


def _ej_seed(f_q, e_c):
    """E_J at which the large-ratio expansion one order past :func:`asymptotic_fq`,
    f_q = sqrt(8 E_J E_c) - E_c - E_c / (4 sqrt(E_J / 2 E_c)), gives f_q.

    That is Koch et al., PRA 76, 042319, Eq. 2.11, continued by Abramowitz
    & Stegun 20.2.30. It is a quadratic in sqrt(E_J), and its positive
    root is taken. Returns inf on overflow and 0 on underflow, which
    _newton refuses.
    """
    s = (f_q + e_c + math.hypot(f_q + e_c, 2.0 * e_c)) / (2.0 * math.sqrt(8.0 * e_c))
    return s * s


def _newton(residual, energies):
    """(energies, residuals) where ``residual`` vanishes, by Newton on log energies.

    ``residual(*energies)`` returns the residuals and their Jacobian in
    the log energies. Newton returns the energies after the first step
    that moves no log energy by more than NEWTON_STEP_TOL, without
    evaluating ``residual`` there; the residuals it returns are those of
    the last evaluation, one step earlier, so they are at most about the
    Jacobian times that step. A singular Jacobian, a non-finite step, a
    spectrum outside its domain or cutoff, and no convergence within
    NEWTON_MAX_STEPS are each an InversionError.
    """
    with np.errstate(divide="ignore"):  # a seed of 0 becomes -inf, refused as a 0 energy
        x = np.log(energies)
    try:
        for _ in range(NEWTON_MAX_STEPS):
            r, jac = residual(*map(math.exp, x))
            step = np.linalg.solve(jac, -r)
            if not np.all(np.isfinite(step)):
                raise InversionError("non-finite Newton step")
            x = x + step
            if np.max(np.abs(step)) <= NEWTON_STEP_TOL:
                return list(map(math.exp, x)), r
    except (CutoffError, DomainError, OverflowError, np.linalg.LinAlgError) as exc:
        raise InversionError(f"no transmon solution from {energies}: {exc}") from exc
    raise InversionError(f"no convergence in {NEWTON_MAX_STEPS} Newton steps")


def invert_spectroscopy(f_q, alpha, cutoff=DEFAULT_CUTOFF):
    """Recover (e_j, e_c) from measured (f_q, alpha), both in Hz.

    Newton's method on :func:`transmon_spectrum` and its Hellmann-Feynman
    Jacobian. The seed comes from the large-ratio expansion one order past
    :func:`asymptotic_fq`: e_c from alpha = -e_c (1 + 9 / (16 sqrt(q)))
    with q = e_j / 2 e_c at the leading-order e_j, then e_j = _ej_seed(f_q, e_c).
    Both residuals must end below ``INVERSION_TOL_HZ``. They are those of
    the last Newton evaluation, one step of at most ``NEWTON_STEP_TOL``
    before the returned energies, so they are about the Jacobian times
    that step: near 1 Hz at GHz frequencies, and above the tolerance only
    for f_q of order 1e13 Hz and more, far outside the transmon regime.
    """
    if not (math.inf > f_q > -alpha > 0):
        raise DomainError("need a finite f_q, alpha < 0 and |alpha| below f_q")
    e_c0 = -alpha
    e_j0 = (f_q + e_c0) * (f_q + e_c0) / (8.0 * e_c0)  # where asymptotic_fq is f_q
    if e_j0 == 0.0:  # (f_q + e_c0)**2 underflows, far below any transmon
        raise InversionError(f"no transmon solution: the seed E_J of f_q {f_q!r} Hz underflows")
    e_c1 = e_c0 / (1.0 + 9.0 / (16.0 * math.sqrt(e_j0 / (2.0 * e_c0))))

    def residual(ej, ec):
        fq_m, a_m, jac = transmon_spectrum(ej, ec, cutoff, jacobian=True)
        return np.array([fq_m - f_q, a_m - alpha]), jac

    (e_j, e_c), res = _newton(residual, [_ej_seed(f_q, e_c1), e_c1])
    if max(abs(res[0]), abs(res[1])) > INVERSION_TOL_HZ:
        raise InversionError(f"inversion residuals {res[0]:.1f}, {res[1]:.1f} Hz above "
                             f"{INVERSION_TOL_HZ:.0f} Hz")
    if e_j / e_c < TRANSMON_RATIO_FLOOR:
        raise InversionError(f"solution ratio {e_j / e_c:.1f} below transmon floor")
    return e_j, e_c


def _ej_from_fq(f_q, e_c, cutoff=DEFAULT_CUTOFF):
    """1-d inversion of the spectrum at fixed charging energy."""
    def residual(ej):
        fq_m, _, jac = transmon_spectrum(ej, e_c, cutoff, jacobian=True)
        return np.array([fq_m - f_q]), jac[:1, :1]

    (e_j,), _ = _newton(residual, [_ej_seed(f_q, e_c)])
    return e_j


def rj_target(r_now, f_q_now, f_q_target, e_c, cutoff=DEFAULT_CUTOFF):
    """Junction resistance that brings f_q to the target, at fixed e_c.

    Annealing only increases R_J, i.e. only lowers f_q.
    """
    if not all(0 < x < math.inf for x in (r_now, f_q_now, f_q_target, e_c)):
        raise DomainError("all arguments must be positive and finite")
    if f_q_target > f_q_now:
        raise DirectionError("annealing can only lower the qubit frequency")
    e_j_now = _ej_from_fq(f_q_now, e_c, cutoff)
    e_j_target = _ej_from_fq(f_q_target, e_c, cutoff)
    return r_now * (e_j_now / e_j_target)


def predict_fq(r_j_measured, r_j_reference, e_j_reference, e_c, cutoff=DEFAULT_CUTOFF):
    """Post-anneal frequency prediction from the measured resistance."""
    if not all(0 < x < math.inf for x in (r_j_measured, r_j_reference, e_j_reference, e_c)):
        raise DomainError("all arguments must be positive and finite")
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

    RULES = {"r_start": POSITIVE, "r_target": POSITIVE, "exposure_threshold": NON_NEGATIVE,
             "power_schedule": Field(lambda v: isinstance(v, (list, tuple)) and len(v) > 0,
                                     "a non-empty list", item=POSITIVE),
             "initial_exposure": POSITIVE, "exposure_growth": POSITIVE}

    def __post_init__(self):
        check(self, DomainError)
        if self.r_target <= self.r_start:
            refuse(self, DomainError, "r_target",
                   f"must exceed the starting resistance {self.r_start!r}")


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
