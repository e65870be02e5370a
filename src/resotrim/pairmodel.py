"""Coupled-mode models of a readout/Purcell resonator pair on an open feedline.

All public interfaces use ordinary frequency (Hz); angular factors live
inside the formulas. The transmission and linewidth expressions are
homogeneous of degree zero in the rates, so they are evaluated directly in
Hz without explicit 2*pi conversion.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, InvalidParamsError
from .rules import FINITE, NON_NEGATIVE, POSITIVE, check

__all__ = [
    "PairParams", "ModeDescriptor", "s21", "kappa_eff_pair", "eigenmodes", "matching_figure",
]


@dataclass(frozen=True)
class PairParams:
    """Physical parameters of one readout/Purcell pair.

    Frequencies and rates are ordinary frequencies in Hz. ``chi`` is the
    full dispersive pull of the readout resonator (signed, Hz) when the
    transmon goes from ground to first excited state; the readout
    frequency ``f_r`` is understood to already include the Lamb shift.
    """

    f_r: float
    f_p: float
    j: float
    kappa: float
    gamma_r: float = 0.0
    gamma_p: float = 0.0
    chi: float = 0.0

    RULES = {"f_r": POSITIVE, "f_p": POSITIVE, "j": POSITIVE, "kappa": POSITIVE,
             "gamma_r": NON_NEGATIVE, "gamma_p": NON_NEGATIVE, "chi": FINITE}

    def __post_init__(self):
        check(self, InvalidParamsError)

    @property
    def delta_pr(self):
        """Purcell-readout detuning f_p - f_r in Hz."""
        return self.f_p - self.f_r

    def with_frequencies(self, f_r, f_p):
        return replace(self, f_r=f_r, f_p=f_p)


@dataclass(frozen=True)
class ModeDescriptor:
    """One hybridized mode of the pair.

    ``chi_eff`` is the state-dependent frequency pull of this mode in Hz
    (the analogue of ``PairParams.chi`` for the hybridized mode);
    ``r_weight`` is the readout-resonator fraction of the eigenvector.
    ``degenerate`` flags an exceptional-point result where the two modes
    coalesce and the weights default to 1/2.
    """

    f_mode: float
    kappa_eff: float
    chi_eff: float
    r_weight: float
    degenerate: bool = False


def _s21(f, f_r, f_p, j, kappa, g_r=0.0, g_p=0.0, n_jac=0):
    """Pair transmission from plain-float parameters, optionally with partials.

    ``g_r`` is the readout loss rate gamma_r and ``g_p`` the Purcell
    intrinsic loss gamma_p. With ``n_jac`` of 4 or 6, also
    returns the first ``n_jac`` partial derivatives of S21 with respect
    to (f_r, f_p, j, kappa, g_r, g_p), as a list of arrays.
    """
    t_r = g_r + 2j * (f_r - f)
    t_p = g_p + 2j * (f_p - f) + kappa
    num = 0.5 * kappa * t_r
    den = 4.0 * j**2 + t_p * t_r
    if not n_jac:
        return 1.0 - num / den
    # d(num/den) = d num * inv - a * d den, with inv = 1/den and a = num/den^2: no division by den^2
    inv = 1.0 / den
    a = num * inv * inv
    partials = [
        a * (2j * t_p) - (1j * kappa) * inv,
        a * (2j * t_r),
        (8.0 * j) * a,
        a * t_r - 0.5 * t_r * inv,
    ]
    if n_jac > 4:
        partials += [a * t_p - (0.5 * kappa) * inv, a * t_r]
    return 1.0 - num * inv, partials


def s21(f, p):
    """Feedline transmission of a pair, intrinsic losses included, at probe
    frequency f (Hz). Accepts a scalar or array of frequencies; returns
    complex values.
    """
    out = _s21(np.asarray(f, dtype=float), p.f_r, p.f_p, p.j, p.kappa, p.gamma_r, p.gamma_p)
    return out if np.ndim(out) else complex(out)


# relative eigenvalue gap below which the pair is treated as defective
_EP_RTOL = 1e-9


def _modes(f_r, f_p, j, g_r, g_p):
    """Closed-form modes of the coupled-mode matrix, broadcast over arrays.

    The matrix is [[f_r - i g_r/2, j], [j, f_p - i g_p/2]] in Hz. With
    h = ((f_p - f_r) - i (g_p - g_r)/2) / 2 and s = sqrt(h^2 + j^2) on the
    principal branch (Re s >= 0), its eigenvalues are f_r - i g_r/2 + h -/+ s
    and the readout weight of each eigenvector is j^2 / (j^2 + |h -/+ s|^2).
    Returns (eigenvalues, readout weights, |eigenvalue gap|); the first two
    carry a new leading axis holding the lower then the upper mode.
    """
    h = 0.5 * ((f_p - f_r) - 0.5j * (g_p - g_r))
    s = np.sqrt(h * h + j * j)
    hs = np.stack([h - s, h + s])
    weights = j * j / (j * j + np.abs(hs) ** 2)
    return (f_r - 0.5j * g_r) + hs, weights, 2.0 * np.abs(s)


def kappa_eff_pair(j, kappa, delta_pr):
    """Closed-form effective linewidths of the two hybridized modes (Hz).

    Returns (R-like, P-like), i.e. the minus and plus branches of

        kappa_eff = (kappa +/- Re sqrt(-16 J^2 + (kappa - 2i Delta)^2)) / 2

    with the principal branch of the square root (Re >= 0), so the R-like
    linewidth is never the larger of the two. Lossless formula; lossy
    cases go through :func:`eigenmodes`.
    """
    j = np.asarray(j, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    delta_pr = np.asarray(delta_pr, dtype=float)
    if not all(np.all(np.isfinite(x)) for x in (j, kappa, delta_pr)):
        raise DomainError("j, kappa and delta_pr must be finite")
    if np.any(j <= 0) or np.any(kappa <= 0):
        raise DomainError("j and kappa must be positive")
    vals, _, _ = _modes(0.0, delta_pr, j, 0.0, kappa)
    kappas = -2.0 * vals.imag
    r_like, p_like = kappas.min(axis=0), kappas.max(axis=0)
    if r_like.ndim == 0:
        return float(r_like), float(p_like)
    return r_like, p_like


def eigenmodes(p, qubit_state="ground"):
    """Hybridized modes of the pair for the given qubit state.

    Solves the coupled-mode problem for both qubit states; each returned
    :class:`ModeDescriptor` carries the frequency, linewidth and
    eigenvector weight for the requested state and the state-dependent
    frequency pull ``chi_eff`` of that mode (excited minus ground, modes
    paired by frequency order). At an exceptional point (4J = kappa,
    Delta_PR = 0) the matrix is defective: two equal eigenvalues are
    returned with r_weight 0.5 and the degenerate flag set.
    """
    if qubit_state not in ("ground", "excited"):
        raise DomainError(f"unknown qubit state {qubit_state!r}")
    # last axis: ground, excited (chi sits on the bare readout frequency)
    vals, weights, gap = _modes(
        p.f_r + np.array([0.0, p.chi]), p.f_p, p.j,
        p.gamma_r, p.kappa + p.gamma_p,
    )
    pulls = vals.real[:, 1] - vals.real[:, 0]
    k = 0 if qubit_state == "ground" else 1
    vals, weights = vals[:, k], weights[:, k]
    degenerate = gap[k] <= _EP_RTOL * max(abs(vals[0]), abs(vals[1]), p.kappa)
    if degenerate:
        weights = (0.5, 0.5)
    return tuple(
        ModeDescriptor(
            f_mode=float(vals[m].real),
            kappa_eff=float(-2.0 * vals[m].imag),
            chi_eff=float(pulls[m]),
            r_weight=float(weights[m]),
            degenerate=bool(degenerate),
        )
        for m in range(2)
    )


def matching_figure(chi_eff, kappa_eff):
    """SNR matching ratio |2 chi_eff| / kappa_eff; 1.0 is the optimum."""
    if not (0 < kappa_eff < np.inf and -np.inf < chi_eff < np.inf):
        raise DomainError("kappa_eff must be positive and finite, chi_eff finite")
    return abs(2.0 * chi_eff) / kappa_eff
