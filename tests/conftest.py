"""Shared synthetic-trace helpers for the test suite."""

import numpy as np
from hypothesis import settings

from resotrim.fitting import TransmissionTrace
from resotrim.pairmodel import PairParams, eigenmodes, s21

# CI runs with --hypothesis-profile=ci: the same examples on every run, so a
# red CI run replays locally with the same flag
settings.register_profile("ci", derandomize=True)


def synth_trace(p, span, n, center=None, noise=0.0, seed=0, model=s21):
    """Sampled transmission of a pair, optionally with IQ noise."""
    if center is None:
        center = 0.5 * (p.f_r + p.f_p)
    f = np.linspace(center - span / 2, center + span / 2, n)
    z = model(f, p)
    if noise:
        rng = np.random.default_rng(seed)
        z = z + rng.normal(0, noise, n) + 1j * rng.normal(0, noise, n)
    return TransmissionTrace(freqs=f, values=z)


def random_regime(rng):
    """Random pair spanning matched to strongly mismatched, with a trace
    that resolves the narrower hybridized linewidth."""
    j = 10 ** rng.uniform(6.3, 7.3)
    kappa = 10 ** rng.uniform(5.7, 7.3)
    d = rng.uniform(-4, 4) * j
    f_r = 7.5e9 + rng.uniform(-1e7, 1e7)
    truth = PairParams(f_r=f_r, f_p=f_r + (d if abs(d) > 1 else 1.0), j=j, kappa=kappa)
    lo, hi = eigenmodes(truth)
    keffs = [max(m.kappa_eff, 1e3) for m in (lo, hi)]
    span = abs(hi.f_mode - lo.f_mode) + 15 * max(keffs)
    n = int(np.clip(5 * span / min(keffs), 801, 20001))
    center = 0.5 * (lo.f_mode + hi.f_mode)
    return truth, synth_trace(truth, span, n, center=center)
