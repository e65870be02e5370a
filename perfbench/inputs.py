"""Seeded input generation for the three workloads.

Inputs are plain dicts and arrays built from the benchmark's own
reference model (``reference``); nothing here imports resotrim, so the
program receives only generated data. The same seed gives the same inputs.
The shape of each workload (sizes, point counts, shoelace budgets) is
fixed; the seed only moves values inside fixed ranges, so the amount of
work per operation barely depends on it.
"""

import math

import numpy as np

import reference

N_SITES = 17
TRACE_POINTS = 1201
TRACE_NOISE = 0.005  # IQ noise per quadrature, in units of the off-resonant level
SHOTS_PER_STATE = 50_000
FEEDLINE_SIZES = (2, 3, 4, 6, 10, 17)
GUARD_BAND = 20e6  # Hz
NU_RHO = 1.076e8  # m/s, true phase velocity used to simulate trims
SHOELACES = 10  # per resonator on a fresh device
CROWDED_SHOELACES = 7  # left per resonator on the crowded feedlines


def _pair_trace(rng, f_r, f_p, j, kappa, noise=TRACE_NOISE, n=TRACE_POINTS):
    """Noisy trace of one pair with cable delay and complex gain.

    The span covers both modes plus 12 Purcell linewidths on each side,
    so the outer tenth used for baseline correction is nearly flat.
    """
    lo, hi, _, _ = reference.modes_2x2(f_r, f_p, j, kappa)
    span = float(hi - lo) + 24.0 * kappa
    center = 0.5 * float(lo + hi)
    f = np.linspace(center - span / 2, center + span / 2, n)
    tau = rng.uniform(40e-9, 80e-9)
    gain = rng.uniform(0.3, 1.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    z = reference.s21_pair(f, f_r, f_p, j, kappa)
    z = z + noise * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return f, gain * np.exp(-2j * math.pi * f * tau) * z


def fit_tolerance(f_r, f_p, j, kappa, span, n=TRACE_POINTS, noise=TRACE_NOISE):
    """Allowed error of a fitted bare frequency, from noise and linewidths.

    A dip of width w sampled every df with noise sigma locates its centre to
    about w * sigma / sqrt(w / df); the bare frequencies mix both modes, so
    the narrower mode w sets the scale. The tolerance is fifty of those
    noise widths plus a quarter of w for the bias of baseline correction,
    whose wings still hold the resonances' tails (up to 0.08 w on
    noise-free traces of this make-up).
    """
    _, _, k_lo, k_hi = reference.modes_2x2(f_r, f_p, j, kappa)
    w = float(min(k_lo, k_hi))
    df = span / (n - 1)
    return 50.0 * w * noise / math.sqrt(max(w / df, 1.0)) + 0.25 * w


def characterize_sites(seed, round_index):
    """17 sites: a noisy pair trace, transmon spectroscopy and IQ shots each.

    Site k has Purcell-readout detuning (-2 + 4 k / 16) J plus jitter, so
    a round spans matched to +-2J-detuned pairs in every seed. Each round
    of a run draws new sites: the fitter's cost swings with the noise
    realisation (a restart that creeps to max_iter costs 500 iterations,
    and how many do varies by about 14% between sets of 17 sites), so a
    run averages that over its rounds instead of repeating one draw.
    """
    rng = np.random.default_rng([seed, 1, round_index])
    sites = []
    for k in range(N_SITES):
        j = rng.uniform(8e6, 12e6)
        kappa = rng.uniform(2e6, 4e6)
        f_r = rng.uniform(6.9e9, 7.5e9)
        delta = (-2.0 + 4.0 * k / (N_SITES - 1) + rng.uniform(-0.05, 0.05)) * j
        f_p = f_r + delta
        f, z = _pair_trace(rng, f_r, f_p, j, kappa)
        e_c = rng.uniform(200e6, 300e6)
        e_j = e_c * rng.uniform(40.0, 70.0)
        f_q, alpha = reference.transmon_dense(e_j, e_c)
        sep = rng.uniform(2.5, 4.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        mean0 = rng.uniform(-5.0, 5.0, 2)
        mean1 = mean0 + sep * np.array([math.cos(angle), math.sin(angle)])
        n = SHOTS_PER_STATE
        pts = np.vstack([np.tile(mean0, (n, 1)), np.tile(mean1, (n, 1))])
        pts = pts + rng.standard_normal((2 * n, 2))
        sites.append({
            "id": f"site{k:02d}",
            "f_r": f_r, "f_p": f_p, "j": j, "kappa": kappa,
            "freqs": f, "s21": z,
            "tol": fit_tolerance(f_r, f_p, j, kappa, f[-1] - f[0]),
            "e_j": e_j, "e_c": e_c, "f_q": f_q, "alpha": alpha,
            "r_now": rng.uniform(5e3, 8e3),
            "f_target": f_q - rng.uniform(50e6, 200e6),
            "shots_i": pts[:, 0], "shots_q": pts[:, 1],
            "labels": np.repeat([0, 1], n),
            "separation": sep, "sigma": 1.0,
        })
    return sites


def _crowded_pairs(rng, count, f_start):
    """Near-matched pairs spaced 50 MHz apart with 20 MHz fabrication scatter.

    Every pair is within a third of a trim quantum of matched, so no
    matching trim is needed and each pair has exactly CROWDED_SHOELACES + 1
    joint candidates: the exhaustive search size does not depend on the
    seed. The spacing leaves the layouts solvable (20 of 20 seeds tried),
    which keeps the number of greedy sweeps, and so the cost of a pass,
    nearly the same in every seed: an unsolvable layout makes the greedy
    search sweep again and again (at 45 MHz, 7 of 60 greedy plans were
    infeasible and one 17-pair plan took 1.4 s against a median of 0.3 s).
    """
    pairs = []
    for i in range(count):
        center = f_start + i * 50e6 + rng.normal(0.0, GUARD_BAND)
        quantum = reference.trim_quantum(center, NU_RHO)
        f_r = center
        f_p = center + rng.uniform(-0.3, 0.3) * quantum
        pairs.append({
            "id": f"n{count}p{i:02d}", "f_r": f_r, "f_p": f_p,
            "j": rng.uniform(8e6, 12e6), "kappa": rng.uniform(2e6, 4e6),
            "rem_r": CROWDED_SHOELACES, "rem_p": CROWDED_SHOELACES,
        })
    return pairs


def crowded_feedlines(seed):
    """One crowded feedline of each size in FEEDLINE_SIZES."""
    rng = np.random.default_rng([seed, 2])
    return [_crowded_pairs(rng, n, rng.uniform(6.9e9, 7.1e9)) for n in FEEDLINE_SIZES]


def cli_device(seed):
    """A 17-pair, 3-feedline device: truth per pair and one trace CSV body each.

    Each Purcell filter starts 0.5-2 J above its readout resonator, so both
    trim cycles have work to do while the narrower mode stays resolved on
    the trace grid (a wider mismatch would need far denser traces).
    """
    rng = np.random.default_rng([seed, 3])
    pairs = []
    for k in range(N_SITES):
        j = rng.uniform(8e6, 12e6)
        kappa = rng.uniform(2e6, 4e6)
        f_r = rng.uniform(7.6e9, 8.0e9)
        f_p = f_r + rng.uniform(0.5, 2.0) * j
        f, z = _pair_trace(rng, f_r, f_p, j, kappa)
        pairs.append({
            "id": f"pair{k:02d}", "readout": f"r{k:02d}", "purcell": f"p{k:02d}",
            "feedline": f"fl{k % 3}", "f_r": f_r, "f_p": f_p, "j": j, "kappa": kappa,
            "chi": -rng.uniform(1e6, 3e6),
            "freqs": f, "s21": z,
            "tol": fit_tolerance(f_r, f_p, j, kappa, f[-1] - f[0]),
        })
    return pairs
