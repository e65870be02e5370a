"""Reference computations the benchmark checks resotrim against.

Everything here is written from the physics, independently of the
``resotrim`` package, and imports nothing from it: the pair transmission,
the closed-form 2x2 mode problem, a dense charge-basis transmon, the
Gaussian-overlap fidelity, the shoelace trim formula (Eq. 2) and an
exhaustive crowding search. Frequencies and rates are in Hz.
"""

import itertools
import math

import numpy as np

PITCH = 5e-6  # m, one shoelace


def s21_pair(f, f_r, f_p, j, kappa):
    """Lossless feedline transmission of a readout/Purcell pair.

    Input-output form with the readout resonator hanging off the Purcell
    filter: S21 = 1 - (kappa/4) / (kappa/2 + i d_p + J^2 / (i d_r)),
    with d = f_resonator - f, multiplied out so that d_r = 0 is finite.
    """
    f = np.asarray(f, dtype=float)
    d_r = f_r - f
    d_p = f_p - f
    return 1.0 - 0.25 * kappa * 1j * d_r / ((0.5 * kappa + 1j * d_p) * 1j * d_r + j**2)


def modes_2x2(f_r, f_p, j, kappa):
    """Closed-form modes of [[f_r, J], [J, f_p - i kappa/2]].

    Returns (f_low, f_high, kappa_low, kappa_high), sorted by frequency;
    each linewidth is -2 Im of its eigenvalue. Broadcasts over arrays.
    """
    a = np.asarray(f_r, dtype=complex)
    d = np.asarray(f_p, dtype=float) - 0.5j * np.asarray(kappa, dtype=float)
    mean = 0.5 * (a + d)
    root = np.sqrt((0.5 * (a - d)) ** 2 + np.asarray(j, dtype=float) ** 2)
    lam1, lam2 = mean - root, mean + root
    swap = lam1.real > lam2.real
    lo = np.where(swap, lam2, lam1)
    hi = np.where(swap, lam1, lam2)
    return lo.real, hi.real, -2.0 * lo.imag, -2.0 * hi.imag


def transmon_dense(e_j, e_c, cutoff=30):
    """(f_q, alpha) from the dense charge-basis Hamiltonian.

    H = 4 E_c n^2 on the diagonal and -E_J/2 between neighbouring charge
    states, n in [-cutoff, cutoff], diagonalised with ``eigvalsh``.
    """
    n = np.arange(-cutoff, cutoff + 1, dtype=float)
    h = np.diag(4.0 * e_c * n**2)
    h += np.diag(np.full(2 * cutoff, -0.5 * e_j), 1)
    h += np.diag(np.full(2 * cutoff, -0.5 * e_j), -1)
    e = np.linalg.eigvalsh(h)[:3]
    return e[1] - e[0], e[2] - 2.0 * e[1] + e[0]


def gaussian_fidelity(separation, sigma):
    """Assignment fidelity 1 - Phi(-d / 2 sigma) of two equal Gaussian blobs."""
    x = -separation / (2.0 * sigma)
    return 1.0 - 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def trim_shift(f0, nu_rho, delta_l):
    """Eq. 2: frequency shift of a quarter-wave resonator lengthened by delta_l."""
    return -4.0 * f0**2 * delta_l / nu_rho


def trim_quantum(f0, nu_rho, pitch=PITCH):
    """Magnitude of the shift from removing one shoelace."""
    return abs(trim_shift(f0, nu_rho, pitch))


def _match_count(f_high, f_low, remaining, nu_rho, pitch):
    """Shoelaces to remove from the higher resonator to best close the gap."""
    gap = f_high - f_low
    if gap <= 0.5 * trim_quantum(f_high, nu_rho, pitch):
        return 0
    best_n, best_gap = 0, gap
    for n in range(1, remaining + 1):
        new_gap = abs(f_high + trim_shift(f_high, nu_rho, n * pitch) - f_low)
        if new_gap < best_gap - 1e-12 * max(1.0, gap):
            best_n, best_gap = n, new_gap
    return best_n


def pair_candidates(pair, nu_rho, pitch=PITCH):
    """Joint (n_readout, n_purcell) removals for one pair.

    ``pair`` is a dict with f_r, f_p, rem_r, rem_p. The candidates are the
    matching trim of the higher resonator plus k extra shoelaces from both,
    for every k the budgets allow, in increasing k.
    """
    f_r, f_p = pair["f_r"], pair["f_p"]
    n_r = n_p = 0
    if f_p >= f_r:
        n_p = _match_count(f_p, f_r, pair["rem_p"], nu_rho, pitch)
    else:
        n_r = _match_count(f_r, f_p, pair["rem_r"], nu_rho, pitch)
    head = min(pair["rem_r"] - n_r, pair["rem_p"] - n_p)
    return [(n_r + k, n_p + k) for k in range(head + 1)]


def trimmed(f0, n, nu_rho, pitch=PITCH):
    return f0 + trim_shift(f0, nu_rho, n * pitch) if n else f0


def min_interpair_spacing(modes):
    """Smallest |f_a - f_b| over modes of different pairs; modes[i] = (lo, hi)."""
    best = math.inf
    for m1, m2 in itertools.combinations(modes, 2):
        for fa in m1:
            for fb in m2:
                best = min(best, abs(fa - fb))
    return best


def crowding_optimum(pairs, guard_band, nu_rho, pitch=PITCH):
    """Exhaustive crowding optimum over the joint candidates of every pair.

    Minimises, in this order, guard-band violations between modes of
    different pairs, the summed |f_P - f_R| mismatch and the shoelaces
    removed; ties go to the first combination in candidate order. Returns
    (removals, score) with removals a list of (n_readout, n_purcell).
    """
    cands = [pair_candidates(p, nu_rho, pitch) for p in pairs]
    lows, highs, mism, removed = [], [], [], []
    for p, cs in zip(pairs, cands):
        fr = np.array([trimmed(p["f_r"], a, nu_rho, pitch) for a, _ in cs])
        fp = np.array([trimmed(p["f_p"], b, nu_rho, pitch) for _, b in cs])
        lo, hi, _, _ = modes_2x2(fr, fp, p["j"], p["kappa"])
        lows.append(lo)
        highs.append(hi)
        mism.append(np.abs(fp - fr))
        removed.append(np.array([a + b for a, b in cs]))
    shape = [len(c) for c in cands]
    grids = np.meshgrid(*[np.arange(s) for s in shape], indexing="ij")
    idx = [g.ravel() for g in grids]
    violations = np.zeros(idx[0].size, dtype=int)
    mismatch = np.zeros(idx[0].size)
    total = np.zeros(idx[0].size, dtype=int)
    for i in range(len(pairs)):
        mismatch = mismatch + mism[i][idx[i]]
        total += removed[i][idx[i]]
    for i, k in itertools.combinations(range(len(pairs)), 2):
        for fa in (lows[i][idx[i]], highs[i][idx[i]]):
            for fb in (lows[k][idx[k]], highs[k][idx[k]]):
                violations += np.abs(fa - fb) < guard_band
    order = np.lexsort((np.arange(violations.size), total, mismatch, violations))
    best = order[0]
    removals = [cands[i][idx[i][best]] for i in range(len(pairs))]
    return removals, (int(violations[best]), float(mismatch[best]), int(total[best]))
