"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.stats import norm

from resotrim.cli import main as cli_main
from resotrim.fitting import fit_pair, initial_guess
from resotrim.pairmodel import (
    PairParams,
    eigenmodes,
    kappa_eff_pair,
    matching_figure,
)
from resotrim.planner import (
    DEFAULT_PITCH,
    NAIVE_SLOPE,
    PairEntry,
    ResonatorRecord,
    ShoelaceArray,
    eq2_shift_fn,
    freq_shift,
    linear_shift_fn,
    plan_crowding,
    plan_match_all,
    simulate_outcomes,
    two_cycle_protocol,
)
from resotrim.readout import BlobModel, assignment_fidelity, depletion_time, pqnd, synth_shots
from resotrim.registry import DeviceRegistry, PairLink, load_registry, save_registry
from resotrim.transmon import (
    AnnealConfig,
    LogAnnealResponse,
    anneal_closed_loop,
    asymptotic_fq,
    invert_spectroscopy,
    predict_fq,
    rj_target,
    transmon_spectrum,
)
from resotrim.transmon import _ej_from_fq

from conftest import random_regime, synth_trace

NU_RHO = 1.076e8  # m/s


def verdict(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def record(rid, role, f, remaining=10):
    return ResonatorRecord(
        id=rid, role=role, f_meas=f,
        shoelaces=ShoelaceArray(total=10, remaining=remaining),
    )


def test_criterion_01_linewidth_formula_matches_eigenvalues():
    """Closed-form effective linewidths vs coupled-mode eigenvalues."""
    rng = np.random.default_rng(101)
    n = 10_000
    kappa = 10 ** rng.uniform(4.0, 7.5, n)
    j = kappa * 10 ** rng.uniform(-2.0, 2.0, n)  # J/kappa in [0.01, 100]
    delta = rng.uniform(-3.0, 3.0, n) * np.maximum(j, kappa)

    t0 = time.time()
    closed = np.sort(np.stack(kappa_eff_pair(j, kappa, delta), axis=1), axis=1)
    # detuning-frame matrices keep the norm at the rate scale so the
    # 1e-9 relative comparison is not swamped by eigenvalue rounding
    mats = np.zeros((n, 2, 2), dtype=complex)
    mats[:, 0, 1] = mats[:, 1, 0] = j
    mats[:, 1, 1] = delta - 0.5j * kappa
    vals = np.linalg.eigvals(mats)
    numeric = np.sort(-2.0 * vals.imag, axis=1)
    elapsed = time.time() - t0

    rel = np.abs(closed - numeric) / np.maximum(np.abs(numeric), 1e-300)
    worst = float(rel.max())
    verdict(
        1,
        worst < 1e-9 and elapsed < 5.0,
        f"Eq.1 vs eigenvalues: worst relative deviation {worst:.2e} over "
        f"{n} triples in {elapsed:.2f} s",
    )


def test_criterion_02_matched_pair_physics():
    """Split 2J, linewidths kappa/2, per-mode pull chi/2 at zero detuning."""
    p = PairParams(f_r=7.5e9, f_p=7.5e9, j=10e6, kappa=100.0, chi=-0.2e6)
    lo, hi = eigenmodes(p)
    split_err = abs((hi.f_mode - lo.f_mode) - 2 * p.j) / (2 * p.j)
    keff_err = max(
        abs(lo.kappa_eff - p.kappa / 2), abs(hi.kappa_eff - p.kappa / 2)
    ) / (p.kappa / 2)
    chi_err = max(
        abs(lo.chi_eff - p.chi / 2), abs(hi.chi_eff - p.chi / 2)
    ) / abs(p.chi / 2)
    verdict(
        2,
        split_err < 1e-9 and keff_err < 1e-6 and chi_err < 0.01,
        f"matched pair: split error {split_err:.2e}, kappa_eff error "
        f"{keff_err:.2e}, chi_eff error {chi_err:.2e}",
    )


def test_criterion_03_shift_arithmetic():
    """Trim-shift formula value and naive-slope consistency."""
    shift = freq_shift(7.5e9, NU_RHO, 5e-6)
    slope = freq_shift(7.33e9, NU_RHO, 1e-6) / 1e-6
    ok_shift = abs(shift - (-10.456e6)) < 1e3
    ok_slope = abs(slope - NAIVE_SLOPE) / abs(NAIVE_SLOPE) < 0.02
    verdict(
        3,
        ok_shift and ok_slope,
        f"shift(7.5 GHz, 5 um) = {shift / 1e6:.4f} MHz; slope(7.33 GHz) = "
        f"{slope / 1e12:.4f} MHz/um",
    )


def test_criterion_04_fitter_recovery():
    """Noiseless round trips plus the noisy Monte Carlo study."""
    t0 = time.time()
    rng = np.random.default_rng(0)
    noiseless_fails = 0
    for _ in range(100):
        truth, trace = random_regime(rng)
        result = fit_pair(trace, initial_guess(trace))
        errs = [
            abs(getattr(result.params, name) - getattr(truth, name))
            / abs(getattr(truth, name))
            for name in ("f_r", "f_p", "j", "kappa")
        ]
        if max(errs) > 1e-6 or not result.converged:
            noiseless_fails += 1

    truth = PairParams(f_r=7.5e9, f_p=7.503e9, j=10e6, kappa=3e6)
    noisy_ok = 0
    for seed in range(100):
        trace = synth_trace(truth, span=5e7, n=801, noise=0.01, seed=seed)
        result = fit_pair(trace, initial_guess(trace))
        if (
            abs(result.params.f_r - truth.f_r) < 1e5
            and abs(result.params.f_p - truth.f_p) < 1e5
        ):
            noisy_ok += 1
    elapsed = time.time() - t0
    verdict(
        4,
        noiseless_fails == 0 and noisy_ok >= 95 and elapsed < 60.0,
        f"noiseless failures {noiseless_fails}/100, noisy recoveries "
        f"{noisy_ok}/100, total {elapsed:.1f} s",
    )


def test_criterion_05_two_cycle_protocol():
    """17-pair device: overshoot, velocity recovery, residual gaps."""
    t0 = time.time()
    rng = np.random.default_rng(42)
    pairs = []
    for k in range(17):
        fr = rng.uniform(7.6e9, 8.0e9)
        fp = fr + rng.uniform(5e6, 80e6)
        pairs.append((record(f"r{k}", "readout", fr), record(f"p{k}", "purcell", fp)))
    records = [rec for pair in pairs for rec in pair]
    cycle0 = {rec.id: rec.f_meas for rec in records}

    plan1 = plan_match_all(pairs, None, linear_shift_fn(), cycle_index=1)
    realized1 = simulate_outcomes(records, plan1, NU_RHO)
    overshoots = []
    for a in plan1.actions:
        realized = realized1[a.resonator_id] - cycle0[a.resonator_id]
        overshoots.append(abs(realized) > abs(a.predicted_delta_f))
    result = two_cycle_protocol(pairs, cycle0, realized1)
    records1 = [rec for pair in result.pairs_cycle1 for rec in pair]
    realized2 = simulate_outcomes(records1, result.plan_cycle2, NU_RHO)
    gaps = [abs(realized2[p.id] - realized2[r.id]) for r, p in pairs]
    elapsed = time.time() - t0

    nu_err = abs(result.nu_rho - NU_RHO) / NU_RHO
    verdict(
        5,
        all(overshoots)
        and nu_err < 0.02
        and np.mean(gaps) <= 5e6
        and max(gaps) <= 10e6
        and elapsed < 10.0,
        f"overshoot on {sum(overshoots)}/{len(overshoots)} trims, nu_rho error "
        f"{nu_err:.2e}, gaps mean {np.mean(gaps) / 1e6:.2f} / max "
        f"{max(gaps) / 1e6:.2f} MHz in {elapsed:.1f} s",
    )


def test_criterion_06_crowding_matches_exhaustive_optimum():
    """3-pair crowding fixture against brute-force search."""
    from resotrim.planner import _crowding_objective, _pair_candidates

    entries = []
    for k, f0 in enumerate((7.30e9, 7.325e9, 7.60e9)):
        entries.append(
            PairEntry(
                pair_id=f"pair{k}",
                params=PairParams(f_r=f0, f_p=f0, j=10e6, kappa=2e6),
                readout=record(f"r{k}", "readout", f0),
                purcell=record(f"p{k}", "purcell", f0),
            )
        )
    guard = 20e6
    plan = plan_crowding(entries, guard_band=guard, nu_rho=NU_RHO)

    shift = eq2_shift_fn(NU_RHO)
    candidates = [_pair_candidates(e, NU_RHO, shift) for e in entries]
    best = None
    for combo in itertools.product(*(range(len(c)) for c in candidates)):
        choice = [candidates[i][combo[i]] for i in range(len(entries))]
        score, _ = _crowding_objective(entries, choice, guard)
        if best is None or score < best:
            best = score
    removed = sum(a.n_remove for a in plan.actions)
    verdict(
        6,
        plan.feasible and plan.objective_after >= guard and removed == best[2]
        and best[0] == 0,
        f"min spacing {plan.objective_after / 1e6:.1f} MHz with {removed} "
        f"shoelaces removed (exhaustive optimum {best[2]})",
    )


def test_criterion_07_transmon_inversion():
    """Spectroscopy inversion round trips and self-consistency."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for ratio in np.linspace(20.2, 100.0, 15):
        e_c = rng.uniform(180e6, 320e6)
        f_q, alpha = transmon_spectrum(ratio * e_c, e_c, cutoff=40)
        e_j2, e_c2 = invert_spectroscopy(f_q, alpha, cutoff=40)
        f2, a2 = transmon_spectrum(e_j2, e_c2, cutoff=40)
        worst = max(worst, abs(f2 - f_q), abs(a2 - alpha))

    e_c = 280e6
    errs = [
        abs(transmon_spectrum(r * e_c, e_c, cutoff=40)[0] - asymptotic_fq(r * e_c, e_c))
        / transmon_spectrum(r * e_c, e_c, cutoff=40)[0]
        for r in (20, 35, 60, 100, 150, 200)
    ]
    monotone = all(a > b for a, b in zip(errs, errs[1:]))

    r_now, f_now, f_target = 6000.0, 6.0e9, 5.75e9
    e_j_now = _ej_from_fq(f_now, e_c)
    r_t = rj_target(r_now, f_now, f_target, e_c)
    consistency = abs(predict_fq(r_t, r_now, e_j_now, e_c) - f_target)
    verdict(
        7,
        worst < 1e3 and monotone and consistency < 1e3,
        f"round-trip worst residual {worst:.1f} Hz, asymptotic error monotone: "
        f"{monotone}, rj_target/predict_fq consistency {consistency:.1f} Hz",
    )


def test_criterion_08_anneal_power_escalation():
    """Saturating response at P1, success at P2, monotone resistance."""
    config = AnnealConfig(
        r_start=6000.0, r_target=6120.0, exposure_threshold=3600.0,
        power_schedule=[0.17, 0.2],
    )
    response = LogAnnealResponse({0.17: (0.001, 1.0), 0.2: (0.02, 1.0)})
    trace = anneal_closed_loop(config, response)
    powers = [p for p, _, _ in trace.history]
    escalated = 0.17 in powers and 0.2 in powers and powers.index(0.2) > powers.index(0.17)
    rs = trace.resistances()
    monotone = all(b >= a for a, b in zip(rs, rs[1:]))
    verdict(
        8,
        trace.status == "success" and escalated and monotone,
        f"status {trace.status}, powers visited {sorted(set(powers))}, "
        f"resistance monotone: {monotone}",
    )


def test_criterion_09_readout_estimators():
    """Fidelity vs Gaussian overlap, exact pqnd, depletion contrast."""
    model = BlobModel(mean0=(0.0, 0.0), mean1=(4.0, 0.0), sigma=1.0)
    bench = assignment_fidelity(synth_shots(model, 1_000_000, seed=5))
    want = 1.0 - norm.cdf(-2.0)
    f_err = abs(bench.f_ro - want) / want

    # scripted sequences with exactly known conditional probabilities:
    # p(m1=0 | m2=1) = 3/4 and p(m1=1 | m2=0) = 1/2
    m1 = np.array([0, 0, 0, 1, 1, 0])
    m2 = np.array([1, 1, 1, 1, 0, 0])
    exact = pqnd(m1, m2) == (0.75 + 0.5) / 2

    keff_pre, _ = kappa_eff_pair(10e6, 20e6, 80e6)
    keff_post, _ = kappa_eff_pair(10e6, 20e6, 0.0)
    ratio = depletion_time(keff_pre, 100.0) / depletion_time(keff_post, 100.0)
    verdict(
        9,
        f_err < 0.002 and exact and ratio > 3.0,
        f"F_RO error {f_err:.2e} vs analytic, pqnd exact: {exact}, "
        f"depletion contrast {ratio:.1f}x",
    )


def test_criterion_10_cli_end_to_end(tmp_path):
    """The criterion-5 scenario driven purely through CLI commands."""
    rng = np.random.default_rng(1042)
    reg = DeviceRegistry(device_id="acceptance")
    for k in range(17):
        fr = rng.uniform(7.6e9, 8.0e9)
        fp = fr + rng.uniform(5e6, 80e6)
        reg.resonators[f"r{k:02d}"] = record(f"r{k:02d}", "readout", fr)
        reg.resonators[f"p{k:02d}"] = record(f"p{k:02d}", "purcell", fp)
        reg.pairs[f"pair{k:02d}"] = PairLink(
            id=f"pair{k:02d}", transmon=None, readout=f"r{k:02d}",
            purcell=f"p{k:02d}", feedline="fl0",
            j=15e6, kappa=20e6, chi=-20e6,
        )
    reg_path = tmp_path / "registry.json"
    save_registry(reg, reg_path)
    runner = CliRunner()

    def run(*args):
        result = runner.invoke(cli_main, list(args))
        assert result.exit_code == 0, f"{args}: {result.output}"
        return result.output

    plan1 = tmp_path / "plan1.json"
    run("plan", "pair", "--registry", str(reg_path), "--all-pairs",
        "--naive-slope", "--out", str(plan1))
    run("apply", "--registry", str(reg_path), "--plan", str(plan1),
        "--simulate-true-nu-rho", str(NU_RHO))
    out = run("fit-nu-rho", "--registry", str(reg_path), "--cycle", "1")
    nu_fit = json.loads(out)["nu_rho_m_per_s"]
    plan2 = tmp_path / "plan2.json"
    run("plan", "pair", "--registry", str(reg_path), "--all-pairs",
        "--nu-rho", str(nu_fit), "--out", str(plan2))
    run("apply", "--registry", str(reg_path), "--plan", str(plan2),
        "--simulate-true-nu-rho", str(NU_RHO))
    rows = json.loads(run("report", "--registry", str(reg_path), "--json"))

    figures = [row["matching_low"] for row in rows] + [row["matching_high"] for row in rows]
    in_band = all(0.3 <= fig <= 3.0 for fig in figures)
    nu_err = abs(nu_fit - NU_RHO) / NU_RHO
    verdict(
        10,
        len(rows) == 17 and in_band and nu_err < 0.02,
        f"CLI two-cycle run: fitted nu_rho error {nu_err:.2e}, matching "
        f"figures span [{min(figures):.2f}, {max(figures):.2f}] across "
        f"{len(rows)} pairs",
    )
