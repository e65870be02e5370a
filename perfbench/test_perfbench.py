"""Self-tests of the benchmark: python3 -m pytest perfbench -q

The reference computations are checked against identities that hold
without resotrim, and the entry point must fail loudly when BENCHMARK.json
names a workload or metric the benchmark does not produce.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import reference
import run
import tracing
import worker
from workloads import Op

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def test_matched_pair_splits_by_2j_with_half_linewidths():
    j, kappa = 10e6, 100.0
    lo, hi, k_lo, k_hi = reference.modes_2x2(7.5e9, 7.5e9, j, kappa)
    assert abs((hi - lo) - 2 * j) / (2 * j) < 1e-9
    assert abs(k_lo - kappa / 2) / (kappa / 2) < 1e-6
    assert abs(k_hi - kappa / 2) / (kappa / 2) < 1e-6


def test_transmission_is_unity_at_the_bare_readout_frequency_and_far_away():
    f_r, f_p = 7.5e9, 7.51e9
    assert reference.s21_pair(f_r, f_r, f_p, 10e6, 3e6) == 1.0
    assert abs(reference.s21_pair(8.5e9, f_r, f_p, 10e6, 3e6) - 1.0) < 1e-3


def test_transmon_approaches_the_asymptotic_frequency():
    e_c = 250e6
    errors = []
    for ratio in (50, 200, 1000):
        f_q, alpha = reference.transmon_dense(ratio * e_c, e_c)
        errors.append(abs(f_q - (math.sqrt(8 * ratio * e_c * e_c) - e_c)) / f_q)
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 2e-4
    assert abs(alpha + e_c) / e_c < 0.05


def test_fidelity_equals_the_gaussian_overlap():
    d, sigma = 3.0, 1.2
    x = np.linspace(-20.0, 23.0, 400_001)
    p0 = np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    p1 = np.exp(-0.5 * ((x - d) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    overlap = np.trapezoid(np.minimum(p0, p1), x)
    assert abs(reference.gaussian_fidelity(d, sigma) - (1 - 0.5 * overlap)) < 1e-9


def test_trim_shift_of_one_shoelace_at_7_5_ghz():
    assert abs(reference.trim_shift(7.5e9, 1.076e8, 5e-6) + 10.456e6) < 1e3


def test_exhaustive_search_on_a_hand_made_two_pair_feedline():
    # Matched pairs at 7.30 and 7.32 GHz overlap within a 20 MHz guard band.
    # Only the lower pair can move away (trims only lower frequencies): two
    # shoelaces shift it 19.8 MHz, one short of the band, so three from
    # each of its resonators is the cheapest violation-free, matched plan.
    pairs = [{"id": f"p{k}", "f_r": f, "f_p": f, "j": 10e6, "kappa": 2e6,
              "rem_r": 10, "rem_p": 10} for k, f in enumerate((7.30e9, 7.32e9))]
    removals, score = reference.crowding_optimum(pairs, 20e6, 1.076e8)
    assert removals == [(3, 3), (0, 0)]
    assert score == (0, 0.0, 6)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_a_workload_named_in_benchmark_json_but_not_built_fails():
    spec = _spec()
    spec["workloads"].append({"name": "serve-traffic", "why": "not built"})
    with pytest.raises(run.BenchError, match="serve-traffic"):
        run.check_workload(spec, "characterize")


def test_a_metric_named_in_benchmark_json_but_not_produced_fails():
    spec = _spec()
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}
    run.check_metrics(spec, metrics, trace=0)
    del metrics["wall_s"]
    with pytest.raises(run.BenchError, match="wall_s"):
        run.check_metrics(spec, metrics, trace=0)


def test_per_layer_output_covers_every_per_layer_metric():
    spans = [
        ["fitting.fit_pair", 0.0, 2.0, -1, "op", {"source": "t.csv", "f_r": 1.0, "f_p": 2.0,
                                                  "converged": True, "iterations": 7}],
        ["planner.plan_crowding.n4", 3.0, 6.0, -1, "op", {"feasible": True}],
        ["pairmodel.eigenmodes", 4.0, 5.0, 1, "op", None],
    ]
    ops = [Op(kind, 0.5, False, None) for kind in worker.CLI_KINDS]
    metrics = worker.per_layer([spans], {"t.csv": (1.0, 2.0, 0.1)}, ops, 100, 1.0, 0.2)
    run.check_metrics(_spec(), metrics, trace=1)
    assert metrics["planner.plan_crowding.n4.busy_s"]["value"] == 2.0  # 3 s minus its child
    assert metrics["planner.plan_crowding.eigenmodes_per_plan"]["value"] == 1
    assert metrics["fitting.fit_pair.recovered_ratio"]["value"] == 1.0


def test_tracer_wraps_names_bound_in_other_modules_and_nests_spans():
    code = (
        "import resotrim, resotrim.cli, tracing\n"
        "t = tracing.Tracer().install(resotrim)\n"
        "assert resotrim.cli.fit_pair is resotrim.fitting.fit_pair\n"
        "assert hasattr(resotrim.cli.fit_pair, '__wrapped_by_tracer__')\n"
        "resotrim.transmon.invert_spectroscopy(5e9, -250e6)\n"
        "calls, _, _, _ = tracing.layer_totals([t.spans])\n"
        "assert calls['transmon.invert_spectroscopy'] == 1\n"
        "assert calls['transmon.transmon_spectrum'] > 3\n"
        "assert all(s[3] == 0 for s in t.spans[1:])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, os.path.join(ROOT, "src")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_unknown_workload_fails_without_a_result():
    proc = _run(ROOT, "--workload", "no-such-workload", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "no-such-workload" in proc.stderr
    assert "{" not in proc.stdout


def test_fails_without_a_result_where_only_the_benchmark_exists(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "characterize", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
