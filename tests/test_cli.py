"""CLI surface tests driven through click's runner."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import resotrim
from resotrim.cli import main
from resotrim.fitting import TransmissionTrace
from resotrim.pairmodel import PairParams, s21_ideal
from resotrim.planner import ResonatorRecord, ShoelaceArray
from resotrim.registry import (
    DeviceRegistry,
    PairLink,
    load_registry,
    save_registry,
    save_trace,
)

NU_RHO = 1.076e8


@pytest.fixture
def runner():
    return CliRunner()


def small_registry(path, pairs):
    """Write a registry with the given (f_r, f_p) pairs and return it."""
    reg = DeviceRegistry(device_id="cli-test")
    for k, (fr, fp) in enumerate(pairs):
        reg.resonators[f"r{k}"] = ResonatorRecord(
            id=f"r{k}", role="readout", f_meas=fr,
            shoelaces=ShoelaceArray(total=10, remaining=10),
        )
        reg.resonators[f"p{k}"] = ResonatorRecord(
            id=f"p{k}", role="purcell", f_meas=fp,
            shoelaces=ShoelaceArray(total=10, remaining=10),
        )
        reg.pairs[f"pair{k}"] = PairLink(
            id=f"pair{k}", transmon=None, readout=f"r{k}", purcell=f"p{k}",
            feedline="fl0", j=10e6, kappa=20e6, chi=-10e6,
        )
    save_registry(reg, path)
    return reg


class TestFitCommand:
    def test_fit_prints_parameters_and_updates_registry(self, runner, tmp_path):
        truth = PairParams(f_r=7.5e9, f_p=7.503e9, j=10e6, kappa=3e6)
        f = np.linspace(7.45e9, 7.55e9, 801)
        trace_path = tmp_path / "trace.csv"
        save_trace(TransmissionTrace(freqs=f, values=s21_ideal(f, truth)), trace_path)
        reg_path = tmp_path / "reg.json"
        small_registry(reg_path, [(7.5e9, 7.51e9)])

        result = runner.invoke(
            main,
            ["fit", "--trace", str(trace_path), "--no-baseline",
             "--registry", str(reg_path), "--pair", "pair0"],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["converged"]
        assert doc["f_r_hz"] == pytest.approx(truth.f_r, abs=1e3)
        reg = load_registry(reg_path)
        assert reg.pairs["pair0"].j == pytest.approx(truth.j, rel=1e-6)
        assert reg.resonators["r0"].f_meas == pytest.approx(truth.f_r, abs=1e3)
        assert reg.history[-1]["event"] == "fit"

    def test_flat_trace_reports_category(self, runner, tmp_path):
        trace_path = tmp_path / "flat.csv"
        f = np.linspace(7.4e9, 7.6e9, 101)
        save_trace(TransmissionTrace(freqs=f, values=np.ones(101, complex)), trace_path)
        result = runner.invoke(main, ["fit", "--trace", str(trace_path)])
        assert result.exit_code == 2
        assert "no-resonance:" in result.output


class TestPlanAndApply:
    def test_plan_pair_already_matched_is_empty(self, runner, tmp_path):
        reg_path = tmp_path / "reg.json"
        small_registry(reg_path, [(7.5e9, 7.5e9)])
        result = runner.invoke(
            main,
            ["plan", "pair", "--registry", str(reg_path), "--pair", "pair0",
             "--nu-rho", str(NU_RHO)],
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["actions"] == []

    def test_plan_apply_cycle(self, runner, tmp_path):
        reg_path = tmp_path / "reg.json"
        small_registry(reg_path, [(7.5e9, 7.521e9)])
        plan_path = tmp_path / "plan.json"
        result = runner.invoke(
            main,
            ["plan", "pair", "--registry", str(reg_path), "--all-pairs",
             "--naive-slope", "--out", str(plan_path)],
        )
        assert result.exit_code == 0, result.output
        result = runner.invoke(
            main,
            ["apply", "--registry", str(reg_path), "--plan", str(plan_path),
             "--simulate-true-nu-rho", str(NU_RHO)],
        )
        assert result.exit_code == 0, result.output
        reg = load_registry(reg_path)
        assert reg.resonators["p0"].shoelaces.remaining < 10
        assert reg.history[-1]["event"] == "apply"
        # the realized shift follows the quadratic model, not the plan
        a = reg.history[-1]["actions"][0]
        assert a["f_after_hz"] != pytest.approx(a["predicted_f_hz"], abs=1.0)

    def test_apply_over_budget_leaves_registry_untouched(self, runner, tmp_path):
        reg_path = tmp_path / "reg.json"
        small_registry(reg_path, [(7.5e9, 7.521e9)])
        before = reg_path.read_text()
        plan_path = tmp_path / "plan.json"
        plan_doc = {
            "version": 1, "cycle_index": 1, "feasible": True,
            "objective_before_hz": 0.0, "objective_after_hz": 0.0, "notes": [],
            "provenance": {},
            "actions": [{
                "resonator_id": "p0", "n_remove": 99, "delta_l": 99 * 5e-6,
                "predicted_delta_f": -1e9, "predicted_f": 6.5e9,
            }],
        }
        plan_path.write_text(json.dumps(plan_doc))
        result = runner.invoke(
            main, ["apply", "--registry", str(reg_path), "--plan", str(plan_path)]
        )
        assert result.exit_code == 2
        assert "validation:" in result.output
        assert reg_path.read_text() == before

    def test_apply_checks_total_removals_per_resonator(self, runner, tmp_path):
        # each action fits the budget of 10 on its own; together they do not
        reg_path = tmp_path / "reg.json"
        small_registry(reg_path, [(7.5e9, 7.521e9)])
        before = reg_path.read_bytes()
        action = {
            "resonator_id": "p0", "n_remove": 6, "delta_l": 6 * 5e-6,
            "predicted_delta_f": -6e6, "predicted_f": 7.515e9,
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "version": 1, "cycle_index": 1, "feasible": True,
            "objective_before_hz": 0.0, "objective_after_hz": 0.0, "notes": [],
            "provenance": {}, "actions": [action, action],
        }))
        result = runner.invoke(
            main, ["apply", "--registry", str(reg_path), "--plan", str(plan_path)]
        )
        assert result.exit_code == 2
        assert "plan removes 12, only 10" in result.stderr
        assert reg_path.read_bytes() == before

    def _plan_and_apply(self, runner, reg_path, plan_path, slope):
        result = runner.invoke(
            main,
            ["plan", "pair", "--registry", str(reg_path), "--all-pairs", *slope,
             "--out", str(plan_path)],
        )
        assert result.exit_code == 0, result.output
        return runner.invoke(
            main,
            ["apply", "--registry", str(reg_path), "--plan", str(plan_path),
             "--simulate-true-nu-rho", str(NU_RHO)],
        )

    def test_apply_refuses_a_plan_already_applied(self, runner, tmp_path):
        reg_path = tmp_path / "reg.json"
        small_registry(reg_path, [(7.5e9, 7.521e9)])
        plan_path = tmp_path / "plan1.json"
        result = self._plan_and_apply(runner, reg_path, plan_path, ["--naive-slope"])
        assert result.exit_code == 0, result.output
        before = reg_path.read_bytes()
        result = runner.invoke(
            main, ["apply", "--registry", str(reg_path), "--plan", str(plan_path)]
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("validation: plan already applied in cycle 1")
        assert reg_path.read_bytes() == before

    def test_replanned_second_cycle_is_accepted(self, runner, tmp_path):
        reg_path = tmp_path / "reg.json"
        small_registry(reg_path, [(7.5e9, 7.521e9)])
        for name, slope in (("plan1.json", ["--naive-slope"]),
                            ("plan2.json", ["--nu-rho", str(0.9 * NU_RHO)])):
            result = self._plan_and_apply(runner, reg_path, tmp_path / name, slope)
            assert result.exit_code == 0, result.output
        applies = [h for h in load_registry(reg_path).history if h["event"] == "apply"]
        assert [h["cycle_index"] for h in applies] == [1, 2]
        assert applies[0]["plan_sha256"] != applies[1]["plan_sha256"]

    def test_history_without_plan_hash_still_loads(self, runner, tmp_path):
        reg_path = tmp_path / "reg.json"
        reg = small_registry(reg_path, [(7.5e9, 7.521e9)])
        reg.history.append({"event": "apply", "cycle_index": 1, "plan": "old.json",
                            "actions": []})
        save_registry(reg, reg_path)
        result = self._plan_and_apply(runner, reg_path, tmp_path / "plan.json",
                                      ["--naive-slope"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["cycle_index"] == 2

    def test_plan_crowding_runs(self, runner, tmp_path):
        reg_path = tmp_path / "reg.json"
        small_registry(
            reg_path,
            [(7.30e9, 7.30e9), (7.325e9, 7.325e9), (7.60e9, 7.60e9)],
        )
        result = runner.invoke(
            main,
            ["plan", "crowding", "--registry", str(reg_path), "--feedline", "fl0",
             "--guard-band", "20e6", "--nu-rho", str(NU_RHO)],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["feasible"]
        assert doc["objective_after_hz"] >= 20e6

    def test_fit_nu_rho_from_history(self, runner, tmp_path):
        reg_path = tmp_path / "reg.json"
        small_registry(reg_path, [(7.5e9, 7.521e9), (7.6e9, 7.64e9)])
        plan_path = tmp_path / "plan.json"
        runner.invoke(
            main,
            ["plan", "pair", "--registry", str(reg_path), "--all-pairs",
             "--naive-slope", "--out", str(plan_path)],
        )
        runner.invoke(
            main,
            ["apply", "--registry", str(reg_path), "--plan", str(plan_path),
             "--simulate-true-nu-rho", str(NU_RHO)],
        )
        result = runner.invoke(
            main, ["fit-nu-rho", "--registry", str(reg_path), "--cycle", "1"]
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["nu_rho_m_per_s"] == pytest.approx(NU_RHO, rel=1e-9)


class TestReport:
    def test_matched_fixture_all_ok(self, runner, tmp_path):
        reg_path = tmp_path / "reg.json"
        small_registry(reg_path, [(7.5e9, 7.502e9), (7.7e9, 7.703e9)])
        result = runner.invoke(
            main, ["report", "--registry", str(reg_path), "--json"]
        )
        assert result.exit_code == 0, result.output
        rows = json.loads(result.output)
        assert len(rows) == 2
        assert all(row["ok"] for row in rows)
        assert all("matching_low" in row for row in rows)

    def test_table_output(self, runner, tmp_path):
        reg_path = tmp_path / "reg.json"
        small_registry(reg_path, [(7.5e9, 7.502e9)])
        result = runner.invoke(main, ["report", "--registry", str(reg_path)])
        assert result.exit_code == 0
        assert "pair0" in result.output
        assert "OK" in result.output

    def test_registry_env_var(self, runner, tmp_path, monkeypatch):
        reg_path = tmp_path / "reg.json"
        small_registry(reg_path, [(7.5e9, 7.502e9)])
        monkeypatch.setenv("RESOTRIM_REGISTRY", str(reg_path))
        result = runner.invoke(main, ["report", "--json"])
        assert result.exit_code == 0, result.output


MALFORMED_REGISTRIES = {
    "pairs-string": lambda doc: {**doc, "pairs": "pair0"},
    "top-level-array": lambda doc: [doc],
    "j-not-a-number": lambda doc: {**doc, "pairs": [{**doc["pairs"][0], "j_hz": "ten"}]},
    "history-object": lambda doc: {**doc, "history": {"event": "apply"}},
    "readout-id-list": lambda doc: {**doc, "pairs": [{**doc["pairs"][0], "readout": ["r0"]}]},
}


@pytest.mark.parametrize("corrupt", MALFORMED_REGISTRIES.values(), ids=MALFORMED_REGISTRIES)
def test_malformed_registry_is_a_validation_error(runner, tmp_path, corrupt):
    reg_path = tmp_path / "reg.json"
    small_registry(reg_path, [(7.5e9, 7.502e9)])
    reg_path.write_text(json.dumps(corrupt(json.loads(reg_path.read_text()))))
    result = runner.invoke(main, ["report", "--registry", str(reg_path)])
    assert result.exit_code == 2, result.output
    assert result.stderr.splitlines()[0].startswith("validation: ")
    assert "Traceback" not in result.output


VALID_ACTION = {"resonator_id": "p0", "n_remove": 3, "delta_l": 3 * 5e-6,
                "predicted_delta_f": -3e6, "predicted_f": 7.518e9}
MALFORMED_PLANS = {
    "top-level-array": [],
    "actions-object": {"actions": VALID_ACTION},
    "action-string": {"actions": ["p0"]},
    "resonator-id-list": {"actions": [{**VALID_ACTION, "resonator_id": ["p0"]}]},
    "resonator-id-null": {"actions": [{**VALID_ACTION, "resonator_id": None}]},
    "n-remove-float": {"actions": [{**VALID_ACTION, "n_remove": 2.5}]},
    "n-remove-string": {"actions": [{**VALID_ACTION, "n_remove": "3"}]},
    "n-remove-negative": {"actions": [{**VALID_ACTION, "n_remove": -1}]},
    "predicted-f-nan": {"actions": [{**VALID_ACTION, "predicted_f": float("nan")}]},
    "predicted-shift-up": {"actions": [{**VALID_ACTION, "predicted_delta_f": 3e6}]},
}


@pytest.mark.parametrize("doc", MALFORMED_PLANS.values(), ids=MALFORMED_PLANS)
def test_malformed_plan_is_a_validation_error(runner, tmp_path, doc):
    reg_path = tmp_path / "reg.json"
    small_registry(reg_path, [(7.5e9, 7.521e9)])
    before = reg_path.read_bytes()
    if isinstance(doc, dict):
        doc = {"version": 1, "cycle_index": 1, "feasible": True, "notes": [],
               "provenance": {}, **doc}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(doc))
    result = runner.invoke(
        main, ["apply", "--registry", str(reg_path), "--plan", str(plan_path)]
    )
    assert result.exit_code == 2, result.output
    assert result.stderr.splitlines()[0].startswith("validation: ")
    assert "Traceback" not in result.output
    assert reg_path.read_bytes() == before


class TestSimulate:
    def test_anneal_escalation_scenario(self, runner, tmp_path):
        config = {
            "r_start_ohm": 6000.0, "r_target_ohm": 6120.0,
            "exposure_threshold_s": 3600.0,
            "power_schedule_w": [0.17, 0.2],
            "response": {"coeffs": {"0.17": [0.001, 1.0], "0.2": [0.02, 1.0]}},
        }
        config_path = tmp_path / "anneal.json"
        config_path.write_text(json.dumps(config))
        out_path = tmp_path / "anneal.csv"
        result = runner.invoke(
            main,
            ["simulate", "anneal", "--config", str(config_path), "--out", str(out_path)],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["status"] == "success"
        rows = out_path.read_text().strip().splitlines()
        assert rows[0] == "cycle,power_w,exposure_s,r_over_r0"
        powers = [float(r.split(",")[1]) for r in rows[1:]]
        assert 0.17 in powers and 0.2 in powers

    def test_anneal_failure_exit_code(self, runner, tmp_path):
        config = {
            "r_start_ohm": 6000.0, "r_target_ohm": 9000.0,
            "exposure_threshold_s": 10.0,
            "power_schedule_w": [0.17],
            "response": {"coeffs": {"0.17": [0.0001, 1.0]}},
        }
        config_path = tmp_path / "anneal.json"
        config_path.write_text(json.dumps(config))
        result = runner.invoke(main, ["simulate", "anneal", "--config", str(config_path)])
        assert result.exit_code == 4

    def test_readout_simulation(self, runner, tmp_path):
        model = {"mean0": [0.0, 0.0], "mean1": [4.0, 0.0], "sigma": 1.0}
        model_path = tmp_path / "blobs.json"
        model_path.write_text(json.dumps(model))
        out_path = tmp_path / "shots.csv"
        result = runner.invoke(
            main,
            ["simulate", "readout", "--model", str(model_path),
             "--n", "5000", "--seed", "3", "--out", str(out_path)],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert 0.95 < doc["f_ro"] <= 1.0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "label,i,q"
        assert len(lines) == 10_001

    def test_readout_determinism(self, runner, tmp_path):
        model = {"mean0": [0.0, 0.0], "mean1": [4.0, 0.0], "sigma": 1.0}
        model_path = tmp_path / "blobs.json"
        model_path.write_text(json.dumps(model))
        args = ["simulate", "readout", "--model", str(model_path), "--n", "2000", "--seed", "9"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output


@pytest.mark.parametrize("module", ["resotrim", "resotrim.cli"])
def test_import_loads_no_scipy(module):
    # scipy takes about a second to import; only transmon loads it, on first use
    src = os.path.dirname(os.path.dirname(resotrim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
