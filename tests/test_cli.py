"""CLI surface tests driven through click's runner."""

import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner

import resotrim
from resotrim import cli, fitting
from resotrim.cli import main
from resotrim.fitting import TransmissionTrace
from resotrim.pairmodel import PairParams, s21
from resotrim.planner import ResonatorRecord, ShoelaceArray, freq_shift, two_cycle_protocol
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


def small_registry(path, pairs, shoelaces=10):
    """Write a registry with the given (f_r, f_p) pairs and return it."""
    reg = DeviceRegistry(device_id="cli-test")
    for k, (fr, fp) in enumerate(pairs):
        reg.resonators[f"r{k}"] = ResonatorRecord(
            id=f"r{k}", role="readout", f_meas=fr,
            shoelaces=ShoelaceArray(total=shoelaces, remaining=shoelaces),
        )
        reg.resonators[f"p{k}"] = ResonatorRecord(
            id=f"p{k}", role="purcell", f_meas=fp,
            shoelaces=ShoelaceArray(total=shoelaces, remaining=shoelaces),
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
        save_trace(TransmissionTrace(freqs=f, values=s21(f, truth)), trace_path)
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

    def test_pair_without_registry_is_refused(self, runner, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.REGISTRY_ENVVAR, raising=False)
        truth = PairParams(f_r=7.5e9, f_p=7.503e9, j=10e6, kappa=3e6)
        f = np.linspace(7.45e9, 7.55e9, 801)
        trace_path = tmp_path / "trace.csv"
        save_trace(TransmissionTrace(freqs=f, values=s21(f, truth)), trace_path)
        result = runner.invoke(main, ["fit", "--trace", str(trace_path), "--no-baseline",
                                      "--pair", "pair0"])
        assert result.exit_code == 2
        assert result.stderr.startswith("validation: ")
        assert "f_r_hz" not in result.output  # refused before fitting
        # a registry without --pair is allowed and left as it was
        reg_path = tmp_path / "reg.json"
        small_registry(reg_path, [(7.5e9, 7.51e9)])
        before = reg_path.read_bytes()
        result = runner.invoke(main, ["fit", "--trace", str(trace_path), "--no-baseline",
                                      "--registry", str(reg_path)])
        assert result.exit_code == 0, result.output
        assert reg_path.read_bytes() == before

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

    def test_plan_pair_does_not_scan_a_large_budget(self, runner, tmp_path):
        # four shoelaces close the gap; the count scan stops there
        plans = []
        for shoelaces in (10, 10**7):
            reg_path = tmp_path / f"reg{shoelaces}.json"
            small_registry(reg_path, [(7.5e9, 7.545e9)], shoelaces=shoelaces)
            start = time.perf_counter()
            result = runner.invoke(main, ["plan", "pair", "--registry", str(reg_path),
                                          "--all-pairs", "--nu-rho", str(NU_RHO)])
            elapsed = time.perf_counter() - start
            assert result.exit_code == 0, result.output
            plans.append(json.loads(result.output))
        assert elapsed < 0.5
        assert plans[0] == plans[1]
        assert [a["n_remove"] for a in plans[0]["actions"]] == [4]

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

    def test_apply_refuses_a_stale_plan(self, runner, tmp_path):
        # two plans made from the same registry state: only the first may land
        reg_path = tmp_path / "reg.json"
        small_registry(reg_path, [(7.5e9, 7.521e9)])
        for name, slope in (("a.json", ["--naive-slope"]), ("b.json", ["--nu-rho", "1.0e8"])):
            result = runner.invoke(main, ["plan", "pair", "--registry", str(reg_path),
                                          "--all-pairs", *slope, "--out", str(tmp_path / name)])
            assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["apply", "--registry", str(reg_path),
                                      "--plan", str(tmp_path / "a.json")])
        assert result.exit_code == 0, result.output
        before = reg_path.read_bytes()
        result = runner.invoke(main, ["apply", "--registry", str(reg_path),
                                      "--plan", str(tmp_path / "b.json")])
        assert result.exit_code == 2
        assert result.stderr.startswith("validation: plan made for cycle 1, but cycle 1 is")
        assert reg_path.read_bytes() == before

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

    @pytest.mark.parametrize("corruption", ["duplicate-resonator-id", "resonator-in-two-pairs"])
    def test_apply_refuses_an_ambiguous_registry(self, runner, tmp_path, corruption):
        # once loaded, a duplicate record drops out of the file and two pairs'
        # actions on one resonator add up, so apply must refuse such a registry
        reg_path = tmp_path / "reg.json"
        small_registry(reg_path, [(7.5e9, 7.521e9)])
        corrupt, path = MALFORMED_REGISTRIES[corruption]
        reg_path.write_text(json.dumps(corrupt(json.loads(reg_path.read_text()))))
        before = reg_path.read_bytes()
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"version": 1, "cycle_index": 1,
                                         "actions": [VALID_ACTION]}))
        result = runner.invoke(main, ["apply", "--registry", str(reg_path), "--plan",
                                      str(plan_path)])
        assert result.exit_code == 2
        assert result.stderr.startswith("validation: ")
        assert path in result.stderr
        assert reg_path.read_bytes() == before

    def test_unconverged_fit_is_only_recorded(self, runner, tmp_path, monkeypatch):
        # a fit starved of iterations cannot converge; it must not move the
        # registry's frequencies or rates, nor stand in as a re-measurement
        reg_path = tmp_path / "reg.json"
        small_registry(reg_path, [(7.80e9, 7.84e9)])
        plan_path = tmp_path / "plan1.json"
        result = runner.invoke(main, ["plan", "pair", "--registry", str(reg_path),
                                      "--all-pairs", "--naive-slope", "--out", str(plan_path)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["apply", "--registry", str(reg_path),
                                      "--plan", str(plan_path)])
        assert result.exit_code == 0, result.output
        before = load_registry(reg_path)
        monkeypatch.setattr(fitting, "MAX_ITER", 1)
        truth = PairParams(f_r=7.80e9, f_p=7.82e9, j=10e6, kappa=20e6)
        f = np.linspace(7.71e9, 7.91e9, 1201)
        trace_path = tmp_path / "cycle1.csv"
        save_trace(TransmissionTrace(freqs=f, values=s21(f, truth)), trace_path)
        result = runner.invoke(main, ["fit", "--trace", str(trace_path), "--no-baseline",
                                      "--registry", str(reg_path), "--pair", "pair0"])
        assert result.exit_code == 3
        assert not json.loads(result.output)["converged"]
        after = load_registry(reg_path)
        assert after.resonators == before.resonators
        assert after.pairs == before.pairs
        assert after.history[:-1] == before.history
        assert after.history[-1]["event"] == "fit"
        assert after.history[-1]["converged"] is False
        result = runner.invoke(main, ["fit-nu-rho", "--registry", str(reg_path), "--cycle", "1"])
        assert result.exit_code == 2
        assert result.stderr.startswith("underdetermined: ")

    def test_a_registry_is_not_a_plan(self, runner, tmp_path):
        # every plan key but actions has a default, and a registry has "version": 1
        reg_path = tmp_path / "reg.json"
        small_registry(reg_path, [(7.5e9, 7.521e9)])
        before = reg_path.read_bytes()
        result = runner.invoke(main, ["apply", "--registry", str(reg_path),
                                      "--plan", str(reg_path)])
        assert result.exit_code == 2
        assert result.stderr.splitlines() == ["validation: plan schema violation",
                                              "  actions: missing"]
        assert reg_path.read_bytes() == before

    def test_plan_crowding_plans_a_large_budget(self, runner, tmp_path):
        # the candidates stop before a predicted frequency reaches 0 Hz
        reg_path = tmp_path / "reg.json"
        small_registry(reg_path, [(7.5e9, 7.545e9), (7.6e9, 7.62e9)], shoelaces=10**4)
        result = runner.invoke(main, ["plan", "crowding", "--registry", str(reg_path),
                                      "--feedline", "fl0", "--nu-rho", str(NU_RHO)])
        assert result.exit_code == 0, result.output
        actions = json.loads(result.output)["actions"]
        assert actions and all(a["predicted_f"] > 0 for a in actions)

    def test_plan_pair_marks_an_unmatchable_pair(self, runner, tmp_path):
        reg_path = tmp_path / "reg.json"
        small_registry(reg_path, [(7.5e9, 7.7e9)])
        result = runner.invoke(main, ["plan", "pair", "--registry", str(reg_path),
                                      "--all-pairs", "--naive-slope"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert [(a["resonator_id"], a["n_remove"]) for a in doc["actions"]] == [("p0", 10)]
        assert not doc["feasible"]
        assert doc["notes"] == ["p0 cannot be matched to r0: predicted residual 1.000e+08 Hz"]
        # a resonator with no shoelaces left: plan pair marks it, plan crowding plans around it
        reg = small_registry(reg_path, [(7.30e9, 7.33e9), (7.305e9, 7.305e9)])
        reg.resonators["p0"].shoelaces.remaining = 0
        save_registry(reg, reg_path)
        result = runner.invoke(main, ["plan", "pair", "--registry", str(reg_path),
                                      "--all-pairs", "--nu-rho", str(NU_RHO)])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert not doc["feasible"]
        assert doc["notes"] == ["p0 cannot be matched to r0: predicted residual 3.000e+07 Hz"]
        result = runner.invoke(main, ["plan", "crowding", "--registry", str(reg_path),
                                      "--feedline", "fl0", "--guard-band", "20e6",
                                      "--nu-rho", str(NU_RHO)])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["actions"] and {a["resonator_id"] for a in doc["actions"]} == {"r1", "p1"}

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

    def _fit(self, runner, reg_path, trace_path, f_r, f_p):
        truth = PairParams(f_r=f_r, f_p=f_p, j=10e6, kappa=20e6)
        center = 0.5 * (f_r + f_p)
        f = np.linspace(center - 100e6, center + 100e6, 1201)
        save_trace(TransmissionTrace(freqs=f, values=s21(f, truth)), trace_path)
        result = runner.invoke(main, ["fit", "--trace", str(trace_path), "--no-baseline",
                                      "--registry", str(reg_path), "--pair", "pair0"])
        assert result.exit_code == 0, result.output
        return json.loads(result.output)

    def test_fit_nu_rho_reads_the_refit_frequency(self, runner, tmp_path):
        # a lab cycle: apply without simulation, re-measure, fit the velocity
        reg_path = tmp_path / "reg.json"
        reg = small_registry(reg_path, [(7.80e9, 7.84e9)])
        plan_path = tmp_path / "plan1.json"
        result = runner.invoke(main, ["plan", "pair", "--registry", str(reg_path),
                                      "--all-pairs", "--naive-slope", "--out", str(plan_path)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["apply", "--registry", str(reg_path),
                                      "--plan", str(plan_path)])
        assert result.exit_code == 0, result.output
        (action,) = json.loads(plan_path.read_text())["actions"]
        assert action["resonator_id"] == "p0"
        f_p = 7.84e9 + freq_shift(7.84e9, NU_RHO, action["delta_l"])
        fit = self._fit(runner, reg_path, tmp_path / "cycle1.csv", 7.80e9, f_p)
        cycle = ["fit-nu-rho", "--registry", str(reg_path), "--cycle", "1"]
        result = runner.invoke(main, cycle)
        assert result.exit_code == 0, result.output
        nu = json.loads(result.output)["nu_rho_m_per_s"]
        assert nu == pytest.approx(NU_RHO, rel=1e-6)
        pairs = [(reg.resonators["r0"], reg.resonators["p0"])]
        library = two_cycle_protocol(pairs, {"r0": 7.80e9, "p0": 7.84e9},
                                     {"r0": fit["f_r_hz"], "p0": fit["f_p_hz"]})
        assert nu == library.nu_rho
        # a fit after the next cycle's apply does not count for cycle 1
        result = runner.invoke(main, ["apply", "--registry", str(reg_path), "--plan",
                                      str(self._empty_plan(tmp_path, cycle_index=2))])
        assert result.exit_code == 0, result.output
        self._fit(runner, reg_path, tmp_path / "cycle2.csv", 7.80e9, f_p - 3e6)
        result = runner.invoke(main, cycle)
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["nu_rho_m_per_s"] == nu

    @staticmethod
    def _empty_plan(tmp_path, cycle_index):
        path = tmp_path / f"empty{cycle_index}.json"
        path.write_text(json.dumps({
            "version": 1, "cycle_index": cycle_index, "feasible": True,
            "objective_before_hz": 0.0, "objective_after_hz": 0.0, "notes": [],
            "provenance": {}, "actions": []}))
        return path

    def test_fit_nu_rho_without_a_refit_is_underdetermined(self, runner, tmp_path):
        reg_path = tmp_path / "reg.json"
        small_registry(reg_path, [(7.80e9, 7.84e9)])
        plan_path = tmp_path / "plan1.json"
        runner.invoke(main, ["plan", "pair", "--registry", str(reg_path), "--all-pairs",
                             "--naive-slope", "--out", str(plan_path)])
        result = runner.invoke(main, ["apply", "--registry", str(reg_path),
                                      "--plan", str(plan_path)])
        assert result.exit_code == 0, result.output
        before = reg_path.read_bytes()
        result = runner.invoke(main, ["fit-nu-rho", "--registry", str(reg_path), "--cycle", "1"])
        assert result.exit_code == 2
        assert result.stderr.startswith("underdetermined: ")
        assert "p0" in result.stderr
        assert reg_path.read_bytes() == before


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


def _resonator(doc, **fields):
    """doc with fields set on its first resonator (p0) or, with a dict, on its shoelaces."""
    first = dict(doc["resonators"][0])
    for key, value in fields.items():
        first[key] = {**first[key], **value} if isinstance(value, dict) else value
    return {**doc, "resonators": [first, *doc["resonators"][1:]]}


def _pair(doc, **fields):
    return {**doc, "pairs": [{**doc["pairs"][0], **fields}]}


# name -> (corruption, path of the bad field; None for a bad top level)
MALFORMED_REGISTRIES = {
    "pairs-string": (lambda doc: {**doc, "pairs": "pair0"}, "pairs"),
    "top-level-array": (lambda doc: [doc], None),
    "j-not-a-number": (lambda doc: _pair(doc, j_hz="ten"), "pairs[0].j_hz"),
    "history-object": (lambda doc: {**doc, "history": {"event": "apply"}}, "history"),
    "readout-id-list": (lambda doc: _pair(doc, readout=["r0"]), "pairs[0].readout"),
    "transmon-f-q-string": (lambda doc: {**doc, "transmons": [{"id": "q0", "f_q_hz": "six"}]},
                            "transmons[0].f_q_hz"),
    "transmon-alpha-positive": (
        lambda doc: {**doc, "transmons": [{"id": "q0", "alpha_hz": 3e8}]}, "transmons[0].alpha_hz"),
    "transmon-e-j-list": (lambda doc: {**doc, "transmons": [{"id": "q0", "e_j_hz": [1]}]},
                          "transmons[0].e_j_hz"),
    "transmon-r-j-negative": (lambda doc: {**doc, "transmons": [{"id": "q0", "r_j_ohm": -5}]},
                              "transmons[0].r_j_ohm"),
    "transmon-below-ratio-floor": (lambda doc: {
        **doc, "transmons": [{"id": "q0", "e_j_hz": 1e9, "e_c_hz": 3e8}]}, "transmons[0].e_j_hz"),
    "apply-cycle-index-string": (lambda doc: {
        **doc, "history": [{"event": "apply", "cycle_index": "1", "actions": []}]},
        "history[0].cycle_index"),
    "apply-cycle-index-zero": (lambda doc: {
        **doc, "history": [{"event": "apply", "cycle_index": 0, "actions": []}]},
        "history[0].cycle_index"),
    "apply-actions-object": (lambda doc: {
        **doc, "history": [{"event": "apply", "cycle_index": 1, "actions": {}}]},
        "history[0].actions"),
    "apply-action-f-after-missing": (lambda doc: {**doc, "history": [{
        "event": "apply", "cycle_index": 1, "actions": [{
            "resonator": "p0", "n_remove": 1, "delta_l_m": 5e-6, "f_before_hz": 7.502e9,
            "predicted_f_hz": 7.5e9}]}]}, "history[0].actions[0].f_after_hz"),
    "fit-f-p-string": (lambda doc: {**doc, "history": [{
        "event": "fit", "pair": "pair0", "f_r_hz": 7.5e9, "f_p_hz": "7.5 GHz"}]},
        "history[0].f_p_hz"),
    "f-meas-nan": (lambda doc: _resonator(doc, f_meas_hz=float("nan")),
                   "resonators[0].f_meas_hz"),
    "f-meas-infinity": (lambda doc: _resonator(doc, f_meas_hz=float("inf")),
                        "resonators[0].f_meas_hz"),
    "f-meas-string": (lambda doc: _resonator(doc, f_meas_hz="7.5e9"), "resonators[0].f_meas_hz"),
    "f-meas-bool": (lambda doc: _resonator(doc, f_meas_hz=True), "resonators[0].f_meas_hz"),
    "shoelace-total-float": (lambda doc: _resonator(doc, shoelaces={"total": 10.9}),
                             "resonators[0].shoelaces.total"),
    "shoelace-remaining-bool": (lambda doc: _resonator(doc, shoelaces={"remaining": True}),
                                "resonators[0].shoelaces.remaining"),
    "shoelace-remaining-over-total": (lambda doc: _resonator(doc, shoelaces={"remaining": 11}),
                                      "resonators[0].shoelaces.remaining"),
    "j-negative": (lambda doc: _pair(doc, j_hz=-1e7), "pairs[0].j_hz"),
    "j-nan": (lambda doc: _pair(doc, j_hz=float("nan")), "pairs[0].j_hz"),
    "device-id-number": (lambda doc: {**doc, "device_id": 17}, "device_id"),
    "duplicate-resonator-id": (lambda doc: {
        **doc, "resonators": [*doc["resonators"], {**doc["resonators"][0], "f_meas_hz": 7.6e9}]},
        "resonators[2].id"),
    "resonator-in-two-pairs": (lambda doc: {**doc, "resonators": [*doc["resonators"], {
        **doc["resonators"][1], "id": "r1"}], "pairs": [*doc["pairs"], {
            **doc["pairs"][0], "id": "pair1", "readout": "r1"}]}, "pairs.pair1.purcell"),
}


@pytest.mark.parametrize("corrupt, path", MALFORMED_REGISTRIES.values(), ids=MALFORMED_REGISTRIES)
def test_malformed_registry_is_a_validation_error(runner, tmp_path, corrupt, path):
    reg_path = tmp_path / "reg.json"
    small_registry(reg_path, [(7.5e9, 7.502e9)])
    reg_path.write_text(json.dumps(corrupt(json.loads(reg_path.read_text()))))
    before = reg_path.read_bytes()
    result = runner.invoke(main, ["report", "--registry", str(reg_path)])
    assert result.exit_code == 2, result.output
    lines = result.stderr.splitlines()
    assert lines[0].startswith("validation: ")
    if path is not None:
        assert path in [line.strip().split(":")[0] for line in lines[1:]], result.stderr
    assert "Traceback" not in result.output
    assert reg_path.read_bytes() == before


def test_bad_transmon_fields_are_reported_by_path(runner, tmp_path):
    reg_path = tmp_path / "reg.json"
    small_registry(reg_path, [(7.5e9, 7.502e9)])
    doc = json.loads(reg_path.read_text())
    doc["transmons"] = [{"id": "q0", "f_q_hz": "six", "alpha_hz": 3e8, "e_j_hz": [1],
                         "e_c_hz": 2.5e8, "r_j_ohm": -5}]
    reg_path.write_text(json.dumps(doc))
    before = reg_path.read_bytes()
    result = runner.invoke(main, ["report", "--registry", str(reg_path)])
    assert result.exit_code == 2
    paths = [line.strip().split(":")[0] for line in result.stderr.splitlines()[1:]]
    assert sorted(paths) == ["transmons[0].alpha_hz", "transmons[0].e_j_hz",
                             "transmons[0].f_q_hz", "transmons[0].r_j_ohm"]
    assert reg_path.read_bytes() == before


VALID_ACTION = {"resonator_id": "p0", "n_remove": 3, "delta_l": 3 * 5e-6,
                "predicted_delta_f": -3e6, "predicted_f": 7.518e9}
# name -> (plan document, path of the bad field; None for a bad top level)
MALFORMED_PLANS = {
    "top-level-array": ([], None),
    "actions-object": ({"actions": VALID_ACTION}, "actions"),
    "action-string": ({"actions": ["p0"]}, "actions[0]"),
    "resonator-id-list": ({"actions": [{**VALID_ACTION, "resonator_id": ["p0"]}]},
                          "actions[0].resonator_id"),
    "resonator-id-null": ({"actions": [{**VALID_ACTION, "resonator_id": None}]},
                          "actions[0].resonator_id"),
    "n-remove-float": ({"actions": [{**VALID_ACTION, "n_remove": 2.5}]}, "actions[0].n_remove"),
    "n-remove-string": ({"actions": [{**VALID_ACTION, "n_remove": "3"}]}, "actions[0].n_remove"),
    "n-remove-negative": ({"actions": [{**VALID_ACTION, "n_remove": -1}]}, "actions[0].n_remove"),
    "predicted-f-nan": ({"actions": [{**VALID_ACTION, "predicted_f": float("nan")}]},
                        "actions[0].predicted_f"),
    "delta-l-negative": ({"actions": [{**VALID_ACTION, "delta_l": -5e-6}]}, "actions[0].delta_l"),
    "predicted-shift-up": ({"actions": [{**VALID_ACTION, "predicted_delta_f": 3e6}]},
                           "actions[0].predicted_delta_f"),
    "cycle-index-negative": ({"cycle_index": -1, "actions": [VALID_ACTION]}, "cycle_index"),
    "cycle-index-string": ({"cycle_index": "2", "actions": [VALID_ACTION]}, "cycle_index"),
}


@pytest.mark.parametrize("doc, path", MALFORMED_PLANS.values(), ids=MALFORMED_PLANS)
def test_malformed_plan_is_a_validation_error(runner, tmp_path, doc, path):
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
    lines = result.stderr.splitlines()
    assert lines[0].startswith("validation: ")
    if path is not None:
        assert path in [line.strip().split(":")[0] for line in lines[1:]], result.stderr
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


ANNEAL_CONFIG = {"r_start_ohm": 6000.0, "r_target_ohm": 6120.0, "exposure_threshold_s": 3600.0,
                 "power_schedule_w": [0.17, 0.2],
                 "response": {"coeffs": {"0.17": [0.001, 1.0], "0.2": [0.02, 1.0]}}}
BLOB_MODEL = {"mean0": [0.0, 0.0], "mean1": [4.0, 0.0], "sigma": 1.0}
TRACE_HEAD = b"frequency_hz,re_s21,im_s21\n7.0e9,1.0,0.0\n"


def _anneal(**fields):
    """ANNEAL_CONFIG with fields set, as file bytes; ``coeffs`` replaces the response."""
    coeffs = fields.pop("coeffs", ANNEAL_CONFIG["response"]["coeffs"])
    return json.dumps({**ANNEAL_CONFIG, "response": {"coeffs": coeffs}, **fields}).encode()


def _blobs(**fields):
    return json.dumps({**BLOB_MODEL, **fields}).encode()


ANNEAL = ["simulate", "anneal", "--config", "{input}", "--out", "{out}"]
READOUT = ["simulate", "readout", "--model", "{input}", "--n", "10", "--seed", "1",
           "--out", "{out}"]
FIT = ["fit", "--trace", "{input}"]
# name -> (command, input file bytes, error category, the bad field's path, its
# "line N", or a word of the message when there is no file to point into)
BAD_INPUT_FILES = {
    "anneal-invalid-json": (ANNEAL, b"{nope", "parse", "line 1"),
    "anneal-scheduled-power-without-coeffs": (
        ANNEAL, _anneal(power_schedule_w=[0.17, 0.3]), "validation", "power_schedule_w[1]"),
    "anneal-t0-zero": (ANNEAL, _anneal(coeffs={"0.17": [0.001, 0], "0.2": [0.02, 1.0]}),
                       "validation", "response.coeffs.0.17[1]"),
    "anneal-initial-exposure-negative": (ANNEAL, _anneal(initial_exposure_s=-1), "validation",
                                         "initial_exposure_s"),
    "anneal-one-element-coeffs": (ANNEAL, _anneal(coeffs={"0.17": [0.001], "0.2": [0.02, 1.0]}),
                                  "validation", "response.coeffs.0.17"),
    "anneal-r-start-nan": (ANNEAL, _anneal(r_start_ohm=float("nan")), "validation", "r_start_ohm"),
    "anneal-coeff-key-not-a-number": (
        ANNEAL, _anneal(coeffs={"0.17": [0.001, 1.0], "0.2": [0.02, 1.0], "high": [0.1, 1.0]}),
        "validation", "response.coeffs.high"),
    "anneal-power-string": (ANNEAL, _anneal(power_schedule_w=["0.17"]), "validation",
                            "power_schedule_w[0]"),
    "readout-invalid-json": (READOUT, b"{nope", "parse", "line 1"),
    "readout-mean0-string": (READOUT, _blobs(mean0="ab"), "validation", "mean0"),
    "readout-mean0-three-entries": (READOUT, _blobs(mean0=[0.0, 0.0, 0.0]), "validation", "mean0"),
    "readout-sigma-nan": (READOUT, _blobs(sigma=float("nan")), "validation", "sigma"),
    "readout-sigma-string": (READOUT, _blobs(sigma="1"), "validation", "sigma"),
    "readout-negative-seed": ([*READOUT[:-3], "-1", *READOUT[-2:]], _blobs(), "domain", "seed"),
    "trace-not-utf8": (FIT, TRACE_HEAD + b"7.1e9,\xff,0.0\n", "parse", "line 3"),
    "trace-field-over-limit": (FIT, TRACE_HEAD + b"7.1e9," + b"1" * 131073 + b",0.0\n", "parse",
                               "line 3"),
    "trace-non-numeric-line-3": (FIT, TRACE_HEAD + b"7.1e9,x,0.0\n", "parse", "line 3"),
}


@pytest.mark.parametrize("command, content, category, where", BAD_INPUT_FILES.values(),
                         ids=BAD_INPUT_FILES)
def test_bad_input_file_is_reported_by_path_or_line(runner, tmp_path, command, content,
                                                   category, where):
    in_path, out_path = tmp_path / "input", tmp_path / "out.csv"
    in_path.write_bytes(content)
    args = [a.format(input=in_path, out=out_path) for a in command]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    first, *details = result.stderr.splitlines()
    assert first.startswith(f"{category}: ")
    locators = [line.strip().split(":")[0] for line in details]
    assert where in locators or (not details and where in first), result.stderr
    assert "Traceback" not in result.output
    assert not out_path.exists()


PLAN_PAIR = ["plan", "pair", "--registry", "{reg}", "--all-pairs", "--nu-rho"]
CROWDING = ["plan", "crowding", "--registry", "{reg}"]
# registries beside {reg}: name -> the fields set on its pair0
PAIR_VARIANTS = {"unfitted": {"j_hz": None}, "ghost-transmon": {"transmon": "q9"}}
# name -> (arguments, category of the report, or the report's first lines); {reg}
# is a valid registry and {tmp} its directory, which also holds a trace of pair0
# and a registry {tmp}/NAME.json for each PAIR_VARIANTS name
MALFORMED_INVOCATIONS = {
    "no-arguments": ([], "usage"),
    "unknown-command": (["bogus"], "usage"),
    "unknown-option": (["report", "--registry", "{reg}", "--bogus"], "usage"),
    "nu-rho-not-a-number": ([*PLAN_PAIR, "abc"], "usage"),
    "missing-required-option": ([*CROWDING, "--nu-rho", "1.076e8"], "usage"),
    "registry-missing": (["report", "--registry", "{tmp}/missing.json"], "usage"),
    "registry-a-directory": (["report", "--registry", "{tmp}"], "usage"),
    "out-into-missing-directory": ([*PLAN_PAIR, "1.076e8", "--out", "{tmp}/no/plan.json"], "io"),
    "out-a-directory": ([*PLAN_PAIR, "1.076e8", "--out", "{tmp}"], "usage"),
    "nu-rho-nan": ([*PLAN_PAIR, "nan"], "domain"),
    "guard-band-negative": ([*CROWDING, "--feedline", "fl0", "--guard-band", "-5",
                             "--nu-rho", "1.076e8"], "domain"),
    "registry-as-plan": (["apply", "--registry", "{reg}", "--plan", "{reg}"], "validation"),
    "fit-unknown-pair": (["fit", "--trace", "{tmp}/trace.csv", "--no-baseline",
                          "--registry", "{reg}", "--pair", "pair9"], "validation"),
    "cycle-negative": (["fit-nu-rho", "--registry", "{reg}", "--cycle", "-1"], "usage"),
    "cycle-zero": (["fit-nu-rho", "--registry", "{reg}", "--cycle", "0"], "usage"),
    "plan-no-slope": (["plan", "pair", "--registry", "{reg}", "--all-pairs"], "validation"),
    "plan-pair-and-all-pairs": (["plan", "pair", "--registry", "{reg}", "--pair", "pair0",
                                 "--all-pairs", "--naive-slope"], "validation"),
    "plan-no-pair": (["plan", "pair", "--registry", "{reg}", "--naive-slope"], "validation"),
    "plan-unknown-pair": (["plan", "pair", "--registry", "{reg}", "--pair", "ghost",
                           "--naive-slope"], "validation"),
    "crowding-unknown-feedline": ([*CROWDING, "--feedline", "nope", "--naive-slope"],
                                  "validation"),
    "crowding-unfitted-pair": (["plan", "crowding", "--registry", "{tmp}/unfitted.json",
                                "--feedline", "fl0", "--naive-slope"],
                               "validation: pair pair0 has no fitted j/kappa\n"),
    "pair-unknown-transmon": (["report", "--registry", "{tmp}/ghost-transmon.json"],
                              "validation: registry validation failed\n"
                              "  pairs.pair0.transmon: unknown transmon 'q9'\n"),
}


@pytest.mark.parametrize("args, category", MALFORMED_INVOCATIONS.values(),
                         ids=MALFORMED_INVOCATIONS)
def test_malformed_invocation_is_one_report(runner, tmp_path, args, category):
    reg_path = tmp_path / "reg.json"
    small_registry(reg_path, [(7.5e9, 7.521e9)])
    f = np.linspace(7.45e9, 7.57e9, 801)
    truth = PairParams(f_r=7.5e9, f_p=7.521e9, j=10e6, kappa=20e6)
    save_trace(TransmissionTrace(freqs=f, values=s21(f, truth)), tmp_path / "trace.csv")
    for name, fields in PAIR_VARIANTS.items():
        (tmp_path / f"{name}.json").write_text(
            json.dumps(_pair(json.loads(reg_path.read_text()), **fields)))
    before, files = reg_path.read_bytes(), sorted(os.listdir(tmp_path))
    result = runner.invoke(main, [a.format(reg=reg_path, tmp=tmp_path) for a in args])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    first = result.stderr.splitlines()[0]
    head = category if ": " in category else f"{category}: "
    assert re.match(r"^[a-z][a-z-]*: \S", first) and result.stderr.startswith(head)
    assert "Traceback" not in result.output
    assert reg_path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == files


def test_ctrl_c_aborts_with_status_1(runner, tmp_path, monkeypatch):
    def interrupted(path):
        raise KeyboardInterrupt

    reg_path = tmp_path / "reg.json"
    small_registry(reg_path, [(7.5e9, 7.521e9)])
    monkeypatch.setattr(cli.registry, "load_registry", interrupted)
    result = runner.invoke(main, ["report", "--registry", str(reg_path)])
    assert (result.exit_code, result.stdout, result.stderr) == (1, "", "\nAborted!\n")


def _src_env():
    """os.environ with this checkout's resotrim first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(resotrim.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entry_reports_a_missing_registry(tmp_path):
    # a fresh interpreter with real streams, as the installed console script runs
    proc = subprocess.run([sys.executable, "-m", "resotrim.cli", "report", "--registry",
                           str(tmp_path / "missing.json")], env=_src_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert re.match(r"^usage: \S", proc.stderr), proc.stderr


TRANSMON_CALLS = ("e_j, e_c = resotrim.transmon.invert_spectroscopy(6e9, -3e8); "
                  "r = resotrim.transmon.rj_target(6e3, 6e9, 5.9e9, e_c); "
                  "resotrim.transmon.predict_fq(r, 6e3, e_j, e_c); ")


@pytest.mark.parametrize("module, calls", [("resotrim", ""), ("resotrim.cli", ""),
                                           ("resotrim.transmon", TRANSMON_CALLS)],
                         ids=["resotrim", "resotrim.cli", "transmon-calls"])
def test_import_loads_no_scipy(module, calls):
    # scipy is a test dependency only; importing it would cost about a second
    code = (f"import sys, {module}; {calls}"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
