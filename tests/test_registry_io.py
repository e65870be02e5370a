"""Registry, trace-file, and plan-file round-trip tests."""

import ast
import errno
import functools
import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import resotrim.rules
from resotrim.errors import (DomainError, InvalidParamsError, ParseError, ResotrimError,
                             ValidationError)
from resotrim.fitting import TransmissionTrace
from resotrim.pairmodel import PairParams
from resotrim.planner import (
    AppliedTrim,
    ResonatorRecord,
    ShoelaceArray,
    TrimAction,
    TrimPlan,
)
from resotrim.readout import BlobModel, synth_shots
from resotrim.registry import (
    DeviceRegistry,
    PairLink,
    TransmonEntry,
    dumps_registry,
    load_anneal_config,
    load_blob_model,
    load_plan,
    load_registry,
    load_trace,
    save_anneal_trace,
    save_plan,
    save_registry,
    save_shots,
    save_trace,
)
from resotrim.transmon import AnnealConfig, anneal_closed_loop


def record(rid, role, f, remaining=10):
    return ResonatorRecord(
        id=rid, role=role, f_meas=f,
        shoelaces=ShoelaceArray(total=10, remaining=remaining),
    )


def device_fixture(n_pairs=17):
    """Registry shaped like the 17-transmon, 34-resonator device."""
    reg = DeviceRegistry(device_id="dev17")
    for k in range(n_pairs):
        fr = 7.2e9 + 40e6 * k
        reg.resonators[f"r{k:02d}"] = record(f"r{k:02d}", "readout", fr)
        reg.resonators[f"p{k:02d}"] = record(f"p{k:02d}", "purcell", fr + 15e6)
        reg.transmons[f"q{k:02d}"] = TransmonEntry(
            id=f"q{k:02d}", f_q=5.5e9 + 20e6 * k, alpha=-280e6,
            e_j=14e9, e_c=280e6, r_j=6000.0,
        )
        reg.pairs[f"pair{k:02d}"] = PairLink(
            id=f"pair{k:02d}", transmon=f"q{k:02d}",
            readout=f"r{k:02d}", purcell=f"p{k:02d}",
            feedline="fl0" if k < 9 else "fl1",
            j=10e6, kappa=20e6, chi=-10e6,
        )
    return reg


class TestRegistryRoundTrip:
    def test_empty_registry(self, tmp_path):
        reg = DeviceRegistry(device_id="empty")
        path = tmp_path / "reg.json"
        save_registry(reg, path)
        text = path.read_text()
        save_registry(load_registry(path), path)
        assert path.read_text() == text

    def test_device_fixture_round_trips(self, tmp_path):
        reg = device_fixture()
        path = tmp_path / "reg.json"
        save_registry(reg, path)
        loaded = load_registry(path)
        assert dumps_registry(loaded) == dumps_registry(reg)
        assert len(loaded.resonators) == 34
        assert len(loaded.transmons) == 17
        assert loaded.feedline_pairs("fl0")[0].id == "pair00"

    def test_unknown_fields_preserved(self, tmp_path):
        reg = device_fixture(2)
        path = tmp_path / "reg.json"
        save_registry(reg, path)
        doc = json.loads(path.read_text())
        doc["lab_station"] = "fridge3"
        doc["resonators"][0]["notes"] = "slightly lossy"
        doc["resonators"][0]["shoelaces"]["batch"] = "B7"
        doc["transmons"][1]["junction"] = {"area_um2": 0.02}
        doc["pairs"][0]["fit_id"] = "fit-0042"
        path.write_text(json.dumps(doc))
        loaded = load_registry(path)
        save_registry(loaded, path)
        out = json.loads(path.read_text())
        assert out["lab_station"] == "fridge3"
        assert out["resonators"][0]["notes"] == "slightly lossy"
        assert out["resonators"][0]["shoelaces"]["batch"] == "B7"
        assert out["transmons"][1]["junction"] == {"area_um2": 0.02}
        assert out["pairs"][0]["fit_id"] == "fit-0042"

    def test_missing_resonator_reference(self, tmp_path):
        reg = device_fixture(1)
        del reg.resonators["p00"]
        path = tmp_path / "reg.json"
        # dumps_registry does not validate (save_registry would refuse)
        path.write_text(dumps_registry(reg))
        with pytest.raises(ValidationError) as exc:
            load_registry(path)
        assert any("pairs.pair00.purcell" in p for p in exc.value.paths)

    def test_wrong_role_reference(self, tmp_path):
        reg = device_fixture(1)
        reg.pairs["pair00"].purcell = "r00"  # readout in a purcell slot
        path = tmp_path / "reg.json"
        path.write_text(dumps_registry(reg))
        with pytest.raises(ValidationError):
            load_registry(path)

    def test_version_check(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps({"version": 99, "device_id": "x"}))
        with pytest.raises(ValidationError):
            load_registry(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            load_registry(path)

    def test_integers_in_float_fields_save_as_floats(self, tmp_path):
        # resonator and pair numbers are read as floats; transmon values as written
        path = tmp_path / "reg.json"
        save_registry(device_fixture(1), path)
        doc = json.loads(path.read_text())
        doc["resonators"][0]["f_meas_hz"] = 7_215_000_000
        doc["resonators"][0]["shoelaces"]["pitch_m"] = 1
        doc["pairs"][0]["j_hz"] = 10_000_000
        doc["transmons"][0]["r_j_ohm"] = 6000
        path.write_text(json.dumps(doc))
        save_registry(load_registry(path), path)
        out = json.loads(path.read_text())
        assert out["resonators"][0]["f_meas_hz"] == 7.215e9
        assert isinstance(out["resonators"][0]["f_meas_hz"], float)
        assert isinstance(out["resonators"][0]["shoelaces"]["pitch_m"], float)
        assert isinstance(out["pairs"][0]["j_hz"], float)
        assert out["transmons"][0]["r_j_ohm"] == 6000
        assert isinstance(out["transmons"][0]["r_j_ohm"], int)

    def test_a_drive_line_decay_may_only_be_zero(self, tmp_path):
        # a trace shows a drive-line decay only in its sum with gamma_r, so a file puts it there
        path, key = tmp_path / "reg.json", ("pairs", 0, "kappa_drive_hz")
        path.write_text(json.dumps(_replaced(PAIR_REGISTRY, key, 3e4)))
        with pytest.raises(ValidationError) as exc:
            load_registry(path)
        assert exc.value.paths == ["pairs[0].kappa_drive_hz: expected 0 (add a drive-line decay "
                                   "rate to gamma_r_hz), got 30000.0"]
        path.write_text(json.dumps(_replaced(PAIR_REGISTRY, key, 0)))
        save_registry(load_registry(path), path)
        text = path.read_bytes()
        assert b'"kappa_drive_hz": 0.0' in text
        save_registry(load_registry(path), path)
        assert path.read_bytes() == text

    def test_save_refuses_what_load_would_refuse(self, tmp_path):
        reg = device_fixture(1)
        path = tmp_path / "reg.json"
        save_registry(reg, path)
        before = path.read_bytes()
        reg.resonators["p00"].shoelaces.remaining = -1
        with pytest.raises(ValidationError) as exc:
            save_registry(reg, path)
        assert exc.value.paths == [
            "resonators[0].shoelaces.remaining: expected a non-negative integer, got -1"]
        assert path.read_bytes() == before

    def test_a_failed_write_leaves_the_file_and_no_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "reg.json"
        save_registry(device_fixture(1), path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError(errno.EACCES, "Permission denied", src)

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="Permission denied") as exc:
            save_registry(device_fixture(2), path)
        assert exc.value.filename == path
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["reg.json"]

    def test_a_history_action_checks_itself_when_read_back(self):
        reg = device_fixture(1)
        reg.history.append({"event": "apply", "cycle_index": 1, "simulated": True, "actions": [
            {"resonator": "p00", "n_remove": -1, "delta_l_m": 5e-6, "f_before_hz": 7.215e9,
             "f_after_hz": 7.2e9, "predicted_f_hz": 7.2e9}]})
        with pytest.raises(DomainError, match="AppliedTrim.n_remove"):
            reg.cycle_outcome(1)

    def test_next_cycle_index(self):
        reg = device_fixture(1)
        assert reg.next_cycle_index() == 1
        reg.history.append({"event": "apply", "cycle_index": 1})
        assert reg.next_cycle_index() == 2


class TestTraceFiles:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "frequency_hz,re_s21,im_s21\n"
            "7.0e9,1.0,0.0\n7.1e9,0.5,-0.1\n7.2e9,1.0,0.0\n"
        )
        tr = load_trace(path)
        assert len(tr) == 3
        assert tr.values[1] == pytest.approx(0.5 - 0.1j)

    def test_round_trip(self, tmp_path):
        f = np.linspace(7.0e9, 7.2e9, 64)
        tr = TransmissionTrace(freqs=f, values=np.exp(1j * f / 1e9))
        path = tmp_path / "trace.csv"
        save_trace(tr, path)
        back = load_trace(path)
        assert np.array_equal(back.freqs, tr.freqs)
        assert np.array_equal(back.values, tr.values)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("freq,re,im\n7.0e9,1.0,0.0\n")
        with pytest.raises(ParseError) as exc:
            load_trace(path)
        assert exc.value.line == 1

    def test_non_numeric_row_names_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("frequency_hz,re_s21,im_s21\n7.0e9,1.0,0.0\n7.1e9,x,0.0\n")
        with pytest.raises(ParseError) as exc:
            load_trace(path)
        assert exc.value.line == 3

    def test_descending_rows_sorted_with_warning(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "frequency_hz,re_s21,im_s21\n"
            "7.2e9,1.0,0.0\n7.1e9,0.5,0.0\n7.0e9,1.0,0.0\n"
        )
        tr = load_trace(path)
        assert np.all(np.diff(tr.freqs) > 0)
        assert tr.warnings

    def test_duplicate_frequency_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "frequency_hz,re_s21,im_s21\n7.0e9,1.0,0.0\n7.0e9,0.5,0.0\n"
        )
        with pytest.raises(ValidationError):
            load_trace(path)


class TestPlanFiles:
    def test_round_trip_with_provenance(self, tmp_path):
        plan = TrimPlan(
            actions=[
                TrimAction(
                    resonator_id="p00", n_remove=2, delta_l=1e-5,
                    predicted_delta_f=-20.9e6, predicted_f=7.479e9,
                )
            ],
            objective_before=21e6,
            objective_after=0.1e6,
            cycle_index=1,
        )
        path = tmp_path / "plan.json"
        save_plan(plan, path, provenance={"slope_mode": "fitted", "nu_rho_m_per_s": 1.076e8})
        loaded, prov = load_plan(path)
        assert loaded == plan
        assert prov["slope_mode"] == "fitted"
        doc = json.loads(path.read_text())
        assert doc["version"] == 1

    def test_version_check(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"version": 12, "actions": []}))
        with pytest.raises(ValidationError):
            load_plan(path)

    def test_malformed_action(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"version": 1, "actions": [{"n_remove": 1}]}))
        with pytest.raises(ValidationError):
            load_plan(path)


def _field_paths(doc, prefix=()):
    """Path (a tuple of keys and indices) of every value inside doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _valid_registry_doc(tmp_path):
    reg = device_fixture(2)
    reg.extras["lab_station"] = "fridge3"
    reg.extras["resonators"] = [{"id": "p00", "notes": "slightly lossy"}]
    reg.pairs["pair01"].transmon = None
    reg.history += [
        {"event": "fit", "pair": "pair00", "trace": "t.csv", "converged": True,
         "f_r_hz": 7.2e9, "f_p_hz": 7.215e9},
        {"event": "apply", "cycle_index": 1, "plan_sha256": "ab", "simulated": False,
         "actions": [{"resonator": "p00", "n_remove": 2, "delta_l_m": 1e-5,
                      "f_before_hz": 7.215e9, "f_after_hz": 7.195e9, "predicted_f_hz": 7.195e9}]},
        {"event": "fit-nu-rho", "cycle_index": 1, "nu_rho_m_per_s": 1.076e8},
    ]
    path = tmp_path / "valid.json"
    save_registry(reg, path)
    return json.loads(path.read_text())


def _valid_plan_doc(tmp_path):
    plan = TrimPlan(
        actions=[TrimAction("p00", 2, 1e-5, -20.9e6, 7.479e9),
                 TrimAction("r01", 1, 5e-6, -10.4e6, 7.23e9)],
        objective_before=21e6, objective_after=math.inf, cycle_index=1, notes=["best effort"])
    path = tmp_path / "valid-plan.json"
    save_plan(plan, path, provenance={"slope_mode": "fitted", "pairs": ["pair00"]})
    return json.loads(path.read_text())


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


def _check_load_save(tmp_path, doc, load, save):
    """load either refuses doc with a ResotrimError or returns something that
    saves, and reloads to the same bytes."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    try:
        loaded = load(path)
    except ResotrimError:
        return
    save(loaded, path)
    first = path.read_bytes()
    save(load(path), path)
    assert path.read_bytes() == first


def _check_load_run(tmp_path, doc, load, run):
    """load and then run raise nothing but a ResotrimError."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    try:
        run(load(path), tmp_path / "out.csv")
    except ResotrimError:
        pass


def _save_plan(loaded, path):
    plan, provenance = loaded
    save_plan(plan, path, provenance)


def _anneal(loaded, out):
    save_anneal_trace(anneal_closed_loop(*loaded), out)


def _readout(model, out):
    save_shots(synth_shots(model, 3, seed=0), out)


VALID_ANNEAL = {"r_start_ohm": 6000.0, "r_target_ohm": 6120.0, "exposure_threshold_s": 3600.0,
                "power_schedule_w": [0.17, 0.2], "initial_exposure_s": 1.0, "exposure_growth": 2.0,
                "response": {"coeffs": {"0.17": [0.001, 1.0], "0.2": [0.02, 1.0]}}}
VALID_BLOBS = {"mean0": [0.0, 0.0], "mean1": [4.0, 0.5], "mean2": [2.0, 3.0], "sigma": 0.7,
               "leak_prob": 0.1}


@pytest.mark.parametrize("kind", ["registry", "plan", "anneal", "blobs"])
def test_loaders_refuse_or_round_trip_any_field_value(tmp_path, kind):
    valid, check = {
        "registry": (_valid_registry_doc(tmp_path), functools.partial(
            _check_load_save, load=load_registry, save=save_registry)),
        "plan": (_valid_plan_doc(tmp_path), functools.partial(
            _check_load_save, load=load_plan, save=_save_plan)),
        "anneal": (VALID_ANNEAL, functools.partial(
            _check_load_run, load=load_anneal_config, run=_anneal)),
        "blobs": (VALID_BLOBS, functools.partial(
            _check_load_run, load=load_blob_model, run=_readout)),
    }[kind]

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(_field_paths(valid), key=repr)), json_values)
    def replace_one_field(path, value):
        check(tmp_path, _replaced(valid, path, value))

    replace_one_field()


def test_load_trace_refuses_any_bytes_with_a_resotrim_error(tmp_path):
    path = tmp_path / "trace.csv"
    csv_like = st.text("0123456789.e-+,\n\r\" nanif", max_size=60).map(str.encode)

    @settings(max_examples=500, deadline=None)
    @given(st.binary(max_size=60) | csv_like)
    def load_after_header(rows):
        path.write_bytes(b"frequency_hz,re_s21,im_s21\n" + rows)
        try:
            load_trace(path)
        except ResotrimError:
            pass

    load_after_header()


RESONATOR = {"id": "r0", "role": "readout", "f_meas_hz": 7.5e9,
             "shoelaces": {"total": 10, "remaining": 7, "pitch_m": 5e-6}}
TRANSMON = {"id": "q0", "f_q_hz": 6e9, "alpha_hz": -3e8, "e_j_hz": 1.6e10, "e_c_hz": 3e8,
            "r_j_ohm": 6000.0}
# no pair refers to these, so a changed id or role breaks no reference
LONE_REGISTRY = {"version": 1, "resonators": [RESONATOR], "transmons": [TRANSMON]}
PAIR_REGISTRY = {"version": 1, "resonators": [
    RESONATOR, {**RESONATOR, "id": "p0", "role": "purcell", "f_meas_hz": 7.51e9}], "pairs": [{
        "id": "pair0", "transmon": None, "readout": "r0", "purcell": "p0", "feedline": "fl0",
        "j_hz": 1e7, "kappa_hz": 2e7, "chi_hz": -1e6, "gamma_r_hz": 4e4, "gamma_p_hz": 2e4}]}
APPLIED_REGISTRY = {**LONE_REGISTRY, "history": [{"event": "apply", "cycle_index": 1, "actions": [{
    "resonator": "r0", "n_remove": 2, "delta_l_m": 1e-5, "f_before_hz": 7.52e9,
    "f_after_hz": 7.5e9, "predicted_f_hz": 7.501e9}]}]}
PLAN = {"version": 1, "actions": [{"resonator_id": "p0", "n_remove": 3, "delta_l": 1.5e-5,
                                   "predicted_delta_f": -3e6, "predicted_f": 7.518e9}]}
PLAN_TOP = {"version": 1, "actions": [], "cycle_index": 2, "feasible": False,
            "objective_before_hz": 3e6, "objective_after_hz": 1e6, "notes": ["best effort"]}


def _paths(prefix, keys):
    return {name: (*prefix, key) for name, key in keys.items()}


# record -> (its loader, a document that loads, record field -> path of its key there)
RECORDS = {
    PairParams: (load_registry, PAIR_REGISTRY, {
        "f_r": ("resonators", 0, "f_meas_hz"), "f_p": ("resonators", 1, "f_meas_hz"),
        **_paths(("pairs", 0), {name: f"{name}_hz" for name in (
            "j", "kappa", "gamma_r", "gamma_p", "chi")})}),
    PairLink: (load_registry, PAIR_REGISTRY, _paths(("pairs", 0), {
        **{name: name for name in ("id", "transmon", "readout", "purcell", "feedline")},
        **{name: f"{name}_hz" for name in ("j", "kappa", "chi", "gamma_r", "gamma_p")}})),
    AppliedTrim: (load_registry, APPLIED_REGISTRY, _paths(("history", 0, "actions", 0), {
        "resonator_id": "resonator", "n_remove": "n_remove", "delta_l": "delta_l_m",
        "f_before": "f_before_hz", "f_after": "f_after_hz", "predicted_f": "predicted_f_hz"})),
    TrimPlan: (load_plan, PLAN_TOP, _paths((), {
        "actions": "actions", "cycle_index": "cycle_index", "feasible": "feasible",
        "objective_before": "objective_before_hz", "objective_after": "objective_after_hz",
        "notes": "notes"})),
    ResonatorRecord: (load_registry, LONE_REGISTRY, _paths(
        ("resonators", 0), {"id": "id", "role": "role", "f_meas": "f_meas_hz"})),
    ShoelaceArray: (load_registry, LONE_REGISTRY, _paths(
        ("resonators", 0, "shoelaces"), {"total": "total", "remaining": "remaining",
                                         "pitch": "pitch_m"})),
    TransmonEntry: (load_registry, LONE_REGISTRY, _paths(("transmons", 0), {
        "id": "id", "f_q": "f_q_hz", "alpha": "alpha_hz", "e_j": "e_j_hz", "e_c": "e_c_hz",
        "r_j": "r_j_ohm"})),
    TrimAction: (load_plan, PLAN, _paths(("actions", 0), {name: name for name in PLAN[
        "actions"][0]})),
    AnnealConfig: (load_anneal_config, VALID_ANNEAL, _paths((), {
        "r_start": "r_start_ohm", "r_target": "r_target_ohm",
        "exposure_threshold": "exposure_threshold_s", "power_schedule": "power_schedule_w",
        "initial_exposure": "initial_exposure_s", "exposure_growth": "exposure_growth"})),
    BlobModel: (load_blob_model, VALID_BLOBS, _paths((), {name: name for name in VALID_BLOBS})),
}


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _as_json(value):
    """value as a JSON document holds it: numpy scalars as numbers, tuples as lists."""
    if isinstance(value, (list, tuple)):
        return [_as_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _as_json(v) for k, v in value.items()}
    return value.item() if isinstance(value, np.generic) else value


def _with_coeffs(doc):
    """An anneal config with response coefficients for each number in its schedule."""
    schedule = doc["power_schedule_w"]
    if not isinstance(schedule, list):
        return doc
    powers = [p for p in schedule if isinstance(p, (int, float)) and not isinstance(p, bool)]
    return {**doc, "response": {"coeffs": {json.dumps(p): [0.02, 1.0] for p in powers}}}


record_values = (json_values | st.sampled_from(["readout", "purcell"])
                 | st.floats().map(np.float64) | st.integers(-2**63, 2**63 - 1).map(np.int64)
                 | st.lists(st.floats() | st.integers(-5, 5), max_size=3).map(tuple))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_refuses_a_value_exactly_when_its_loader_does(tmp_path, cls):
    load, doc, paths = RECORDS[cls]
    valid = {name: _as_json(_get(doc, path)) for name, path in paths.items()}
    cls(**valid)
    path = tmp_path / "doc.json"

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(paths)), record_values)
    def replace_one_field(name, value):
        # a pair's j and kappa are null in a file until they are fitted
        assume(not (cls is PairParams and value is None and name in ("j", "kappa")))
        # the registry, not the record, checks what a pair's names refer to
        assume(not (cls is PairLink and isinstance(value, str)
                    and name in ("transmon", "readout", "purcell")))
        # a file holds no tuple: an empty one reaches it as an empty list
        assume(not (cls is TrimPlan and isinstance(value, tuple) and not value))
        try:
            cls(**{**valid, name: value})
            built = True
        except ResotrimError:
            built = False
        changed = _replaced(doc, paths[name], _as_json(value))
        path.write_text(json.dumps(_with_coeffs(changed) if load is load_anneal_config
                                   else changed))
        try:
            load(path)
            loaded = True
        except ValidationError:
            loaded = False
        assert built == loaded, (name, value)

    replace_one_field()


PAIR_PARAMS = dict(f_r=7.5e9, f_p=7.51e9, j=1e7, kappa=2e7)
CONFIG = dict(r_start=6000.0, r_target=6100.0, exposure_threshold=100.0, power_schedule=[0.17])
ACTION = dict(resonator_id="r0", delta_l=5e-6, predicted_delta_f=-1e6, predicted_f=7e9)
TRIM = dict(resonator_id="r0", n_remove=1, delta_l=5e-6, f_before=7.5e9, f_after=7.49e9,
            predicted_f=7.49e9)
LINK = dict(id="pair0", transmon=None, readout="r0", purcell="p0")
TOP = dict(actions=[], objective_before=1e6, objective_after=0.0)
# values that a loader refuses in a file; all but the role constructed without
# complaint before the records checked themselves with the loaders' rules
REFUSED = [
    *[(PairParams, dict(PAIR_PARAMS, **{name: value})) for name, value in [
        ("gamma_r", math.nan), ("chi", math.nan), ("j", math.inf), ("f_r", math.inf)]],
    (ShoelaceArray, dict(total=10.5)), (ShoelaceArray, dict(remaining=True)),
    (ResonatorRecord, dict(id=5, role="readout", f_meas=7.5e9)),
    (ResonatorRecord, dict(id="r0", role="flux", f_meas=7.5e9)),
    (TrimAction, dict(ACTION, n_remove=1.5)),
    *[(AnnealConfig, dict(CONFIG, **{name: value})) for name, value in [
        ("exposure_threshold", -1), ("exposure_growth", 0), ("power_schedule", [-1]),
        ("initial_exposure", math.nan)]],
    (BlobModel, dict(mean0=(math.nan, 0), mean1=(1, 0), sigma=1.0)),
    *[(TrimPlan, dict(TOP, **{name: value})) for name, value in [
        ("objective_before", math.nan), ("cycle_index", -1), ("feasible", "yes"),
        ("notes", "x")]],
    (AppliedTrim, dict(TRIM, n_remove=-1)), (AppliedTrim, dict(TRIM, f_after=math.nan)),
    *[(PairLink, dict(LINK, **{name: value})) for name, value in [
        ("j", -5.0), ("chi", math.nan), ("readout", 3)]],
]


@pytest.mark.parametrize("cls, fields", REFUSED, ids=lambda v: getattr(v, "__name__", ""))
def test_constructors_refuse_what_a_file_may_not_hold(cls, fields):
    with pytest.raises(InvalidParamsError if cls is PairParams else DomainError):
        cls(**fields)


def test_rules_import_only_the_standard_library_and_errors():
    # any command may check a record, so the rules must not load numpy
    tree = ast.parse(open(resotrim.rules.__file__, encoding="utf-8").read())
    imported = [(0, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [(node.level, node.module) for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert all((level == 0 and name.split(".")[0] in sys.stdlib_module_names)
               or (level == 1 and name == "errors") for level, name in imported), imported
