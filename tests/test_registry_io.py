"""Registry, trace-file, and plan-file round-trip tests."""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resotrim.errors import ParseError, ResotrimError, ValidationError
from resotrim.fitting import TransmissionTrace
from resotrim.planner import (
    ResonatorRecord,
    ShoelaceArray,
    TrimAction,
    TrimPlan,
)
from resotrim.readout import synth_shots
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
from resotrim.transmon import anneal_closed_loop


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
        doc["pairs"][0]["fit_id"] = "fit-0042"
        path.write_text(json.dumps(doc))
        loaded = load_registry(path)
        save_registry(loaded, path)
        out = json.loads(path.read_text())
        assert out["lab_station"] == "fridge3"
        assert out["resonators"][0]["notes"] == "slightly lossy"
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
    reg.res_extras["p00"] = {"notes": "slightly lossy"}
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
