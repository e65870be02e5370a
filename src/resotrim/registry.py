"""Every file the toolkit reads or writes, and the registry's history entries.

The registry is a version-tagged JSON document (canonical form: sorted
keys, two-space indent, trailing newline) holding resonator and transmon
records, pair wiring, feedline grouping and an append-only cycle history,
whose entries are built here next to the code that reads them back.
Registry and plan documents, the anneal config and the blob model are read
through one set of field tables (the first two also before every save), and
each bad field is reported by its path. Unknown fields are preserved
through registry load/save round trips. Traces, anneal histories and shots
are CSV. Every write goes to a temp file followed by an atomic rename.
"""

import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import DomainError, ParseError, ValidationError
from .fitting import TransmissionTrace
from .pairmodel import PairParams
from .planner import (AppliedTrim, ResonatorRecord, ShoelaceArray, TrimAction, TrimPlan,
                      apply_plan, fit_nu_rho, simulate_outcomes, velocity_samples)
from .readout import BlobModel
from .transmon import TRANSMON_RATIO_FLOOR, AnnealConfig, LogAnnealResponse

__all__ = [
    "SCHEMA_VERSION", "PLAN_VERSION", "PairLink", "TransmonEntry", "DeviceRegistry",
    "load_registry", "save_registry", "load_trace", "save_trace", "save_plan", "load_plan",
    "load_anneal_config", "save_anneal_trace", "load_blob_model", "save_shots",
]

SCHEMA_VERSION = 1
PLAN_VERSION = 1

_REQUIRED = object()


@dataclass(frozen=True)
class _Field:
    """How one JSON value is read: ``test`` accepts it, ``expected`` names
    what it accepts (nothing is coerced), ``read`` converts an accepted
    value other than null and ``item`` is the rule of a list's entries, or
    a tuple of one rule per entry. An absent key reads as ``default``;
    without one, the key is required."""

    test: object
    expected: str
    default: object = _REQUIRED
    read: object = None
    item: object = None


def _is_real(v):
    """An int or float within the float range; bools are not numbers."""
    return isinstance(v, float) or (
        isinstance(v, int) and not isinstance(v, bool) and abs(v) <= sys.float_info.max)


def _number(test, expected, read=float):
    return _Field(lambda v: _is_real(v) and math.isfinite(v) and test(v), expected, read=read)


def _or_null(rule):
    """rule for a key that may also be null; null and absent read as None."""
    return replace(rule, test=lambda v: v is None or rule.test(v),
                   expected=f"{rule.expected} or null", default=None)


def _list_of(item, default=_REQUIRED):
    return _Field(lambda v: isinstance(v, list), "a list", default, item=item)


def _pair_of(first, second, expected):
    """rule for a list of two entries, each with its own rule."""
    return _Field(lambda v: isinstance(v, list) and len(v) == 2, expected, item=(first, second))


def _map_of(item):
    """rule for an object whose every value follows item."""
    return lambda v: dict.fromkeys(v, item) if isinstance(v, dict) else _OBJECT


_STR = _Field(lambda v: isinstance(v, str), "a string")
_COUNT = _Field(lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
                "a non-negative integer")
_BOOL = _Field(lambda v: isinstance(v, bool), "true or false")
_OBJECT = _Field(lambda v: isinstance(v, dict), "an object")
_FINITE = _number(lambda v: True, "a finite number")
_POSITIVE = _number(lambda v: v > 0, "a positive finite number")
_NON_NEGATIVE = _number(lambda v: v >= 0, "a non-negative finite number")
_LOSS = replace(_NON_NEGATIVE, default=0.0)

# A table reads an object: key -> rule, with a nested table for a nested object.
_RESONATOR = {"id": _STR, "role": _Field(lambda v: v in ("readout", "purcell"),
                                         "'readout' or 'purcell'"),
              "f_meas_hz": _POSITIVE,
              "shoelaces": {"total": _COUNT, "remaining": _COUNT, "pitch_m": _POSITIVE}}
# transmon values are kept as written: an integer stays an integer
_SET_POSITIVE = _or_null(_number(lambda v: v > 0, "a positive number", read=None))
_TRANSMON = {"id": _STR, "f_q_hz": _SET_POSITIVE, "e_j_hz": _SET_POSITIVE,
             "e_c_hz": _SET_POSITIVE, "r_j_ohm": _SET_POSITIVE,
             "alpha_hz": _or_null(_number(lambda v: v < 0, "a negative number", read=None))}
# each key is a PairLink field, with "_hz" on the rates
_PAIR = {"id": _STR, "transmon": _or_null(_STR), "readout": _STR, "purcell": _STR,
         "feedline": _or_null(_STR),
         "j_hz": _or_null(_POSITIVE), "kappa_hz": _or_null(_POSITIVE),
         "chi_hz": replace(_FINITE, default=0.0),
         "gamma_r_hz": _LOSS, "gamma_p_hz": _LOSS, "kappa_drive_hz": _LOSS}
# the history entries that cycle_outcome and record_apply read back
_EVENTS = {
    "fit": {"pair": _STR, "f_r_hz": _POSITIVE, "f_p_hz": _POSITIVE,
            "converged": replace(_BOOL, default=True)},
    "apply": {"cycle_index": _Field(lambda v: _COUNT.test(v) and v >= 1, "an integer >= 1"),
              "plan_sha256": replace(_STR, default=None),
              "simulated": replace(_BOOL, default=False),
              "actions": _list_of({"resonator": _STR, "n_remove": _COUNT,
                                   "delta_l_m": _NON_NEGATIVE, "f_before_hz": _POSITIVE,
                                   "f_after_hz": _POSITIVE, "predicted_f_hz": _POSITIVE})},
}


def _event_rule(entry):
    event = entry.get("event") if isinstance(entry, dict) else None
    return _EVENTS[event] if event in ("fit", "apply") else _OBJECT


_REGISTRY = {"device_id": replace(_STR, default=""), "resonators": _list_of(_RESONATOR, ()),
             "transmons": _list_of(_TRANSMON, ()), "pairs": _list_of(_PAIR, ()),
             "history": _list_of(_event_rule, ())}
# each key is a TrimAction field
_PLAN_ACTION = {"resonator_id": _STR, "n_remove": _COUNT, "delta_l": _NON_NEGATIVE,
                "predicted_delta_f": _number(lambda v: v <= 0, "a finite number <= 0"),
                "predicted_f": _POSITIVE}
# Infinity is a valid spacing: a feedline with one pair has no neighbours
_OBJECTIVE = _Field(lambda v: _is_real(v) and v >= 0, "a non-negative number", 0.0, float)
_PLAN = {"cycle_index": replace(_COUNT, default=0), "feasible": replace(_BOOL, default=True),
         "objective_before_hz": _OBJECTIVE, "objective_after_hz": _OBJECTIVE,
         "notes": _list_of(_STR, ()), "actions": _list_of(_PLAN_ACTION),
         "provenance": replace(_OBJECT, default={})}
# simulate anneal: the AnnealConfig fields in order, with units, and the response
# dR/R0 = c log(1 + t/t0) as power in W -> [c, t0_s]
_ANNEAL = {"r_start_ohm": _POSITIVE, "r_target_ohm": _POSITIVE,
           "exposure_threshold_s": _NON_NEGATIVE, "power_schedule_w": _list_of(_POSITIVE),
           "initial_exposure_s": replace(_POSITIVE, default=1.0),
           "exposure_growth": replace(_POSITIVE, default=2.0),
           "response": {"coeffs": _map_of(_pair_of(_FINITE, _POSITIVE, "a list [c, t0_s]"))}}
# simulate readout: the BlobModel fields
_IQ = _pair_of(_FINITE, _FINITE, "a list [i, q]")
_BLOBS = {"mean0": _IQ, "mean1": _IQ, "mean2": replace(_IQ, default=None), "sigma": _POSITIVE,
          "leak_prob": replace(_number(lambda v: 0 <= v <= 1, "a number in [0, 1]"),
                               default=0.0)}

# TransmonEntry field -> registry key
_TRANSMON_KEYS = {"f_q": "f_q_hz", "alpha": "alpha_hz", "e_j": "e_j_hz", "e_c": "e_c_hz",
                  "r_j": "r_j_ohm"}
# AppliedTrim field -> key of an action in an ``apply`` history entry
_TRIM_KEYS = {"resonator_id": "resonator", "n_remove": "n_remove", "delta_l": "delta_l_m",
              "f_before": "f_before_hz", "f_after": "f_after_hz", "predicted_f": "predicted_f_hz"}


def _walk(path, value, rule, problems):
    """value as its rule reads it; each bad field goes to problems by path.

    A rule is a :class:`_Field`, a table or a function of the value that
    returns its rule. A table keeps the keys it does not name as they are.
    """
    if callable(rule):
        rule = rule(value)
    table, rule = (rule, _OBJECT) if isinstance(rule, dict) else (None, rule)
    if not rule.test(value):
        problems.append(f"{path}: expected {rule.expected}, got {value!r}")
    elif table is not None:
        value = dict(value)
        for key, sub in table.items():
            where = f"{path}.{key}" if path else key
            if key in value:
                value[key] = _walk(where, value[key], sub, problems)
            elif getattr(sub, "default", _REQUIRED) is _REQUIRED:
                problems.append(f"{where}: missing")
            else:
                value[key] = sub.default
    elif rule.item is not None:
        items = rule.item if isinstance(rule.item, tuple) else [rule.item] * len(value)
        value = [_walk(f"{path}[{i}]", v, sub, problems)
                 for i, (v, sub) in enumerate(zip(value, items))]
    elif value is not None and rule.read is not None:
        value = rule.read(value)
    return value


def _read(doc, what, table, version=None):
    """doc as table reads it; ValidationError listing every bad field.
    Given a ``version``, the document must carry exactly that one."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(doc).__name__}")
    if version is not None and not (_COUNT.test(doc.get("version"))
                                    and doc["version"] == version):
        raise ValidationError(f"unsupported {what} version {doc.get('version')!r}")
    problems = []
    values = _walk("", doc, table, problems)
    if problems:
        raise ValidationError(f"{what} schema violation", paths=problems)
    return values


def _extras(entry, table):
    return {k: v for k, v in entry.items() if k not in table}


def _ratio_problem(path, entry, problems):
    """Record an e_j/e_c below the transmon floor when both are set numbers."""
    e_j, e_c = entry["e_j_hz"], entry["e_c_hz"]
    if _is_real(e_j) and _is_real(e_c) and e_j < TRANSMON_RATIO_FLOOR * e_c:
        problems.append(f"{path}.e_j_hz: e_j/e_c = {e_j / e_c:.3g} is below the transmon "
                        f"floor {TRANSMON_RATIO_FLOOR:g}")


@dataclass
class TransmonEntry:
    """A transmon: sweet-spot f_q and alpha (Hz), E_J/h and E_c/h (Hz) and
    junction-pair resistance r_j (Ohm). Each field but ``id`` may be unset;
    a set one must be a number, alpha negative and the others positive,
    and e_j/e_c at least the transmon floor when both are set.
    """

    id: str
    f_q: float | None = None
    alpha: float | None = None
    e_j: float | None = None
    e_c: float | None = None
    r_j: float | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        problems = []
        entry = _walk(f"transmon {self.id}", _transmon_doc(self), _TRANSMON, problems)
        _ratio_problem(f"transmon {self.id}", entry, problems)
        if problems:
            raise DomainError("; ".join(problems))


def _transmon_doc(t):
    return {"id": t.id, **{key: getattr(t, name) for name, key in _TRANSMON_KEYS.items()}}


@dataclass
class PairLink:
    """Wiring of one transmon to its readout/Purcell resonator pair."""

    id: str
    transmon: str | None
    readout: str
    purcell: str
    feedline: str | None = None
    j: float | None = None
    kappa: float | None = None
    chi: float = 0.0
    gamma_r: float = 0.0
    gamma_p: float = 0.0
    kappa_drive: float = 0.0
    extras: dict = field(default_factory=dict)

    def pair_params(self, f_r, f_p):
        if self.j is None or self.kappa is None:
            raise ValidationError(f"pair {self.id} has no fitted j/kappa")
        return PairParams(
            f_r=f_r, f_p=f_p, j=self.j, kappa=self.kappa,
            gamma_r=self.gamma_r, gamma_p=self.gamma_p,
            kappa_drive=self.kappa_drive, chi=self.chi,
        )


@dataclass
class DeviceRegistry:
    device_id: str
    resonators: dict = field(default_factory=dict)  # id -> ResonatorRecord
    transmons: dict = field(default_factory=dict)  # id -> TransmonEntry
    pairs: dict = field(default_factory=dict)  # id -> PairLink
    history: list = field(default_factory=list)  # append-only
    extras: dict = field(default_factory=dict)
    res_extras: dict = field(default_factory=dict)

    def validate(self):
        """Check the cross-references: a pair's resonators exist, have the
        role of their slot and belong to no other pair; its transmon exists."""
        problems, owner = [], {}
        for pid, pair in self.pairs.items():
            for role in ("readout", "purcell"):
                rid = getattr(pair, role)
                rec = self.resonators.get(rid)
                if rec is None:
                    problems.append(f"pairs.{pid}.{role}: unknown resonator {rid!r}")
                elif rec.role != role:
                    problems.append(f"pairs.{pid}.{role}: resonator {rid!r} has role {rec.role!r}")
                elif owner.setdefault(rid, pid) != pid:
                    problems.append(f"pairs.{pid}.{role}: resonator {rid!r} already belongs "
                                    f"to pair {owner[rid]!r}")
            if pair.transmon is not None and pair.transmon not in self.transmons:
                problems.append(f"pairs.{pid}.transmon: unknown transmon {pair.transmon!r}")
        if problems:
            raise ValidationError("registry validation failed", paths=problems)

    def feedline_pairs(self, feedline):
        return [p for p in self.pairs.values() if p.feedline == feedline]

    def next_cycle_index(self):
        applied = [h["cycle_index"] for h in self.history if h.get("event") == "apply"]
        return (max(applied) + 1) if applied else 1

    def record_fit(self, pair_id, trace_path, model, result):
        """Append the ``fit`` entry of a pair's :class:`FitResult`. Only a
        converged fit also sets the pair's rates and resonator frequencies."""
        link = self.pairs.get(pair_id)
        if link is None:
            raise ValidationError(f"unknown pair {pair_id!r}")
        p = result.params
        if result.converged:
            link.j, link.kappa, link.gamma_r = p.j, p.kappa, p.gamma_r
            link.gamma_p, link.kappa_drive = p.gamma_p, p.kappa_drive
            self.resonators[link.readout].f_meas = p.f_r
            self.resonators[link.purcell].f_meas = p.f_p
        self.history.append({"event": "fit", "pair": pair_id, "trace": trace_path,
                             "model": model, "converged": result.converged,
                             "f_r_hz": p.f_r, "f_p_hz": p.f_p})

    def record_apply(self, plan, provenance, plan_path, nu_true=None):
        """Apply a plan as one trim cycle, append its ``apply`` entry and
        return (cycle index, trims); ``nu_true`` (m/s) simulates the shifts.

        Refuses a plan whose hash is already in the history, and a plan
        made for a cycle that has since been applied.
        """
        text = json.dumps(plan_to_doc(plan, provenance), sort_keys=True)
        plan_sha256 = hashlib.sha256(text.encode("utf-8")).hexdigest()
        for h in self.history:
            if h.get("event") == "apply" and h.get("plan_sha256") == plan_sha256:
                raise ValidationError(
                    f"plan already applied in cycle {h['cycle_index']}; "
                    "re-plan on the updated registry to trim again"
                )
        next_cycle = self.next_cycle_index()
        if 0 < plan.cycle_index < next_cycle:
            raise ValidationError(
                f"plan made for cycle {plan.cycle_index}, but cycle {next_cycle - 1} "
                "is already applied; re-plan on the updated registry to trim again"
            )
        cycle = plan.cycle_index or next_cycle
        realized = None if nu_true is None else simulate_outcomes(
            self.resonators.values(), plan, nu_true)
        self.resonators, trims = apply_plan(self.resonators.values(), plan, realized)
        self.history.append({"event": "apply", "cycle_index": cycle, "plan": plan_path,
                             "plan_sha256": plan_sha256, "simulated": nu_true is not None,
                             "nu_rho_true_m_per_s": nu_true, "provenance": provenance,
                             "actions": [{key: getattr(t, name) for name, key in _TRIM_KEYS.items()}
                                         for t in trims]})
        return cycle, trims

    def record_fit_nu_rho(self, cycle_index):
        """Fit the phase velocity to one cycle's shifts, append the
        ``fit-nu-rho`` entry and return its fields but the event."""
        samples = velocity_samples(*self.cycle_outcome(cycle_index))
        nu_rho, resid = fit_nu_rho(samples)
        fitted = {"cycle_index": cycle_index, "nu_rho_m_per_s": nu_rho,
                  "residual_rms_hz": resid, "n_samples": len(samples)}
        self.history.append({"event": "fit-nu-rho", **fitted})
        return fitted

    def cycle_outcome(self, cycle_index):
        """Trims applied in one cycle and the frequencies measured after them.

        A resonator's frequency is that of the latest converged fit of its
        pair after the cycle's apply and before the next apply; without
        such a fit, a simulated apply's f_after stands in. Returns
        (trims, {id: Hz}).
        """
        trims, measured, in_cycle = [], {}, False
        for h in self.history:
            if h.get("event") == "apply":
                in_cycle = h["cycle_index"] == cycle_index
                if not in_cycle:
                    continue
                for a in h["actions"]:
                    trims.append(AppliedTrim(**{n: a[key] for n, key in _TRIM_KEYS.items()}))
                    if h.get("simulated"):
                        measured[a["resonator"]] = a["f_after_hz"]
            elif (h.get("event") == "fit" and in_cycle and h.get("converged", True)
                  and h["pair"] in self.pairs):
                link = self.pairs[h["pair"]]
                measured[link.readout], measured[link.purcell] = h["f_r_hz"], h["f_p_hz"]
        return trims, measured


def _registry_to_doc(reg):
    def resonator(rid, rec):
        sh = rec.shoelaces
        return {**reg.res_extras.get(rid, {}), "id": rec.id, "role": rec.role,
                "f_meas_hz": rec.f_meas,
                "shoelaces": {"total": sh.total, "remaining": sh.remaining, "pitch_m": sh.pitch}}

    return {**reg.extras, "version": SCHEMA_VERSION, "device_id": reg.device_id,
            "resonators": [resonator(*item) for item in sorted(reg.resonators.items())],
            "transmons": [{**t.extras, **_transmon_doc(t)}
                          for _, t in sorted(reg.transmons.items())],
            "pairs": [{**p.extras, **{key: getattr(p, key.removesuffix("_hz")) for key in _PAIR}}
                      for _, p in sorted(reg.pairs.items())],
            "history": list(reg.history)}


def _doc_to_registry(doc):
    values = _read(doc, "registry", _REGISTRY, SCHEMA_VERSION)
    problems = []
    for kind in ("resonators", "transmons", "pairs"):
        ids = [entry["id"] for entry in values[kind]]
        problems += [f"{kind}[{i}].id: duplicate id {rid!r}"
                     for i, rid in enumerate(ids) if rid in ids[:i]]
    for i, entry in enumerate(values["resonators"]):
        sh = entry["shoelaces"]
        if sh["remaining"] > sh["total"]:
            problems.append(f"resonators[{i}].shoelaces.remaining: exceeds the total {sh['total']}")
    for i, entry in enumerate(values["transmons"]):
        _ratio_problem(f"transmons[{i}]", entry, problems)
    if problems:
        raise ValidationError("registry validation failed", paths=problems)
    reg = DeviceRegistry(values["device_id"], extras=_extras(doc, {"version", *_REGISTRY}),
                         history=list(doc.get("history", ())))
    for entry in values["resonators"]:
        sh = entry["shoelaces"]
        reg.resonators[entry["id"]] = ResonatorRecord(
            entry["id"], entry["role"], entry["f_meas_hz"],
            ShoelaceArray(sh["total"], sh["remaining"], sh["pitch_m"]))
        if _extras(entry, _RESONATOR):
            reg.res_extras[entry["id"]] = _extras(entry, _RESONATOR)
    for entry in values["transmons"]:
        reg.transmons[entry["id"]] = TransmonEntry(
            entry["id"], **{name: entry[key] for name, key in _TRANSMON_KEYS.items()},
            extras=_extras(entry, _TRANSMON))
    for entry in values["pairs"]:
        reg.pairs[entry["id"]] = PairLink(
            **{key.removesuffix("_hz"): entry[key] for key in _PAIR},
            extras=_extras(entry, _PAIR))
    reg.validate()
    return reg


def _dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def dumps_registry(reg):
    return _dumps(_registry_to_doc(reg))


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ParseError(f"not valid JSON: {exc}", line=getattr(exc, "lineno", None)) from exc


def load_registry(path):
    return _doc_to_registry(_load_json(path))


def _atomic_write(path, text):
    """Write text to path through a temporary file beside it; an OSError names path."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".resotrim-", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)


def save_registry(reg, path):
    """Write reg once the text passes every check of :func:`load_registry`;
    otherwise raise ValidationError and leave the file as it was."""
    text = dumps_registry(reg)
    _doc_to_registry(json.loads(text))
    _atomic_write(path, text)


TRACE_HEADER = ["frequency_hz", "re_s21", "im_s21"]


def load_trace(path, source=None):
    """Load a transmission trace CSV (frequency_hz,re_s21,im_s21).

    Unsorted rows are sorted ascending with a warning flag attached;
    duplicate frequencies are a validation error.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    rows = []
    try:
        reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != TRACE_HEADER:
            raise ParseError(f"expected header {','.join(TRACE_HEADER)}", line=1)
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, got {len(row)}", line=reader.line_num)
            rows.append((float(row[0]), float(row[1]), float(row[2])))
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8: {exc.reason}", line=line) from exc
    except ValueError as exc:
        raise ParseError(f"non-numeric field: {exc}", line=reader.line_num) from exc
    except csv.Error as exc:
        raise ParseError(f"bad CSV: {exc}", line=reader.line_num) from exc
    if not rows:
        raise ParseError("no data rows")
    arr = np.array(rows)
    freqs = arr[:, 0]
    warnings = []
    if not np.all(np.diff(freqs) > 0):
        order = np.argsort(freqs, kind="stable")
        arr = arr[order]
        freqs = arr[:, 0]
        warnings.append("rows were not in ascending frequency order; sorted")
    if np.any(np.diff(freqs) == 0):
        raise ValidationError("duplicate frequency values in trace")
    return TransmissionTrace(
        freqs=freqs,
        values=arr[:, 1] + 1j * arr[:, 2],
        source=source or str(path),
        warnings=warnings,
    )


def _save_csv(path, header, rows):
    """Write a header and rows as CSV (``\\r\\n`` line ends) in one atomic write."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, text.getvalue())


def save_trace(trace, path):
    _save_csv(path, TRACE_HEADER, ([repr(float(f)), repr(float(z.real)), repr(float(z.imag))]
                                   for f, z in zip(trace.freqs, trace.values)))


def plan_to_doc(plan, provenance=None):
    return {
        "version": PLAN_VERSION,
        "cycle_index": plan.cycle_index,
        "feasible": plan.feasible,
        "objective_before_hz": plan.objective_before,
        "objective_after_hz": plan.objective_after,
        "notes": list(plan.notes),
        "actions": [asdict(a) for a in plan.actions],
        "provenance": dict(provenance or {}),
    }


def _doc_to_plan(doc):
    values = _read(doc, "plan", _PLAN, PLAN_VERSION)
    plan = TrimPlan(
        actions=[TrimAction(**{key: a[key] for key in _PLAN_ACTION}) for a in values["actions"]],
        objective_before=values["objective_before_hz"],
        objective_after=values["objective_after_hz"],
        cycle_index=values["cycle_index"],
        feasible=values["feasible"],
        notes=list(values["notes"]),
    )
    return plan, dict(values["provenance"])


def save_plan(plan, path, provenance=None):
    """Write the plan once the text passes every check of :func:`load_plan`."""
    text = _dumps(plan_to_doc(plan, provenance))
    _doc_to_plan(json.loads(text))
    _atomic_write(path, text)


def load_plan(path):
    return _doc_to_plan(_load_json(path))


def load_anneal_config(path):
    """A ``simulate anneal`` config as (:class:`AnnealConfig`, :class:`LogAnnealResponse`);
    each scheduled power needs coefficients, keyed by the power written as a number."""
    values = _read(_load_json(path), "anneal config", _ANNEAL)
    coeffs, problems = {}, []
    for key, (c, t0) in values["response"]["coeffs"].items():
        try:
            power = float(key)
        except ValueError:
            power = math.nan
        if not math.isfinite(power):
            problems.append(f"response.coeffs.{key}: expected a power in W, got {key!r}")
        coeffs[power] = (c, t0)
    problems += [f"power_schedule_w[{i}]: no response.coeffs for {p!r} W"
                 for i, p in enumerate(values["power_schedule_w"]) if p not in coeffs]
    if problems:
        raise ValidationError("anneal config schema violation", paths=problems)
    config = AnnealConfig(*(values[key] for key in _ANNEAL if key != "response"))
    return config, LogAnnealResponse(coeffs)


def save_anneal_trace(trace, path):
    """An :class:`AnnealTrace` as CSV: cycle,power_w,exposure_s,r_over_r0."""
    _save_csv(path, ["cycle", "power_w", "exposure_s", "r_over_r0"],
              ((i, p, t, r) for i, (p, t, r) in enumerate(trace.history, start=1)))


def load_blob_model(path):
    """A ``simulate readout`` model as a :class:`BlobModel`."""
    values = _read(_load_json(path), "blob model", _BLOBS)
    means = {k: tuple(values[k]) for k in ("mean0", "mean1", "mean2") if values[k] is not None}
    return BlobModel(sigma=values["sigma"], leak_prob=values["leak_prob"], **means)


def save_shots(shots, path):
    """A :class:`ShotSet` as CSV: label,i,q."""
    _save_csv(path, ["label", "i", "q"], ([int(lbl), repr(float(i)), repr(float(q))]
                                          for lbl, i, q in zip(shots.labels, shots.i, shots.q)))
