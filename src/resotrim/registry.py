"""Device registry, trace files and plan files.

The registry is a version-tagged JSON document (canonical form: sorted
keys, two-space indent, trailing newline) holding resonator and transmon
records, pair wiring, feedline grouping and an append-only cycle history.
Unknown fields are preserved through load/save round trips. Writes go to
a temp file followed by an atomic rename.
"""

import csv
import hashlib
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, ParseError, ValidationError
from .fitting import TransmissionTrace
from .pairmodel import PairParams
from .planner import AppliedTrim, ResonatorRecord, ShoelaceArray, TrimAction, TrimPlan
from .transmon import TRANSMON_RATIO_FLOOR

__all__ = [
    "SCHEMA_VERSION",
    "PLAN_VERSION",
    "PairLink",
    "TransmonEntry",
    "DeviceRegistry",
    "load_registry",
    "save_registry",
    "load_trace",
    "save_trace",
    "save_plan",
    "load_plan",
    "plan_sha256",
    "trim_to_doc",
]

SCHEMA_VERSION = 1
PLAN_VERSION = 1

_RES_KEYS = {"id", "role", "f_meas_hz", "shoelaces"}
_PAIR_IDS = ("id", "transmon", "readout", "purcell", "feedline")
# PairLink rate fields and their defaults; each is stored as "<name>_hz"
_PAIR_RATES = (("j", None), ("kappa", None), ("chi", 0.0),
               ("gamma_r", 0.0), ("gamma_p", 0.0), ("kappa_drive", 0.0))
_PAIR_KEYS = {*_PAIR_IDS, *(f"{name}_hz" for name, _ in _PAIR_RATES)}
# TransmonEntry field -> registry key
_TRANSMON_KEYS = {"f_q": "f_q_hz", "alpha": "alpha_hz", "e_j": "e_j_hz", "e_c": "e_c_hz",
                  "r_j": "r_j_ohm"}
# AppliedTrim field -> key of an action in an ``apply`` history entry
_TRIM_KEYS = {"resonator_id": "resonator", "n_remove": "n_remove", "delta_l": "delta_l_m",
              "f_before": "f_before_hz", "f_after": "f_after_hz", "predicted_f": "predicted_f_hz"}


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_str(value):
    return isinstance(value, str)


def _check(where, entry, keys, ok, expected, problems):
    """Record each key of entry whose value fails ok; True when any does."""
    bad = [k for k in keys if not ok(entry.get(k))]
    problems.extend(f"{where}.{k}: expected {expected}, got {entry.get(k)!r}" for k in bad)
    return bool(bad)


def _transmon_problems(where, values, problems):
    """Check the set fields of a transmon, given by registry key; True when any is bad."""
    def unset_or(ok):
        return lambda v: v is None or (_is_number(v) and ok(v))

    bad = _check(where, values, ("f_q_hz", "e_j_hz", "e_c_hz", "r_j_ohm"),
                 unset_or(lambda v: v > 0), "a positive number", problems)
    bad |= _check(where, values, ("alpha_hz",), unset_or(lambda v: v < 0),
                  "a negative number", problems)
    e_j, e_c = values.get("e_j_hz"), values.get("e_c_hz")
    if not bad and e_j is not None and e_c is not None and e_j < TRANSMON_RATIO_FLOOR * e_c:
        problems.append(f"{where}.e_j_hz: e_j/e_c = {e_j / e_c:.3g} is below the transmon "
                        f"floor {TRANSMON_RATIO_FLOOR:g}")
        bad = True
    return bad


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
        values = {key: getattr(self, name) for name, key in _TRANSMON_KEYS.items()}
        if _transmon_problems(f"transmon {self.id}", values, problems):
            raise DomainError("; ".join(problems))


def trim_to_doc(trim):
    """An :class:`AppliedTrim` as an action of an ``apply`` history entry."""
    return {key: getattr(trim, name) for name, key in _TRIM_KEYS.items()}


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
        problems = []
        for pid, pair in self.pairs.items():
            for key, role in (("readout", "readout"), ("purcell", "purcell")):
                rid = getattr(pair, key)
                rec = self.resonators.get(rid)
                if rec is None:
                    problems.append(f"pairs.{pid}.{key}: unknown resonator {rid!r}")
                elif rec.role != role:
                    problems.append(f"pairs.{pid}.{key}: resonator {rid!r} has role {rec.role!r}")
            if pair.transmon is not None and pair.transmon not in self.transmons:
                problems.append(f"pairs.{pid}.transmon: unknown transmon {pair.transmon!r}")
        if problems:
            raise ValidationError("registry validation failed", paths=problems)

    def feedline_pairs(self, feedline):
        return [p for p in self.pairs.values() if p.feedline == feedline]

    def next_cycle_index(self):
        applied = [h["cycle_index"] for h in self.history if h.get("event") == "apply"]
        return (max(applied) + 1) if applied else 1

    def apply_cycle(self, plan, plan_sha256):
        """Cycle index under which a plan is applied.

        Refuses a plan whose hash is already in the history, and a plan
        made for a cycle that has since been applied.
        """
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
        return plan.cycle_index or next_cycle

    def cycle_outcome(self, cycle_index):
        """Trims applied in one cycle and the frequencies measured after them.

        A resonator's frequency is that of the latest fit of its pair after
        the cycle's apply and before the next apply; without such a fit, a
        simulated apply's f_after stands in. Returns (trims, {id: Hz}).
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
            elif h.get("event") == "fit" and in_cycle and h["pair"] in self.pairs:
                link = self.pairs[h["pair"]]
                measured[link.readout], measured[link.purcell] = h["f_r_hz"], h["f_p_hz"]
        return trims, measured


def _registry_to_doc(reg):
    doc = dict(reg.extras)
    doc["version"] = SCHEMA_VERSION
    doc["device_id"] = reg.device_id
    doc["resonators"] = []
    for rid in sorted(reg.resonators):
        rec = reg.resonators[rid]
        entry = dict(reg.res_extras.get(rid, {}))
        entry.update(
            {
                "id": rec.id,
                "role": rec.role,
                "f_meas_hz": rec.f_meas,
                "shoelaces": {
                    "total": rec.shoelaces.total,
                    "remaining": rec.shoelaces.remaining,
                    "pitch_m": rec.shoelaces.pitch,
                },
            }
        )
        doc["resonators"].append(entry)
    doc["transmons"] = []
    for tid in sorted(reg.transmons):
        t = reg.transmons[tid]
        entry = dict(t.extras)
        entry.update({key: getattr(t, name) for name, key in _TRANSMON_KEYS.items()}, id=t.id)
        doc["transmons"].append(entry)
    doc["pairs"] = []
    for pid in sorted(reg.pairs):
        p = reg.pairs[pid]
        entry = dict(p.extras)
        entry.update({key: getattr(p, key) for key in _PAIR_IDS})
        entry.update({f"{name}_hz": getattr(p, name) for name, _ in _PAIR_RATES})
        doc["pairs"].append(entry)
    doc["history"] = list(reg.history)
    return doc


def _objects(entries, path, problems):
    """(index, entry) for each object in the list at path; others go to problems."""
    if not isinstance(entries, list):
        problems.append(f"{path}: expected a list, got {type(entries).__name__}")
        return []
    out = []
    for i, entry in enumerate(entries):
        if isinstance(entry, dict):
            out.append((i, entry))
        else:
            problems.append(f"{path}[{i}]: expected an object, got {type(entry).__name__}")
    return out


def _bad_ids(where, entry, keys, problems):
    """Record id fields that are set but not strings; True when any is."""
    return _check(where, entry, keys, lambda v: v is None or _is_str(v), "a string", problems)


def _pair_rates(i, entry, problems):
    """PairLink rate fields as floats (absent j/kappa stay None); bad ones go to problems."""
    rates = {}
    for name, default in _PAIR_RATES:
        value = entry.get(f"{name}_hz")
        try:
            rates[name] = default if value is None else float(value)
        except (TypeError, ValueError):
            problems.append(f"pairs[{i}].{name}_hz: not a number: {value!r}")
    return rates


def _history_problems(where, h, problems):
    """Check the fields of fit and apply entries, which ``cycle_outcome`` reads back."""
    if h.get("event") == "fit":
        _check(where, h, ("pair",), _is_str, "a string", problems)
        _check(where, h, ("f_r_hz", "f_p_hz"), _is_number, "a finite number", problems)
    elif h.get("event") == "apply":
        _check(where, h, ("cycle_index",), lambda v: _is_count(v) and v >= 1,
               "an integer >= 1", problems)
        for j, a in _objects(h.get("actions"), f"{where}.actions", problems):
            _check(f"{where}.actions[{j}]", a, ("resonator",), _is_str, "a string", problems)
            _check(f"{where}.actions[{j}]", a, list(_TRIM_KEYS.values())[1:], _is_number,
                   "a finite number", problems)


def _doc_to_registry(doc):
    problems = []
    if not isinstance(doc, dict):
        raise ValidationError(f"registry must be a JSON object, got {type(doc).__name__}")
    if doc.get("version") != SCHEMA_VERSION:
        raise ValidationError(f"unsupported registry version {doc.get('version')!r}")
    reg = DeviceRegistry(device_id=doc.get("device_id", ""))
    reg.extras = {k: v for k, v in doc.items()
                  if k not in ("version", "device_id", "resonators", "transmons", "pairs", "history")}
    for i, entry in _objects(doc.get("resonators", []), "resonators", problems):
        if _bad_ids(f"resonators[{i}]", entry, ("id",), problems):
            continue
        try:
            sh = entry["shoelaces"]
            rec = ResonatorRecord(
                id=entry["id"],
                role=entry["role"],
                f_meas=float(entry["f_meas_hz"]),
                shoelaces=ShoelaceArray(
                    total=int(sh["total"]), remaining=int(sh["remaining"]),
                    pitch=float(sh["pitch_m"]),
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"resonators[{i}]: {exc}")
            continue
        reg.resonators[rec.id] = rec
        extras = {k: v for k, v in entry.items() if k not in _RES_KEYS}
        if extras:
            reg.res_extras[rec.id] = extras
    for i, entry in _objects(doc.get("transmons", []), "transmons", problems):
        if (_bad_ids(f"transmons[{i}]", entry, ("id",), problems)
                | _transmon_problems(f"transmons[{i}]", entry, problems)):
            continue
        try:
            t = TransmonEntry(
                id=entry["id"], **{name: entry.get(key) for name, key in _TRANSMON_KEYS.items()},
                extras={k: v for k, v in entry.items()
                        if k != "id" and k not in _TRANSMON_KEYS.values()})
        except KeyError as exc:
            problems.append(f"transmons[{i}]: missing {exc}")
            continue
        reg.transmons[t.id] = t
    for i, entry in _objects(doc.get("pairs", []), "pairs", problems):
        rates = _pair_rates(i, entry, problems)
        if _bad_ids(f"pairs[{i}]", entry, ("id", "transmon", "readout", "purcell"), problems):
            continue
        try:
            p = PairLink(
                id=entry["id"], transmon=entry.get("transmon"),
                readout=entry["readout"], purcell=entry["purcell"],
                feedline=entry.get("feedline"), **rates,
                extras={k: v for k, v in entry.items() if k not in _PAIR_KEYS},
            )
        except KeyError as exc:
            problems.append(f"pairs[{i}]: missing {exc}")
            continue
        reg.pairs[p.id] = p
    for i, h in _objects(doc.get("history", []), "history", problems):
        _history_problems(f"history[{i}]", h, problems)
        reg.history.append(h)
    if problems:
        raise ValidationError("registry schema violation", paths=problems)
    reg.validate()
    return reg


def dumps_registry(reg):
    return json.dumps(_registry_to_doc(reg), indent=2, sort_keys=True) + "\n"


def load_registry(path):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON: {exc}") from exc
    return _doc_to_registry(doc)


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".resotrim-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_registry(reg, path):
    _atomic_write(path, dumps_registry(reg))


TRACE_HEADER = ["frequency_hz", "re_s21", "im_s21"]


def load_trace(path, source=None):
    """Load a transmission trace CSV (frequency_hz,re_s21,im_s21).

    Unsorted rows are sorted ascending with a warning flag attached;
    duplicate frequencies are a validation error.
    """
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != TRACE_HEADER:
            raise ParseError(f"expected header {','.join(TRACE_HEADER)}", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, got {len(row)}", line=lineno)
            try:
                rows.append((float(row[0]), float(row[1]), float(row[2])))
            except ValueError as exc:
                raise ParseError(f"non-numeric field: {exc}", line=lineno) from exc
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


def save_trace(trace, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for f, z in zip(trace.freqs, trace.values):
            writer.writerow([repr(float(f)), repr(float(z.real)), repr(float(z.imag))])


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


def save_plan(plan, path, provenance=None):
    _atomic_write(path, json.dumps(plan_to_doc(plan, provenance), indent=2, sort_keys=True) + "\n")


def plan_sha256(plan, provenance=None):
    """SHA-256 of the plan's canonical JSON; ``apply`` refuses a hash already in the history."""
    text = json.dumps(plan_to_doc(plan, provenance), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_plan(path):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"plan must be a JSON object, got {type(doc).__name__}")
    if doc.get("version") != PLAN_VERSION:
        raise ValidationError(f"unsupported plan version {doc.get('version')!r}")
    problems = []
    actions = []
    for i, a in _objects(doc.get("actions", []), "actions", problems):
        if (_check(f"actions[{i}]", a, ("resonator_id",), _is_str, "a string", problems)
                | _check(f"actions[{i}]", a, ("n_remove",), _is_count, "a non-negative integer",
                         problems)):
            continue
        try:
            numbers = [float(a[k]) for k in ("delta_l", "predicted_delta_f", "predicted_f")]
            if not all(map(math.isfinite, numbers)):
                raise ValueError(f"non-finite number in {numbers}")
            actions.append(TrimAction(a["resonator_id"], a["n_remove"], *numbers))
        except (KeyError, TypeError, ValueError, DomainError) as exc:
            problems.append(f"actions[{i}]: malformed action: {exc}")
    cycle = doc.get("cycle_index", 0)
    if not _is_count(cycle):
        problems.append(f"cycle_index: expected a non-negative integer, got {cycle!r}")
    if problems:
        raise ValidationError("plan schema violation", paths=problems)
    try:
        plan = TrimPlan(
            actions=actions,
            objective_before=float(doc.get("objective_before_hz", 0.0)),
            objective_after=float(doc.get("objective_after_hz", 0.0)),
            cycle_index=cycle,
            feasible=bool(doc.get("feasible", True)),
            notes=list(doc.get("notes", [])),
        )
        provenance = dict(doc.get("provenance", {}))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed plan: {exc}") from exc
    return plan, provenance
