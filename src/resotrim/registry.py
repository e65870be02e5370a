"""Device registry, trace files and plan files.

The registry is a version-tagged JSON document (canonical form: sorted
keys, two-space indent, trailing newline) holding resonator and transmon
records, pair wiring, feedline grouping and an append-only cycle history.
Unknown fields are preserved through load/save round trips. Writes go to
a temp file followed by an atomic rename.
"""

import csv
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, ParseError, ValidationError
from .fitting import TransmissionTrace
from .pairmodel import PairParams
from .planner import ResonatorRecord, ShoelaceArray, TrimAction, TrimPlan

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
]

SCHEMA_VERSION = 1
PLAN_VERSION = 1

_RES_KEYS = {"id", "role", "f_meas_hz", "shoelaces"}
_PAIR_KEYS = {"id", "transmon", "readout", "purcell", "feedline",
              "j_hz", "kappa_hz", "chi_hz", "gamma_r_hz", "gamma_p_hz", "kappa_drive_hz"}
_TRANSMON_KEYS = {"id", "f_q_hz", "alpha_hz", "e_j_hz", "e_c_hz", "r_j_ohm"}


@dataclass
class TransmonEntry:
    id: str
    f_q: float | None = None
    alpha: float | None = None
    e_j: float | None = None
    e_c: float | None = None
    r_j: float | None = None
    extras: dict = field(default_factory=dict)


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
        applied = [h.get("cycle_index", 0) for h in self.history if h.get("event") == "apply"]
        return (max(applied) + 1) if applied else 1


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
        entry.update({"id": t.id, "f_q_hz": t.f_q, "alpha_hz": t.alpha,
                      "e_j_hz": t.e_j, "e_c_hz": t.e_c, "r_j_ohm": t.r_j})
        doc["transmons"].append(entry)
    doc["pairs"] = []
    for pid in sorted(reg.pairs):
        p = reg.pairs[pid]
        entry = dict(p.extras)
        entry.update(
            {
                "id": p.id, "transmon": p.transmon, "readout": p.readout,
                "purcell": p.purcell, "feedline": p.feedline,
                "j_hz": p.j, "kappa_hz": p.kappa, "chi_hz": p.chi,
                "gamma_r_hz": p.gamma_r, "gamma_p_hz": p.gamma_p,
                "kappa_drive_hz": p.kappa_drive,
            }
        )
        doc["pairs"].append(entry)
    doc["history"] = list(reg.history)
    return doc


def _objects(doc, key, problems):
    """(index, entry) for each object in the list doc[key]; others go to problems."""
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        problems.append(f"{key}: expected a list, got {type(entries).__name__}")
        return []
    out = []
    for i, entry in enumerate(entries):
        if isinstance(entry, dict):
            out.append((i, entry))
        else:
            problems.append(f"{key}[{i}]: expected an object, got {type(entry).__name__}")
    return out


def _bad_ids(where, entry, keys, problems):
    """Record id fields that are set but not strings; True when any is."""
    bad = [k for k in keys if entry.get(k) is not None and not isinstance(entry[k], str)]
    problems.extend(f"{where}.{k}: expected a string, got {type(entry[k]).__name__}" for k in bad)
    return bool(bad)


def _pair_rates(i, entry, problems):
    """PairLink rate fields as floats (absent j/kappa stay None); bad ones go to problems."""
    rates = {}
    for name, default in (("j", None), ("kappa", None), ("chi", 0.0),
                          ("gamma_r", 0.0), ("gamma_p", 0.0), ("kappa_drive", 0.0)):
        value = entry.get(f"{name}_hz")
        try:
            rates[name] = default if value is None else float(value)
        except (TypeError, ValueError):
            problems.append(f"pairs[{i}].{name}_hz: not a number: {value!r}")
    return rates


def _doc_to_registry(doc):
    problems = []
    if not isinstance(doc, dict):
        raise ValidationError(f"registry must be a JSON object, got {type(doc).__name__}")
    if doc.get("version") != SCHEMA_VERSION:
        raise ValidationError(f"unsupported registry version {doc.get('version')!r}")
    reg = DeviceRegistry(device_id=doc.get("device_id", ""))
    reg.extras = {k: v for k, v in doc.items()
                  if k not in ("version", "device_id", "resonators", "transmons", "pairs", "history")}
    for i, entry in _objects(doc, "resonators", problems):
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
    for i, entry in _objects(doc, "transmons", problems):
        if _bad_ids(f"transmons[{i}]", entry, ("id",), problems):
            continue
        try:
            t = TransmonEntry(
                id=entry["id"], f_q=entry.get("f_q_hz"), alpha=entry.get("alpha_hz"),
                e_j=entry.get("e_j_hz"), e_c=entry.get("e_c_hz"), r_j=entry.get("r_j_ohm"),
                extras={k: v for k, v in entry.items() if k not in _TRANSMON_KEYS},
            )
        except KeyError as exc:
            problems.append(f"transmons[{i}]: missing {exc}")
            continue
        reg.transmons[t.id] = t
    for i, entry in _objects(doc, "pairs", problems):
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
    reg.history = [h for _, h in _objects(doc, "history", problems)]
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
    for i, a in _objects(doc, "actions", problems):
        rid, n_remove = a.get("resonator_id"), a.get("n_remove")
        bad_id = not isinstance(rid, str)
        bad_count = isinstance(n_remove, bool) or not isinstance(n_remove, int) or n_remove < 0
        if bad_id:
            problems.append(f"actions[{i}].resonator_id: expected a string, "
                            f"got {type(rid).__name__}")
        if bad_count:
            problems.append(f"actions[{i}].n_remove: expected a non-negative integer, "
                            f"got {n_remove!r}")
        if bad_id or bad_count:
            continue
        try:
            numbers = [float(a[k]) for k in ("delta_l", "predicted_delta_f", "predicted_f")]
            if not all(map(math.isfinite, numbers)):
                raise ValueError(f"non-finite number in {numbers}")
            actions.append(TrimAction(rid, n_remove, *numbers))
        except (KeyError, TypeError, ValueError, DomainError) as exc:
            problems.append(f"actions[{i}]: malformed action: {exc}")
    if problems:
        raise ValidationError("plan schema violation", paths=problems)
    try:
        plan = TrimPlan(
            actions=actions,
            objective_before=float(doc.get("objective_before_hz", 0.0)),
            objective_after=float(doc.get("objective_after_hz", 0.0)),
            cycle_index=int(doc.get("cycle_index", 0)),
            feasible=bool(doc.get("feasible", True)),
            notes=list(doc.get("notes", [])),
        )
        provenance = dict(doc.get("provenance", {}))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed plan: {exc}") from exc
    return plan, provenance
