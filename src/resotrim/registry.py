"""Every file the toolkit reads or writes, and the registry's history entries.

The registry is a version-tagged JSON document (canonical form: sorted
keys, two-space indent, trailing newline) holding resonator and transmon
records, pair wiring, feedline grouping and an append-only cycle history,
whose entries are built here next to the code that reads them back.
Registry and plan documents, the anneal config and the blob model are read
through one set of field tables (the first two also before every save), and
each bad field is reported by its path. Unknown fields, at any depth, are
preserved through registry load/save round trips. Traces, anneal histories
and shots are CSV. Every write goes to a temp file followed by an atomic rename.
"""

import csv
import hashlib
import io
import json
import math
import os
import tempfile
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .errors import DomainError, ParseError, ValidationError
from .fitting import TransmissionTrace
from .pairmodel import PairParams
from .planner import (AppliedTrim, ResonatorRecord, ShoelaceArray, TrimAction, TrimPlan,
                      apply_plan, fit_nu_rho, simulate_outcomes, velocity_samples)
from .readout import BlobModel
from .rules import (BOOL, COUNT, FINITE, OBJECT, POSITIVE, STR, Field, check, list_of, map_of,
                    number, or_null, pair_of, refuse, walk)
from .transmon import TRANSMON_RATIO_FLOOR, AnnealConfig, LogAnnealResponse

__all__ = [
    "SCHEMA_VERSION", "PLAN_VERSION", "PairLink", "TransmonEntry", "DeviceRegistry",
    "load_registry", "save_registry", "load_trace", "save_trace", "save_plan", "load_plan",
    "load_anneal_config", "save_anneal_trace", "load_blob_model", "save_shots",
]

SCHEMA_VERSION = 1
PLAN_VERSION = 1


@dataclass
class TransmonEntry:
    """A transmon: sweet-spot f_q and alpha (Hz), E_J/h and E_c/h (Hz) and
    junction-pair resistance r_j (Ohm), each optional; e_j/e_c is at least
    the transmon floor when both are set."""

    id: str
    f_q: float | None = None
    alpha: float | None = None
    e_j: float | None = None
    e_c: float | None = None
    r_j: float | None = None

    # values are kept as written: an integer stays an integer
    RULES = {"id": STR, "alpha": or_null(number(lambda v: -math.inf < v < 0, "a negative number",
                                                 read=None)),
             **dict.fromkeys(("f_q", "e_j", "e_c", "r_j"), or_null(replace(POSITIVE, read=None)))}

    def __post_init__(self):
        check(self, DomainError)
        # a Python float, as a file gives it, overflows to inf without a warning
        if None not in (self.e_j, self.e_c) and self.e_j < TRANSMON_RATIO_FLOOR * float(self.e_c):
            refuse(self, DomainError, "e_j", f"e_j/e_c = {self.e_j / self.e_c:.3g} is below the "
                                             f"transmon floor {TRANSMON_RATIO_FLOOR:g}")


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

    # the rates follow PairParams' rules; j and kappa are null until they are fitted
    RULES = {"id": STR, "transmon": or_null(STR), "readout": STR, "purcell": STR,
             "feedline": or_null(STR), "j": or_null(PairParams.RULES["j"]),
             "kappa": or_null(PairParams.RULES["kappa"]),
             **{n: PairParams.RULES[n] for n in ("chi", "gamma_r", "gamma_p")}}

    def __post_init__(self):
        check(self, DomainError)

    def pair_params(self, f_r, f_p):
        if self.j is None or self.kappa is None:
            raise ValidationError(f"pair {self.id} has no fitted j/kappa")
        return PairParams(f_r, f_p, **{name: getattr(self, name) for name in PairParams.RULES
                                       if name not in ("f_r", "f_p")})


# record field -> file key, where the two differ (the file's keys carry units)
_KEYS = {ResonatorRecord: {"f_meas": "f_meas_hz"}, ShoelaceArray: {"pitch": "pitch_m"},
         TransmonEntry: {"f_q": "f_q_hz", "alpha": "alpha_hz", "e_j": "e_j_hz", "e_c": "e_c_hz",
                         "r_j": "r_j_ohm"},
         PairLink: {n: f"{n}_hz" for n in ("j", "kappa", "chi", "gamma_r", "gamma_p")},
         # an action of an ``apply`` history entry
         AppliedTrim: {"resonator_id": "resonator", "delta_l": "delta_l_m",
                       "f_before": "f_before_hz", "f_after": "f_after_hz",
                       "predicted_f": "predicted_f_hz"},
         TrimPlan: {"objective_before": "objective_before_hz",
                    "objective_after": "objective_after_hz"},
         AnnealConfig: {"r_start": "r_start_ohm", "r_target": "r_target_ohm",
                        "exposure_threshold": "exposure_threshold_s",
                        "power_schedule": "power_schedule_w",
                        "initial_exposure": "initial_exposure_s"}}


def _keyed(cls, defaults=True):
    """A table of cls's own field rules under its file keys, with its defaults."""
    keys, given = _KEYS.get(cls, {}), {f.name: f.default for f in fields(cls)}
    return {keys.get(name, name): rule if given[name] is MISSING or not defaults
            else replace(rule, default=given[name]) for name, rule in cls.RULES.items()}


def _doc(record):
    keys = _KEYS.get(type(record), {})
    return {keys.get(name, name): getattr(record, name) for name in record.RULES}


# A table reads an object: key -> rule, with a nested table for a nested object.
# A file gives no default shoelaces.
_RESONATOR = {**_keyed(ResonatorRecord), "shoelaces": _keyed(ShoelaceArray, defaults=False)}
# the history entries that cycle_outcome and record_apply read back
_EVENTS = {
    "fit": {"pair": STR, "f_r_hz": POSITIVE, "f_p_hz": POSITIVE,
            "converged": replace(BOOL, default=True)},
    "apply": {"cycle_index": Field(lambda v: COUNT.test(v) and v >= 1, "an integer >= 1"),
              "plan_sha256": replace(STR, default=None),
              "simulated": replace(BOOL, default=False),
              "actions": list_of(_keyed(AppliedTrim))},
}


def _event_rule(entry):
    event = entry.get("event") if isinstance(entry, dict) else None
    return _EVENTS[event] if event in ("fit", "apply") else OBJECT


# A trace shows a drive-line decay only in its sum with gamma_r, which holds it. A pair
# entry's kappa_drive_hz must be 0, and every pair entry written has one; a non-zero one is
# refused, not added to gamma_r_hz, where the kept key would add it again at every load.
_NO_DRIVE = {"kappa_drive_hz": 0.0}
_PAIR = {**_keyed(PairLink), "kappa_drive_hz": replace(number(
    lambda v: v == 0, "0 (add a drive-line decay rate to gamma_r_hz)"), default=0.0)}
_REGISTRY = {"device_id": replace(STR, default=""), "resonators": list_of(_RESONATOR, ()),
             "transmons": list_of(_keyed(TransmonEntry), ()),
             "pairs": list_of(_PAIR, ()), "history": list_of(_event_rule, ())}
# a plan file holds its actions as objects, and its provenance
_PLAN = {**_keyed(TrimPlan), "actions": list_of(TrimAction.RULES),
         "provenance": replace(OBJECT, default={})}
# simulate anneal: the AnnealConfig fields in order, and the response
# dR/R0 = c log(1 + t/t0) as power in W -> [c, t0_s]
_ANNEAL = {**_keyed(AnnealConfig),
           "response": {"coeffs": map_of(pair_of(FINITE, POSITIVE, "a list [c, t0_s]"))}}
# simulate readout: the BlobModel fields
_BLOBS = _keyed(BlobModel)


def _read(doc, what, table, version=None):
    """doc as table reads it; ValidationError listing every bad field.
    Given a ``version``, the document must carry exactly that one."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(doc).__name__}")
    if version is not None and not (COUNT.test(doc.get("version"))
                                    and doc["version"] == version):
        raise ValidationError(f"unsupported {what} version {doc.get('version')!r}")
    problems = []
    values = walk("", doc, table, problems)
    if problems:
        raise ValidationError(f"{what} schema violation", paths=problems)
    return values


def _built(cls, entry, problems=None, at="", **extra):
    """cls from entry's values under cls's file keys. Given problems, a rule
    between fields that cls refuses goes to them under ``at`` and gives None."""
    keys = _KEYS.get(cls, {})
    try:
        return cls(**{name: entry[keys.get(name, name)] for name in cls.RULES}, **extra)
    except DomainError as exc:
        if problems is None or not exc.fields:
            raise
        problems += [f"{at}{keys.get(name, name)}{rest}" for name, rest in exc.fields]


@dataclass
class DeviceRegistry:
    device_id: str
    resonators: dict = field(default_factory=dict)  # id -> ResonatorRecord
    transmons: dict = field(default_factory=dict)  # id -> TransmonEntry
    pairs: dict = field(default_factory=dict)  # id -> PairLink
    history: list = field(default_factory=list)  # append-only
    # the document as read: its unknown keys, at every level, are written back
    extras: dict = field(default_factory=dict)

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
            link.j, link.kappa, link.gamma_r, link.gamma_p = p.j, p.kappa, p.gamma_r, p.gamma_p
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
                             "actions": [_doc(t) for t in trims]})
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
                    trims.append(_built(AppliedTrim, a))
                    if h.get("simulated"):
                        measured[trims[-1].resonator_id] = trims[-1].f_after
            elif (h.get("event") == "fit" and in_cycle and h.get("converged", True)
                  and h["pair"] in self.pairs):
                link = self.pairs[h["pair"]]
                measured[link.readout], measured[link.purcell] = h["f_r_hz"], h["f_p_hz"]
        return trims, measured


def _registry_to_doc(reg):
    """reg's records, each laid over its entry in reg.extras, found by id."""
    def entries(kind):
        old = {e["id"]: e for e in reg.extras.get(kind, ())}
        return [(old.get(rid, {}), rec) for rid, rec in sorted(getattr(reg, kind).items())]

    return {**reg.extras, "version": SCHEMA_VERSION, "device_id": reg.device_id,
            "resonators": [{**e, **_doc(rec), "shoelaces": {**e.get("shoelaces", {}),
                                                             **_doc(rec.shoelaces)}}
                           for e, rec in entries("resonators")],
            "transmons": [{**e, **_doc(t)} for e, t in entries("transmons")],
            "pairs": [{**_NO_DRIVE, **e, **_doc(p)} for e, p in entries("pairs")],
            "history": list(reg.history)}


def _doc_to_registry(doc):
    values = _read(doc, "registry", _REGISTRY, SCHEMA_VERSION)
    problems = []
    for kind in ("resonators", "transmons", "pairs"):
        ids = [entry["id"] for entry in values[kind]]
        problems += [f"{kind}[{i}].id: duplicate id {rid!r}"
                     for i, rid in enumerate(ids) if rid in ids[:i]]
    reg = DeviceRegistry(values["device_id"], history=list(doc.get("history", ())), extras=values)
    for i, entry in enumerate(values["resonators"]):
        reg.resonators[entry["id"]] = _built(ResonatorRecord, entry, shoelaces=_built(
            ShoelaceArray, entry["shoelaces"], problems, f"resonators[{i}].shoelaces."))
    for kind, cls in (("transmons", TransmonEntry), ("pairs", PairLink)):
        for i, entry in enumerate(values[kind]):
            getattr(reg, kind)[entry["id"]] = _built(cls, entry, problems, f"{kind}[{i}].")
    if problems:
        raise ValidationError("registry validation failed", paths=problems)
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
    return {**_doc(plan), "version": PLAN_VERSION, "actions": [_doc(a) for a in plan.actions],
            "provenance": dict(provenance or {})}


def _doc_to_plan(doc):
    values = _read(doc, "plan", _PLAN, PLAN_VERSION)
    # an absent notes key reads as ()
    plan = _built(TrimPlan, {**values, "notes": list(values["notes"]),
                             "actions": [_built(TrimAction, a) for a in values["actions"]]})
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
    config = _built(AnnealConfig, values, problems)
    if problems:
        raise ValidationError("anneal config schema violation", paths=problems)
    return config, LogAnnealResponse(coeffs)


def save_anneal_trace(trace, path):
    """An :class:`AnnealTrace` as CSV: cycle,power_w,exposure_s,r_over_r0."""
    _save_csv(path, ["cycle", "power_w", "exposure_s", "r_over_r0"],
              ((i, p, t, r) for i, (p, t, r) in enumerate(trace.history, start=1)))


def load_blob_model(path):
    """A ``simulate readout`` model as a :class:`BlobModel`."""
    values = _read(_load_json(path), "blob model", _BLOBS)
    problems = []
    means = {k: tuple(values[k]) for k in ("mean0", "mean1", "mean2") if values[k] is not None}
    model = _built(BlobModel, {**values, **means}, problems)
    if problems:
        raise ValidationError("blob model schema violation", paths=problems)
    return model


def save_shots(shots, path):
    """A :class:`ShotSet` as CSV: label,i,q."""
    _save_csv(path, ["label", "i", "q"], ([int(lbl), repr(float(i)), repr(float(q))]
                                          for lbl, i, q in zip(shots.labels, shots.i, shots.q)))
