"""The three closed-loop workloads: set-up, one round of operations, checks.

A workload object is built from the seed, sets itself up (inputs and a
warm-up) and then runs rounds. A round is the workload's fixed set of
operations, run one after another; it returns one record per operation
(latency, whether it failed, and its outputs) for the checks. Every check
compares the program's outputs with ``reference``, never with stored output.
"""

import collections
import json
import math
import os
import re
import shutil
import sys
import time

import numpy as np

import inputs
import reference

# anneal simulation: the first power saturates, later ones reach the target
ANNEAL_POWERS = [0.17, 0.20, 0.23]
ANNEAL_COEFFS = {0.17: (0.001, 1.0), 0.20: (0.01, 1.0), 0.23: (0.05, 1.0)}


# one timed operation: latency in seconds, failure flag, outputs
Op = collections.namedtuple("Op", "kind latency failed out")


class CheckFailure(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailure(message)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class Characterize:
    """Per-site analysis of a 17-transmon processor, one site per operation."""

    name = "characterize"
    BULK = ("freqs", "s21", "shots_i", "shots_q", "labels")

    def __init__(self, seed, ctx):
        from resotrim import fitting, pairmodel, readout, transmon

        self.fitting, self.pairmodel = fitting, pairmodel
        self.readout, self.transmon = readout, transmon
        self.seed = seed
        self.rounds = 0
        self.prepare()

    def prepare(self):
        """Draw the next round's sites; not timed."""
        self.sites = inputs.characterize_sites(self.seed, self.rounds)

    def warm_up(self):
        self._site(self.sites[0])

    def _site(self, s):
        fitting, transmon, readout = self.fitting, self.transmon, self.readout
        trace = fitting.TransmissionTrace(s["freqs"], s["s21"], source=s["id"])
        corrected = fitting.correct_baseline(trace)
        fit = fitting.fit_pair(corrected, fitting.initial_guess(corrected))
        modes = self.pairmodel.eigenmodes(fit.params)
        e_j, e_c = transmon.invert_spectroscopy(s["f_q"], s["alpha"])
        r_target = transmon.rj_target(s["r_now"], s["f_q"], s["f_target"], e_c)
        f_pred = transmon.predict_fq(r_target, s["r_now"], e_j, e_c)
        config = transmon.AnnealConfig(
            r_start=s["r_now"], r_target=r_target, exposure_threshold=3600.0,
            power_schedule=list(ANNEAL_POWERS),
        )
        anneal = transmon.anneal_closed_loop(config, transmon.LogAnnealResponse(ANNEAL_COEFFS))
        shots = readout.ShotSet(i=s["shots_i"], q=s["shots_q"], labels=s["labels"])
        fidelity = readout.assignment_fidelity(shots).f_ro
        return {
            "fit": fit.params, "converged": fit.converged,
            "modes": [(m.f_mode, m.kappa_eff) for m in modes],
            "e_j": e_j, "e_c": e_c, "f_pred": f_pred,
            "anneal": (anneal.status, anneal.resistances(), config.r_target / config.r_start),
            "fidelity": fidelity,
        }

    def round(self, ctx):
        ops = []
        for s in self.sites:
            ctx.op = f"{self.name}/r{self.rounds}/{s['id']}"
            t0 = time.perf_counter()
            out = self._site(s)
            latency = time.perf_counter() - t0
            truth = {k: v for k, v in s.items() if k not in self.BULK}
            truth["n_shots"] = len(s["labels"])
            ops.append(Op("site", latency, False, (truth, out)))
        self.rounds += 1
        return ops

    def check(self, ops):
        for op in ops:
            s, out = op.out
            sid = f"{s['id']} of seed {self.seed}"
            p = out["fit"]
            _require(out["converged"], f"{sid}: fit did not converge")
            err = max(abs(p.f_r - s["f_r"]), abs(p.f_p - s["f_p"]))
            _require(err <= s["tol"], f"{sid}: fitted f_r/f_p off by {err:.3e} Hz > {s['tol']:.3e}")
            lo, hi, k_lo, k_hi = reference.modes_2x2(p.f_r, p.f_p, p.j, p.kappa)
            (f0, k0), (f1, k1) = out["modes"]
            _require(abs(f0 - lo) < 1.0 and abs(f1 - hi) < 1.0
                     and _rel(k0, k_lo) < 1e-6 and _rel(k1, k_hi) < 1e-6,
                     f"{sid}: eigenmodes disagree with the closed form")
            f_q, alpha = reference.transmon_dense(out["e_j"], out["e_c"])
            _require(abs(f_q - s["f_q"]) < 1e3 and abs(alpha - s["alpha"]) < 1e3,
                     f"{sid}: inverted (E_J, E_c) give f_q, alpha off by "
                     f"{f_q - s['f_q']:.1f}, {alpha - s['alpha']:.1f} Hz")
            _require(abs(out["f_pred"] - s["f_target"]) < 1e3,
                     f"{sid}: predict_fq(rj_target) misses the target by "
                     f"{out['f_pred'] - s['f_target']:.1f} Hz")
            status, rs, target = out["anneal"]
            _require(status == "success" and rs[-1] >= target
                     and all(b >= a for a, b in zip(rs, rs[1:])),
                     f"{sid}: anneal {status} or resistance decreased")
            want = reference.gaussian_fidelity(s["separation"], s["sigma"])
            stderr = math.sqrt(want * (1.0 - want) / s["n_shots"])
            _require(abs(out["fidelity"] - want) < 6.0 * stderr,
                     f"{sid}: fidelity {out['fidelity']:.5f} vs Gaussian overlap {want:.5f}")


class FeedlineCrowding:
    """plan_crowding on one feedline of each size; one pass is one operation."""

    name = "feedline-crowding"

    def __init__(self, seed, ctx):
        from resotrim import pairmodel, planner

        self.planner = planner
        self.feedlines = inputs.crowded_feedlines(seed)
        self.entries = [
            [planner.PairEntry(
                pair_id=p["id"],
                params=pairmodel.PairParams(f_r=p["f_r"], f_p=p["f_p"], j=p["j"], kappa=p["kappa"]),
                readout=planner.ResonatorRecord(
                    id=p["id"] + "r", role="readout", f_meas=p["f_r"],
                    shoelaces=planner.ShoelaceArray(inputs.SHOELACES, p["rem_r"])),
                purcell=planner.ResonatorRecord(
                    id=p["id"] + "p", role="purcell", f_meas=p["f_p"],
                    shoelaces=planner.ShoelaceArray(inputs.SHOELACES, p["rem_p"])),
            ) for p in fl]
            for fl in self.feedlines
        ]

    def _plan(self, entries):
        return self.planner.plan_crowding(entries, guard_band=inputs.GUARD_BAND,
                                          nu_rho=inputs.NU_RHO)

    def warm_up(self):
        self._plan(self.entries[0])

    def round(self, ctx):
        ctx.op = f"{self.name}/pass"
        t0 = time.perf_counter()
        plans = [self._plan(entries) for entries in self.entries]
        return [Op("pass", time.perf_counter() - t0, False, plans)]

    def check(self, ops):
        for op in ops:
            for pairs, plan in zip(self.feedlines, op.out):
                actions = [{"resonator_id": a.resonator_id, "n_remove": a.n_remove,
                            "predicted_delta_f": a.predicted_delta_f} for a in plan.actions]
                check_crowding_plan(pairs, actions, plan.feasible, exhaustive=len(pairs) <= 4)


def check_crowding_plan(pairs, actions, feasible, exhaustive, id_of=None):
    """Downward, within budget, feasible exactly when spacing >= guard band.

    ``pairs`` are input dicts; ``id_of(pair, role)`` names a resonator.
    """
    id_of = id_of or (lambda p, role: p["id"] + role[0])
    n = len(pairs)
    got = {}
    for a in actions:
        rid = a["resonator_id"]
        _require(rid not in got, f"two actions on {rid}")
        _require(a["n_remove"] > 0 and a["predicted_delta_f"] < 0, f"{rid}: action not downward")
        got[rid] = a["n_remove"]
    modes, chosen = [], []
    for p in pairs:
        n_r = got.pop(id_of(p, "readout"), 0)
        n_p = got.pop(id_of(p, "purcell"), 0)
        _require(n_r <= p["rem_r"] and n_p <= p["rem_p"], f"{p['id']}: removal beyond budget")
        lo, hi, _, _ = reference.modes_2x2(
            reference.trimmed(p["f_r"], n_r, inputs.NU_RHO),
            reference.trimmed(p["f_p"], n_p, inputs.NU_RHO), p["j"], p["kappa"])
        modes.append((float(lo), float(hi)))
        chosen.append((n_r, n_p))
    _require(not got, f"actions on resonators not on the feedline: {sorted(got)}")
    spacing = reference.min_interpair_spacing(modes)
    _require(feasible == (spacing >= inputs.GUARD_BAND),
             f"{n}-pair plan says feasible={feasible} at spacing {spacing:.4e} Hz")
    if exhaustive:
        best, _ = reference.crowding_optimum(pairs, inputs.GUARD_BAND, inputs.NU_RHO)
        _require(chosen == [tuple(b) for b in best],
                 f"{n}-pair plan {chosen} differs from the exhaustive optimum {best}")


class CliTwoCycle:
    """Full two-cycle calibration through ``python -m resotrim.cli``.

    One fresh interpreter per command. The round is the whole flow on a
    fresh registry, then four bad-input commands, each on its own copy.
    """

    name = "cli-two-cycle"
    BAD_INPUTS = ("report-pairs-string", "report-top-level-array",
                  "report-j-not-numeric", "apply-over-budget")

    def __init__(self, seed, ctx):
        self.pairs = inputs.cli_device(seed)
        self.dir = ctx.workdir(self.name)
        self.inputs_dir = os.path.join(self.dir, "inputs")
        os.makedirs(self.inputs_dir)
        for p in self.pairs:
            write_trace_csv(os.path.join(self.inputs_dir, f"trace_{p['id']}.csv"),
                            p["freqs"], p["s21"])
        self.registry0 = registry_doc(self.pairs)
        with open(os.path.join(self.inputs_dir, "registry.json"), "w", encoding="utf-8") as fh:
            json.dump(self.registry0, fh, indent=2, sort_keys=True)
        self._write_bad_inputs()
        self.rounds = 0

    def _write_bad_inputs(self):
        d = self.inputs_dir
        bad = json.loads(json.dumps(self.registry0))
        bad["pairs"] = "pair00"
        _write_json(os.path.join(d, "bad-pairs-string.json"), bad)
        _write_json(os.path.join(d, "bad-top-level-array.json"), [self.registry0])
        bad = json.loads(json.dumps(self.registry0))
        bad["pairs"][0]["j_hz"] = "ten megahertz"
        _write_json(os.path.join(d, "bad-j-not-numeric.json"), bad)
        # two actions on one resonator, each within its budget, together over it
        res = self.registry0["resonators"][0]
        remaining = res["shoelaces"]["remaining"]
        first = remaining // 2 + 1
        actions = []
        for n in (first, remaining + 2 - first):
            dl = n * reference.PITCH
            df = reference.trim_shift(res["f_meas_hz"], inputs.NU_RHO, dl)
            actions.append({"resonator_id": res["id"], "n_remove": n, "delta_l": dl,
                            "predicted_delta_f": df, "predicted_f": res["f_meas_hz"] + df})
        _write_json(os.path.join(d, "bad-plan-over-budget.json"), {
            "version": 1, "cycle_index": 1, "feasible": True, "objective_before_hz": 0.0,
            "objective_after_hz": 0.0, "notes": [], "actions": actions, "provenance": {}})

    def warm_up(self):
        """Nothing to warm: each command starts a fresh interpreter, as for a user."""

    def round(self, ctx):
        self.rounds += 1
        rd = os.path.join(self.dir, f"round{self.rounds}")
        os.makedirs(rd)
        shutil.copy(os.path.join(self.inputs_dir, "registry.json"), os.path.join(rd, "reg.json"))
        ops = []

        def run(kind, args):
            ctx.op = f"{self.name}/cmd{len(ops):02d}-{kind}"
            t0 = time.perf_counter()
            proc = ctx.run_cli(args, cwd=rd)
            latency = time.perf_counter() - t0
            out = None
            if proc.returncode == 0:
                try:
                    out = json.loads(proc.stdout)
                except json.JSONDecodeError:
                    out = None
            failed = out is None
            if failed:
                sys.stderr.write(f"{kind} failed ({proc.returncode}): {proc.stderr[-2000:]}\n")
            ops.append(Op(kind, latency, failed, out))
            return out

        inp = os.path.relpath(self.inputs_dir, rd)
        for p in self.pairs:
            run("fit", ["fit", "--trace", os.path.join(inp, f"trace_{p['id']}.csv"),
                        "--registry", "reg.json", "--pair", p["id"]])
        run("plan_pair", ["plan", "pair", "--registry", "reg.json", "--all-pairs",
                          "--naive-slope", "--out", "plan1.json"])
        run("apply", ["apply", "--registry", "reg.json", "--plan", "plan1.json",
                      "--simulate-true-nu-rho", repr(inputs.NU_RHO)])
        fitted = run("fit_nu_rho", ["fit-nu-rho", "--registry", "reg.json", "--cycle", "1"])
        nu = repr(fitted["nu_rho_m_per_s"]) if fitted else "0"
        run("plan_pair", ["plan", "pair", "--registry", "reg.json", "--all-pairs",
                          "--nu-rho", nu, "--out", "plan2.json"])
        run("apply", ["apply", "--registry", "reg.json", "--plan", "plan2.json",
                      "--simulate-true-nu-rho", repr(inputs.NU_RHO)])
        with open(os.path.join(rd, "reg.json"), encoding="utf-8") as fh:
            self.last_registry = json.load(fh)
        self.last_registry_bytes = os.path.getsize(os.path.join(rd, "reg.json"))
        for fl in ("fl0", "fl1", "fl2"):
            run("plan_crowding", ["plan", "crowding", "--registry", "reg.json",
                                  "--feedline", fl, "--guard-band", repr(inputs.GUARD_BAND),
                                  "--nu-rho", nu])
        run("report", ["report", "--registry", "reg.json", "--json"])
        for kind in self.BAD_INPUTS:
            ops.append(self._bad_input(ctx, rd, kind, len(ops)))
        return ops

    def _bad_input(self, ctx, rd, kind, index):
        src, args = {
            "report-pairs-string": ("bad-pairs-string.json", ["report"]),
            "report-top-level-array": ("bad-top-level-array.json", ["report"]),
            "report-j-not-numeric": ("bad-j-not-numeric.json", ["report"]),
            "apply-over-budget": ("registry.json",
                                  ["apply", "--plan",
                                   os.path.join(os.path.relpath(self.inputs_dir, rd),
                                                "bad-plan-over-budget.json")]),
        }[kind]
        reg = f"bad-{kind}.json"
        shutil.copy(os.path.join(self.inputs_dir, src), os.path.join(rd, reg))
        with open(os.path.join(rd, reg), "rb") as fh:
            before = fh.read()
        ctx.op = f"{self.name}/cmd{index:02d}-bad_input"
        t0 = time.perf_counter()
        proc = ctx.run_cli(args + ["--registry", reg], cwd=rd)
        latency = time.perf_counter() - t0
        with open(os.path.join(rd, reg), "rb") as fh:
            after = fh.read()
        first = proc.stderr.splitlines()[0] if proc.stderr.strip() else ""
        ok = (proc.returncode == 2 and re.match(r"^[a-z][a-z-]*: \S", first) is not None
              and "Traceback" not in proc.stderr and before == after)
        return Op("bad_input", latency, not ok, {"kind": kind, "exit": proc.returncode})

    def check(self, ops):
        by_kind = {}
        for op in ops:
            by_kind.setdefault(op.kind, []).append(None if op.failed else op.out)
        for p, out in zip(self.pairs, by_kind["fit"]):
            if out is None:
                continue
            _require(out["converged"], f"{p['id']}: fit did not converge")
            err = max(abs(out["f_r_hz"] - p["f_r"]), abs(out["f_p_hz"] - p["f_p"]))
            _require(err <= p["tol"], f"{p['id']}: fitted f_r/f_p off by {err:.3e} Hz")
        for out in filter(None, by_kind["fit_nu_rho"]):
            _require(_rel(out["nu_rho_m_per_s"], inputs.NU_RHO) < 0.02,
                     f"fitted nu_rho {out['nu_rho_m_per_s']:.4e} not within 2%")
        reg = self.last_registry
        res = {r["id"]: r for r in reg["resonators"]}
        for r in res.values():
            _require(r["shoelaces"]["remaining"] >= 0, f"{r['id']}: negative shoelace budget")
        for link in reg["pairs"]:
            f_r = res[link["readout"]]["f_meas_hz"]
            f_p = res[link["purcell"]]["f_meas_hz"]
            quantum = reference.trim_quantum(max(f_r, f_p), inputs.NU_RHO)
            _require(abs(f_p - f_r) <= quantum,
                     f"{link['id']}: final |f_P - f_R| {abs(f_p - f_r):.3e} Hz > one quantum")
        for rows in filter(None, by_kind["report"]):
            links = {link["id"]: link for link in reg["pairs"]}
            _require(len(rows) == len(links), "report row count")
            for row in rows:
                link = links[row["pair"]]
                _, _, k_lo, k_hi = reference.modes_2x2(
                    row["f_r_hz"], row["f_p_hz"], link["j_hz"], link["kappa_hz"])
                _require(_rel(row["kappa_eff_low_hz"], k_lo) < 1e-6
                         and _rel(row["kappa_eff_high_hz"], k_hi) < 1e-6,
                         f"{row['pair']}: report linewidths differ from the closed form")
        for fl, doc in zip(("fl0", "fl1", "fl2"), by_kind["plan_crowding"]):
            if doc is None:
                continue
            links = [link for link in reg["pairs"] if link["feedline"] == fl]
            pairs = [{"id": link["id"], "readout": link["readout"], "purcell": link["purcell"],
                      "f_r": res[link["readout"]]["f_meas_hz"],
                      "f_p": res[link["purcell"]]["f_meas_hz"],
                      "j": link["j_hz"], "kappa": link["kappa_hz"],
                      "rem_r": res[link["readout"]]["shoelaces"]["remaining"],
                      "rem_p": res[link["purcell"]]["shoelaces"]["remaining"]}
                     for link in links]
            check_crowding_plan(pairs, doc["actions"], doc["feasible"],
                                exhaustive=len(pairs) <= 4,
                                id_of=lambda p, role: p[role])


def registry_doc(pairs):
    """Version-1 registry document for the device, written by the benchmark."""
    resonators, links = [], []
    for p in pairs:
        for rid, role, f in ((p["readout"], "readout", p["f_r"]), (p["purcell"], "purcell", p["f_p"])):
            resonators.append({"id": rid, "role": role, "f_meas_hz": round(f, -6),
                               "shoelaces": {"total": inputs.SHOELACES,
                                             "remaining": inputs.SHOELACES,
                                             "pitch_m": reference.PITCH}})
        links.append({"id": p["id"], "transmon": None, "readout": p["readout"],
                      "purcell": p["purcell"], "feedline": p["feedline"],
                      "j_hz": None, "kappa_hz": None, "chi_hz": p["chi"],
                      "gamma_r_hz": 0.0, "gamma_p_hz": 0.0, "kappa_drive_hz": 0.0})
    return {"version": 1, "device_id": "perfbench", "resonators": resonators,
            "transmons": [], "pairs": links, "history": []}


def write_trace_csv(path, freqs, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("frequency_hz,re_s21,im_s21\n")
        for f, z in zip(freqs.tolist(), np.asarray(values).tolist()):
            fh.write(f"{f!r},{z.real!r},{z.imag!r}\n")


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


WORKLOADS = {w.name: w for w in (Characterize, FeedlineCrowding, CliTwoCycle)}
