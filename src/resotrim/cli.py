"""Command-line surface for the measure -> fit -> plan -> re-measure cycle.

Every command exits nonzero on failure with a machine-readable error
category on stderr (``category: message``). Registry writes are atomic,
so a failed ``apply`` leaves the file untouched. The default registry
path can be set via the RESOTRIM_REGISTRY environment variable.
"""

import csv
import functools
import hashlib
import json
import sys

import click

from . import planner, readout, registry, transmon
from .errors import ResotrimError, ValidationError
from .fitting import fit_pair, initial_guess, correct_baseline
from .pairmodel import eigenmodes, matching_figure

REGISTRY_ENVVAR = "RESOTRIM_REGISTRY"

registry_option = click.option(
    "--registry", "registry_path", required=True, envvar=REGISTRY_ENVVAR,
    type=click.Path(exists=True, dir_okay=False),
    help="Device registry JSON (env: RESOTRIM_REGISTRY).",
)


def reports_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ResotrimError as exc:
            click.echo(f"{exc.category}: {exc}", err=True)
            if isinstance(exc, ValidationError):
                for p in exc.paths:
                    click.echo(f"  {p}", err=True)
            sys.exit(2)

    return wrapper


@click.group()
def main():
    """Readout/Purcell pair calibration: fitting, trim planning, simulation."""


@main.command("fit")
@click.option("--trace", "trace_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--model", type=click.Choice(["ideal", "full"]), default="ideal", show_default=True)
@click.option("--registry", "registry_path", type=click.Path(exists=True, dir_okay=False),
              envvar=REGISTRY_ENVVAR, default=None)
@click.option("--pair", "pair_id", default=None, help="Pair id to update in the registry.")
@click.option("--no-baseline", is_flag=True, help="Skip baseline correction.")
@reports_errors
def fit_cmd(trace_path, model, registry_path, pair_id, no_baseline):
    """Fit a transmission trace and print the pair parameters."""
    trace = registry.load_trace(trace_path)
    if not no_baseline:
        trace = correct_baseline(trace)
    result = fit_pair(trace, initial_guess(trace), model=model)
    doc = result.as_dict()
    doc["trace"] = trace_path
    doc["trace_warnings"] = list(trace.warnings)
    click.echo(json.dumps(doc, indent=2, sort_keys=True))
    if registry_path and pair_id:
        reg = registry.load_registry(registry_path)
        if pair_id not in reg.pairs:
            raise ValidationError(f"unknown pair {pair_id!r}")
        link = reg.pairs[pair_id]
        link.j = result.params.j
        link.kappa = result.params.kappa
        link.gamma_r = result.params.gamma_r
        link.gamma_p = result.params.gamma_p
        link.kappa_drive = result.params.kappa_drive
        reg.resonators[link.readout].f_meas = result.params.f_r
        reg.resonators[link.purcell].f_meas = result.params.f_p
        reg.history.append(
            {"event": "fit", "pair": pair_id, "trace": trace_path,
             "model": model, "converged": result.converged,
             "f_r_hz": result.params.f_r, "f_p_hz": result.params.f_p}
        )
        registry.save_registry(reg, registry_path)
    if not result.converged:
        sys.exit(3)


@main.group("plan")
def plan_group():
    """Produce trim plans."""


def _pair_records(reg, link):
    return reg.resonators[link.readout], reg.resonators[link.purcell]


def _slope(nu_rho, naive_slope):
    if naive_slope:
        return None, planner.linear_shift_fn(), "naive"
    if nu_rho is None:
        raise ValidationError("provide --nu-rho or --naive-slope")
    return nu_rho, None, "fitted"


@plan_group.command("pair")
@registry_option
@click.option("--pair", "pair_id", default=None)
@click.option("--all-pairs", is_flag=True, help="Plan every pair in the registry.")
@click.option("--nu-rho", type=float, default=None, help="Phase velocity in m/s.")
@click.option("--naive-slope", is_flag=True, help="Use the -2 MHz/um first-cycle slope.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@reports_errors
def plan_pair_cmd(registry_path, pair_id, all_pairs, nu_rho, naive_slope, out_path):
    """Plan readout/Purcell frequency matching for one pair or all."""
    reg = registry.load_registry(registry_path)
    if all_pairs == bool(pair_id):
        raise ValidationError("give exactly one of --pair or --all-pairs")
    links = list(reg.pairs.values()) if all_pairs else [reg.pairs[pair_id]] \
        if pair_id in reg.pairs else None
    if links is None:
        raise ValidationError(f"unknown pair {pair_id!r}")
    nu, shift_fn, mode = _slope(nu_rho, naive_slope)
    pairs = [_pair_records(reg, link) for link in links]
    plan = planner.plan_match_all(pairs, nu, shift_fn, cycle_index=reg.next_cycle_index())
    provenance = {"slope_mode": mode, "nu_rho_m_per_s": nu, "pairs": [l.id for l in links]}
    doc = registry.plan_to_doc(plan, provenance)
    click.echo(json.dumps(doc, indent=2, sort_keys=True))
    if out_path:
        registry.save_plan(plan, out_path, provenance)


@plan_group.command("crowding")
@registry_option
@click.option("--feedline", required=True)
@click.option("--guard-band", type=float, default=None, help="Minimum mode spacing in Hz.")
@click.option("--nu-rho", type=float, default=None)
@click.option("--naive-slope", is_flag=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@reports_errors
def plan_crowding_cmd(registry_path, feedline, guard_band, nu_rho, naive_slope, out_path):
    """Resolve mode crowding between pairs sharing a feedline."""
    reg = registry.load_registry(registry_path)
    links = reg.feedline_pairs(feedline)
    if not links:
        raise ValidationError(f"no pairs on feedline {feedline!r}")
    nu, shift_fn, mode = _slope(nu_rho, naive_slope)
    entries = []
    for link in links:
        r, p = _pair_records(reg, link)
        entries.append(
            planner.PairEntry(
                pair_id=link.id,
                params=link.pair_params(r.f_meas, p.f_meas),
                readout=r, purcell=p,
            )
        )
    plan = planner.plan_crowding(
        entries, guard_band=guard_band, nu_rho=nu, shift_fn=shift_fn,
        cycle_index=reg.next_cycle_index(),
    )
    provenance = {"slope_mode": mode, "nu_rho_m_per_s": nu, "feedline": feedline,
                  "guard_band_hz": guard_band}
    click.echo(json.dumps(registry.plan_to_doc(plan, provenance), indent=2, sort_keys=True))
    if out_path:
        registry.save_plan(plan, out_path, provenance)


def _plan_sha256(plan, provenance):
    """Hash of the plan's canonical JSON; ``apply`` refuses a hash already in the history."""
    text = json.dumps(registry.plan_to_doc(plan, provenance), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@main.command("apply")
@registry_option
@click.option("--plan", "plan_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--simulate-true-nu-rho", "nu_true", type=float, default=None,
              help="Simulate realized shifts with this true phase velocity.")
@reports_errors
def apply_cmd(registry_path, plan_path, nu_true):
    """Apply a trim plan to the registry (optionally simulating outcomes)."""
    reg = registry.load_registry(registry_path)
    plan, provenance = registry.load_plan(plan_path)
    plan_sha256 = _plan_sha256(plan, provenance)
    for h in reg.history:
        if h.get("event") == "apply" and h.get("plan_sha256") == plan_sha256:
            raise ValidationError(
                f"plan already applied in cycle {h.get('cycle_index')}; "
                "re-plan on the updated registry to trim again"
            )
    removals = {}
    for action in plan.actions:
        removals[action.resonator_id] = removals.get(action.resonator_id, 0) + action.n_remove
    for rid, n_remove in removals.items():
        rec = reg.resonators.get(rid)
        if rec is None:
            raise ValidationError(f"plan references unknown resonator {rid!r}")
        if n_remove > rec.shoelaces.remaining:
            raise ValidationError(
                f"{rec.id}: plan removes {n_remove}, only "
                f"{rec.shoelaces.remaining} shoelaces remain"
            )
    cycle = plan.cycle_index or reg.next_cycle_index()
    applied = []
    for action in plan.actions:
        rec = reg.resonators[action.resonator_id]
        f_before = rec.f_meas
        if nu_true is not None:
            f_after = f_before + planner.freq_shift(f_before, nu_true, action.delta_l)
        else:
            f_after = action.predicted_f
        rec.f_meas = f_after
        rec.shoelaces.remaining -= action.n_remove
        applied.append(
            {"resonator": rec.id, "n_remove": action.n_remove,
             "delta_l_m": action.delta_l, "f_before_hz": f_before,
             "f_after_hz": f_after, "predicted_f_hz": action.predicted_f}
        )
    reg.history.append(
        {"event": "apply", "cycle_index": cycle, "plan": plan_path,
         "plan_sha256": plan_sha256, "simulated": nu_true is not None,
         "nu_rho_true_m_per_s": nu_true, "provenance": provenance, "actions": applied}
    )
    registry.save_registry(reg, registry_path)
    click.echo(json.dumps({"applied": len(applied), "cycle_index": cycle}, sort_keys=True))


@main.command("fit-nu-rho")
@registry_option
@click.option("--cycle", "cycle_index", required=True, type=int)
@reports_errors
def fit_nu_rho_cmd(registry_path, cycle_index):
    """Fit the phase velocity from realized shifts of one trim cycle."""
    reg = registry.load_registry(registry_path)
    samples = []
    for h in reg.history:
        if h.get("event") == "apply" and h.get("cycle_index") == cycle_index:
            for a in h["actions"]:
                samples.append(
                    (a["f_before_hz"], a["delta_l_m"], a["f_after_hz"] - a["f_before_hz"])
                )
    nu_rho, resid = planner.fit_nu_rho(samples)
    record = {"event": "fit-nu-rho", "cycle_index": cycle_index,
              "nu_rho_m_per_s": nu_rho, "residual_rms_hz": resid,
              "n_samples": len(samples)}
    reg.history.append(record)
    registry.save_registry(reg, registry_path)
    click.echo(json.dumps({k: v for k, v in record.items() if k != "event"},
                          indent=2, sort_keys=True))


@main.group("simulate")
def simulate_group():
    """Synthetic-data simulations."""


@simulate_group.command("anneal")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@reports_errors
def simulate_anneal_cmd(config_path, out_path):
    """Run the closed-loop anneal simulator against a response model."""
    with open(config_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        config = transmon.AnnealConfig(
            r_start=float(doc["r_start_ohm"]),
            r_target=float(doc["r_target_ohm"]),
            exposure_threshold=float(doc["exposure_threshold_s"]),
            power_schedule=[float(p) for p in doc["power_schedule_w"]],
            initial_exposure=float(doc.get("initial_exposure_s", 1.0)),
            exposure_growth=float(doc.get("exposure_growth", 2.0)),
        )
        coeffs = {float(k): (float(v[0]), float(v[1]))
                  for k, v in doc["response"]["coeffs"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad anneal config: {exc}") from exc
    trace = transmon.anneal_closed_loop(config, transmon.LogAnnealResponse(coeffs))
    rows = [(i + 1, p, t, r) for i, (p, t, r) in enumerate(trace.history)]
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cycle", "power_w", "exposure_s", "r_over_r0"])
            writer.writerows(rows)
    click.echo(json.dumps(
        {"status": trace.status, "cycles": len(rows),
         "final_r_over_r0": rows[-1][3] if rows else 1.0},
        indent=2, sort_keys=True))
    if trace.status != "success":
        sys.exit(4)


@simulate_group.command("readout")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--n", "n_per_state", required=True, type=int)
@click.option("--seed", required=True, type=int)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@reports_errors
def simulate_readout_cmd(model_path, n_per_state, seed, out_path):
    """Generate single-shot IQ outcomes and print the benchmarks."""
    with open(model_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        model = readout.BlobModel(
            mean0=tuple(doc["mean0"]), mean1=tuple(doc["mean1"]),
            sigma=float(doc["sigma"]), leak_prob=float(doc.get("leak_prob", 0.0)),
            mean2=tuple(doc["mean2"]) if "mean2" in doc else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad blob model: {exc}") from exc
    shots = readout.synth_shots(model, n_per_state, seed)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label", "i", "q"])
            for lbl, i, q in zip(shots.labels, shots.i, shots.q):
                writer.writerow([int(lbl), repr(float(i)), repr(float(q))])
    bench = readout.assignment_fidelity(shots)
    click.echo(json.dumps(
        {"f_ro": bench.f_ro, "eps_ro": bench.eps_ro,
         "threshold": bench.threshold, "axis": list(bench.axis),
         "n_shots": len(shots), "seed": seed},
        indent=2, sort_keys=True))


def pair_report(reg, match_tolerance=5e6):
    """Per-pair summary rows used by the ``report`` command."""
    rows = []
    for pid in sorted(reg.pairs):
        link = reg.pairs[pid]
        r = reg.resonators[link.readout]
        p = reg.resonators[link.purcell]
        row = {
            "pair": pid,
            "f_r_hz": r.f_meas,
            "f_p_hz": p.f_meas,
            "delta_pr_hz": p.f_meas - r.f_meas,
            "shoelaces_remaining": {
                r.id: r.shoelaces.remaining, p.id: p.shoelaces.remaining},
            "ok": abs(p.f_meas - r.f_meas) <= match_tolerance,
        }
        if link.j is not None and link.kappa is not None:
            low, high = eigenmodes(link.pair_params(r.f_meas, p.f_meas), "ground")
            row["kappa_eff_low_hz"] = low.kappa_eff
            row["kappa_eff_high_hz"] = high.kappa_eff
            # chi_eff is the full mode pull; the matching argument is half of it
            row["matching_low"] = matching_figure(low.chi_eff / 2.0, low.kappa_eff)
            row["matching_high"] = matching_figure(high.chi_eff / 2.0, high.kappa_eff)
        rows.append(row)
    return rows


@main.command("report")
@registry_option
@click.option("--json", "as_json", is_flag=True, help="Emit JSON instead of a table.")
@reports_errors
def report_cmd(registry_path, as_json):
    """Per-pair table: frequencies, detuning, linewidths, matching figure."""
    reg = registry.load_registry(registry_path)
    rows = pair_report(reg)
    if as_json:
        click.echo(json.dumps(rows, indent=2, sort_keys=True))
        return
    header = (f"{'pair':8} {'f_R (GHz)':>11} {'f_P (GHz)':>11} {'dPR (MHz)':>10} "
              f"{'keff lo/hi (MHz)':>18} {'match lo/hi':>12} {'laces':>6} {'ok':>3}")
    click.echo(header)
    for row in rows:
        keff = match = "-"
        if "kappa_eff_low_hz" in row:
            keff = f"{row['kappa_eff_low_hz'] / 1e6:.2f}/{row['kappa_eff_high_hz'] / 1e6:.2f}"
            match = f"{row['matching_low']:.2f}/{row['matching_high']:.2f}"
        laces = "+".join(str(v) for v in row["shoelaces_remaining"].values())
        click.echo(
            f"{row['pair']:8} {row['f_r_hz'] / 1e9:11.6f} {row['f_p_hz'] / 1e9:11.6f} "
            f"{row['delta_pr_hz'] / 1e6:10.3f} {keff:>18} {match:>12} {laces:>6} "
            f"{'OK' if row['ok'] else '!!':>3}"
        )


if __name__ == "__main__":
    main()
