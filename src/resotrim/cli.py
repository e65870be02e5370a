"""Command-line surface for the measure -> fit -> plan -> re-measure cycle.

A command that fails prints nothing on stdout and one report on stderr,
``category: message`` with the lines that locate the fault under it, and
exits with status 2. Registry writes are atomic, so a failed ``apply``
leaves the file untouched. The default registry path can be set via the
RESOTRIM_REGISTRY environment variable.
"""

import json
import sys

import click

from . import planner, readout, registry, transmon
from .errors import ResotrimError, ValidationError
from .fitting import fit_pair, initial_guess, correct_baseline
from .pairmodel import eigenmodes, matching_figure

REGISTRY_ENVVAR = "RESOTRIM_REGISTRY"
MATCH_TOLERANCE_HZ = 5e6  # largest |f_P - f_R| that ``report`` marks as matched

registry_option = click.option(
    "--registry", "registry_path", required=True, envvar=REGISTRY_ENVVAR,
    type=click.Path(exists=True, dir_okay=False),
    help="Device registry JSON (env: RESOTRIM_REGISTRY).",
)


def _fail(category, message, details=()):
    click.echo("\n".join([f"{category}: {message}", *(f"  {d}" for d in details)]), err=True)
    sys.exit(2)


class _Commands(click.Group):
    """The ``resotrim`` group: each failure of a command is one report and exit status 2."""

    def main(self, args=None, prog_name=None, **extra):
        try:
            return super().main(args, prog_name, standalone_mode=False, **extra)
        except ResotrimError as exc:
            _fail(exc.category, exc, exc.details)
        except click.ClickException as exc:
            _fail("usage", exc.format_message())
        except OSError as exc:
            _fail("io", f"{exc.filename}: {exc.strerror}" if exc.filename else exc)
        except click.Abort:  # Ctrl-C
            click.echo("Aborted!", err=True)
            sys.exit(1)


# no_args_is_help=False: a missing command is click's one-line "Missing command."
@click.group(cls=_Commands, no_args_is_help=False)
def main():
    """Readout/Purcell pair calibration: fitting, trim planning, simulation."""


@main.command("fit")
@click.option("--trace", "trace_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--model", type=click.Choice(["ideal", "full"]), default="ideal", show_default=True)
@click.option("--registry", "registry_path", type=click.Path(exists=True, dir_okay=False),
              envvar=REGISTRY_ENVVAR, default=None)
@click.option("--pair", "pair_id", default=None, help="Pair id to update in the registry.")
@click.option("--no-baseline", is_flag=True, help="Skip baseline correction.")
def fit_cmd(trace_path, model, registry_path, pair_id, no_baseline):
    """Fit a transmission trace and print the pair parameters."""
    if pair_id and not registry_path:
        raise ValidationError(f"--pair needs a registry: pass --registry or set {REGISTRY_ENVVAR}")
    trace = registry.load_trace(trace_path)
    if not no_baseline:
        trace = correct_baseline(trace)
    result = fit_pair(trace, initial_guess(trace), model=model)
    if pair_id:
        reg = registry.load_registry(registry_path)
        reg.record_fit(pair_id, trace_path, model, result)
        registry.save_registry(reg, registry_path)
    doc = {**result.as_dict(), "trace": trace_path, "trace_warnings": list(trace.warnings)}
    click.echo(json.dumps(doc, indent=2, sort_keys=True))
    if not result.converged:
        sys.exit(3)


@main.group("plan", no_args_is_help=False)
def plan_group():
    """Produce trim plans."""


def _pair_records(reg, link):
    return reg.resonators[link.readout], reg.resonators[link.purcell]


def _emit_plan(plan, provenance, out_path):
    if out_path:
        registry.save_plan(plan, out_path, provenance)
    click.echo(json.dumps(registry.plan_to_doc(plan, provenance), indent=2, sort_keys=True))


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
def plan_pair_cmd(registry_path, pair_id, all_pairs, nu_rho, naive_slope, out_path):
    """Plan readout/Purcell frequency matching for one pair or all."""
    reg = registry.load_registry(registry_path)
    if all_pairs == bool(pair_id):
        raise ValidationError("give exactly one of --pair or --all-pairs")
    if pair_id and pair_id not in reg.pairs:
        raise ValidationError(f"unknown pair {pair_id!r}")
    links = list(reg.pairs.values()) if all_pairs else [reg.pairs[pair_id]]
    nu, shift_fn, mode = _slope(nu_rho, naive_slope)
    pairs = [_pair_records(reg, link) for link in links]
    plan = planner.plan_match_all(pairs, nu, shift_fn, cycle_index=reg.next_cycle_index())
    provenance = {"slope_mode": mode, "nu_rho_m_per_s": nu, "pairs": [l.id for l in links]}
    _emit_plan(plan, provenance, out_path)


@plan_group.command("crowding")
@registry_option
@click.option("--feedline", required=True)
@click.option("--guard-band", type=float, default=None, help="Minimum mode spacing in Hz.")
@click.option("--nu-rho", type=float, default=None)
@click.option("--naive-slope", is_flag=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
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
        entries.append(planner.PairEntry(link.id, link.pair_params(r.f_meas, p.f_meas), r, p))
    plan = planner.plan_crowding(
        entries, guard_band=guard_band, nu_rho=nu, shift_fn=shift_fn,
        cycle_index=reg.next_cycle_index(),
    )
    provenance = {"slope_mode": mode, "nu_rho_m_per_s": nu, "feedline": feedline,
                  "guard_band_hz": guard_band}
    _emit_plan(plan, provenance, out_path)


@main.command("apply")
@registry_option
@click.option("--plan", "plan_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--simulate-true-nu-rho", "nu_true", type=float, default=None,
              help="Simulate realized shifts with this true phase velocity.")
def apply_cmd(registry_path, plan_path, nu_true):
    """Apply a trim plan to the registry (optionally simulating outcomes)."""
    reg = registry.load_registry(registry_path)
    plan, provenance = registry.load_plan(plan_path)
    cycle, trims = reg.record_apply(plan, provenance, plan_path, nu_true)
    registry.save_registry(reg, registry_path)
    click.echo(json.dumps({"applied": len(trims), "cycle_index": cycle}, sort_keys=True))


@main.command("fit-nu-rho")
@registry_option
@click.option("--cycle", "cycle_index", required=True, type=click.IntRange(min=1))
def fit_nu_rho_cmd(registry_path, cycle_index):
    """Fit the phase velocity from the re-measured shifts of one trim cycle."""
    reg = registry.load_registry(registry_path)
    fitted = reg.record_fit_nu_rho(cycle_index)
    registry.save_registry(reg, registry_path)
    click.echo(json.dumps(fitted, indent=2, sort_keys=True))


@main.group("simulate", no_args_is_help=False)
def simulate_group():
    """Synthetic-data simulations."""


@simulate_group.command("anneal")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def simulate_anneal_cmd(config_path, out_path):
    """Run the closed-loop anneal simulator against a response model."""
    trace = transmon.anneal_closed_loop(*registry.load_anneal_config(config_path))
    if out_path:
        registry.save_anneal_trace(trace, out_path)
    ratios = trace.resistances()
    click.echo(json.dumps(
        {"status": trace.status, "cycles": len(ratios),
         "final_r_over_r0": ratios[-1] if ratios else 1.0},
        indent=2, sort_keys=True))
    if trace.status != "success":
        sys.exit(4)


@simulate_group.command("readout")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--n", "n_per_state", required=True, type=int)
@click.option("--seed", required=True, type=int)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def simulate_readout_cmd(model_path, n_per_state, seed, out_path):
    """Generate single-shot IQ outcomes and print the benchmarks."""
    shots = readout.synth_shots(registry.load_blob_model(model_path), n_per_state, seed)
    if out_path:
        registry.save_shots(shots, out_path)
    bench = readout.assignment_fidelity(shots)
    click.echo(json.dumps(
        {"f_ro": bench.f_ro, "eps_ro": bench.eps_ro,
         "threshold": bench.threshold, "axis": list(bench.axis),
         "n_shots": len(shots), "seed": seed},
        indent=2, sort_keys=True))


def pair_report(reg):
    """Per-pair summary rows used by the ``report`` command."""
    rows = []
    for pid in sorted(reg.pairs):
        link = reg.pairs[pid]
        r, p = _pair_records(reg, link)
        row = {"pair": pid, "f_r_hz": r.f_meas, "f_p_hz": p.f_meas,
               "delta_pr_hz": p.f_meas - r.f_meas,
               "shoelaces_remaining": {r.id: r.shoelaces.remaining, p.id: p.shoelaces.remaining},
               "ok": abs(p.f_meas - r.f_meas) <= MATCH_TOLERANCE_HZ}
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
def report_cmd(registry_path, as_json):
    """Per-pair table: frequencies, detuning, linewidths, matching figure."""
    reg = registry.load_registry(registry_path)
    rows = pair_report(reg)
    if as_json:
        click.echo(json.dumps(rows, indent=2, sort_keys=True))
        return
    click.echo(f"{'pair':8} {'f_R (GHz)':>11} {'f_P (GHz)':>11} {'dPR (MHz)':>10} "
               f"{'keff lo/hi (MHz)':>18} {'match lo/hi':>12} {'laces':>6} {'ok':>3}")
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
