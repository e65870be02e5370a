"""Quantized shoelace-removal planning.

Removing a grounding airbridge ("shoelace", 5 um pitch) from the
short-circuit end of a quarter-wave CPW resonator lengthens it by one
pitch and lowers its frequency by

    delta_f = -4 f0^2 delta_l / nu_rho,

with nu_rho the CPW phase velocity. Removal is irreversible, so planning
is downward-only and ties round toward fewer removals.
"""

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import pairmodel
from .errors import DomainError, UnderdeterminedError, ValidationError

__all__ = [
    "ShoelaceArray",
    "ResonatorRecord",
    "TrimAction",
    "TrimPlan",
    "AppliedTrim",
    "PairEntry",
    "TwoCycleResult",
    "NAIVE_SLOPE",
    "DEFAULT_PITCH",
    "DEFAULT_TOTAL",
    "freq_shift",
    "linear_shift_fn",
    "eq2_shift_fn",
    "plan_pair_match",
    "plan_match_all",
    "plan_crowding",
    "fit_nu_rho",
    "apply_plan",
    "velocity_samples",
    "simulate_outcomes",
    "two_cycle_protocol",
]

DEFAULT_PITCH = 5e-6  # m
DEFAULT_TOTAL = 10
NAIVE_SLOPE = -2e12  # Hz per m of added length (-2 MHz/um), first-cycle default


@dataclass
class ShoelaceArray:
    total: int = DEFAULT_TOTAL
    remaining: int = DEFAULT_TOTAL
    pitch: float = DEFAULT_PITCH

    def __post_init__(self):
        if not (0 <= self.remaining <= self.total):
            raise DomainError("remaining must be in [0, total]")
        if not 0 < self.pitch < math.inf:
            raise DomainError("pitch must be finite and positive")


@dataclass
class ResonatorRecord:
    id: str
    role: str  # "readout" | "purcell"
    f_meas: float  # Hz, latest characterization
    shoelaces: ShoelaceArray = field(default_factory=ShoelaceArray)

    def __post_init__(self):
        if self.role not in ("readout", "purcell"):
            raise DomainError(f"unknown resonator role {self.role!r}")
        if not 0 < self.f_meas < math.inf:
            raise DomainError("f_meas must be finite and positive")


# slots: a feedline plan keeps two actions per pair, and each one without a
# __dict__ is about a fifth smaller
@dataclass(frozen=True, slots=True)
class TrimAction:
    resonator_id: str
    n_remove: int
    delta_l: float
    predicted_delta_f: float
    predicted_f: float

    def __post_init__(self):
        if self.n_remove < 0 or self.predicted_delta_f > 0:
            raise DomainError("removal can only lower frequency")


@dataclass
class TrimPlan:
    actions: list
    objective_before: float
    objective_after: float
    cycle_index: int = 0
    feasible: bool = True
    notes: list = field(default_factory=list)


@dataclass(frozen=True)
class AppliedTrim:
    """What a plan did to one resonator: its actions added up."""

    resonator_id: str
    n_remove: int
    delta_l: float
    f_before: float
    f_after: float
    predicted_f: float


@dataclass
class PairEntry:
    """One readout/Purcell pair on a feedline: fitted params plus records."""

    pair_id: str
    params: pairmodel.PairParams
    readout: ResonatorRecord
    purcell: ResonatorRecord


def freq_shift(f0, nu_rho, delta_l):
    """Frequency shift (Hz, <= 0) from lengthening by delta_l meters."""
    if not (0.0 < f0 < math.inf and 0.0 < nu_rho < math.inf):
        raise DomainError("f0 and nu_rho must be finite and positive")
    if not 0.0 <= delta_l < math.inf:
        raise DomainError("delta_l must be finite and non-negative")
    try:
        shift = -4.0 * f0**2 * delta_l / nu_rho
    except OverflowError:
        shift = -math.inf
    if shift == -math.inf:
        raise DomainError("the frequency shift overflows")
    return shift


def eq2_shift_fn(nu_rho):
    """Shift predictor (f0, delta_l) -> Hz from the phase velocity."""
    freq_shift(1.0, nu_rho, 0.0)  # refuses a bad nu_rho here, even if no shift follows
    return lambda f0, delta_l: freq_shift(f0, nu_rho, delta_l)


def linear_shift_fn(slope=NAIVE_SLOPE):
    """Naive first-cycle predictor delta_f = slope * delta_l (slope < 0)."""
    if not -math.inf < slope < 0:
        raise DomainError("slope must be finite and negative")
    return lambda f0, delta_l: slope * delta_l


def _closest_count(landing, target, remaining):
    """Count in [0, remaining] whose landing(n) is closest to target.

    Ties, within 1e-12 of the starting distance, keep fewer removals.
    Landings only fall with n, so the scan ends at the first one at or below target.
    """
    best_n, best_err = 0, abs(landing(0) - target)
    tol = 1e-12 * max(1.0, best_err)
    for n in range(1, remaining + 1):
        miss = landing(n) - target
        if abs(miss) < best_err - tol:
            best_n, best_err = n, abs(miss)
        if miss <= 0:
            break
    return best_n


def _action(record, n, shift_fn):
    delta_l = n * record.shoelaces.pitch
    df = shift_fn(record.f_meas, delta_l) if n else 0.0
    return TrimAction(
        resonator_id=record.id,
        n_remove=n,
        delta_l=delta_l,
        predicted_delta_f=df,
        predicted_f=record.f_meas + df,
    )


def _shift_model(nu_rho, shift_fn):
    """``shift_fn`` if given, else the Eq. 2 predictor at ``nu_rho``."""
    if shift_fn is not None:
        return shift_fn
    if nu_rho is None:
        raise DomainError("provide nu_rho or shift_fn")
    return eq2_shift_fn(nu_rho)


def _match(r, p, shift_fn):
    """(action, high, low): the count that brings the higher resonator of a
    pair closest to the lower one, within its remaining shoelaces."""
    if r.role != "readout" or p.role != "purcell":
        raise DomainError("expected (readout, purcell) records")
    high, low = (p, r) if p.f_meas >= r.f_meas else (r, p)
    n = _closest_count(
        lambda k: high.f_meas + shift_fn(high.f_meas, k * high.shoelaces.pitch),
        low.f_meas, high.shoelaces.remaining,
    )
    return _action(high, n, shift_fn), high, low


def plan_pair_match(r, p, nu_rho, shift_fn=None):
    """Trim the higher resonator of a pair to minimize |f_P - f_R|.

    Downward-only moves can only close the gap from above, so the action
    always targets whichever resonator currently sits higher. A gap
    already within half a trim quantum, or a resonator with no shoelaces
    left, yields a zero-removal action.
    """
    return _match(r, p, _shift_model(nu_rho, shift_fn))[0]


def _pair_candidates(entry, nu_rho, shift_fn):
    """Joint candidates for one pair: match action plus k extra shoelaces
    removed from both resonators (shifts the hybridized modes down while
    keeping the pair matched)."""
    base = plan_pair_match(entry.readout, entry.purcell, nu_rho, shift_fn)
    n_r = base.n_remove if base.resonator_id == entry.readout.id else 0
    n_p = base.n_remove if base.resonator_id == entry.purcell.id else 0
    head = min(
        entry.readout.shoelaces.remaining - n_r,
        entry.purcell.shoelaces.remaining - n_p,
    )
    out = []
    for k in range(head + 1):
        a_r = _action(entry.readout, n_r + k, shift_fn)
        a_p = _action(entry.purcell, n_p + k, shift_fn)
        if k and min(a_r.predicted_f, a_p.predicted_f) <= 0:
            break  # deeper candidates only fall further
        out.append((a_r, a_p))
    return out


def _mode_frequencies(entry, a_r, a_p):
    params = entry.params.with_frequencies(a_r.predicted_f, a_p.predicted_f)
    low, high = pairmodel.eigenmodes(params, "ground")
    return low.f_mode, high.f_mode


def _mode_row(entry, a_r, a_p):
    """One candidate's table row: (mode frequencies, |f_P - f_R|, shoelaces removed)."""
    return (_mode_frequencies(entry, a_r, a_p), abs(a_p.predicted_f - a_r.predicted_f),
            a_r.n_remove + a_p.n_remove)


def _score(rows, guard_band):
    """Lexicographic objective (violations, total mismatch, total removed)
    of one table row per pair, plus the minimum inter-pair spacing.

    Spacings are counted between hybridized modes of *different* pairs;
    the intra-pair 2J splitting is fixed by design, not trimmable.
    """
    mismatch = 0.0
    removed = 0
    for _, miss, n in rows:
        mismatch += miss
        removed += n
    violations = 0
    min_spacing = np.inf
    for (m1, _, _), (m2, _, _) in itertools.combinations(rows, 2):
        for fa in m1:
            for fb in m2:
                gap = abs(fa - fb)
                min_spacing = min(min_spacing, gap)
                if gap < guard_band:
                    violations += 1
    return (violations, mismatch, removed), min_spacing


def _crowding_objective(entries, choice, guard_band):
    """:func:`_score` of one (readout, purcell) action pair per entry."""
    return _score([_mode_row(e, a_r, a_p) for e, (a_r, a_p) in zip(entries, choice)],
                  guard_band)


def _exhaustive(counts):
    """Whether every combination of these per-pair candidate counts is searched."""
    return len(counts) <= 4 and math.prod(counts) <= 200_000


def _greedy_crowding(sizes, score):
    """Greedy-then-local-search over per-pair candidate indices.

    Pair i takes an index below sizes[i]; ``score`` maps an index list to
    the (objective, min spacing) it minimizes.
    """
    idx = [0] * len(sizes)
    best = score(idx)
    improved = True
    while improved:
        improved = False
        for i in range(len(sizes)):
            for k in range(sizes[i]):
                if k == idx[i]:
                    continue
                trial = list(idx)
                trial[i] = k
                s = score(trial)
                if s < best:
                    idx, best = trial, s
                    improved = True
    return idx


def plan_crowding(pairs, guard_band=None, nu_rho=None, shift_fn=None, cycle_index=0):
    """Resolve frequency crowding of hybridized modes on one feedline.

    ``pairs`` is a list of :class:`PairEntry`. Searches joint downward
    trims (exhaustive for <= 4 pairs, greedy with local search beyond)
    minimizing lexicographically: guard-band violations between modes of
    different pairs, total R-P mismatch, total shoelaces removed. The
    modes of each pair's candidates are solved once, into a table that
    the search scores by index. The default guard band is 3x the largest
    effective linewidth.
    """
    if not pairs:
        raise DomainError("need at least one pair")
    shift_fn = _shift_model(nu_rho, shift_fn)
    if guard_band is None:
        widths = []
        for e in pairs:
            widths.extend(m.kappa_eff for m in pairmodel.eigenmodes(e.params, "ground"))
        guard_band = 3.0 * max(widths)
    if not 0.0 <= guard_band < math.inf:
        raise DomainError("guard_band must be finite and non-negative")

    candidates = [_pair_candidates(e, nu_rho, shift_fn) for e in pairs]
    table = [[_mode_row(e, a_r, a_p) for a_r, a_p in c] for e, c in zip(pairs, candidates)]
    zero_choice = [
        (_action(e.readout, 0, shift_fn), _action(e.purcell, 0, shift_fn)) for e in pairs
    ]
    _, spacing_before = _crowding_objective(pairs, zero_choice, guard_band)

    def score(ix):
        return _score([rows[k] for rows, k in zip(table, ix)], guard_band)

    sizes = [len(c) for c in candidates]
    if _exhaustive(sizes):
        best_idx, best_score = None, None
        for combo in itertools.product(*map(range, sizes)):
            objective, _ = score(combo)
            if best_score is None or objective < best_score:
                best_idx, best_score = combo, objective
    else:
        best_idx = _greedy_crowding(sizes, score)

    (violations, _, _), spacing_after = score(best_idx)
    choice = [c[k] for c, k in zip(candidates, best_idx)]
    actions = [a for a_r, a_p in choice for a in (a_r, a_p) if a.n_remove > 0]
    plan = TrimPlan(
        actions=actions,
        objective_before=float(spacing_before),
        objective_after=float(spacing_after),
        cycle_index=cycle_index,
        feasible=violations == 0,
    )
    if violations > 0:
        plan.notes.append(f"{violations} guard-band violations remain (best effort)")
    return plan


def fit_nu_rho(samples):
    """Least-squares phase velocity from (f0, delta_l, delta_f) samples.

    The model is linear in 1/nu_rho and solved in closed form. Returns
    (nu_rho, residual_rms_hz).
    """
    usable = [(f0, dl, df) for f0, dl, df in samples if dl > 0]
    if not usable:
        raise UnderdeterminedError("need at least one sample with delta_l > 0")
    a = np.array([freq_shift(f0, 1.0, dl) for f0, dl, _ in usable])
    y = np.array([df for _, _, df in usable])
    if not np.isfinite(y).all():
        raise DomainError("delta_f must be finite")
    with np.errstate(all="ignore"):  # an overflow is refused just below
        inv_nu = float(a @ y / (a @ a))
    if not 0 < inv_nu < math.inf:
        raise UnderdeterminedError("samples imply a non-physical phase velocity")
    resid = y - a * inv_nu
    return 1.0 / inv_nu, float(np.sqrt(np.mean(resid**2)))


def _plan_totals(plan):
    """{resonator_id: (n_remove, delta_l, predicted_delta_f)} summed over the actions."""
    totals = {}
    for a in plan.actions:
        n, dl, df = totals.get(a.resonator_id, (0, 0.0, 0.0))
        totals[a.resonator_id] = (n + a.n_remove, dl + a.delta_l, df + a.predicted_delta_f)
    return totals


def apply_plan(records, plan, realized=None):
    """({id: record} after a plan, one :class:`AppliedTrim` per planned resonator).

    ``realized`` maps resonator id -> frequency measured or simulated after
    the trims; records it leaves out take the plan's prediction. Raises
    ValidationError for an unknown resonator or a budget overrun. The
    arguments are not modified.
    """
    old = {rec.id: rec for rec in records}
    totals = _plan_totals(plan)
    for rid, (n, _, _) in totals.items():
        if rid not in old:
            raise ValidationError(f"plan references unknown resonator {rid!r}")
        if n > old[rid].shoelaces.remaining:
            raise ValidationError(
                f"{rid}: plan removes {n}, only {old[rid].shoelaces.remaining} shoelaces remain")
    new, trims = {}, []
    for rid, rec in old.items():
        n, delta_l, delta_f = totals.get(rid, (0, 0.0, 0.0))
        predicted = rec.f_meas + delta_f
        f_after = (realized or {}).get(rid, predicted)
        new[rid] = replace(rec, f_meas=f_after, shoelaces=replace(
            rec.shoelaces, remaining=rec.shoelaces.remaining - n))
        if rid in totals:
            trims.append(AppliedTrim(rid, n, delta_l, rec.f_meas, f_after, predicted))
    return new, trims


def velocity_samples(trims, measured):
    """fit_nu_rho samples (f0, delta_l, delta_f) of the trims that added length.

    ``measured`` maps resonator id -> frequency measured after the trim; a
    trimmed resonator it leaves out raises UnderdeterminedError.
    """
    trimmed = [t for t in trims if t.delta_l > 0]
    missing = [t.resonator_id for t in trimmed if t.resonator_id not in measured]
    if missing:
        raise UnderdeterminedError(f"not measured after the trim: {', '.join(missing)}")
    return [(t.f_before, t.delta_l, measured[t.resonator_id] - t.f_before) for t in trimmed]


def simulate_outcomes(records, plan, nu_rho_true):
    """Realized frequencies after applying a plan with the true velocity.

    Returns {resonator_id: f_after} for every record, trimmed or not.
    """
    lengths = {rid: dl for rid, (n, dl, _) in _plan_totals(plan).items() if n}
    return {rec.id: rec.f_meas + freq_shift(rec.f_meas, nu_rho_true, lengths[rec.id])
            if rec.id in lengths else rec.f_meas for rec in records}


@dataclass
class TwoCycleResult:
    plan_cycle1: TrimPlan
    nu_rho: float
    nu_rho_residual_rms: float
    plan_cycle2: TrimPlan
    pairs_cycle1: list  # (readout, purcell) records after cycle 1


def plan_match_all(pairs, nu_rho, shift_fn, cycle_index):
    """One :func:`plan_pair_match` action per (readout, purcell) pair.

    A pair whose predicted |f_P - f_R| stays above half the trim quantum
    of its trimmed resonator makes the plan infeasible, with a note.
    """
    shift_fn = _shift_model(nu_rho, shift_fn)
    actions, notes, gaps_after = [], [], []
    for r, p in pairs:
        a, high, low = _match(r, p, shift_fn)
        gaps_after.append(abs(a.predicted_f - low.f_meas))
        if gaps_after[-1] > 0.5 * abs(shift_fn(high.f_meas, high.shoelaces.pitch)) * (1 + 1e-9):
            notes.append(f"{high.id} cannot be matched to {low.id}: "
                         f"predicted residual {gaps_after[-1]:.3e} Hz")
        if a.n_remove > 0:
            actions.append(a)
    gaps_before = [abs(p.f_meas - r.f_meas) for r, p in pairs]
    return TrimPlan(
        actions=actions,
        objective_before=float(np.mean(gaps_before)) if gaps_before else 0.0,
        objective_after=float(np.mean(gaps_after)) if gaps_after else 0.0,
        cycle_index=cycle_index,
        feasible=not notes,
        notes=notes,
    )


def two_cycle_protocol(pairs, measurements_cycle0, measurements_cycle1, naive_slope=NAIVE_SLOPE):
    """Two trimming cycles: naive linear slope first, fitted velocity second.

    ``pairs`` is a list of (readout, purcell) ResonatorRecord tuples;
    the measurement dicts map resonator id -> characterized frequency
    before cycle 1 and after cycle 1 respectively. Cycle-1 shifts are
    planned with delta_f = naive_slope * delta_l; the realized cycle-1
    shifts then fix nu_rho, and cycle 2 re-plans with the quadratic
    model. Returns plans for both cycles, the fitted velocity and the
    records after cycle 1; the arguments are not modified.
    """
    pairs0 = [tuple(replace(rec, f_meas=measurements_cycle0[rec.id]) for rec in pair)
              for pair in pairs]
    plan1 = plan_match_all(pairs0, None, linear_shift_fn(naive_slope), cycle_index=1)
    records1, trims = apply_plan([rec for pair in pairs0 for rec in pair], plan1,
                                 measurements_cycle1)
    nu_rho, resid = fit_nu_rho(velocity_samples(trims, measurements_cycle1))
    pairs1 = [(records1[r.id], records1[p.id]) for r, p in pairs]
    plan2 = plan_match_all(pairs1, nu_rho, None, cycle_index=2)
    return TwoCycleResult(plan1, nu_rho, resid, plan2, pairs1)
