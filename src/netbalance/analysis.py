"""Convergence experiments, hitting-time statistics, and the lemma suite.

A trial executes rounds until a stop rule fires (or a round cap truncates it)
and records every hitting time it encounters on the way: the first round with
psi0 at or below the critical threshold, the first epsilon-approximate
equilibrium, and the first exact equilibrium. The trials of an experiment
run as the rows of one stacked state, one round of every row per kernel
call; round r of every row draws from one stream, keyed by a seed derived
from the master seed and r, rows in order, so a whole experiment is
reproducible bit for bit.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import potentials
from .corpus import CorpusCase, default_corpus
from .errors import ConfigError
from .graphs import GraphTopology, make_graph
from .potentials import (
    PotentialSnapshot,
    critical_value,
    drop_quadratic_bound,
    exact_expected_psi0_drop,
    exact_expected_psi1_drop,
    exact_psi0_and_ldelta2,
    exact_variance_sum,
    gamma_factor,
    phi1_drop_routes,
    psi0_lambda2_bound,
    psi0_value,
    psi1_drop_floor,
    snapshot,
    variance_bound,
)
from .protocol import (
    LoadState,
    MODE_UNIFORM,
    ProtocolParams,
    RoundKernel,
    all_on_one_state,
    default_alpha,
    exact_ne_alpha,
    is_approx_nash,
    is_nash,  # noqa: F401 - a perfbench tracer target; verify reads the moments' mask
    step_round_totals,  # noqa: F401 - a perfbench tracer target; trials step via RoundKernel
    triggers,
)
from .rng import STREAM_TRIAL, derive_seed
from .spectral import SpeedProfile, as_fraction, lambda2_of

STOP_KINDS = ("psi-threshold", "approx-ne", "exact-ne", "fixed-rounds")


@dataclass(frozen=True)
class StopRule:
    """When a trial stops; eps, the approx-ne margin, is held exactly (`as_fraction`)."""

    kind: str
    eps: Fraction | None = None
    rounds: int | None = None

    def __post_init__(self):
        if self.kind not in STOP_KINDS:
            raise ConfigError(f"unknown stop rule {self.kind!r} (expected {STOP_KINDS})")
        if self.eps is not None:
            object.__setattr__(self, "eps", as_fraction(self.eps, "eps"))
        if self.kind == "approx-ne" and not (self.eps and 0 < self.eps < 1):
            raise ConfigError("approx-ne stop needs eps in (0, 1)")
        if self.kind == "fixed-rounds" and not (self.rounds is not None and self.rounds >= 0):
            raise ConfigError("fixed-rounds stop needs a non-negative round count")


@dataclass(frozen=True)
class TrialResult:
    trial_id: int
    seed: int
    rounds_to_psi_threshold: int | None
    rounds_to_approx_ne: int | None
    rounds_to_exact_ne: int | None
    final_snapshot: PotentialSnapshot
    truncated: bool
    rounds_executed: int
    final_state: LoadState
    trace: tuple | None = None


#: Per-round trace row used by the CLI: matches the documented CSV schema.
TRACE_HEADER = ("round", "psi0", "psi1", "l_delta", "max_load", "min_load", "moves")


def run_trial(g: GraphTopology, sp: SpeedProfile, init_state: LoadState,
              params: ProtocolParams, stop: StopRule, round_cap: int,
              **trial_kwargs) -> TrialResult:
    """Run one trial until `stop` fires or `round_cap` rounds have executed.

    The one-row case of `_run_rows`, with the round stream keyed by
    params.rng_seed.
    """
    return _run_rows(g, sp, LoadState.stack([init_state]), params, stop, round_cap,
                     **trial_kwargs)[0]


def _run_rows(g: GraphTopology, sp: SpeedProfile, state: LoadState,
              params: ProtocolParams, stop: StopRule, round_cap: int,
              *, psi_threshold: float | None = None, approx_eps: Fraction | None = None,
              collect_trace: bool = False) -> list[TrialResult]:
    """Run every row of the stack `state` as one trial, all rows advancing together.

    Each round is one kernel call for every row still running, drawing from
    the one stream keyed by (params.rng_seed, round), rows in order. A row
    stops when `stop` fires for it or after `round_cap` rounds (truncated);
    from then on its triggers are masked off, so it draws nothing and never
    changes again. Hits, rounds, trace and final snapshot are per row.

    psi_threshold defaults to 4*psi_c. approx_eps (exact, as `StopRule.eps`)
    lets callers track epsilon-equilibrium hits under a different stop rule.
    Its `triggers` mask is a subset of the plain one, so an exact hit is an
    approximate one.
    """
    if round_cap < 1:
        raise ConfigError(f"round_cap must be >= 1, got {round_cap}")
    if state.n != g.node_count:
        raise ConfigError("graph and state sizes do not match")
    eps = stop.eps if stop.kind == "approx-ne" else approx_eps
    if psi_threshold is None:
        psi_threshold = 4.0 * critical_value(g, sp)
    kernel = RoundKernel(g, sp, params)
    trials = len(state.counts)
    none = -1
    hit_psi = np.full(trials, none)
    hit_approx = np.full(trials, none)
    hit_exact = np.full(trials, none)
    running = np.ones(trials, dtype=bool)
    executed = np.zeros(trials, dtype=np.int64)
    moves = np.zeros(trials, dtype=np.int64)
    traces = [[] for _ in range(trials)] if collect_trace else None
    stop_hits = {"psi-threshold": hit_psi, "approx-ne": hit_approx,
                 "exact-ne": hit_exact}.get(stop.kind)     # None: fixed-rounds

    def observe(round_index: int) -> np.ndarray:
        """Record hits at `round_index`, retire the rows whose stop fired,
        and return the state's trigger mask."""
        trig = triggers(g, sp, state)
        open_psi = running & (hit_psi == none)
        if open_psi.any():
            hit_psi[open_psi & (psi0_value(sp, state) <= psi_threshold)] = round_index
        hit_exact[running & (hit_exact == none) & ~trig.any(axis=1)] = round_index
        open_approx = running & (hit_approx == none)
        if eps is not None and open_approx.any():
            hit_approx[open_approx & is_approx_nash(g, sp, state, eps)] = round_index
        if collect_trace:
            snap = snapshot(g, sp, state, round_index)
            loads = state.loads(sp)
            columns = zip(snap.psi0.tolist(), snap.psi1.tolist(), snap.l_delta.tolist(),
                          loads.max(axis=1).tolist(), loads.min(axis=1).tolist(),
                          moves.tolist())
            for t, row in zip(np.flatnonzero(running).tolist(),
                              itertools.compress(columns, running)):
                traces[t].append((round_index, *row))
        if stop_hits is not None:
            running[stop_hits != none] = False
        elif round_index >= stop.rounds:
            running[:] = False
        return trig

    trig = observe(0)
    rounds_done = 0
    while running.any() and rounds_done < round_cap:
        trig[~running] = False
        state, moves = kernel.step(state, rounds_done, trig)
        rounds_done += 1
        executed[running] = rounds_done
        trig = observe(rounds_done)
    truncated = running

    state.check_node_units()
    final = snapshot(g, sp, state, executed)
    values = [final.phi0.tolist(), final.phi1.tolist(), final.psi0.tolist(),
              final.psi1.tolist(), final.l_delta.tolist()]

    def hit(rounds) -> int | None:
        return None if rounds == none else int(rounds)

    return [
        TrialResult(
            trial_id=t,
            seed=params.rng_seed,
            rounds_to_psi_threshold=hit(hit_psi[t]),
            rounds_to_approx_ne=hit(hit_approx[t]),
            rounds_to_exact_ne=hit(hit_exact[t]),
            final_snapshot=PotentialSnapshot(int(executed[t]), *(v[t] for v in values)),
            truncated=bool(truncated[t]),
            rounds_executed=int(executed[t]),
            final_state=row,
            trace=tuple(traces[t]) if collect_trace else None,
        )
        for t, row in enumerate(state.rows())
    ]


def hitting_rounds(result: TrialResult, stop: StopRule) -> int | None:
    if stop.kind == "psi-threshold":
        return result.rounds_to_psi_threshold
    if stop.kind == "approx-ne":
        return result.rounds_to_approx_ne
    if stop.kind == "exact-ne":
        return result.rounds_to_exact_ne
    return result.rounds_executed


@dataclass(frozen=True)
class ConvergenceSummary:
    stop: StopRule
    trials: int
    median_rounds: float | None
    mean_rounds: float | None
    q25_rounds: float | None
    q75_rounds: float | None
    fraction_truncated: float
    results: tuple[TrialResult, ...]


def measure_convergence(g: GraphTopology, sp: SpeedProfile, init_spec,
                        params: ProtocolParams, stop: StopRule, trials: int,
                        round_cap: int, **trial_kwargs) -> ConvergenceSummary:
    """Run `trials` trials of one instance as the rows of one stack.

    init_spec is either a LoadState used for every trial or a callable
    trial_index -> LoadState. params.rng_seed acts as the master seed. All
    trials draw from one round stream, keyed by the first trial's derived
    seed (master, STREAM_TRIAL, 0), rows in order: a 1-trial run draws what
    `run_trial` draws under that seed, and trial t's path depends on how
    many trials run beside it.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    stream = dataclasses.replace(
        params, rng_seed=derive_seed(params.rng_seed, STREAM_TRIAL, 0))
    # Handed over without a name, so the initial stack is freed once stepped.
    results = _run_rows(g, sp, LoadState.stack(
        init_spec(t) if callable(init_spec) else init_spec for t in range(trials)),
        stream, stop, round_cap, **trial_kwargs)
    hits = [hitting_rounds(r, stop) for r in results]
    valid = [h for h in hits if h is not None]
    trunc = sum(1 for r in results if r.truncated) / trials
    if valid:
        q25, med, q75 = quartiles(valid)
        summary = (med, float(np.mean(valid)), q25, q75)
    else:
        summary = (None, None, None, None)
    return ConvergenceSummary(
        stop=stop, trials=trials,
        median_rounds=summary[0], mean_rounds=summary[1],
        q25_rounds=summary[2], q75_rounds=summary[3],
        fraction_truncated=trunc, results=tuple(results),
    )


def quartiles(values: Sequence[int]) -> tuple[float, float, float]:
    """q25, median and q75 of a non-empty list, each interpolated linearly
    between the two nearest order statistics (numpy's default percentile
    method, without `np.percentile`, whose first call imports `numpy.ma`)."""
    ordered = sorted(values)
    top = len(ordered) - 1

    def at(q: float) -> float:
        pos = q * top
        lo = int(pos)
        hi = min(lo + 1, top)
        return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))

    return at(0.25), at(0.5), at(0.75)


@dataclass(frozen=True)
class ScalingRow:
    n: int
    m: int
    lambda2: float
    gamma: float
    median_rounds: float | None
    fraction_truncated: float


def _family_graph(family: str, n: int) -> GraphTopology:
    if family == "hypercube":
        dim = n.bit_length() - 1
        if 1 << dim != n:
            raise ConfigError(f"hypercube size must be a power of two, got {n}")
        return make_graph("hypercube", dim=dim)
    if family in ("torus2d", "grid2d"):
        root = int(np.sqrt(n))
        while n % root:
            root -= 1
        if root < 2:
            raise ConfigError(f"{family} size {n} has no rows x cols factorization with rows >= 2")
        return make_graph(family, rows=root, cols=n // root)
    return make_graph(family, n=n)


def scaling_experiment(family: str, sizes: Sequence[int], *, master_seed: int,
                       trials: int) -> list[ScalingRow]:
    """Median rounds to psi0 <= 4*psi_c across sizes of one family.

    The trend-check setup: m = n^3 unit tasks, uniform speeds, worst-case
    all-on-one start, cap at 4*gamma*ln(m/n) (not binding in practice).
    """
    stop = StopRule("psi-threshold")
    rows = []
    for n in sizes:
        g = _family_graph(family, n)
        sp = SpeedProfile.uniform(g.node_count)
        m = g.node_count ** 3
        lam2 = lambda2_of(g)
        gam = gamma_factor(g, sp, lam2)
        cap = int(np.ceil(4.0 * gam * np.log(max(m / g.node_count, 2.0)))) + 1
        params = ProtocolParams(rng_seed=derive_seed(master_seed, n))
        summary = measure_convergence(
            g, sp, all_on_one_state(g.node_count, m), params, stop, trials, cap)
        rows.append(ScalingRow(
            n=g.node_count, m=m, lambda2=lam2, gamma=gam,
            median_rounds=summary.median_rounds,
            fraction_truncated=summary.fraction_truncated,
        ))
    return rows


# ---------------------------------------------------------------------------
# Lemma-verification suite


@dataclass(frozen=True)
class LemmaCheck:
    lemma: str
    case: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    state_payload: dict | None = None


@dataclass(frozen=True)
class SuiteReport:
    passed: bool
    checks: tuple[LemmaCheck, ...]

    def failures(self) -> list[LemmaCheck]:
        return [c for c in self.checks if not c.passed]


#: Relative slack of the float lemma checks: lhs may miss rhs by
#: LEMMA_TOL * max(1, |rhs|).
LEMMA_TOL = 1e-9


def _ge(lemma, case, lhs, rhs, state) -> LemmaCheck:
    """Check lhs >= rhs - LEMMA_TOL*scale (reported as margin = lhs - rhs)."""
    slack = LEMMA_TOL * max(1.0, abs(rhs))
    ok = bool(lhs >= rhs - slack)
    return LemmaCheck(lemma, case, float(lhs), float(rhs), float(lhs - rhs), ok,
                      None if ok else state.to_payload())


def _le(lemma, case, lhs, rhs, state) -> LemmaCheck:
    """Check lhs <= rhs + LEMMA_TOL*scale on floats."""
    ok = bool(lhs - rhs <= LEMMA_TOL * max(1.0, abs(rhs)))
    return LemmaCheck(lemma, case, float(lhs), float(rhs), float(rhs - lhs), ok,
                      None if ok else state.to_payload())


def _le_exact(lemma, case, lhs, rhs, state) -> LemmaCheck:
    """Check lhs <= rhs with no slack: exact on Fractions, and on floats
    whose rhs already holds the tolerance."""
    margin = rhs - lhs
    ok = margin >= 0
    return LemmaCheck(lemma, case, float(lhs), float(rhs), float(margin), ok,
                      None if ok else state.to_payload())


def verify_case(case: CorpusCase) -> list[LemmaCheck]:
    """Every lemma inequality the suite covers, evaluated on one corpus state."""
    g, sp, state = case.graph, case.speeds, case.state
    checks: list[LemmaCheck] = []
    params = ProtocolParams(rng_seed=0, alpha=default_alpha(sp))
    lam2 = lambda2_of(g)
    # Looked up on the module, so wrappers installed there see every pass.
    # Both passes (this alpha and exact_ne_alpha below) share one set of inputs.
    inputs = potentials.moment_inputs(g, sp, state)
    moments = potentials.node_change_moments(g, sp, state, params, inputs)

    drop0 = float(exact_expected_psi0_drop(moments))
    checks.append(_ge("drop-quadratic", case.name, drop0,
                      drop_quadratic_bound(g, sp, state, params), state))
    checks.append(_ge("psi0-drop-lambda2", case.name, drop0,
                      psi0_lambda2_bound(g, sp, state, lam2), state))
    checks.append(_le("variance-sum", case.name,
                      float(exact_variance_sum(moments)),
                      variance_bound(g, sp, state, params, inputs.trig), state))

    snap = snapshot(g, sp, state)
    psi0, ld2 = exact_psi0_and_ldelta2(inputs)
    checks.append(_le_exact("l-delta-sandwich-lower", case.name, ld2, psi0, state))
    checks.append(_le_exact("l-delta-sandwich-upper", case.name, psi0,
                            sp.total_capacity * ld2, state))

    checks.extend(_psi1_observations(case, snap, moments))

    if state.mode == MODE_UNIFORM:
        checks.extend(_granularity_checks(case, inputs))
        if inputs.edges:    # off equilibrium
            exact_params = dataclasses.replace(params, alpha=exact_ne_alpha(sp))
            drop1 = float(exact_expected_psi1_drop(
                potentials.node_change_moments(g, sp, state, exact_params, inputs)))
            floor = psi1_drop_floor(g, sp)
            checks.append(_ge("psi1-drop-floor", case.name, drop1, floor, state))
            # Supermartingale restatement: psi1 - drop + floor <= psi1.
            checks.append(_le("supermartingale", case.name,
                              snap.psi1 - drop1 + floor, snap.psi1, state))
    return checks


def _psi1_observations(case: CorpusCase, snap, moments) -> list[LemmaCheck]:
    g, sp, state = case.graph, case.speeds, case.state
    n = g.node_count
    e = state.deviations(sp)
    inv = sp.inv_floats
    total = state.total_weight()
    cap = float(sp.total_capacity)
    checks = []
    # (1) psi1 equals the completed-square form.
    form1 = float(np.sum((e + 0.5) ** 2 * inv)) - n / (4.0 * float(sp.arithmetic_mean))
    checks.append(_le_exact("psi1-obs1-identity", case.name, abs(snap.psi1 - form1),
                            LEMMA_TOL * max(1.0, snap.phi1), state))
    # (2) psi1 is non-negative.
    checks.append(_ge("psi1-obs2-nonneg", case.name, snap.psi1, 0.0, state))
    # (3) psi1 = psi0 + sum e_i/s_i + (n/4)(1/harmonic - 1/arithmetic).
    form3 = snap.psi0 + float(np.sum(e * inv)) + n / 4.0 * (
        1.0 / float(sp.harmonic_mean) - 1.0 / float(sp.arithmetic_mean))
    checks.append(_le_exact("psi1-obs3-identity", case.name, abs(snap.psi1 - form3),
                            LEMMA_TOL * max(1.0, snap.phi1), state))
    # (4) the phi1 and psi1 assemblies of the expected drop agree.
    via_phi1, via_psi1 = phi1_drop_routes(moments, sp, state)
    checks.append(_le_exact("psi1-obs4-drop-identity", case.name, abs(via_phi1 - via_psi1),
                            LEMMA_TOL * max(1.0, abs(via_phi1), total**2 / cap), state))
    return checks


def _granularity_checks(case: CorpusCase,
                        inputs: potentials.MomentInputs) -> list[LemmaCheck]:
    """Strict threshold implies the strengthened gap 1/s_j + eps/(s_i*s_j), exactly.

    With s_i = n_i*eps and counts c_i, the gap l_i - l_j is x/(n_i*n_j*eps)
    with x = c_i*n_j - c_j*n_i, the needed gap (n_i + 1)/(n_i*n_j*eps), so
    the margin times n_i*n_j*eps is the integer x - n_i - 1; the worst
    margin over the triggered edges of `inputs` is found by integer cross
    products, ties to the first in `g.directed_edges` order.
    """
    sp, state = case.speeds, case.state
    eps, mult, counts = sp.granularity, sp.multipliers, inputs.w
    worst = None
    for i, j, *_ in sorted(inputs.edges, key=lambda e: (min(e[:2]), max(e[:2]), e[0] > e[1])):
        x = counts[i] * mult[j] - counts[j] * mult[i]
        margin, den = x - mult[i] - 1, mult[i] * mult[j]
        if worst is None or margin * worst[2] < worst[0] * den:
            worst = (margin, x, den, mult[i] + 1)
    if worst is None:
        return [LemmaCheck("granularity-gap", case.name, 0.0, 0.0, 0.0, True)]
    margin, x, den, needed = worst
    gap, needed, margin = (Fraction(v * eps.denominator, den * eps.numerator)
                           for v in (x, needed, margin))
    return [LemmaCheck("granularity-gap", case.name, float(gap), float(needed),
                       float(margin), margin >= 0, None if margin >= 0 else state.to_payload())]


def verify_lemma_suite(cases: list[CorpusCase] | None = None) -> SuiteReport:
    """Evaluate every covered lemma inequality across the corpus (default: `default_corpus`)."""
    if cases is None:
        cases = default_corpus()
    checks: list[LemmaCheck] = []
    for case in cases:
        checks.extend(verify_case(case))
    return SuiteReport(passed=all(c.passed for c in checks), checks=tuple(checks))
