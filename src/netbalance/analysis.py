"""Convergence experiments, hitting-time statistics, and the lemma suite.

A trial executes rounds until a stop rule fires (or a round cap truncates it)
and records every hitting time it encounters on the way: the first round with
psi0 at or below the critical threshold, the first epsilon-approximate
equilibrium, and the first exact equilibrium. Trials derive their seeds from
a master seed, so a whole experiment is reproducible bit for bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

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
    ALGORITHM1,
    ALGORITHM2,
    LoadState,
    MODE_UNIFORM,
    ProtocolParams,
    all_on_one_state,
    default_alpha,
    exact_ne_alpha,
    is_approx_nash,
    is_nash,
    step_round_totals,
)
from .rng import STREAM_TRIAL, derive_seed
from .spectral import SpeedProfile, lambda2_of

STOP_KINDS = ("psi-threshold", "approx-ne", "exact-ne", "fixed-rounds")


@dataclass(frozen=True)
class StopRule:
    kind: str
    eps: float | None = None
    rounds: int | None = None

    def __post_init__(self):
        if self.kind not in STOP_KINDS:
            raise ConfigError(f"unknown stop rule {self.kind!r} (expected {STOP_KINDS})")
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
              *, psi_threshold: float | None = None, psi_constant: int = 8,
              approx_eps: float | None = None,
              collect_trace: bool = False) -> TrialResult:
    """Run one trial until `stop` fires or `round_cap` rounds have executed.

    psi_threshold defaults to 4*psi_c when any caller needs it (the
    psi-threshold stop, or hitting-time tracking). approx_eps lets callers
    track epsilon-equilibrium hits under a different stop rule.
    """
    if round_cap < 1:
        raise ConfigError(f"round_cap must be >= 1, got {round_cap}")
    if stop.kind == "exact-ne" and init_state.mode == MODE_UNIFORM:
        sp.granularity  # materializes; raises if speeds were not exact rationals
    eps = stop.eps if stop.kind == "approx-ne" else approx_eps
    if psi_threshold is None:
        psi_threshold = 4.0 * critical_value(g, sp, constant=psi_constant)

    state = init_state
    hit_psi: int | None = None
    hit_approx: int | None = None
    hit_exact: int | None = None
    trace = [] if collect_trace else None
    moves_in_round = 0
    rounds_done = 0
    truncated = False

    def observe(round_index: int) -> bool:
        """Record hits at `round_index`; True when the stop rule is satisfied."""
        nonlocal hit_psi, hit_approx, hit_exact
        if hit_psi is None and psi0_value(sp, state) <= psi_threshold:
            hit_psi = round_index
        nash_now = None
        if hit_exact is None:
            nash_now = is_nash(g, sp, state)
            if nash_now:
                hit_exact = round_index
        if eps is not None and hit_approx is None:
            # An exact equilibrium is in particular an approximate one.
            if hit_exact == round_index or is_approx_nash(g, sp, state, eps):
                hit_approx = round_index
        if collect_trace:
            snap = snapshot(g, sp, state, round_index)
            loads = state.loads(sp)
            trace.append((round_index, snap.psi0, snap.psi1, snap.l_delta,
                          float(loads.max()), float(loads.min()), moves_in_round))
        if stop.kind == "psi-threshold":
            return hit_psi is not None
        if stop.kind == "approx-ne":
            return hit_approx is not None
        if stop.kind == "exact-ne":
            return hit_exact is not None
        return round_index >= stop.rounds  # fixed-rounds

    stopped = observe(0)
    while not stopped:
        if rounds_done >= round_cap:
            truncated = True
            break
        state, moves_in_round = step_round_totals(g, sp, state, params, rounds_done)
        rounds_done += 1
        stopped = observe(rounds_done)

    return TrialResult(
        trial_id=0,
        seed=params.rng_seed,
        rounds_to_psi_threshold=hit_psi,
        rounds_to_approx_ne=hit_approx,
        rounds_to_exact_ne=hit_exact,
        final_snapshot=snapshot(g, sp, state, rounds_done),
        truncated=truncated,
        rounds_executed=rounds_done,
        final_state=state,
        trace=tuple(trace) if collect_trace else None,
    )


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
    """Aggregate run_trial over independent per-trial seeds.

    init_spec is either a LoadState used for every trial or a callable
    trial_index -> LoadState. params.rng_seed acts as the master seed; trial t
    runs under the derived sub-seed (master, STREAM_TRIAL, t).
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    results = []
    for t in range(trials):
        init = init_spec(t) if callable(init_spec) else init_spec
        sub = dataclasses.replace(
            params, rng_seed=derive_seed(params.rng_seed, STREAM_TRIAL, t))
        res = run_trial(g, sp, init, sub, stop, round_cap, **trial_kwargs)
        results.append(dataclasses.replace(res, trial_id=t))
    hits = [hitting_rounds(r, stop) for r in results]
    valid = [h for h in hits if h is not None]
    trunc = sum(1 for r in results if r.truncated) / trials
    if valid:
        q25, med, q75 = np.percentile(valid, [25, 50, 75])
        summary = (float(med), float(np.mean(valid)), float(q25), float(q75))
    else:
        summary = (None, None, None, None)
    return ConvergenceSummary(
        stop=stop, trials=trials,
        median_rounds=summary[0], mean_rounds=summary[1],
        q25_rounds=summary[2], q75_rounds=summary[3],
        fraction_truncated=trunc, results=tuple(results),
    )


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
                       trials: int, m_rule: Callable[[int], int] | None = None,
                       speed_rule: Callable[[int], SpeedProfile] | None = None,
                       stop: StopRule | None = None,
                       cap_rule: Callable[..., int] | None = None,
                       psi_constant: int = 8) -> list[ScalingRow]:
    """Median hitting times across sizes of one family (default: to psi0 <= 4*psi_c).

    Defaults follow the trend-check setup: m = n^3, uniform speeds, worst-case
    all-on-one start, cap at 4*gamma*ln(m/n) (not binding in practice).
    """
    m_rule = m_rule or (lambda n: n**3)
    speed_rule = speed_rule or SpeedProfile.uniform
    stop = stop or StopRule("psi-threshold")
    rows = []
    for n in sizes:
        g = _family_graph(family, n)
        sp = speed_rule(g.node_count)
        m = m_rule(g.node_count)
        lam2 = lambda2_of(g)
        gam = gamma_factor(g, sp, lam2)
        if cap_rule is not None:
            cap = cap_rule(g, sp, m, lam2, gam)
        else:
            cap = int(np.ceil(4.0 * gam * np.log(max(m / g.node_count, 2.0)))) + 1
        params = ProtocolParams(rng_seed=derive_seed(master_seed, n), variant=ALGORITHM1)
        summary = measure_convergence(
            g, sp, all_on_one_state(g.node_count, m), params, stop, trials, cap,
            psi_constant=psi_constant)
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


def _ge(lemma, case, lhs, rhs, tol, state) -> LemmaCheck:
    """Check lhs >= rhs - tol*scale (reported as margin = lhs - rhs)."""
    slack = tol * max(1.0, abs(rhs))
    ok = bool(lhs >= rhs - slack)
    return LemmaCheck(lemma, case, float(lhs), float(rhs), float(lhs - rhs), ok,
                      None if ok else state.to_payload())


def _le(lemma, case, lhs, rhs, tol, state) -> LemmaCheck:
    """Check lhs <= rhs + tol*scale; exact for Fraction sides and tol 0."""
    ok = bool(lhs - rhs <= tol * max(1.0, abs(rhs)))
    return LemmaCheck(lemma, case, float(lhs), float(rhs), float(rhs - lhs), ok,
                      None if ok else state.to_payload())


def verify_case(case: CorpusCase, tol: float = 1e-9) -> list[LemmaCheck]:
    """Every lemma inequality the suite covers, evaluated on one corpus state."""
    g, sp, state = case.graph, case.speeds, case.state
    checks: list[LemmaCheck] = []
    variant = ALGORITHM1 if state.mode == MODE_UNIFORM else ALGORITHM2
    params = ProtocolParams(rng_seed=0, variant=variant, alpha=default_alpha(sp))
    lam2 = lambda2_of(g)
    # Looked up on the module, so wrappers installed there see every pass.
    moments = potentials.node_change_moments(g, sp, state, params)

    drop0 = float(exact_expected_psi0_drop(moments))
    checks.append(_ge("drop-quadratic", case.name, drop0,
                      drop_quadratic_bound(g, sp, state, params), tol, state))
    checks.append(_ge("psi0-drop-lambda2", case.name, drop0,
                      psi0_lambda2_bound(g, sp, state, lam2), tol, state))
    checks.append(_le("variance-sum", case.name,
                      float(exact_variance_sum(moments)),
                      variance_bound(g, sp, state, params), tol, state))

    snap = snapshot(g, sp, state)
    # Max-deviation sandwich in the moments' number type: exact, with no
    # slack, for unit tasks.
    e, inv = moments.deviations, moments.inv
    psi0 = sum(d * d * i for d, i in zip(e, inv))
    ld2 = max(abs(d) * i for d, i in zip(e, inv)) ** 2
    sandwich_tol = 0 if state.mode == MODE_UNIFORM else tol
    checks.append(_le("l-delta-sandwich-lower", case.name, ld2, psi0, sandwich_tol, state))
    checks.append(_le("l-delta-sandwich-upper", case.name, psi0,
                      sp.total_capacity * ld2, sandwich_tol, state))

    checks.extend(_psi1_observations(case, snap, moments, tol))

    if state.mode == MODE_UNIFORM:
        checks.extend(_granularity_checks(case, tol))
        if not is_nash(g, sp, state):
            exact_params = dataclasses.replace(params, alpha=exact_ne_alpha(sp))
            drop1 = float(exact_expected_psi1_drop(
                potentials.node_change_moments(g, sp, state, exact_params)))
            floor = psi1_drop_floor(g, sp)
            checks.append(_ge("psi1-drop-floor", case.name, drop1, floor, tol, state))
            # Supermartingale restatement: psi1 - drop + floor <= psi1.
            checks.append(_le("supermartingale", case.name,
                              snap.psi1 - drop1 + floor, snap.psi1, tol, state))
    return checks


def _psi1_observations(case: CorpusCase, snap, moments, tol) -> list[LemmaCheck]:
    g, sp, state = case.graph, case.speeds, case.state
    n = g.node_count
    e = state.deviations(sp)
    inv = sp.inv_floats
    total = state.total_weight()
    cap = float(sp.total_capacity)
    checks = []
    # (1) psi1 equals the completed-square form.
    form1 = float(np.sum((e + 0.5) ** 2 * inv)) - n / (4.0 * float(sp.arithmetic_mean))
    checks.append(_le("psi1-obs1-identity", case.name, abs(snap.psi1 - form1),
                      tol * max(1.0, snap.phi1), 0.0, state))
    # (2) psi1 is non-negative.
    checks.append(_ge("psi1-obs2-nonneg", case.name, snap.psi1, 0.0, tol, state))
    # (3) psi1 = psi0 + sum e_i/s_i + (n/4)(1/harmonic - 1/arithmetic).
    form3 = snap.psi0 + float(np.sum(e * inv)) + n / 4.0 * (
        1.0 / float(sp.harmonic_mean) - 1.0 / float(sp.arithmetic_mean))
    checks.append(_le("psi1-obs3-identity", case.name, abs(snap.psi1 - form3),
                      tol * max(1.0, snap.phi1), 0.0, state))
    # (4) the phi1 and psi1 assemblies of the expected drop agree.
    via_phi1, via_psi1 = phi1_drop_routes(moments, sp, state)
    checks.append(_le("psi1-obs4-drop-identity", case.name, abs(via_phi1 - via_psi1),
                      tol * max(1.0, abs(via_phi1), total**2 / cap), 0.0, state))
    return checks


def _granularity_checks(case: CorpusCase, tol) -> list[LemmaCheck]:
    """Strict threshold implies the strengthened gap 1/s_j + eps/(s_i*s_j), exactly."""
    g, sp, state = case.graph, case.speeds, case.state
    eps = sp.granularity
    loads = [Fraction(c) / s for c, s in zip(state.counts.tolist(), sp.speeds)]
    checks = []
    worst = None
    for i, j in g.directed_edges():
        gap = loads[i] - loads[j]
        if gap <= Fraction(1) / sp.speeds[j]:
            continue
        needed = Fraction(1) / sp.speeds[j] + eps / (sp.speeds[i] * sp.speeds[j])
        margin = gap - needed
        if worst is None or margin < worst[0]:
            worst = (margin, gap, needed)
    if worst is None:
        checks.append(LemmaCheck("granularity-gap", case.name, 0.0, 0.0, 0.0, True))
    else:
        margin, gap, needed = worst
        checks.append(LemmaCheck("granularity-gap", case.name, float(gap), float(needed),
                                 float(margin), margin >= 0,
                                 None if margin >= 0 else state.to_payload()))
    return checks


def verify_lemma_suite(cases: list[CorpusCase] | None = None,
                       tol: float = 1e-9) -> SuiteReport:
    """Evaluate every covered lemma inequality across the corpus."""
    if cases is None:
        cases = default_corpus()
    checks: list[LemmaCheck] = []
    for case in cases:
        checks.extend(verify_case(case, tol))
    return SuiteReport(passed=all(c.passed for c in checks), checks=tuple(checks))
