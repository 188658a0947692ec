"""Trials, convergence summaries, and the lemma suite."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netbalance.analysis import (
    StopRule,
    hitting_rounds,
    measure_convergence,
    quartiles,
    run_trial,
    verify_lemma_suite,
)
from netbalance.corpus import corpus_task_count, default_corpus
from netbalance.errors import ConfigError
from netbalance.graphs import make_graph
from netbalance.protocol import (
    LoadState,
    ProtocolParams,
    all_on_one_state,
    is_nash,
    random_task_weights,
    weighted_all_on_one,
)
from netbalance.spectral import SpeedProfile

K2 = make_graph("complete", n=2)
UNI2 = SpeedProfile.uniform(2)


def test_run_trial_initial_equilibrium():
    res = run_trial(K2, UNI2, LoadState.uniform((1, 1)), ProtocolParams(rng_seed=9),
                    StopRule("exact-ne"), round_cap=10)
    assert res.rounds_to_exact_ne == 0
    assert res.rounds_executed == 0
    assert not res.truncated


def test_run_trial_k2_reaches_equilibrium():
    res = run_trial(K2, UNI2, LoadState.uniform((2, 0)), ProtocolParams(rng_seed=5),
                    StopRule("exact-ne"), round_cap=5000)
    assert not res.truncated
    w = res.final_state.counts
    assert abs(w[0] - w[1]) <= 1
    assert res.rounds_to_exact_ne is not None


def test_run_trial_deterministic():
    args = (K2, UNI2, LoadState.uniform((40, 0)), ProtocolParams(rng_seed=31),
            StopRule("exact-ne"), 5000)
    a = run_trial(*args)
    b = run_trial(*args)
    assert a == b


def test_run_trial_truncation():
    res = run_trial(K2, UNI2, LoadState.uniform((500, 0)), ProtocolParams(rng_seed=1),
                    StopRule("exact-ne"), round_cap=1)
    assert res.truncated and res.rounds_executed == 1


def test_run_trial_fixed_rounds_and_trace():
    res = run_trial(K2, UNI2, LoadState.uniform((4, 0)), ProtocolParams(rng_seed=3),
                    StopRule("fixed-rounds", rounds=5), round_cap=100,
                    collect_trace=True)
    assert res.rounds_executed == 5
    assert res.trace.round.tolist() == [0, 1, 2, 3, 4, 5]  # rounds 0..5 inclusive
    assert res.trace.psi0[0] == pytest.approx(8.0)  # psi0 of (4,0)
    assert hitting_rounds(res, StopRule("fixed-rounds", rounds=5)) == 5


def test_hitting_time_monotone_in_eps():
    # Same seed => same trajectory; a looser eps can only be hit earlier.
    base = ProtocolParams(rng_seed=77)
    init = all_on_one_state(2, 60)
    hits = {}
    for eps in (Fraction(4, 5), Fraction(2, 5), Fraction(1, 5)):
        res = run_trial(K2, UNI2, init, base, StopRule("approx-ne", eps=eps),
                        round_cap=20000)
        assert not res.truncated
        hits[eps] = res.rounds_to_approx_ne
    assert hits[Fraction(4, 5)] <= hits[Fraction(2, 5)] <= hits[Fraction(1, 5)]


def test_approx_ne_exact_tie_hits_at_round_zero():
    # (3/10)*10 - 2 = 1 = 1/s_j exactly, so the start is a 7/10-approximate
    # equilibrium; float loads made the left side 1.0000000000000004 and put
    # the hit at a later round. "0.7" is read as the decimal 7/10.
    for eps in (Fraction(7, 10), "7/10", "0.7"):
        res = run_trial(K2, UNI2, LoadState.uniform((2, 10)), ProtocolParams(rng_seed=1),
                        StopRule("approx-ne", eps=eps), round_cap=100)
        assert res.rounds_to_approx_ne == 0 and res.rounds_executed == 0


def test_stop_refuses_a_float_eps():
    # A binary float is a different rational than the decimal it prints as.
    with pytest.raises(ConfigError, match="float"):
        StopRule("approx-ne", eps=0.7)


def test_psi_threshold_recorded_under_other_stop():
    res = run_trial(K2, UNI2, all_on_one_state(2, 60), ProtocolParams(rng_seed=8),
                    StopRule("exact-ne"), round_cap=20000)
    assert res.rounds_to_psi_threshold is not None
    assert res.rounds_to_psi_threshold <= res.rounds_to_exact_ne


def test_weighted_threshold_stop_allowed():
    ws = random_task_weights(30, 3)
    res = run_trial(make_graph("cycle", n=4), SpeedProfile.uniform(4),
                    weighted_all_on_one(ws, 4),
                    ProtocolParams(rng_seed=12),
                    StopRule("exact-ne"), round_cap=20000)
    assert not res.truncated and res.rounds_to_exact_ne is not None


def test_measure_convergence_single_trial_equals_trial():
    from netbalance.rng import STREAM_TRIAL, derive_seed
    params = ProtocolParams(rng_seed=55)
    stop = StopRule("exact-ne")
    summary = measure_convergence(K2, UNI2, LoadState.uniform((6, 0)), params,
                                  stop, trials=1, round_cap=5000)
    assert summary.trials == 1
    single = run_trial(K2, UNI2, LoadState.uniform((6, 0)),
                       dataclasses.replace(params, rng_seed=derive_seed(55, STREAM_TRIAL, 0)),
                       stop, 5000)
    assert summary.median_rounds == summary.mean_rounds == \
        float(single.rounds_to_exact_ne)
    assert summary.q25_rounds == summary.q75_rounds == summary.median_rounds
    assert summary.fraction_truncated == 0.0


@pytest.mark.parametrize("kind", ("exact-ne", "psi-threshold"))
@pytest.mark.parametrize("weighted", (False, True))
def test_trials_are_the_rows_of_one_stack(weighted, kind):
    # The rows stop at different rounds. A stopped row is held: its final
    # state is the one its trace ends on, at its own stop round (under the
    # psi-threshold stop it could still move); every row keeps its tasks,
    # and every trial reports the one shared stream key.
    from netbalance.potentials import psi0_value, snapshot
    from netbalance.protocol import is_nash
    from netbalance.rng import STREAM_TRIAL, derive_seed
    g = make_graph("cycle", n=4)
    sp = SpeedProfile.from_rationals([1, 2, 1, 2])
    counts = ((12, 0, 0, 0), (2, 4, 2, 4), (0, 9, 0, 0), (5, 5, 5, 5), (30, 0, 0, 0))
    if weighted:
        starts = [LoadState.weighted([[0.75] * c for c in cs]) for cs in counts]
    else:
        starts = [LoadState.uniform(cs) for cs in counts]
    summary = measure_convergence(g, sp, lambda t: starts[t], ProtocolParams(rng_seed=7),
                                  StopRule(kind), trials=len(starts), round_cap=5000,
                                  psi_threshold=4.0, collect_trace=True)
    assert len({r.rounds_executed for r in summary.results}) > 2
    for t, (res, start) in enumerate(zip(summary.results, starts)):
        assert res.trial_id == t and res.seed == derive_seed(7, STREAM_TRIAL, 0)
        assert not res.truncated and hitting_rounds(res, StopRule(kind)) == res.rounds_executed
        assert res.final_state.task_count == start.task_count
        if kind == "exact-ne":
            assert is_nash(g, sp, res.final_state)
        else:
            assert res.final_snapshot.psi0 <= 4.0
        assert res.final_snapshot == snapshot(g, sp, res.final_state, res.rounds_executed)
        assert res.trace.round.tolist() == list(range(res.rounds_executed + 1))
        assert res.trace.psi0[0] == psi0_value(sp, start)
        assert res.trace.psi0[-1] == res.final_snapshot.psi0


@pytest.mark.parametrize("round_cap", (5000, 30))
@pytest.mark.parametrize("weighted", (False, True))
def test_trace_records_every_running_round_once(weighted, round_cap):
    # Rows stop at different rounds (at round_cap 30 some are truncated and
    # some have stopped). Each trial's trace covers rounds 0..rounds_executed,
    # starts at its start state and ends at its final state; an idle round
    # repeats the previous values exactly, and the record behind the traces
    # holds one row per (trial, round), with no padding for retired rows.
    from netbalance.potentials import snapshot
    g = make_graph("cycle", n=4)
    sp = SpeedProfile.from_rationals([1, 2, 1, 2])
    counts = ((12, 0, 0, 0), (2, 4, 2, 4), (0, 9, 0, 0), (5, 5, 5, 5), (30, 0, 0, 0),
              (1, 2, 1, 2))
    if weighted:
        starts = [LoadState.weighted([[(0.75, 0.5, 1.0)[k % 3] for k in range(c)]
                                      for c in cs]) for cs in counts]
    else:
        starts = [LoadState.uniform(cs) for cs in counts]
    results = measure_convergence(g, sp, lambda t: starts[t], ProtocolParams(rng_seed=7),
                                  StopRule("exact-ne"), trials=len(starts),
                                  round_cap=round_cap, collect_trace=True).results
    executed = [r.rounds_executed for r in results]
    assert len(set(executed)) > 2
    assert (round_cap == 30) == any(r.truncated for r in results)
    assert not all(r.truncated for r in results)
    total = sum(executed) + len(results)
    for res, start in zip(results, starts):
        trace = res.trace
        assert trace.round.tolist() == list(range(res.rounds_executed + 1))
        for column in trace:
            assert len(column) == res.rounds_executed + 1 and not column.flags.writeable
            assert column.base is not None and len(column.base) == total
        first = snapshot(g, sp, start)
        last = res.final_snapshot
        for row, snap, state in ((0, first, start), (-1, last, res.final_state)):
            loads = state.loads(sp)
            assert (trace.psi0[row], trace.psi1[row], trace.l_delta[row],
                    trace.max_load[row], trace.min_load[row]) == \
                (snap.psi0, snap.psi1, snap.l_delta, loads.max(), loads.min())
        assert trace.moves[0] == 0
        values = np.stack(trace[1:6], axis=1)
        idle = np.flatnonzero(trace.moves == 0)[1:]
        assert (values[idle] == values[idle - 1]).all()
    assert results[0].trace == results[0].trace and results[0].trace != results[1].trace


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=60))
def test_quartiles_match_numpy_percentile(hits):
    # The summary's q25, median and q75 are numpy's default (linear) percentiles.
    assert quartiles(hits) == tuple(np.percentile(hits, [25, 50, 75]).tolist())


def test_measure_convergence_rejects_bad_args():
    with pytest.raises(ConfigError):
        measure_convergence(K2, UNI2, LoadState.uniform((1, 1)),
                            ProtocolParams(rng_seed=0), StopRule("exact-ne"),
                            trials=0, round_cap=10)
    with pytest.raises(ConfigError):
        StopRule("nonsense")
    with pytest.raises(ConfigError):
        StopRule("approx-ne")  # missing eps


def test_median_hitting_grows_logarithmically_in_m():
    # Doubling m adds at most 2*gamma*ln(2) rounds (plus statistical slack)
    # to the median time to reach the psi threshold.
    import math

    from netbalance.potentials import critical_value, gamma_factor

    g = make_graph("complete", n=4)
    sp = SpeedProfile.uniform(4)
    gamma = gamma_factor(g, sp)
    threshold = 4.0 * critical_value(g, sp)
    medians = {}
    for m in (4096, 8192):
        summary = measure_convergence(
            g, sp, all_on_one_state(4, m), ProtocolParams(rng_seed=13),
            StopRule("psi-threshold"), trials=40,
            round_cap=int(8 * gamma * math.log(m)), psi_threshold=threshold)
        assert summary.fraction_truncated == 0.0
        medians[m] = summary.median_rounds
    slack = 0.5 * medians[4096]
    assert medians[8192] - medians[4096] <= 2 * gamma * math.log(2) + slack


def test_lemma_suite_passes_on_default_corpus():
    cases = default_corpus()
    report = verify_lemma_suite(cases)
    assert report.passed, [f"{c.lemma}@{c.case}" for c in report.failures()[:5]]
    lemmas = {c.lemma for c in report.checks}
    assert {"drop-quadratic", "psi0-drop-lambda2", "variance-sum",
            "l-delta-sandwich-lower", "l-delta-sandwich-upper",
            "psi1-obs1-identity", "psi1-obs2-nonneg", "psi1-obs3-identity",
            "psi1-obs4-drop-identity", "granularity-gap",
            "psi1-drop-floor", "supermartingale"} <= lemmas
    # The corpus holds threshold states too, where every drop lower bound is
    # vacuous; the psi1 floor is checked on exactly the unit-task cases off
    # equilibrium.
    nash = {c.name for c in cases if is_nash(c.graph, c.speeds, c.state)}
    assert nash
    off_unit = [c.name for c in cases if c.state.mode == "uniform" and c.name not in nash]
    assert len(off_unit) == 35
    assert [c.case for c in report.checks if c.lemma == "psi1-drop-floor"] == off_unit


def test_corpus_shape():
    cases = default_corpus()
    names = {c.graph_name for c in cases}
    assert names == {"K2", "K4", "C4", "C6", "path5", "Q3"}
    # 6 graphs x 3 speed patterns x 2 modes x 3 states
    assert len(cases) == 6 * 3 * 2 * 3
    for c in cases:
        if c.state.mode == "uniform":
            assert sum(c.state.counts) == corpus_task_count(c.graph.node_count)
    # deterministic construction
    again = default_corpus()
    assert [c.name for c in again] == [c.name for c in cases]
    assert [c.state for c in again] == [c.state for c in cases]
