"""Invariants of one round as properties over random tiny states.

Instances: K2, P3 and C4 with speeds 1,2 or 1,3/2 repeated along the nodes,
unit or weighted tasks, any seed and round index. Every property is a theorem
about the protocol or its implementation, so any counterexample is a bug.
"""

from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netbalance.graphs import make_graph
from netbalance.potentials import (
    exact_expected_psi0_drop,
    exact_expected_psi1_drop,
    exact_variance_sum,
    node_change_moments,
)
from netbalance.protocol import (
    ALGORITHM1,
    ALGORITHM2,
    LoadState,
    ProtocolParams,
    migration_probability,
    step_round_totals,
)
from netbalance.rng import STREAM_ROUND, generator_from_prefix, key_prefix
from netbalance.spectral import SpeedProfile

import helpers

GRAPHS = (make_graph("complete", n=2), make_graph("path", n=3), make_graph("cycle", n=4))
SPEED_PATTERNS = ((1, 2), (1, Fraction(3, 2)))

seeds = st.integers(0, 2**64 - 1)
rounds = st.integers(0, 10**6)
weights = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
PROPERTY = settings(max_examples=200, deadline=None)


@st.composite
def instances(draw, modes=("uniform", "weighted"), max_count=12):
    g = draw(st.sampled_from(GRAPHS))
    n = g.node_count
    pattern = draw(st.sampled_from(SPEED_PATTERNS))
    sp = SpeedProfile.from_rationals([pattern[i % 2] for i in range(n)])
    if draw(st.sampled_from(modes)) == "uniform":
        state = LoadState.uniform(
            draw(st.lists(st.integers(0, max_count), min_size=n, max_size=n)))
    else:
        state = LoadState.weighted(
            draw(st.lists(st.lists(weights, max_size=5), min_size=n, max_size=n)))
    return g, sp, state


def protocol_params(state, seed=0, **kw):
    variant = ALGORITHM1 if state.weights is None else ALGORITHM2
    return ProtocolParams(rng_seed=seed, variant=variant, **kw)


@PROPERTY
@given(instances(), seeds, rounds)
def test_step_conserves_tasks(inst, seed, r):
    g, sp, state = inst
    new, moves = step_round_totals(g, sp, state, protocol_params(state, seed), r)
    assert new.n == state.n and (new.counts >= 0).all()
    assert new.task_count == state.task_count
    assert np.abs(new.counts - state.counts).sum() <= 2 * moves <= 2 * state.task_count
    if state.weights is not None:
        # Tasks move whole: the weight multiset is unchanged.
        assert np.array_equal(np.sort(new.weights), np.sort(state.weights))
    if moves == 0:
        assert new == state


@PROPERTY
@given(instances(), seeds, rounds)
def test_step_is_determined_by_its_key(inst, seed, r):
    g, sp, state = inst
    params = protocol_params(state, seed)
    first = step_round_totals(g, sp, state, params, r)
    # An equal state built afresh draws the same round.
    rebuilt = LoadState.from_payload(state.to_payload())
    assert rebuilt == state
    assert step_round_totals(g, sp, rebuilt, params, r) == first


def reference_weighted_step(g, sp, state, params, round_index):
    """The weighted round as a plain loop over per-node task lists.

    Node i's stream draws a neighbor pick and then a coin for each task slot;
    a node keeps its staying tasks in order and appends arrivals in (source
    node, slot) order.
    """
    tasks = state.to_payload()["tasks"]
    prefix = key_prefix(params.rng_seed, STREAM_ROUND, round_index)
    kept = [list(node) for node in tasks]
    arrivals = [[] for _ in tasks]
    for i, node in enumerate(tasks):
        probs = [migration_probability(g, sp, state, params, i, j) for j in g.neighbors[i]]
        if not node or not any(probs):
            continue
        gen = generator_from_prefix(prefix, i)
        picks = gen.integers(0, len(probs), size=len(node))
        coins = gen.random(len(node))
        kept[i] = []
        for w, k, c in zip(node, picks, coins):
            if c < probs[k]:
                arrivals[g.neighbors[i][k]].append(w)
            else:
                kept[i].append(w)
    moves = sum(len(a) for a in arrivals)
    return LoadState.weighted([k + a for k, a in zip(kept, arrivals)]), moves


@PROPERTY
@given(instances(modes=("weighted",)), seeds, rounds, st.booleans())
def test_weighted_step_matches_loop_reference(inst, seed, r, printed):
    g, sp, state = inst
    params = protocol_params(state, seed, printed_weighted_rule=printed)
    assert step_round_totals(g, sp, state, params, r) == \
        reference_weighted_step(g, sp, state, params, r)


@PROPERTY
@given(instances(), st.fractions(min_value=1, max_value=8, max_denominator=8), st.booleans())
def test_probability_at_most_one_eighth_above_alpha_floor(inst, factor, printed):
    g, sp, state = inst
    printed = printed and state.weights is not None
    params = protocol_params(state, alpha=4 * sp.s_max * factor,
                             printed_weighted_rule=printed)
    for i, j in g.directed_edges():
        assert migration_probability(g, sp, state, params, i, j) <= 1 / 8


@settings(max_examples=40, deadline=None)
@given(instances(modes=("uniform",), max_count=2))
def test_exact_oracle_matches_enumeration(inst):
    g, sp, state = inst
    alpha = 4 * sp.s_max
    moments = node_change_moments(g, sp, state, protocol_params(state, alpha=alpha))
    assert exact_expected_psi0_drop(moments) == helpers.enum_expected_psi0_drop(
        g, list(sp.speeds), state.counts.tolist(), alpha)
    # Exact all the way: Fractions over Python ints, never numpy scalars or
    # floats, also below 4*s_max, where probabilities are clamped to 1.
    for a in (alpha, sp.s_max / 8):
        moments = node_change_moments(g, sp, state, protocol_params(state, alpha=a))
        for x in (exact_expected_psi0_drop(moments), exact_expected_psi1_drop(moments),
                  exact_variance_sum(moments), *moments.mu, *moments.var,
                  *moments.deviations, *moments.inv):
            assert type(x) is Fraction and type(x.numerator) is int


@st.composite
def few_weighted_tasks(draw, max_tasks=5):
    g = draw(st.sampled_from(GRAPHS))
    n = g.node_count
    pattern = draw(st.sampled_from(SPEED_PATTERNS))
    sp = SpeedProfile.from_rationals([pattern[i % 2] for i in range(n)])
    lists = [[] for _ in range(n)]
    for node, w in draw(st.lists(st.tuples(st.integers(0, n - 1), weights),
                                 max_size=max_tasks)):
        lists[node].append(w)
    return g, sp, LoadState.weighted(lists)


@settings(max_examples=100, deadline=None)
@given(few_weighted_tasks(), st.booleans())
def test_weighted_oracle_matches_enumeration(inst, printed):
    g, sp, state = inst
    tasks = state.to_payload()["tasks"]
    # Float triggers decide exact ties by rounding; the oracle claims agreement
    # with exact arithmetic only away from them.
    loads = [sum(map(Fraction, node), Fraction(0)) / s for node, s in zip(tasks, sp.speeds)]
    assume(all(abs(loads[i] - loads[j] - 1 / sp.speeds[j]) > Fraction(1, 10**9)
               for i, j in g.directed_edges()))
    params = protocol_params(state, printed_weighted_rule=printed)
    moments = node_change_moments(g, sp, state, params)
    drop, var_sum = helpers.enum_weighted_round(
        g, list(sp.speeds), tasks, 4 * sp.s_max, printed)
    assert abs(exact_expected_psi0_drop(moments) - drop) <= 1e-12 * abs(drop)
    assert abs(exact_variance_sum(moments) - var_sum) <= 1e-12 * var_sum
