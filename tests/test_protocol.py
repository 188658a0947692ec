"""Migration probabilities, flows, equilibrium predicates, and round execution."""

import math
from fractions import Fraction

import numpy as np
import pytest

from netbalance.errors import ConfigError
from netbalance.graphs import make_graph
from netbalance.protocol import (
    ALGORITHM2,
    LoadState,
    ProtocolParams,
    all_on_one_state,
    default_alpha,
    exact_ne_alpha,
    expected_flow,
    is_approx_nash,
    is_nash,
    migration_probability,
    near_balanced_state,
    non_nash_edges,
    random_placement_state,
    random_task_weights,
    step_round_totals,
    weighted_all_on_one,
    weighted_near_balanced,
    weighted_random_placement,
)
from netbalance.spectral import SpeedProfile

K2 = make_graph("complete", n=2)
C4 = make_graph("cycle", n=4)
UNI2 = SpeedProfile.uniform(2)


def params(seed=1, **kw):
    return ProtocolParams(rng_seed=seed, **kw)


def test_migration_probability_hand_examples():
    # K2, unit speeds, w=(4,0), alpha=4: p = 4 / (4 * 2 * 4) = 1/8.
    st = LoadState.uniform((4, 0))
    assert migration_probability(K2, UNI2, st, params(), 0, 1) == pytest.approx(1 / 8)
    # Load gap exactly at the threshold 1/s_j moves nothing.
    st_tie = LoadState.uniform((3, 2))
    assert migration_probability(K2, UNI2, st_tie, params(), 0, 1) == 0.0
    # Degree-2 edge, speeds (2,1), w=(6,1), alpha=8: p = 2/(8*1.5*6) = 1/36.
    sp = SpeedProfile.from_rationals([2, 1, 1, 1])
    st = LoadState.uniform((6, 1, 0, 1))
    assert float(default_alpha(sp)) == 8.0
    assert migration_probability(C4, sp, st, params(), 0, 1) == pytest.approx(1 / 36)


def test_expected_flow_hand_examples():
    st = LoadState.uniform((2, 0))
    assert expected_flow(K2, UNI2, st, params(), 0, 1) == pytest.approx(1 / 4)
    balanced = LoadState.uniform((1, 1))
    assert expected_flow(K2, UNI2, balanced, params(), 0, 1) == 0.0
    sp = SpeedProfile.from_rationals([2, 1, 1, 1])
    st = LoadState.uniform((6, 1, 0, 1))
    f = expected_flow(C4, sp, st, params(), 0, 1)
    assert f == pytest.approx(1 / 12)
    p = migration_probability(C4, sp, st, params(), 0, 1)
    assert f == pytest.approx(6 * p / 2, rel=1e-12)


def test_flow_probability_identity_random_states():
    rng = np.random.default_rng(42)
    sp = SpeedProfile.from_rationals([1, 2, 1, 3])
    for _ in range(30):
        st = LoadState.uniform(rng.integers(0, 12, size=4))
        for i, j in C4.directed_edges():
            f = expected_flow(C4, sp, st, params(), i, j)
            p = migration_probability(C4, sp, st, params(), i, j)
            wi = st.counts[i]
            if wi:
                assert f == pytest.approx(wi * p / C4.degrees[i], rel=1e-12, abs=1e-15)
            # Monotone trigger chain: p > 0 iff edge is non-Nash iff f > 0.
            assert (p > 0) == ((i, j) in non_nash_edges(C4, sp, st)) == (f > 0)


def test_probability_capped_at_one_eighth():
    rng = np.random.default_rng(17)
    sp = SpeedProfile.from_rationals([1, 2, 1, 3])
    for _ in range(50):
        st = LoadState.uniform(rng.integers(0, 30, size=4))
        for i, j in C4.directed_edges():
            assert migration_probability(C4, sp, st, params(), i, j) <= 1 / 8 + 1e-12


def test_non_nash_edges_examples():
    assert non_nash_edges(K2, UNI2, LoadState.uniform((1, 1))) == set()
    # diff exactly 1 = 1/s_j is not strict.
    assert non_nash_edges(K2, UNI2, LoadState.uniform((3, 2))) == set()
    assert non_nash_edges(K2, UNI2, LoadState.uniform((4, 1))) == {(0, 1)}


def test_non_nash_exactness_with_rational_speeds():
    # loads 2 vs 3/2: gap exactly 1/s_j = 1/2 -> tie, not strict.
    sp = SpeedProfile.from_rationals([1, 2, 1, 1])
    st = LoadState.uniform((2, 3, 1, 1))
    assert (0, 1) not in non_nash_edges(C4, sp, st)
    # one more task on node 0 makes it strict
    st2 = LoadState.uniform((3, 3, 1, 1))
    assert (0, 1) in non_nash_edges(C4, sp, st2)


def test_is_nash_examples():
    sp = SpeedProfile.from_rationals([2, 1])
    assert is_nash(K2, sp, LoadState.uniform((4, 1)))
    assert not is_nash(K2, UNI2, LoadState.uniform((4, 0)))
    assert is_nash(K2, UNI2, LoadState.uniform((2, 2)))


def test_is_approx_nash_examples():
    assert is_approx_nash(K2, UNI2, LoadState.uniform((4, 2)), 0.5)
    assert not is_approx_nash(K2, UNI2, LoadState.uniform((8, 0)), 0.1)
    # Any exact equilibrium is an approximate one at every eps.
    for eps in (0.1, 0.5, 0.9):
        assert is_approx_nash(K2, UNI2, LoadState.uniform((2, 2)), eps)
    with pytest.raises(ConfigError):
        is_approx_nash(K2, UNI2, LoadState.uniform((2, 2)), 1.0)


def test_granularity_strengthened_threshold():
    # With speed granularity eps, any strict violation exceeds the threshold
    # by at least eps/(s_i*s_j); exact rational check on random states.
    rng = np.random.default_rng(3)
    sp = SpeedProfile.from_rationals([1, Fraction(3, 2), 1, Fraction(3, 2)])
    eps = sp.granularity
    assert eps == Fraction(1, 2)
    for _ in range(200):
        st = LoadState.uniform(rng.integers(0, 9, size=4))
        loads = [Fraction(c) / s for c, s in zip(st.counts, sp.speeds)]
        for i, j in non_nash_edges(C4, sp, st):
            gap = loads[i] - loads[j]
            assert gap >= 1 / sp.speeds[j] + eps / (sp.speeds[i] * sp.speeds[j])


def test_step_round_noop_at_equilibrium():
    st = LoadState.uniform((2, 2))
    new, moves = step_round_totals(K2, UNI2, st, params(), 0)
    assert new == st and moves == 0


def test_step_round_deterministic():
    st = LoadState.uniform((9, 0))
    p = params(seed=77)
    a_state, a_moves = step_round_totals(K2, UNI2, st, p, 5)
    b_state, b_moves = step_round_totals(K2, UNI2, st, p, 5)
    assert a_state == b_state and a_moves == b_moves
    # Different round index gives an independent draw stream.
    c_state, _ = step_round_totals(K2, UNI2, st, p, 6)
    assert isinstance(c_state, LoadState)
    # The move count is the number of tasks that left node 0.
    assert a_moves == 9 - a_state.counts[0]


def test_step_round_conserves_weight():
    rng = np.random.default_rng(8)
    sp = SpeedProfile.from_rationals([1, 2, 1, 3])
    st = LoadState.uniform((20, 0, 5, 1))
    for r in range(50):
        st, _ = step_round_totals(C4, sp, st, params(seed=4), r)
        assert sum(st.counts) == 26
    ws = random_task_weights(40, 11)
    wst = weighted_all_on_one(ws, 4)
    total = wst.total_weight()
    for r in range(50):
        wst, _ = step_round_totals(C4, sp, wst, params(seed=4, variant=ALGORITHM2), r)
        assert abs(wst.total_weight() - total) <= 1e-12 * total
    # Tasks move as indivisible units: the weight multiset is preserved.
    final = sorted(wst.weights)
    assert final == pytest.approx(sorted(ws), abs=0.0)


def test_weighted_node_weights_match_task_lists_after_many_rounds():
    # Alpha below the 4*s_max floor makes the [0, 1] cap bind, so tasks keep
    # moving every round. W_i must stay the sum of node i's own tasks: within
    # the recursive-summation bound k_i * 2^-53 * W_i of the exact sum, with
    # no error carried over from earlier rounds.
    sp = SpeedProfile.uniform(4)
    st = weighted_all_on_one(random_task_weights(40, 7), 4)
    pp = params(seed=3, variant=ALGORITHM2, alpha=Fraction(1, 2))
    for r in range(3000):
        st, _ = step_round_totals(C4, sp, st, pp, r)
    for i, node in enumerate(st.to_payload()["tasks"]):
        exact = math.fsum(node)
        assert abs(st.node_weights()[i] - exact) <= len(node) * 2.0**-53 * exact


def test_step_round_mc_mean_matches_binomial():
    # K2, w=(2,0), alpha=4: each task moves w.p. 1/8, mean moved = 1/4.
    st = LoadState.uniform((2, 0))
    p = params(seed=123)
    n_rounds = 100_000
    moved = 0
    for r in range(n_rounds):
        _, total = step_round_totals(K2, UNI2, st, p, r)
        moved += total
    mean = moved / n_rounds
    se = math.sqrt(2 * (1 / 8) * (7 / 8) / n_rounds)
    assert abs(mean - 0.25) <= 3 * se


def test_variant_mode_mismatch_rejected():
    with pytest.raises(ConfigError):
        step_round_totals(K2, UNI2, LoadState.uniform((2, 0)), params(variant=ALGORITHM2), 0)
    wst = weighted_all_on_one([0.5, 0.5], 2)
    with pytest.raises(ConfigError):
        step_round_totals(K2, UNI2, wst, params(), 0)


def test_printed_weighted_rule_matches_def_rule_for_uniform_speeds():
    ws = [0.5, 0.8, 0.3, 0.9, 0.2]
    st = weighted_all_on_one(ws, 2)
    p_def = params(seed=5, variant=ALGORITHM2)
    p_printed = params(seed=5, variant=ALGORITHM2, printed_weighted_rule=True)
    a = migration_probability(K2, UNI2, st, p_def, 0, 1)
    b = migration_probability(K2, UNI2, st, p_printed, 0, 1)
    assert a == pytest.approx(b, rel=1e-12)
    with pytest.raises(ConfigError):
        ProtocolParams(rng_seed=0, printed_weighted_rule=True)


def test_weighted_is_nash_is_threshold_condition():
    sp = SpeedProfile.uniform(2)
    st = weighted_all_on_one([1.0, 0.9, 0.8], 2)  # loads (2.7, 0): gap > 1
    assert not is_nash(K2, sp, st)
    st2 = LoadState.weighted(((1.0, 0.9), (0.8,)))  # gap 1.1 > 1
    assert not is_nash(K2, sp, st2)
    st3 = LoadState.weighted(((1.0,), (0.9, 0.8)))  # gaps 0.7 / -0.7
    assert is_nash(K2, sp, st3)


def test_weight_range_validation():
    with pytest.raises(ConfigError):
        LoadState.weighted(((1.5,), ()))
    with pytest.raises(ConfigError):
        LoadState.weighted(((0.0,), ()))


def test_alpha_overrides():
    sp = SpeedProfile.from_rationals([1, Fraction(3, 2)])
    assert default_alpha(sp) == 6
    assert exact_ne_alpha(sp) == 12  # 4 * (3/2) / (1/2)
    pp = ProtocolParams(rng_seed=0, alpha=Fraction(7, 2))
    assert pp.alpha == Fraction(7, 2)
    with pytest.raises(ConfigError):
        ProtocolParams(rng_seed=0, alpha=0)


def test_initial_state_builders():
    st = all_on_one_state(5, 9, node=2)
    assert st.counts.tolist() == [0, 0, 9, 0, 0]
    r1 = random_placement_state(6, 40, seed=3)
    r2 = random_placement_state(6, 40, seed=3)
    assert r1 == r2 and sum(r1.counts) == 40
    assert random_placement_state(6, 40, seed=4) != r1
    sp = SpeedProfile.from_rationals([1, 2, 1])
    nb = near_balanced_state(sp, 10)
    assert sum(nb.counts) == 10
    # near-balanced should be at (or within one task of) the balanced vector
    targets = [10 * float(s) / 4 for s in sp.speeds]
    assert all(abs(c - t) < 1.0 for c, t in zip(nb.counts, targets))


def test_uniform_state_rejects_non_integral_counts():
    with pytest.raises(ConfigError, match="integers"):
        LoadState.uniform([2.5, 0])
    st = LoadState.uniform([np.int64(2), 3])
    assert st.counts.tolist() == [2, 3] and st.counts.dtype == np.int64


def test_weighted_initial_state_builders():
    ws = random_task_weights(25, 9)
    assert all(0 < w <= 1 for w in ws)
    st = weighted_all_on_one(ws, 4, node=1)
    assert st.counts.tolist() == [0, 25, 0, 0]
    r1 = weighted_random_placement(ws, 4, seed=2)
    assert r1 == weighted_random_placement(ws, 4, seed=2)
    sp = SpeedProfile.from_rationals([1, 2, 1, 1])
    nb = weighted_near_balanced(ws, sp)
    loads = nb.loads(sp)
    assert loads.max() - loads.min() <= 1.0  # greedy keeps the spread below one task
