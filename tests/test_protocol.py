"""Migration probabilities, flows, equilibrium predicates, and round execution."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from netbalance import protocol
from netbalance.analysis import StopRule, run_trial
from netbalance.errors import ConfigError
from netbalance.graphs import make_graph
from netbalance.protocol import (
    WEIGHT_UNITS,
    LoadState,
    ProtocolParams,
    RoundKernel,
    TaskBuffer,
    all_on_one_state,
    default_alpha,
    exact_ne_alpha,
    is_approx_nash,
    is_nash,
    near_balanced_state,
    non_nash_edges,
    random_placement_state,
    random_task_weights,
    step_round_totals,
    triggers,
    weighted_all_on_one,
    weighted_near_balanced,
    weighted_random_placement,
)
from netbalance.spectral import SpeedProfile

import helpers

K2 = make_graph("complete", n=2)
C4 = make_graph("cycle", n=4)
UNI2 = SpeedProfile.uniform(2)


def params(seed=1, **kw):
    return ProtocolParams(rng_seed=seed, **kw)


def migration_probability(g, sp, st, pp, i, j):
    """p_e of directed edge (i, j), read from the kernel's per-task probability array."""
    kernel = RoundKernel(g, sp, pp)
    prob = kernel.probabilities(st, triggers(g, sp, st))
    return float(prob[helpers.edge_index(g, i, j)])


def expected_flow(g, sp, st, pp, i, j):
    """f_e, the expected weight moving over directed edge (i, j), from the flow array."""
    kernel = RoundKernel(g, sp, pp)
    flow = kernel.flows(st, triggers(g, sp, st))
    return float(flow[helpers.edge_index(g, i, j)])


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


def test_int_guard_adds_without_wrapping():
    # Multipliers 2^63 - 2 and 2^63 - 1 fit int64 but their max plus one does
    # not; 3 - 0 > 1/s_1 holds, so the predicates must refuse, not answer.
    sp = SpeedProfile.from_rationals([1, Fraction(2**63 - 1, 2**63 - 2)])
    assert sp.multipliers == (2**63 - 2, 2**63 - 1)
    for predicate in (is_nash, non_nash_edges):
        with pytest.raises(ConfigError, match="64-bit"):
            predicate(K2, sp, LoadState.uniform((3, 0)))


def test_non_nash_edges_rejects_stacks():
    stack = LoadState.stack([LoadState.uniform((0, 0, 0, 0)), LoadState.uniform((9, 0, 0, 0))])
    with pytest.raises(ConfigError, match="stack"):
        non_nash_edges(C4, SpeedProfile.uniform(4), stack)


def test_is_nash_examples():
    sp = SpeedProfile.from_rationals([2, 1])
    assert is_nash(K2, sp, LoadState.uniform((4, 1)))
    assert not is_nash(K2, UNI2, LoadState.uniform((4, 0)))
    assert is_nash(K2, UNI2, LoadState.uniform((2, 2)))


def test_is_approx_nash_examples():
    assert is_approx_nash(K2, UNI2, LoadState.uniform((4, 2)), Fraction(1, 2))
    assert not is_approx_nash(K2, UNI2, LoadState.uniform((8, 0)), Fraction(1, 10))
    # Any exact equilibrium is an approximate one at every eps.
    for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
        assert is_approx_nash(K2, UNI2, LoadState.uniform((2, 2)), eps)
    with pytest.raises(ConfigError):
        is_approx_nash(K2, UNI2, LoadState.uniform((2, 2)), Fraction(1))


def test_approx_eps_is_exact_and_guarded():
    # A float eps is refused; eps = a/b scales the cross products by b, so a
    # denominator that passes the int64 guard is refused, never wrapped: 1/2^40
    # fits beside a few unit tasks but not beside weights in units of 2^-27.
    with pytest.raises(ConfigError, match="float"):
        is_approx_nash(K2, UNI2, LoadState.uniform((2, 10)), 0.7)
    fine = Fraction(1, 2**40)
    assert is_approx_nash(K2, UNI2, LoadState.uniform((3, 2)), fine)
    assert not is_approx_nash(K2, UNI2, LoadState.uniform((4, 1)), fine)
    heavy = LoadState.weighted([[1.0], [1.0]])
    for predicate in (is_approx_nash, triggers):
        with pytest.raises(ConfigError, match="64-bit"):
            predicate(K2, UNI2, heavy, fine)
    # The same state passes at eps = 0, and the message names the factor
    # that broke the guard.
    assert not triggers(K2, UNI2, heavy).any()
    with pytest.raises(ConfigError, match=r"eps denominator b = 1099511627776, "
                                          r"max\(max w_i, Q\) = 134217728, max n_i \+ 1 = 2"):
        triggers(K2, UNI2, heavy, fine)


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


def test_kernel_steps_stacks_of_changing_height():
    # A kernel keeps the edge arrays of the last stack height it stepped;
    # stepping other heights in turn draws what a fresh kernel draws.
    sp = SpeedProfile.from_rationals([1, 2, 1, 3])
    kernel = RoundKernel(C4, sp, params(seed=3, alpha=2))
    ws = random_task_weights(30, 2)
    for r, rows in enumerate((2, 3, 1, 3)):
        stack = LoadState.stack([weighted_all_on_one(ws, 4, t % 4) for t in range(rows)])
        got, moves = kernel.step(stack, r, triggers(C4, sp, stack))
        want, want_moves = RoundKernel(C4, sp, params(seed=3, alpha=2)).step(
            stack, r, triggers(C4, sp, stack))
        assert got == want and moves.tolist() == want_moves.tolist()
        assert moves.any()


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
        wst, _ = step_round_totals(C4, sp, wst, params(seed=4), r)
        assert wst.total_weight() == total
    # Tasks move as indivisible units: the weight multiset is preserved.
    final = sorted(wst.weights)
    assert final == pytest.approx(sorted(ws), abs=0.0)


def assert_exact_node_weights(st):
    """W_i of every node (of every row) is exactly the sum of its own tasks:
    Q times it in units, and that sum as a float."""
    for row, units, w in zip(st.rows() if st.stacked else [st],
                             np.atleast_2d(st.node_units()), np.atleast_2d(st.node_weights())):
        tasks = row.to_payload()["tasks"]
        assert units.tolist() == [WEIGHT_UNITS * sum(map(Fraction, node)) for node in tasks]
        assert w.tolist() == [math.fsum(node) for node in tasks]   # 0 on an empty node


def test_weighted_node_weights_match_task_lists_after_many_rounds():
    # Alpha below the 4*s_max floor makes the [0, 1] cap bind, so tasks keep
    # moving every round. W_i must stay exactly the sum of node i's own tasks.
    sp = SpeedProfile.uniform(4)
    st = weighted_all_on_one(random_task_weights(40, 7), 4)
    pp = params(seed=3, alpha=Fraction(1, 2))
    for r in range(3000):
        st, _ = step_round_totals(C4, sp, st, pp, r)
    assert_exact_node_weights(st)


def test_in_place_round_allocates_no_buffer_copy():
    # A weighted round that does not pack the buffer writes its movers
    # into the buffer in place, so what it allocates is sized by the nodes
    # and the movers, not by the 2^17 tasks (tracemalloc sees numpy's data).
    g = make_graph("torus2d", rows=8, cols=8)
    sp = SpeedProfile.uniform(64)
    gen = np.random.default_rng(0)
    counts = gen.multinomial(1 << 17, np.full(64, 1 / 64))
    st = LoadState.weighted(np.split(1.0 - gen.random(1 << 17), np.cumsum(counts)[:-1]))
    kernel = RoundKernel(g, sp, params(seed=1))
    for r in range(3):      # the first round packs the buffer
        st, _ = kernel.step(st, r, triggers(g, sp, st))
    trig = triggers(g, sp, st)
    values = st.tasks.values
    tracemalloc.start()
    try:
        new, moved = kernel.step(st, 3, trig)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert moved > 0 and np.shares_memory(new.tasks.values, values)    # did not pack
    assert peak < values.nbytes // 8


def test_small_blocks_rarely_pack():
    # Blocks of a few tasks (8 trials of 64 tasks placed at random on a 4x4
    # torus) overflow on the first round, which packs the gap-free buffer.
    # After it, the pack rule's floor of 4 slots per block leaves room for
    # the few tasks a small block gains, so later rounds allocate no new
    # store; a quarter or a half of the count as slack, with no floor,
    # packs on 8 to 26 of the 39 later rounds here (seeds 1-5).
    g = make_graph("torus2d", rows=4, cols=4)
    sp = SpeedProfile.uniform(16)
    stack = LoadState.stack(weighted_random_placement(random_task_weights(64, t), 16, t)
                            for t in range(8))
    kernel = RoundKernel(g, sp, params(seed=1))
    packs = []
    for r in range(40):
        values = stack.tasks.values
        stack, _ = kernel.step(stack, r, triggers(g, sp, stack))
        packs.append(not np.shares_memory(stack.tasks.values, values))
    assert packs[0] and sum(packs[1:]) <= 3


def test_rounds_carry_node_units_without_a_re_sum(monkeypatch):
    # A round carries W_i (old W_i - leavers + arrivals), so 50 rounds of
    # triggers and step on a weighted 8-row stack re-sum no task buffer,
    # whether a round writes the buffer in place or packs it. The check that
    # ends a run re-sums once, and a carried W_i that disagrees is an
    # internal error.
    g = make_graph("cycle", n=8)
    sp = SpeedProfile.from_rationals([1, Fraction(3, 2), 1, 2] * 2)
    stack = LoadState.stack(weighted_all_on_one(random_task_weights(300, t), 8)
                            for t in range(8))
    stack.node_units()          # an ingested stack sums its buffer once, on first use
    real, calls = TaskBuffer.sums, []

    def counted(self, counts, values):
        calls.append(len(counts))
        return real(self, counts, values)

    monkeypatch.setattr(TaskBuffer, "sums", counted)
    kernel = RoundKernel(g, sp, params(seed=4))
    moved = 0
    for r in range(50):
        stack, moves = kernel.step(stack, r, triggers(g, sp, stack))
        moved += int(moves.sum())
    assert calls == [] and moved > 0
    stack.check_node_units()
    assert calls == [stack.counts.size]
    wrong = stack.node_units().copy()
    wrong[3, 5] += 1
    with pytest.raises(RuntimeError, match="carried W_i disagrees"):
        LoadState._carrying(stack.counts, stack.tasks, wrong).check_node_units()


def test_task_store_size_limit(monkeypatch):
    # A task store past MAX_STORE_SLOTS is refused where it is allocated:
    # at ingest (tasks plus the spare slot) and when a round packs. The
    # limit is patched down to 40 slots; nothing that large is allocated.
    monkeypatch.setattr(protocol, "MAX_STORE_SLOTS", 40)
    LoadState.weighted([[1.0] * 39, []])
    with pytest.raises(ConfigError, match="task store of 41 slots"):
        LoadState.weighted([[1.0] * 40, []])
    with pytest.raises(ConfigError, match="task store of 41 slots"):
        LoadState.stack([LoadState.weighted([[1.0] * 20, []])] * 2)
    # 30 tasks fit in 31 slots; the first round that moves any packs both
    # blocks with c + c//4 + 4 slots each, 44 or more in all.
    state = LoadState.weighted([[1.0] * 30, []])
    kernel = RoundKernel(K2, UNI2, params(seed=2))
    with pytest.raises(ConfigError, match="exceeds the limit of 40"):
        kernel.step(state, 0, triggers(K2, UNI2, state))
    monkeypatch.undo()
    assert kernel.step(state, 0, triggers(K2, UNI2, state))[1] > 0


def test_block_sums_of_empty_nodes_rows_and_states():
    # W_i is the reduceat sum of node i's block: 0 on an empty node, and the
    # exact sum elsewhere, whether the empty nodes come first, in the middle
    # or last, fill whole rows of a stack, or are every node of a state with
    # no tasks.
    ws = random_task_weights(60, 4)
    lists = [[], list(ws[:20]), [], [], list(ws[20:45]), list(ws[45:]), []]
    empty_row = [[] for _ in lists]
    states = [LoadState.weighted(lists), LoadState.weighted(lists[::-1]),
              LoadState.weighted(empty_row)]
    stack = LoadState.stack([states[2], states[0], states[2], states[1], states[2]])
    for st in (*states, stack):
        assert_exact_node_weights(st)
    assert states[2].task_count == 0 and states[2].total_weight() == 0.0
    assert stack.total_weight().tolist() == [0.0, states[0].total_weight(), 0.0,
                                             states[1].total_weight(), 0.0]


def test_to_payload_rejects_stacks():
    # A stack's rows would come back as one state with T*n nodes (weighted)
    # or as nested counts that from_payload rejects (unit tasks).
    for st in (LoadState.weighted([[0.5], [0.25, 0.5]]), LoadState.uniform([3, 1])):
        stack = LoadState.stack([st, st])
        with pytest.raises(ConfigError, match="not a stack"):
            stack.to_payload()
        assert [LoadState.from_payload(r.to_payload()) for r in stack.rows()] == [st, st]


def test_empty_stack_is_config_error():
    with pytest.raises(ConfigError, match="at least one state"):
        LoadState.stack([])


@pytest.mark.parametrize("payload", [
    {"mode": "uniform"}, {"mode": "uniform", "counts": 3},
    {"mode": "uniform", "counts": [1, "2"]}, {"mode": "uniform", "counts": [1, 0.5]},
    {"mode": "uniform", "counts": [-1, 2]},
    {"mode": "weighted"}, {"mode": "weighted", "tasks": 5}, {"mode": "weighted", "tasks": ["1"]},
    {"mode": "weighted", "tasks": [[0.5, "x"]]}, {"mode": "weighted", "tasks": [[0.5, None]]},
    {"mode": "weighted", "tasks": [[0.5, [1]]]}, {"mode": "weighted", "tasks": [[1.5]]},
    {"mode": "both", "counts": [1]}, {}, [], "uniform", None,
])
def test_from_payload_rejects_malformed(payload):
    # Payloads come from files (counterexample artifacts, corpora), so every
    # malformed one is a ConfigError, never a KeyError, ValueError or
    # AttributeError.
    with pytest.raises(ConfigError):
        LoadState.from_payload(payload)


@pytest.mark.parametrize("node", [
    [None], ["abc"], [object()], [0.5, None], [1j], [10**400], [[0.5]], [0.5, [0.25]],
    0.5, "0.5",
])
def test_weighted_rejects_non_numeric_weights(node):
    # Each node converts with one np.asarray, which reads None as NaN and
    # would take a nested list or a lone number as an array; each of these
    # is still a ConfigError.
    with pytest.raises(ConfigError):
        LoadState.weighted([[0.25], node])


def test_weighted_reads_arrays_and_numeric_strings_as_numbers():
    expected = LoadState.weighted([[0.5, 0.25], [], [1.0]])
    assert LoadState.weighted([np.array([0.5, 0.25]), np.empty(0), (1,)]) == expected
    assert LoadState.weighted([["0.5", Fraction(1, 4)], [], [True]]) == expected
    assert LoadState.weighted([]).counts.shape == (0,)


def test_step_round_all_probabilities_clamped_at_degree_20():
    # Far below the alpha floor every migration probability clamps to 1, so
    # every task leaves node 0. The 20 move probabilities of 1/20 sum to
    # 1 + 2^-52 in floats; the stay probability must not come out negative.
    g = make_graph("complete", n=21)
    st = all_on_one_state(21, 1000)
    new, moves = step_round_totals(g, SpeedProfile.uniform(21), st,
                                   params(alpha=Fraction(1, 1000)), 0)
    assert moves == 1000 and new.counts[0] == 0 and new.task_count == 1000


def test_step_round_mc_mean_matches_binomial():
    # K2, w=(2,0), alpha=4: each task moves w.p. 1/8, mean moved = 1/4.
    st = LoadState.uniform((2, 0))
    p = params(seed=123)
    n_rounds = 100_000
    _, moved = step_round_totals(K2, UNI2, LoadState.stack([st] * n_rounds), p, 0)
    mean = moved.sum() / n_rounds
    se = math.sqrt(2 * (1 / 8) * (7 / 8) / n_rounds)
    assert abs(mean - 0.25) <= 3 * se


def test_weighted_is_nash_is_threshold_condition():
    sp = SpeedProfile.uniform(2)
    st = weighted_all_on_one([1.0, 0.9, 0.8], 2)  # loads (2.7, 0): gap > 1
    assert not is_nash(K2, sp, st)
    st2 = LoadState.weighted(((1.0, 0.9), (0.8,)))  # gap 1.1 > 1
    assert not is_nash(K2, sp, st2)
    st3 = LoadState.weighted(((1.0,), (0.9, 0.8)))  # gaps 0.7 / -0.7
    assert is_nash(K2, sp, st3)


def test_weighted_exact_tie_is_no_trigger():
    # K2, speeds 1 and 3/2, one task of weight 1 against one of weight 1/2:
    # l_0 - l_1 = 1 - 1/3 is exactly 1/s_1, so no edge triggers and the state
    # is an equilibrium. As floats, 1 - 0.5 * (1/1.5) is one ulp above 1/1.5.
    sp = SpeedProfile.from_rationals([1, Fraction(3, 2)])
    tie = LoadState.weighted([[1.0], [0.5]])
    busy = LoadState.weighted([[1.0, 1.0, 1.0], []])
    stack = LoadState.stack([busy, tie, busy])
    assert not triggers(K2, sp, tie).any() and not triggers(K2, sp, stack)[1].any()
    assert is_nash(K2, sp, tie) and is_nash(K2, sp, stack).tolist() == [False, True, False]
    assert non_nash_edges(K2, sp, tie) == set()
    new, moves = step_round_totals(K2, sp, tie, params(), 0)
    assert moves == 0 and new == tie
    new, moves = step_round_totals(K2, sp, stack, params(alpha=Fraction(1, 4)), 0)
    assert moves.tolist()[1] == 0 and moves.sum() > 0 and new.rows()[1] == tie
    trial = run_trial(K2, sp, tie, params(), StopRule("exact-ne"), 100)
    assert trial.rounds_to_exact_ne == 0 and trial.rounds_executed == 0


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
    # Every task lands somewhere, each node keeping the input order of its tasks.
    for node in r1.to_payload()["tasks"]:
        assert node == [w for w in ws if w in node]
    assert sorted(r1.weights) == sorted(ws)
    sp = SpeedProfile.from_rationals([1, 2, 1, 1])
    nb = weighted_near_balanced(ws, sp)
    loads = nb.loads(sp)
    assert loads.max() - loads.min() <= 1.0  # greedy keeps the spread below one task
