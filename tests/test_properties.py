"""Invariants of one round as properties over random tiny states.

Instances: K2, P3 and C4 with speeds 1,2 or 1,3/2 repeated along the nodes
(random rationals for the trigger property, random rational eps in (0, 1)
for the approximate-equilibrium mask; K4 too and per-node speeds from
five rationals for the moments pass), unit or weighted tasks, bare or
stacked as the rows of one state, any seed and round index. Every property is a theorem about the protocol or its
implementation, so any counterexample is a bug.
"""

import random
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netbalance.graphs import make_graph
from netbalance.potentials import (
    exact_expected_psi0_drop,
    exact_expected_psi1_drop,
    exact_variance_sum,
    node_change_moments,
)
from netbalance.protocol import (
    WEIGHT_UNITS,
    LoadState,
    ProtocolParams,
    RoundKernel,
    exact_ne_alpha,
    is_approx_nash,
    non_nash_edges,
    step_round_totals,
    triggers,
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


@PROPERTY
@given(instances(), seeds, rounds)
def test_step_conserves_tasks(inst, seed, r):
    g, sp, state = inst
    new, moves = step_round_totals(g, sp, state, ProtocolParams(rng_seed=seed), r)
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
    params = ProtocolParams(rng_seed=seed)
    first = step_round_totals(g, sp, state, params, r)
    # An equal state built afresh draws the same round.
    rebuilt = LoadState.from_payload(state.to_payload())
    assert rebuilt == state
    assert step_round_totals(g, sp, rebuilt, params, r) == first


def reference_weighted_step(g, sp, state, params, round_index):
    """The weighted round as a plain loop over per-node task lists.

    One stream per round. Counts first: each node with a triggered out-edge,
    in (degree, node) order, draws one multinomial row over (move along each
    out-edge..., stay) with its task count. Then movers, in node order and
    row order within a node, draw task slots: one `integers` call for every
    mover's first draw, then one call per pass for the movers whose slot an
    earlier mover of their node holds, each drawing among the slots that no
    mover keeps. A node's first c_1 movers take its first out-edge, the next
    c_2 the second, and so on. A node fills its movers' holes by
    swap-with-last in ascending hole order (trailing movers drop off, then the
    last task that stays moves into the hole), and appends arrivals in
    (source node, slot) order.
    """
    tasks = state.to_payload()["tasks"]
    kernel = RoundKernel(g, sp, params)
    prob = kernel.probabilities(state, triggers(g, sp, state))
    active = {i for i, _ in non_nash_edges(g, sp, state)}
    gen = generator_from_prefix(key_prefix(params.rng_seed, STREAM_ROUND), round_index)
    rows = {}
    for i in sorted(active, key=lambda i: (g.degrees[i], i)):
        d = g.degrees[i]
        move_p = [min(float(prob[helpers.edge_index(g, i, j)]), 1.0) / d for j in g.neighbors[i]]
        rows[i] = gen.multinomial(len(tasks[i]), move_p + [max(1.0 - sum(move_p), 0.0)])
    movers = [i for i in sorted(rows) for _ in range(sum(rows[i][:-1]))]
    if not movers:
        return state, 0
    slots = [int(x) for x in gen.integers(0, [len(tasks[i]) for i in movers])]
    while True:
        kept = {i: set() for i in rows}
        redraw = []
        for k, i in enumerate(movers):
            if slots[k] in kept[i]:
                redraw.append(k)
            else:
                kept[i].add(slots[k])
        if not redraw:
            break
        free = {i: sorted(set(range(len(tasks[i]))) - kept[i]) for i in rows}
        draws = gen.integers(0, [len(free[movers[k]]) for k in redraw])
        for k, u in zip(redraw, draws):
            slots[k] = free[movers[k]][int(u)]
    leaving = {}                                    # (node, slot) -> destination
    k = 0
    for i in sorted(rows):
        for j, c in zip(g.neighbors[i], rows[i]):
            for _ in range(c):
                leaving[i, slots[k]] = j
                k += 1
    new = []
    for i, node in enumerate(tasks):
        block = [(w, (i, s) in leaving) for s, w in enumerate(node)]   # (weight, leaves)
        for h in sorted(s for (src, s) in leaving if src == i):
            while block and block[-1][1]:
                block.pop()
            if h < len(block):
                block[h] = block.pop()
        new.append([w for w, _ in block])
    for (i, s), j in sorted(leaving.items()):
        new[j].append(tasks[i][s])
    return LoadState.weighted(new), len(movers)


@PROPERTY
@given(instances(modes=("weighted",)), seeds, rounds, st.sampled_from((Fraction(1, 16), 1)))
def test_weighted_step_matches_loop_reference(inst, seed, r, alpha_factor):
    # Far below the alpha floor most tasks move, so slot draws repeat often.
    g, sp, state = inst
    params = ProtocolParams(rng_seed=seed, alpha=4 * sp.s_max * alpha_factor)
    assert step_round_totals(g, sp, state, params, r) == \
        reference_weighted_step(g, sp, state, params, r)


def assert_exact_triggers(g, sp, state, node_weights):
    """The one trigger mask is l_i - l_j > 1/s_j in Fractions, edge by edge."""
    mask = triggers(g, sp, state)
    loads = [Fraction(w) / s for w, s in zip(node_weights, sp.speeds)]
    ev = g.edge_arrays
    for e, (i, j) in enumerate(zip(ev.src.tolist(), ev.dst.tolist())):
        assert mask[e] == (loads[i] - loads[j] > 1 / sp.speeds[j])


@PROPERTY
@given(st.sampled_from(GRAPHS), st.integers(0, 2**32 - 1), st.data())
def test_triggers_match_the_exact_condition(g, speed_seed, data):
    n = g.node_count
    sp = SpeedProfile.from_rationals(
        helpers.random_rational_speeds(np.random.default_rng(speed_seed), n))
    counts = data.draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))
    assert_exact_triggers(g, sp, LoadState.uniform(counts), counts)


@st.composite
def eighth_weights(draw):
    """A weighted state with weights k/8: exact ties l_i - l_j = 1/s_j are common."""
    g = draw(st.sampled_from(GRAPHS))
    pattern = draw(st.sampled_from(SPEED_PATTERNS))
    sp = SpeedProfile.from_rationals([pattern[i % 2] for i in range(g.node_count)])
    eighth = st.integers(1, 8).map(lambda k: k / 8)
    return g, sp, draw(st.lists(st.lists(eighth, max_size=6), min_size=g.node_count,
                                max_size=g.node_count))


@PROPERTY
@given(eighth_weights())
@example((GRAPHS[0], SpeedProfile.from_rationals([1, Fraction(3, 2)]), [[1.0], [0.5]]))
def test_weighted_triggers_match_the_exact_condition(inst):
    g, sp, lists = inst
    assert_exact_triggers(g, sp, LoadState.weighted(lists),
                          [sum(map(Fraction, node), Fraction(0)) for node in lists])


@PROPERTY
@given(st.lists(st.lists(weights, max_size=5), min_size=1, max_size=4))
@example([[5e-324, 1e-300, 2.0**-28], [1.0, 1.5 * 2.0**-27, 2.0**-27]])
def test_weighted_payload_round_trip(lists):
    # Every weight in (0, 1], subnormal ones too, is stored within 2^-27 as a
    # whole number of units, at least one; the payload reloads to the same state.
    state = LoadState.weighted(lists)
    flat = [w for node in lists for w in node]
    assert (state.units >= 1).all() and (state.units <= WEIGHT_UNITS).all()
    assert all(abs(a - b) <= 2.0**-27 for a, b in zip(state.weights.tolist(), flat))
    again = LoadState.from_payload(state.to_payload())
    assert again == state and again.units.tolist() == state.units.tolist()


@PROPERTY
@given(instances(), st.fractions(min_value=1, max_value=8, max_denominator=8))
def test_probability_at_most_one_eighth_above_alpha_floor(inst, factor):
    g, sp, state = inst
    params = ProtocolParams(rng_seed=0, alpha=4 * sp.s_max * factor)
    kernel = RoundKernel(g, sp, params)
    prob = kernel.probabilities(state, triggers(g, sp, state))
    for i, j in g.directed_edges():
        assert prob[helpers.edge_index(g, i, j)] <= 1 / 8


@st.composite
def stacks(draw, max_rows=5, modes=("uniform", "weighted")):
    """One graph and speed profile with 1..max_rows states of one task mode."""
    g = draw(st.sampled_from(GRAPHS))
    n = g.node_count
    pattern = draw(st.sampled_from(SPEED_PATTERNS))
    sp = SpeedProfile.from_rationals([pattern[i % 2] for i in range(n)])
    mode = draw(st.sampled_from(modes))
    rows = draw(st.integers(1, max_rows))
    if mode == "uniform":
        states = [LoadState.uniform(draw(st.lists(st.integers(0, 12), min_size=n,
                                                  max_size=n)))
                  for _ in range(rows)]
    else:
        states = [LoadState.weighted(draw(st.lists(st.lists(weights, max_size=5),
                                                   min_size=n, max_size=n)))
                  for _ in range(rows)]
    return g, sp, states


def exact_node_weights(state):
    """W_i of one state as Fractions, from its per-task units (or its counts)."""
    if state.units is None:
        return [Fraction(c) for c in state.counts.tolist()]
    ends = np.cumsum(state.counts).tolist()
    units = state.units.tolist()
    return [Fraction(sum(units[e - c:e]), WEIGHT_UNITS)
            for e, c in zip(ends, state.counts.tolist())]


open_unit = st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(
    lambda eps: 0 < eps < 1)


@PROPERTY
@given(stacks(), st.booleans(), open_unit)
@example((GRAPHS[0], SpeedProfile.uniform(2), [LoadState.uniform((2, 10))]), True,
         Fraction(7, 10))     # (3/10)*10 - 2 = 1/s_j exactly: approximately Nash
def test_approx_mask_matches_the_exact_condition(inst, bare, eps):
    # The eps mask is (1 - eps)*l_i - l_j > 1/s_j in Fractions, edge by edge,
    # a subset of the eps = 0 mask; is_approx_nash is "no edge of it".
    g, sp, states = inst
    state = states[0] if bare else LoadState.stack(states)
    mask = triggers(g, sp, state, eps)
    assert not (mask & ~triggers(g, sp, state)).any()
    approx = is_approx_nash(g, sp, state, eps)
    ev = g.edge_arrays
    for row, (one, row_mask) in enumerate(zip(states, mask.reshape(-1, len(ev.src)))):
        loads = [w / s for w, s in zip(exact_node_weights(one), sp.speeds)]
        exact = [(1 - eps) * loads[i] - loads[j] > 1 / sp.speeds[j]
                 for i, j in zip(ev.src.tolist(), ev.dst.tolist())]
        assert row_mask.tolist() == exact
        assert (approx if bare else approx[row]) == (not any(exact))


@PROPERTY
@given(stacks(), seeds, rounds, st.sampled_from((Fraction(1, 16), 1)), st.data())
def test_no_task_crosses_rows(inst, seed, r, alpha_factor, data):
    g, sp, states = inst
    params = ProtocolParams(rng_seed=seed, alpha=4 * sp.s_max * alpha_factor)
    kernel = RoundKernel(g, sp, params)
    held = np.array(data.draw(st.lists(st.booleans(), min_size=len(states),
                                       max_size=len(states))))
    stack = LoadState.stack(states)
    for k in range(3):
        trig = triggers(g, sp, stack)
        trig[held] = False
        stack, moves = kernel.step(stack, r + k, trig)
        assert moves.shape == (len(states),) and not moves[held].any()
        for row, start, hold in zip(stack.rows(), states, held):
            assert row.task_count == start.task_count
            if start.weights is not None:
                assert np.array_equal(np.sort(row.weights), np.sort(start.weights))
            if hold:
                # A held (finished) row never changes, down to the bits.
                assert row.counts.tobytes() == start.counts.tobytes()
                assert start.weights is None or \
                    row.weights.tobytes() == start.weights.tobytes()
    # A one-row stack steps exactly as the bare state.
    bare, bare_moves = step_round_totals(g, sp, states[0], params, r)
    one, one_moves = step_round_totals(g, sp, LoadState.stack(states[:1]), params, r)
    assert one.rows()[0] == bare and one_moves.tolist() == [bare_moves]


def step_and_check_slack(g, sp, states, params, rounds):
    """Step the stack of `states` and check, after every round, that its task
    buffer's slack never shows: `weights`, `to_payload`, `rows` and `==` see
    gap-free tasks grouped by node, each row keeps its weight multiset, W_i
    is the block sum of the gap-free tasks, and the stack steps exactly as
    its gap-free rebuild. The blocks lie in node order, each holding its
    count, in a store no larger than the pack rule allows. Returns the
    rounds that packed the buffer (the only ones that allocate a store)."""
    kernel = RoundKernel(g, sp, params)
    stack = LoadState.stack(states)
    packed = 0
    for r in range(rounds):
        trig = triggers(g, sp, stack)
        rebuilt = LoadState.stack(LoadState.from_payload(row.to_payload())
                                  for row in stack.rows())
        old_values = stack.tasks.values
        new, moves = kernel.step(stack, r, trig)
        again, again_moves = kernel.step(rebuilt, r, trig)
        assert new == again and moves.tolist() == again_moves.tolist()
        values, offsets = new.tasks.values, new.tasks.offsets
        counts, m = new.counts.ravel(), new.task_count
        assert offsets[0] == 0 and (np.diff(offsets) >= 0).all()
        assert (counts <= np.diff(offsets)).all() and len(values) == offsets[-1] + 1
        assert len(values) - 1 <= m + m // 4 + 4 * len(counts)
        packed += not np.shares_memory(values, old_values)
        stack = new
        assert len(stack.weights) == stack.task_count
        rows = stack.rows()
        assert np.array_equal(stack.weights, np.concatenate([row.weights for row in rows]))
        for row, start_state in zip(rows, states):
            tasks = row.to_payload()["tasks"]
            assert [len(node) for node in tasks] == row.counts.tolist()
            assert np.array_equal(row.weights, [w for node in tasks for w in node])
            assert sorted(row.weights) == sorted(start_state.weights)
        rebuilt = LoadState.stack(LoadState.from_payload(row.to_payload()) for row in rows)
        assert stack == rebuilt and rebuilt == stack
        assert np.array_equal(stack.node_weights(), rebuilt.node_weights())
    return packed


@settings(max_examples=60, deadline=None)
@given(stacks(max_rows=3), seeds, st.sampled_from((Fraction(1, 16), Fraction(1, 4), 1)))
def test_slack_never_shows(inst, seed, alpha_factor):
    g, sp, states = inst
    if states[0].weights is None:
        states = [LoadState.weighted([[0.5] * int(c) for c in s.counts]) for s in states]
    # All of a row's tasks on its first node, so blocks overflow and the buffer packs.
    states = [LoadState.weighted([list(s.weights)] + [[]] * (g.node_count - 1))
              for s in states]
    step_and_check_slack(g, sp, states, ProtocolParams(
        rng_seed=seed, alpha=4 * sp.s_max * alpha_factor), 25)


def test_slack_blocks_move_and_pack():
    # Far below the alpha floor, with every task on one node, blocks
    # overflow and the buffer packs again and again, within a few rounds.
    g = GRAPHS[2]
    sp = SpeedProfile.from_rationals([1, 2, 1, 2])
    rng = np.random.default_rng(0)
    states = [LoadState.weighted([list(1.0 - rng.random(40)), [], [], []]) for _ in range(3)]
    packed = step_and_check_slack(
        g, sp, states, ProtocolParams(rng_seed=5, alpha=sp.s_max / 4), 30)
    assert packed >= 2


@settings(max_examples=100, deadline=None)
@given(stacks(modes=("weighted",)), st.booleans(), st.booleans(), seeds,
       st.sampled_from((Fraction(1, 16), Fraction(1, 4), 1)),
       st.lists(st.booleans(), min_size=5, max_size=5))
@example((GRAPHS[2], SpeedProfile.from_rationals([1, 2, 1, 2]),
          [LoadState.weighted([[0.25, 1.0, 0.5, 0.75, 0.125]] * 4)] * 3),
         False, True, 7, Fraction(1, 16), [False, True, False, False, False])
def test_carried_node_units_match_a_re_sum(inst, bare, all_on_one, seed, alpha_factor,
                                           held_bits):
    # A round carries W_i in units (old W_i - leavers + arrivals). After every
    # round it must equal a re-sum of the buffer and, row by row, of the
    # row's payload, through in-place rounds, packs (all-on-one starts below
    # the alpha floor) and held rows.
    g, sp, states = inst
    if all_on_one:
        states = [LoadState.weighted([list(s.weights)] + [[]] * (g.node_count - 1))
                  for s in states]
    state = states[0] if bare else LoadState.stack(states)
    kernel = RoundKernel(g, sp, ProtocolParams(rng_seed=seed, alpha=4 * sp.s_max * alpha_factor))
    for r in range(12):
        trig = triggers(g, sp, state)
        if not bare:
            trig[np.array(held_bits[:len(states)])] = False
        state, _ = kernel.step(state, r, trig)
        carried = state.node_units()
        resummed = state.tasks.sums(state.counts.ravel(), state.tasks.values)
        assert carried.ravel().tolist() == resummed.tolist()
        rows = state.rows() if state.stacked else [state]
        for row, units in zip(rows, carried.reshape(-1, g.node_count).tolist()):
            assert LoadState.from_payload(row.to_payload()).node_units().tolist() == units


def read_state(state):
    """What a state reads as: counts, weights, W_i and every row's weights, W_i
    and payload, read through a fresh alias so that no cached `weights` or W_i
    stands in for the task buffer."""
    alias = LoadState(state.counts, state.tasks)
    rows = alias.rows() if alias.stacked else [alias]
    return (alias.counts.tolist(), alias.weights.tolist(), alias.node_weights().tolist(),
            [(row.weights.tolist(), row.node_weights().tolist(), row.to_payload())
             for row in rows])


def step_and_check_history(g, sp, state, held, params, rounds, rng):
    """Step `state` `rounds` times (with the rows in `held` held, for a stack),
    then check that every state of the chain still reads as it did when it
    was new: read them all in random order, re-step a random earlier one at a
    fresh round index, which must step as its gap-free rebuild, and read them
    all again. Returns the number of rounds that wrote the buffer in place."""
    kernel = RoundKernel(g, sp, params)

    def trig_of(s):
        trig = triggers(g, sp, s)
        if held is not None:
            trig[held] = False
        return trig

    chain, records, in_place = [state], [read_state(state)], 0
    for r in range(rounds):
        values = chain[-1].tasks.values
        new, _ = kernel.step(chain[-1], r, trig_of(chain[-1]))
        in_place += np.shares_memory(new.tasks.values, values)
        chain.append(new)
        records.append(read_state(new))

    def check_chain():
        for k in rng.sample(range(len(chain)), len(chain)):
            assert read_state(chain[k]) == records[k]

    def restep(k):
        """Re-step chain[k] at a fresh round index: it must step as its
        gap-free rebuild, made from its record."""
        rows = [LoadState.from_payload(payload) for *_, payload in records[k][3]]
        rebuilt = LoadState.stack(rows) if chain[k].stacked else rows[0]
        r = rounds + rng.randrange(10**6)
        trig = trig_of(chain[k])
        again, moves = kernel.step(chain[k], r, trig)
        expected, expected_moves = kernel.step(rebuilt, r, trig)
        assert again == expected and np.array_equal(moves, expected_moves)
        chain.append(again)
        records.append(read_state(again))

    restep(rng.randrange(rounds))       # before any read has restored it
    check_chain()
    restep(rng.randrange(rounds))       # after every read has
    check_chain()
    return in_place


@settings(max_examples=60, deadline=None)
@given(stacks(max_rows=3, modes=("weighted",)), st.booleans(), seeds,
       st.sampled_from((Fraction(1, 16), Fraction(1, 4), 1)),
       st.randoms(use_true_random=False), st.data())
def test_older_states_read_and_step_as_they_were(inst, bare, seed, alpha_factor, rng, data):
    # A round writes the newest state's buffer in place; every older state of
    # the chain, bare or stacked, must still read and step as its own tasks.
    g, sp, states = inst
    held = None if bare else np.array(data.draw(
        st.lists(st.booleans(), min_size=len(states), max_size=len(states))))
    step_and_check_history(g, sp, states[0] if bare else LoadState.stack(states), held,
                           ProtocolParams(rng_seed=seed, alpha=4 * sp.s_max * alpha_factor),
                           8, rng)


def test_history_survives_in_place_rounds():
    # Ten tasks per node: most rounds fit every block and write in place.
    g = GRAPHS[2]
    sp = SpeedProfile.from_rationals([1, 2, 1, 2])
    gen = np.random.default_rng(1)
    states = [LoadState.weighted([list(1.0 - gen.random(10)) for _ in range(4)])
              for _ in range(3)]
    for state, held in ((states[0], None),
                        (LoadState.stack(states), np.array([False, True, False]))):
        in_place = step_and_check_history(g, sp, state, held, ProtocolParams(
            rng_seed=2, alpha=sp.s_max), 20, random.Random(0))
        assert in_place >= 10


DYADIC_SPEEDS = (1, 2, 4)


@PROPERTY
@given(st.sampled_from(GRAPHS).flatmap(lambda g: st.tuples(
           st.just(g),
           st.lists(st.sampled_from(DYADIC_SPEEDS), min_size=g.node_count,
                    max_size=g.node_count),
           st.lists(st.integers(0, 12), min_size=g.node_count, max_size=g.node_count))),
       st.sampled_from((Fraction(1, 8), 1, 4)), seeds, rounds)
def test_unit_weights_draw_the_unit_task_counts(inst, alpha_factor, seed, r):
    # The trigger is exact in both modes, and weights 1.0 and power-of-two
    # speeds make every float load exact, so the weighted probabilities equal
    # the unit-task ones, and the shared count draw must give the same counts.
    g, speeds, counts = inst
    sp = SpeedProfile.from_rationals(speeds)
    unit = LoadState.uniform(counts)
    weighted = LoadState.weighted([[1.0] * c for c in counts])
    alpha = 4 * sp.s_max * alpha_factor
    new_unit, unit_moves = step_round_totals(
        g, sp, unit, ProtocolParams(rng_seed=seed, alpha=alpha), r)
    new_weighted, weighted_moves = step_round_totals(
        g, sp, weighted, ProtocolParams(rng_seed=seed, alpha=alpha), r)
    assert np.array_equal(new_weighted.counts, new_unit.counts)
    assert weighted_moves == unit_moves


@settings(max_examples=40, deadline=None)
@given(instances(modes=("uniform",), max_count=2))
def test_exact_oracle_matches_enumeration(inst):
    g, sp, state = inst
    alpha = 4 * sp.s_max
    moments = node_change_moments(g, sp, state, ProtocolParams(rng_seed=0, alpha=alpha))
    assert exact_expected_psi0_drop(moments) == helpers.enum_expected_psi0_drop(
        g, list(sp.speeds), state.counts.tolist(), alpha)
    # Exact all the way, also below 4*s_max, where probabilities are clamped to 1.
    for a in (alpha, sp.s_max / 8):
        assert_exact_fractions(
            node_change_moments(g, sp, state, ProtocolParams(rng_seed=0, alpha=a)))


def assert_exact_fractions(moments):
    """Both drops, the variance sum and every per-node value are Fractions
    over Python ints, never numpy scalars or floats."""
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
@given(few_weighted_tasks())
@example((GRAPHS[0], SpeedProfile.from_rationals([1, Fraction(3, 2)]),
          LoadState.weighted([[1.0], [0.5]])))
def test_weighted_oracle_matches_enumeration(inst):
    # The enumeration reads the stored weights (the payload) as Fractions, and
    # the oracle is exact in both modes, so the two are equal on every state,
    # exact ties included (pinned: l_0 - l_1 = 1/s_1, no edge triggers, both 0).
    g, sp, state = inst
    tasks = state.to_payload()["tasks"]
    moments = node_change_moments(g, sp, state, ProtocolParams(rng_seed=0))
    drop, var_sum = helpers.enum_weighted_round(g, list(sp.speeds), tasks, 4 * sp.s_max)
    assert exact_expected_psi0_drop(moments) == drop
    assert exact_variance_sum(moments) == var_sum
    for a in (4 * sp.s_max, sp.s_max / 8):
        assert_exact_fractions(
            node_change_moments(g, sp, state, ProtocolParams(rng_seed=0, alpha=a)))


ORACLE_GRAPHS = (*GRAPHS, make_graph("complete", n=4))
ORACLE_SPEEDS = (1, Fraction(3, 2), 2, Fraction(5, 3), Fraction(7, 4))


@st.composite
def oracle_instances(draw, max_tasks=50):
    g = draw(st.sampled_from(ORACLE_GRAPHS))
    n = g.node_count
    sp = SpeedProfile.from_rationals(
        draw(st.lists(st.sampled_from(ORACLE_SPEEDS), min_size=n, max_size=n)))
    if draw(st.booleans()):
        counts = draw(st.lists(st.integers(0, max_tasks), min_size=n, max_size=n))
        return g, sp, LoadState.uniform(counts), [[1] * c for c in counts]
    state = LoadState.weighted(
        draw(st.lists(st.lists(weights, max_size=max_tasks), min_size=n, max_size=n)))
    return g, sp, state, state.to_payload()["tasks"]


def _full_nodes():
    # About 50 tasks on a node, which random draws rarely reach.
    g, sp = ORACLE_GRAPHS[3], SpeedProfile.from_rationals([1, Fraction(5, 3), 2, Fraction(7, 4)])
    lists = [[(k % 7 + 1) / 8 for k in range(50)], [0.375] * 3, [], [1.0, 0.0625]]
    state = LoadState.weighted(lists)
    return [(g, sp, LoadState.uniform([50, 3, 0, 2]), [[1] * c for c in (50, 3, 0, 2)]),
            (g, sp, state, state.to_payload()["tasks"])]


@settings(max_examples=150, deadline=None)
@given(oracle_instances())
@example(_full_nodes()[0])
@example(_full_nodes()[1])
def test_integer_moments_match_the_fraction_pass(inst):
    # helpers.fraction_moments runs the per-edge Fraction pass with its own
    # trigger test and d_ij, so the integer pass must equal it exactly, in
    # both modes: at the paper's alpha, at the exact-NE alpha, and far below
    # the alpha floor, where the clamp at p = 1 fires.
    g, sp, state, tasks = inst
    for alpha in (4 * sp.s_max, exact_ne_alpha(sp), sp.s_max / 8):
        moments = node_change_moments(g, sp, state, ProtocolParams(rng_seed=0, alpha=alpha))
        mu, var, drop0, drop1, var_sum = helpers.fraction_moments(
            g, list(sp.speeds), tasks, alpha)
        assert moments.mu == mu and moments.var == var
        assert exact_expected_psi0_drop(moments) == drop0
        assert exact_expected_psi1_drop(moments) == drop1
        assert exact_variance_sum(moments) == var_sum
