"""The whole one-round law of the step function against exact enumeration.

Each of the 13 cases fixes a tiny state (K2, P3 or C4; speeds 1,2 or 1,3/2
repeated along the nodes; at most 8 unit tasks, or 6 weighted tasks under
Algorithm 2's one migration rule, labelled "definition") and draws ROUNDS
rounds of it from `step_round_totals` in two ways: one round at a time under
round indices 0..ROUNDS-1 (`test_one_round_law`), and all at once as the
ROUNDS rows of one stack stepped in one call (`test_one_round_law_stacked`).
The histogram of next states is compared with the exact law from `helpers`
by a G-test (`helpers.g_test_pvalue`).

Every test runs at level FAMILY_LEVEL / len(CASES) = 1e-4/13 (Bonferroni), so
each of the two routes fails on a correct kernel with probability at most
1e-4, and the gate as a whole with probability at most 2e-4, up to the
chi-square approximation of the G statistic. In the P3 and C4 states two
nodes send tasks (all but the weighted P3 state at speeds 1,3/2), so the
joint law also checks that moves at different nodes, which draw from one
stream, are independent. The stacked route draws every row from one stream,
so it checks that rows are identically distributed;
`test_rows_of_one_round_are_independent` checks that neighbouring rows are
independent. alpha is s_max, a quarter of the protocol's floor, so tasks move
often and the law has many cells.
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from netbalance.graphs import make_graph
from netbalance.protocol import LoadState, ProtocolParams, step_round_totals
from netbalance.spectral import SpeedProfile

import helpers

ROUNDS = 2000
FAMILY_LEVEL = 1e-4
SEED = 20110929

# (graph, unit-task counts, weighted task lists); weights are dyadic, so
# float sums and loads equal the exact ones.
STATES = (
    (make_graph("complete", n=2), (6, 2), [[0.75, 0.5, 0.25], [0.5]]),
    (make_graph("path", n=3), (4, 3, 0), [[1.0, 0.75], [1.0, 0.75, 0.5], []]),
    (make_graph("cycle", n=4), (5, 0, 3, 0), [[1.0, 0.75, 0.5], [], [1.0, 0.25], []]),
)
CASES = [
    (g, pattern, tasks, rule)
    for g, counts, lists in STATES
    for pattern in ((1, 2), (1, Fraction(3, 2)))
    for tasks, rule in ((counts, None), (lists, "definition"))
]
# Which tasks leave: six distinct weights on one node whose two neighbors are
# both lighter, so movers split over two edges and task draws often repeat.
MOVERS_CASE = (make_graph("cycle", n=4), (1, 2),
               [[1.0, 0.875, 0.75, 0.5, 0.25, 0.125], [], [], []], "definition")
CASES.append(MOVERS_CASE)


def _case_id(case):
    g, pattern, _, rule = case
    suffix = "-movers" if case is MOVERS_CASE else ""
    return f"n{g.node_count}-speeds{'_'.join(map(str, pattern))}-{rule or 'unit'}{suffix}"


def _instance(case):
    """(speeds, state, params, exact law, outcome of a next state)."""
    g, pattern, tasks, rule = case
    sp = SpeedProfile.from_rationals([pattern[i % 2] for i in range(g.node_count)])
    alpha = sp.s_max
    if rule is None:
        state = LoadState.uniform(tasks)
        params = ProtocolParams(rng_seed=SEED, alpha=alpha)
        law = helpers.uniform_round_law(g, list(sp.speeds), list(tasks), alpha)

        def outcome(new):
            return tuple(new.counts.tolist())
    else:
        state = LoadState.weighted(tasks)
        params = ProtocolParams(rng_seed=SEED, alpha=alpha)
        law = helpers.weighted_round_law(g, list(sp.speeds), tasks, alpha)

        def outcome(new):
            return tuple(tuple(sorted(map(Fraction, node)))
                         for node in new.to_payload()["tasks"])
    return sp, state, params, law, outcome


def _check_law(law, outcome, nexts):
    assert sum(law.values()) == 1
    observed = Counter(map(outcome, nexts))
    impossible = set(observed) - set(law)
    assert not impossible, f"outcomes outside the law's support: {impossible}"
    pvalue, df = helpers.g_test_pvalue(observed, law, ROUNDS)
    assert df >= 1
    assert pvalue > FAMILY_LEVEL / len(CASES), (pvalue, df)


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_one_round_law(case):
    g = case[0]
    sp, state, params, law, outcome = _instance(case)
    _check_law(law, outcome,
               [step_round_totals(g, sp, state, params, r)[0] for r in range(ROUNDS)])


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_one_round_law_stacked(case):
    g = case[0]
    sp, state, params, law, outcome = _instance(case)
    stack = LoadState.stack([state] * ROUNDS)
    _check_law(law, outcome, step_round_totals(g, sp, stack, params, 0)[0].rows())


PAIR_ROWS = 4000
PAIR_CASES = [c for c in CASES if c[0].node_count == 2 and c[1] == (1, 2)]


@pytest.mark.parametrize("case", PAIR_CASES, ids=[_case_id(c) for c in PAIR_CASES])
def test_rows_of_one_round_are_independent(case):
    # On K2 a row's next state is fixed by the task count left on node 0.
    # Rows 2k and 2k+1 of one stacked round draw one after the other from
    # the same stream; a G-test of independence on the two-way table of
    # their counts (outer 5% of the values folded into the nearest kept
    # one) runs at level FAMILY_LEVEL / len(PAIR_CASES).
    g = case[0]
    sp, state, params, _, _ = _instance(case)
    new, _ = step_round_totals(g, sp, LoadState.stack([state] * PAIR_ROWS), params, 0)
    left = new.counts[:, 0]
    lo, hi = np.percentile(left, [5, 95])
    cells = np.clip(left, lo, hi).astype(np.int64) - int(lo)
    pairs = cells.reshape(-1, 2)
    table = np.zeros((cells.max() + 1,) * 2)
    np.add.at(table, (pairs[:, 0], pairs[:, 1]), 1)
    assert table.shape[0] >= 3
    _, pvalue, _, expected = chi2_contingency(table, lambda_="log-likelihood")
    assert expected.min() >= 5
    assert pvalue > FAMILY_LEVEL / len(PAIR_CASES), pvalue
