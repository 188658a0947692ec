"""The whole one-round law of the step function against exact enumeration.

Each case fixes a tiny state (K2, P3 or C4; speeds 1,2 or 1,3/2 repeated
along the nodes; at most 8 unit tasks or 6 weighted tasks, both weighted
rules) and draws ROUNDS rounds from `step_round_totals` under round indices
0..ROUNDS-1. The histogram of next states is compared with the exact law
from `helpers` by a G-test: cells with expected count below 5 are merged
into one (folded into the smallest other cell if still below 5), and the
statistic is referred to chi-square with cells - 1 degrees of freedom.

Every case runs at level 1e-4 / len(CASES) (Bonferroni), so the gate as a
whole fails on a correct kernel with probability at most 1e-4, up to the
chi-square approximation of the G statistic. In the P3 and C4 states two
nodes send tasks (all but the weighted P3 state at speeds 1,3/2), so the
joint law also checks that moves at different nodes, which draw from one
stream, are independent. alpha is s_max, a quarter of the protocol's floor,
so tasks move often and the law has many cells.
"""

import math
from collections import Counter
from fractions import Fraction

import pytest
from scipy.stats import chi2

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
    for tasks, rule in ((counts, None), (lists, "definition"), (lists, "printed"))
]
# Which tasks leave: six distinct weights on one node whose two neighbors are
# both lighter, so movers split over two edges and task draws often repeat.
MOVERS_CASE = (make_graph("cycle", n=4), (1, 2),
               [[1.0, 0.875, 0.75, 0.5, 0.25, 0.125], [], [], []], "definition")
CASES.append(MOVERS_CASE)


def g_test_pvalue(observed: Counter, law: dict, draws: int) -> tuple[float, int]:
    """(p-value, degrees of freedom) of the G-test of observed against law."""
    cells = sorted(law, key=law.__getitem__, reverse=True)
    expected = [draws * float(law[c]) for c in cells]
    counts = [observed[c] for c in cells]
    big = [k for k, e in enumerate(expected) if e >= 5]
    small = [k for k, e in enumerate(expected) if e < 5]
    exp = [expected[k] for k in big]
    obs = [counts[k] for k in big]
    if small:
        exp.append(sum(expected[k] for k in small))
        obs.append(sum(counts[k] for k in small))
        if exp[-1] < 5 and len(exp) > 1:
            tail_e, tail_o = exp.pop(), obs.pop()
            exp[-1] += tail_e
            obs[-1] += tail_o
    stat = 2.0 * sum(o * math.log(o / e) for o, e in zip(obs, exp) if o)
    df = len(exp) - 1
    return float(chi2.sf(stat, df)), df


def _case_id(case):
    g, pattern, _, rule = case
    suffix = "-movers" if case is MOVERS_CASE else ""
    return f"n{g.node_count}-speeds{'_'.join(map(str, pattern))}-{rule or 'unit'}{suffix}"


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_one_round_law(case):
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
        params = ProtocolParams(rng_seed=SEED, alpha=alpha,
                                printed_weighted_rule=rule == "printed")
        law = helpers.weighted_round_law(g, list(sp.speeds), tasks, alpha,
                                         rule == "printed")

        def outcome(new):
            return tuple(tuple(sorted(map(Fraction, node)))
                         for node in new.to_payload()["tasks"])
    assert sum(law.values()) == 1
    observed = Counter(outcome(step_round_totals(g, sp, state, params, r)[0])
                       for r in range(ROUNDS))
    impossible = set(observed) - set(law)
    assert not impossible, f"outcomes outside the law's support: {impossible}"
    pvalue, df = g_test_pvalue(observed, law, ROUNDS)
    assert df >= 1
    assert pvalue > FAMILY_LEVEL / len(CASES), (pvalue, df)
