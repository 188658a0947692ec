"""The hitting-time law of whole trials against an exact absorbing Markov chain.

On K2, P3 and C4 with m = 8 unit tasks, all on node 0 at the start, the
protocol is a Markov chain on the 9, 45 and 165 count vectors. Its
transitions come from `helpers.uniform_round_law`; the states where a trial
stops (exact equilibria, or psi0 at or below the threshold, both decided in
Fractions) are absorbing, and `helpers.hitting_time_law` powers the other
states' transitions to get P(T = t) for every t up to the round cap, and
P(T > cap) for truncated trials.

Each case runs TRIALS trials through `measure_convergence` and G-tests the
histogram of hitting rounds, with truncated trials as one more cell, against
that law (cells with expected count below 5 merged, as in
`test_round_law.py`). Every case runs at level FAMILY_LEVEL / len(CASES)
(Bonferroni), so the gate fails on a correct engine with probability at most
1e-4, up to the chi-square approximation. Exact E[T] values at
`exact_ne_alpha` are checked against independently computed anchors.
"""

from collections import Counter
from fractions import Fraction

import pytest

from netbalance.analysis import StopRule, measure_convergence
from netbalance.graphs import make_graph
from netbalance.protocol import LoadState, ProtocolParams, default_alpha, exact_ne_alpha
from netbalance.spectral import SpeedProfile

import helpers

TRIALS = 2000
FAMILY_LEVEL = 1e-4
SEED = 20111011
TASKS = 8

K2 = make_graph("complete", n=2)
P3 = make_graph("path", n=3)
C4 = make_graph("cycle", n=4)
C4_SPEEDS = (1, Fraction(3, 2), 1, Fraction(3, 2))

# (id, graph, speeds, stop, psi threshold, round cap, exact E[T] anchor).
# psi thresholds lie halfway between two neighbouring exact psi0 values of
# the instance, so float psi0 cannot land on the other side of them.
CASES = [
    ("K2-exact-ne", K2, (1, 2), "exact-ne", None, 400, 14.83),
    ("P3-exact-ne", P3, (1, 2, 1), "exact-ne", None, 1500, 71.62),
    ("C4-exact-ne", C4, C4_SPEEDS, "exact-ne", None, 1000, 41.54),
    ("C4-exact-ne-truncated", C4, C4_SPEEDS, "exact-ne", None, 30, None),
    ("P3-psi-threshold", P3, (1, 2, 1), "psi-threshold", 4.75, 400, None),
    ("C4-psi-threshold", C4, C4_SPEEDS, "psi-threshold", 3.3666666666666667, 400, None),
    ("C4-psi-threshold-truncated", C4, C4_SPEEDS, "psi-threshold", 3.3666666666666667, 12,
     None),
]


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_hitting_time_law(case):
    name, g, pattern, kind, threshold, cap, anchor = case
    sp = SpeedProfile.from_rationals(pattern)
    speeds = list(sp.speeds)
    start = (TASKS,) + (0,) * (g.node_count - 1)
    if kind == "exact-ne":
        alpha = exact_ne_alpha(sp)

        def stops(counts):
            return helpers.exact_equilibrium(g, speeds, counts)
    else:
        alpha = default_alpha(sp)

        def stops(counts):
            return helpers.exact_psi0(speeds, counts) <= Fraction(threshold)
    law, mean = helpers.hitting_time_law(g, speeds, start, alpha, stops, cap)
    if anchor is not None:
        assert abs(mean - anchor) < 0.01, mean

    stop = StopRule(kind)
    summary = measure_convergence(
        g, sp, LoadState.uniform(start), ProtocolParams(rng_seed=SEED, alpha=alpha),
        stop, trials=TRIALS, round_cap=cap, psi_threshold=threshold)
    truncated = "truncated"
    observed = Counter(truncated if r.truncated else
                       (r.rounds_to_exact_ne if kind == "exact-ne" else
                        r.rounds_to_psi_threshold)
                       for r in summary.results)
    cells = {t: p for t, p in enumerate(law[:-1]) if p > 0}
    cells[truncated] = law[-1]
    impossible = set(observed) - {c for c, p in cells.items() if p > 0}
    assert not impossible, f"hitting rounds outside the law's support: {impossible}"
    if cap < 50:
        assert observed[truncated] > 0, "the cap should truncate some trials"
    pvalue, df = helpers.g_test_pvalue(observed, cells, TRIALS)
    assert df >= 1
    assert pvalue > FAMILY_LEVEL / len(CASES), (pvalue, df)
