"""Independent oracles used by the test suite.

Everything here recomputes quantities from first principles (brute force,
enumeration, closed forms) without calling the package implementations it is
meant to check.
"""

import math
from fractions import Fraction
from itertools import combinations, product

import networkx as nx
import numpy as np
from scipy.stats import chi2


def to_networkx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.node_count))
    nxg.add_edges_from(g.edges)
    return nxg


def diameter_oracle(g):
    return nx.diameter(to_networkx(g))


def isoperimetric_oracle(g):
    """min |boundary(S)| / |S| over nonempty S with |S| <= n/2, via combinations."""
    n = g.node_count
    edges = list(g.edges)
    best = None
    for size in range(1, n // 2 + 1):
        for subset in combinations(range(n), size):
            inside = set(subset)
            boundary = sum(1 for u, v in edges if (u in inside) != (v in inside))
            ratio = Fraction(boundary, size)
            if best is None or ratio < best:
                best = ratio
    return best


def edge_index(g, i, j):
    """Position of directed edge (i, j) in per-edge arrays: by source node, then neighbor."""
    return sum(g.degrees[:i]) + g.neighbors[i].index(j)


def lambda2_closed_form(family, *, n=None, dim=None, rows=None, cols=None):
    """Second-smallest Laplacian eigenvalue from the known family spectra."""
    if family == "complete":
        return float(n)
    if family == "cycle":
        return min(2.0 - 2.0 * math.cos(2.0 * math.pi * k / n) for k in range(1, n))
    if family == "path":
        return 2.0 - 2.0 * math.cos(math.pi / n)
    if family == "hypercube":
        return 2.0
    if family == "torus2d":
        vals = sorted(
            (2 - 2 * math.cos(2 * math.pi * a / rows)) + (2 - 2 * math.cos(2 * math.pi * b / cols))
            for a in range(rows) for b in range(cols)
        )
        return float(vals[1])
    if family == "grid2d":
        vals = sorted(
            (2 - 2 * math.cos(math.pi * a / rows)) + (2 - 2 * math.cos(math.pi * b / cols))
            for a in range(rows) for b in range(cols)
        )
        return float(vals[1])
    raise ValueError(family)


# ---------------------------------------------------------------------------
# Exact enumeration of one round. Independent transcription of the protocol:
# per task, pick a neighbor uniformly; migrate with probability
# min(1, (deg(i)/d_ij) * gap / (alpha*(1/s_i+1/s_j)*W_i)) when gap = l_i - l_j
# exceeds 1/s_j. Tasks draw independently, so the law of the next state is a
# product of per-node multinomials (unit tasks) or of per-task categorical
# draws (weighted tasks). Only usable for tiny states.


def _per_task_probs(g, speeds, counts, alpha):
    """Per node: list of per-task probabilities [to each neighbor..., stay]."""
    n = g.node_count
    loads = [Fraction(counts[i]) / speeds[i] for i in range(n)]
    table = []
    for i in range(n):
        probs = []
        for j in g.neighbors[i]:
            gap = loads[i] - loads[j]
            if counts[i] > 0 and gap > Fraction(1) / speeds[j]:
                d_ij = max(g.degrees[i], g.degrees[j])
                p_accept = (Fraction(g.degrees[i], d_ij) * gap
                            / (alpha * (1 / speeds[i] + 1 / speeds[j]) * counts[i]))
                probs.append(min(p_accept, Fraction(1)) / g.degrees[i])
            else:
                probs.append(Fraction(0))
        probs.append(1 - sum(probs))
        table.append(probs)
    return table


def _multinomial_outcomes(w, probs):
    """All (counts, probability) outcomes of w iid categorical draws."""
    k = len(probs)

    def compositions(remaining, idx):
        if idx == k - 1:
            yield (remaining,)
            return
        for c in range(remaining + 1):
            for rest in compositions(remaining - c, idx + 1):
                yield (c,) + rest

    out = []
    for counts in compositions(w, 0):
        p = Fraction(math.factorial(w))
        for c, q in zip(counts, probs):
            if c and q == 0:
                p = Fraction(0)
                break
            p = p / math.factorial(c) * (q ** c)
        if p:
            out.append((counts, p))
    return out


def uniform_round_law(g, speeds, counts, alpha):
    """Exact law of the next count vector: {counts tuple: probability}."""
    table = _per_task_probs(g, speeds, counts, alpha)
    per_node = [_multinomial_outcomes(c, probs) for c, probs in zip(counts, table)]
    law = {}
    for joint in product(*per_node):
        prob = Fraction(1)
        new = list(counts)
        for i, (outcome, p) in enumerate(joint):
            prob *= p
            for j, moved in zip(g.neighbors[i], outcome):
                new[i] -= moved
                new[j] += moved
        key = tuple(new)
        law[key] = law.get(key, 0) + prob
    return law


def enum_expected_psi0_drop(g, speeds, counts, alpha):
    """Exact E[psi0 - psi0'] as a sum over the law of the next state."""
    n = g.node_count
    total = sum(counts)
    cap = sum(speeds, Fraction(0))

    def psi0_of(cvec):
        return sum(
            (Fraction(cvec[i]) - Fraction(total) * speeds[i] / cap) ** 2 / speeds[i]
            for i in range(n)
        )

    law = uniform_round_law(g, speeds, counts, alpha)
    return psi0_of(counts) - sum(p * psi0_of(new) for new, p in law.items())


# Weighted tasks (Algorithm 2) migrate by the same rule, with W_i the weight
# on node i. Weights enter as exact Fractions.


def _weighted_task_choices(g, speeds, node_weights, alpha):
    """Per node: [(destination, probability)...] of one task's categorical draw."""
    n = g.node_count
    loads = [node_weights[i] / speeds[i] for i in range(n)]
    table = []
    for i in range(n):
        deg_i = g.degrees[i]
        options = []
        for j in g.neighbors[i]:
            gap = loads[i] - loads[j]
            p = Fraction(0)
            if gap > 1 / speeds[j]:
                d_ij = Fraction(deg_i, max(deg_i, g.degrees[j]))
                p = d_ij * gap / (alpha * (1 / speeds[i] + 1 / speeds[j]) * node_weights[i])
                p = min(p, Fraction(1))
            options.append((j, p / deg_i))
        options.append((i, 1 - sum(q for _, q in options)))
        table.append(options)
    return table


def weighted_round_law(g, speeds, task_lists, alpha):
    """Exact law of the next state: {per-node sorted weight tuples: probability}."""
    n = g.node_count
    tasks = [(i, Fraction(w)) for i, node in enumerate(task_lists) for w in node]
    start = [sum((w for k, w in tasks if k == i), Fraction(0)) for i in range(n)]
    table = _weighted_task_choices(g, speeds, start, Fraction(alpha))
    law = {}
    for outcome in product(*(table[i] for i, _ in tasks)):
        prob = Fraction(1)
        new = [[] for _ in range(n)]
        for (dest, q), (_, w) in zip(outcome, tasks):
            prob *= q
            new[dest].append(w)
        if prob:
            key = tuple(tuple(sorted(node)) for node in new)
            law[key] = law.get(key, 0) + prob
    return law


def enum_weighted_round(g, speeds, task_lists, alpha):
    """Exact (E[psi0 - psi0'], sum_i Var[W_i'] / s_i) as sums over the law."""
    n = g.node_count
    start = [sum(map(Fraction, node), Fraction(0)) for node in task_lists]
    share = sum(start) / sum(speeds, Fraction(0))

    def psi0_of(wvec):
        return sum((wvec[i] - share * speeds[i]) ** 2 / speeds[i] for i in range(n))

    e_psi0 = Fraction(0)
    e_w = [Fraction(0)] * n
    e_w2 = [Fraction(0)] * n
    for nodes, prob in weighted_round_law(g, speeds, task_lists, alpha).items():
        new = [sum(node, Fraction(0)) for node in nodes]
        e_psi0 += prob * psi0_of(new)
        for i in range(n):
            e_w[i] += prob * new[i]
            e_w2[i] += prob * new[i] ** 2
    var_sum = sum((e_w2[i] - e_w[i] ** 2) / speeds[i] for i in range(n))
    return psi0_of(start) - e_psi0, var_sum


def fraction_moments(g, speeds, task_lists, alpha):
    """(mu, var, E[psi0 drop], E[psi1 drop], sum_i Var[W_i']/s_i) of one round,
    by the per-edge Fraction pass: for every directed edge with
    l_i - l_j > 1/s_j, p = deg_i * (l_i - l_j) / (alpha*d_ij*(1/s_i + 1/s_j)*W_i),
    clamped at 1, and q = p/deg_i adds W_i*q to mu_j, takes it from mu_i and
    adds (sum of w^2 on i)*q*(1 - q) to var_j; then every node adds
    (sum of w^2)*Q_i*(1 - Q_i), Q_i its summed q. task_lists holds each
    node's weights (1 per unit task), read exactly as Fractions.
    """
    n = g.node_count
    alpha = Fraction(alpha)
    w = [sum(map(Fraction, node), Fraction(0)) for node in task_lists]
    sq = [sum((Fraction(x) ** 2 for x in node), Fraction(0)) for node in task_lists]
    inv = [1 / s for s in speeds]
    share = sum(w) / sum(speeds, Fraction(0))
    e = [wi - share * s for wi, s in zip(w, speeds)]
    loads = [wi * vi for wi, vi in zip(w, inv)]
    mu = [Fraction(0)] * n
    var = [Fraction(0)] * n
    out_q = [Fraction(0)] * n
    for i in range(n):
        deg_i = g.degrees[i]
        for j in g.neighbors[i]:
            if loads[i] - loads[j] <= inv[j]:
                continue
            dij = max(deg_i, g.degrees[j])
            p = (loads[i] - loads[j]) * deg_i / (alpha * dij * (inv[i] + inv[j]) * w[i])
            q = min(p, Fraction(1)) / deg_i
            mu[i] -= w[i] * q
            mu[j] += w[i] * q
            var[j] += sq[i] * q * (1 - q)
            out_q[i] += q
    for i in range(n):
        var[i] += sq[i] * out_q[i] * (1 - out_q[i])
    drop0 = -sum(((2 * ek * mk + mk * mk + vk) * ik
                  for mk, vk, ek, ik in zip(mu, var, e, inv)), Fraction(0))
    drop1 = drop0 - sum((mk * ik for mk, ik in zip(mu, inv)), Fraction(0))
    var_sum = sum((vk * ik for vk, ik in zip(var, inv)), Fraction(0))
    return mu, var, drop0, drop1, var_sum


def g_test_pvalue(observed, law: dict, draws: int) -> tuple[float, int]:
    """(p-value, degrees of freedom) of the G-test of observed counts against law.

    Cells with expected count below 5 are merged into one (folded into the
    smallest other cell if still below 5); the statistic is referred to
    chi-square with cells - 1 degrees of freedom.
    """
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


# ---------------------------------------------------------------------------
# Exact law of whole trials on tiny unit-task instances. The protocol is a
# Markov chain on the count vectors with a fixed task total; states where a
# trial stops are made absorbing, and the hitting time's law follows from
# powers of the transitions among the others (Kemeny and Snell, "Finite
# Markov Chains"). Stop decisions are exact; the transition probabilities are
# exact Fractions, powered in floating point.


def count_vectors(n, m):
    """Every placement of m unit tasks on n nodes, as count tuples."""
    if n == 1:
        return [(m,)]
    return [(c,) + rest for c in range(m, -1, -1) for rest in count_vectors(n - 1, m - c)]


def exact_equilibrium(g, speeds, counts):
    """No directed edge has l_i - l_j > 1/s_j, decided in Fractions."""
    loads = [Fraction(c) / s for c, s in zip(counts, speeds)]
    return all(loads[i] - loads[j] <= 1 / speeds[j] for i, j in g.directed_edges())


def exact_psi0(speeds, counts):
    share = Fraction(sum(counts)) / sum(speeds, Fraction(0))
    return sum((c - share * s) ** 2 / s for c, s in zip(counts, speeds))


def hitting_time_law(g, speeds, start, alpha, stops, cap):
    """Law of the first round whose state satisfies `stops`, from `start`.

    Returns ([P(T = 0), ..., P(T = cap), P(T > cap)], E[T]); E[T] comes from
    the fundamental matrix (I - Q)^-1 and ignores the cap.
    """
    states = [s for s in count_vectors(g.node_count, sum(start)) if not stops(s)]
    if tuple(start) not in states:
        return [1.0] + [0.0] * cap + [0.0], 0.0
    index = {s: k for k, s in enumerate(states)}
    q = np.zeros((len(states), len(states)))
    for s, k in index.items():
        for new, p in uniform_round_law(g, speeds, list(s), alpha).items():
            if new in index:
                q[k, index[new]] += float(p)
    alive = np.zeros(len(states))
    alive[index[tuple(start)]] = 1.0
    law = [0.0]
    for _ in range(cap):
        before = alive.sum()
        alive = alive @ q
        law.append(before - alive.sum())
    law.append(alive.sum())
    expected = np.linalg.solve(np.eye(len(states)) - q, np.ones(len(states)))
    return law, float(expected[index[tuple(start)]])


def random_rational_speeds(rng, n, max_num=6, max_den=4):
    """Random positive rationals p/q; the profile constructor normalizes."""
    return [
        Fraction(int(rng.integers(1, max_num + 1)), int(rng.integers(1, max_den + 1)))
        for _ in range(n)
    ]
