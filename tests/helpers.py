"""Independent oracles used by the test suite.

Everything here recomputes quantities from first principles (brute force,
enumeration, closed forms) without calling the package implementations it is
meant to check.
"""

import math
from fractions import Fraction
from itertools import combinations, product

import networkx as nx


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
    raise ValueError(family)


# ---------------------------------------------------------------------------
# Exact enumeration oracle for the one-round expected potential drop.
# Independent transcription of the protocol: per task, pick a neighbor
# uniformly; migrate with probability (deg(i)/d_ij) * gap / (alpha*(1/s_i+1/s_j)*W_i)
# when gap = l_i - l_j exceeds 1/s_j. Only usable for tiny uniform states.


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
                probs.append(p_accept / g.degrees[i])
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


def enum_expected_psi0_drop(g, speeds, counts, alpha):
    """Exact E[psi0 - psi0'] by enumerating every joint round outcome."""
    n = g.node_count
    total = sum(counts)
    cap = sum(speeds, Fraction(0))
    table = _per_task_probs(g, speeds, counts, alpha)
    per_node = [
        _multinomial_outcomes(counts[i], table[i]) for i in range(n)
    ]

    def psi0_of(cvec):
        return sum(
            (Fraction(cvec[i]) - Fraction(total) * speeds[i] / cap) ** 2 / speeds[i]
            for i in range(n)
        )

    before = psi0_of(counts)
    expected_after = Fraction(0)
    for joint in product(*per_node):
        prob = Fraction(1)
        new = list(counts)
        for i, (outcome, p) in enumerate(joint):
            prob *= p
            if prob == 0:
                break
            for k, moved in enumerate(outcome[:-1]):
                if moved:
                    j = g.neighbors[i][k]
                    new[i] -= moved
                    new[j] += moved
        if prob:
            expected_after += prob * psi0_of(new)
    return before - expected_after


# Exact enumeration oracle for one weighted round. Independent transcription:
# every task on node i independently picks a neighbor j uniformly and migrates
# with probability p_ij (the definition rule, or the printed rule
# (deg(i)/d_ij) * (W_i - W_j) / (2*alpha*W_i)) when l_i - l_j > 1/s_j, clamped
# to [0, 1]. Weights enter as exact Fractions; only usable for a few tasks.


def _weighted_task_choices(g, speeds, node_weights, alpha, printed):
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
                if printed:
                    p = d_ij * (node_weights[i] - node_weights[j]) / (2 * alpha * node_weights[i])
                else:
                    p = d_ij * gap / (alpha * (1 / speeds[i] + 1 / speeds[j]) * node_weights[i])
                p = min(max(p, Fraction(0)), Fraction(1))
            options.append((j, p / deg_i))
        options.append((i, 1 - sum(q for _, q in options)))
        table.append(options)
    return table


def enum_weighted_round(g, speeds, task_lists, alpha, printed=False):
    """Exact (E[psi0 - psi0'], sum_i Var[W_i'] / s_i) over every joint outcome."""
    n = g.node_count
    tasks = [(i, Fraction(w)) for i, node in enumerate(task_lists) for w in node]
    start = [sum((w for k, w in tasks if k == i), Fraction(0)) for i in range(n)]
    share = sum(start) / sum(speeds, Fraction(0))

    def psi0_of(wvec):
        return sum((wvec[i] - share * speeds[i]) ** 2 / speeds[i] for i in range(n))

    table = _weighted_task_choices(g, speeds, start, Fraction(alpha), printed)
    e_psi0 = Fraction(0)
    e_w = [Fraction(0)] * n
    e_w2 = [Fraction(0)] * n
    for outcome in product(*(table[i] for i, _ in tasks)):
        prob = Fraction(1)
        new = [Fraction(0)] * n
        for (dest, q), (_, w) in zip(outcome, tasks):
            prob *= q
            new[dest] += w
        if prob == 0:
            continue
        e_psi0 += prob * psi0_of(new)
        for i in range(n):
            e_w[i] += prob * new[i]
            e_w2[i] += prob * new[i] ** 2
    var_sum = sum((e_w2[i] - e_w[i] ** 2) / speeds[i] for i in range(n))
    return psi0_of(start) - e_psi0, var_sum


def random_rational_speeds(rng, n, max_num=6, max_den=4):
    """Random positive rationals p/q; the profile constructor normalizes."""
    return [
        Fraction(int(rng.integers(1, max_num + 1)), int(rng.integers(1, max_den + 1)))
        for _ in range(n)
    ]
