"""Potential functions of load states and exact expected-drop oracles.

Notation: W_i is the task weight on node i, e_i = W_i - (W/S)*s_i the
deviation from perfect balance, and

    phi_r   = sum_i W_i (W_i + r) / s_i          (r = 0, 1)
    psi0    = phi0 - W^2/S = sum_i e_i^2 / s_i
    psi1    = phi1 - W^2/S - W*n/S + (n/4) * (1/harmonic - 1/arithmetic)
    l_delta = max_i |e_i / s_i|

The expected one-round drop of these potentials has a closed form because
tasks act independently given the round-start state: the net weight change at
node k decomposes into per-task Bernoulli contributions, so its mean mu_k and
variance var_k are exact, and

    E[drop psi0] = -sum_k (2 e_k mu_k + mu_k^2 + var_k) / s_k
    E[drop psi1] = E[drop psi0] - sum_k mu_k / s_k.

One moments pass (`node_change_moments`) serves both task modes; the drop
assemblers are functions of its result. Exactness is set by the number type
of the pass's inputs: unit tasks give Python ints against Fraction speeds and
alpha, so the oracles return exact Fractions; weighted tasks give floats, and
the same closed form runs in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .graphs import GraphTopology
from .protocol import (
    LoadState,
    ProtocolParams,
    _edge_view,
    _flow_array,
    check_variant,
    expected_flow,
    resolve_alpha,
)
from .spectral import SpeedProfile, lambda2_of


@dataclass(frozen=True)
class PotentialSnapshot:
    round: int
    phi0: float
    phi1: float
    psi0: float
    psi1: float
    l_delta: float


def psi0_value(sp: SpeedProfile, state: LoadState) -> float:
    """sum_i e_i^2 / s_i, the cancellation-stable route."""
    e = state.deviations(sp)
    return float(np.sum(e * e * sp.inv_floats))


def snapshot(g: GraphTopology, sp: SpeedProfile, state: LoadState,
             round_index: int = 0) -> PotentialSnapshot:
    """All potential quantities of a state, with internal identity cross-checks.

    psi0 and psi1 are computed from the deviation vector (numerically stable
    near balance) and cross-checked against their shifted-phi definitions at
    1e-9 relative to the phi scale; a mismatch is an implementation bug.
    """
    if state.n != g.node_count or sp.n != g.node_count:
        raise ConfigError("graph, speeds and state sizes do not match")
    inv = sp.inv_floats
    weights = state.node_weights()
    total = float(weights.sum())
    cap = float(sp.total_capacity)
    n = g.node_count

    phi0 = float(np.sum(weights * weights * inv))
    phi1 = float(np.sum(weights * (weights + 1.0) * inv))
    e = state.deviations(sp)
    psi0 = float(np.sum(e * e * inv))
    inv_har = float(1 / sp.harmonic_mean)
    inv_ari = float(1 / sp.arithmetic_mean)
    psi1 = float(np.sum((e + 0.5) ** 2 * inv)) - n / 4.0 * inv_ari
    l_delta = float(np.max(np.abs(e) * inv)) if n else 0.0

    _cross_check("psi0", psi0, phi0 - total**2 / cap, scale=phi0)
    _cross_check(
        "psi1", psi1,
        phi1 - total**2 / cap - total * n / cap + n / 4.0 * (inv_har - inv_ari),
        scale=phi1,
    )
    return PotentialSnapshot(round=round_index, phi0=phi0, phi1=phi1,
                             psi0=psi0, psi1=psi1, l_delta=l_delta)


def _cross_check(name: str, direct: float, shifted: float, scale: float) -> None:
    if abs(direct - shifted) > 1e-9 * max(1.0, abs(scale)):
        raise RuntimeError(
            f"internal error: {name} routes disagree ({direct} vs {shifted})"
        )


def lambda_term(g: GraphTopology, sp: SpeedProfile, state: LoadState,
                params: ProtocolParams, i: int, j: int, r: int) -> float:
    """(2*alpha - 2) * d_ij * (1/s_i + 1/s_j) * f_ij + r/s_i - r/s_j.

    On non-Nash edges this equals (2 - 2/alpha)*(l_i - l_j) + r/s_i - r/s_j.
    """
    if r not in (0, 1):
        raise ConfigError(f"r must be 0 or 1, got {r}")
    alpha = float(resolve_alpha(params, sp))
    f = expected_flow(g, sp, state, params, i, j)
    dij = max(g.degrees[i], g.degrees[j])
    inv = sp.inv_floats
    return (2.0 * alpha - 2.0) * dij * (inv[i] + inv[j]) * f + r * inv[i] - r * inv[j]


# ---------------------------------------------------------------------------
# Exact per-node moments of the one-round weight change


class NodeMoments(NamedTuple):
    """Mean mu and variance var of each node's one-round weight change.

    deviations (e_i) and inv (1/s_i) are carried in the same number type, so
    the drop assemblers below combine them without knowing the task mode.
    """

    mu: list
    var: list
    deviations: list
    inv: list


def node_change_moments(g: GraphTopology, sp: SpeedProfile, state: LoadState,
                        params: ProtocolParams) -> NodeMoments:
    """Exact mean and variance of the net weight change per node, one round.

    One pass over the per-node inputs (W_i, sum of w^2 on i, 1/s_i, alpha);
    their number type sets the exactness. Unit tasks feed Python ints against
    Fraction speeds and alpha, so every value is an exact Fraction. Weighted
    tasks feed floats, and loads are the products W_i * (1/s_i) that the
    round kernel compares, so both trigger on the same edges.
    """
    check_variant(state, params)
    alpha = resolve_alpha(params, sp)
    if state.weights is None:
        w = state.counts.tolist()   # Python ints: no numpy scalar meets a Fraction
        sq = w
        inv = [1 / s for s in sp.speeds]
        share = Fraction(sum(w)) / sp.total_capacity
        e = [wi - share * s for wi, s in zip(w, sp.speeds)]
        zero = Fraction(0)
    else:
        w = state.node_weights().tolist()
        sq = np.bincount(state.owner, weights=state.weights * state.weights,
                         minlength=state.n).tolist()
        inv = sp.inv_floats.tolist()
        e = state.deviations(sp).tolist()
        alpha = float(alpha)
        zero = 0.0
    one = zero + 1   # typed: clamping to a bare int 1 would make q = 1 / deg_i a float
    loads = [wi * vi for wi, vi in zip(w, inv)]
    n = g.node_count
    mu = [zero] * n
    var = [zero] * n
    out_q = [zero] * n
    for i in range(n):
        deg_i = g.degrees[i]
        for j in g.neighbors[i]:
            gap = loads[i] - loads[j]
            if gap <= inv[j]:
                continue
            dij = max(deg_i, g.degrees[j])
            if params.printed_weighted_rule:
                p = (w[i] - w[j]) * deg_i / (2 * alpha * dij * w[i])
            else:
                p = gap * deg_i / (alpha * dij * (inv[i] + inv[j]) * w[i])
            # Mirror the kernel's clamp of the migration probability to [0, 1].
            p = min(max(p, zero), one)
            q = p / deg_i   # per-task chance of ending on j; w[i] > 0 on triggered edges
            mu[i] -= w[i] * q
            mu[j] += w[i] * q
            var[j] += sq[i] * q * (1 - q)
            out_q[i] += q
    for i in range(n):
        var[i] += sq[i] * out_q[i] * (1 - out_q[i])
    return NodeMoments(mu, var, e, inv)


def exact_expected_psi0_drop(m: NodeMoments):
    """E[psi0(x) - psi0(X')] = -sum_k (2 e_k mu_k + mu_k^2 + var_k) / s_k."""
    return -sum((2 * e * mu + mu * mu + v) * i
                for mu, v, e, i in zip(m.mu, m.var, m.deviations, m.inv))


def exact_expected_psi1_drop(m: NodeMoments):
    """E[psi1 drop] = E[psi0 drop] - sum_k mu_k / s_k (psi1 and phi1 drops coincide)."""
    return exact_expected_psi0_drop(m) - sum(mu * i for mu, i in zip(m.mu, m.inv))


def exact_variance_sum(m: NodeMoments):
    """sum_i Var[W_i'] / s_i."""
    return sum(v * i for v, i in zip(m.var, m.inv))


def phi1_drop_routes(m: NodeMoments, sp: SpeedProfile, state: LoadState):
    """(drop via phi1 assembly, drop via psi1 assembly): equal by flow conservation.

    Both routes run in floats on the state's float weights, deviations and
    inverse speeds, so their difference measures float cancellation only.
    """
    mu = np.array(m.mu, dtype=float)
    var = np.array(m.var, dtype=float)
    weights = state.node_weights()
    e = state.deviations(sp)
    inv = sp.inv_floats
    via_phi1 = float(np.sum(-(2.0 * weights * mu + mu**2 + var + mu) * inv))
    via_psi1 = float(np.sum(-(2.0 * e * mu + mu**2 + var + mu) * inv))
    return via_phi1, via_psi1


# ---------------------------------------------------------------------------
# Lemma right-hand sides


def variance_bound(g: GraphTopology, sp: SpeedProfile, state: LoadState,
                   params: ProtocolParams) -> float:
    """sum over non-Nash directed edges of f_ij * (1/s_i + 1/s_j)."""
    ev = _edge_view(g)
    flow, trig = _flow_array(g, sp, state, params)
    inv = sp.inv_floats
    idx = np.flatnonzero(trig)
    return float(np.sum(flow[idx] * (inv[ev.src[idx]] + inv[ev.dst[idx]])))


def drop_quadratic_bound(g: GraphTopology, sp: SpeedProfile, state: LoadState,
                         params: ProtocolParams) -> float:
    """sum over all edges of (1 - 2/alpha)*(l_i - l_j)^2 / (alpha*d_ij*(1/s_i+1/s_j)) - n/alpha."""
    alpha = float(resolve_alpha(params, sp))
    inv = sp.inv_floats
    loads = state.loads(sp)
    total = 0.0
    for u, v in g.edges:
        gap = loads[u] - loads[v]
        dij = max(g.degrees[u], g.degrees[v])
        total += (1.0 - 2.0 / alpha) * gap * gap / (alpha * dij * (inv[u] + inv[v]))
    return total - g.node_count / alpha


def psi0_lambda2_bound(g: GraphTopology, sp: SpeedProfile, state: LoadState,
                       lam2: float | None = None) -> float:
    """lambda2/(16*Delta) * psi0 / s_max^2 - n/(4*s_max); valid at alpha = 4*s_max."""
    if lam2 is None:
        lam2 = lambda2_of(g)
    s_max = float(sp.s_max)
    return (lam2 / (16.0 * g.max_degree) / s_max**2 * psi0_value(sp, state)
            - g.node_count / (4.0 * s_max))


def psi1_drop_floor(g: GraphTopology, sp: SpeedProfile) -> float:
    """eps^2 / (8 * Delta * s_max^3): the guaranteed psi1 drop off equilibrium."""
    eps = float(sp.granularity)
    return eps * eps / (8.0 * g.max_degree * float(sp.s_max) ** 3)


def critical_value(g: GraphTopology, sp: SpeedProfile, lam2: float | None = None,
                   constant: int = 8) -> float:
    """psi_c = constant * n * Delta * s_max / lambda2 (definitional 8; Theorem-style 16)."""
    if constant not in (8, 16):
        raise ConfigError(f"psi_c constant must be 8 or 16, got {constant}")
    if lam2 is None:
        lam2 = lambda2_of(g)
    return constant * g.node_count * g.max_degree * float(sp.s_max) / lam2


def gamma_factor(g: GraphTopology, sp: SpeedProfile, lam2: float | None = None,
                 weighted: bool = False) -> float:
    """gamma with 1/gamma = lambda2 / (32 * Delta * s_max^2).

    The weighted-task variant carries an extra 1/s_min factor (identity 1 for
    normalized profiles, kept for formula fidelity).
    """
    if lam2 is None:
        lam2 = lambda2_of(g)
    gam = 32.0 * g.max_degree * float(sp.s_max) ** 2 / lam2
    if weighted:
        gam /= float(sp.s_min)
    return gam
