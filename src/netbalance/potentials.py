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
assemblers are functions of its result. It visits only the edges that
`protocol.triggers` marks, in the graph's edge-array order, and reads d_ij
from those arrays, so the oracles and the round agree on every edge by
construction. Exactness is set by the number type of the pass's inputs: unit
tasks give Python ints against Fraction speeds and alpha, so the oracles
return exact Fractions; weighted tasks give floats of their exact W_i, and
the same closed form runs in floating point over the exact trigger mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .graphs import GraphTopology
from .protocol import (
    WEIGHT_UNITS,
    LoadState,
    ProtocolParams,
    RoundKernel,
    resolve_alpha,
    triggers,
)
from .spectral import SpeedProfile, lambda2_of


@dataclass(frozen=True)
class PotentialSnapshot:
    """Potential values of a state; for a stack, every value is per row."""

    round: int
    phi0: float
    phi1: float
    psi0: float
    psi1: float
    l_delta: float


def psi0_value(sp: SpeedProfile, state: LoadState):
    """sum_i e_i^2 / s_i, the cancellation-stable route (per row for a stack)."""
    e = state.deviations(sp)
    psi0 = np.sum(e * e * sp.inv_floats, axis=-1)
    return psi0 if state.stacked else float(psi0)


def snapshot(g: GraphTopology, sp: SpeedProfile, state: LoadState,
             round_index: int | np.ndarray = 0) -> PotentialSnapshot:
    """All potential quantities of a state, with internal identity cross-checks.

    psi0 and psi1 are computed from the deviation vector (numerically stable
    near balance) and cross-checked against their shifted-phi definitions at
    1e-9 relative to the phi scale; a mismatch is an implementation bug. For
    a stack every value, and every check, is per row.
    """
    if state.n != g.node_count or sp.n != g.node_count:
        raise ConfigError("graph, speeds and state sizes do not match")
    inv = sp.inv_floats
    weights = state.node_weights()
    total = weights.sum(axis=-1)
    cap = float(sp.total_capacity)
    n = g.node_count

    phi0 = np.sum(weights * weights * inv, axis=-1)
    phi1 = np.sum(weights * (weights + 1.0) * inv, axis=-1)
    e = state.deviations(sp)
    psi0 = np.sum(e * e * inv, axis=-1)
    inv_har = float(1 / sp.harmonic_mean)
    inv_ari = float(1 / sp.arithmetic_mean)
    psi1 = np.sum((e + 0.5) ** 2 * inv, axis=-1) - n / 4.0 * inv_ari
    l_delta = np.max(np.abs(e) * inv, axis=-1)

    _cross_check("psi0", psi0, phi0 - total**2 / cap, scale=phi0)
    _cross_check(
        "psi1", psi1,
        phi1 - total**2 / cap - total * n / cap + n / 4.0 * (inv_har - inv_ari),
        scale=phi1,
    )
    values = (phi0, phi1, psi0, psi1, l_delta)
    if not state.stacked:
        values = tuple(map(float, values))
    return PotentialSnapshot(round_index, *values)


def _cross_check(name: str, direct, shifted, scale) -> None:
    bad = np.abs(direct - shifted) > 1e-9 * np.maximum(1.0, np.abs(scale))
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise RuntimeError(
            f"internal error: {name} routes disagree "
            f"({np.ravel(direct)[k]} vs {np.ravel(shifted)[k]})"
        )


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


class MomentInputs(NamedTuple):
    """What a moments pass reads that does not depend on alpha, per node
    (W_i, sum of w^2 on i, 1/s_i, e_i, l_i) and per triggered directed edge
    (i, j, d_ij, deg(i)), in the number type that sets the pass's exactness."""

    w: list
    sq: list
    inv: list
    deviations: list
    loads: list
    edges: list
    zero: Fraction | float


def moment_inputs(g: GraphTopology, sp: SpeedProfile, state: LoadState) -> MomentInputs:
    """The alpha-free inputs of `node_change_moments`, built once per state.

    Unit tasks give Python ints against Fraction speeds, so every later value
    is an exact Fraction. Weighted tasks give floats of the exact W_i (and a
    float sum of w^2, as int64 squares of units overflow from 512 tasks of
    weight 1 on a node); their triggered edges are exact too, and only their
    moments round. A state past the trigger's int64 guard is a ConfigError.
    """
    if state.tasks is None:
        w = state.counts.tolist()   # Python ints: no numpy scalar meets a Fraction
        sq = w
        inv = [1 / s for s in sp.speeds]
        share = Fraction(sum(w)) / sp.total_capacity
        e = [wi - share * s for wi, s in zip(w, sp.speeds)]
        zero = Fraction(0)
    else:
        w = state.node_weights().tolist()
        sq = state.tasks.sums(state.counts, (state.tasks.values / WEIGHT_UNITS) ** 2).tolist()
        inv = sp.inv_floats.tolist()
        e = state.deviations(sp).tolist()
        zero = 0.0
    ev = g.edge_arrays
    idx = np.flatnonzero(triggers(g, sp, state))
    src = ev.src[idx]
    edges = list(zip(src.tolist(), ev.dst[idx].tolist(), ev.dij[idx].tolist(),
                     ev.deg[src].tolist()))
    return MomentInputs(w, sq, inv, e, [wi * vi for wi, vi in zip(w, inv)], edges, zero)


def node_change_moments(g: GraphTopology, sp: SpeedProfile, state: LoadState,
                        params: ProtocolParams,
                        inputs: MomentInputs | None = None) -> NodeMoments:
    """Exact mean and variance of the net weight change per node, one round.

    One pass over the triggered directed edges (`protocol.triggers`) with the
    per-node inputs (W_i, sum of w^2 on i, 1/s_i) and alpha; their number
    type sets the exactness (`moment_inputs`). Passes over one state at
    several alphas can share its inputs.
    """
    if inputs is None:
        inputs = moment_inputs(g, sp, state)
    w, sq, inv, _, loads, _, zero = inputs
    alpha = resolve_alpha(params, sp) + zero   # typed like the inputs: a float for weighted tasks
    one = zero + 1   # typed: clamping to a bare int 1 would make q = 1 / deg_i a float
    n = g.node_count
    mu = [zero] * n
    var = [zero] * n
    out_q = [zero] * n
    for i, j, dij, deg_i in inputs.edges:
        p = (loads[i] - loads[j]) * deg_i / (alpha * dij * (inv[i] + inv[j]) * w[i])
        # Mirror the kernel's clamp of the migration probability at 1; p > 0 on
        # a triggered edge.
        p = min(p, one)
        q = p / deg_i   # per-task chance of ending on j; w[i] > 0 on triggered edges
        mu[i] -= w[i] * q
        mu[j] += w[i] * q
        var[j] += sq[i] * q * (1 - q)
        out_q[i] += q
    for i in range(n):
        var[i] += sq[i] * out_q[i] * (1 - out_q[i])
    return NodeMoments(mu, var, inputs.deviations, inv)


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
    kernel = RoundKernel(g, sp, params)
    trig = triggers(g, sp, state)
    flow = kernel.flows(state, trig)
    ev, inv = kernel.edges, kernel.inv
    idx = np.flatnonzero(trig)
    return float(np.sum(flow[idx] * (inv[ev.src[idx]] + inv[ev.dst[idx]])))


def drop_quadratic_bound(g: GraphTopology, sp: SpeedProfile, state: LoadState,
                         params: ProtocolParams) -> float:
    """sum over all edges of (1 - 2/alpha)*(l_i - l_j)^2 / (alpha*d_ij*(1/s_i+1/s_j)) - n/alpha."""
    alpha = float(resolve_alpha(params, sp))
    inv = sp.inv_floats
    loads = state.loads(sp)
    ev = g.edge_arrays
    up = ev.src < ev.dst    # each edge once, in `g.edges` order
    total = 0.0
    for u, v, dij in zip(ev.src[up].tolist(), ev.dst[up].tolist(), ev.dij[up].tolist()):
        gap = loads[u] - loads[v]
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


def gamma_factor(g: GraphTopology, sp: SpeedProfile, lam2: float | None = None) -> float:
    """gamma with 1/gamma = lambda2 / (32 * Delta * s_max^2).

    The weighted-task bound's extra 1/s_min factor is 1: speed profiles are
    normalized so that s_min = 1.
    """
    if lam2 is None:
        lam2 = lambda2_of(g)
    return 32.0 * g.max_degree * float(sp.s_max) ** 2 / lam2
