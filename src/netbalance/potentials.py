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
construction. Both modes are exact and share one number type: with weights
in integer units (1/Q each, Q = 1 for unit tasks), s_i = n_i*eps and
alpha = a/b, every mean and variance is a Python int over one common
denominator per pass, and each assembler divides once, returning one
Fraction. No Fraction arithmetic runs per edge or per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .graphs import GraphTopology
from .protocol import (
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


class MomentInputs(NamedTuple):
    """What a moments pass reads that does not depend on alpha, as Python ints.

    With s_i = n_i*eps (`SpeedProfile.multipliers`), N = lcm(n), W_i = w_i/Q
    (w_i from `LoadState.node_units`, Q the `quantum`), M = sum(n) and
    W = sum(w):

    - w: w_i; deviations: M*w_i - W*n_i, so e_i = deviations[i] / dev_den
      with dev_den = M*Q; inv: N/n_i, so 1/s_i = inv[i] * inv_unit with
      inv_unit = 1/(N*eps), the one Fraction here;
    - edges: (i, j, flow, cap) per triggered directed edge, in edge-array
      order, where flow = x*L/(d_ij*(n_i+n_j)) with x = w_i*n_j - w_j*n_i and
      cap = w_i*L/deg(i), L = lcm over these edges of d_ij*(n_i+n_j) and
      deg(i) (`lcm`): at alpha = a/b the expected units that cross the edge,
      times D = a*L, are min(b*flow, a*cap);
    - sq: P * sum(u^2 on i) / w_i^2 on every triggered source (0 elsewhere),
      P (`var_lcm`) the lcm of the reduced denominators of those ratios;
    - trig: the state's `triggers` mask, whose edges `edges` lists.
    """

    trig: np.ndarray
    w: list
    deviations: list
    dev_den: int
    inv: list
    inv_unit: Fraction
    edges: list
    lcm: int
    sq: list
    var_lcm: int
    quantum: int


class NodeMoments(NamedTuple):
    """Mean and variance of each node's one-round weight change, as integers
    over one denominator each: mu_k = mean[k] / mu_den and
    var_k = variance[k] / var_den, with D = `scale` and P, Q from `inputs`.
    The `mu`, `var`, `deviations` and `inv` properties give the same values
    one Fraction each.
    """

    mean: list
    variance: list
    scale: int
    inputs: MomentInputs

    @property
    def mu_den(self) -> int:
        """D*Q: the common denominator of the means."""
        return self.scale * self.inputs.quantum

    @property
    def var_den(self) -> int:
        """D^2*P*Q^2: the common denominator of the variances and the drops."""
        return self.mu_den ** 2 * self.inputs.var_lcm

    @property
    def mu(self) -> list:
        return [Fraction(x, self.mu_den) for x in self.mean]

    @property
    def var(self) -> list:
        return [Fraction(v, self.var_den) for v in self.variance]

    @property
    def deviations(self) -> list:
        return [Fraction(e, self.inputs.dev_den) for e in self.inputs.deviations]

    @property
    def inv(self) -> list:
        return [r * self.inputs.inv_unit for r in self.inputs.inv]


def moment_inputs(g: GraphTopology, sp: SpeedProfile, state: LoadState) -> MomentInputs:
    """The alpha-free inputs of `node_change_moments`, built once per state.

    Both task modes give integers: unit tasks have Q = 1, and sum(u^2) per
    node is `LoadState.node_square_units`. A stack, or a state past the
    trigger's int64 guard, is a ConfigError.
    """
    if state.stacked:
        raise ConfigError("the moments pass takes one state, not a stack")
    ev = g.edge_arrays
    trig = triggers(g, sp, state)
    w = state.node_units().tolist()
    sq = state.node_square_units()
    mult = sp.multipliers
    top = math.lcm(*mult)
    total_mult, total = sum(mult), sum(w)
    idx = np.flatnonzero(trig)
    src = ev.src[idx]
    edges = list(zip(src.tolist(), ev.dst[idx].tolist(), ev.dij[idx].tolist(),
                     ev.deg[src].tolist()))
    span = math.lcm(*(dij * (mult[i] + mult[j]) for i, j, dij, _ in edges),
                    *(deg_i for *_, deg_i in edges))
    sources = {i for i, *_ in edges}
    var_lcm = math.lcm(*(w[i] * w[i] // math.gcd(sq[i], w[i] * w[i]) for i in sources))
    return MomentInputs(
        trig=trig,
        w=w,
        deviations=[total_mult * wi - total * ni for wi, ni in zip(w, mult)],
        dev_den=total_mult * state.quantum,
        inv=[top // ni for ni in mult],
        inv_unit=Fraction(sp.granularity.denominator, top * sp.granularity.numerator),
        edges=[(i, j, (w[i] * mult[j] - w[j] * mult[i]) * span // (dij * (mult[i] + mult[j])),
                w[i] * span // deg_i) for i, j, dij, deg_i in edges],
        lcm=span,
        sq=[sq[i] * var_lcm // (w[i] * w[i]) if i in sources else 0 for i in range(len(w))],
        var_lcm=var_lcm,
        quantum=state.quantum,
    )


def node_change_moments(g: GraphTopology, sp: SpeedProfile, state: LoadState,
                        params: ProtocolParams,
                        inputs: MomentInputs | None = None) -> NodeMoments:
    """Exact mean and variance of the net weight change per node, one round.

    One pass over the triggered directed edges (`protocol.triggers`) on the
    integers of `moment_inputs`; passes over one state at several alphas
    can share its inputs. With alpha = a/b and D = a*L, a task on i picks
    edge (i, j) and moves with chance q = A/(D*w_i), where A = min(b*flow,
    a*cap) mirrors the kernel's clamp of the migration probability at 1, so
    mu moves A units (over D) from i to j, and each source's tasks add
    sum(u^2) * q*(1 - q) to the variance at j and, summed over its edges, at i.
    """
    if inputs is None:
        inputs = moment_inputs(g, sp, state)
    alpha = resolve_alpha(params, sp)
    a, b = alpha.numerator, alpha.denominator
    scale = a * inputs.lcm
    w, sq = inputs.w, inputs.sq
    n = len(w)
    mean = [0] * n
    variance = [0] * n
    out = [0] * n
    for i, j, flow, cap in inputs.edges:
        moved = min(b * flow, a * cap)
        mean[i] -= moved
        mean[j] += moved
        out[i] += moved
        variance[j] += sq[i] * moved * (scale * w[i] - moved)
    for i, moved in enumerate(out):
        variance[i] += sq[i] * moved * (scale * w[i] - moved)
    return NodeMoments(mean, variance, scale, inputs)


def _over_speeds(inputs: MomentInputs, terms, den: int) -> Fraction:
    """sum_k terms[k] / (den * s_k) as one Fraction, with 1/s_k = inv[k] / (N*eps)."""
    unit = inputs.inv_unit
    return Fraction(sum(r * t for r, t in zip(inputs.inv, terms)) * unit.numerator,
                    den * unit.denominator)


def exact_expected_psi0_drop(m: NodeMoments):
    """E[psi0(x) - psi0(X')] = -sum_k (2 e_k mu_k + mu_k^2 + var_k) / s_k.

    Flow is conserved (sum_k mu_k = 0) and e_k/s_k = l_k - W/S, so the
    e-term is 2 sum_k mu_k l_k = 2 sum_k mu_k W_k / s_k.
    """
    d, p = m.scale, m.inputs.var_lcm
    return _over_speeds(m.inputs, (-(p * mk * (2 * d * wk + mk) + vk)
                                   for mk, vk, wk in zip(m.mean, m.variance, m.inputs.w)),
                        m.var_den)


def exact_expected_psi1_drop(m: NodeMoments):
    """E[psi1 drop] = E[psi0 drop] - sum_k mu_k / s_k (psi1 and phi1 drops coincide)."""
    d, p, q = m.scale, m.inputs.var_lcm, m.inputs.quantum
    return _over_speeds(m.inputs, (-(p * mk * (2 * d * wk + mk + d * q) + vk)
                                   for mk, vk, wk in zip(m.mean, m.variance, m.inputs.w)),
                        m.var_den)


def exact_variance_sum(m: NodeMoments):
    """sum_i Var[W_i'] / s_i."""
    return _over_speeds(m.inputs, m.variance, m.var_den)


def exact_psi0_and_ldelta2(inputs: MomentInputs) -> tuple[Fraction, Fraction]:
    """psi0 = sum_i e_i^2 / s_i and l_delta^2 = max_i (|e_i| / s_i)^2, exactly."""
    e, den, unit = inputs.deviations, inputs.dev_den, inputs.inv_unit
    psi0 = _over_speeds(inputs, (x * x for x in e), den * den)
    top = max(abs(x) * r for x, r in zip(e, inputs.inv)) * unit.numerator
    return psi0, Fraction(top * top, (den * unit.denominator) ** 2)


def phi1_drop_routes(m: NodeMoments, sp: SpeedProfile, state: LoadState):
    """(drop via phi1 assembly, drop via psi1 assembly): equal by flow conservation.

    Both routes run in floats on the state's float weights, deviations and
    inverse speeds, so their difference measures float cancellation only.
    mu and var enter correctly rounded (int / int), as float() of their
    Fractions would give them.
    """
    mu_den, var_den = m.mu_den, m.var_den
    mu = np.array([x / mu_den for x in m.mean])
    var = np.array([v / var_den for v in m.variance])
    weights = state.node_weights()
    e = state.deviations(sp)
    inv = sp.inv_floats
    via_phi1 = float(np.sum(-(2.0 * weights * mu + mu**2 + var + mu) * inv))
    via_psi1 = float(np.sum(-(2.0 * e * mu + mu**2 + var + mu) * inv))
    return via_phi1, via_psi1


# ---------------------------------------------------------------------------
# Lemma right-hand sides


def variance_bound(g: GraphTopology, sp: SpeedProfile, state: LoadState,
                   params: ProtocolParams, trig: np.ndarray) -> float:
    """sum over the triggered directed edges of f_ij * (1/s_i + 1/s_j); trig
    is the state's `triggers` mask, as `moment_inputs` holds it."""
    kernel = RoundKernel(g, sp, params)
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
    up = ev.src < ev.dst    # each edge once
    u, v = ev.src[up], ev.dst[up]
    gap = loads[u] - loads[v]
    total = np.sum((1.0 - 2.0 / alpha) * gap * gap / (alpha * ev.dij[up] * (inv[u] + inv[v])))
    return float(total) - g.node_count / alpha


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


def critical_value(g: GraphTopology, sp: SpeedProfile, lam2: float | None = None) -> float:
    """psi_c = 8 * n * Delta * s_max / lambda2."""
    if lam2 is None:
        lam2 = lambda2_of(g)
    return 8 * g.node_count * g.max_degree * float(sp.s_max) / lam2


def gamma_factor(g: GraphTopology, sp: SpeedProfile, lam2: float | None = None) -> float:
    """gamma with 1/gamma = lambda2 / (32 * Delta * s_max^2).

    The weighted-task bound's extra 1/s_min factor is 1: speed profiles are
    normalized so that s_min = 1.
    """
    if lam2 is None:
        lam2 = lambda2_of(g)
    return 32.0 * g.max_degree * float(sp.s_max) ** 2 / lam2
