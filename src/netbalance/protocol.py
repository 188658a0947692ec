"""System states and one synchronous round of the randomized migration protocols.

Round semantics: every task draws a uniformly random neighbor of its current
node; if the load gap to that neighbor strictly exceeds 1/s_j, the task
migrates with a probability proportional to the gap. All probabilities are
evaluated against the round-start state, and every coin flip comes from a
counter-based stream keyed by (seed, round, node), so a round's outcome is
independent of evaluation order and reproducible draw-by-draw.

A state is a per-node task count plus, for weighted tasks, one flat weight
array grouped by node. In uniform mode tasks are anonymous, so a node's task
decisions collapse into one multinomial draw over (move-to-neighbor...,
stay); load comparisons are done exactly on cross-multiplied integers. In
weighted mode each task is an individual actor (slot-indexed within its
node's stream) and comparisons are strict floating-point: ties resolve to
"no move".
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConfigError
from .graphs import GraphTopology
from .rng import (
    STREAM_PLACEMENT,
    STREAM_ROUND,
    STREAM_WEIGHTS,
    generator_from_prefix,
    key_prefix,
    keyed_generator,
)
from .spectral import SpeedProfile

MODE_UNIFORM = "uniform"
MODE_WEIGHTED = "weighted"

ALGORITHM1 = "algorithm1"
ALGORITHM2 = "algorithm2"

_INT_GUARD = 1 << 62


@dataclass(frozen=True, eq=False)
class LoadState:
    """Assignment of tasks to nodes, held in two arrays.

    counts[i] is the number of tasks on node i. weights is None for unit
    tasks; for weighted tasks it is one flat array of every task weight,
    grouped by node (node 0's tasks first). Unit tasks are the weighted case
    with every weight 1, so W_i is counts[i] or the sum of node i's weights.
    Both arrays are read-only; equality is by value.
    """

    counts: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        if (self.counts < 0).any():
            raise ConfigError("task counts must be non-negative")
        if self.weights is not None and len(self.weights) != self.counts.sum():
            raise ConfigError("weighted state needs one weight per task")
        self.counts.setflags(write=False)
        if self.weights is not None:
            self.weights.setflags(write=False)

    @classmethod
    def uniform(cls, counts: Iterable[int]) -> "LoadState":
        try:
            return cls(np.array([operator.index(c) for c in counts], dtype=np.int64))
        except TypeError as exc:
            raise ConfigError(f"task counts must be integers: {exc}") from exc
        except OverflowError as exc:
            raise ConfigError("task counts too large for 64-bit integers") from exc

    @classmethod
    def weighted(cls, task_lists) -> "LoadState":
        """Ingest per-node task weights, enforcing w in (0, 1].

        Rounds only move existing tasks, so the range check lives here rather
        than on the per-round constructor path.
        """
        lists = [[float(w) for w in node] for node in task_lists]
        weights = np.array([w for node in lists for w in node], dtype=float)
        bad = np.flatnonzero(~((weights > 0.0) & (weights <= 1.0)))
        if bad.size:
            raise ConfigError(f"task weight {weights[bad[0]]} outside (0, 1]")
        return cls(np.array([len(node) for node in lists], dtype=np.int64), weights)

    def __eq__(self, other):
        if not isinstance(other, LoadState):
            return NotImplemented
        if (self.weights is None) != (other.weights is None):
            return False
        return np.array_equal(self.counts, other.counts) and (
            self.weights is None or np.array_equal(self.weights, other.weights))

    @property
    def mode(self) -> str:
        return MODE_UNIFORM if self.weights is None else MODE_WEIGHTED

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def task_count(self) -> int:
        return int(self.counts.sum())

    @cached_property
    def owner(self) -> np.ndarray:
        """The node of each entry of `weights`."""
        return np.repeat(np.arange(self.n), self.counts)

    @cached_property
    def _node_weights(self) -> np.ndarray:
        if self.weights is None:
            w = self.counts.astype(float)
        else:
            w = np.bincount(self.owner, weights=self.weights, minlength=self.n)
        w.setflags(write=False)
        return w

    def node_weights(self) -> np.ndarray:
        """W_i per node as a read-only float array, summed from this state's tasks."""
        return self._node_weights

    def total_weight(self) -> float:
        return float(self.node_weights().sum())

    def loads(self, sp: SpeedProfile) -> np.ndarray:
        return self.node_weights() * sp.inv_floats

    def deviations(self, sp: SpeedProfile) -> np.ndarray:
        """e_i = W_i - (W / S) * s_i as floats."""
        scale = self.total_weight() / float(sp.total_capacity)
        return self.node_weights() - scale * sp.floats

    def to_payload(self) -> dict:
        """JSON-compatible serialization (counterexample artifacts, configs)."""
        if self.weights is None:
            return {"mode": MODE_UNIFORM, "counts": self.counts.tolist()}
        per_node = np.split(self.weights, np.cumsum(self.counts)[:-1])
        return {"mode": MODE_WEIGHTED, "tasks": [t.tolist() for t in per_node]}

    @classmethod
    def from_payload(cls, payload: dict) -> "LoadState":
        if payload.get("mode") == MODE_UNIFORM:
            return cls.uniform(payload["counts"])
        if payload.get("mode") == MODE_WEIGHTED:
            return cls.weighted(payload["tasks"])
        raise ConfigError(f"unknown state payload {payload!r}")


@dataclass(frozen=True)
class ProtocolParams:
    """Migration-protocol knobs. alpha=None resolves to 4*s_max at use time."""

    rng_seed: int
    variant: str = ALGORITHM1
    alpha: Fraction | int | None = None
    printed_weighted_rule: bool = False

    def __post_init__(self):
        if self.variant not in (ALGORITHM1, ALGORITHM2):
            raise ConfigError(f"unknown protocol variant {self.variant!r}")
        if self.printed_weighted_rule and self.variant != ALGORITHM2:
            raise ConfigError("the printed weighted rule applies to algorithm2 only")
        if self.alpha is not None and self.alpha <= 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")


def default_alpha(sp: SpeedProfile) -> Fraction:
    return 4 * sp.s_max


def exact_ne_alpha(sp: SpeedProfile) -> Fraction:
    """alpha = 4*s_max/eps, the setting under which exact-NE convergence is proven."""
    return 4 * sp.s_max / sp.granularity


def resolve_alpha(params: ProtocolParams, sp: SpeedProfile) -> Fraction:
    if params.alpha is None:
        return default_alpha(sp)
    return Fraction(params.alpha)


class _EdgeView(NamedTuple):
    src: np.ndarray      # directed edge source, grouped by node
    dst: np.ndarray
    ptr: np.ndarray      # CSR offsets: node i's out-edges are [ptr[i], ptr[i+1])
    dij: np.ndarray      # max(deg(src), deg(dst)) per directed edge
    deg: np.ndarray


@lru_cache(maxsize=256)
def _edge_view(g: GraphTopology) -> _EdgeView:
    src, dst = [], []
    for i in range(g.node_count):
        for j in g.neighbors[i]:
            src.append(i)
            dst.append(j)
    src_a = np.array(src, dtype=np.int64)
    dst_a = np.array(dst, dtype=np.int64)
    deg = np.array(g.degrees, dtype=np.int64)
    ptr = np.zeros(g.node_count + 1, dtype=np.int64)
    np.cumsum(deg, out=ptr[1:])
    return _EdgeView(src_a, dst_a, ptr, np.maximum(deg[src_a], deg[dst_a]), deg)


@lru_cache(maxsize=256)
def _mult_view(g: GraphTopology, sp: SpeedProfile) -> np.ndarray:
    if sp.n != g.node_count:
        raise ConfigError(f"speed profile has {sp.n} entries for a {g.node_count}-node graph")
    return np.array(sp.multipliers, dtype=np.int64)


@lru_cache(maxsize=512)
def _denominators(g: GraphTopology, sp: SpeedProfile, alpha: float) -> np.ndarray:
    """alpha * d_ij * (1/s_i + 1/s_j) per directed edge."""
    ev = _edge_view(g)
    inv = sp.inv_floats
    return alpha * ev.dij * (inv[ev.src] + inv[ev.dst])


def _trigger_mask(g: GraphTopology, sp: SpeedProfile, state: LoadState) -> np.ndarray:
    """Directed-edge mask for the strict migration condition l_i - l_j > 1/s_j."""
    ev = _edge_view(g)
    if state.weights is None:
        # Exact: w_i*n_j - w_j*n_i > n_i with s_i = n_i * eps.
        mult = _mult_view(g, sp)
        w = state.counts
        if w.size and int(w.max()) * int(mult.max() + 1) >= _INT_GUARD:
            raise ConfigError("task counts too large for exact 64-bit comparisons")
        return w[ev.src] * mult[ev.dst] - w[ev.dst] * mult[ev.src] > mult[ev.src]
    loads = state.loads(sp)
    return loads[ev.src] - loads[ev.dst] > sp.inv_floats[ev.dst]


def _flow_array(g: GraphTopology, sp: SpeedProfile, state: LoadState,
                params: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """(expected flow f_e, trigger mask) over directed edges."""
    ev = _edge_view(g)
    trig = _trigger_mask(g, sp, state)
    denom = _denominators(g, sp, float(resolve_alpha(params, sp)))
    loads = state.loads(sp)
    flow = np.zeros(len(ev.src))
    idx = np.flatnonzero(trig)
    if idx.size:
        flow[idx] = (loads[ev.src[idx]] - loads[ev.dst[idx]]) / denom[idx]
    return flow, trig


def _per_task_probability_array(g, sp, state, params) -> tuple[np.ndarray, np.ndarray]:
    """(p_e, trigger): chance a task that picked this edge's neighbor migrates."""
    ev = _edge_view(g)
    weights = state.node_weights()
    if params.printed_weighted_rule:
        trig = _trigger_mask(g, sp, state)
        alpha = float(resolve_alpha(params, sp))
        prob = np.zeros(len(ev.src))
        idx = np.flatnonzero(trig)
        if idx.size:
            s, d = ev.src[idx], ev.dst[idx]
            prob[idx] = (ev.deg[s] / ev.dij[idx]) * (weights[s] - weights[d]) \
                / (2.0 * alpha * weights[s])
        return np.clip(prob, 0.0, 1.0), trig
    flow, trig = _flow_array(g, sp, state, params)
    prob = np.zeros_like(flow)
    idx = np.flatnonzero(trig)
    if idx.size:
        prob[idx] = flow[idx] * ev.deg[ev.src[idx]] / weights[ev.src[idx]]
    return prob, trig


def _edge_index(g: GraphTopology, i: int, j: int) -> int:
    if not g.is_edge(i, j):
        raise ConfigError(f"({i}, {j}) is not an edge of the graph")
    ev = _edge_view(g)
    return int(ev.ptr[i]) + g.neighbors[i].index(j)


def expected_flow(g: GraphTopology, sp: SpeedProfile, state: LoadState,
                  params: ProtocolParams, i: int, j: int) -> float:
    """Expected task weight migrating over directed edge (i, j) this round."""
    e = _edge_index(g, i, j)
    flow, _ = _flow_array(g, sp, state, params)
    return float(flow[e])


def migration_probability(g: GraphTopology, sp: SpeedProfile, state: LoadState,
                          params: ProtocolParams, i: int, j: int) -> float:
    """Migration probability for a task on i that sampled neighbor j.

    Equals (deg(i)/d_ij) * (l_i - l_j) / (alpha * (1/s_i + 1/s_j) * W_i) on
    triggered edges and 0 otherwise; clamped to [0, 1], where clamping can
    only ever fire for alpha below the protocol's 4*s_max floor.
    """
    e = _edge_index(g, i, j)
    prob, _ = _per_task_probability_array(g, sp, state, params)
    p = float(prob[e])
    if resolve_alpha(params, sp) >= 4 * sp.s_max and p > 0.125 + 1e-12:
        raise RuntimeError(
            f"internal error: migration probability {p} above 1/8 despite alpha >= 4*s_max"
        )
    return min(max(p, 0.0), 1.0)


def non_nash_edges(g: GraphTopology, sp: SpeedProfile, state: LoadState) -> set:
    """Directed edges with positive expected flow: l_i - l_j > 1/s_j, exactly."""
    ev = _edge_view(g)
    trig = _trigger_mask(g, sp, state)
    return {(int(ev.src[e]), int(ev.dst[e])) for e in np.flatnonzero(trig)}


def is_nash(g: GraphTopology, sp: SpeedProfile, state: LoadState) -> bool:
    """True iff no edge satisfies the strict migration condition.

    For weighted states this is the threshold equilibrium that stops
    Algorithm 2 (l_i - l_j <= 1/s_j on all edges), which is not necessarily a
    per-task Nash equilibrium.
    """
    return not bool(_trigger_mask(g, sp, state).any())


def is_approx_nash(g: GraphTopology, sp: SpeedProfile, state: LoadState,
                   eps: float) -> bool:
    """True iff (1 - eps) * l_i - l_j <= 1/s_j on every directed edge."""
    if not 0.0 < eps < 1.0:
        raise ConfigError(f"eps must lie in (0, 1), got {eps}")
    ev = _edge_view(g)
    loads = state.loads(sp)
    lhs = (1.0 - eps) * loads[ev.src] - loads[ev.dst]
    return bool((lhs <= sp.inv_floats[ev.dst]).all())


def check_variant(state: LoadState, params: ProtocolParams) -> None:
    """Unit tasks run under algorithm1, weighted tasks under algorithm2."""
    variant = ALGORITHM1 if state.weights is None else ALGORITHM2
    if params.variant != variant:
        raise ConfigError(f"{state.mode}-task states run under variant {variant}")


def step_round_totals(g: GraphTopology, sp: SpeedProfile, state: LoadState,
                      params: ProtocolParams, round_index: int) -> tuple[LoadState, int]:
    """Execute one synchronous round; returns the new state and the number of moved tasks.

    Total task weight is conserved; with identical inputs the result is
    identical (all randomness is keyed by (rng_seed, round_index, node)).
    """
    check_variant(state, params)
    if state.weights is None:
        return _step_uniform(g, sp, state, params, round_index)
    return _step_weighted(g, sp, state, params, round_index)


def _step_uniform(g, sp, state, params, round_index):
    ev = _edge_view(g)
    flow, trig = _flow_array(g, sp, state, params)
    idx = np.flatnonzero(trig)
    counts = state.counts
    moved = np.zeros(len(ev.src), dtype=np.int64)   # tasks moved per directed edge
    prefix = key_prefix(params.rng_seed, STREAM_ROUND, round_index)
    for i in np.unique(ev.src[idx]):
        lo, hi = int(ev.ptr[i]), int(ev.ptr[i + 1])
        wi = int(counts[i])
        if wi == 0:
            continue
        # Per-task chance of ending on neighbor k: f_ik / W_i (neighbor draw
        # times acceptance); one multinomial covers all of node i's tasks.
        # The cap at 1/deg mirrors the [0, 1] clamp of the migration
        # probability; it never binds for alpha >= 4*s_max.
        q = np.minimum(flow[lo:hi] / wi, 1.0 / (hi - lo))
        pvals = np.empty(hi - lo + 1)
        pvals[:-1] = q
        pvals[-1] = 1.0 - q.sum()
        gen = generator_from_prefix(prefix, int(i))
        moved[lo:hi] = gen.multinomial(wi, pvals)[:-1]
    total = int(moved.sum())
    if total == 0:
        return state, 0
    new_counts = counts.copy()
    np.add.at(new_counts, ev.dst, moved)
    np.subtract.at(new_counts, ev.src, moved)
    return LoadState(new_counts), total


def _step_weighted(g, sp, state, params, round_index):
    ev = _edge_view(g)
    prob, trig = _per_task_probability_array(g, sp, state, params)
    idx = np.flatnonzero(trig)
    counts = state.counts
    starts = np.cumsum(counts) - counts
    dest = state.owner.copy()                       # each task's node after the round
    moved = np.zeros(len(dest), dtype=bool)
    prefix = key_prefix(params.rng_seed, STREAM_ROUND, round_index)
    for i in np.unique(ev.src[idx]):
        k = int(counts[i])
        if k == 0:
            continue
        lo, hi = int(ev.ptr[i]), int(ev.ptr[i + 1])
        gen = generator_from_prefix(prefix, int(i))
        # Slot-indexed draws: neighbor pick then acceptance coin per task slot.
        picks = gen.integers(0, hi - lo, size=k)
        coins = gen.random(k)
        moving = coins < prob[lo:hi][picks]
        a = int(starts[i])
        moved[a:a + k] = moving
        dest[a:a + k][moving] = ev.dst[lo:hi][picks[moving]]
    total = int(moved.sum())
    if total == 0:
        return state, 0
    # Stable regroup by destination: kept tasks first, then arrivals in
    # (source node, slot) order.
    order = np.lexsort((moved, dest))
    new_counts = np.bincount(dest, minlength=g.node_count)
    return LoadState(new_counts, state.weights[order]), total


# ---------------------------------------------------------------------------
# Initial states


def all_on_one_state(n: int, m: int, node: int = 0) -> LoadState:
    """Worst-case start: all m tasks on one node."""
    if not 0 <= node < n:
        raise ConfigError(f"node {node} out of range for n={n}")
    counts = [0] * n
    counts[node] = m
    return LoadState.uniform(counts)


def random_placement_state(n: int, m: int, seed: int) -> LoadState:
    """Each task picks a node independently and uniformly."""
    gen = keyed_generator(seed, STREAM_PLACEMENT)
    counts = gen.multinomial(m, np.full(n, 1.0 / n))
    return LoadState.uniform(counts)


def near_balanced_state(sp: SpeedProfile, m: int) -> LoadState:
    """Counts as close to the balanced vector (m/S)*s_i as integers allow."""
    targets = [Fraction(m) * s / sp.total_capacity for s in sp.speeds]
    base = [int(t) for t in targets]
    remainder = m - sum(base)
    order = sorted(range(sp.n), key=lambda i: (base[i] - targets[i], i))
    for i in order[:remainder]:
        base[i] += 1
    return LoadState.uniform(base)


def random_task_weights(count: int, seed: int) -> tuple[float, ...]:
    """count weights drawn uniformly from (0, 1]."""
    gen = keyed_generator(seed, STREAM_WEIGHTS)
    return tuple(float(w) for w in 1.0 - gen.random(count))


def weighted_all_on_one(weights: Iterable[float], n: int, node: int = 0) -> LoadState:
    if not 0 <= node < n:
        raise ConfigError(f"node {node} out of range for n={n}")
    lists: list[tuple[float, ...]] = [()] * n
    lists[node] = tuple(weights)
    return LoadState.weighted(lists)


def weighted_random_placement(weights: Iterable[float], n: int, seed: int) -> LoadState:
    gen = keyed_generator(seed, STREAM_PLACEMENT)
    lists: list[list[float]] = [[] for _ in range(n)]
    for w in weights:
        lists[int(gen.integers(0, n))].append(float(w))
    return LoadState.weighted(lists)


def weighted_near_balanced(weights: Iterable[float], sp: SpeedProfile) -> LoadState:
    """Greedy least-loaded placement (deterministic, ties to the lowest index)."""
    lists: list[list[float]] = [[] for _ in range(sp.n)]
    loads = np.zeros(sp.n)
    inv = sp.inv_floats
    for w in weights:
        i = int(np.argmin(loads))
        lists[i].append(float(w))
        loads[i] += float(w) * inv[i]
    return LoadState.weighted(lists)
