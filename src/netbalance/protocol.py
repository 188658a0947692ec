"""System states and one synchronous round of the randomized migration protocols.

The tasks pick the protocol: unit tasks run the paper's Algorithm 1 and
weighted tasks its Algorithm 2, so the state alone decides which one a round
executes. Round semantics: every task draws a uniformly random neighbor of
its current node; if the load gap to that neighbor strictly exceeds 1/s_j,
the task migrates with a probability proportional to the gap. All
probabilities are evaluated against the round-start state, and all of a
round's draws come from one counter-based stream keyed by (seed, round), so
any round can be reproduced on its own, whatever ran before it.

A state is a per-node task count plus, for weighted tasks, a task buffer:
one int64 array of per-node blocks with slack, laid out in node order and
delimited by one offsets array (`TaskBuffer`), so a round writes only the
slots its movers touch. A weight is a whole number of units of 1/WEIGHT_UNITS,
so W_i is the exact integer sum of node i's block. A round carries W_i: the
state it returns holds the old W_i minus the units that left node i plus the
units that arrived, so no round re-sums the buffer. A task's migration
probability depends only on its edge and the round-start loads, never on its
own weight, so the tasks on a node are exchangeable and every round draws
counts first: one multinomial row over (move-to-neighbor..., stay) per node,
the same draw in both modes. Unit tasks are anonymous, so that is the whole
round. Weighted tasks then draw which of a node's tasks leave, a uniform
ordered sample of distinct tasks split over its out-edges in order. A
mover's hole is filled by its node's last staying task and arrivals are
appended (`_move_tasks`). The newest state owns the buffer's array and a
round writes it in place, while the state it stepped keeps an undo diff and
rebuilds its own copy if it is read or stepped again; only a round in which
a block would overflow packs every block into a new array.

Many states of one graph (the trials of a run, or independent rounds of one
state) step together as the rows of a stack: T rows are one state of T
disjoint copies of the graph, row t's node i being flat node t*n + i, so one
call steps every row and no task crosses rows. The round's one stream is
shared by the rows, which draw in flat node order, row 0 first; a row whose
triggers the caller clears draws nothing and stays as it is. A bare state
draws exactly what the one-row stack of it draws.

One function, `triggers`, decides exactly, in both modes, which directed
edges trigger; the round, the equilibrium predicates and the oracles all
read its mask. Derived arrays live on the objects that own their inputs, not
in module-level caches: the graph holds its edge arrays, the speed profile
its int64 multipliers and inverse speeds, and a `RoundKernel` what depends
on alpha and the seed (per-edge denominators, the round stream's key and the
one generator it re-keys for every round) with the edge arrays of the stack
it steps. A run builds one kernel; `step_round_totals` one per call.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import ConfigError
from .graphs import EdgeArrays, GraphTopology
from .rng import (
    STREAM_PLACEMENT,
    STREAM_ROUND,
    STREAM_WEIGHTS,
    generator_from_prefix,
    key_prefix,
    keyed_generator,
)
from .spectral import SpeedProfile, as_fraction

MODE_UNIFORM = "uniform"
MODE_WEIGHTED = "weighted"

_INT_GUARD = 1 << 62
#: Weighted tasks hold whole units of 1/WEIGHT_UNITS: W_i is an exact integer.
WEIGHT_UNITS = 1 << 27


class _Version:
    """One version of a task buffer's array, after Baker's version
    arrays ("Shallow binding makes functional arrays fast", 1991).

    The newest version owns the array (`array`, and `values`, its read-only
    view). A round that writes the array in place hands it on (`hand_on`)
    and keeps `undo`: the slots it overwrote, their old values and the
    version it handed the array to. The first read of an older version
    (`current`) copies the owner's array and applies the diffs newest to
    oldest; from then on that version owns its copy.
    """

    __slots__ = ("array", "values", "undo")

    def __init__(self, array: np.ndarray):
        self.array = array
        self.values = array.view()
        self.values.setflags(write=False)
        self.undo = None

    def current(self) -> "_Version":
        """This version, owning an array that holds its own tasks."""
        if self.undo is not None:
            diffs, owner = [], self
            while owner.undo is not None:
                diffs.append(owner.undo)
                owner = owner.undo[2]
            array = owner.array.copy()
            for slots, old, _ in reversed(diffs):
                array[slots] = old
            self.__init__(array)
        return self

    def hand_on(self, slots: np.ndarray, old: np.ndarray) -> "_Version":
        """The next version, owning the array; this one keeps the undo diff."""
        new = _Version(self.array)
        self.array = self.values = None
        self.undo = (slots, old, new)
        return new


class TaskBuffer:
    """Weighted tasks, as int64 weight units, in per-node blocks with slack.

    The blocks lie in flat node order, one after the other: flat node i owns
    the block values[offsets[i] : offsets[i + 1]] and keeps its counts[i]
    tasks, in order, at the front of it; the rest of the block is slack. The
    last slot of values is in no block, so every block end is a valid index
    for `np.add.reduceat`. Slots that hold no task keep stale weights or 0,
    never read as tasks.

    The array is a store that the newest buffer owns: a round in which
    every block fits its new count writes it in place and hands it on to the
    buffer it returns, while the old buffer keeps an undo diff (`_Version`).
    Reading `values` of an older buffer first rebuilds its own copy, so every
    buffer reads as its own tasks; an array read from `values` before such a
    round shows the newer tasks after it. The rows of a stack share its
    version of the store, each with its own slice of the offsets, so a round
    that writes the stack or any of its rows in place makes all of them older.
    """

    __slots__ = ("offsets", "_version")

    def __init__(self, version: _Version, offsets: np.ndarray):
        self._version = version
        self.offsets = offsets

    @property
    def values(self) -> np.ndarray:
        return self._version.current().values

    def __repr__(self):
        return f"TaskBuffer(values={self.values!r}, offsets={self.offsets!r})"

    @classmethod
    def packed(cls, units: np.ndarray, counts: np.ndarray) -> "TaskBuffer":
        """Gap-free int64 weight units grouped by flat node, each block exactly full."""
        if len(units) != counts.sum():
            raise ConfigError("weighted state needs one weight per task")
        return cls(_Version(np.append(units, 0)), _offsets(counts))   # plus the spare slot

    def sums(self, counts: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Per-node sums of values (the store, or an array of its shape) over
        each node's tasks: one `np.add.reduceat` over the block bounds, 0 on
        an empty node, so the exact W_i in units on the store. The bounds
        interleave each block's start with the end of its tasks, so the slack
        tails are summed too and dropped.

        A pass over the whole buffer, so rounds never make it: W_i is summed
        here for a state that no round made (ingested, stacked, a row, read
        from a payload) and once at the end of a run to check the W_i the
        rounds carried (`LoadState.check_node_units`); Σu² for the oracles
        (`node_square_units`) is always summed here.
        """
        bounds = np.empty(2 * len(counts), dtype=np.int64)
        bounds[0::2] = self.offsets[:-1]
        bounds[1::2] = self.offsets[:-1] + counts
        if not len(bounds):
            return np.zeros(0, dtype=values.dtype)
        return np.where(counts > 0, np.add.reduceat(values, bounds)[0::2], 0)


@dataclass(frozen=True, eq=False)
class LoadState:
    """Assignment of tasks to nodes: a count array and, for weighted tasks,
    a task buffer.

    counts[i] is the number of tasks on node i. tasks is None for unit tasks;
    for weighted tasks it is a `TaskBuffer` of weight units (1/WEIGHT_UNITS
    each), so a round rewrites only the slots its movers touch. `units` is
    the public view of the tasks: every task's units, gap-free and grouped by
    node (node 0's tasks first), `weights` the same as exact floats, both
    None for unit tasks. They are built on first use; rounds never read them,
    and slack never shows in them, in `rows`, `to_payload` or `==`. A unit
    task is one unit of 1 (`quantum`), so `node_units` is counts[i] or the
    exact sum of node i's units: carried by the round that made the state,
    or else summed over its buffer once, on first use. Every array is
    read-only; equality is by value.

    A weighted state is a value even though rounds write its buffer's array
    in place (`TaskBuffer`): a state that a round has stepped keeps an undo
    diff, and its next read or step first rebuilds its own copy of the
    array, so `weights`, W_i, `rows`, `to_payload` and the next step all see
    its own tasks. Its counts and offsets arrays never change.

    A stack (`LoadState.stack`) holds T states of one graph as rows: counts
    has shape (T, n), row t's node i is flat node t*n + i, and the task
    buffer has one block per flat node, `weights` holding the tasks of every
    flat node in that order. Per-node quantities then have shape (T, n) and
    per-row ones shape (T,). Weighted rows (`rows`) are views of the stack's
    buffer: row t's offsets are offsets[t*n : t*n + n + 1].
    """

    counts: np.ndarray
    tasks: TaskBuffer | None = None

    def __post_init__(self):
        if (self.counts < 0).any():
            raise ConfigError("task counts must be non-negative")
        self.counts.setflags(write=False)
        if self.tasks is not None:
            self.tasks.offsets.setflags(write=False)

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

        Each weight is stored as max(1, rint(w * WEIGHT_UNITS)) units, within
        2^-27 of w, so no weight in (0, 1] is lost. Each node converts with one
        `np.asarray`; a node that is not a flat sequence of numbers is a
        ConfigError (None reads as NaN, which the range check refuses). Rounds
        only move existing tasks, so the range check lives here, not on the
        per-round path.
        """
        try:
            nodes = [np.asarray(node, dtype=float) for node in task_lists]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"task weights must be numbers: {exc}") from exc
        if any(node.ndim != 1 for node in nodes):
            raise ConfigError("task weights must be one flat list of numbers per node")
        weights = np.concatenate([np.empty(0), *nodes])
        bad = np.flatnonzero(~((weights > 0.0) & (weights <= 1.0)))
        if bad.size:
            raise ConfigError(f"task weight {weights[bad[0]]} outside (0, 1]")
        counts = np.array([len(node) for node in nodes], dtype=np.int64)
        units = np.maximum(np.rint(weights * WEIGHT_UNITS), 1).astype(np.int64)
        return cls(counts, TaskBuffer.packed(units, counts))

    @classmethod
    def stack(cls, states) -> "LoadState":
        """The given states of one graph as the rows of one stack, in order."""
        states = list(states)
        if not states:
            raise ConfigError("a stack needs at least one state")
        if len({s.tasks is None for s in states}) != 1:
            raise ConfigError("a stack holds unit tasks or weighted tasks, not both")
        if len({s.counts.shape for s in states}) != 1 or states[0].stacked:
            raise ConfigError("stacked states must be unstacked and of one size")
        counts = np.stack([s.counts for s in states])
        if states[0].tasks is None:
            return cls(counts)
        units = np.concatenate([s.units for s in states])
        return cls(counts, TaskBuffer.packed(units, counts.ravel()))

    def rows(self) -> list["LoadState"]:
        """Every row of a stack as its own state (views, no copies)."""
        if self.tasks is None:
            return [LoadState(c) for c in self.counts]
        version, offsets, n = self.tasks._version, self.tasks.offsets, self.n
        return [LoadState(c, TaskBuffer(version, offsets[k:k + n + 1]))
                for c, k in zip(self.counts, range(0, self.counts.size, n))]

    def __eq__(self, other):
        if not isinstance(other, LoadState):
            return NotImplemented
        if (self.tasks is None) != (other.tasks is None):
            return False
        return np.array_equal(self.counts, other.counts) and (
            self.tasks is None or np.array_equal(self.units, other.units))

    @cached_property
    def units(self) -> np.ndarray | None:
        """Every task's weight units, gap-free and grouped by (flat) node; None for unit tasks."""
        return None if self.tasks is None else _read_only(
            self.tasks.values[_block_slots(self.tasks.offsets[:-1], self.counts.ravel())])

    @cached_property
    def weights(self) -> np.ndarray | None:
        """Every task weight as a float, in the order of `units`; None for unit tasks."""
        return None if self.tasks is None else _read_only(self.units / WEIGHT_UNITS)

    @property
    def quantum(self) -> int:
        """Units per unit of weight: 1 for unit tasks, WEIGHT_UNITS for weighted ones."""
        return 1 if self.tasks is None else WEIGHT_UNITS

    @property
    def mode(self) -> str:
        return MODE_UNIFORM if self.tasks is None else MODE_WEIGHTED

    @property
    def n(self) -> int:
        return self.counts.shape[-1]

    @property
    def stacked(self) -> bool:
        return self.counts.ndim == 2

    @property
    def task_count(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def _carrying(cls, counts: np.ndarray, tasks: TaskBuffer, units: np.ndarray) -> "LoadState":
        """A weighted state stepped by a round, which hands on its exact W_i
        in units (`_move_tasks`), so that nothing re-sums its buffer."""
        state = cls(counts, tasks)
        state.__dict__["_node_sums"] = (_read_only(units), _read_only(units / WEIGHT_UNITS))
        return state

    def _resummed_units(self) -> np.ndarray:
        return self.tasks.sums(self.counts.ravel(), self.tasks.values).reshape(self.counts.shape)

    @cached_property
    def _node_sums(self) -> tuple[np.ndarray, np.ndarray]:
        units = self.counts if self.tasks is None else _read_only(self._resummed_units())
        return units, _read_only(units / self.quantum)

    def node_units(self) -> np.ndarray:
        """W_i in units per node as a read-only int64 array shaped like counts:
        the counts, or the exact sum of each node's weight units.

        A state that `RoundKernel.step` returns holds the W_i the round
        carried; any other weighted state (ingested, stacked, a row of a
        stack, rebuilt from a payload) re-sums its buffer once, on first use.
        """
        return self._node_sums[0]

    def check_node_units(self) -> None:
        """Re-sum W_i over the task buffer; a disagreement with the W_i the
        state holds is an implementation bug, raised as an internal
        RuntimeError."""
        if self.tasks is None:
            return
        resummed, held = self._resummed_units(), self.node_units()
        bad = np.flatnonzero(resummed != held)
        if bad.size:
            k = bad[0]
            raise RuntimeError(
                f"internal error: carried W_i disagrees with its re-sum at flat node {k} "
                f"({held.ravel()[k]} vs {resummed.ravel()[k]})")

    def node_square_units(self) -> list[int]:
        """sum(u^2) in units^2 per flat node, as exact Python ints: the counts
        for unit tasks. Weighted units are summed as three int64 block sums
        of a 14-bit split (u = h*2^14 + l, u^2 = h^2*2^28 + h*l*2^15 + l^2)."""
        counts = self.counts.ravel()
        if self.tasks is None:
            return counts.tolist()
        units = self.tasks.values
        hi, lo = units >> 14, units & 0x3FFF
        parts = (self.tasks.sums(counts, part).tolist() for part in (hi * hi, hi * lo, lo * lo))
        return [(a << 28) + (b << 15) + c for a, b, c in zip(*parts)]

    def node_weights(self) -> np.ndarray:
        """W_i per node as a read-only float array: node_units() / quantum, the
        exact W_i, rounded only past 2^53 units."""
        return self._node_sums[1]

    def total_weight(self):
        """W as a float, or per row for a stack."""
        total = self.node_units().sum(axis=-1) / self.quantum
        return total if self.stacked else float(total)

    def loads(self, sp: SpeedProfile) -> np.ndarray:
        return self.node_weights() * sp.inv_floats

    def deviations(self, sp: SpeedProfile) -> np.ndarray:
        """e_i = W_i - (W / S) * s_i as floats (W per row for a stack)."""
        w = self.node_weights()
        scale = w.sum(axis=-1, keepdims=True) / float(sp.total_capacity)
        return w - scale * sp.floats

    def to_payload(self) -> dict:
        """JSON-compatible serialization of one state (counterexample artifacts, configs)."""
        if self.stacked:
            raise ConfigError("to_payload takes one state, not a stack")
        if self.tasks is None:
            return {"mode": MODE_UNIFORM, "counts": self.counts.tolist()}
        per_node = np.split(self.weights, np.cumsum(self.counts)[:-1])
        return {"mode": MODE_WEIGHTED, "tasks": [t.tolist() for t in per_node]}

    @classmethod
    def from_payload(cls, payload) -> "LoadState":
        """The state a `to_payload` payload describes, read from a file:
        anything else is a ConfigError."""
        mode = payload.get("mode") if isinstance(payload, dict) else None
        if mode == MODE_UNIFORM and isinstance(payload.get("counts"), list):
            return cls.uniform(payload["counts"])
        tasks = payload.get("tasks") if mode == MODE_WEIGHTED else None
        if isinstance(tasks, list) and all(isinstance(node, list) for node in tasks):
            return cls.weighted(tasks)
        raise ConfigError(f"malformed state payload {payload!r}")


@dataclass(frozen=True)
class ProtocolParams:
    """Migration-protocol knobs. alpha=None resolves to 4*s_max at use time.

    The state's tasks choose the algorithm (unit: Algorithm 1, weighted:
    Algorithm 2); both draw with `RoundKernel.probabilities`.
    """

    rng_seed: int
    alpha: Fraction | int | None = None

    def __post_init__(self):
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


def triggers(g: GraphTopology, sp: SpeedProfile, state: LoadState,
             eps: Fraction | int = 0) -> np.ndarray:
    """Directed-edge mask, in `g.edge_arrays` order (per row for a stack), of
    the strict condition (1 - eps)*l_i - l_j > 1/s_j: at eps = 0 the migration
    condition, and for an exact rational eps in (0, 1) the edges that keep the
    state from being an eps-approximate equilibrium, a subset of those.

    Every question of which edges trigger is answered here, exactly and alike
    for both modes: with W_i = w_i/Q (w_i from `node_units`, Q the `quantum`),
    s_i = n_i times the speed granularity and eps = a/b, it is
    (b - a)*w_i*n_j - b*w_j*n_i > b*n_i*Q on int64 cross products; a state
    or eps whose products could overflow is a ConfigError.
    """
    if sp.n != g.node_count:
        raise ConfigError(f"speed profile has {sp.n} entries for a {g.node_count}-node graph")
    ev = g.edge_arrays
    a, b = eps.numerator, eps.denominator
    w, mult, q = state.node_units(), sp.int_multipliers, state.quantum
    if w.size:
        units, mult_bound = max(int(w.max()), q), sp.max_multiplier + 1
        if b * units * mult_bound >= _INT_GUARD:
            raise ConfigError(
                "exact 64-bit comparisons need b*max(max w_i, Q)*(max n_i + 1) < 2^62, "
                f"got eps denominator b = {b}, max(max w_i, Q) = {units}, "
                f"max n_i + 1 = {mult_bound}")
    return ((b - a) * w[..., ev.src] * mult[ev.dst] - b * w[..., ev.dst] * mult[ev.src]
            > b * q * mult[ev.src])


class RoundKernel:
    """What every round of a run shares that depends on alpha and the seed:
    alpha and the per-edge denominators, resolved once, the key of the run's
    round stream and the one generator it re-keys for each round. Every
    method takes a state or a stack of rows and that state's trigger mask
    (`triggers`); the edge arrays of T stacked copies are kept for the last
    T stepped.
    """

    def __init__(self, g: GraphTopology, sp: SpeedProfile, params: ProtocolParams):
        if sp.n != g.node_count:
            raise ConfigError(f"speed profile has {sp.n} entries for a {g.node_count}-node graph")
        self.edges = ev = g.edge_arrays
        self.inv = sp.inv_floats
        self.alpha = float(resolve_alpha(params, sp))
        self.denom = self.alpha * ev.dij * (self.inv[ev.src] + self.inv[ev.dst])
        self.stream = key_prefix(params.rng_seed, STREAM_ROUND)
        self._gen = None            # made by the first round that draws, then re-keyed
        self._stacked = (1, ev)     # (T, edge arrays of T copies of the graph)

    def flows(self, state: LoadState, trig: np.ndarray) -> np.ndarray:
        """Expected flow f_e = (l_i - l_j) / (alpha*d_ij*(1/s_i + 1/s_j)) on triggered edges."""
        ev = self.edges
        loads = state.node_weights() * self.inv
        return np.where(trig, (loads[..., ev.src] - loads[..., ev.dst]) / self.denom, 0.0)

    def probabilities(self, state: LoadState, trig: np.ndarray) -> np.ndarray:
        """p_e: the chance that a task which picked this edge's neighbor migrates.

        p_e = (deg(i)/d_ij) * (l_i - l_j) / (alpha * (1/s_i + 1/s_j) * W_i) on
        triggered edges and 0 elsewhere, for unit and weighted tasks alike. It
        is at most 1/8 when alpha >= 4*s_max; below that floor it can exceed 1,
        and the round clamps it at 1.
        """
        ev = self.edges
        weights = state.node_weights()
        return np.divide(self.flows(state, trig) * ev.deg[ev.src], weights[..., ev.src],
                         out=np.zeros(trig.shape), where=trig)

    def step(self, state: LoadState, round_index: int, trig: np.ndarray):
        """One round of every row; see `step_round_totals`.

        trig is the state's trigger mask; clearing a row's entries holds that
        row: it draws nothing and stays as it is.
        """
        rows = state.counts.shape[:-1]
        idle = np.zeros(rows, dtype=np.int64) if rows else 0
        if not trig.any():
            return state, idle
        prob = self.probabilities(state, trig)
        gen = self._gen = generator_from_prefix(self.stream, round_index, self._gen)
        if rows and self._stacked[0] != rows[0]:
            self._stacked = (rows[0], self.edges.tile(rows[0]))
        ev = self._stacked[1] if rows else self.edges
        counts = state.counts.ravel()
        moved = _moved_per_edge(ev, counts, prob.ravel(), trig.ravel(), gen)
        total = int(moved.sum())
        if total == 0:
            return state, idle
        new_counts = counts.copy()
        np.add.at(new_counts, ev.dst, moved)
        np.subtract.at(new_counts, ev.src, moved)
        shape = state.counts.shape
        if state.tasks is None:
            new = LoadState(new_counts.reshape(shape))
        else:
            tasks, units = _move_tasks(ev, counts, state.tasks, new_counts, moved,
                                       state.node_units().ravel(), gen)
            new = LoadState._carrying(new_counts.reshape(shape), tasks, units.reshape(shape))
        return new, moved.reshape(*rows, -1).sum(axis=-1) if rows else total


def non_nash_edges(g: GraphTopology, sp: SpeedProfile, state: LoadState) -> set:
    """Directed edges (i, j) of one state with positive expected flow: its triggers."""
    if state.stacked:
        raise ConfigError("non_nash_edges takes one state, not a stack")
    ev = g.edge_arrays
    idx = np.flatnonzero(triggers(g, sp, state))
    return set(zip(ev.src[idx].tolist(), ev.dst[idx].tolist()))


def is_nash(g: GraphTopology, sp: SpeedProfile, state: LoadState):
    """True iff no edge satisfies the strict migration condition (per row for a stack).

    For weighted states this is the threshold equilibrium that stops
    Algorithm 2 (l_i - l_j <= 1/s_j on all edges), which is not necessarily a
    per-task Nash equilibrium.
    """
    nash = ~triggers(g, sp, state).any(axis=-1)
    return nash if state.stacked else bool(nash)


def is_approx_nash(g: GraphTopology, sp: SpeedProfile, state: LoadState, eps):
    """True iff (1 - eps)*l_i - l_j <= 1/s_j on every directed edge (per row
    for a stack): no edge of the eps `triggers` mask. eps is an exact rational
    in (0, 1) (`as_fraction`: "7/10" or "0.7"; a float is a ConfigError)."""
    eps = as_fraction(eps, "eps")
    if not 0 < eps < 1:
        raise ConfigError(f"eps must lie in (0, 1), got {eps}")
    ok = ~triggers(g, sp, state, eps).any(axis=-1)
    return ok if state.stacked else bool(ok)


def step_round_totals(g: GraphTopology, sp: SpeedProfile, state: LoadState,
                      params: ProtocolParams, round_index: int):
    """Execute one synchronous round; returns the new state and the number of moved tasks.

    Total task weight is conserved; with identical inputs the result is
    identical (all randomness comes from one stream keyed by (rng_seed,
    round_index)). A task on node i picks a neighbor with probability
    1/deg(i) and then moves with probability min(p_e, 1); tasks on nodes
    without a triggered out-edge draw nothing. Counts come first: the stream
    draws how many tasks leave along each edge (`_moved_per_edge`), and for
    weighted tasks then which ones, a uniform choice of movers per node
    (`_mover_tasks`).

    A bare state is the one-row case. A stack of T rows steps as one state
    of T disjoint copies of g: every row draws from the round's one stream,
    rows in order, no task crosses rows, and the moves come back per row.
    Rounds of one run should share one `RoundKernel` and call its `step`.
    """
    return RoundKernel(g, sp, params).step(state, round_index, triggers(g, sp, state))


def _moved_per_edge(ev: EdgeArrays, counts, prob, trig, gen) -> np.ndarray:
    """Tasks leaving along each directed edge this round.

    Exchangeable tasks: one multinomial row over (move-to-neighbor..., stay)
    per node with a triggered out-edge, one call per distinct degree d, rows
    of length d + 1 in ascending node order. Clamped move probabilities can
    sum to 1 + ulp, hence the floor at 0.
    """
    moved = np.zeros(len(ev.src), dtype=np.int64)
    for d, nodes, edges in ev.groups:
        active = trig[edges].any(axis=1)
        if not active.any():
            continue
        nodes, edges = nodes[active], edges[active]
        pvals = np.empty((len(nodes), d + 1))
        pvals[:, :d] = np.minimum(prob[edges], 1.0) / d
        pvals[:, d] = np.maximum(1.0 - pvals[:, :d].sum(axis=1), 0.0)
        moved[edges] = gen.multinomial(counts[nodes], pvals)[:, :d]
    return moved


def _mover_tasks(first, size, gen) -> np.ndarray:
    """Distinct task indices for movers grouped by node, a uniform ordered sample per node.

    Mover k belongs to the node whose tasks are first[k] .. first[k]+size[k]-1
    and draws one of them uniformly. While two movers hold one task, every
    holder but the first draws again, uniformly among the node's tasks that
    no mover keeps. Which movers draw again depends only on positions and
    equal draws, never on task labels, so every ordered sample of distinct
    tasks is equally likely; drawing from free tasks only ends in few passes
    even when a node's movers are nearly all of its tasks.
    """
    task = first + gen.integers(0, size)
    while True:
        order = np.argsort(task, kind="stable")     # the first holder of a task sorts first
        ranked = task[order]
        keeps = np.empty(len(task), dtype=bool)
        keeps[0] = True
        np.not_equal(ranked[1:], ranked[:-1], out=keeps[1:])
        if keeps.all():
            return task
        held = ranked[keeps]
        redraw = np.ones(len(task), dtype=bool)
        redraw[order[keeps]] = False
        lo = first[redraw]
        held_before = np.searchsorted(held, lo)
        held_in = np.searchsorted(held, lo + size[redraw]) - held_before
        # The rank-th task that no mover keeps is rank + #{j: held[j] - j <= rank}.
        rank = lo - held_before + gen.integers(0, size[redraw] - held_in)
        task[redraw] = rank + np.searchsorted(held - np.arange(len(held)), rank, "right")


def _move_tasks(ev: EdgeArrays, counts, tasks: TaskBuffer, new_counts, moved, units,
                gen) -> tuple[TaskBuffer, np.ndarray]:
    """The task buffer after the round, and its W_i in units per flat node.

    A node's first c_e1 movers take its first out-edge, the next c_e2 the
    second, and so on. Each node fills the holes its movers leave below its
    kept count by swap-with-last, lowest hole first: the lowest hole takes the
    last task that stays, the next hole the last of the rest, and so on.
    Arrivals follow the kept tasks in (source node, slot) order. A slot lies
    in its node's block and the blocks lie in node order, so sorting slots
    sorts by node too: the holes are one sort, and the arrivals one sort on
    destination * len(store) + slot.

    W_i is carried, not re-summed: units is the round-start W_i, and the new
    one is units minus each source's leavers' units plus each destination's
    arrivals' units, one exact int64 `np.add.reduceat` each over the movers
    (already grouped by source, and by destination once sorted).

    When every block fits its new count, the round writes the old buffer's
    store in place: it gathers the fillers and the arrivals first, then
    writes holes and arrivals. The old buffer keeps the overwritten slots
    with their old values as its undo diff, and its offsets as they are.
    When any block would overflow, the round packs: every block moves, in
    flat node order, into a new store, with c + c//4 + 4 slots for its new
    count c, so a packed buffer of m tasks in b blocks holds at most
    m + m//4 + 4b slots besides the spare one. The quarter keeps large
    blocks from overflowing again soon; the 4 slots do the same for blocks
    of a few tasks, where a quarter is no room at all. Only a pack
    allocates, and the old buffer then keeps its store. Apart from it, the
    round works only on the movers.
    """
    values = tasks._version.current().array
    offsets = tasks.offsets
    start = offsets[:-1]
    edge = np.repeat(np.arange(len(moved)), moved)     # movers grouped by node
    src, dst = ev.src[edge], ev.dst[edge]
    pos = _mover_tasks(start[src], counts[src], gen)
    left = np.bincount(src, minlength=len(counts))
    first_left = left.cumsum() - left
    kept = counts - left
    # Per node, the holes below the kept count (lowest first) pair with the
    # tasks at or above it that stay (last first).
    top = start + kept
    low = pos < top[src]
    holes, hole_node = np.sort(pos[low]), src[low]
    tail = _block_slots(top[left > 0], left[left > 0])     # each node's slots from `top` up
    leaves = np.zeros(len(tail), dtype=bool)
    leaves[(first_left - top)[src[~low]] + pos[~low]] = True
    staying = tail[~leaves]                              # by node, each node's slots ascending
    per_node = np.bincount(hole_node, minlength=len(counts))
    ends = per_node.cumsum()
    fillers = staying[np.repeat(2 * ends - per_node - 1, per_node) - np.arange(len(staying))]
    order = np.argsort(dst * len(values) + pos)         # (destination, source, slot)
    arrive = dst[order]
    arrivals = np.bincount(arrive, minlength=len(counts))
    first_arrival = arrivals.cumsum() - arrivals
    rank = np.arange(len(arrive)) - first_arrival[arrive]
    leaving = values[pos]
    incoming = np.concatenate((values[fillers], leaving[order]))
    units = units.copy()
    units[left > 0] -= np.add.reduceat(leaving, first_left[left > 0])
    units[arrivals > 0] += np.add.reduceat(incoming[len(fillers):], first_arrival[arrivals > 0])

    if (new_counts <= np.diff(offsets)).all():
        out = values
    else:
        offsets = _offsets(new_counts + new_counts // 4 + 4)
        out = np.zeros(int(offsets[-1]) + 1, dtype=np.int64)
        copied = kept > 0              # slice by slice: no task-sized index arrays
        for new, old, size in zip(offsets[:-1][copied].tolist(), start[copied].tolist(),
                                  kept[copied].tolist()):
            out[new:new + size] = values[old:old + size]
        holes = holes + (offsets[:-1] - start)[hole_node]
    slots = np.concatenate((holes, offsets[:-1][arrive] + kept[arrive] + rank))
    version = tasks._version.hand_on(slots, values[slots]) if out is values else _Version(out)
    out[slots] = incoming
    return TaskBuffer(version, offsets), units


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _offsets(sizes) -> np.ndarray:
    """Block offsets for blocks of the given sizes laid out in order: 0, then
    the running sums."""
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _block_slots(first, size) -> np.ndarray:
    """The slots first[k] .. first[k]+size[k]-1 of every k, in order."""
    return np.repeat(first - (size.cumsum() - size), size) + np.arange(size.sum())


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
    if m < 0:
        raise ConfigError(f"task count must be non-negative, got {m}")
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
    """count weights drawn uniformly from the multiples of 1/WEIGHT_UNITS in (0, 1]."""
    if count < 0:
        raise ConfigError(f"task count must be non-negative, got {count}")
    gen = keyed_generator(seed, STREAM_WEIGHTS)
    return tuple((gen.integers(1, WEIGHT_UNITS, count, endpoint=True) / WEIGHT_UNITS).tolist())


def weighted_all_on_one(weights: Iterable[float], n: int, node: int = 0) -> LoadState:
    if not 0 <= node < n:
        raise ConfigError(f"node {node} out of range for n={n}")
    lists: list[tuple[float, ...]] = [()] * n
    lists[node] = tuple(weights)
    return LoadState.weighted(lists)


def weighted_random_placement(weights: Iterable[float], n: int, seed: int) -> LoadState:
    """Each task picks a node independently and uniformly, keeping input order per node."""
    weights = np.fromiter(weights, dtype=float)
    node = keyed_generator(seed, STREAM_PLACEMENT).integers(0, n, size=len(weights))
    by_node = weights[np.argsort(node, kind="stable")]
    return LoadState.weighted(np.split(by_node, np.cumsum(np.bincount(node, minlength=n))[:-1]))


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
