"""Fixed corpus of small instances for the lemma-verification suite.

Graphs: K2, K4, C4, C6, path with 5 nodes, and the 3-cube. Speed patterns:
uniform, and the integer patterns (1,2) / (1,3) repeated cyclically and
truncated to n (granularity 1 in all three). States per instance: everything
on node 0, a seeded random placement, and a near-balanced placement; task
count m = 3n + 1 so the random and all-on-one states are never balanced.
The corpus is deterministic: the placement and weight seeds are constants.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from fractions import Fraction

from .graphs import GraphTopology, make_graph
from .protocol import (
    LoadState,
    all_on_one_state,
    near_balanced_state,
    random_placement_state,
    random_task_weights,
    weighted_all_on_one,
    weighted_near_balanced,
    weighted_random_placement,
)
from .rng import derive_seed
from .spectral import SpeedProfile

CORPUS_SEED = 1009


@dataclass(frozen=True)
class CorpusCase:
    name: str
    graph_name: str
    graph: GraphTopology
    speeds: SpeedProfile
    state: LoadState


def corpus_graphs() -> list[tuple[str, GraphTopology]]:
    return [
        ("K2", make_graph("complete", n=2)),
        ("K4", make_graph("complete", n=4)),
        ("C4", make_graph("cycle", n=4)),
        ("C6", make_graph("cycle", n=6)),
        ("path5", make_graph("path", n=5)),
        ("Q3", make_graph("hypercube", dim=3)),
    ]


SPEED_PATTERNS = (
    ("uniform", (1,)),
    ("alt12", (1, 2)),
    ("alt13", (1, 3)),
)


def corpus_speeds(n: int) -> list[tuple[str, SpeedProfile]]:
    out = []
    for name, pattern in SPEED_PATTERNS:
        values = [Fraction(pattern[i % len(pattern)]) for i in range(n)]
        out.append((name, SpeedProfile.from_rationals(values)))
    return out


def corpus_task_count(n: int) -> int:
    return 3 * n + 1


def _uniform_states(g: GraphTopology, sp: SpeedProfile, tag: str) -> list[tuple[str, LoadState]]:
    m = corpus_task_count(g.node_count)
    seed = derive_seed(CORPUS_SEED, zlib.crc32(tag.encode()))
    return [
        ("all-on-one", all_on_one_state(g.node_count, m)),
        ("random", random_placement_state(g.node_count, m, seed)),
        ("near-balanced", near_balanced_state(sp, m)),
    ]


def _weighted_states(g: GraphTopology, sp: SpeedProfile, tag: str) -> list[tuple[str, LoadState]]:
    m = corpus_task_count(g.node_count)
    seed = derive_seed(CORPUS_SEED, zlib.crc32(tag.encode()))
    weights = random_task_weights(m, seed)
    return [
        ("all-on-one", weighted_all_on_one(weights, g.node_count)),
        ("random", weighted_random_placement(weights, g.node_count, seed)),
        ("near-balanced", weighted_near_balanced(weights, sp)),
    ]


def default_corpus() -> list[CorpusCase]:
    """The full corpus: every graph x speed pattern x task mode x state."""
    cases: list[CorpusCase] = []
    for gname, g in corpus_graphs():
        for sname, sp in corpus_speeds(g.node_count):
            tag = f"{gname}/{sname}"
            for mode, states in (("uniform", _uniform_states(g, sp, tag)),
                                 ("weighted", _weighted_states(g, sp, tag))):
                for state_name, state in states:
                    cases.append(CorpusCase(
                        name=f"{tag}/{mode}/{state_name}",
                        graph_name=gname,
                        graph=g,
                        speeds=sp,
                        state=state,
                    ))
    return cases
