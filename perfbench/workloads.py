"""Workload definitions and their seeded input generators.

Every input the program receives (run configs, the verification corpus) is
generated here from the workload seed with Python's own `random.Random`, so
the same seed always yields byte-identical inputs and nothing in the program
is consulted to build them. Each workload records why it is in the set and
which layers it loads.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

RUN = "run"
VERIFY = "verify"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # RUN: `netbalance run CONFIG`; VERIFY: the lemma suite on a corpus
    why: str           # one line, as in BENCHMARK.json
    loads: str         # the layers the workload loads
    # Hitting-time window (median over trials) for the convergence check; None
    # for fixed-rounds and verification workloads.
    hit_window: tuple[float, float] | None = None


WORKLOADS = {w.name: w for w in (
    Workload(
        "run-uniform-torus", RUN,
        "torus2d 32x32, 2^24 uniform tasks, random integer speeds, fixed rounds: "
        "the per-node round kernel and its per-node generators do almost all the work",
        "protocol round kernel (uniform multinomial path, exact integer trigger with "
        "speed multipliers), rng per-node generators; dense eigh spectral work in setup"),
    Workload(
        "run-weighted-cycle", RUN,
        "cycle 8, speeds 1,3/2,1,2,..., 16384 weighted tasks on one node, exact-ne stop: "
        "per-task actors, float triggers and task-list rebuilding every round",
        "protocol weighted kernel (per-task picks and coins, tuple-of-tuples rebuild), "
        "observe step once per round",
        hit_window=(380.0, 760.0)),
    Workload(
        "run-readme-trace", RUN,
        "the README config (cycle 8, 512 tasks, 100 trials, psi-threshold, trace on): "
        "many short trials where observe, snapshot and trace writing weigh heavily",
        "analysis trial loop, observe/snapshot potentials, cli trace CSV writing; "
        "where a batched-trial engine shows",
        hit_window=(75.0, 120.0)),
    Workload(
        "verify-corpus", VERIFY,
        "verify_lemma_suite over a seeded corpus of 180 cases (5 families, n 8..64, "
        "rational speeds): exact Fraction oracles dominate, no stepping",
        "potentials exact oracles (node_change_moments), analysis verify_case; "
        "kernel work should leave it unchanged"),
)}


@dataclass(frozen=True)
class Inputs:
    """Files generated for one (workload, seed); paths are inside the work dir."""

    work: Path
    setup_args: list[str]        # command arguments of the zero-work set-up run
    work_args: list[str]         # command arguments of the measured run
    out_dir: Path                # where the measured run writes its outputs
    trials: int = 0                       # run-*: trials per run
    trace_files: bool = False             # run-*: whether trace CSVs are written
    total_weight: float | None = None     # run-*: W, known independently of the program
    corpus: dict | None = None            # verify-corpus: the corpus as written


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _config_text(entries: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in entries.items())


def _run_inputs(work: Path, entries: dict, total_weight: float) -> Inputs:
    """Write the measured config and its zero-round set-up twin."""
    setup = dict(entries)
    setup.update({"run.trials": 1, "run.stop": "fixed-rounds", "run.rounds": 0,
                  "output.trace": "false"})
    (work / "setup.cfg").write_text(_config_text(setup), encoding="utf-8")
    (work / "run.cfg").write_text(_config_text(entries), encoding="utf-8")
    out = work / "out"
    return Inputs(
        work=work,
        setup_args=["run", str(work / "setup.cfg"), "--out-dir", str(work / "setup_out")],
        work_args=["run", str(work / "run.cfg"), "--out-dir", str(out)],
        out_dir=out,
        trials=entries["run.trials"],
        trace_files=entries["output.trace"] == "true",
        total_weight=total_weight,
    )


# --------------------------------------------------------------------------
# run-* workloads


def uniform_torus(work: Path, seed: int, *, side: int = 32, tasks: int = 1 << 24,
                  rounds: int = 50) -> Inputs:
    rng = _rng("run-uniform-torus", seed)
    entries = {
        "graph.family": "torus2d", "graph.rows": side, "graph.cols": side,
        "speeds.mode": "random-integers", "speeds.max": 4,
        "speeds.seed": rng.getrandbits(32),
        "tasks.mode": "uniform", "tasks.count": tasks, "tasks.placement": "random",
        "run.trials": 1, "run.round_cap": 100000,
        "run.stop": "fixed-rounds", "run.rounds": rounds,
        "run.master_seed": rng.getrandbits(32), "output.trace": "false",
    }
    return _run_inputs(work, entries, float(tasks))


WEIGHTED_SPEEDS = "1,3/2,1,2,1,3/2,1,2"


def weighted_cycle(work: Path, seed: int, *, tasks: int = 16384,
                   trials: int = 8) -> Inputs:
    rng = _rng("run-weighted-cycle", seed)
    # Weights uniform on (0, 1], drawn here so that W is known to the checks.
    weights = [1.0 - rng.random() for _ in range(tasks)]
    entries = {
        "graph.family": "cycle", "graph.n": 8,
        "speeds.mode": "explicit", "speeds.values": WEIGHTED_SPEEDS,
        "tasks.mode": "explicit-weights",
        "tasks.weights": "0:" + ",".join(repr(w) for w in weights),
        # alpha pinned at today's default 4*s_max, so a change of the default
        # for the exact-ne stop does not change what this workload measures.
        "protocol.alpha": "8",
        "run.trials": trials, "run.round_cap": 100000, "run.stop": "exact-ne",
        "run.master_seed": rng.getrandbits(32), "output.trace": "false",
    }
    total = 0.0
    for w in weights:      # the same left-to-right sum the program forms
        total += w
    return _run_inputs(work, entries, total)


def readme_trace(work: Path, seed: int, *, trials: int = 100) -> Inputs:
    rng = _rng("run-readme-trace", seed)
    entries = {
        "graph.family": "cycle", "graph.n": 8,
        "speeds.mode": "explicit", "speeds.values": "1,3/2,1,2,1,3/2,1,2",
        "tasks.mode": "uniform", "tasks.count": 512, "tasks.placement": "all-on-one",
        "run.trials": trials, "run.round_cap": 100000, "run.stop": "psi-threshold",
        "run.master_seed": rng.getrandbits(32),
        "output.directory": "out", "output.trace": "true",
    }
    return _run_inputs(work, entries, 512.0)


# --------------------------------------------------------------------------
# verify-corpus


def _edges(family: str, size: tuple[int, ...]) -> tuple[int, list[list[int]]]:
    """Node count and edge list in the package's labelling conventions."""
    es = set()
    if family == "cycle":
        (n,) = size
        es = {tuple(sorted((u, (u + 1) % n))) for u in range(n)}
    elif family == "complete":
        (n,) = size
        es = {(u, v) for u in range(n) for v in range(u + 1, n)}
    elif family == "hypercube":
        (dim,) = size
        n = 1 << dim
        es = {tuple(sorted((u, u ^ (1 << b)))) for u in range(n) for b in range(dim)}
    else:  # torus2d / grid2d, row-major
        rows, cols = size
        n = rows * cols
        wrap = family == "torus2d"
        for r in range(rows):
            for c in range(cols):
                u = r * cols + c
                if wrap or r + 1 < rows:
                    es.add(tuple(sorted((u, ((r + 1) % rows) * cols + c))))
                if wrap or c + 1 < cols:
                    es.add(tuple(sorted((u, r * cols + (c + 1) % cols))))
    return n, [list(e) for e in sorted(es)]


#: Fixed sizes (n from 8 to 64) and speed patterns, so that the work per
#: corpus hardly depends on the seed; the seed picks the rotation of each
#: speed pattern, the placements and the weights.
CORPUS_GRAPHS = (
    ("cycle", (8,)), ("cycle", (24,)), ("cycle", (64,)),
    ("torus2d", (3, 3)), ("torus2d", (4, 6)), ("torus2d", (8, 8)),
    ("grid2d", (2, 4)), ("grid2d", (4, 6)), ("grid2d", (8, 8)),
    ("hypercube", (3,)), ("hypercube", (4,)), ("hypercube", (6,)),
    ("complete", (8,)), ("complete", (16,)), ("complete", (32,)),
)

#: Rational speed patterns with granularity below 1 and minimum 1.
SPEED_PATTERNS = (
    ("1", "3/2"), ("1", "2", "5/3"), ("1", "4/3"), ("1", "5/4", "3/2"),
    ("1", "3/2", "2"), ("1", "5/3", "4/3", "2"),
)


def _weights(rng: random.Random, m: int) -> list[float]:
    return [1.0 - rng.random() for _ in range(m)]


def corpus(seed: int, graphs=CORPUS_GRAPHS, patterns_per_graph: int = 3) -> dict:
    """Cases: every graph x 3 speed patterns x 4 states.

    States: m = 3n+1 all on one seeded node and m = n^2 placed uniformly at
    random, each once with unit tasks and once with weights uniform on (0, 1].
    """
    rng = _rng("verify-corpus", seed)
    out_graphs, cases = {}, []
    for k, (family, size) in enumerate(graphs):
        gname = f"{family}{'x'.join(map(str, size))}"
        n, edges = _edges(family, size)
        out_graphs[gname] = {"n": n, "edges": edges}
        for j in range(patterns_per_graph):
            pattern = SPEED_PATTERNS[(k + 2 * j) % len(SPEED_PATTERNS)]
            shift = rng.randrange(len(pattern))
            speeds = [pattern[(i + shift) % len(pattern)] for i in range(n)]
            tag = f"{gname}/{'-'.join(pattern).replace('/', '_')}"
            for m in (3 * n + 1, n * n):
                if m == 3 * n + 1:
                    owners = [rng.randrange(n)] * m
                else:
                    owners = [rng.randrange(n) for _ in range(m)]
                counts = [0] * n
                for o in owners:
                    counts[o] += 1
                lists = [[] for _ in range(n)]
                for o, w in zip(owners, _weights(rng, m)):
                    lists[o].append(w)
                cases.append({"name": f"{tag}/uniform/m{m}", "graph": gname,
                              "speeds": speeds,
                              "state": {"mode": "uniform", "counts": counts}})
                cases.append({"name": f"{tag}/weighted/m{m}", "graph": gname,
                              "speeds": speeds,
                              "state": {"mode": "weighted", "tasks": lists}})
    return {"graphs": out_graphs, "cases": cases}


def verify_corpus(work: Path, seed: int, *, graphs=CORPUS_GRAPHS) -> Inputs:
    spec = corpus(seed, graphs)
    path = work / "corpus.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    report = work / "out" / "report.json"
    return Inputs(
        work=work,
        setup_args=["verify-corpus", str(path), str(work / "setup_report.json"),
                    "--setup-only"],
        work_args=["verify-corpus", str(path), str(report)],
        out_dir=report.parent,
        corpus=spec,
    )


GENERATORS = {
    "run-uniform-torus": uniform_torus,
    "run-weighted-cycle": weighted_cycle,
    "run-readme-trace": readme_trace,
    "verify-corpus": verify_corpus,
}

#: Tiny sizes for --smoke: every code path, a few seconds in all.
SMOKE_SIZES = {
    "run-uniform-torus": {"side": 4, "tasks": 4096, "rounds": 3},
    "run-weighted-cycle": {"tasks": 256, "trials": 2},
    "run-readme-trace": {"trials": 3},
    "verify-corpus": {"graphs": CORPUS_GRAPHS[:2]},
}


def generate(name: str, seed: int, work: Path, smoke: bool = False) -> Inputs:
    work.mkdir(parents=True, exist_ok=True)
    kwargs = SMOKE_SIZES[name] if smoke else {}
    return GENERATORS[name](work, seed, **kwargs)
