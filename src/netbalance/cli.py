"""Batch front end: config-driven runs, spectral reports, lemma verification.

Configs are flat `section.key = value` text files (see ``CONFIG_KEYS``); a
fully populated config plus its master seed determines all outputs bit for
bit. Floats in emitted files are formatted with 17 significant digits, files
are UTF-8 with LF endings, and nothing time- or host-dependent is written.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 internal/numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import analysis
from .analysis import StopRule, TrialResult, hitting_rounds
from .corpus import default_corpus
from .errors import ConfigError, EigensolverError
from .graphs import GraphTopology, load_edge_list, make_graph
from .potentials import critical_value, gamma_factor
from .protocol import (
    LoadState,
    ProtocolParams,
    all_on_one_state,
    exact_ne_alpha,
    random_placement_state,
    random_task_weights,
    resolve_alpha,
    weighted_all_on_one,
    weighted_random_placement,
)
from .rng import STREAM_PLACEMENT, STREAM_WEIGHTS, derive_seed
from .spectral import SpeedProfile, lambda2_of, spectral_summary

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    graph_family: str = ""
    graph_n: int | None = None
    graph_rows: int | None = None
    graph_cols: int | None = None
    graph_dim: int | None = None
    graph_edge_list: str | None = None
    speeds_mode: str = "uniform"
    speeds_values: str | None = None
    speeds_max: int | None = None
    speeds_seed: int | None = None
    tasks_mode: str = "uniform"
    tasks_count: int | None = None
    tasks_placement: str = "all-on-one"
    tasks_node: int = 0
    tasks_counts: str | None = None
    tasks_weights: str | None = None
    protocol_alpha: Fraction | None = None
    protocol_eps: Fraction | None = None
    run_trials: int = 1
    run_round_cap: int = 100000
    run_stop: str = ""
    run_rounds: int | None = None
    run_master_seed: int | None = None
    output_directory: str = "out"
    output_trace: bool = False


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _ser_bool(value: bool) -> str:
    return "true" if value else "false"


#: (parse, serialize) per field type, `| None` aside.
_CODECS = {"str": (str, str), "int": (int, str), "Fraction": (Fraction, str),
           "bool": (_parse_bool, _ser_bool)}

#: key -> (attribute, parse, serialize). A key is its field's name with the
#: first "_" as "."; field order fixes the key order of the config block that
#: `run` writes to summary.json.
CONFIG_KEYS = {f.name.replace("_", ".", 1): (f.name, *_CODECS[f.type.removesuffix(" | None")])
               for f in fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        attr, parse, _ = CONFIG_KEYS[key]
        if attr in values:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        try:
            values[attr] = parse(val)
        except ConfigError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"config line {lineno}: bad value for {key}: {exc}") from exc
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


# ---------------------------------------------------------------------------
# Building experiment objects from a config


def build_graph(cfg: ExperimentConfig, base_dir: Path) -> GraphTopology:
    fam = cfg.graph_family
    if not fam:
        raise ConfigError("graph.family is required")
    if fam == "explicit":
        if not cfg.graph_edge_list:
            raise ConfigError("explicit graphs need graph.edge_list")
        return load_edge_list(base_dir / cfg.graph_edge_list)
    return make_graph(fam, n=cfg.graph_n, rows=cfg.graph_rows, cols=cfg.graph_cols,
                      dim=cfg.graph_dim)


def build_speeds(cfg: ExperimentConfig, n: int) -> SpeedProfile:
    if cfg.speeds_mode == "uniform":
        return SpeedProfile.uniform(n)
    if cfg.speeds_mode == "explicit":
        if not cfg.speeds_values:
            raise ConfigError("explicit speeds need speeds.values")
        parts = [p.strip() for p in cfg.speeds_values.split(",")]
        if len(parts) != n:
            raise ConfigError(f"speeds.values has {len(parts)} entries for {n} nodes")
        return SpeedProfile.from_rationals(parts)
    if cfg.speeds_mode == "random-integers":
        if cfg.speeds_max is None:
            raise ConfigError("random-integers speeds need speeds.max")
        seed = cfg.speeds_seed
        if seed is None:
            seed = derive_seed(_master_seed(cfg), STREAM_WEIGHTS, 17)
        return SpeedProfile.random_integers(n, cfg.speeds_max, seed)
    raise ConfigError(f"unknown speeds.mode {cfg.speeds_mode!r}")


def _master_seed(cfg: ExperimentConfig) -> int:
    if cfg.run_master_seed is None:
        raise ConfigError("run.master_seed is required")
    return cfg.run_master_seed


def _parse_weight_lists(raw: str, n: int) -> list[list[float]]:
    lists: dict[int, list[float]] = {}
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        node_part, _, weight_part = chunk.partition(":")
        try:
            node = int(node_part)
            weights = [float(w) for w in weight_part.split(",") if w.strip()]
        except ValueError as exc:
            raise ConfigError(f"tasks.weights entry {chunk!r}: {exc}") from exc
        if not 0 <= node < n:
            raise ConfigError(f"tasks.weights node {node} out of range")
        if node in lists:
            raise ConfigError(f"tasks.weights lists node {node} twice")
        lists[node] = weights
    return [lists.get(i, []) for i in range(n)]


def build_init_spec(cfg: ExperimentConfig, g: GraphTopology):
    """Return trial_index -> LoadState, resolving placement and weight draws."""
    n = g.node_count
    master = _master_seed(cfg)
    mode = cfg.tasks_mode
    if mode == "explicit-counts":
        if not cfg.tasks_counts:
            raise ConfigError("explicit-counts tasks need tasks.counts")
        try:
            counts = [int(c) for c in cfg.tasks_counts.split(",")]
        except ValueError as exc:
            raise ConfigError(f"tasks.counts: {exc}") from exc
        if len(counts) != n:
            raise ConfigError(f"tasks.counts has {len(counts)} entries for {n} nodes")
        state = LoadState.uniform(counts)
        return lambda t: state
    if mode == "explicit-weights":
        if not cfg.tasks_weights:
            raise ConfigError("explicit-weights tasks need tasks.weights")
        state = LoadState.weighted(_parse_weight_lists(cfg.tasks_weights, n))
        return lambda t: state
    if cfg.tasks_count is None:
        raise ConfigError(f"tasks.mode {mode!r} needs tasks.count")
    m = cfg.tasks_count
    if mode == "uniform":
        if cfg.tasks_placement == "all-on-one":
            state = all_on_one_state(n, m, cfg.tasks_node)
            return lambda t: state
        if cfg.tasks_placement == "random":
            return lambda t: random_placement_state(
                n, m, derive_seed(master, STREAM_PLACEMENT, t))
        raise ConfigError(f"unknown tasks.placement {cfg.tasks_placement!r}")
    if mode == "weighted-random":
        weights = random_task_weights(m, derive_seed(master, STREAM_WEIGHTS))
        if cfg.tasks_placement == "all-on-one":
            state = weighted_all_on_one(weights, n, cfg.tasks_node)
            return lambda t: state
        if cfg.tasks_placement == "random":
            return lambda t: weighted_random_placement(
                weights, n, derive_seed(master, STREAM_PLACEMENT, t))
        raise ConfigError(f"unknown tasks.placement {cfg.tasks_placement!r}")
    raise ConfigError(f"unknown tasks.mode {mode!r}")


def build_params(cfg: ExperimentConfig, sp: SpeedProfile) -> ProtocolParams:
    """Protocol knobs; alpha defaults to 4*s_max, or to 4*s_max/eps for unit
    tasks under the exact-ne stop, where the exact-equilibrium cap is proven.

    The tasks pick the algorithm: unit tasks run Algorithm 1, weighted ones
    Algorithm 2."""
    unit_tasks = cfg.tasks_mode in ("uniform", "explicit-counts")
    alpha = cfg.protocol_alpha
    if alpha is None and cfg.run_stop == "exact-ne" and unit_tasks:
        alpha = exact_ne_alpha(sp)
    return ProtocolParams(rng_seed=_master_seed(cfg), alpha=alpha)


def build_stop(cfg: ExperimentConfig) -> StopRule:
    kind = cfg.run_stop
    if not kind:
        raise ConfigError("run.stop is required")
    if kind == "approx-ne":
        if cfg.protocol_eps is None:
            raise ConfigError("approx-ne stop needs protocol.eps")
        return StopRule(kind, eps=cfg.protocol_eps)
    if kind == "fixed-rounds":
        if cfg.run_rounds is None:
            raise ConfigError("fixed-rounds stop needs run.rounds")
        return StopRule(kind, rounds=cfg.run_rounds)
    return StopRule(kind)


# ---------------------------------------------------------------------------
# Deterministic JSON-compatible rendering


def render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if value != value or value in (float("inf"), float("-inf")):
            return json.dumps(str(value))
        return fmt17(value)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}'
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot render {type(obj)!r}")


# ---------------------------------------------------------------------------
# Commands


def _trial_payload(res: TrialResult, stop: StopRule) -> dict:
    snap = res.final_snapshot
    return {
        "trial": res.trial_id,
        "seed": res.seed,
        "rounds_to_psi_threshold": res.rounds_to_psi_threshold,
        "rounds_to_approx_ne": res.rounds_to_approx_ne,
        "rounds_to_exact_ne": res.rounds_to_exact_ne,
        "hit_rounds": hitting_rounds(res, stop),
        "rounds_executed": res.rounds_executed,
        "truncated": res.truncated,
        "final": {
            "round": snap.round, "phi0": snap.phi0, "phi1": snap.phi1,
            "psi0": snap.psi0, "psi1": snap.psi1, "l_delta": snap.l_delta,
        },
    }


def cmd_run(config_path, out_dir_override=None) -> int:
    cfg = load_config(config_path)
    base = Path(config_path).resolve().parent
    g = build_graph(cfg, base)
    sp = build_speeds(cfg, g.node_count)
    init_spec = build_init_spec(cfg, g)
    params = build_params(cfg, sp)
    stop = build_stop(cfg)

    # lambda2 before the trials, so that an explicit graph too large for it fails fast.
    lam2 = lambda2_of(g)
    psi_c = critical_value(g, sp, lam2)
    summary = analysis.measure_convergence(
        g, sp, init_spec, params, stop, cfg.run_trials, cfg.run_round_cap,
        psi_threshold=4.0 * psi_c, approx_eps=cfg.protocol_eps,
        collect_trace=cfg.output_trace)

    # Made only now, so that a config error caught above leaves no directory.
    out_dir = Path(out_dir_override) if out_dir_override else base / cfg.output_directory
    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.output_trace:
        for res in summary.results:
            path = out_dir / f"trace_{res.trial_id}.csv"
            lines = [",".join(analysis.TRACE_HEADER)]
            for row in res.trace:
                rnd, psi0, psi1, l_delta, max_load, min_load, moves = row
                lines.append(",".join([
                    str(rnd), fmt17(psi0), fmt17(psi1), fmt17(l_delta),
                    fmt17(max_load), fmt17(min_load), str(moves)]))
            path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

    payload = {
        "config": {k: CONFIG_KEYS[k][2](getattr(cfg, CONFIG_KEYS[k][0]))
                   for k in CONFIG_KEYS if getattr(cfg, CONFIG_KEYS[k][0]) is not None},
        "graph": {
            "family": cfg.graph_family, "n": g.node_count, "edges": g.edge_count,
            "max_degree": g.max_degree, "diameter": g.diameter,
        },
        "speeds": {
            "values": [str(s) for s in sp.speeds],
            "s_max": str(sp.s_max), "granularity": str(sp.granularity),
        },
        "spectral": {"lambda2": lam2},
        "alpha": str(resolve_alpha(params, sp)),
        "psi_c": psi_c,
        "psi_threshold": 4.0 * psi_c,
        "gamma": gamma_factor(g, sp, lam2),
        "stop": stop.kind,
        "trials": cfg.run_trials,
        "round_cap": cfg.run_round_cap,
        "hitting": {
            "median": summary.median_rounds, "mean": summary.mean_rounds,
            "q25": summary.q25_rounds, "q75": summary.q75_rounds,
        },
        "fraction_truncated": summary.fraction_truncated,
        "per_trial": [_trial_payload(r, stop) for r in summary.results],
    }
    (out_dir / "summary.json").write_text(render_json(payload) + "\n",
                                          encoding="utf-8", newline="\n")
    return EXIT_OK


def cmd_spectra(args) -> int:
    cfg = ExperimentConfig(
        graph_family="explicit" if args.edge_list else args.family, graph_n=args.n,
        graph_rows=args.rows, graph_cols=args.cols, graph_dim=args.dim,
        graph_edge_list=args.edge_list,
        speeds_mode="explicit" if args.speeds else "uniform", speeds_values=args.speeds)
    g = build_graph(cfg, Path())
    sp = build_speeds(cfg, g.node_count)
    summary = spectral_summary(g, sp)
    lam2 = summary.lambda2
    print(f"graph: {cfg.graph_family} n={g.node_count} edges={g.edge_count} "
          f"max_degree={g.max_degree} diameter={g.diameter}")
    print(f"speeds: {', '.join(str(s) for s in sp.speeds)} "
          f"(s_max={sp.s_max}, granularity={sp.granularity})")
    print(f"lambda2 = {fmt17(lam2)}")
    print(f"mu2 = {fmt17(summary.mu2)}")
    print(f"psi_c = {fmt17(critical_value(g, sp, lam2))}")
    print(f"gamma = {fmt17(gamma_factor(g, sp, lam2))}")
    for b in summary.bound_report:
        status = "pass" if b.holds else "FAIL"
        print(f"bound {b.name}: {fmt17(b.lhs)} <= {fmt17(b.rhs)}  {status}")
    return EXIT_OK if summary.all_hold else EXIT_VERIFICATION


def cmd_verify(args) -> int:
    cases = default_corpus()
    report = analysis.verify_lemma_suite(cases)
    payload = {
        "passed": report.passed,
        "cases": len(cases),
        "checks": [
            {
                "lemma": c.lemma, "case": c.case, "lhs": c.lhs, "rhs": c.rhs,
                "margin": c.margin, "passed": c.passed,
                **({"counterexample": c.state_payload} if c.state_payload else {}),
            }
            for c in report.checks
        ],
    }
    Path(args.report).write_text(render_json(payload) + "\n", encoding="utf-8",
                                 newline="\n")
    failures = report.failures()
    print(f"lemma checks: {len(report.checks)} evaluated, {len(failures)} failed "
          f"(default corpus); report written to {args.report}")
    for c in failures[:10]:
        print(f"  FAIL {c.lemma} on {c.case}: lhs={fmt17(c.lhs)} rhs={fmt17(c.rhs)}")
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netbalance",
        description="Selfish neighborhood load balancing: simulation and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment described by a config file")
    p_run.add_argument("config", help="path to a flat key=value config file")
    p_run.add_argument("--out-dir", default=None,
                       help="override output.directory from the config")

    p_spec = sub.add_parser("spectra", help="print the spectral report for a graph")
    p_spec.add_argument("--family", default="complete")
    p_spec.add_argument("--n", type=int, default=None)
    p_spec.add_argument("--rows", type=int, default=None)
    p_spec.add_argument("--cols", type=int, default=None)
    p_spec.add_argument("--dim", type=int, default=None)
    p_spec.add_argument("--edge-list", default=None, help="explicit edge-list file")
    p_spec.add_argument("--speeds", default=None,
                        help="comma-separated rational speeds, e.g. '1,3/2,2'")

    p_ver = sub.add_parser("verify", help="run the lemma-verification suite")
    p_ver.add_argument("--report", default="verify_report.json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out_dir)
        if args.command == "spectra":
            return cmd_spectra(args)
        return cmd_verify(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EigensolverError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
