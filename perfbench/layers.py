"""Per-layer metrics from the spans of one traced run.

Each metric is built from spans named after the layer that owns the traced
function (see `tracer.TARGETS`). A metric whose spans come from a target
that could not be wrapped is unmeasured (value None); a layer the workload
never calls reads 0.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from tracer import TARGETS

STEP = "protocol.step_round_totals"
GEN = "rng.generator_from_prefix"
TRIAL = "analysis.run_trial"
CASE = "analysis.verify_case"
MOMENTS = "potentials.node_change_moments"
ORACLES = ("potentials.exact_expected_psi0_drop", "potentials.exact_expected_psi1_drop",
           "potentials.exact_variance_sum", "potentials.phi1_drop_routes")
BUILDS = ("cli.build_graph", "cli.build_speeds", "cli.build_init_spec",
          "cli.build_params", "cli.build_stop")


@dataclass
class SpanStats:
    durations: list[float] = field(default_factory=list)
    self_s: float = 0.0
    count: int = 0
    zero_count: int = 0     # spans whose work count was 0

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def total_s(self) -> float:
        return sum(self.durations)


def aggregate(trace: dict) -> dict[str, SpanStats]:
    stats: dict[str, SpanStats] = {name: SpanStats() for name in trace["names"]}
    names = trace["names"]
    for name_id, start, end, _parent, _request, count, child_s in trace["spans"]:
        s = stats[names[name_id]]
        s.durations.append(end - start)
        s.self_s += end - start - child_s
        s.count += count
        s.zero_count += count == 0
    return stats


def tail_percentile(values: list[float]) -> float:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it, else the maximum."""
    if not values:
        return 0.0
    ordered = sorted(values)
    for q in (99.9, 99.0, 90.0):
        if len(ordered) * (100.0 - q) / 100.0 >= 10:
            return ordered[min(len(ordered) - 1, int(len(ordered) * q / 100.0))]
    return ordered[-1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: name -> (unit, span names it needs, function of (stats, extra)).
#: `extra` carries what is measured outside the spans: bytes written,
#: hitting-time median, trace overhead.
METRICS = {
    "protocol.step_calls": ("count", (STEP,), lambda s, x: s[STEP].calls),
    "protocol.step_s": ("s", (STEP,), lambda s, x: s[STEP].total_s),
    "protocol.step_us_p50": ("us", (STEP,), lambda s, x: 1e6 * statistics.median(
        s[STEP].durations) if s[STEP].durations else 0.0),
    "protocol.step_us_tail": ("us", (STEP,),
                              lambda s, x: 1e6 * tail_percentile(s[STEP].durations)),
    "protocol.task_moves": ("count", (STEP,), lambda s, x: s[STEP].count),
    "protocol.moves_per_s": ("1/s", (STEP,),
                             lambda s, x: _ratio(s[STEP].count, s[STEP].total_s)),
    "protocol.idle_step_frac": ("ratio", (STEP,),
                                lambda s, x: _ratio(s[STEP].zero_count, s[STEP].calls)),
    "rng.generators": ("count", (GEN,), lambda s, x: s[GEN].calls),
    "rng.generators_per_step": ("1/step", (GEN, STEP),
                                lambda s, x: _ratio(s[GEN].calls, s[STEP].calls)),
    "rng.generator_s": ("s", (GEN,), lambda s, x: s[GEN].total_s),
    "protocol.is_nash_calls": ("count", ("protocol.is_nash",),
                               lambda s, x: s["protocol.is_nash"].calls),
    "protocol.is_nash_s": ("s", ("protocol.is_nash",),
                           lambda s, x: s["protocol.is_nash"].total_s),
    "protocol.approx_nash_s": ("s", ("protocol.is_approx_nash",),
                               lambda s, x: s["protocol.is_approx_nash"].total_s),
    "potentials.psi0_calls": ("count", ("potentials.psi0_value",),
                              lambda s, x: s["potentials.psi0_value"].calls),
    "potentials.psi0_s": ("s", ("potentials.psi0_value",),
                          lambda s, x: s["potentials.psi0_value"].total_s),
    "potentials.snapshot_calls": ("count", ("potentials.snapshot",),
                                  lambda s, x: s["potentials.snapshot"].calls),
    "potentials.snapshot_s": ("s", ("potentials.snapshot",),
                              lambda s, x: s["potentials.snapshot"].total_s),
    "analysis.trials": ("count", (TRIAL,), lambda s, x: s[TRIAL].calls),
    "analysis.run_trial_s": ("s", (TRIAL,), lambda s, x: s[TRIAL].total_s),
    "analysis.trial_self_s": ("s", (TRIAL,), lambda s, x: s[TRIAL].self_s),
    "analysis.hit_rounds_median": ("rounds", (), lambda s, x: x["hit_rounds_median"]),
    "cli.cmd_self_s": ("s", ("cli.cmd_run",), lambda s, x: s["cli.cmd_run"].self_s),
    "cli.bytes_written": ("B", (), lambda s, x: x["bytes_written"]),
    "graphs.build_s": ("s", ("cli.build_graph",),
                       lambda s, x: s["cli.build_graph"].total_s),
    "cli.build_s": ("s", BUILDS, lambda s, x: sum(s[b].total_s for b in BUILDS)),
    "spectral.lambda2_s": ("s", ("spectral.lambda2_of",),
                           lambda s, x: s["spectral.lambda2_of"].total_s),
    "spectral.summary_s": ("s", ("spectral.spectral_summary",),
                           lambda s, x: s["spectral.spectral_summary"].total_s),
    "spectral.eigh_calls": ("count", ("spectral.eigen_decomposition",),
                            lambda s, x: s["spectral.eigen_decomposition"].calls),
    "spectral.eigh_s": ("s", ("spectral.eigen_decomposition",),
                        lambda s, x: s["spectral.eigen_decomposition"].total_s),
    "potentials.oracle_calls": ("count", ORACLES,
                                lambda s, x: sum(s[o].calls for o in ORACLES)),
    "potentials.oracle_s": ("s", ORACLES, lambda s, x: sum(s[o].total_s for o in ORACLES)),
    "potentials.moments_calls": ("count", (MOMENTS,), lambda s, x: s[MOMENTS].calls),
    "potentials.moments_per_case": ("1/case", (MOMENTS, CASE),
                                    lambda s, x: _ratio(s[MOMENTS].calls, s[CASE].calls)),
    "potentials.moments_s": ("s", (MOMENTS,), lambda s, x: s[MOMENTS].total_s),
    "analysis.verify_case_calls": ("count", (CASE,), lambda s, x: s[CASE].calls),
    "analysis.verify_case_s": ("s", (CASE,), lambda s, x: s[CASE].total_s),
    "analysis.verify_self_s": ("s", (CASE,), lambda s, x: s[CASE].self_s),
    "analysis.checks": ("count", (CASE,), lambda s, x: s[CASE].count),
    "trace.overhead_frac": ("ratio", (), lambda s, x: x["overhead_frac"]),
}


def layer_metrics(trace: dict, extra: dict, factor: float = 1.0) -> dict[str, float | None]:
    """Every metric of METRICS for one traced run; None where unmeasured.

    Times are scaled by the run's CPU-speed factor, as the end-to-end times are.
    """
    stats = aggregate(trace)
    missing_spans = {name for module, attr, name, _hook in TARGETS
                     if f"{module}.{attr}" in trace["missing"]}
    out = {}
    for name, (unit, needs, fn) in METRICS.items():
        if missing_spans.intersection(needs):
            out[name] = None
            continue
        view = {n: stats.get(n, SpanStats()) for n in needs}
        value = float(fn(view, extra))
        out[name] = value * factor if unit in ("s", "us") else \
            value / factor if unit == "1/s" else value
    return out
