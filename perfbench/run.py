"""netbalance benchmark: batch workloads timed end to end, layers traced from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S   # every workload, both modes
    python3 perfbench/run.py --smoke                               # tiny sizes, names and units

Run from the root of a netbalance checkout; the package is imported from
./src. Load shape: one client, closed loop. Each repetition is one fresh
process running one command to completion, one process at a time, pinned
to one CPU, with BLAS/OpenMP threads set to 1. Inputs are generated from --seed under
.bench_work/ and removed afterwards. The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics; see
perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checks
import layers
import tracer
import workloads
from speed import SpeedProbe, pin_to_fastest_cpu

PERFBENCH = Path(__file__).resolve().parent
CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
#: The `netbalance` console script, run from source.
CLI = "import sys; from netbalance.cli import main; sys.exit(main())"
RUN_LIMIT_S = 165.0     # a run starts no repetition after this and kills one running past it
MIN_PAIRS = 3           # set-up/measured pairs (trace 0), untraced/traced pairs (trace 1)

END_TO_END = {"wall_s": "s", "setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


@dataclass
class Rep:
    wall_s: float          # as measured
    factor: float          # CPU-speed factor during the repetition (see speed.py)
    rss_mb: float
    returncode: int

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.factor


def run_child(argv: list[str], root: Path, stderr_path: Path, timeout: float) -> Rep:
    """Run one command to completion in a fresh process; time it from start to exit."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **CHILD_THREADS)
    pin_to_fastest_cpu(CPUS)
    with open(stderr_path, "ab") as err, SpeedProbe() as probe:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=root, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Rep(wall, probe.factor, usage.ru_maxrss / 1024.0, proc.returncode)


def program_argv(args: list[str], spans: Path | None = None) -> list[str]:
    """Interpreter arguments for a workload command, traced when `spans` is set."""
    if spans is not None:
        return [str(PERFBENCH / "tracer.py"), str(spans), *args]
    if args[0] == "verify-corpus":
        return [str(PERFBENCH / "verify_corpus.py"), *args[1:]]
    return ["-c", CLI, *args]


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "cpu_count": os.cpu_count(), "cpus_used": sorted(CPUS),
            "threads": CHILD_THREADS, "machine": platform.machine()}


@dataclass
class Session:
    """One benchmark run of one workload: inputs, repetitions and checks."""

    workload: workloads.Workload
    inputs: workloads.Inputs
    root: Path
    smoke: bool = False
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digests: set = field(default_factory=set)      # of the outputs of every repetition
    reference: dict | None = None
    deadline: float = field(default_factory=lambda: time.perf_counter() + RUN_LIMIT_S)

    def __post_init__(self):
        if self.inputs.corpus is not None:
            self.reference = checks.reference_oracles(self.inputs.corpus)

    def _fresh_out(self) -> None:
        shutil.rmtree(self.inputs.out_dir, ignore_errors=True)
        self.inputs.out_dir.mkdir(parents=True)

    def _run(self, argv: list[str]) -> Rep:
        return run_child(argv, self.root, self.inputs.work / "stderr.txt",
                         max(1.0, self.deadline - time.perf_counter()))

    def setup_rep(self) -> Rep:
        rep = self._run(program_argv(self.inputs.setup_args))
        if rep.returncode != 0:
            self.errors.append(f"set-up run exited with {rep.returncode}")
        return rep

    def work_rep(self, spans: Path | None = None) -> tuple[Rep, checks.Outcome]:
        self._fresh_out()
        rep = self._run(program_argv(self.inputs.work_args, spans))
        out = self.check(rep.returncode)
        if out.digest and self.digests and out.digest not in self.digests:
            out.fail_all("outputs differ between repetitions of one seed")
        if out.digest:
            self.digests.add(out.digest)
        if rep.returncode != 0:
            out.errors.append(_last_line(self.inputs.work / "stderr.txt"))
        self.attempted += out.attempted
        self.failed += out.failed
        self.errors.extend(out.errors[:5])
        return rep, out

    def check(self, returncode: int) -> checks.Outcome:
        if self.workload.kind == workloads.VERIFY:
            return checks.check_verify(self.inputs.out_dir / "report.json", returncode,
                                       self.reference)
        return checks.check_run(self.inputs.out_dir, returncode, self.inputs.trials,
                                self.inputs.total_weight, self.inputs.trace_files,
                                None if self.smoke else self.workload.hit_window)

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0 and not self.errors,
                "attempted": self.attempted, "failed": self.failed, "metrics": metrics}


def _last_line(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no error output)"


def _keep_going(s: Session, pairs: int, started: float, seconds: float,
                min_pairs: int) -> bool:
    """Another pair fits if it ends, at the mean pair duration so far, within the budget."""
    now = time.perf_counter()
    pair_s = (now - started) / pairs if pairs else 0.0
    if now + pair_s > s.deadline:
        return False
    return pairs < min_pairs or now - started + pair_s <= seconds


def measure_end_to_end(s: Session, seconds: float, min_pairs: int) -> dict:
    """Alternate two set-up and one measured repetition; report medians (tracing off)."""
    setup, reps, ops = [], [], []
    started = time.perf_counter()
    pairs = 0
    while _keep_going(s, pairs, started, seconds, min_pairs):
        setup += [s.setup_rep(), s.setup_rep()]
        rep, out = s.work_rep()
        reps.append(rep)
        ops.append(out.ops)
        pairs += 1
    wall_s = statistics.median(r.scaled_s for r in reps)
    setup_s = statistics.median(r.scaled_s for r in setup)
    print(f"# {len(setup)} set-up and {pairs} measured repetitions; as measured (not scaled): "
          f"wall {statistics.median(r.wall_s for r in reps):.4g} s, "
          f"set-up {statistics.median(r.wall_s for r in setup):.4g} s, CPU-speed factor "
          f"{statistics.median(r.factor for r in setup + reps):.3f}", flush=True)
    return {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "ops_per_s": statistics.median(ops) / max(wall_s - setup_s, 1e-9),
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
    }


def measure_layers(s: Session, seconds: float, min_pairs: int) -> dict:
    """Alternate untraced and traced repetitions; per-layer medians of the traced ones."""
    untraced, traced, per_rep = [], [], []
    spans_path = s.inputs.work / "spans.marshal"
    started = time.perf_counter()
    pairs = 0
    while _keep_going(s, pairs, started, seconds, min_pairs):
        untraced.append(s.work_rep()[0].scaled_s)
        rep, out = s.work_rep(spans=spans_path)
        traced.append(rep.scaled_s)
        extra = {"bytes_written": _bytes_written(s), "hit_rounds_median": out.hit_rounds_median,
                 "overhead_frac": 0.0}
        try:
            trace = tracer.load(spans_path)
        except (OSError, EOFError, ValueError) as exc:
            s.errors.append(f"no spans from the traced run: {exc!r}")
            trace = None
        per_rep.append(layers.layer_metrics(trace, extra, rep.factor) if trace else
                       dict.fromkeys(layers.METRICS))
        pairs += 1
    print(f"# {pairs} untraced and {pairs} traced repetitions", flush=True)
    merged = {}
    for name in layers.METRICS:
        values = [m[name] for m in per_rep]
        merged[name] = None if None in values else statistics.median(values)
    merged["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    unmeasured = [n for n, v in merged.items() if v is None]
    if unmeasured:
        print(f"# unmeasured (traced function not found): {', '.join(unmeasured)}")
    return merged


def _bytes_written(s: Session) -> int:
    if s.workload.kind == workloads.VERIFY:
        return 0      # the report is written by verify_corpus.py, not the CLI
    return sum(p.stat().st_size for p in s.inputs.out_dir.rglob("*") if p.is_file())


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 smoke: bool = False) -> dict:
    wl = workloads.WORKLOADS[name]
    work = root / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    try:
        inputs = workloads.generate(name, seed, work, smoke=smoke)
        s = Session(wl, inputs, root, smoke=smoke)
        min_pairs = 1 if smoke else MIN_PAIRS
        if trace:
            values = measure_layers(s, seconds, min_pairs)
            units = {n: unit for n, (unit, _, _) in layers.METRICS.items()}
        else:
            values = measure_end_to_end(s, seconds, min_pairs)
            units = END_TO_END
        metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
        result = s.result(metrics)
        for err in s.errors[:20]:
            print(f"# check failed: {err}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass
    return result


def print_result(name: str, result: dict) -> None:
    failed_frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"# {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} failed_frac={failed_frac:g}")
    for metric, m in result["metrics"].items():
        value = "unmeasured" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name} {metric} = {value} {m['unit']}")


def smoke(root: Path) -> int:
    """Every workload at tiny size in both modes: each declared metric printed with its unit."""
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for name in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(name, 1, 0.0, trace, root, smoke=True)
            print_result(name, result)
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want or not result["correct"]:
                print(f"# SMOKE FAIL {name} trace={int(trace)}: correct={result['correct']}, "
                      f"metric names/units differ: {sorted(set(want.items()) ^ set(got.items()))}")
                ok = False
    print("# smoke", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "netbalance" / "__init__.py").is_file():
        print("run from the root of a netbalance checkout (src/netbalance not found)",
              file=sys.stderr)
        return 2
    print(f"# env: {json.dumps(environment(), sort_keys=True)}", flush=True)
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        ok = True
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                result = run_workload(name, args.seed, args.seconds, trace, root)
                print_result(name, result)
                print(json.dumps(result))
                ok = ok and result["correct"]
        return 0 if ok else 1
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
