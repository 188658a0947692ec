"""perfbench's contract with this package, checked from the test suite.

The tracer wraps package functions by (module, attribute) name. A target that
no longer resolves does not stop a traced run: the metrics built on it are
reported as unmeasured. The benchmark command's last output line must be one
JSON object. Both failures leave a run that exits 0, so they are caught here
instead. A tracer target is also the one reason a package module may import a
name it never uses.
"""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = ROOT / "src" / "netbalance"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_tracer_target_resolves():
    targets = _tracer_targets()
    assert targets
    for module, attr, *_ in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr}"


def test_no_unused_imports_but_tracer_targets():
    targets = _tracer_targets()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        wrapped = {attr for module, attr, *_ in targets
                   if module == f"netbalance.{path.stem}"}
        unused += [f"{path.stem}.{name}" for name in sorted(imported - used - wrapped)]
    assert not unused, unused


def _perfbench(*args: str) -> list[str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert not [line for line in lines if "unmeasured" in line]
    return lines


def test_smoke_measures_every_metric():
    # Every workload at tiny size, untraced and traced.
    assert _perfbench("--smoke")[-1] == "# smoke passed"


def test_benchmark_run_ends_with_one_json_result():
    # --smoke prints no result object, so the last-line contract is checked on
    # the cheapest full-size workload.
    result = json.loads(_perfbench("--workload", "verify-corpus", "--seconds", "0")[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "ops_per_s", "peak_rss_mb"}
