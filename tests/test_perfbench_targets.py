"""perfbench's tracer wraps package functions by (module, attribute) name.

A target that no longer resolves does not stop a traced run: the metrics
built on it are reported as unmeasured. This test catches a rename or a
removal here instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, attr, *_ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr}"
