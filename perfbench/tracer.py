"""Run a netbalance command with spans recorded around calls into its layers.

    python3 perfbench/tracer.py SPANS_FILE run CONFIG --out-dir DIR
    python3 perfbench/tracer.py SPANS_FILE verify-corpus CORPUS.json REPORT.json

The program is not edited: each traced function is replaced, by (module,
attribute), in the namespace its caller looks it up in, with a wrapper that
records a span (name, start, end, parent, request, count). A request is the
enclosing trial (`run_trial`) or corpus case (`verify_case`). Spans are kept
in memory and written to SPANS_FILE when the command has finished, together
with the targets that could not be found (a renamed or removed attribute
makes the metrics built on it unmeasured; it never stops the run).
"""

from __future__ import annotations

import importlib
import marshal
import sys
import time

#: (module the caller looks the name up in, attribute, span name, count hook).
#: The span name is the layer that owns the function. A count hook turns
#: the return value into the span's work count.
TARGETS = (
    ("netbalance.cli", "cmd_run", "cli.cmd_run", None),
    ("netbalance.cli", "build_graph", "cli.build_graph", None),
    ("netbalance.cli", "build_speeds", "cli.build_speeds", None),
    ("netbalance.cli", "build_init_spec", "cli.build_init_spec", None),
    ("netbalance.cli", "build_params", "cli.build_params", None),
    ("netbalance.cli", "build_stop", "cli.build_stop", None),
    ("netbalance.cli", "lambda2_of", "spectral.lambda2_of", None),
    ("netbalance.cli", "spectral_summary", "spectral.spectral_summary", None),
    ("netbalance.spectral", "lambda2_of", "spectral.lambda2_of", None),
    ("netbalance.spectral", "mu2_of", "spectral.mu2_of", None),
    ("netbalance.spectral", "eigen_decomposition", "spectral.eigen_decomposition", None),
    ("netbalance.analysis", "run_trial", "analysis.run_trial", None),
    ("netbalance.analysis", "step_round_totals", "protocol.step_round_totals",
     lambda res: int(res[1])),
    ("netbalance.protocol", "generator_from_prefix", "rng.generator_from_prefix", None),
    ("netbalance.analysis", "psi0_value", "potentials.psi0_value", None),
    ("netbalance.analysis", "is_nash", "protocol.is_nash", None),
    ("netbalance.analysis", "is_approx_nash", "protocol.is_approx_nash", None),
    ("netbalance.analysis", "snapshot", "potentials.snapshot", None),
    ("netbalance.analysis", "lambda2_of", "spectral.lambda2_of", None),
    ("netbalance.analysis", "verify_case", "analysis.verify_case", len),
    ("netbalance.analysis", "exact_expected_psi0_drop", "potentials.exact_expected_psi0_drop", None),
    ("netbalance.analysis", "exact_expected_psi1_drop", "potentials.exact_expected_psi1_drop", None),
    ("netbalance.analysis", "exact_variance_sum", "potentials.exact_variance_sum", None),
    ("netbalance.analysis", "phi1_drop_routes", "potentials.phi1_drop_routes", None),
    ("netbalance.potentials", "node_change_moments", "potentials.node_change_moments", None),
)

#: Spans that start a new request; every span records the request it is in.
REQUEST_SPANS = ("analysis.run_trial", "analysis.verify_case")


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # [name id, start, end, parent index, request, count, child seconds]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = -1

    def wrap(self, fn, name: str, count_hook):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        starts_request = name in REQUEST_SPANS
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if starts_request:
                self._request += 1
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1,
                    self._request, 0, 0.0]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if span[3] >= 0:
                    spans[span[3]][6] += span[2] - span[1]
            if count_hook is not None:
                span[5] = count_hook(result)
            return result

        return traced

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target that exists; return the ones that do not."""
        missing = []
        for module_name, attr, name, hook in targets:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, name, hook))
        return missing

    def dump(self, path: str, missing: list[str]) -> None:
        """Write names, missing targets and spans with `marshal` (fast to write, no code)."""
        with open(path, "wb") as fh:
            marshal.dump({"names": self.names, "missing": missing, "spans": self.spans}, fh)


def load(path) -> dict:
    with open(path, "rb") as fh:
        return marshal.load(fh)


def main(argv: list[str]) -> int:
    spans_path, command = argv[0], argv[1:]
    tracer = Tracer()
    missing = tracer.install()
    if command[0] == "verify-corpus":
        from verify_corpus import main as verify_main
        code = verify_main(command[1:])
    else:
        from netbalance.cli import main as cli_main
        code = cli_main(command)
    tracer.dump(spans_path, missing)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
