"""Run netbalance's lemma-verification suite over a corpus file.

    python3 perfbench/verify_corpus.py CORPUS.json REPORT.json [--setup-only]

The corpus (written by `workloads.corpus`) lists graphs as explicit edge
lists and cases as (graph, speeds, state payload). The report mirrors the
`netbalance verify` payload: every lemma check with its sides and margin.
With --setup-only the corpus is built and nothing is verified. Exit codes
follow the CLI: 0 all checks pass, 1 a check failed.
"""

from __future__ import annotations

import json
import sys

from netbalance.analysis import verify_lemma_suite
from netbalance.corpus import CorpusCase
from netbalance.graphs import make_graph
from netbalance.protocol import LoadState
from netbalance.spectral import SpeedProfile


def load_corpus(path: str) -> list[CorpusCase]:
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    graphs = {name: make_graph("explicit", n=g["n"], edges=g["edges"])
              for name, g in spec["graphs"].items()}
    profiles: dict[tuple, SpeedProfile] = {}
    cases = []
    for c in spec["cases"]:
        key = tuple(c["speeds"])
        if key not in profiles:
            profiles[key] = SpeedProfile.from_rationals(key)
        cases.append(CorpusCase(name=c["name"], graph_name=c["graph"],
                                graph=graphs[c["graph"]], speeds=profiles[key],
                                state=LoadState.from_payload(c["state"])))
    return cases


def main(argv: list[str]) -> int:
    corpus_path, report_path = argv[0], argv[1]
    cases = load_corpus(corpus_path)
    if "--setup-only" in argv[2:]:
        return 0
    report = verify_lemma_suite(cases)
    payload = {
        "passed": report.passed,
        "cases": len(cases),
        "checks": [{"lemma": c.lemma, "case": c.case, "lhs": c.lhs, "rhs": c.rhs,
                    "margin": c.margin, "passed": c.passed} for c in report.checks],
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
