"""Output checks that hold whatever sequence of random draws the program uses.

A run-* repetition is checked trial by trial: the `summary.json` schema, no
truncated trial, conservation of the total weight read back from the final
snapshot, each trace CSV having rounds_executed + 1 rows, and the hitting-time
median inside the workload's window. A verify-corpus repetition is checked
lemma check by lemma check, and its exact oracle values against an
independent rational-arithmetic reference. Across repetitions of one seed
the outputs must be byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

SUMMARY_KEYS = ("config", "graph", "speeds", "spectral", "alpha", "psi_c",
                "psi_threshold", "gamma", "stop", "trials", "round_cap", "hitting",
                "fraction_truncated", "per_trial")
TRIAL_KEYS = ("trial", "seed", "hit_rounds", "rounds_executed", "truncated", "final")
FINAL_KEYS = ("round", "phi0", "phi1", "psi0", "psi1", "l_delta")
#: Leading trace columns; later columns may be appended.
TRACE_COLUMNS = ("round", "psi0", "psi1", "l_delta", "max_load", "min_load", "moves")
REPORT_CHECK_KEYS = ("lemma", "case", "lhs", "rhs", "margin", "passed")


@dataclass
class Outcome:
    """Operations attempted and failed in one repetition, and why."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    ops: int = 0                  # work done: trial rounds or lemma checks
    digest: str = ""              # sha256 of the outputs
    hit_rounds_median: float = 0.0

    def fail_all(self, message: str) -> "Outcome":
        self.failed = self.attempted
        self.errors.append(message)
        return self


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def check_run(out_dir: Path, returncode: int, trials: int, total_weight: float,
              trace_files: bool, hit_window) -> Outcome:
    """Check one `netbalance run` repetition; an operation is one trial."""
    res = Outcome(attempted=trials)
    if returncode != 0:
        return res.fail_all(f"exit code {returncode}")
    try:
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        missing = [k for k in SUMMARY_KEYS if k not in summary]
        if missing:
            return res.fail_all(f"summary.json lacks {missing}")
        per_trial = summary["per_trial"]
        if len(per_trial) != trials or summary["fraction_truncated"] != 0:
            return res.fail_all(f"{len(per_trial)} trials, "
                                f"fraction_truncated {summary['fraction_truncated']}")
        capacity = sum(Fraction(s) for s in summary["speeds"]["values"])
        res.hit_rounds_median = float(summary["hitting"]["median"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return res.fail_all(f"unreadable summary.json: {exc!r}")
    if hit_window and not hit_window[0] <= res.hit_rounds_median <= hit_window[1]:
        return res.fail_all(f"hitting median {res.hit_rounds_median} outside {hit_window}")
    for t in per_trial:
        problem = _trial_problem(t, out_dir, float(capacity), total_weight, trace_files)
        if problem:
            res.failed += 1
            res.errors.append(f"trial {t.get('trial')}: {problem}")
        else:
            res.ops += t["rounds_executed"]
    res.digest = digest_dir(out_dir)
    return res


def _trial_problem(t: dict, out_dir: Path, capacity: float, total_weight: float,
                   trace_files: bool) -> str | None:
    if any(k not in t for k in TRIAL_KEYS) or any(k not in t["final"] for k in FINAL_KEYS):
        return "per_trial entry lacks keys"
    if t["truncated"]:
        return "truncated"
    final = t["final"]
    lhs = (final["phi0"] - final["psi0"]) * capacity
    if abs(lhs - total_weight ** 2) > 1e-9 * total_weight ** 2:
        return f"conservation: (phi0 - psi0)*S = {lhs!r}, W^2 = {total_weight ** 2!r}"
    if trace_files:
        path = out_dir / f"trace_{t['trial']}.csv"
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            return f"trace unreadable: {exc}"
        if tuple(lines[0].split(",")[:len(TRACE_COLUMNS)]) != TRACE_COLUMNS:
            return f"trace header {lines[0]!r}"
        if len(lines) - 1 != t["rounds_executed"] + 1:
            return f"trace has {len(lines) - 1} rows for {t['rounds_executed']} rounds"
    return None


def check_verify(report_path: Path, returncode: int, reference: dict[str, tuple]) -> Outcome:
    """Check one verify-corpus repetition; an operation is one lemma check."""
    res = Outcome(attempted=1)     # until the report says how many checks ran
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        checks = report["checks"]
        if any(k not in c for c in checks for k in REPORT_CHECK_KEYS):
            return res.fail_all("report check lacks keys")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return res.fail_all(f"exit code {returncode}, unreadable report: {exc!r}")
    res.attempted = len(checks)
    res.ops = len(checks)
    for c in checks:
        if not c["passed"]:
            res.failed += 1
            res.errors.append(f"{c['lemma']} failed on {c['case']}")
    if returncode != (0 if res.failed == 0 else 1):
        return res.fail_all(f"exit code {returncode} with {res.failed} failed checks")
    if oracle_digest(_program_oracles(checks, reference)) != oracle_digest(reference):
        return res.fail_all("exact oracle values differ from the reference")
    res.digest = digest_dir(report_path.parent)
    return res


# --------------------------------------------------------------------------
# Exact-oracle reference for the uniform corpus cases

#: Lemma checks whose left side is an exact oracle value (as a float).
ORACLE_LEMMAS = ("drop-quadratic", "variance-sum", "psi1-drop-floor")


def _program_oracles(checks: list[dict], reference: dict) -> dict[str, tuple]:
    out: dict[str, list] = {name: [] for name in reference}
    for c in checks:
        if c["case"] in out and c["lemma"] in ORACLE_LEMMAS:
            out[c["case"]].append(c["lhs"])
    return {k: tuple(v) for k, v in out.items()}


def oracle_digest(values: dict[str, tuple]) -> str:
    text = "\n".join(f"{k}:{','.join(repr(float(v)) for v in vals)}"
                     for k, vals in sorted(values.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def reference_oracles(corpus: dict) -> dict[str, tuple]:
    """Exact one-round oracle values of every uniform corpus case, as floats.

    Per case: E[psi0 drop] and sum_k Var[W_k']/s_k at alpha = 4*s_max, and,
    off equilibrium, E[psi1 drop] at alpha = 4*s_max/eps. The closed form is
    the one the package documents (per-node Bernoulli moments of the weight
    change), evaluated here independently in rational arithmetic.
    """
    out = {}
    for case in corpus["cases"]:
        if case["state"]["mode"] != "uniform":
            continue
        g = corpus["graphs"][case["graph"]]
        speeds = [Fraction(s) for s in case["speeds"]]
        counts = case["state"]["counts"]
        nbrs = [[] for _ in range(g["n"])]
        for u, v in g["edges"]:
            nbrs[u].append(v)
            nbrs[v].append(u)
        s_max = max(speeds)
        alpha = 4 * s_max
        drop0, var_sum, nash = _drops(nbrs, speeds, counts, alpha, with_psi1=False)
        values = [drop0, var_sum]
        if not nash:
            eps = _granularity(speeds)
            values.append(_drops(nbrs, speeds, counts, alpha / eps, with_psi1=True)[0])
        out[case["name"]] = tuple(float(v) for v in values)
    return out


def _granularity(speeds: list[Fraction]) -> Fraction:
    num, den = 0, 1
    for s in speeds:
        num = gcd(num, s.numerator)
        den = lcm(den, s.denominator)
    return Fraction(num, den)


def _drops(nbrs, speeds, counts, alpha, with_psi1):
    """(E[drop], sum Var/s, is_nash) for psi0, or psi1 when with_psi1."""
    n = len(speeds)
    loads = [Fraction(c) / s for c, s in zip(counts, speeds)]
    mu = [Fraction(0)] * n
    var = [Fraction(0)] * n
    out_q = [Fraction(0)] * n
    nash = True
    for i in range(n):
        deg_i = len(nbrs[i])
        for j in nbrs[i]:
            gap = loads[i] - loads[j]
            if gap <= 1 / speeds[j]:
                continue
            nash = False
            dij = max(deg_i, len(nbrs[j]))
            p = gap * deg_i / (alpha * dij * (1 / speeds[i] + 1 / speeds[j]) * counts[i])
            q = min(max(p, Fraction(0)), Fraction(1)) / deg_i
            mu[i] -= q * counts[i]
            mu[j] += q * counts[i]
            var[j] += counts[i] * q * (1 - q)
            out_q[i] += q
    for i in range(n):
        var[i] += counts[i] * out_q[i] * (1 - out_q[i])
    scale = Fraction(sum(counts)) / sum(speeds)
    drop = Fraction(0)
    for k in range(n):
        e = counts[k] - scale * speeds[k]
        drop -= (2 * e * mu[k] + mu[k] * mu[k] + var[k] + (mu[k] if with_psi1 else 0)) / speeds[k]
    return drop, sum((v / s for v, s in zip(var, speeds)), Fraction(0)), nash
