"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Asymptotic constants are not reproducible at desk scale, so the statistical
criteria are property checks: guaranteed probabilities at 99% binomial
confidence and growth-trend ratios inside fixed windows. Everything is seeded
and deterministic; stated runtime limits are asserted.
"""

import dataclasses
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import netbalance as nb
from netbalance.analysis import StopRule, measure_convergence, verify_lemma_suite
from netbalance.cli import ExperimentConfig, build_graph, parse_config, run_config
from netbalance.cli import main as cli_main
from netbalance.corpus import corpus_graphs, corpus_speeds, corpus_task_count, default_corpus
from netbalance.graphs import isoperimetric_number
from netbalance.potentials import (
    critical_value,
    exact_expected_psi0_drop,
    gamma_factor,
    node_change_moments,
    psi0_value,
)
from netbalance.protocol import (
    LoadState,
    ProtocolParams,
    all_on_one_state,
    exact_ne_alpha,
    is_approx_nash,
    random_placement_state,
    step_round_totals,
    weighted_all_on_one,
)
from netbalance.rng import STREAM_PLACEMENT, STREAM_WEIGHTS, derive_seed, keyed_generator
from netbalance.spectral import SpeedProfile, lambda2_of, mu2_of

import helpers

ACCEPT_SEED = 20250810
Z99 = 2.3263478740408408  # one-sided 99% normal quantile


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


SPECTRAL_SIZES = {
    "complete": [{"n": k} for k in (4, 8, 16, 32, 64)],
    "cycle": [{"n": k} for k in (4, 8, 16, 32, 64)],
    "path": [{"n": k} for k in (4, 8, 16, 32, 64)],
    "torus2d": [{"rows": r, "cols": c} for r, c in ((2, 2), (2, 4), (4, 4), (4, 8), (8, 8))],
    "hypercube": [{"dim": d} for d in (2, 3, 4, 5, 6)],
}


def test_criterion_1_spectral_bounds():
    tol = 1e-8
    rng = np.random.default_rng(ACCEPT_SEED)
    t0 = time.time()
    profiles = 0
    for family, kwlist in SPECTRAL_SIZES.items():
        for kw in kwlist:
            g = nb.make_graph(family, **kw)
            n = g.node_count
            lam2 = lambda2_of(g)
            assert lam2 >= 4.0 / n**2 - tol, (family, kw, "lambda2 simple lower bound")
            assert lam2 <= n / (n - 1) * min(g.degrees) + tol, (family, kw, "min-degree bound")
            assert g.diameter >= 4.0 / (n * lam2) - tol, (family, kw, "diameter bound")
            for _ in range(20):
                sp = SpeedProfile.from_rationals(
                    helpers.random_rational_speeds(rng, n, max_num=6, max_den=4))
                mu2 = mu2_of(g, sp)
                assert lam2 / float(sp.s_max) <= mu2 + tol, (family, kw, "interlacing lower")
                assert mu2 <= lam2 / float(sp.s_min) + tol, (family, kw, "interlacing upper")
                profiles += 1
    elapsed = time.time() - t0
    report("criterion 1 (spectral bounds)", elapsed < 60.0,
           f"{profiles} random profiles across {sum(map(len, SPECTRAL_SIZES.values()))} graphs, "
           f"{elapsed:.1f}s")


CHEEGER_SIZES = {
    "complete": [{"n": k} for k in (4, 6, 8, 10, 12)],
    "cycle": [{"n": k} for k in (4, 6, 8, 10, 12)],
    "path": [{"n": k} for k in (4, 6, 8, 10, 12)],
    "torus2d": [{"rows": r, "cols": c} for r, c in ((2, 2), (2, 3), (2, 4), (3, 3), (2, 5), (3, 4), (2, 6))],
    "grid2d": [{"rows": r, "cols": c} for r, c in ((2, 2), (2, 3), (3, 3), (2, 6), (3, 4))],
    "hypercube": [{"dim": d} for d in (2, 3)],
}


def test_criterion_2_cheeger_sandwich():
    tol = 1e-8
    graphs = 0
    for family, kwlist in CHEEGER_SIZES.items():
        for kw in kwlist:
            g = nb.make_graph(family, **kw)
            lam2 = lambda2_of(g)
            iso = float(isoperimetric_number(g))
            assert iso**2 / (2 * g.max_degree) <= lam2 + tol, (family, kw)
            assert lam2 <= 2 * iso + tol, (family, kw)
            graphs += 1
    report("criterion 2 (Cheeger sandwich)", True, f"{graphs} graphs at n <= 12")


def test_criterion_3_lemma_suite():
    t0 = time.time()
    suite = verify_lemma_suite()
    elapsed = time.time() - t0
    failures = suite.failures()
    report("criterion 3 (exact-oracle lemma suite)",
           suite.passed and elapsed < 60.0,
           f"{len(suite.checks)} checks, {len(failures)} violations, {elapsed:.1f}s")


def test_criterion_4_oracle_monte_carlo_agreement():
    # Golden value first: closed form and enumeration both give exactly 7/16.
    k2 = nb.make_graph("complete", n=2)
    uni = SpeedProfile.uniform(2)
    closed = exact_expected_psi0_drop(node_change_moments(
        k2, uni, LoadState.uniform((2, 0)), ProtocolParams(rng_seed=0)))
    enum = helpers.enum_expected_psi0_drop(k2, [Fraction(1), Fraction(1)], (2, 0),
                                           Fraction(4))
    assert closed == Fraction(7, 16) and enum == Fraction(7, 16)

    cases = sorted((c for c in default_corpus() if c.state.weights is None),
                   key=lambda c: (c.graph.node_count, c.name))[:10]
    params = ProtocolParams(rng_seed=ACCEPT_SEED)
    n_rounds = 100_000
    rows_per_call = 10_000     # independent rounds from one state, one stack per call
    worst = 0.0
    for case in cases:
        g, sp, st = case.graph, case.speeds, case.state
        exact = float(exact_expected_psi0_drop(node_change_moments(g, sp, st, params)))
        base = psi0_value(sp, st)
        drops = np.concatenate([
            base - psi0_value(sp, step_round_totals(
                g, sp, LoadState.stack([st] * rows_per_call), params, call)[0])
            for call in range(n_rounds // rows_per_call)])
        se = drops.std(ddof=1) / math.sqrt(n_rounds)
        dev = abs(float(drops.mean()) - exact)
        if se == 0.0:
            assert dev == 0.0, case.name
        else:
            assert dev <= 4.0 * se, f"{case.name}: dev={dev} z={dev/se:.2f}"
            worst = max(worst, dev / se)
    report("criterion 4 (oracle vs Monte Carlo)", True,
           f"10 states x {n_rounds} rounds, worst |z| = {worst:.2f}, golden 7/16 exact")


def test_criterion_5_three_quarters_probability():
    t0 = time.time()
    details = []
    ok = True
    for family in ("complete", "cycle"):
        g = nb.make_graph(family, n=8)
        sp = SpeedProfile.uniform(8)
        m = 8**3
        lam2 = lambda2_of(g)
        gamma = gamma_factor(g, sp, lam2)
        horizon = math.ceil(2.0 * gamma * math.log(m / 8))
        threshold = 4.0 * critical_value(g, sp, lam2)
        trials = 200
        summary = measure_convergence(
            g, sp, all_on_one_state(8, m),
            ProtocolParams(rng_seed=derive_seed(ACCEPT_SEED, 5)),
            StopRule("psi-threshold"), trials=trials, round_cap=horizon,
            psi_threshold=threshold)
        frac = 1.0 - summary.fraction_truncated
        sigma = math.sqrt(max(frac * (1.0 - frac), 1e-12) / trials)
        needed = 0.75 - Z99 * sigma
        ok = ok and frac >= needed
        details.append(f"{family}: frac={frac:.3f} >= {needed:.3f} (T={horizon})")
    elapsed = time.time() - t0
    report("criterion 5 (3/4-probability within T = 2*gamma*ln(m/n))",
           ok and elapsed < 300.0, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_6_approx_ne_implication():
    delta = 2
    g = nb.make_graph("complete", n=4)
    sp = SpeedProfile.uniform(4)
    m = math.ceil(8 * delta * float(sp.s_max) * float(sp.total_capacity) * 4**2)
    lam2 = lambda2_of(g)
    threshold = 4.0 * critical_value(g, sp, lam2)
    cap = math.ceil(4.0 * gamma_factor(g, sp, lam2) * math.log(m / 4))
    summary = measure_convergence(
        g, sp, all_on_one_state(4, m),
        ProtocolParams(rng_seed=derive_seed(ACCEPT_SEED, 6)),
        StopRule("psi-threshold"), trials=50, round_cap=cap,
        psi_threshold=threshold)
    eps = Fraction(2, 1 + delta)
    violations = sum(
        1 for r in summary.results
        if r.truncated or not is_approx_nash(g, sp, r.final_state, eps))
    report("criterion 6 (psi threshold implies eps-approximate equilibrium)",
           violations == 0,
           f"m={m}, eps=2/3, {len(summary.results)} first-threshold states, "
           f"{violations} exceptions")


def test_criterion_7_exact_ne_convergence():
    t0 = time.time()
    runs = []
    ok = True
    for gname, g in corpus_graphs():
        for sname, sp in corpus_speeds(g.node_count):
            assert sp.granularity == 1  # integer corpus speeds
            lam2 = lambda2_of(g)
            cap = math.ceil(607 * g.node_count * g.max_degree**2 / lam2
                            * float(sp.s_max) ** 4)
            m = corpus_task_count(g.node_count)
            params = ProtocolParams(rng_seed=derive_seed(ACCEPT_SEED, 7),
                                    alpha=exact_ne_alpha(sp))
            summary = measure_convergence(
                g, sp,
                lambda t: random_placement_state(
                    g.node_count, m, derive_seed(ACCEPT_SEED, STREAM_PLACEMENT, t)),
                params, StopRule("exact-ne"), trials=100, round_cap=cap)
            ok = ok and summary.fraction_truncated == 0.0
            runs.append((f"{gname}/{sname}", summary.fraction_truncated))
    elapsed = time.time() - t0
    failed = [name for name, frac in runs if frac > 0]
    report("criterion 7 (exact equilibrium within the 607-constant cap)",
           ok and elapsed < 300.0,
           f"{len(runs)} configurations x 100 trials, failures: {failed or 'none'}, "
           f"{elapsed:.1f}s")


def trend_config(family: str, n: int) -> ExperimentConfig:
    """Criterion 8's row for n nodes of `family`: m = n^3 unit tasks on node 0,
    uniform speeds, cap 4*gamma*ln(m/n) + 1 (not binding in practice)."""
    base = parse_config(f"graph.family = {family}\n")
    size = {"graph_dim": n.bit_length() - 1} if family == "hypercube" else {"graph_n": n}
    m = n ** 3
    cfg = dataclasses.replace(
        base, **size, tasks_count=m, run_trials=50, run_stop="psi-threshold",
        run_master_seed=derive_seed(ACCEPT_SEED, n))
    g = build_graph(cfg, Path())
    gamma = gamma_factor(g, SpeedProfile.uniform(n), lambda2_of(g))
    return dataclasses.replace(
        cfg, run_round_cap=math.ceil(4.0 * gamma * math.log(max(m / n, 2.0))) + 1)


def test_criterion_8_trend_check():
    t0 = time.time()
    windows = {"complete": (1.0, 4.0), "cycle": (2.0, 16.0), "hypercube": (1.0, 6.0)}
    details = []
    ok = True
    for family, (lo, hi) in windows.items():
        medians = []
        for n in (16, 32):
            cfg = trend_config(family, n)
            payload, _ = run_config(cfg, Path())
            # The row's config block is a config that `netbalance run` reproduces.
            assert parse_config("".join(
                f"{key} = {value}\n" for key, value in payload["config"].items())) == cfg
            assert payload["fraction_truncated"] == 0.0
            medians.append(payload["hitting"]["median"])
        m16, m32 = medians
        ratio = m32 / m16
        ok = ok and lo <= ratio <= hi
        details.append(f"{family}: median {m16:.0f}->{m32:.0f} "
                       f"ratio={ratio:.2f} in [{lo}, {hi}]")
    elapsed = time.time() - t0
    report("criterion 8 (growth trends at m = n^3)", ok and elapsed < 900.0,
           "; ".join(details) + f"; {elapsed:.1f}s")


DETERMINISM_CONFIG = """\
graph.family = cycle
graph.n = 4
speeds.mode = explicit
speeds.values = 1,2,1,3/2
tasks.mode = uniform
tasks.count = 24
tasks.placement = random
run.trials = 3
run.round_cap = 50000
run.stop = exact-ne
run.master_seed = 20250810
output.trace = true
"""


def test_criterion_9_determinism(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(DETERMINISM_CONFIG, encoding="utf-8")
    assert cli_main(["run", str(cfg), "--out-dir", str(tmp_path / "a")]) == 0
    assert cli_main(["run", str(cfg), "--out-dir", str(tmp_path / "b")]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == ["summary.json", "trace_0.csv", "trace_1.csv", "trace_2.csv"]
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in names)
    report("criterion 9 (byte-identical reruns)", identical,
           f"{len(names)} output files compared")


def test_criterion_10_weighted_protocol():
    t0 = time.time()
    n, delta = 8, 2
    g = nb.make_graph("cycle", n=n)
    sp = SpeedProfile.uniform(n)
    w_threshold = 8 * delta * float(sp.s_max / sp.s_min) * float(sp.total_capacity) * n**2
    gen = keyed_generator(ACCEPT_SEED, STREAM_WEIGHTS)
    weights, total = [], 0.0
    while total <= w_threshold:
        w = 1.0 - float(gen.random())
        weights.append(w)
        total += w
    gamma = gamma_factor(g, sp)
    cap = math.ceil(10 * 2 * gamma * math.log(total * n / n))
    summary = measure_convergence(
        g, sp, weighted_all_on_one(weights, n),
        ProtocolParams(rng_seed=derive_seed(ACCEPT_SEED, 10)),
        StopRule("exact-ne"), trials=50, round_cap=cap)
    elapsed = time.time() - t0
    worst = max(r.rounds_to_exact_ne or cap for r in summary.results)
    report("criterion 10 (weighted protocol reaches the threshold state)",
           summary.fraction_truncated == 0.0,
           f"W={total:.0f} ({len(weights)} tasks), worst {worst} of cap {cap} rounds, "
           f"{elapsed:.1f}s")
