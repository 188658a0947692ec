"""Speed profiles, Laplacian spectra, and the spectral bound report."""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from netbalance import spectral
from netbalance.cli import EXIT_CONFIG, EXIT_INTERNAL, EXIT_OK, main as cli_main
from netbalance.errors import ConfigError, EigensolverError
from netbalance.graphs import make_graph
from netbalance.spectral import (
    DENSE_SOLVE_MAX_NODES,
    SpeedProfile,
    eigen_decomposition,
    granularity_of,
    laplacian,
    lambda2_of,
    mu2_of,
    scaled_laplacian,
    second_smallest_eigenvalue,
    spectral_summary,
)

import helpers
from test_acceptance import SPECTRAL_SIZES


def test_laplacian_k2():
    g = make_graph("complete", n=2)
    assert np.array_equal(laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_path3():
    g = make_graph("path", n=3)
    expected = [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
    assert np.array_equal(laplacian(g), expected)


def test_laplacian_kernel_contains_ones():
    for fam, kw in (("complete", {"n": 5}), ("cycle", {"n": 8}), ("hypercube", {"dim": 3})):
        g = make_graph(fam, **kw)
        assert np.abs(laplacian(g) @ np.ones(g.node_count)).max() < 1e-12


def test_quadratic_form_equals_edge_sum():
    rng = np.random.default_rng(7)
    for fam, kw in (("cycle", {"n": 9}), ("torus2d", {"rows": 3, "cols": 4}),
                    ("hypercube", {"dim": 4})):
        g = make_graph(fam, **kw)
        lap = laplacian(g)
        for _ in range(20):
            x = rng.normal(size=g.node_count)
            direct = x @ lap @ x
            edge_sum = sum((x[u] - x[v]) ** 2 for u, v in g.edges)
            assert abs(direct - edge_sum) <= 1e-10 * max(1.0, abs(edge_sum))


def test_second_smallest_frozen_values():
    # K_n spectrum is {0, n (n-1 times)}; C4 charpoly roots are {0, 2, 2, 4}.
    assert second_smallest_eigenvalue(laplacian(make_graph("complete", n=4))) == pytest.approx(4.0, abs=1e-9)
    assert second_smallest_eigenvalue(laplacian(make_graph("complete", n=2))) == pytest.approx(2.0, abs=1e-12)
    assert second_smallest_eigenvalue(laplacian(make_graph("cycle", n=4))) == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("family,kwargs", [
    ("complete", {"n": 16}),
    ("cycle", {"n": 12}),
    ("cycle", {"n": 31}),
    ("path", {"n": 17}),
    ("hypercube", {"dim": 5}),
    ("torus2d", {"rows": 4, "cols": 6}),
    ("grid2d", {"rows": 3, "cols": 5}),
])
def test_lambda2_matches_closed_forms(family, kwargs):
    # The family graph's lambda2 is itself closed form, so rebuild it as an
    # explicit graph: that one goes through the certified dense solve.
    g = make_graph(family, **kwargs)
    explicit = make_graph("explicit", n=g.node_count, edges=g.edges)
    assert explicit == g and hash(explicit) == hash(g)
    assert explicit.lambda2 is None
    expected = helpers.lambda2_closed_form(family, **kwargs)
    assert lambda2_of(explicit) == pytest.approx(expected, abs=1e-8)


CLOSED_FORM_CASES = [(fam, kw) for fam, kws in SPECTRAL_SIZES.items() for kw in kws] + [
    ("grid2d", {"rows": 2, "cols": 2}),
    ("grid2d", {"rows": 3, "cols": 5}),
    ("grid2d", {"rows": 6, "cols": 4}),
    ("torus2d", {"rows": 2, "cols": 3}),
    ("torus2d", {"rows": 5, "cols": 2}),
    ("torus2d", {"rows": 3, "cols": 5}),
    ("cycle", {"n": 3}),
    ("cycle", {"n": 31}),
]


@pytest.mark.parametrize("family,kwargs", CLOSED_FORM_CASES)
def test_closed_form_lambda2_matches_eigvalsh(family, kwargs):
    g = make_graph(family, **kwargs)
    assert g.lambda2 is not None
    dense = np.linalg.eigvalsh(laplacian(g))[1]
    assert lambda2_of(g) == pytest.approx(dense, rel=1e-12)


def test_eigensolver_residuals_small():
    # Each returned eigenvalue v makes M - vI singular to within the solver
    # tolerance: its smallest singular value is the best residual |(M - vI)x|.
    for fam, kw in (("cycle", {"n": 64}), ("hypercube", {"dim": 6}),
                    ("complete", {"n": 64})):
        g = make_graph(fam, **kw)
        mat = laplacian(g)
        vals = eigen_decomposition(mat)
        assert np.all(np.diff(vals) >= 0)
        tol = 1e-10 * max(1.0, np.abs(mat).max()) * g.node_count
        eye = np.eye(g.node_count)
        for v in vals:
            assert np.linalg.svd(mat - v * eye, compute_uv=False).min() <= tol


def test_second_smallest_rejects_asymmetric():
    with pytest.raises(ConfigError):
        second_smallest_eigenvalue(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ConfigError):
        second_smallest_eigenvalue(np.array([[1.0]]))


def test_mu2_k2_speeds_1_2():
    g = make_graph("complete", n=2)
    sp = SpeedProfile.from_rationals([1, 2])
    assert mu2_of(g, sp) == pytest.approx(1.5, abs=1e-10)


def test_mu2_uniform_speeds_equals_lambda2():
    g = make_graph("cycle", n=4)
    sp = SpeedProfile.uniform(4)
    assert mu2_of(g, sp) == pytest.approx(2.0, abs=1e-9)


def test_mu2_matches_nonsymmetric_eig_oracle():
    rng = np.random.default_rng(11)
    for fam, kw in (("cycle", {"n": 8}), ("complete", {"n": 6}), ("path", {"n": 7})):
        g = make_graph(fam, **kw)
        for _ in range(5):
            sp = SpeedProfile.from_rationals(
                helpers.random_rational_speeds(rng, g.node_count))
            ls_inv = laplacian(g) * sp.inv_floats[np.newaxis, :]
            oracle = np.sort(np.linalg.eigvals(ls_inv).real)[1]
            assert mu2_of(g, sp) == pytest.approx(oracle, abs=1e-8)


def test_interlacing_random_profiles():
    rng = np.random.default_rng(23)
    for fam, kw in (("complete", {"n": 8}), ("cycle", {"n": 10}),
                    ("path", {"n": 9}), ("hypercube", {"dim": 3}),
                    ("torus2d", {"rows": 3, "cols": 3})):
        g = make_graph(fam, **kw)
        lam2 = lambda2_of(g)
        for _ in range(100):
            sp = SpeedProfile.from_rationals(
                helpers.random_rational_speeds(rng, g.node_count))
            mu2 = mu2_of(g, sp)
            assert lam2 / float(sp.s_max) <= mu2 + 1e-8
            assert mu2 <= lam2 / float(sp.s_min) + 1e-8


def test_generalized_rayleigh_lower_bound():
    # <e, L S^-1 e>_S >= mu2 * <e, e>_S for zero-sum e (orthogonal to speeds).
    rng = np.random.default_rng(5)
    g = make_graph("cycle", n=8)
    for _ in range(100):
        sp = SpeedProfile.from_rationals(helpers.random_rational_speeds(rng, 8))
        mu2 = mu2_of(g, sp)
        e = rng.normal(size=8)
        e -= e.mean()  # <e, s>_S = sum e_i = 0
        lse = laplacian(g) @ (e * sp.inv_floats)
        lhs = np.sum(e * lse * sp.inv_floats)
        rhs = mu2 * np.sum(e * e * sp.inv_floats)
        assert lhs >= rhs - 1e-8 * max(1.0, abs(rhs))


def test_spectral_summary_k4_uniform():
    g = make_graph("complete", n=4)
    summary = spectral_summary(g, SpeedProfile.uniform(4))
    assert summary.lambda2 == pytest.approx(4.0, abs=1e-9)
    assert summary.mu2 == pytest.approx(4.0, abs=1e-9)
    assert summary.all_hold
    names = [b.name for b in summary.bound_report]
    assert "cheeger_lower" in names and "interlacing_upper" in names
    fiedler = next(b for b in summary.bound_report if b.name == "lambda2_min_degree_upper")
    assert fiedler.rhs == pytest.approx(4.0, abs=1e-12)  # (4/3) * 3


def test_spectral_summary_interlacing_row():
    g = make_graph("complete", n=2)
    summary = spectral_summary(g, SpeedProfile.from_rationals([1, 2]))
    lo = next(b for b in summary.bound_report if b.name == "interlacing_lower")
    hi = next(b for b in summary.bound_report if b.name == "interlacing_upper")
    assert lo.lhs == pytest.approx(1.0, abs=1e-10) and lo.holds
    assert hi.rhs == pytest.approx(2.0, abs=1e-10) and hi.holds
    assert summary.mu2 == pytest.approx(1.5, abs=1e-10)


def test_spectral_summary_skips_cheeger_above_cap():
    g = make_graph("cycle", n=24)
    summary = spectral_summary(g, SpeedProfile.uniform(24))
    assert not any(b.name.startswith("cheeger") for b in summary.bound_report)
    assert summary.all_hold


def test_granularity_examples():
    eps, mult = granularity_of([1, Fraction(3, 2), 2])
    assert eps == Fraction(1, 2) and mult == (2, 3, 4)
    eps, mult = granularity_of([1, 1, 1])
    assert eps == 1 and mult == (1, 1, 1)
    eps, mult = granularity_of([1, 3])
    assert eps == 1 and mult == (1, 3)


def test_granularity_rejects_floats():
    with pytest.raises(ConfigError):
        granularity_of([1.5, 2.0])


def test_speed_profile_takes_only_exact_speeds():
    # A weighted round reads only the float inverse speeds, so float speeds
    # would run unnoticed; the type itself refuses anything but a Fraction.
    for speeds in ((1.0, 2.5), (Fraction(1), 2.5), (Fraction(1), 2)):
        with pytest.raises(ConfigError, match="Fraction"):
            SpeedProfile(speeds)
    assert SpeedProfile((Fraction(1), Fraction(5, 2))).granularity == Fraction(1, 2)


def test_speed_profile_aggregates_match_the_per_speed_definitions():
    # The aggregates are computed on the integer multipliers; each must equal
    # its definition evaluated speed by speed on the Fractions, and the floats
    # must equal float() of each speed exactly.
    rng = np.random.default_rng(31)
    for n in (1, 2, 5, 64):
        for _ in range(10):
            raw = helpers.random_rational_speeds(rng, n, max_num=40, max_den=12)
            sp = SpeedProfile.from_rationals(raw)
            lo = min(raw)
            assert sp.speeds == tuple(f / lo for f in raw)
            assert sp.total_capacity == sum(sp.speeds, Fraction(0))
            assert sp.s_max == max(sp.speeds)
            assert sp.harmonic_mean == n / sum((1 / s for s in sp.speeds), Fraction(0))
            assert tuple(sp.granularity * k for k in sp.multipliers) == sp.speeds
            assert sp.floats.tolist() == [float(s) for s in sp.speeds]
            assert sp.inv_floats.tolist() == [1.0 / float(s) for s in sp.speeds]


def test_speed_profile_normalization_and_means():
    sp = SpeedProfile.from_rationals([2, 3, 4])
    assert sp.s_min == 1 and sp.speeds[0] == 1
    assert sp.s_max == 2
    assert sp.harmonic_mean <= sp.arithmetic_mean
    assert sp.total_capacity >= sp.n
    rng = np.random.default_rng(9)
    for _ in range(25):
        sp = SpeedProfile.from_rationals(helpers.random_rational_speeds(rng, 6))
        assert sp.s_min == 1
        assert sp.harmonic_mean <= sp.arithmetic_mean + Fraction(0)
        eps = sp.granularity
        assert 0 < eps <= 1
        assert all(s / eps == int(s / eps) for s in sp.speeds)


def test_scaled_laplacian_shape_mismatch():
    with pytest.raises(ConfigError):
        scaled_laplacian(make_graph("cycle", n=4), SpeedProfile.uniform(3))


# Path 5 with these speeds: mu2 is simple, well apart from 0 and mu3.
CERT_SPEEDS = [1, 2, 1, 3, 1]


@pytest.mark.parametrize("wrong_index", [0, 2])
def test_certificate_rejects_wrong_eigenvalue(monkeypatch, capsys, wrong_index):
    g = make_graph("path", n=5)
    sp = SpeedProfile.from_rationals(CERT_SPEEDS)
    vals = eigen_decomposition(scaled_laplacian(g, sp))
    assert vals[1] - vals[0] > 0.1 and vals[2] - vals[1] > 0.1
    solve = spectral.eigen_decomposition

    def wrong(mat):
        # Put vals[wrong_index] where the caller reads the second eigenvalue.
        got = solve(mat)
        return np.concatenate([got[:1], got]) if wrong_index == 0 else np.delete(got, 1)

    monkeypatch.setattr(spectral, "eigen_decomposition", wrong)
    with pytest.raises(EigensolverError):
        mu2_of(g, sp)
    code = cli_main(["spectra", "--family", "path", "--n", "5",
                     "--speeds", ",".join(map(str, CERT_SPEEDS))])
    assert code == EXIT_INTERNAL
    assert "certificate failed" in capsys.readouterr().err


def _forbid_dense_solve(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("unexpected dense solve")
    monkeypatch.setattr(spectral, "eigen_decomposition", fail)


def test_mu2_uniform_speeds_makes_no_dense_solve(monkeypatch):
    _forbid_dense_solve(monkeypatch)
    for fam, kw in (("cycle", {"n": 8}), ("torus2d", {"rows": 32, "cols": 32}),
                    ("hypercube", {"dim": 4})):
        g = make_graph(fam, **kw)
        sp = SpeedProfile.uniform(g.node_count)
        assert mu2_of(g, sp) == lambda2_of(g) == g.lambda2
        assert spectral_summary(g, sp).all_hold


def test_dense_solve_size_limit(monkeypatch):
    n = DENSE_SOLVE_MAX_NODES + 1
    g = make_graph("cycle", n=n)
    sp = SpeedProfile.from_rationals([2] + [1] * (n - 1))
    _forbid_dense_solve(monkeypatch)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="dense eigensolve"):
            mu2_of(g, sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n // 100, peak  # no n x n matrix was allocated
    # Family graphs with uniform speeds need no solve and stay unlimited.
    uniform = SpeedProfile.uniform(n)
    assert mu2_of(g, uniform) == lambda2_of(g) == pytest.approx(
        helpers.lambda2_closed_form("cycle", n=n), rel=1e-9)
    code = cli_main(["spectra", "--family", "cycle", "--n", str(n),
                     "--speeds", ",".join(["2"] + ["1"] * (n - 1))])
    assert code == EXIT_CONFIG


def test_dense_solve_size_limit_explicit_graph(monkeypatch):
    monkeypatch.setattr(spectral, "DENSE_SOLVE_MAX_NODES", 8)
    star = make_graph("explicit", n=9, edges=[(0, k) for k in range(1, 9)])
    with pytest.raises(ConfigError, match="dense eigensolve"):
        lambda2_of(star)
    small_star = make_graph("explicit", n=8, edges=[(0, k) for k in range(1, 8)])
    assert lambda2_of(small_star) == pytest.approx(1.0, abs=1e-10)  # star S_k: 1


RUN_CONFIG = """\
graph.family = cycle
graph.n = 8
speeds.mode = explicit
speeds.values = 1,3/2,1,2,1,3/2,1,2
tasks.mode = uniform
tasks.count = 64
run.trials = 2
run.stop = fixed-rounds
run.rounds = 5
run.master_seed = 42
"""


def _run(tmp_path, text):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text, encoding="utf-8")
    code = cli_main(["run", str(cfg_path)])
    summary = tmp_path / "out" / "summary.json"
    return code, json.loads(summary.read_text()) if summary.exists() else None


def test_run_makes_no_dense_solve_on_family_graphs(tmp_path, monkeypatch):
    # A run reads lambda2 only, in closed form for a family graph: mu2 and
    # the bound rows belong to `netbalance spectra`.
    _forbid_dense_solve(monkeypatch)
    code, summary = _run(tmp_path, RUN_CONFIG)
    assert code == EXIT_OK
    assert summary["spectral"] == {"lambda2": lambda2_of(make_graph("cycle", n=8))}
    # So no dense-solve limit applies to a family graph with non-uniform speeds.
    monkeypatch.setattr(spectral, "DENSE_SOLVE_MAX_NODES", 8)
    text = RUN_CONFIG.replace("graph.n = 8", "graph.n = 9").replace(
        "1,3/2,1,2,1,3/2,1,2", ",".join(["2"] + ["1"] * 8))
    assert _run(tmp_path, text)[0] == EXIT_OK


def test_explicit_graph_run_solves_lambda2_once(tmp_path, monkeypatch):
    solves = []
    real = spectral.eigen_decomposition
    monkeypatch.setattr(spectral, "eigen_decomposition",
                        lambda mat: solves.append(mat.shape) or real(mat))
    spectral._solved_lambda2.cache_clear()
    (tmp_path / "star.edges").write_text(
        "9\n" + "".join(f"0 {k}\n" for k in range(1, 9)), encoding="utf-8")
    text = RUN_CONFIG.replace("graph.family = cycle\ngraph.n = 8",
                              "graph.family = explicit\ngraph.edge_list = star.edges").replace(
        "1,3/2,1,2,1,3/2,1,2", "1,3/2,1,2,1,3/2,1,2,1")
    # Past the limit the run fails on lambda2, before any output is made.
    monkeypatch.setattr(spectral, "DENSE_SOLVE_MAX_NODES", 8)
    assert _run(tmp_path, text) == (EXIT_CONFIG, None)
    assert not (tmp_path / "out").exists()
    monkeypatch.setattr(spectral, "DENSE_SOLVE_MAX_NODES", DENSE_SOLVE_MAX_NODES)
    code, summary = _run(tmp_path, text)
    assert code == EXIT_OK and solves == [(9, 9)]
    assert summary["spectral"]["lambda2"] == pytest.approx(1.0, abs=1e-10)


def test_granularity_computed_once(monkeypatch):
    calls = []
    real = spectral.granularity_of
    monkeypatch.setattr(spectral, "granularity_of",
                        lambda speeds: calls.append(1) or real(speeds))
    sp = SpeedProfile.from_rationals([1, Fraction(3, 2), 2])
    assert sp.granularity == Fraction(1, 2) and sp.multipliers == (2, 3, 4)
    assert sp.granularity == Fraction(1, 2) and sp.multipliers == (2, 3, 4)
    assert len(calls) == 1
