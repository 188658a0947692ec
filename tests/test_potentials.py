"""Potential snapshots and the exact expected-drop oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from netbalance.errors import ConfigError
from netbalance.graphs import make_graph
from netbalance.potentials import (
    critical_value,
    drop_quadratic_bound,
    exact_expected_psi0_drop,
    exact_expected_psi1_drop,
    exact_variance_sum,
    gamma_factor,
    lambda_term,
    node_change_moments,
    phi1_drop_routes,
    psi0_value,
    snapshot,
    variance_bound,
)
from netbalance.protocol import (
    ALGORITHM2,
    LoadState,
    ProtocolParams,
    random_task_weights,
    step_round_totals,
    weighted_all_on_one,
)
from netbalance.spectral import SpeedProfile

import helpers

K2 = make_graph("complete", n=2)
C4 = make_graph("cycle", n=4)
UNI2 = SpeedProfile.uniform(2)
PARAMS = ProtocolParams(rng_seed=1)


def test_snapshot_hand_examples():
    snap = snapshot(K2, UNI2, LoadState.uniform((4, 0)))
    assert snap.psi0 == pytest.approx(8.0, abs=1e-12)
    assert snap.l_delta == pytest.approx(2.0, abs=1e-12)

    balanced = snapshot(K2, UNI2, LoadState.uniform((2, 2)))
    assert balanced.psi0 == pytest.approx(0.0, abs=1e-12)
    assert balanced.l_delta == pytest.approx(0.0, abs=1e-12)
    assert balanced.phi1 == pytest.approx(12.0, abs=1e-12)
    assert balanced.psi1 == pytest.approx(0.0, abs=1e-12)


def test_snapshot_balanced_with_speeds():
    sp = SpeedProfile.from_rationals([1, 3])
    snap = snapshot(K2, sp, LoadState.uniform((2, 6)))  # w_i = (W/S) s_i exactly
    assert snap.psi0 == pytest.approx(0.0, abs=1e-12)
    assert snap.l_delta == pytest.approx(0.0, abs=1e-12)


def test_lambda_term_examples():
    nash = LoadState.uniform((1, 1))
    assert lambda_term(K2, UNI2, nash, PARAMS, 0, 1, 0) == 0.0
    st = LoadState.uniform((2, 0))
    # alpha=4, f=1/4: (2*4-2)*1*2*(1/4) = 3; equal speeds cancel the r terms.
    assert lambda_term(K2, UNI2, st, PARAMS, 0, 1, 0) == pytest.approx(3.0, abs=1e-12)
    assert lambda_term(K2, UNI2, st, PARAMS, 0, 1, 1) == pytest.approx(3.0, abs=1e-12)


def test_lambda_term_algebraic_identity():
    # On non-Nash edges: Lambda^r = (2 - 2/alpha)*(l_i - l_j) + r/s_i - r/s_j.
    sp = SpeedProfile.from_rationals([1, 2, 1, 3])
    rng = np.random.default_rng(2)
    from netbalance.protocol import non_nash_edges
    for _ in range(20):
        st = LoadState.uniform(rng.integers(0, 10, size=4))
        loads = st.loads(sp)
        alpha = 12.0  # 4 * s_max
        for i, j in non_nash_edges(C4, sp, st):
            expect = (2 - 2 / alpha) * (loads[i] - loads[j]) \
                + 1 / float(sp.speeds[i]) - 1 / float(sp.speeds[j])
            got = lambda_term(C4, sp, st, PARAMS, i, j, 1)
            assert got == pytest.approx(expect, rel=1e-12)


def test_exact_psi0_drop_golden_and_enumeration():
    st = LoadState.uniform((2, 0))
    drop = exact_expected_psi0_drop(node_change_moments(K2, UNI2, st, PARAMS))
    assert drop == Fraction(7, 16)
    enum = helpers.enum_expected_psi0_drop(
        K2, [Fraction(1), Fraction(1)], (2, 0), Fraction(4))
    assert enum == Fraction(7, 16)
    # Equilibrium states have no randomness and no drop.
    nash = LoadState.uniform((1, 1))
    assert exact_expected_psi0_drop(node_change_moments(K2, UNI2, nash, PARAMS)) == 0


@pytest.mark.parametrize("counts,speeds", [
    ((2, 0), (1, 1)),
    ((3, 0), (1, 2)),
    ((3, 1), (1, 1)),
    ((0, 3), (2, 1)),
])
def test_closed_form_matches_enumeration_k2(counts, speeds):
    sp = SpeedProfile.from_rationals(speeds)
    st = LoadState.uniform(counts)
    alpha = 4 * sp.s_max
    params = ProtocolParams(rng_seed=0, alpha=alpha)
    drop = exact_expected_psi0_drop(node_change_moments(K2, sp, st, params))
    enum = helpers.enum_expected_psi0_drop(K2, list(sp.speeds), counts, alpha)
    assert drop == enum  # both exact rationals


def test_closed_form_matches_enumeration_path3():
    g = make_graph("path", n=3)
    sp = SpeedProfile.from_rationals([1, 1, 2])
    st = LoadState.uniform((3, 0, 1))
    alpha = 4 * sp.s_max
    params = ProtocolParams(rng_seed=0, alpha=alpha)
    drop = exact_expected_psi0_drop(node_change_moments(g, sp, st, params))
    enum = helpers.enum_expected_psi0_drop(g, list(sp.speeds), (3, 0, 1), alpha)
    assert drop == enum


def test_exact_psi1_drop_examples():
    st = LoadState.uniform((2, 0))
    assert exact_expected_psi1_drop(node_change_moments(K2, UNI2, st, PARAMS)) \
        == Fraction(7, 16)
    nash = LoadState.uniform((1, 1))
    assert exact_expected_psi1_drop(node_change_moments(K2, UNI2, nash, PARAMS)) == 0
    # Bound check: 7/16 >= eps^2/(8*Delta*s_max^3) = 1/8.
    assert Fraction(7, 16) >= Fraction(1, 8)
    # Hand-enumerated value for speeds (1,2), w=(4,0), alpha=8.
    sp = SpeedProfile.from_rationals([1, 2])
    drop = exact_expected_psi1_drop(node_change_moments(
        K2, sp, LoadState.uniform((4, 0)), ProtocolParams(rng_seed=0)))
    assert drop == Fraction(53, 24)


def test_exact_variance_sum_examples():
    st = LoadState.uniform((2, 0))
    v = exact_variance_sum(node_change_moments(K2, UNI2, st, PARAMS))
    assert v == Fraction(7, 16)
    rhs = variance_bound(K2, UNI2, st, PARAMS)
    assert rhs == pytest.approx(0.5, abs=1e-15)
    assert float(v) <= rhs
    nash = LoadState.uniform((1, 1))
    assert exact_variance_sum(node_change_moments(K2, UNI2, nash, PARAMS)) == 0
    rng = np.random.default_rng(6)
    sp = SpeedProfile.from_rationals([1, 2, 1, 3])
    for _ in range(25):
        st = LoadState.uniform(rng.integers(0, 9, size=4))
        assert float(exact_variance_sum(node_change_moments(C4, sp, st, PARAMS))) <= \
            variance_bound(C4, sp, st, PARAMS) + 1e-12


def test_drop_quadratic_bound_on_random_states():
    rng = np.random.default_rng(4)
    sp = SpeedProfile.from_rationals([1, 2, 1, 3])
    for _ in range(25):
        st = LoadState.uniform(rng.integers(0, 9, size=4))
        drop = float(exact_expected_psi0_drop(node_change_moments(C4, sp, st, PARAMS)))
        assert drop >= drop_quadratic_bound(C4, sp, st, PARAMS) - 1e-12


def test_critical_value_examples():
    k4 = make_graph("complete", n=4)
    assert critical_value(k4, SpeedProfile.uniform(4)) == pytest.approx(24.0, abs=1e-8)
    assert critical_value(K2, UNI2) == pytest.approx(8.0, abs=1e-10)
    sp2 = SpeedProfile.from_rationals([1, 2])
    assert critical_value(K2, sp2) == pytest.approx(16.0, abs=1e-10)
    assert critical_value(K2, UNI2, constant=16) == pytest.approx(16.0, abs=1e-10)
    with pytest.raises(Exception):
        critical_value(K2, UNI2, constant=12)


def test_gamma_factor():
    k4 = make_graph("complete", n=4)
    assert gamma_factor(k4, SpeedProfile.uniform(4)) == pytest.approx(24.0, abs=1e-8)
    # Paper formula for C4: 32 * Delta * s_max^2 / lambda2 = 32.
    assert gamma_factor(C4, SpeedProfile.uniform(4)) == pytest.approx(32.0, abs=1e-8)


def test_l_delta_sandwich_exact_random_states():
    rng = np.random.default_rng(12)
    graphs = [K2, C4, make_graph("path", n=5)]
    patterns = [(1,), (1, 2), (1, 3)]
    checked = 0
    while checked < 1000:
        g = graphs[checked % len(graphs)]
        pat = patterns[checked % len(patterns)]
        sp = SpeedProfile.from_rationals(
            [pat[i % len(pat)] for i in range(g.node_count)])
        st = LoadState.uniform(rng.integers(0, 14, size=g.node_count))
        e = node_change_moments(g, sp, st, PARAMS).deviations
        assert all(type(d) is Fraction for d in e)
        psi0 = sum((d * d / s for d, s in zip(e, sp.speeds)), Fraction(0))
        ld = max(abs(d) / s for d, s in zip(e, sp.speeds))
        assert ld * ld <= psi0 <= sp.total_capacity * ld * ld
        checked += 1


def test_phi1_and_psi1_drop_routes_agree():
    sp = SpeedProfile.from_rationals([1, 2, 1, 3])
    rng = np.random.default_rng(20)
    for _ in range(10):
        st = LoadState.uniform(rng.integers(0, 9, size=4))
        moments = node_change_moments(C4, sp, st, PARAMS)
        via_phi1, via_psi1 = phi1_drop_routes(moments, sp, st)
        scale = max(1.0, abs(via_phi1), st.total_weight() ** 2)
        assert abs(via_phi1 - via_psi1) <= 1e-9 * scale


def test_weighted_oracle_against_monte_carlo():
    ws = random_task_weights(12, 31)
    st = weighted_all_on_one(ws, 4)
    sp = SpeedProfile.from_rationals([1, 2, 1, 2])
    pp = ProtocolParams(rng_seed=99, variant=ALGORITHM2)
    exact = exact_expected_psi0_drop(node_change_moments(C4, sp, st, pp))
    base = psi0_value(sp, st)
    n = 20_000
    drops = np.empty(n)
    for r in range(n):
        new, _ = step_round_totals(C4, sp, st, pp, r)
        drops[r] = base - psi0_value(sp, new)
    se = drops.std(ddof=1) / math.sqrt(n)
    assert abs(drops.mean() - exact) <= 4 * se



def test_moments_reject_variant_mode_mismatch():
    with pytest.raises(ConfigError):
        node_change_moments(K2, UNI2, LoadState.uniform((2, 0)),
                            ProtocolParams(rng_seed=0, variant=ALGORITHM2))
    with pytest.raises(ConfigError):
        node_change_moments(K2, UNI2, weighted_all_on_one([0.5, 0.5], 2), PARAMS)
