import math

import pytest
from hypothesis import given, settings, strategies as st

from spinchain.analytics import (
    epsilon,
    error_budget,
    first_order_states,
    n1,
    p1_target,
    p1_total,
    regime,
    suppression_rabi,
    suppression_windows,
    u3_table,
)
from spinchain.cli import write_error_budget_csv


def test_epsilon_published_anchors():
    tau1 = math.pi / 0.0906
    assert epsilon(0.0906, 2.0, tau1) == pytest.approx(4.78e-5, rel=0.01)
    assert epsilon(0.0906, 4.0, tau1) == pytest.approx(3.23e-5, rel=0.01)
    tau2 = math.pi / 0.20844
    assert epsilon(0.20844, 2.0, tau2) == pytest.approx(2.98e-3, rel=0.01)
    assert epsilon(0.20844, 4.0, tau2) == pytest.approx(2.41e-3, rel=0.01)


def test_epsilon_resonant_pi_pulse_is_certain():
    assert epsilon(0.7, 0.0, math.pi / 0.7) == pytest.approx(1.0, abs=1e-15)


def test_suppression_rabi_values():
    assert suppression_rabi(1.0, 1) == pytest.approx(1 / math.sqrt(3))
    assert suppression_rabi(2.0, 11) == pytest.approx(2 / math.sqrt(483))
    assert suppression_rabi(2.0, 11) == pytest.approx(0.09100, abs=5e-6)
    with pytest.raises(ValueError):
        suppression_rabi(1.0, 0)
    with pytest.raises(ValueError):
        suppression_rabi(0.0, 1)


@pytest.mark.parametrize("Delta", [1.0, 2.0, 4.0])
def test_epsilon_vanishes_at_suppression_points(Delta):
    for k in range(1, 21):
        om = suppression_rabi(Delta, k)
        assert epsilon(om, Delta, math.pi / om) < 1e-24


def test_epsilon_positive_between_suppression_zeros():
    # interior points between consecutive zeros are strictly positive
    Delta = 2.0
    for k in range(1, 10):
        lo = suppression_rabi(Delta, k + 1)
        hi = suppression_rabi(Delta, k)
        for f in (0.1, 0.5, 0.9):
            om = lo + f * (hi - lo)
            assert epsilon(om, Delta, math.pi / om) > 0.0


def test_n1_counts():
    assert n1(3) == 3
    assert n1(10) == 17
    assert n1(70) == 137
    with pytest.raises(ValueError):
        n1(2)


def test_first_order_families_L4():
    family_a, family_b = first_order_states(4)
    assert [str(s) for s in family_a] == ["0001", "0011", "0111"]
    assert [str(s) for s in family_b] == ["0010", "0110"]


@given(L=st.integers(3, 60))
def test_first_order_families_cover_n1(L):
    family_a, family_b = first_order_states(L)
    assert len(family_a) == L - 1
    assert len(family_b) == L - 2
    assert len(family_a) + len(family_b) == n1(L)
    states = {s.bits for s in family_a + family_b}
    assert len(states) == n1(L)
    for s in family_a:
        assert s.bit(0) == 1 and s.bit(L - 1) == 0
    for s in family_b:
        assert s.bit(0) == 0 and s.bit(1) == 1 and s.bit(L - 1) == 0


def test_p1_total_hand_sum():
    # L=3, eps=0.1: 0.1*(1 + 0.9 + 0.8) = 0.27
    assert p1_total(3, 0.1).exact == pytest.approx(0.27)
    assert p1_total(3, 0.0).exact == 0.0
    assert p1_total(3, 0.0).approx == 0.0


def test_p1_total_approximation_close_at_scale():
    est = p1_total(100, 4.78e-5)
    assert est.approx == pytest.approx(est.exact, rel=1e-4)


@given(L=st.integers(3, 120), eps=st.floats(1e-8, 1.5e-3))
def test_p1_total_exact_dominates_approx(L, eps):
    # exact - approx = eps^2 (2L-3)/2 identically, so the gap is second
    # order in E = (2L-3) eps and the exact sum always dominates
    est = p1_total(L, eps)
    big_e = (2 * L - 3) * eps
    assert est.exact >= est.approx - 1e-15
    assert est.exact - est.approx == pytest.approx(eps**2 * (2 * L - 3) / 2, rel=1e-9, abs=1e-18)
    if big_e <= 0.3:
        assert abs(est.exact - est.approx) <= big_e**2


def test_p1_target_hand_sum():
    # L=4, eps=0.1: 0.1 + 0.1*(0.9 + 0.7) = 0.26
    assert p1_target(4, 0.1).exact == pytest.approx(0.26)
    assert p1_target(4, 0.0).exact == 0.0


def test_p1_target_approx_close_for_long_chains():
    # the approximation drops one lone eps term, so the relative gap is
    # ~1/(L-2): take a chain long enough for 1e-3
    L, gamma = 5000, 0.1
    eps = gamma / (L - 2)
    est = p1_target(L, eps)
    assert est.approx == pytest.approx(est.exact, rel=1e-3)


def test_regime_classification():
    assert regime(4.78e-5, P0=1e-6) == "eps1-eps2"
    assert regime(2.98e-3, P0=1e-6) == "eps2-eps3"
    assert regime(1e-8, P0=1e-6) == "below-eps1"
    assert regime(0.5, P0=1e-6) == "above-eps3"
    # boundaries belong to the lower regime
    assert regime(1e-6, P0=1e-6) == "below-eps1"
    assert regime(1e-3, P0=1e-6) == "eps1-eps2"
    assert regime(1e-2, P0=1e-6) == "eps2-eps3"
    with pytest.raises(ValueError):
        regime(0.1, P0=0.0)


def test_u3_table_values():
    rows = u3_table(0.1, 0.2)
    assert [p for _, p in rows] == pytest.approx([0.648, 0.162, 0.091, 0.099])
    assert [pat for pat, _ in rows] == ["0000...", "0100...", "0010...", "0110..."]
    assert [p for _, p in u3_table(0.0, 0.0)] == [1.0, 0.0, 0.0, 0.0]


@given(eps=st.floats(0, 1), eps_prime=st.floats(0, 1))
def test_u3_rows_sum_to_one(eps, eps_prime):
    assert sum(p for _, p in u3_table(eps, eps_prime)) == pytest.approx(1.0, abs=1e-12)


def test_error_budget_fields():
    b = error_budget(L=10, Omega=0.0906, J=1.0, P0=1e-6)
    assert b.N1 == 17
    assert b.eps == pytest.approx(4.78e-5, rel=0.01)
    assert b.eps_prime == pytest.approx(3.23e-5, rel=0.01)
    assert b.E == pytest.approx(17 * b.eps)
    assert b.Gamma == pytest.approx(8 * b.eps)
    assert b.P1 == pytest.approx(p1_total(10, b.eps).exact)
    assert b.P1cal == pytest.approx(p1_target(10, b.eps).exact)
    assert b.regime == "eps1-eps2"


def test_error_budget_csv(tmp_path):
    budgets = [error_budget(L, 0.0906) for L in (4, 6)]
    path = tmp_path / "budgets.csv"
    write_error_budget_csv(budgets, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "L,Omega,eps,eps_prime,N1,P1,P1cal,E,Gamma,regime"
    assert len(lines) == 3
    assert lines[1].startswith("4,") and lines[1].endswith("eps1-eps2")


def test_suppression_windows_near_first_dip():
    windows = suppression_windows(P0=1e-6,
                                  omega_lo=0.0199, omega_hi=0.0205,
                                  samples=20_000)
    assert len(windows) >= 1
    lo, hi = windows[0]
    center = 0.5 * (lo + hi)
    assert (hi - lo) / center < 0.02
    tau = math.pi / center
    assert max(epsilon(center, 2.0, tau), epsilon(center, 4.0, tau)) < 1e-6
    # just outside the refined edges the pulse is no longer errorless
    for om in (lo - (hi - lo), hi + (hi - lo)):
        tau = math.pi / om
        assert max(epsilon(om, 2.0, tau), epsilon(om, 4.0, tau)) > 1e-6
