import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinchain.analytics import (
    epsilon,
    error_budget,
    ground_branch_errors,
    n1,
    p1_target,
    p1_total,
    regime,
)
from spinchain.cli import write_error_budget_csv
from spinchain.model import ChainParams
from spinchain.propagator import run_protocol
from spinchain.protocol import cn_remote_protocol

from oracles import basis_state, bit, first_order_states, probability, sequence, suppression_rabi, u3_table


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


@pytest.mark.parametrize("call", [n1, first_order_states, lambda L: p1_total(L, 0.1),
                                  lambda L: p1_target(L, 0.1)])
def test_short_chain_rejected_with_one_message(call):
    with pytest.raises(ValueError, match=r"^remote-CN protocol needs L >= 3, got 2$"):
        call(2)


@pytest.mark.parametrize("call", [p1_total, p1_target])
@pytest.mark.parametrize("eps", [-1e-3, 1.5])
def test_first_order_sums_reject_eps_off_probabilities(call, eps):
    with pytest.raises(ValueError, match=rf"^eps must be a probability, got {eps}$"):
        call(5, eps)


def test_first_order_families_L4():
    family_a, family_b = first_order_states(4)
    assert family_a == [0b0001, 0b0011, 0b0111]
    assert family_b == [0b0010, 0b0110]


@given(L=st.integers(3, 60))
def test_first_order_families_cover_n1(L):
    family_a, family_b = first_order_states(L)
    assert len(family_a) == L - 1
    assert len(family_b) == L - 2
    assert len(family_a) + len(family_b) == n1(L)
    states = set(family_a + family_b)
    assert len(states) == n1(L)
    for s in family_a:
        assert bit(s, 0, L) == 1 and bit(s, L - 1, L) == 0
    for s in family_b:
        assert bit(s, 0, L) == 0 and bit(s, 1, L) == 1 and bit(s, L - 1, L) == 0


def test_p1_total_hand_sum():
    # L=3, eps=0.1: 0.1*(1 + 0.9 + 0.8) = 0.27
    assert p1_total(3, 0.1) == pytest.approx(0.27)
    assert p1_total(3, 0.0) == 0.0


def test_p1_target_hand_sum():
    # L=4, eps=0.1: 0.1 + 0.1*(0.9 + 0.7) = 0.26
    assert p1_target(4, 0.1) == pytest.approx(0.26)
    assert p1_target(4, 0.0) == 0.0


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


@pytest.mark.parametrize("L", [3, 4, 10, 40])
def test_u3_table_describes_the_first_three_pulses(L):
    """u3_table against the resonance map after pulses 1-3 from |0...0>.

    Pulse 1 flips spin L-2 and pulse 3 flips it back; pulse 2 flips spin
    L-3.  From the ground state they err with eps, eps and eps' (detunings
    2J, 2J, 4J), so |0000...> and |0100...> are fed by one path each and
    match the table exactly.  |0110...> and |0010...> form the pair that
    pulse 3 drives at detuning 2J, and each is fed by two paths:

      A = |0110...> after pulse 2: pulse 1 errs (eps), pulse 2 is
          resonant, so |A|^2 = eps;
      B = |0010...> after pulse 2: ground survives pulse 1, pulse 2 errs,
          so |B|^2 = (1 - eps) eps.

    Pulse 3 keeps a fraction 1 - eps of each amplitude in place and moves
    eps to its partner, so

      P(0110...) = (1-eps)|A|^2 + eps|B|^2 + X = eps(1 - eps^2) + X,
      P(0010...) = eps|A|^2 + (1-eps)|B|^2 - X = eps(1 - eps + eps^2) - X,

    with the interference term X = 2 sqrt((1-eps) eps |A|^2 |B|^2) cos(phi)
    = 2 eps^(3/2) (1 - eps) cos(phi), which unitarity makes cancel in the
    sum.  The table adds the paths incoherently (X = 0), so the sum of the
    two rows matches to rounding and each row lies within
    2 eps^(3/2) (1 - eps) of the map.  Over 59 Omegas in [0.02, 0.6] the
    largest gap is 0.999985 of that allowance: the phase reaches cos = +-1.
    """
    params = ChainParams(L=L)
    for Omega in [0.02 + 0.01 * i for i in range(59)]:
        seq = cn_remote_protocol(params, Omega)
        eps, eps_prime = ground_branch_errors(Omega, params.J)
        state, _ = run_protocol(basis_state(0, L),
                                sequence(*seq.pulses[:3]), params, P_drop=0.0)
        table = dict(u3_table(eps, eps_prime))
        # patterns are control-first with trailing zeros elided
        got = {pattern: probability(state, int((pattern.rstrip(".") + "0" * L)[:L], 2))
               for pattern in table}
        for pattern in ("0000...", "0100..."):
            assert got[pattern] == pytest.approx(table[pattern], abs=1e-12)
        pair = ("0010...", "0110...")
        assert sum(got[p] for p in pair) == pytest.approx(sum(table[p] for p in pair), abs=1e-12)
        allowance = 2 * eps**1.5 * (1 - eps)
        for pattern in pair:
            assert abs(got[pattern] - table[pattern]) <= allowance, (Omega, pattern)


def test_ground_branch_errors_are_eps_at_2J_and_4J():
    for Omega, J in [(0.0906, 1.0), (0.20844, 0.7)]:
        tau = math.pi / Omega
        errors = ground_branch_errors(Omega, J)
        assert errors == (epsilon(Omega, 2.0 * J, tau), epsilon(Omega, 4.0 * J, tau))
        assert [type(e) for e in errors] == [float, float]
    # a grid is the per-point float calls, bit for bit (fig1's range)
    grid = np.linspace(0.02, 0.6, 2901)
    for J in (1.0, 0.7):
        eps, eps_prime = ground_branch_errors(grid, J)
        pointwise = [ground_branch_errors(om, J) for om in grid.tolist()]
        assert list(zip(eps.tolist(), eps_prime.tolist())) == pointwise
    budget = error_budget([10], Omega=0.20844, J=0.7, P0=1e-6)
    assert (*budget["eps"], *budget["eps_prime"]) == ground_branch_errors(0.20844, 0.7)


def test_error_budget_fields():
    # each column of a one-length budget holds one value
    budget = error_budget([10], Omega=0.0906, J=1.0, P0=1e-6)
    b = {name: value for name, [value] in budget.items()}
    assert b["N1"] == 17
    assert b["eps"] == pytest.approx(4.78e-5, rel=0.01)
    assert b["eps_prime"] == pytest.approx(3.23e-5, rel=0.01)
    assert b["E"] == pytest.approx(17 * b["eps"])
    assert b["Gamma"] == pytest.approx(8 * b["eps"])
    assert b["P1"] == p1_total(10, b["eps"])
    assert b["P1cal"] == p1_target(10, b["eps"])
    assert b["regime"] == "eps1-eps2"


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(3, 2000), min_size=1, max_size=30),
       Omega=st.floats(0.005, 3.0), J=st.floats(0.05, 5.0), P0=st.floats(1e-15, 0.9))
def test_error_budget_columns_are_the_per_length_scalars(lengths, Omega, J, P0):
    # each column, from array calls over every length at once, holds the
    # scalar value of each length bit for bit, as the Python int, float or
    # str that a CSV field is written from (reprs differ otherwise)
    eps, eps_prime = ground_branch_errors(Omega, J)
    expected = {
        "L": lengths,
        "Omega": [Omega] * len(lengths),
        "eps": [eps] * len(lengths),
        "eps_prime": [eps_prime] * len(lengths),
        "N1": [2 * L - 3 for L in lengths],
        "P1": [p1_total(L, eps) for L in lengths],
        "P1cal": [p1_target(L, eps) for L in lengths],
        "E": [(2 * L - 3) * eps for L in lengths],
        "Gamma": [(L - 2) * eps for L in lengths],
        "regime": [regime(eps, P0)] * len(lengths),
    }
    budget = error_budget(lengths, Omega, J=J, P0=P0)
    assert list(budget) == list(expected)
    for name, values in expected.items():
        assert list(map(repr, budget[name])) == list(map(repr, values)), name


def test_error_budget_csv(tmp_path):
    budget = error_budget((4, 6), 0.0906, J=1.0, P0=1e-6)
    path = tmp_path / "budgets.csv"
    write_error_budget_csv(budget, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "L,Omega,eps,eps_prime,N1,P1,P1cal,E,Gamma,regime"
    assert len(lines) == 3
    assert lines[1].startswith("4,") and lines[1].endswith("eps1-eps2")
