import math

import pytest
from hypothesis import given, strategies as st

from spinchain.model import BasisState, ChainParams, energy, larmor_frequency, transition_frequency
from oracles import energy_bruteforce


def test_larmor_base_case():
    p = ChainParams(L=6, J=1.0, omega0=1000.0, delta_omega=100.0)
    assert larmor_frequency(0, p) == 1000.0
    assert larmor_frequency(1, p) == 1100.0
    assert larmor_frequency(5, p) == 1500.0


def test_larmor_out_of_range():
    p = ChainParams(L=4)
    with pytest.raises(IndexError):
        larmor_frequency(4, p)
    with pytest.raises(IndexError):
        larmor_frequency(-1, p)


def test_energy_two_qubit_hand_values():
    p = ChainParams(L=2, J=1.3, omega0=90.0, delta_omega=17.0)
    w0, w1 = 90.0, 107.0
    assert energy(BasisState.from_string("00"), p) == pytest.approx(-(w0 + w1) / 2 - p.J / 2)
    assert energy(BasisState.from_string("01"), p) == pytest.approx((w0 - w1) / 2 + p.J / 2)


def test_energy_pair_identity_is_minus_2J():
    # E(00) + E(11) - E(01) - E(10) = -2J, by brute force over all four states
    p = ChainParams(L=2, J=2.5, omega0=100.0, delta_omega=30.0)
    e = {s: energy(BasisState(s, 2), p) for s in range(4)}
    assert e[0b00] + e[0b11] - e[0b01] - e[0b10] == pytest.approx(-2 * p.J)


@pytest.mark.parametrize("L", [2, 3, 6, 10])
def test_energy_matches_bruteforce(L):
    p = ChainParams(L=L, J=1.7, omega0=120.0, delta_omega=25.0)
    for s in range(1 << L):
        expect = energy_bruteforce(s, L, p.J, p.omega0, p.delta_omega)
        assert energy(BasisState(s, L), p) == pytest.approx(expect, abs=1e-12)


def test_transition_frequency_interior_cases():
    p = ChainParams(L=5)
    # both neighbours up -> omega_k + 2J
    state = BasisState.from_string("00000")
    assert transition_frequency(state, 2, p) == pytest.approx(larmor_frequency(2, p) + 2 * p.J)
    # neighbours down/up cancel -> omega_k
    state = BasisState.from_string("01000")  # qubit 3 down, neighbours of 2 are {3:1, 1:0}
    assert transition_frequency(state, 2, p) == pytest.approx(larmor_frequency(2, p))


def test_transition_frequency_edge_spin_with_down_neighbour():
    # edge spin 0 with neighbour bit 1 -> omega_0 - J
    p = ChainParams(L=4)
    state = BasisState.from_string("0010")
    assert transition_frequency(state, 0, p) == pytest.approx(p.omega0 - p.J)


@pytest.mark.parametrize("L", [2, 4, 6])
def test_transition_frequency_equals_energy_difference(L):
    p = ChainParams(L=L, J=1.2, omega0=110.0, delta_omega=21.0)
    for s in range(1 << L):
        state = BasisState(s, L)
        for k in range(L):
            gap = abs(energy(state.flipped(k), p) - energy(state, p))
            assert transition_frequency(state, k, p) == pytest.approx(gap, abs=1e-10)


@given(L=st.integers(2, 10), data=st.data())
def test_transition_frequency_flip_symmetry(L, data):
    bits = data.draw(st.integers(0, (1 << L) - 1))
    k = data.draw(st.integers(0, L - 1))
    p = ChainParams(L=L)
    state = BasisState(bits, L)
    assert transition_frequency(state, k, p) == pytest.approx(
        transition_frequency(state.flipped(k), k, p), abs=1e-12)


@pytest.mark.parametrize("L", [3, 6, 10])
def test_transition_bands_disjoint_across_spins(L):
    # delta_omega > 4J: the transition-frequency sets of distinct spins
    # cannot collide
    p = ChainParams(L=L)
    bands = []
    for k in range(L):
        vals = {round(transition_frequency(BasisState(s, L), k, p), 9)
                for s in range(1 << L)}
        bands.append(vals)
        assert all(abs(v - larmor_frequency(k, p)) <= 2 * p.J for v in vals)
    for k in range(L):
        for kk in range(k + 1, L):
            assert not bands[k] & bands[kk]


def test_chain_params_validation():
    with pytest.raises(ValueError):
        ChainParams(L=1)
    with pytest.raises(ValueError):
        ChainParams(L=4, J=0.0)
    with pytest.raises(ValueError):
        ChainParams(L=4, delta_omega=-1.0)
    with pytest.raises(ValueError):
        ChainParams(L=4, J=1.0, delta_omega=4.0)  # needs > 4J
    with pytest.raises(ValueError):
        ChainParams(L=4, J=1.0, omega0=2.0)  # needs > 2J
    for field in ("J", "omega0", "delta_omega"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=field):
                ChainParams(L=4, **{field: bad})


def test_chain_params_defaults_scale_with_J():
    p = ChainParams(L=3, J=2.0)
    assert p.omega0 == 200.0
    assert p.delta_omega == 40.0


def test_basis_state_parsing_and_rendering():
    s = BasisState.from_string("10010")
    assert s.L == 5 and s.bits == 0b10010
    assert str(s) == "10010"
    assert s.bit(1) == 1 and s.bit(0) == 0 and s.bit(4) == 1
    assert str(s.flipped(0)) == "10011"
    with pytest.raises(ValueError):
        BasisState.from_string("10a1")
    with pytest.raises(ValueError):
        BasisState(bits=4, L=2)
    with pytest.raises(IndexError):
        s.bit(5)
