import math
from collections import ChainMap
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinchain.cli import ExperimentConfig
from spinchain.exact import _diagonal_terms
from spinchain.model import ChainParams, flip_gap, pack_keys
from spinchain.propagator import SparseState, bitstrings
from oracles import bit, energy_bruteforce, flip_gap_scalar, flipped


def test_energy_two_qubit_hand_values():
    # the full spectrum of the package is exact._diagonal_terms
    p = ChainParams(L=2, J=1.3, omega0=90.0, delta_omega=17.0)
    w0, w1 = 90.0, 107.0
    E, _ = _diagonal_terms(p)
    assert E[0b00] == pytest.approx(-(w0 + w1) / 2 - p.J / 2)
    assert E[0b01] == pytest.approx((w0 - w1) / 2 + p.J / 2)
    assert E[0b10] == pytest.approx((w1 - w0) / 2 + p.J / 2)
    assert E[0b11] == pytest.approx((w0 + w1) / 2 - p.J / 2)


def test_energy_pair_identity_is_minus_2J():
    # E(00) + E(11) - E(01) - E(10) = -2J, by brute force over all four states
    p = ChainParams(L=2, J=2.5, omega0=100.0, delta_omega=30.0)
    e = {s: energy_bruteforce(s, 2, p.J, p.omega0, p.delta_omega) for s in range(4)}
    assert e[0b00] + e[0b11] - e[0b01] - e[0b10] == pytest.approx(-2 * p.J)
    E, _ = _diagonal_terms(p)
    assert E[0b00] + E[0b11] - E[0b01] - E[0b10] == pytest.approx(-2 * p.J)


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6, 10])
def test_energy_matches_bruteforce(L):
    # L = 1 has no bond; ChainParams needs two spins, the spectrum does not
    p = (ChainParams(L=L, J=1.7, omega0=120.0, delta_omega=25.0) if L >= 2 else
         SimpleNamespace(L=1, J=1.7, omega0=120.0, delta_omega=25.0))
    E, M = _diagonal_terms(p)
    expect = [energy_bruteforce(s, L, p.J, p.omega0, p.delta_omega) for s in range(1 << L)]
    assert E == pytest.approx(expect, abs=1e-12)
    assert M == pytest.approx([L / 2 - bin(s).count("1") for s in range(1 << L)], abs=0)


def larmor(k, p):
    return p.omega0 + k * p.delta_omega


def gaps(states, ks, p):
    """The package's flip gap of each packed state at its spin, as floats."""
    return flip_gap(pack_keys(states, p.L), np.array(ks), p).tolist()


def test_transition_frequency_interior_cases():
    p = ChainParams(L=5)
    # both neighbours up -> omega_k + 2J; neighbours down/up cancel -> omega_k
    # (the neighbours of 2 are {3:1, 1:0}); both neighbours down -> omega_k - 2J
    assert gaps([0b00000, 0b01000, 0b01010], [2, 2, 2], p) == [
        larmor(2, p) + 2 * p.J, larmor(2, p), larmor(2, p) - 2 * p.J]


def test_transition_frequency_edge_spin_with_down_neighbour():
    # edge spin 0 with neighbour bit 1 -> omega_0 - J; edge spin L-1 likewise
    p = ChainParams(L=4)
    assert gaps([0b0010, 0b0100], [0, 3], p) == [p.omega0 - p.J, larmor(3, p) - p.J]


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_transition_frequency_equals_energy_difference(L):
    # flip_gap is E(bit k set) - E(bit k cleared) for every state and spin
    p = ChainParams(L=L, J=1.2, omega0=110.0, delta_omega=21.0)
    E = [energy_bruteforce(s, L, p.J, p.omega0, p.delta_omega) for s in range(1 << L)]
    states, ks = zip(*[(s, k) for s in range(1 << L) for k in range(L)])
    expect = [E[s | 1 << k] - E[s & ~(1 << k)] for s, k in zip(states, ks)]
    assert gaps(states, ks, p) == pytest.approx(expect, abs=1e-10)


@pytest.mark.parametrize("L", [2, 3, 63, 64, 65, 128, 129])
def test_array_flip_gap_equals_scalar_bit_for_bit(L):
    # every spin under every neighbour pattern, with the other bits random:
    # the array form reads (n, W) uint64 key rows, and an edge spin's
    # missing neighbour must add an exact zero
    rng = np.random.default_rng(L)
    p = ChainParams(L=L, J=0.7, omega0=100.1, delta_omega=20.3)
    ks, states = [], []
    for k in range(L):
        for pattern in range(4):
            others = int(rng.integers(0, 1 << min(L, 62))) << max(L - 62, 0)
            s = others & ~(0b111 << k >> 1)
            s |= (pattern & 1) << k >> 1 | (pattern >> 1) << (k + 1)
            ks.append(k)
            states.append(s & ((1 << L) - 1))
    scalar = [flip_gap_scalar(s, k, p) for s, k in zip(states, ks)]
    assert all(type(g) is float for g in scalar)
    array = flip_gap(pack_keys(states, L), np.array(ks), p)
    assert array.dtype == np.float64
    assert array.tobytes() == np.array(scalar).tobytes()
    # broadcasting: one spin per row against the rows' four patterns
    grid = flip_gap(pack_keys(states, L).reshape(L, 4, -1), np.arange(L)[:, None], p)
    assert grid.tobytes() == array.tobytes()


@given(L=st.integers(2, 10), data=st.data())
def test_transition_frequency_flip_symmetry(L, data):
    bits = data.draw(st.integers(0, (1 << L) - 1))
    k = data.draw(st.integers(0, L - 1))
    p = ChainParams(L=L)
    same, flipped_k = gaps([bits, bits ^ (1 << k)], [k, k], p)
    assert same == flipped_k


@pytest.mark.parametrize("L", [3, 6, 10])
def test_transition_bands_disjoint_across_spins(L):
    # delta_omega > 4J: the transition-frequency sets of distinct spins
    # cannot collide
    p = ChainParams(L=L)
    bands = []
    for k in range(L):
        vals = {round(g, 9) for g in gaps(range(1 << L), [k] * (1 << L), p)}
        bands.append(vals)
        assert all(abs(v - larmor(k, p)) <= 2 * p.J for v in vals)
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


def test_chain_params_rejects_flip_gaps_float64_cannot_resolve():
    # the ulp of the largest flip gap must be at most J * 2^-20; just inside
    # that bound the neighbour terms of every gap still differ by 4J to it
    edge = ChainParams(L=5, omega0=2.0**33 - 100.0)
    up, down = gaps([0, 0b01010], [2, 2], edge)
    spread = up - down
    assert abs(spread - 4.0 * edge.J) <= 2.0**-20 * edge.J
    ChainParams(L=5, J=2.0, omega0=2.0**33)  # the bound scales with J
    for fields, key in (({"omega0": 2.0**33}, "omega0"),
                        ({"omega0": 1e16}, "omega0"),
                        ({"L": 100, "delta_omega": 1e8}, "delta_omega")):
        with pytest.raises(ValueError, match=f"{key}=.*round away"):
            ChainParams(**{"L": 5, **fields})


def test_chain_params_defaults_scale_with_J():
    p = ChainParams(L=3, J=2.0)
    assert p.omega0 == 200.0
    assert p.delta_omega == 40.0


def test_basis_state_parsing_and_rendering():
    # a basis state is parsed once, from the config's initial=, most
    # significant qubit first, and rendered back by `bitstrings`
    def start(text, L):
        return ExperimentConfig(raw=ChainMap({"initial": text}), outdir=".").initial_state(
            ChainParams(L=L))

    state = start("10010", 5)
    assert state.L == 5 and state.amplitudes == {0b10010: 1.0}
    assert bitstrings(state.keys, 5)[:] == bitstrings(pack_keys([0b10010], 5), 5)[:] == ["10010"]
    s = 0b10010
    assert bit(s, 1, 5) == 1 and bit(s, 0, 5) == 0 and bit(s, 4, 5) == 1
    assert flipped(s, 0, 5) == 0b10011
    with pytest.raises(ValueError, match="'initial'.*not a bitstring: '10a1'"):
        start("10a1", 4)
    with pytest.raises(ValueError, match="out of range for L=2"):
        SparseState.from_amplitudes({4: 1.0}, 2)
    with pytest.raises(IndexError):
        bit(s, 5, 5)
