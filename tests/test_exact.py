import math
from types import SimpleNamespace

import numpy as np
import pytest

from spinchain.exact import DenseState, evolve_exact, rotating_frame_generator
from spinchain.model import BasisState, ChainParams
from spinchain.propagator import SparseState, pair_update, run_protocol, total_variation_distance
from spinchain.protocol import Pulse, PulseSequence, cn_remote_protocol

from oracles import chain_ode, energy_bruteforce


def test_generator_diagonal_matches_energies(params5):
    pulse = Pulse(nu=130.0, Omega=0.0, tau=1.0)
    H = rotating_frame_generator(pulse, params5)
    L = params5.L
    for s in range(1 << L):
        m_total = L / 2 - bin(s).count("1")
        E = energy_bruteforce(s, L, params5.J, params5.omega0, params5.delta_omega)
        assert H[s, s] == pytest.approx(E + pulse.nu * m_total)
    assert np.count_nonzero(H - np.diag(np.diag(H))) == 0


def test_generator_is_symmetric(params5):
    H = rotating_frame_generator(Pulse(nu=120.0, Omega=0.3, tau=1.0), params5)
    assert np.array_equal(H, H.T)


def test_generator_single_spin_rabi_eigenvalues():
    # one spin driven on resonance: dressed levels at +/- Omega/2
    params1 = SimpleNamespace(L=1, J=1.0, omega0=100.0, delta_omega=20.0)
    H = rotating_frame_generator(Pulse(nu=100.0, Omega=0.4, tau=1.0), params1)
    w = np.linalg.eigvalsh(H)
    assert w == pytest.approx([-0.2, 0.2])


def test_generator_respects_cap():
    params = ChainParams(L=13)
    with pytest.raises(ValueError):
        rotating_frame_generator(Pulse(nu=150.0, Omega=0.1, tau=1.0), params)
    with pytest.raises(ValueError):
        evolve_exact(DenseState.from_basis(BasisState.ground(13)),
                     PulseSequence(pulses=()), params)


def test_resonant_pi_pulse_on_two_qubits():
    params = ChainParams(L=2)
    pulse = Pulse(nu=params.omega0 - params.J, Omega=0.0906,
                  tau=math.pi / 0.0906)
    initial = DenseState.from_basis(BasisState.from_string("10"))
    final = evolve_exact(initial, PulseSequence(pulses=(pulse,)), params)
    p = np.abs(final.amplitudes) ** 2
    assert p[0b11] >= 1 - 1e-4  # leakage is O((Omega/delta_omega)^2)
    assert final.norm() == pytest.approx(1.0, abs=1e-10)


def test_zero_rabi_pulses_only_rotate_phases(params5):
    # free evolution: probabilities frozen, amplitudes move by phases only
    # (and interaction-picture amplitudes absorb the free phases entirely)
    rng = np.random.default_rng(7)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    amps /= np.linalg.norm(amps)
    initial = DenseState(amplitudes=amps.copy(), L=5)
    seq = PulseSequence(pulses=(Pulse(nu=110.0, Omega=0.0, tau=3.7),
                                Pulse(nu=150.0, Omega=0.0, tau=1.1)))
    final = evolve_exact(initial, seq, params5)
    assert np.abs(final.amplitudes) ** 2 == pytest.approx(np.abs(amps) ** 2, abs=1e-12)
    assert final.t == pytest.approx(4.8)


def test_norm_preserved_over_protocol(params5):
    seq = cn_remote_protocol(params5, 0.0906)
    final = evolve_exact(DenseState.from_basis(BasisState.ground(5)), seq, params5)
    assert final.norm() == pytest.approx(1.0, abs=1e-10)


def test_tdse_matches_pair_update_on_isolated_pair():
    # L=1: the amplitude equations ARE the two-level pair equations
    params1 = SimpleNamespace(L=1, J=1.0, omega0=100.0, delta_omega=20.0)
    Omega, detuning = 0.8, 1.3
    pulse = Pulse(nu=params1.omega0 + detuning, Omega=Omega, tau=2.9)
    rng = np.random.default_rng(3)
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    amps /= np.linalg.norm(amps)
    out = chain_ode(amps, pulse, params1, t_start=0.6)
    # E(|1>) - E(|0>) = omega_0, upper level is bit=1
    cm, cp = pair_update(amps[0], amps[1], Delta=-detuning, Omega=Omega,
                         tau=pulse.tau, t_start=0.6)
    assert out[0] == pytest.approx(cm, abs=1e-7)
    assert out[1] == pytest.approx(cp, abs=1e-7)


def _random_pulse_battery(L, n_pulses, seed):
    params = ChainParams(L=L) if L >= 2 else SimpleNamespace(
        L=1, J=1.0, omega0=100.0, delta_omega=20.0)
    rng = np.random.default_rng(seed)
    pulses = []
    for _ in range(n_pulses):
        k = int(rng.integers(0, L))
        nu = params.omega0 + k * params.delta_omega + rng.uniform(-2.0, 2.0)
        pulses.append(Pulse(nu=float(nu), Omega=float(rng.uniform(0.05, 1.0)),
                            tau=float(rng.uniform(0.2, 1.2))))
    amps = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
    amps /= np.linalg.norm(amps)
    return params, pulses, amps


@pytest.mark.parametrize("L,n_pulses,seed", [(1, 7, 11), (2, 7, 12), (3, 6, 13)])
def test_exact_agrees_with_tdse_battery(L, n_pulses, seed):
    # >= 20 random pulses across L <= 3, componentwise 1e-7
    params, pulses, amps = _random_pulse_battery(L, n_pulses, seed)
    rotating = DenseState(amplitudes=amps.copy(), L=L)
    integrated = amps.copy()
    for pulse in pulses:
        integrated = chain_ode(integrated, pulse, params, t_start=rotating.t)
        rotating = evolve_exact(rotating, PulseSequence(pulses=(pulse,)), params)
        assert rotating.norm() == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(rotating.amplitudes - integrated)) < 1e-7


def test_dense_state_from_sparse():
    sparse = SparseState.from_amplitudes({0b00110: 0.6 + 0.0j, 0b10001: 0.8j}, L=5, t=3.7)
    dense = DenseState.from_sparse(sparse)
    expect = np.zeros(32, dtype=complex)
    expect[0b00110] = 0.6
    expect[0b10001] = 0.8j
    assert np.array_equal(dense.amplitudes, expect)
    assert dense.L == 5 and dense.t == 3.7


def test_tvd_to_sparse_decreases_with_rabi(params5):
    # the resonance approximation sharpens as Omega/delta_omega -> 0
    tvds = []
    for Omega in (0.2, 0.1, 0.05, 0.02):
        seq = cn_remote_protocol(params5, Omega)
        sparse, _ = run_protocol(SparseState.from_basis(BasisState.ground(5)),
                                 seq, params5, P_drop=0.0)
        dense = evolve_exact(DenseState.from_basis(BasisState.ground(5)), seq, params5)
        tvds.append(total_variation_distance(
            DenseState.from_sparse(sparse).probability_array(), dense.probability_array()))
    assert all(b < a for a, b in zip(tvds, tvds[1:]))
    assert tvds[-1] < 1e-4
