import cmath
import itertools
import math
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import spinchain.exact
from spinchain.analytics import epsilon
from spinchain.exact import DenseState, _mirror, evolve_exact, rotating_frame_generator
from spinchain.model import ChainParams
from spinchain.propagator import SparseState, _unpack, run_protocol
from spinchain.protocol import Pulse, cn_remote_protocol

from oracles import (
    basis_state,
    chain_ode,
    energy_bruteforce,
    ground_branch_detunings,
    ground_branch_phase,
    pair_update,
    sequence,
    total_variation_distance,
)


def _dense(bits: int, L: int) -> DenseState:
    return DenseState.from_sparse(basis_state(bits, L))


# one spin, which ChainParams rejects (it needs L >= 2)
PARAMS1 = SimpleNamespace(L=1, J=1.0, omega0=100.0, delta_omega=20.0)


def test_generator_diagonal_matches_energies(params5):
    # entry by entry: E_p + nu*M_p on the diagonal, -Omega/2 on each of the
    # L*2^L single-flip entries, +0.0 everywhere else
    for params, Omega in itertools.product((params5, PARAMS1), (0.0, 0.3)):
        pulse = Pulse(nu=130.0, Omega=Omega, tau=1.0)
        H = rotating_frame_generator(pulse, params)
        L = params.L
        flips = np.zeros(H.shape, dtype=bool)
        for s in range(1 << L):
            m_total = L / 2 - bin(s).count("1")
            E = energy_bruteforce(s, L, params.J, params.omega0, params.delta_omega)
            assert H[s, s] == pytest.approx(E + pulse.nu * m_total)
            for k in range(L):
                flips[s ^ (1 << k), s] = True
        others = ~flips & ~np.eye(1 << L, dtype=bool)
        assert H[flips].tolist() == [-Omega / 2] * (L << L)
        assert H[others].tolist() == [0.0] * others.sum()
        if Omega == 0.0:
            assert not np.signbit(H[flips | others]).any()


def test_generator_is_symmetric(params5):
    H = rotating_frame_generator(Pulse(nu=120.0, Omega=0.3, tau=1.0), params5)
    assert np.array_equal(H, H.T)


def test_generator_single_spin_rabi_eigenvalues():
    # one spin driven on resonance: dressed levels at +/- Omega/2
    H = rotating_frame_generator(Pulse(nu=100.0, Omega=0.4, tau=1.0), PARAMS1)
    w = np.linalg.eigvalsh(H)
    assert w == pytest.approx([-0.2, 0.2])


def test_generator_respects_cap():
    params = ChainParams(L=13)
    with pytest.raises(ValueError):
        rotating_frame_generator(Pulse(nu=150.0, Omega=0.1, tau=1.0), params)
    # a state of 2^13 amplitudes, so that the cap is evolve_exact's own
    # check and not from_sparse's
    with pytest.raises(ValueError, match="L=13 exceeds the dense-propagation cap 12"):
        evolve_exact(DenseState(np.zeros(1 << 13, dtype=complex)), sequence(), params)


@pytest.mark.parametrize("shape", [(8,), (32,), (2, 8), (2, 32)])
def test_evolve_rejects_amplitude_count_off_the_chain(shape):
    # a row, or each row of a block, holds 2^L amplitudes of L = params.L
    params = ChainParams(L=4)
    seq = cn_remote_protocol(params, 0.0906)
    with pytest.raises(ValueError, match=rf"^state has {shape[-1]} amplitudes a row, "
                                         r"not 2\^L = 16 for L=4$"):
        evolve_exact(DenseState(np.zeros(shape, dtype=complex)), seq, params)


def test_resonant_pi_pulse_on_two_qubits():
    params = ChainParams(L=2)
    pulse = Pulse(nu=params.omega0 - params.J, Omega=0.0906,
                  tau=math.pi / 0.0906)
    initial = _dense(0b10, 2)
    final = evolve_exact(initial, sequence(pulse), params)
    p = np.abs(final.amplitudes) ** 2
    assert p[0b11] >= 1 - 1e-4  # leakage is O((Omega/delta_omega)^2)
    assert np.linalg.norm(final.amplitudes) == pytest.approx(1.0, abs=1e-10)


def test_zero_rabi_pulses_only_rotate_phases(params5):
    # free evolution: probabilities frozen, amplitudes move by phases only
    # (and interaction-picture amplitudes absorb the free phases entirely)
    rng = np.random.default_rng(7)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    amps /= np.linalg.norm(amps)
    initial = DenseState(amplitudes=amps.copy())
    seq = sequence(Pulse(nu=110.0, Omega=0.0, tau=3.7),
                   Pulse(nu=150.0, Omega=0.0, tau=1.1))
    final = evolve_exact(initial, seq, params5)
    assert np.abs(final.amplitudes) ** 2 == pytest.approx(np.abs(amps) ** 2, abs=1e-12)
    assert final.t == pytest.approx(4.8)


def test_norm_preserved_over_protocol(params5):
    seq = cn_remote_protocol(params5, 0.0906)
    final = evolve_exact(_dense(0, 5), seq, params5)
    assert np.linalg.norm(final.amplitudes) == pytest.approx(1.0, abs=1e-10)


def test_tdse_matches_pair_update_on_isolated_pair():
    # L=1: the amplitude equations ARE the two-level pair equations
    Omega, detuning = 0.8, 1.3
    pulse = Pulse(nu=PARAMS1.omega0 + detuning, Omega=Omega, tau=2.9)
    rng = np.random.default_rng(3)
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    amps /= np.linalg.norm(amps)
    out = chain_ode(amps, pulse, PARAMS1, t_start=0.6)
    # E(|1>) - E(|0>) = omega_0, upper level is bit=1
    cm, cp = pair_update(amps[0], amps[1], Delta=-detuning, Omega=Omega,
                         tau=pulse.tau, t_start=0.6)
    assert out[0] == pytest.approx(cm, abs=1e-7)
    assert out[1] == pytest.approx(cp, abs=1e-7)


def _random_pulse_battery(L, n_pulses, seed):
    params = ChainParams(L=L) if L >= 2 else PARAMS1
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
    rotating = DenseState(amplitudes=amps.copy())
    integrated = amps.copy()
    for pulse in pulses:
        integrated = chain_ode(integrated, pulse, params, t_start=rotating.t)
        rotating = evolve_exact(rotating, sequence(pulse), params)
        assert np.linalg.norm(rotating.amplitudes) == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(rotating.amplitudes - integrated)) < 1e-7


def _record_eigh(monkeypatch) -> list[int]:
    """Patch np.linalg.eigh to log, per call, the bytes tracemalloc sees alive."""
    calls = []
    eigh = np.linalg.eigh

    def recording(H):
        calls.append(tracemalloc.get_traced_memory()[0])
        return eigh(H)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return calls


def test_battery_reuses_spectra_by_carrier_and_rabi(monkeypatch):
    # one call through five pulses: carrier A recurs two pulses later with a
    # new tau, and once more with a new Omega, which needs its own spectrum
    params = ChainParams(L=3)
    nu_a, nu_b = params.omega0 + 21.3, params.omega0 + 0.7
    pulses = (Pulse(nu=nu_a, Omega=0.6, tau=0.9), Pulse(nu=nu_b, Omega=0.4, tau=0.5),
              Pulse(nu=nu_a, Omega=0.6, tau=0.35), Pulse(nu=nu_a, Omega=0.25, tau=1.1),
              Pulse(nu=nu_b, Omega=0.4, tau=0.8))
    rng = np.random.default_rng(14)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    eigh_calls = _record_eigh(monkeypatch)
    final = evolve_exact(DenseState(amplitudes=amps.copy(), t=0.2),
                         sequence(*pulses), params)
    assert len(eigh_calls) == 3
    integrated, t = amps.copy(), 0.2
    for pulse in pulses:
        integrated = chain_ode(integrated, pulse, params, t_start=t)
        t += pulse.tau
    assert final.t == pytest.approx(t)
    assert np.max(np.abs(final.amplitudes - integrated)) < 1e-7


def _mirror_of(L: int) -> np.ndarray:
    """Every spin flipped and the chain reversed, spelled on bit strings."""
    flip = str.maketrans("01", "10")
    return np.array([int(format(p, f"0{L}b").translate(flip)[::-1], 2)
                     for p in range(1 << L)])


def _mirror_carrier(nu: float, params) -> float:
    """The carrier whose generator is the mirror image of the one at nu."""
    return 2 * params.omega0 + (params.L - 1) * params.delta_omega - nu


@pytest.mark.parametrize("L", [1, 2, 5, 6])
def test_mirror_is_an_involution(L):
    mirror = _mirror(L)
    assert np.array_equal(mirror, _mirror_of(L))
    assert np.array_equal(mirror[mirror], np.arange(1 << L))


def test_mirrored_carrier_generator_is_the_permuted_generator():
    # bit for bit, for every carrier of the protocol and its mirror carrier
    params = ChainParams(L=6)
    mirror = _mirror_of(6)
    for nu in set(cn_remote_protocol(params, 0.0906).nu.tolist()):
        H = rotating_frame_generator(Pulse(nu=nu, Omega=0.0906, tau=1.0), params)
        H_mirror = rotating_frame_generator(
            Pulse(nu=_mirror_carrier(nu, params), Omega=0.0906, tau=1.0), params)
        assert np.array_equal(H_mirror.view(np.int64), H[mirror][:, mirror].view(np.int64))


def test_protocol_decomposes_each_mirror_pair_once(monkeypatch):
    # flip j and unflip j share a carrier, and a carrier whose generator is
    # an earlier one's mirror image shares its spectrum: 2L-3 = 9 pulses,
    # 4 spectra, 4 decompositions.  The reference runs a mirrored
    # pulse as its earlier carrier on the mirrored state and mirrors the
    # result back: the frame phases are elementwise, so that is the shared
    # path bit for bit
    L = 6
    params = ChainParams(L=L)
    mirror = _mirror_of(L)
    seq = cn_remote_protocol(params, 0.0906)
    initial = _dense(0b100000, 6)
    chained, decomposed = initial, []
    for pulse in seq.pulses:
        nu = _mirror_carrier(pulse.nu, params)
        if pulse.nu not in decomposed and nu in decomposed:
            mirrored = DenseState(chained.amplitudes[mirror], chained.t)
            out = evolve_exact(mirrored, sequence(pulse._replace(nu=nu)), params)
            chained = DenseState(out.amplitudes[mirror], out.t)
        else:
            if pulse.nu not in decomposed:
                decomposed.append(pulse.nu)
            chained = evolve_exact(chained, sequence(pulse), params)
    eigh_calls = _record_eigh(monkeypatch)
    final = evolve_exact(initial, seq, params)
    assert len(seq.pulses) == 2 * L - 3 and len(decomposed) == 4
    assert len(eigh_calls) == 4
    assert np.array_equal(final.amplitudes, chained.amplitudes)
    assert final.t == chained.t


def test_mirrored_carrier_shares_a_spectrum_only_at_equal_rabi(monkeypatch):
    # L = 3, carriers A and its mirror A' (exact dyadic arithmetic, so the
    # mirrored diagonal matches bit for bit): A' at A's Omega reuses A's
    # spectrum, A' at another Omega is decomposed
    params = ChainParams(L=3)
    nu_a = params.omega0 + 0.5
    pulses = (Pulse(nu=nu_a, Omega=0.6, tau=0.9),
              Pulse(nu=_mirror_carrier(nu_a, params), Omega=0.6, tau=0.7),
              Pulse(nu=_mirror_carrier(nu_a, params), Omega=0.3, tau=1.2))
    rng = np.random.default_rng(15)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    eigh_calls = _record_eigh(monkeypatch)
    final = evolve_exact(DenseState(amplitudes=amps.copy(), t=0.4),
                         sequence(*pulses), params)
    assert len(eigh_calls) == 2
    integrated, t = amps.copy(), 0.4
    for pulse in pulses:
        integrated = chain_ode(integrated, pulse, params, t_start=t)
        t += pulse.tau
    assert np.max(np.abs(final.amplitudes - integrated)) < 1e-7


def _counting(log: list, name: str, call):
    """`call`, logging (name, spill files present) before each call."""
    def counted(*args, **kwargs):
        log.append((name, len(list(Path(tempfile.gettempdir()).glob("spinchain-*/*.npy")))))
        return call(*args, **kwargs)
    return counted


@pytest.mark.parametrize("L,decompositions", [(6, 4), (8, 5), (10, 6), (12, 7)])
def test_protocol_decomposition_count(monkeypatch, tmp_path, L, decompositions):
    # counted without building or decomposing any 2^L x 2^L matrix: each
    # spectrum is one eigenvector.  Each is decomposed and saved once, and
    # every pulse reads its spectrum from the spill, which holds at most
    # 3/3/4/5 spectra at once.  Each generator is built through the module
    # attribute, which perfbench replaces to time exact.generator_s
    params = ChainParams(L=L)
    log = []
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(spinchain.exact, "rotating_frame_generator",
                        _counting(log, "generator", lambda pulse, _: pulse))
    monkeypatch.setattr(np.linalg, "eigh", _counting(
        log, "eigh", lambda pulse: (np.zeros(1), np.ones((1 << L, 1)))))
    monkeypatch.setattr(np, "save", _counting(log, "save", np.save))
    monkeypatch.setattr(np, "load", _counting(log, "load", np.load))
    evolve_exact(_dense(0, L), cn_remote_protocol(params, 0.0906), params)
    calls = [name for name, _ in log]
    assert [calls.count(name) for name in ("generator", "eigh", "save", "load")] == [
        decompositions, decompositions, decompositions, 2 * L - 3]
    assert max(n for name, n in log if name == "load") == {6: 3, 8: 3, 10: 4, 12: 5}[L]


def test_block_rows_match_one_row_runs(monkeypatch):
    # the four computational inputs of control and target as one (4, 2^L)
    # block: one decomposition per spectrum serves them all, and each row
    # is its one-row run up to gemm against gemv rounding
    L = 8
    params = ChainParams(L=L)
    seq = cn_remote_protocol(params, 0.0906)
    inputs = [_dense(int(s, 2), L)
              for s in ("00000000", "00000001", "10000000", "10000001")]
    eigh_calls = _record_eigh(monkeypatch)
    block = evolve_exact(DenseState(np.stack([d.amplitudes for d in inputs])),
                         seq, params)
    assert len(eigh_calls) == 5
    assert block.amplitudes.shape == (4, 1 << L)
    for row, initial in zip(block.amplitudes, inputs):
        single = evolve_exact(initial, seq, params)
        assert single.t == block.t
        assert np.max(np.abs(row - single.amplitudes)) <= 1e-14


def test_protocol_frees_each_spectrum_after_its_last_pulse(monkeypatch):
    # keeping all L spectra costs about 10 matrices at L = 8.  LAPACK's
    # workspace, which tracemalloc does not see, makes eigh the peak of the
    # resident set, so no spectrum may be alive there beside the new
    # generator: every spectrum waits in a file
    L = 8
    matrix = 8 * 4 ** L
    params = ChainParams(L=L)
    seq = cn_remote_protocol(params, 0.0906)
    initial = _dense(0, L)
    alive_at_eigh = _record_eigh(monkeypatch)
    tracemalloc.start()
    try:
        evolve_exact(initial, seq, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * matrix
    assert len(alive_at_eigh) == 5 and max(alive_at_eigh) <= 1.5 * matrix


def test_spill_directory_is_removed_on_return_and_on_error(monkeypatch, tmp_path):
    L = 6
    params = ChainParams(L=L)
    seq = cn_remote_protocol(params, 0.0906)
    initial = _dense(0, L)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    evolve_exact(initial, seq, params)
    assert not list(tmp_path.iterdir())

    # the first spectrum is in the spill at the second decomposition
    eigh, calls = np.linalg.eigh, []

    def failing(H):
        calls.append(list(tmp_path.glob("*/*.npy")))
        if len(calls) == 2:
            raise MemoryError("no room for the second spectrum")
        return eigh(H)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(MemoryError):
        evolve_exact(initial, seq, params)
    assert [len(files) for files in calls] == [0, 1]
    assert not list(tmp_path.iterdir())


def test_no_spill_file_outlives_its_spectrum(monkeypatch, tmp_path):
    # at every decomposition and every read, the spill holds exactly the
    # spectra begun at or before that pulse that are used at it or after it;
    # a spectrum's file is written right after its decomposition, so it is
    # not there yet at that eigh.  Spectra are told apart here by carrier
    # and mirror carrier
    L = 8
    params = ChainParams(L=L)
    seq = cn_remote_protocol(params, 0.0906)
    keys = [min(nu, _mirror_carrier(nu, params)) for nu in seq.nu.tolist()]
    first = {key: keys.index(key) for key in keys}
    last = {key: i for i, key in enumerate(keys)}
    expected = []
    for i, key in enumerate(keys):
        if first[key] == i:
            expected.append(("eigh", sum(first[k] < i <= last[k] for k in first)))
        expected.append(("load", sum(first[k] <= i <= last[k] for k in first)))
    assert len(first) == 5 and max(n for _, n in expected) == 3

    log = []
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(np.linalg, "eigh", _counting(log, "eigh", np.linalg.eigh))
    monkeypatch.setattr(np, "load", _counting(log, "load", np.load))
    evolve_exact(_dense(0, L), seq, params)
    assert log == expected
    assert not list(tmp_path.iterdir())


def test_dense_state_from_sparse():
    sparse = replace(SparseState.from_amplitudes({0b00110: 0.6 + 0.0j, 0b10001: 0.8j}, L=5),
                     t=3.7)
    dense = DenseState.from_sparse(sparse)
    expect = np.zeros(32, dtype=complex)
    expect[0b00110] = 0.6
    expect[0b10001] = 0.8j
    assert np.array_equal(dense.amplitudes, expect)
    assert dense.amplitudes.shape == (1 << 5,) and dense.t == 3.7


def test_dense_state_from_sparse_respects_cap():
    sparse = basis_state(0, 13)
    with pytest.raises(ValueError, match="L=13 exceeds the dense-propagation cap 12"):
        DenseState.from_sparse(sparse)


def test_tvd_to_sparse_decreases_with_rabi(params5):
    # the resonance approximation sharpens as Omega/delta_omega -> 0
    tvds = []
    for Omega in (0.2, 0.1, 0.05, 0.02):
        seq = cn_remote_protocol(params5, Omega)
        sparse, _ = run_protocol(basis_state(0, 5),
                                 seq, params5, P_drop=0.0)
        dense = evolve_exact(_dense(0, 5), seq, params5)
        tvds.append(total_variation_distance(
            DenseState.from_sparse(sparse).probability_array(), dense.probability_array()))
    assert all(b < a for a, b in zip(tvds, tvds[1:]))
    assert tvds[-1] < 1e-4


@pytest.mark.parametrize("Omega", [0.0906, 0.20844])
@pytest.mark.parametrize("L", range(4, 9))
def test_control_branch_leak_is_the_neglected_channel(L, Omega):
    # every pulse is resonant on the control-1 branch, so the map carries
    # |10...0> to exactly |10...01>; dense leaks off it through the drive
    # on the neighbouring spins, which the map neglects, at order
    # (Omega/delta_omega)^2 (measured 5-14 times it)
    params = ChainParams(L=L)
    seq = cn_remote_protocol(params, Omega)
    start = basis_state(1 << (L - 1), L)
    target = (1 << (L - 1)) | 1
    final, _ = run_protocol(start, seq, params, P_drop=0.0)
    assert _unpack(final.keys) == [target]
    assert 1.0 - DenseState.from_sparse(final).probability_array()[target] == 0.0
    exact = evolve_exact(DenseState.from_sparse(start), seq, params)
    leak = 1.0 - exact.probability_array()[target]
    assert 2.0 <= leak / (Omega / params.delta_omega) ** 2 <= 20.0


@pytest.mark.parametrize("Omega", [0.0906, 0.20844])
@pytest.mark.parametrize("L", range(4, 9))
def test_ground_branch_leak_exceeds_the_resummed_closed_form(L, Omega):
    # the map's 1 - P(|0...0>) is exactly 1 - prod (1 - eps_i); dense loses
    # more, through the drive on the neighbouring spins that the map
    # neglects, at order (Omega/delta_omega)^2 (measured 5-35 times it)
    params = ChainParams(L=L)
    seq = cn_remote_protocol(params, Omega)
    closed = 1.0 - math.prod(1.0 - epsilon(Omega, delta, tau) for delta, tau in
                             zip(ground_branch_detunings(seq, params), seq.tau.tolist()))
    exact = evolve_exact(_dense(0, L), seq, params)
    excess = 1.0 - exact.probability_array()[0] - closed
    assert 2.0 <= excess / (Omega / params.delta_omega) ** 2 <= 50.0


@pytest.mark.parametrize("Omega", [0.0906, 0.20844])
@pytest.mark.parametrize("L", range(4, 9))
def test_gate_phase_of_map_and_dense(L, Omega):
    # the ideal output from alpha|0...0> + beta|10...0> is
    # alpha|0...0> + beta i^(2L-3)|10...01>.  Every pulse is resonant on the
    # control-1 branch, so the map gives it exactly that phase.  Dense lags
    # it: the drive shifts the undriven neighbours' levels (an AC Stark
    # shift, -0.0308 rad at L = 10, Omega = 0.0906), by a fraction of
    # (2L - 3) Omega/delta_omega (measured 0.456-0.711).  The ground branch
    # keeps the map's sum of arg K_mm in dense too (measured within 1.7%)
    params = ChainParams(L=L)
    seq = cn_remote_protocol(params, Omega)
    alpha = beta = 1 / math.sqrt(2)
    start = SparseState.from_amplitudes({0: alpha, 1 << (L - 1): beta}, L)
    target = (1 << (L - 1)) | 1
    final, _ = run_protocol(start, seq, params, P_drop=0.0)
    mapped = DenseState.from_sparse(final).amplitudes
    exact = evolve_exact(DenseState.from_sparse(start), seq, params).amplitudes
    ideal = beta * 1j ** (2 * L - 3)
    assert abs(cmath.phase(mapped[target] / ideal)) <= 1e-12
    shift = cmath.phase(exact[target] / ideal) / ((2 * L - 3) * Omega / params.delta_omega)
    assert -1.0 <= shift <= -0.25
    phase = ground_branch_phase(seq, params)
    assert abs(cmath.phase(exact[0]) - phase) <= 0.05 * abs(phase)
