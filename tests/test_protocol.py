import csv
import math

import numpy as np
import pytest

from spinchain.cli import main
from spinchain.exact import DenseState, evolve_exact
from spinchain.model import BasisState, ChainParams
from spinchain.propagator import SparseState, _unpack, bitstrings, resonant_spin, run_protocol
from spinchain.protocol import PulseSequence, cn_remote_protocol, control_branch

from oracles import (
    cn_carriers_scalar,
    cn_trajectory,
    energy_bruteforce,
    ground_branch_detunings,
    probability,
    sequence,
)


def trajectory(L):
    """The package's control-branch path of chain L, as packed ints."""
    return _unpack(control_branch(L)[1])


def test_trajectory_L3():
    assert bitstrings(control_branch(3)[1], 3)[:] == ["100", "110", "111", "101"]


def test_trajectory_L4():
    assert bitstrings(control_branch(4)[1], 4)[:] == [
        "1000", "1100", "1110", "1010", "1011", "1001"]


@pytest.mark.parametrize("L", range(3, 41, 7))
def test_trajectory_structure(L):
    traj = trajectory(L)
    assert len(traj) == 2 * L - 2
    assert traj[0] == 1 << (L - 1)
    assert traj[-1] == (1 << (L - 1)) | 1
    for a, b in zip(traj, traj[1:]):
        diff = a ^ b
        assert diff and (diff & (diff - 1)) == 0  # exactly one bit


def test_trajectory_rejects_two_qubits():
    with pytest.raises(ValueError, match="L >= 3"):
        cn_remote_protocol(ChainParams(L=2), 0.1)
    with pytest.raises(ValueError, match="L >= 3"):
        control_branch(2)


FIELDS = [{}, {"J": 0.7, "omega0": 100.1, "delta_omega": 20.3}]


@pytest.mark.parametrize("fields", FIELDS, ids=["default", "J0.7"])
@pytest.mark.parametrize("L", [3, 4, 63, 64, 65, 127, 128, 129, 200])
def test_array_synthesis_equals_scalar_bit_for_bit(L, fields):
    # the key rows of the array synthesis span one, two, three and four
    # words; the reference builds every state and carrier one at a time
    params = ChainParams(L=L, **fields)
    seq = cn_remote_protocol(params, 0.20844)
    branch_flips, branch = control_branch(L)
    nus, flips, traj = cn_carriers_scalar(params)
    assert seq.nu.view(np.uint64).tolist() == np.array(nus).view(np.uint64).tolist()
    assert branch_flips.tolist() == flips
    assert bitstrings(branch, L)[:] == [format(s.bits, f"0{L}b") for s in traj]


def test_protocol_is_pi_pulses_with_zero_phase(params5):
    seq = cn_remote_protocol(params5, Omega=0.0906)
    assert len(seq) == 2 * params5.L - 3
    for pulse in seq.pulses:
        assert pulse.Omega * pulse.tau == pytest.approx(math.pi, abs=0)


@pytest.mark.parametrize("L", [5, 8])
def test_protocol_landmark_frequencies(L):
    p = ChainParams(L=L)
    seq = cn_remote_protocol(p, Omega=0.1)
    nus = [pulse.nu for pulse in seq.pulses]
    assert nus[0] == pytest.approx(p.omega0 + (L - 2) * p.delta_omega)
    assert nus[2] == pytest.approx(p.omega0 + (L - 2) * p.delta_omega - 2 * p.J)
    assert nus[-1] == pytest.approx(p.omega0 + p.delta_omega)  # L >= 4


def test_protocol_contains_edge_pulse_frequency(params5):
    # the target-flip pulse runs at omega_0 - J
    seq = cn_remote_protocol(params5, Omega=0.1)
    assert params5.omega0 - params5.J in [pytest.approx(p.nu) for p in seq.pulses]


def test_ground_branch_detunings_frozen_values():
    assert ground_branch_detunings(
        cn_remote_protocol(ChainParams(L=3), 0.1), ChainParams(L=3)) == pytest.approx([2, 2, 4])
    assert ground_branch_detunings(
        cn_remote_protocol(ChainParams(L=5), 0.1), ChainParams(L=5)) == pytest.approx([2, 2, 4, 2, 2, 2, 2])
    with pytest.raises(ValueError, match="2L-3 pulses"):
        ground_branch_detunings(sequence(*cn_remote_protocol(ChainParams(L=3), 0.1).pulses[:2]),
                                ChainParams(L=3))


def test_ground_branch_detunings_against_energy_oracle(params5):
    # recompute each detuning as |Delta E(flip k of |0...0>)| - nu directly
    seq = cn_remote_protocol(params5, 0.0906)

    def energy(s):
        return energy_bruteforce(s, params5.L, params5.J, params5.omega0, params5.delta_omega)

    for det, pulse, k in zip(ground_branch_detunings(seq, params5),
                             seq.pulses, control_branch(params5.L)[0]):
        gap = abs(energy(1 << k) - energy(0))
        assert det == pytest.approx(abs(gap - pulse.nu), abs=1e-10)


def test_third_pulse_detuning_ratio_is_two(params5):
    det = ground_branch_detunings(cn_remote_protocol(params5, 0.3), params5)
    assert det[2] / det[0] == 2.0


@pytest.mark.parametrize("L", [3, 6, 12])
def test_every_pulse_addresses_its_annotated_spin(L):
    p = ChainParams(L=L)
    seq = cn_remote_protocol(p, Omega=0.0906)
    for pulse, k in zip(seq.pulses, control_branch(L)[0]):
        assert abs(pulse.nu - (p.omega0 + k * p.delta_omega)) <= 2 * p.J
        assert resonant_spin(pulse.nu, p) == k


def test_resonant_run_reaches_target(params5):
    seq = cn_remote_protocol(params5, Omega=0.0906)
    initial = SparseState.from_basis(cn_trajectory(params5)[0])
    final, _ = run_protocol(initial, seq, params5, P_drop=0.0)
    target = cn_trajectory(params5)[-1]
    assert probability(final, target) >= 1 - 1e-10


# The protocol is a CN on target-0 inputs only.  Where it takes the two
# target-1 inputs at Omega = 0.0906, P_drop = 0: (input, most probable
# output, its probability under the resonance map and under dense eigh).
# A CN would leave |0...01> alone and send |10...01> to |10...00>.
TARGET_1_OUTPUTS = {
    4: [("0001", "0010", 0.99986, 0.99975), ("1001", "1101", 0.99981, 0.99973)],
    6: [("000001", "000100", 0.99978, 0.99959), ("100001", "100101", 0.99981, 0.99959)],
    8: [("00000001", "00000100", 0.99959, 0.99936),
        ("10000001", "10000101", 0.99981, 0.99950)],
    10: [("0000000001", "0000000100", 0.99939, 0.99897),
         ("1000000001", "1000000101", 0.99981, 0.99945)],
}


@pytest.mark.parametrize("L", sorted(TARGET_1_OUTPUTS))
def test_protocol_is_not_a_cn_on_target_1_inputs(monkeypatch, L):
    # both inputs go through the dense propagator as one block, on one
    # decomposition per spectrum: 3/4/5/6 eigh at L = 4/6/8/10, not twice that
    params = ChainParams(L=L)
    seq = cn_remote_protocol(params, 0.0906)
    initials = [SparseState.from_basis(BasisState.from_string(start))
                for start, *_ in TARGET_1_OUTPUTS[L]]
    eigh, eigh_calls = np.linalg.eigh, []

    def counted(H):
        eigh_calls.append(H.shape)
        return eigh(H)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    block = DenseState(np.stack([DenseState.from_sparse(s).amplitudes for s in initials]), L=L)
    dense = evolve_exact(block, seq, params).probability_array()
    assert len(eigh_calls) == {4: 3, 6: 4, 8: 5, 10: 6}[L]
    for initial, row, (_, end, p_map, p_dense) in zip(initials, dense, TARGET_1_OUTPUTS[L]):
        final, _ = run_protocol(initial, seq, params, P_drop=0.0)
        p = final.probability_array()
        assert _unpack(final.keys[[np.argmax(p)]]) == [int(end, 2)]
        assert p.max() == pytest.approx(p_map, abs=5e-6)
        assert np.argmax(row) == int(end, 2)
        assert row.max() == pytest.approx(p_dense, abs=5e-6)


def pulses(n=3, bad=None, at=1, value=None):
    """Fields of an n-pulse sequence, with entry `at` of field `bad` set to
    `value`."""
    fields = {"nu": [100.0] * n, "Omega": [0.1] * n, "tau": [1.0] * n}
    if bad is not None:
        fields[bad][at] = value
    return fields


def test_pulse_validation():
    with pytest.raises(ValueError, match=r"^pulse 1: Omega must be finite and >= 0, got -0.1$"):
        PulseSequence(**pulses(bad="Omega", value=-0.1))
    with pytest.raises(ValueError, match=r"^pulse 2: tau must be finite and >= 0, got -1.0$"):
        PulseSequence(**pulses(bad="tau", at=2, value=-1.0))
    for field in ("nu", "Omega", "tau"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=rf"^pulse 1: {field} must be finite"):
                PulseSequence(**pulses(bad=field, value=bad))
    # 1e-307: the protocol's frame phases 4J (2L-3) pi/Omega overflow
    for bad in (math.nan, math.inf, 1e-307):
        with pytest.raises(ValueError, match="Omega"):
            cn_remote_protocol(ChainParams(L=4), bad)
    # degenerate but legal
    PulseSequence(nu=[100.0], Omega=[0.0], tau=[0.0])
    PulseSequence(nu=[], Omega=[], tau=[])


def test_sequence_lengths_must_agree():
    for field in ("Omega", "tau"):
        short = pulses()
        short[field] = short[field][:2]
        with pytest.raises(ValueError, match=rf"^pulse 2: {field} has 2 entries, nu has 3$"):
            PulseSequence(**short)
    with pytest.raises(ValueError, match=r"^pulse 2: Omega has 3 entries, nu has 2$"):
        PulseSequence(**{**pulses(), "nu": [100.0, 100.0]})
    for shaped in ({"nu": 100.0}, {"tau": [[1.0]]}):
        with pytest.raises(ValueError, match=f"^{next(iter(shaped))} must be a 1-D array"):
            PulseSequence(**{**pulses(1), **shaped})


def test_protocol_csv_export(tmp_path, params5):
    cfg = tmp_path / "protocol.cfg"
    cfg.write_text(f"L={params5.L}\nOmega=0.0906\n")
    path = tmp_path / "protocol.csv"
    assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "nu", "Omega", "tau", "flip_qubit", "from_state", "to_state"]
    assert len(rows) - 1 == 2 * params5.L - 3
    assert rows[1][0] == "1"
    assert rows[1][5] == "10000" and rows[1][6] == "11000"
    assert float(rows[3][1]) == pytest.approx(params5.omega0 + 3 * params5.delta_omega - 2)
    # byte-identical on re-export
    path2 = tmp_path / "again" / "protocol.csv"
    assert main(["protocol", "--config", str(cfg), "--out", str(path2.parent)]) == 0
    assert path.read_bytes() == path2.read_bytes()
