import csv
import math

import pytest

from spinchain.cli import write_protocol_csv
from spinchain.model import ChainParams
from spinchain.propagator import SparseState, resonant_spin, run_protocol
from spinchain.protocol import (
    Pulse,
    PulseSequence,
    cn_remote_protocol,
    cn_trajectory,
    ground_branch_detunings,
)

from oracles import energy_bruteforce


def test_trajectory_L3():
    p = ChainParams(L=3)
    assert [str(s) for s in cn_trajectory(p)] == ["100", "110", "111", "101"]


def test_trajectory_L4():
    p = ChainParams(L=4)
    assert [str(s) for s in cn_trajectory(p)] == [
        "1000", "1100", "1110", "1010", "1011", "1001"]


@pytest.mark.parametrize("L", range(3, 41, 7))
def test_trajectory_structure(L):
    p = ChainParams(L=L)
    traj = cn_trajectory(p)
    assert len(traj) == 2 * L - 2
    assert traj[0].bits == 1 << (L - 1)
    assert traj[-1].bits == (1 << (L - 1)) | 1
    for a, b in zip(traj, traj[1:]):
        diff = a.bits ^ b.bits
        assert diff and (diff & (diff - 1)) == 0  # exactly one bit


def test_trajectory_rejects_two_qubits():
    with pytest.raises(ValueError):
        cn_trajectory(ChainParams(L=2))


def test_protocol_is_pi_pulses_with_zero_phase(params5):
    seq = cn_remote_protocol(params5, Omega=0.0906)
    assert len(seq) == 2 * params5.L - 3
    for pulse in seq:
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


def test_ground_branch_detunings_against_energy_oracle(params5):
    # recompute each detuning as |Delta E(flip k of |0...0>)| - nu directly
    seq = cn_remote_protocol(params5, 0.0906)

    def energy(s):
        return energy_bruteforce(s, params5.L, params5.J, params5.omega0, params5.delta_omega)

    for det, pulse, k in zip(ground_branch_detunings(seq, params5),
                             seq.pulses, seq.flip_qubits):
        gap = abs(energy(1 << k) - energy(0))
        assert det == pytest.approx(abs(gap - pulse.nu), abs=1e-10)


def test_third_pulse_detuning_ratio_is_two(params5):
    det = ground_branch_detunings(cn_remote_protocol(params5, 0.3), params5)
    assert det[2] / det[0] == 2.0


@pytest.mark.parametrize("L", [3, 6, 12])
def test_every_pulse_addresses_its_annotated_spin(L):
    p = ChainParams(L=L)
    seq = cn_remote_protocol(p, Omega=0.0906)
    for pulse, k in zip(seq.pulses, seq.flip_qubits):
        assert abs(pulse.nu - (p.omega0 + k * p.delta_omega)) <= 2 * p.J
        assert resonant_spin(pulse.nu, p) == k


def test_resonant_run_reaches_target(params5):
    seq = cn_remote_protocol(params5, Omega=0.0906)
    initial = SparseState.from_basis(cn_trajectory(params5)[0])
    final, _ = run_protocol(initial, seq, params5, P_drop=0.0)
    target = cn_trajectory(params5)[-1]
    assert final.probability(target) >= 1 - 1e-10


def test_pulse_validation():
    with pytest.raises(ValueError):
        Pulse(nu=100.0, Omega=-0.1, tau=1.0)
    with pytest.raises(ValueError):
        Pulse(nu=100.0, Omega=0.1, tau=-1.0)
    for field in ("nu", "Omega", "tau"):
        for bad in (math.nan, math.inf):
            fields = {"nu": 100.0, "Omega": 0.1, "tau": 1.0, field: bad}
            with pytest.raises(ValueError, match=field):
                Pulse(**fields)
    # 1e-307: the protocol's frame phases 4J (2L-3) pi/Omega overflow
    for bad in (math.nan, math.inf, 1e-307):
        with pytest.raises(ValueError, match="Omega"):
            cn_remote_protocol(ChainParams(L=4), bad)
    Pulse(nu=100.0, Omega=0.0, tau=0.0)  # degenerate but legal


def test_sequence_annotation_validation(params5):
    seq = cn_remote_protocol(params5, 0.1)
    with pytest.raises(ValueError):
        PulseSequence(pulses=seq.pulses, trajectory=seq.trajectory[:-1])
    bad_traj = list(seq.trajectory)
    bad_traj[1] = bad_traj[0]  # not a flip
    with pytest.raises(ValueError):
        PulseSequence(pulses=seq.pulses, trajectory=tuple(bad_traj))


def test_protocol_csv_export(tmp_path, params5):
    seq = cn_remote_protocol(params5, 0.0906)
    path = tmp_path / "protocol.csv"
    write_protocol_csv(seq, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "nu", "Omega", "tau", "flip_qubit", "from_state", "to_state"]
    assert len(rows) - 1 == 2 * params5.L - 3
    assert rows[1][0] == "1"
    assert rows[1][5] == "10000" and rows[1][6] == "11000"
    assert float(rows[3][1]) == pytest.approx(params5.omega0 + 3 * params5.delta_omega - 2)
    # byte-identical on re-export
    path2 = tmp_path / "protocol2.csv"
    write_protocol_csv(seq, path2)
    assert path.read_bytes() == path2.read_bytes()
