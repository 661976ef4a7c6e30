"""Synthesis of the remote controlled-NOT pulse protocol.

The gate flips target qubit 0 iff control qubit L-1 is |1>.  It is compiled
into 2L-3 resonant pi-pulses that walk the control branch along a chain of
single-flip states,

    |100...0> -> |110...0> -> |111...0> -> |101...0> -> ... -> |100...01>,

first flipping qubit L-2, then for j = L-3 down to 0 flipping qubit j and
un-flipping qubit j+1.  Each pulse carrier is set to the exact level
spacing of the intended flip on that branch, so on the control-1 branch
every transition is resonant; on the all-zeros branch the same pulses are
detuned by 2J (4J for the third pulse), which is the source of all the
error analytics in this package.

Carrier frequencies are synthesised from the flip gap `model.flip_gap`, an
energy difference of the chain Hamiltonian, rather than hardcoded, which
pins them unambiguously to the Hamiltonian conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import BasisState, ChainParams, flip_gap


@dataclass(frozen=True)
class Pulse:
    """One rectangular rf pulse of phase 0: carrier nu, Rabi frequency
    Omega, duration tau.  pi-pulses satisfy Omega*tau = pi exactly."""

    nu: float
    Omega: float
    tau: float

    def __post_init__(self):
        for name in ("nu", "Omega", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"pulse {name} must be finite, got {getattr(self, name)}")
        # Omega=0 (free evolution) and tau=0 (identity) are degenerate but
        # legal; negative values are not.
        if self.Omega < 0:
            raise ValueError(f"Rabi frequency must be >= 0, got {self.Omega}")
        if self.tau < 0:
            raise ValueError(f"duration must be >= 0, got {self.tau}")


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulse list, optionally annotated with the control-branch
    trajectory: the (from, to) states of each pulse."""

    pulses: tuple[Pulse, ...]
    trajectory: tuple[BasisState, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "pulses", tuple(self.pulses))
        if self.trajectory is not None:
            object.__setattr__(self, "trajectory", tuple(self.trajectory))
            if len(self.trajectory) != len(self.pulses) + 1:
                raise ValueError("trajectory must have len(pulses)+1 states")
            for i, (a, b) in enumerate(zip(self.trajectory, self.trajectory[1:])):
                diff = a.bits ^ b.bits
                if diff == 0 or (diff & (diff - 1)) != 0:
                    raise ValueError(f"trajectory step {i} is not a single-bit flip")

    @property
    def flip_qubits(self) -> tuple[int, ...] | None:
        """The qubit each pulse flips, read off the trajectory."""
        if self.trajectory is None:
            return None
        return tuple((a.bits ^ b.bits).bit_length() - 1
                     for a, b in zip(self.trajectory, self.trajectory[1:]))

    def __len__(self) -> int:
        return len(self.pulses)

    def __iter__(self):
        return iter(self.pulses)


def cn_trajectory(params: ChainParams) -> list[BasisState]:
    """Control-branch state path of the remote-CN protocol, 2L-2 states.

    Starts at |10...0>, ends at |10...01>; adjacent states differ in
    exactly one bit.
    """
    L = params.L
    if L < 3:
        raise ValueError(
            f"remote-CN protocol needs L >= 3 (for L=2 the gate is a single "
            f"resonant pulse), got L={L}"
        )
    bits = 1 << (L - 1)
    path = [bits]
    bits ^= 1 << (L - 2)
    path.append(bits)
    for j in range(L - 3, -1, -1):
        bits ^= 1 << j
        path.append(bits)
        bits ^= 1 << (j + 1)
        path.append(bits)
    return [BasisState(b, L) for b in path]


def cn_remote_protocol(params: ChainParams, Omega: float) -> PulseSequence:
    """Compile the remote-CN gate into 2L-3 resonant pi-pulses.

    For each consecutive pair of trajectory states flipping qubit k, the
    pulse carrier equals the level spacing of that flip on the current
    control-branch state and tau = pi/Omega.  Omega is rejected when the
    frame phases Delta * t of a run, |Delta| <= 4J up to the end time
    (2L-3) tau, would overflow (twice that bound must be finite, leaving
    room for rounding).
    """
    if not (math.isfinite(Omega) and Omega > 0):
        raise ValueError(f"Rabi frequency Omega must be finite and positive, got {Omega}")
    traj = cn_trajectory(params)
    tau = math.pi / Omega
    if not math.isfinite(8.0 * params.J * (len(traj) - 1) * tau):
        raise ValueError(
            f"Rabi frequency Omega={Omega} is too small for L={params.L}, J={params.J}: "
            "the frame phases 4J (2L-3) pi/Omega of the protocol overflow")
    pulses = []
    for a, b in zip(traj, traj[1:]):
        k = (a.bits ^ b.bits).bit_length() - 1
        pulses.append(Pulse(nu=flip_gap(a.bits, k, params), Omega=Omega, tau=tau))
    return PulseSequence(pulses=tuple(pulses), trajectory=tuple(traj))


def ground_branch_detunings(seq: PulseSequence, params: ChainParams) -> list[float]:
    """Detuning magnitudes seen by the all-zeros state under each pulse.

    The all-zeros branch never moves at leading order, so each pulse is
    compared against the spacing for flipping its annotated qubit out of
    |0...0>.  For the CN protocol this is 2J for every pulse except the
    third, which is 4J.
    """
    if seq.flip_qubits is None:
        raise ValueError("sequence carries no flip annotations")
    return [abs(flip_gap(0, k, params) - pulse.nu)
            for pulse, k in zip(seq.pulses, seq.flip_qubits)]
