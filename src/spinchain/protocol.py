"""Synthesis of the remote controlled-NOT pulse protocol.

The gate flips target qubit 0 iff control qubit L-1 is |1>, on inputs whose
target is |0>, the paper's case.  It is no CN on the others: from L = 5 on,
|0...01> ends near |0...0100> and |10...01> near |10...0101>.  It is compiled
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
pins them unambiguously to the Hamiltonian conventions (one array call).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import BasisState, ChainParams, flip_gap, pack_keys


class Pulse(NamedTuple):
    """One rectangular rf pulse of phase 0: carrier nu, Rabi frequency Omega,
    duration tau (pi-pulses: Omega*tau = pi); `PulseSequence` checks them."""

    nu: float
    Omega: float
    tau: float


@dataclass(frozen=True, eq=False)
class PulseSequence:
    """Ordered pulses as float64 arrays `nu`, `Omega` and `tau`, optionally
    annotated with the control branch: the qubit each pulse flips and the
    branch's `start` state.  Checked once, in array form: 1-D arrays of one
    length, finite, Omega and tau >= 0 (0 is degenerate but legal), flip
    qubits in [0, L); errors name the field and the first bad pulse (from 0).
    """

    nu: np.ndarray
    Omega: np.ndarray
    tau: np.ndarray
    flip_qubits: np.ndarray | None = None
    start: BasisState | None = None

    def __post_init__(self):
        if (self.flip_qubits is None) != (self.start is None):
            raise ValueError("give flip_qubits and start together, or neither")
        for name in ("nu", "Omega", "tau") + (() if self.start is None else ("flip_qubits",)):
            values = np.array(getattr(self, name),
                              dtype=np.int64 if name == "flip_qubits" else np.float64)
            object.__setattr__(self, name, values)
            if values.ndim != 1:
                raise ValueError(f"{name} must be a 1-D array, got shape {values.shape}")
            if len(values) != len(self.nu):
                raise ValueError(f"pulse {min(len(values), len(self.nu))}: {name} has "
                                 f"{len(values)} entries, nu has {len(self.nu)}")
        checks = [("nu", "finite", np.isfinite(self.nu)),
                  ("Omega", "finite and >= 0", np.isfinite(self.Omega) & (self.Omega >= 0)),
                  ("tau", "finite and >= 0", np.isfinite(self.tau) & (self.tau >= 0))]
        if self.start is not None:
            flips, L = self.flip_qubits, self.start.L
            checks.append(("flip_qubits", f"in [0, {L})", (flips >= 0) & (flips < L)))
        for name, rule, ok in checks:
            if not ok.all():
                i = int(np.argmin(ok))
                raise ValueError(f"pulse {i}: {name} must be {rule}, "
                                 f"got {getattr(self, name)[i]}")

    @property
    def pulses(self) -> tuple[Pulse, ...]:
        """`Pulse` records of the arrays (tuple.__new__ skips Pulse's Python-level __new__)."""
        rows = zip(self.nu.tolist(), self.Omega.tolist(), self.tau.tolist())
        return tuple(map(tuple.__new__, [Pulse] * len(self), rows))

    @property
    def trajectory(self) -> np.ndarray | None:
        """(len + 1, ceil(L/64)) uint64 key rows of the annotated branch:
        the start state, then the state after each pulse."""
        return None if self.start is None else _trajectory(self.start, self.flip_qubits)

    def __len__(self) -> int:
        return len(self.nu)


def _trajectory(start: BasisState, flips: np.ndarray) -> np.ndarray:
    """Key rows of `start` and of each state after it, one flip per row."""
    rows = np.zeros((len(flips) + 1, (start.L + 63) // 64), dtype=np.uint64)
    rows[0] = pack_keys([start.bits], start.L)
    rows[np.arange(1, len(rows)), flips >> 6] = np.uint64(1) << (flips & 63).astype(np.uint64)
    return np.bitwise_xor.accumulate(rows, axis=0)


def cn_remote_protocol(params: ChainParams, Omega: float) -> PulseSequence:
    """Compile the remote-CN gate into 2L-3 resonant pi-pulses.

    Each pulse's carrier equals the level spacing of its flip on the branch
    state before it, and tau = pi/Omega.  Omega is rejected when the frame
    phases Delta * t of a run, |Delta| <= 4J up to the end time (2L-3) tau,
    would overflow (twice that bound must be finite, leaving room for
    rounding).
    """
    if not (math.isfinite(Omega) and Omega > 0):
        raise ValueError(f"Rabi frequency Omega must be finite and positive, got {Omega}")
    L = params.L
    if L < 3:
        raise ValueError(f"remote-CN protocol needs L >= 3 (for L=2 the gate is a "
                         f"single resonant pulse), got L={L}")
    n = 2 * L - 3
    tau = math.pi / Omega
    if not math.isfinite(8.0 * params.J * n * tau):
        raise ValueError(
            f"Rabi frequency Omega={Omega} is too small for L={L}, J={params.J}: "
            "the frame phases 4J (2L-3) pi/Omega of the protocol overflow")
    # qubit L-2, then qubit j and qubit j+1 for j = L-3 down to 0
    j = np.arange(L - 3, -1, -1)
    flips = np.concatenate(([L - 2], np.stack((j, j + 1), axis=1).ravel()))
    start = BasisState(1 << (L - 1), L)
    nu = flip_gap(_trajectory(start, flips)[:-1], flips, params)
    return PulseSequence(nu=nu, Omega=np.full(n, Omega), tau=np.full(n, tau),
                         flip_qubits=flips, start=start)

