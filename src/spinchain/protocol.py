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

`control_branch` is the branch's one home: the qubit each pulse flips and
the key rows of the states it walks, which depend on L alone.  A
`PulseSequence` is just its three arrays.  Carrier frequencies are
synthesised from the flip gap `model.flip_gap`, an energy difference of the
chain Hamiltonian, rather than hardcoded, which pins them unambiguously to
the Hamiltonian conventions (one array call on the branch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ChainParams, flip_gap


class Pulse(NamedTuple):
    """One rectangular rf pulse of phase 0: carrier nu, Rabi frequency Omega,
    duration tau (pi-pulses: Omega*tau = pi); `PulseSequence` checks them."""

    nu: float
    Omega: float
    tau: float


@dataclass(frozen=True, eq=False)
class PulseSequence:
    """Ordered pulses as float64 arrays `nu`, `Omega` and `tau`.  Checked
    once, in array form: 1-D arrays of one length, finite, Omega and
    tau >= 0 (0 is degenerate but legal); errors name the field and the
    first bad pulse (from 0).
    """

    nu: np.ndarray
    Omega: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        for name in ("nu", "Omega", "tau"):
            values = np.array(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, values)
            if values.ndim != 1:
                raise ValueError(f"{name} must be a 1-D array, got shape {values.shape}")
            if len(values) != len(self.nu):
                raise ValueError(f"pulse {min(len(values), len(self.nu))}: {name} has "
                                 f"{len(values)} entries, nu has {len(self.nu)}")
        checks = [("nu", "finite", np.isfinite(self.nu)),
                  ("Omega", "finite and >= 0", np.isfinite(self.Omega) & (self.Omega >= 0)),
                  ("tau", "finite and >= 0", np.isfinite(self.tau) & (self.tau >= 0))]
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

    def __len__(self) -> int:
        return len(self.nu)


def control_branch(L: int) -> tuple[np.ndarray, np.ndarray]:
    """(flips, rows) of the remote CN's control branch of chain L: the qubit
    each of the 2L-3 pulses flips, and the (2L-2, ceil(L/64)) uint64 key
    rows of |10...0> and of each state after it."""
    if L < 3:
        raise ValueError(f"remote-CN protocol needs L >= 3 (for L=2 the gate is a "
                         f"single resonant pulse), got L={L}")
    # qubit L-1 sets |10...0> from |0...0>; the pulses flip qubit L-2, then
    # qubit j and qubit j+1 for j = L-3 down to 0
    j = np.arange(L - 3, -1, -1)
    bits = np.concatenate(([L - 1, L - 2], np.stack((j, j + 1), axis=1).ravel()))
    rows = np.zeros((len(bits), (L + 63) // 64), dtype=np.uint64)
    rows[np.arange(len(bits)), bits >> 6] = np.uint64(1) << (bits & 63).astype(np.uint64)
    return bits[1:], np.bitwise_xor.accumulate(rows, axis=0)


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
    flips, branch = control_branch(params.L)
    n = len(flips)
    tau = math.pi / Omega
    if not math.isfinite(8.0 * params.J * n * tau):
        raise ValueError(
            f"Rabi frequency Omega={Omega} is too small for L={params.L}, J={params.J}: "
            "the frame phases 4J (2L-3) pi/Omega of the protocol overflow")
    nu = flip_gap(branch[:-1], flips, params)
    return PulseSequence(nu=nu, Omega=np.full(n, Omega), tau=np.full(n, tau))
