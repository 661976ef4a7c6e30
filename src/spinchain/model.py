"""Static model of an open Ising chain of spin-1/2 nuclei in a field gradient.

The chain Hamiltonian (diagonal part, frequency units, hbar = 1) is

    H0 = - sum_k omega_k I_k^z  -  2 J sum_k I_k^z I_{k+1}^z

with L spins, nearest-neighbour Ising coupling J over the L-1 bonds of an
open chain, and NMR frequencies ramped linearly along the chain,
omega_k = omega0 + k * delta_omega.  A basis state assigns one bit per
qubit: bit k = 0 means spin k points along the field (I^z eigenvalue +1/2),
bit k = 1 means spin down (-1/2).  Bitstrings render most-significant
qubit first, |b_{L-1} ... b_1 b_0>.

The gradient condition delta_omega > 4J keeps the single-spin transition
bands omega_k +/- 2J of distinct spins disjoint, so every rf frequency
addresses at most one spin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChainParams:
    """Chain geometry and field parameters, all frequencies in units of J.

    omega0 and delta_omega default to 100*J and 20*J: only detunings on the
    scale of J matter for the reduced two-level dynamics, but the exact
    propagator needs concrete Larmor frequencies.
    """

    L: int
    J: float = 1.0
    omega0: float | None = None
    delta_omega: float | None = None

    def __post_init__(self):
        if self.L < 2:
            raise ValueError(f"need at least 2 qubits, got L={self.L}")
        if not (math.isfinite(self.J) and self.J > 0):
            raise ValueError(f"Ising constant J must be finite and positive, got J={self.J}")
        if self.omega0 is None:
            object.__setattr__(self, "omega0", 100.0 * self.J)
        if self.delta_omega is None:
            object.__setattr__(self, "delta_omega", 20.0 * self.J)
        for name in ("omega0", "delta_omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.omega0 <= 2 * self.J:
            raise ValueError(
                f"omega0={self.omega0} must exceed 2*J={2 * self.J} "
                "so that every flip gap is positive"
            )
        if self.delta_omega <= 4 * self.J:
            raise ValueError(
                f"delta_omega={self.delta_omega} must exceed 4*J={4 * self.J} "
                "so that transition bands of distinct spins cannot overlap"
            )
        # The largest flip gap's ulp must be <= J*2^-20: detunings (0, +-2J, +-4J)
        # are then off by <= ~1e-6 J, and omega0/J may reach ~8.6e9 (NMR: 1e6-1e7).
        top = self.omega0 + (self.L - 1) * self.delta_omega + 2 * self.J
        if not math.ulp(top) <= self.J * 2.0**-20:
            raise ValueError(
                f"omega0={self.omega0} and delta_omega={self.delta_omega} put the largest "
                f"flip gap at {top:g}, where float64 resolves only {math.ulp(top):g} > "
                "J*2^-20: the +-J neighbour terms of the flip gaps would round away")


@dataclass(frozen=True)
class BasisState:
    """Computational basis state of L spins, packed little-endian in `bits`.

    Bit k of `bits` is the state of qubit k (0 = up, 1 = down).
    """

    bits: int
    L: int

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"need at least one qubit, got L={self.L}")
        if not 0 <= self.bits < (1 << self.L):
            raise ValueError(f"bits={self.bits} out of range for L={self.L}")

    @classmethod
    def from_string(cls, s: str) -> "BasisState":
        """Parse a |b_{L-1} ... b_0> bitstring, most-significant qubit first."""
        if not s or any(c not in "01" for c in s):
            raise ValueError(f"not a bitstring: {s!r}")
        return cls(bits=int(s, 2), L=len(s))

    @classmethod
    def ground(cls, L: int) -> "BasisState":
        return cls(bits=0, L=L)

    def __str__(self) -> str:
        return format(self.bits, f"0{self.L}b")


def pack_keys(states, L: int) -> np.ndarray:
    """(n, ceil(L/64)) uint64 rows of packed states, bit k at bit k % 64 of word k // 64."""
    W = (L + 63) // 64
    rows = [[(s >> (64 * j)) & (2**64 - 1) for j in range(W)] for s in states]
    return np.array(rows, dtype=np.uint64).reshape(len(rows), W)


def flip_gap(keys: np.ndarray, k, params: ChainParams):
    """E(bit k set) - E(bit k cleared) for the flip pair of each state of
    `keys`, the transition frequency of spin k.

    `keys` are (..., W) uint64 key rows, bit j of a state at bit j % 64 of
    word j // 64 (the layout of `SparseState.keys`), and `k` an int array
    broadcasting against keys[..., 0].  Depends only on the neighbour bits
    of k, so O(1) per state: gap = omega0 + k*delta_omega
    + 2J * (m_{k-1} + m_{k+1}), with the I^z eigenvalue m = 1/2 - bit, and
    the term of a neighbour outside the chain an exact zero.  Positive,
    because `ChainParams` enforces omega0 > 2J, so a zero term leaves it
    unchanged bit for bit.
    """
    below, above = _key_bit(keys, k - 1, params.L), _key_bit(keys, k + 1, params.L)
    return neighbour_gap(k, below, above, params)


def neighbour_gap(k, below, above, params: ChainParams):
    """`flip_gap` of spin k from its neighbour bits b_{k-1} and b_{k+1}
    (0 or 1, ints or arrays); a neighbour outside the chain adds a signed
    zero whatever its bit."""
    g = params.omega0 + k * params.delta_omega
    g = g + 2.0 * params.J * (0.5 - below) * (k > 0)
    return g + 2.0 * params.J * (0.5 - above) * (k < params.L - 1)


def _key_bit(keys: np.ndarray, j, L: int) -> np.ndarray:
    """Bit j of (..., W) uint64 key rows, with j clamped into the chain (an
    edge neighbour's bit is read, then multiplied by zero)."""
    j = np.minimum(np.maximum(j, 0), L - 1)
    word = np.take_along_axis(keys, (j >> 6)[..., None], axis=-1)[..., 0]
    return (word >> (j & 63).astype(np.uint64)) & np.uint64(1)
