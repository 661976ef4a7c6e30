"""Exact full-Hilbert-space propagation for small chains.

Oracle for validating the sparse two-level propagator: all 2^L amplitudes
are evolved through each pulse with no resonance approximation.  The rf
field is circularly polarised, so in the frame co-rotating at the pulse
frequency nu the generator

    H_rot = -sum_k (omega_k - nu) I_k^z - 2J sum_k I_k^z I_{k+1}^z
            - Omega sum_k I_k^x

is exactly time independent, and one dense matrix exponential per pulse is
exact (here via eigendecomposition of the real symmetric H_rot: one per
distinct carrier, L for the remote-CN protocol, each freed after its last
pulse).  Frame boundaries carry the phases e^{-i(E_p + nu*M_p) t}
relating rotating-frame amplitudes to the interaction picture, where M_p is
the total I^z of state p.  The tests pin these conventions against
`chain_ode` in tests/oracles.py, a solve_ivp integration of the
interaction-picture amplitude equations that computes its energies on its
own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChainParams
from .protocol import Pulse, PulseSequence

HILBERT_CAP = 12  # 4096 amplitudes; dense exponentials stay desk-scale


def check_dense_cap(L: int) -> None:
    """Raise ValueError when a chain of L spins is too long to propagate densely."""
    if L > HILBERT_CAP:
        raise ValueError(f"L={L} exceeds the dense-propagation cap {HILBERT_CAP}")


@dataclass
class DenseState:
    """All 2^L interaction-picture amplitudes, indexed by packed basis state."""

    amplitudes: np.ndarray
    L: int
    t: float = 0.0

    @classmethod
    def from_sparse(cls, state) -> "DenseState":
        """Dense copy of a `SparseState`'s amplitudes, at the same time t."""
        amps = np.zeros(1 << state.L, dtype=complex)
        amps[state.states()] = state.amps
        return cls(amplitudes=amps, L=state.L, t=state.t)

    def probability_array(self) -> np.ndarray:
        """|C|^2 of every basis state, indexed by packed basis state."""
        return np.abs(self.amplitudes) ** 2


def _diagonal_terms(params: ChainParams) -> tuple[np.ndarray, np.ndarray]:
    """(E, M) over all 2^L basis states: diagonal energies and total I^z."""
    L = params.L
    idx = np.arange(1 << L)
    m = np.empty((L, idx.size))
    for k in range(L):
        m[k] = 0.5 - ((idx >> k) & 1)
    omegas = params.omega0 + params.delta_omega * np.arange(L)
    E = -(omegas @ m)
    E -= 2.0 * params.J * np.sum(m[:-1] * m[1:], axis=0)
    M = m.sum(axis=0)
    return E, M


def rotating_frame_generator(pulse: Pulse, params: ChainParams) -> np.ndarray:
    """Time-independent generator in the frame rotating at the pulse carrier.

    Real symmetric 2^L x 2^L matrix: diagonal entries E_p + nu*M_p, and
    -Omega/2 on every single-flip pair.
    """
    L = params.L
    check_dense_cap(L)
    E, M = _diagonal_terms(params)
    dim = 1 << L
    H = np.zeros((dim, dim))
    np.fill_diagonal(H, E + pulse.nu * M)
    idx = np.arange(dim)
    for k in range(L):
        H[idx ^ (1 << k), idx] -= pulse.Omega / 2.0
    return H


def evolve_exact(initial: DenseState, seq: PulseSequence, params: ChainParams) -> DenseState:
    """Propagate through a pulse sequence, exact to machine roundoff.

    Per pulse: rotate in, apply exp(-i H_rot tau) via eigendecomposition,
    rotate back to interaction-picture amplitudes.  H_rot depends on the
    pulse through (nu, Omega) only, so each distinct carrier is decomposed
    once and its spectrum freed after the last pulse that uses it.
    """
    L = initial.L
    if L != params.L:
        raise ValueError(f"state has L={L}, params have L={params.L}")
    check_dense_cap(L)
    E, M = _diagonal_terms(params)
    C = initial.amplitudes.astype(complex).copy()
    t = initial.t
    keys = [(pulse.nu, pulse.Omega) for pulse in seq.pulses]
    last_use = {key: i for i, key in enumerate(keys)}
    spectra = {}
    for i, (pulse, key) in enumerate(zip(seq.pulses, keys)):
        d = E + pulse.nu * M
        if key not in spectra:
            spectra[key] = np.linalg.eigh(rotating_frame_generator(pulse, params))
        w, U = spectra.pop(key) if last_use[key] == i else spectra[key]
        # phases that overflow give non-finite amplitudes, which the caller
        # reports (cmd_verify), so numpy need not warn about them first
        with np.errstate(over="ignore", invalid="ignore"):
            phi = np.exp(-1j * d * t) * C
            phi = U @ (np.exp(-1j * w * pulse.tau) * (U.T @ phi))
            del w, U  # an evicted spectrum must not be alive during the next eigh
            t += pulse.tau
            C = np.exp(1j * d * t) * phi
    return DenseState(amplitudes=C, L=L, t=t)

