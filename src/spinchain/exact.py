"""Exact full-Hilbert-space propagation for small chains.

Oracle for validating the sparse two-level propagator: all 2^L amplitudes
are evolved through each pulse with no resonance approximation.  The rf
field is circularly polarised, so in the frame co-rotating at the pulse
frequency nu the generator

    H_rot = -sum_k (omega_k - nu) I_k^z - 2J sum_k I_k^z I_{k+1}^z
            - Omega sum_k I_k^x

is exactly time independent, and one dense matrix exponential per pulse is
exact (here via eigendecomposition of the real symmetric H_rot, shared by
the pulses of a carrier and of its mirror image, with at most one spectrum
held across another decomposition: 5/6/8/10 for the remote-CN protocol at
L = 6/8/10/12, see `evolve_exact`).  Frame boundaries carry the phases
e^{-i(E_p + nu*M_p) t} relating rotating-frame amplitudes to the
interaction picture, where M_p is the total I^z of state p.  The tests pin
these conventions against `chain_ode` in tests/oracles.py, a solve_ivp
integration of the interaction-picture amplitude equations that computes
its energies on its own.
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
        """Dense copy of a `SparseState`'s amplitudes, at the same time t;
        raises ValueError past the dense cap, under which a key is one word."""
        check_dense_cap(state.L)
        amps = np.zeros(1 << state.L, dtype=complex)
        amps[state.keys[:, 0]] = state.amps
        return cls(amplitudes=amps, L=state.L, t=state.t)

    def probability_array(self) -> np.ndarray:
        """|C|^2 of every basis state, indexed by packed basis state, as
        `SparseState.probability_array` computes it."""
        a = self.amplitudes
        return a.real * a.real + a.imag * a.imag


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
    # column-major, so LAPACK's eigh takes it without a transposing copy
    H = np.zeros((dim, dim), order="F")
    np.fill_diagonal(H, E + pulse.nu * M)
    idx = np.arange(dim)
    for k in range(L):
        H[idx ^ (1 << k), idx] -= pulse.Omega / 2.0
    return H


def _mirror(L: int) -> np.ndarray:
    """Packed basis state of each state with every spin flipped and the chain
    reversed (an involution)."""
    idx = np.arange(1 << L)
    flipped = idx ^ ((1 << L) - 1)
    mirror = np.zeros_like(idx)
    for k in range(L):
        mirror |= ((flipped >> k) & 1) << (L - 1 - k)
    return mirror


def _spectrum_sources(seq: PulseSequence, E: np.ndarray, M: np.ndarray,
                      mirror: np.ndarray) -> list[tuple[int, bool]]:
    """Per pulse, (r, mirrored): the spectrum of pulse r's generator serves
    this pulse, directly or through the mirror.

    H_rot depends on the pulse through (nu, Omega) only.  With the linear
    field gradient, flipping every spin and reversing the chain maps E_p to
    E_p + S M_p and M_p to -M_p, S = 2 omega0 + (L-1) delta_omega, so it
    carries H_rot at nu onto H_rot at S - nu.  Rounding may break the
    symmetry, so it is checked: a new carrier shares an earlier one's
    spectrum only when Omega is equal and its diagonal E + nu M is the
    earlier diagonal permuted, bit for bit.  Its generator is then exactly
    the earlier one permuted, since the off-diagonal -Omega/2 on the
    single-flip pairs is the same bits and the mirror keeps that pair set.
    """
    sources, carriers, roots = [], {}, []
    for i, key in enumerate(zip(seq.nu.tolist(), seq.Omega.tolist())):
        if key not in carriers:
            nu, Omega = key
            d = (E + nu * M).view(np.int64)
            root = next((r for r, Omega_r, mirrored_d in roots
                         if Omega_r == Omega and np.array_equal(mirrored_d, d)), None)
            if root is None:
                roots.append((i, Omega, d[mirror]))
            carriers[key] = (i, False) if root is None else (root, True)
        sources.append(carriers[key])
    return sources


def evolve_exact(initial: DenseState, seq: PulseSequence, params: ChainParams) -> DenseState:
    """Propagate through a pulse sequence, exact to machine roundoff.

    Per pulse: rotate in, apply exp(-i H_rot tau) via eigendecomposition,
    rotate back to interaction-picture amplitudes.  The pulses of a carrier
    (nu, Omega) share one spectrum, and so do those of a carrier whose
    generator is an earlier one's with every spin flipped and the chain
    reversed (see `_spectrum_sources`): they permute the frame-rotated
    vector, apply the earlier spectrum, and permute back.  A spectrum is
    freed after the last pulse that uses it, and before each decomposition
    every held spectrum but the one needed soonest is dropped (and
    decomposed again when next needed), so at most one is alive beside the
    generator being decomposed.  For the remote-CN protocol that is
    5/6/8/10 decompositions at L = 6/8/10/12, where its L distinct carriers
    would need L; at odd L the centre spin's carrier is its own mirror and
    gets no saving.
    """
    L = initial.L
    if L != params.L:
        raise ValueError(f"state has L={L}, params have L={params.L}")
    check_dense_cap(L)
    E, M = _diagonal_terms(params)
    mirror = _mirror(L)
    C = initial.amplitudes.astype(complex).copy()
    t = initial.t
    pulses = seq.pulses
    sources = _spectrum_sources(seq, E, M, mirror)
    # the next pulse that uses each pulse's spectrum, None after the last
    following, seen = [None] * len(sources), {}
    for i in reversed(range(len(sources))):
        following[i] = seen.get(sources[i][0])
        seen[sources[i][0]] = i
    spectra, due = {}, {}
    for i, (pulse, (root, mirrored)) in enumerate(zip(pulses, sources)):
        d = E + pulse.nu * M
        if root not in spectra:
            for held in sorted(spectra, key=due.get)[1:]:
                del spectra[held]
            spectra[root] = np.linalg.eigh(rotating_frame_generator(pulses[root], params))
        w, U = spectra.pop(root) if following[i] is None else spectra[root]
        due[root] = following[i]
        perm = mirror if mirrored else slice(None)
        # phases that overflow give non-finite amplitudes, which the caller
        # reports (cmd_verify), so numpy need not warn about them first
        with np.errstate(over="ignore", invalid="ignore"):
            phi = (np.exp(-1j * d * t) * C)[perm]
            # real products of the real U with each part of phi: a mixed
            # real-complex product copies U to complex on every call
            x = np.exp(-1j * w * pulse.tau) * (phi.real @ U + 1j * (phi.imag @ U))
            phi = (U @ x.real + 1j * (U @ x.imag))[perm]
            del w, U  # a dropped spectrum must not be alive during the next eigh
            t += pulse.tau
            C = np.exp(1j * d * t) * phi
    return DenseState(amplitudes=C, L=L, t=t)
