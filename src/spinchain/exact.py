"""Exact full-Hilbert-space propagation for small chains.

Oracle for validating the sparse two-level propagator: all 2^L amplitudes
are evolved through each pulse with no resonance approximation.  The rf
field is circularly polarised, so in the frame co-rotating at the pulse
frequency nu the generator

    H_rot = -sum_k (omega_k - nu) I_k^z - 2J sum_k I_k^z I_{k+1}^z
            - Omega sum_k I_k^x

is exactly time independent, and one dense matrix exponential per pulse is
exact (here via eigendecomposition of the real symmetric H_rot, shared by
the pulses of a carrier and of its mirror image, each spectrum decomposed
once: 4/5/6/7 for the remote-CN protocol at L = 6/8/10/12.  Every spectrum's
eigenvectors go to a temporary file when it is decomposed, and every pulse
reads them memory-mapped, at most 3/3/4/5 files at once, see
`evolve_exact`).  Frame boundaries carry the phases
e^{-i(E_p + nu*M_p) t} relating rotating-frame amplitudes to the
interaction picture, where M_p is the total I^z of state p.  One table of
every basis state's spins (`_spins`) gives E, M and the mirror permutation,
and `evolve_exact` forms each pulse's diagonal E + nu M once, which both
keys its spectrum and carries its frame phases.  The tests pin
these conventions against `chain_ode` in tests/oracles.py, a solve_ivp
integration of the interaction-picture amplitude equations that computes
its energies on its own.
"""

from __future__ import annotations

import os
import tempfile
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
    """All 2^L interaction-picture amplitudes, indexed by packed basis state:
    one (2^L,) row, or an (m, 2^L) block of m states that `evolve_exact`
    carries through every pulse together, on one decomposition per spectrum."""

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


def _spins(L: int) -> np.ndarray:
    """(L, 2^L) table of 0s and 1s: row k is bit k of every packed basis state."""
    return (np.arange(1 << L) >> np.arange(L)[:, None]) & 1


def _diagonal_terms(params: ChainParams) -> tuple[np.ndarray, np.ndarray]:
    """(E, M) over all 2^L basis states: diagonal energies and total I^z."""
    m = 0.5 - _spins(params.L)  # I_k^z of every spin in every basis state
    omegas = params.omega0 + params.delta_omega * np.arange(params.L)
    E = -(omegas @ m)
    E -= 2.0 * params.J * np.sum(m[:-1] * m[1:], axis=0)
    return E, m.sum(axis=0)


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
    # -= rather than =, so that Omega = 0 leaves +0.0 off the diagonal
    H[idx ^ (1 << np.arange(L))[:, None], idx] -= pulse.Omega / 2.0
    return H


def _mirror(L: int) -> np.ndarray:
    """Packed basis state of each state with every spin flipped and the chain
    reversed (an involution)."""
    return (1 << np.arange(L)) @ (1 - _spins(L)[::-1])


def _spectrum_sources(diagonals: np.ndarray, Omega: np.ndarray,
                      mirror: np.ndarray) -> list[tuple[int, bool]]:
    """Per pulse, (r, mirrored): the spectrum of pulse r's generator serves
    this pulse, directly or through the mirror.  Row i of `diagonals` is
    pulse i's diagonal E + nu M, and Omega[i] its Rabi frequency.

    H_rot depends on the pulse through (nu, Omega) only.  With the linear
    field gradient, flipping every spin and reversing the chain maps E_p to
    E_p + S M_p and M_p to -M_p, S = 2 omega0 + (L-1) delta_omega, so it
    carries H_rot at nu onto H_rot at S - nu.  Rounding may break the
    symmetry, so it is checked: a pulse shares an earlier one's spectrum
    only when Omega is equal and its diagonal E + nu M is the earlier
    diagonal, or that diagonal permuted, bit for bit.  Its generator is then
    exactly the earlier one permuted, since the off-diagonal -Omega/2 on the
    single-flip pairs is the same bits and the mirror keeps that pair set.
    """
    sources, spectra = [], {}  # (Omega, diagonal bytes) -> pulse that decomposes it
    for i, (d, rabi) in enumerate(zip(diagonals, Omega.tolist())):
        direct, mirrored = (rabi, d.tobytes()), (rabi, d[mirror].tobytes())
        if direct not in spectra and mirrored in spectra:
            sources.append((spectra[mirrored], True))
        else:
            sources.append((spectra.setdefault(direct, i), False))
    return sources


def _propagate(C: np.ndarray, d: np.ndarray, t: float, tau: float, w: np.ndarray,
               U: np.ndarray, perm) -> np.ndarray:
    """Amplitudes C at time t after a pulse of length tau, a row or a block
    of rows: d is the pulse's diagonal E + nu M, and (w, U) the spectrum of
    its generator with the basis permuted by perm."""
    # phases that overflow give non-finite amplitudes, which the caller
    # reports (cmd_verify), so numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        phi = (np.exp(-1j * d * t) * C)[..., perm]
        # real products of the real U with each part of phi: a mixed
        # real-complex product copies U to complex per call
        x = np.exp(-1j * w * tau) * (phi.real @ U + 1j * (phi.imag @ U))
        phi = (x.real @ U.T + 1j * (x.imag @ U.T))[..., perm]
        return np.exp(1j * d * (t + tau)) * phi


def evolve_exact(initial: DenseState, seq: PulseSequence, params: ChainParams) -> DenseState:
    """Propagate through a pulse sequence, exact to machine roundoff.

    Per pulse: rotate in, apply exp(-i H_rot tau) via eigendecomposition,
    rotate back to interaction-picture amplitudes.  The pulses of a carrier
    (nu, Omega) share one spectrum, and so do those of a carrier whose
    generator is an earlier one's with every spin flipped and the chain
    reversed (see `_spectrum_sources`): they permute the frame-rotated
    vector, apply the earlier spectrum, and permute back.  Each spectrum is
    decomposed once.  Its eigenvalues stay in memory; its eigenvectors are
    written to a file in a temporary directory as soon as they are
    decomposed, and every pulse, the first included, reads them
    memory-mapped, so no spectrum is held in memory during a decomposition.
    The file is deleted after the spectrum's last pulse, and the directory
    when the call ends.  That needs up to (distinct spectra) * 8 * 4^L bytes
    of temporary space; an OSError names it and the directory when the
    directory cannot be made or written.  For the remote-CN protocol it is
    4/5/6/7 decompositions at L = 6/8/10/12, where its L distinct carriers
    would need L, with at most 3/3/4/5 files at once; at odd L the centre
    spin's carrier is its own mirror and gets no saving.
    """
    L = initial.L
    if L != params.L:
        raise ValueError(f"state has L={L}, params have L={params.L}")
    check_dense_cap(L)
    E, M = _diagonal_terms(params)
    diagonals = E + seq.nu[:, None] * M  # row i: pulse i's diagonal E + nu M
    mirror = _mirror(L)
    C = np.asarray(initial.amplitudes, dtype=complex)
    t = initial.t
    sources = _spectrum_sources(diagonals, seq.Omega, mirror)
    last = {root: i for i, (root, _) in enumerate(sources)}
    eigenvalues = {}
    try:
        with tempfile.TemporaryDirectory(prefix="spinchain-") as spill:
            path = os.path.join(spill, "{}.npy").format
            for i, (pulse, (root, mirrored)) in enumerate(zip(seq.pulses, sources)):
                if root == i:  # the first pulse on this spectrum
                    eigenvalues[root], U = np.linalg.eigh(
                        rotating_frame_generator(pulse, params))
                    np.save(path(root), U)
                    del U  # no spectrum is in memory during the next decomposition
                C = _propagate(C, diagonals[i], t, pulse.tau, eigenvalues[root],
                               np.load(path(root), mmap_mode="r"),
                               mirror if mirrored else slice(None))
                t += pulse.tau
                if last[root] == i:
                    os.remove(path(root))
    except OSError as exc:
        raise OSError(
            f"the exact propagation needs up to {len(last) * 8 * 4 ** L} bytes ({len(last)} "
            f"spectra x {8 * 4 ** L}) of temporary space in {tempfile.gettempdir()} "
            f"(TMPDIR sets the directory): {exc}") from exc
    return DenseState(amplitudes=C, L=L, t=t)
