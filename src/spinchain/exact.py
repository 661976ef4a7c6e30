"""Exact full-Hilbert-space propagation for small chains.

Oracle for validating the sparse two-level propagator: all 2^L amplitudes
are evolved through each pulse with no resonance approximation.  The rf
field is circularly polarised, so in the frame co-rotating at the pulse
frequency nu the generator

    H_rot = -sum_k (omega_k - nu) I_k^z - 2J sum_k I_k^z I_{k+1}^z
            - Omega sum_k I_k^x

is exactly time independent, and one dense matrix exponential per pulse is
exact (here via eigendecomposition of the real symmetric H_rot).  Frame
boundaries carry the phases e^{-i(E_p + nu*M_p) t} relating rotating-frame
amplitudes to the interaction picture, where M_p is the total I^z of state
p; these conventions are pinned by agreement with integrate_tdse, a direct
fixed-step integration of the lab-frame amplitude equations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChainParams, BasisState
from .protocol import Pulse, PulseSequence

HILBERT_CAP = 12  # 4096 amplitudes; dense exponentials stay desk-scale


@dataclass
class DenseState:
    """All 2^L interaction-picture amplitudes, indexed by packed basis state."""

    amplitudes: np.ndarray
    L: int
    t: float = 0.0

    @classmethod
    def from_basis(cls, state: BasisState) -> "DenseState":
        amps = np.zeros(1 << state.L, dtype=complex)
        amps[state.bits] = 1.0
        return cls(amplitudes=amps, L=state.L)

    @classmethod
    def from_sparse(cls, state) -> "DenseState":
        """Dense copy of a `SparseState`'s amplitudes, at the same time t."""
        amps = np.zeros(1 << state.L, dtype=complex)
        for bits, amp in state.amplitudes.items():
            amps[bits] = amp
        return cls(amplitudes=amps, L=state.L, t=state.t)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> dict[int, float]:
        p = np.abs(self.amplitudes) ** 2
        return {s: float(p[s]) for s in range(p.size)}


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
    -Omega/2 on every single-flip pair (phase 0).
    """
    L = params.L
    if L > HILBERT_CAP:
        raise ValueError(f"L={L} exceeds the dense-propagation cap {HILBERT_CAP}")
    if pulse.phase != 0.0:
        raise ValueError("only phase-0 pulses are supported")
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
    rotate back to interaction-picture amplitudes.
    """
    L = initial.L
    if L != params.L:
        raise ValueError(f"state has L={L}, params have L={params.L}")
    if L > HILBERT_CAP:
        raise ValueError(f"L={L} exceeds the dense-propagation cap {HILBERT_CAP}")
    E, M = _diagonal_terms(params)
    C = initial.amplitudes.astype(complex).copy()
    t = initial.t
    for pulse in seq.pulses:
        d = E + pulse.nu * M
        H = rotating_frame_generator(pulse, params)
        w, U = np.linalg.eigh(H)
        phi = np.exp(-1j * d * t) * C
        phi = U @ (np.exp(-1j * w * pulse.tau) * (U.T @ phi))
        t += pulse.tau
        C = np.exp(1j * d * t) * phi
    return DenseState(amplitudes=C, L=L, t=t)


def _tdse_rhs_factory(pulse: Pulse, params: ChainParams):
    """Vectorised RHS of the interaction-picture amplitude equations,

        i dC_p/dt = sum_m V_pm e^{i(E_p - E_m) t + i r_pm nu t} C_m,

    with V_pm = -Omega/2 on single-flip pairs and r_pm = -1 (+1) for
    E_p > E_m (E_p < E_m): the slow co-rotating combination, exact for a
    circularly polarised drive.
    """
    L = params.L
    E, _ = _diagonal_terms(params)
    p_idx = []
    m_idx = []
    expo = []
    for s in range(1 << L):
        for k in range(L):
            q = s ^ (1 << k)
            gap = E[s] - E[q]
            p_idx.append(s)
            m_idx.append(q)
            expo.append(gap - np.sign(gap) * pulse.nu)
    p_idx = np.array(p_idx)
    m_idx = np.array(m_idx)
    expo = np.array(expo)
    coef = 1j * (pulse.Omega / 2.0)

    def rhs(t: float, C: np.ndarray) -> np.ndarray:
        out = np.zeros_like(C)
        np.add.at(out, p_idx, coef * np.exp(1j * expo * t) * C[m_idx])
        return out

    return rhs


def _rk4(rhs, C: np.ndarray, t0: float, tau: float, steps: int) -> np.ndarray:
    h = tau / steps
    t = t0
    for _ in range(steps):
        k1 = rhs(t, C)
        k2 = rhs(t + 0.5 * h, C + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, C + 0.5 * h * k2)
        k4 = rhs(t + h, C + h * k3)
        C = C + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return C


def integrate_tdse(initial: DenseState, pulse: Pulse, params: ChainParams,
                   steps: int = 2000, tol: float = 1e-8) -> DenseState:
    """Propagate one pulse by direct RK4 integration of the amplitude ODEs.

    Sign-convention referee for the rotating-frame path; restricted to
    L <= 3 where the fixed-step cost is trivial.  Convergence is verified
    by halving the step (comparing `steps` against 2*steps); one further
    doubling is attempted before giving up.
    """
    L = initial.L
    if L > 3:
        raise ValueError(f"integrate_tdse is a small-chain referee, L={L} > 3")
    if L != params.L:
        raise ValueError(f"state has L={L}, params have L={params.L}")
    if pulse.tau == 0.0:
        return DenseState(amplitudes=initial.amplitudes.copy(), L=L, t=initial.t)
    rhs = _tdse_rhs_factory(pulse, params)
    coarse = _rk4(rhs, initial.amplitudes.astype(complex), initial.t, pulse.tau, steps)
    for _ in range(2):
        steps *= 2
        fine = _rk4(rhs, initial.amplitudes.astype(complex), initial.t, pulse.tau, steps)
        if np.max(np.abs(fine - coarse)) <= tol:
            return DenseState(amplitudes=fine, L=L, t=initial.t + pulse.tau)
        coarse = fine
    raise RuntimeError(
        f"RK4 did not converge to {tol} after step doubling (last steps={steps})"
    )
