"""Sparse propagation of interaction-picture amplitudes through a pulse sequence.

Under a pulse resonant with spin k, a basis state couples appreciably only
to its single-flip partner at spin k; all other couplings are suppressed by
the gradient (delta_omega >> Omega).  Each pulse therefore factorises into
independent two-level problems over flip pairs, and each pair evolves by
the closed-form map

    C_m(t1) = [cos(lam*tau/2) + i (Delta/lam) sin(lam*tau/2)] e^{-i tau Delta/2}
    C_p(t1) = i (Omega/lam) sin(lam*tau/2) e^{i t0 Delta + i tau Delta/2}

for a pair starting in the lower level m (the map for arbitrary initial
amplitudes is the unitary 2x2 extension, see pair_coefficients), where
Delta = E_p - E_m - nu with E_p > E_m and lam = sqrt(Omega^2 + Delta^2) is
the precession frequency in the frame rotating at nu.

Amplitudes are stored in the interaction picture including the t-dependent
phases, so multi-pulse interference is treated exactly within the two-level
approximation; tracking probabilities alone would not be.

Validity: the couplings the map neglects still move probability.  Each pulse
drives the neighbouring spins' transitions, detuned by about delta_omega,
with probability about (Omega/delta_omega)^2, so the map's error analysis
holds only while eps >> (Omega/delta_omega)^2.  The fig2 operating point is
outside that condition: (0.0906/20)^2 = 2.1e-5 against eps = 4.8e-5, and
the exact dense propagator's total unwanted probability there is 1.3 to 1.8
times the map's at L = 4-8.

The state map is pruned after every pulse: amplitudes with |C|^2 below the
pruning threshold are removed and their probability is accounted in a
`dropped` ledger, never renormalised away.  This keeps the active set
polynomial in L while making the approximation cost visible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .model import BasisState, ChainParams, _signed_gap
from .protocol import Pulse, PulseSequence

# Amplitudes with |C|^2 below this floor are discarded even when pruning is
# disabled (P_drop=0): they are far below any resolvable probability, and
# keeping every nonzero descendant would let the active set grow as 2^L.
# Removed probability still lands in the dropped ledger.
AMPLITUDE_FLOOR = 1e-30


@dataclass
class SparseState:
    """Map from packed basis states to interaction-picture amplitudes.

    Invariant: sum |C|^2 + dropped = 1 (pair updates are unitary; only
    pruning removes norm, and what it removes is added to `dropped`).
    """

    amplitudes: dict[int, complex]
    L: int
    t: float = 0.0
    dropped: float = 0.0

    @classmethod
    def from_basis(cls, state: BasisState) -> "SparseState":
        return cls(amplitudes={state.bits: 1.0 + 0.0j}, L=state.L)

    @classmethod
    def from_superposition(cls, terms: dict[BasisState, complex] | list[tuple[BasisState, complex]]) -> "SparseState":
        items = terms.items() if isinstance(terms, dict) else terms
        amps: dict[int, complex] = {}
        L = None
        for state, amp in items:
            if L is None:
                L = state.L
            elif state.L != L:
                raise ValueError("superposition mixes different chain lengths")
            amps[state.bits] = amps.get(state.bits, 0.0) + complex(amp)
        if L is None:
            raise ValueError("empty superposition")
        norm = sum(abs(a) ** 2 for a in amps.values())
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"superposition norm deviates from 1 by {abs(norm - 1.0):.2e}")
        return cls(amplitudes=amps, L=L)

    def probability(self, state: BasisState | int) -> float:
        bits = state.bits if isinstance(state, BasisState) else state
        c = self.amplitudes.get(bits)
        return 0.0 if c is None else (c.real * c.real + c.imag * c.imag)

    def probabilities(self) -> dict[int, float]:
        return {s: c.real * c.real + c.imag * c.imag for s, c in self.amplitudes.items()}

    def total_probability(self) -> float:
        return sum(c.real * c.real + c.imag * c.imag for c in self.amplitudes.values())


def pair_coefficients(Delta: float, Omega: float, tau: float,
                      t_start: float) -> tuple[complex, complex, complex, complex]:
    """2x2 unitary (K_mm, K_mp, K_pm, K_pp) acting on (C_m, C_p) over one pulse.

    Derived by solving the cross-coupled pair equations
        i dC_p/dt = -(Omega/2) e^{+i Delta t} C_m
        i dC_m/dt = -(Omega/2) e^{-i Delta t} C_p
    exactly over [t_start, t_start+tau]; the phase factors carry the
    interaction-picture bookkeeping across pulse boundaries.  With
    u = cos(lam*tau/2), v = (Delta/lam) sin(lam*tau/2) and
    w = (Omega/lam) sin(lam*tau/2), unitarity is u^2 + v^2 + w^2 = 1.
    """
    lam = math.hypot(Omega, Delta)
    if lam == 0.0:
        u, v, w = 1.0, 0.0, 0.0
    else:
        half = 0.5 * lam * tau
        s = math.sin(half)
        u, v, w = math.cos(half), Delta / lam * s, Omega / lam * s
    t1 = t_start + tau
    ph = complex(math.cos(0.5 * Delta * tau), -math.sin(0.5 * Delta * tau))
    e0 = complex(math.cos(Delta * t_start), -math.sin(Delta * t_start))
    e1 = complex(math.cos(Delta * t1), math.sin(Delta * t1))
    return (ph * complex(u, v), ph * 1j * w * e0, ph * 1j * w * e1,
            ph * complex(u, -v) * e0 * e1)


def pair_update(C_m: complex, C_p: complex, Delta: float, Omega: float,
                tau: float, t_start: float) -> tuple[complex, complex]:
    """Propagate one flip pair through one pulse, exactly.

    C_m is the amplitude of the lower level, C_p of the upper
    (Delta = E_p - E_m - nu with E_p > E_m).  For (C_m, C_p) = (1, 0) this
    reproduces the closed-form pi-pulse map verbatim, including the phase
    factors e^{-i tau Delta/2} and e^{i t_start Delta + i tau Delta/2}.
    """
    K_mm, K_mp, K_pm, K_pp = pair_coefficients(Delta, Omega, tau, t_start)
    return K_mm * C_m + K_mp * C_p, K_pm * C_m + K_pp * C_p


def resonant_spin(nu: float, params: ChainParams) -> int:
    """Index of the spin whose transition band contains nu.

    Returns the k minimising |nu - omega_k|, unique because the band
    half-width 2J is below half the gradient step.  Frequencies outside
    [omega_0 - 2J, omega_{L-1} + 2J] address no spin and raise.
    """
    lo = params.omega0 - 2.0 * params.J
    hi = params.omega0 + (params.L - 1) * params.delta_omega + 2.0 * params.J
    if not lo <= nu <= hi:
        raise ValueError(
            f"pulse frequency {nu} addresses no spin "
            f"(outside [{lo}, {hi}] for this chain)"
        )
    k = round((nu - params.omega0) / params.delta_omega)
    return min(max(k, 0), params.L - 1)


def apply_pulse(state: SparseState, pulse: Pulse, params: ChainParams,
                P_drop: float = 1e-6) -> SparseState:
    """Advance a sparse state through one pulse in the two-level approximation.

    Every active basis state is paired with its single-flip partner at the
    resonant spin; each disjoint pair evolves once under its own detuning,
    computed from energy differences.  Absent partners enter with amplitude
    zero.  After the update, amplitudes with |C|^2 < max(P_drop,
    AMPLITUDE_FLOOR) are removed and their probability added to the dropped
    ledger.
    """
    if not 0.0 <= P_drop < 1.0:
        raise ValueError(f"P_drop must be in [0, 1), got {P_drop}")
    if pulse.phase != 0.0:
        raise ValueError("only phase-0 pulses are supported")
    k = resonant_spin(pulse.nu, params)
    mask = 1 << k
    # The flip gap depends only on the neighbour bits k-1 and k+1 (absent at
    # the chain's edges), so a pulse has at most four pair maps.  Every gap
    # is positive (ChainParams enforces omega0 > 2J): the bit-k-clear member
    # of a pair is its lower level.
    below = mask >> 1
    above = (mask << 1) & ((1 << params.L) - 1)
    neighbours = below | above
    maps = {
        pattern: pair_coefficients(_signed_gap(pattern, k, params) - pulse.nu,
                                   pulse.Omega, pulse.tau, state.t)
        for pattern in {0, below, above, neighbours}
    }
    old = state.amplitudes
    new: dict[int, complex] = {}
    for s in old:
        q = s ^ mask
        if q < s and q in old:
            continue  # pair already handled from its partner
        lo_s = s & ~mask
        hi_s = lo_s | mask
        K_mm, K_mp, K_pm, K_pp = maps[s & neighbours]
        C_m = old.get(lo_s, 0.0 + 0.0j)
        C_p = old.get(hi_s, 0.0 + 0.0j)
        new[lo_s] = K_mm * C_m + K_mp * C_p
        new[hi_s] = K_pm * C_m + K_pp * C_p
    threshold = max(P_drop, AMPLITUDE_FLOOR)
    dropped = state.dropped
    kept: dict[int, complex] = {}
    for s, c in new.items():
        p = c.real * c.real + c.imag * c.imag
        if p < threshold:
            dropped += p
        else:
            kept[s] = c
    return SparseState(amplitudes=kept, L=state.L, t=state.t + pulse.tau,
                       dropped=dropped)


@dataclass
class RunReport:
    """Per-pulse diagnostics of a protocol run."""

    active_states: list[int] = field(default_factory=list)
    dropped_cumulative: list[float] = field(default_factory=list)
    wall_time: float = 0.0

    def max_active(self) -> int:
        return max(self.active_states) if self.active_states else 0


def run_protocol(initial: SparseState, seq: PulseSequence, params: ChainParams,
                 P_drop: float = 1e-6) -> tuple[SparseState, RunReport]:
    """Apply every pulse of a sequence in order, collecting diagnostics."""
    report = RunReport()
    t0 = time.perf_counter()
    state = initial
    for pulse in seq.pulses:
        state = apply_pulse(state, pulse, params, P_drop=P_drop)
        report.active_states.append(len(state.amplitudes))
        report.dropped_cumulative.append(state.dropped)
    report.wall_time = time.perf_counter() - t0
    return state, report


class Census(NamedTuple):
    """Unwanted-state tally of a run started from the all-zeros state."""

    count: int
    p1_total: float        # total probability of unwanted states >= threshold
    p1_target: float       # subset with target bit 0 = 1 and control bit L-1 = 0
    table: list[tuple[BasisState, float]]  # sorted by descending probability


def unwanted_census(final: SparseState, L: int | None = None,
                    threshold: float = 1e-6) -> Census:
    """Count and total the unwanted states left behind by the protocol.

    Reports every state with probability at or above the reporting
    threshold other than the two ideal gate outputs |0...0> and |10...01>,
    sorted by descending probability (ties broken by bitstring for
    reproducible output).  On a run started from |0...0> the target state
    carries no weight, so this reduces to counting everything but the
    ground state.
    """
    if L is None:
        L = final.L
    elif L != final.L:
        raise ValueError(f"census L={L} does not match state L={final.L}")
    rows = []
    p1 = 0.0
    p1cal = 0.0
    control_mask = 1 << (L - 1)
    target_bits = control_mask | 1
    for bits, c in final.amplitudes.items():
        if bits == 0 or bits == target_bits:
            continue
        p = c.real * c.real + c.imag * c.imag
        if p < threshold:
            continue
        rows.append((BasisState(bits, L), p))
        p1 += p
        if (bits & 1) and not (bits & control_mask):
            p1cal += p
    rows.sort(key=lambda item: (-item[1], str(item[0])))
    return Census(count=len(rows), p1_total=p1, p1_target=p1cal, table=rows)


def total_variation_distance(p: dict[int, float], q: dict[int, float]) -> float:
    """TVD between two probability maps over basis states, 1/2 sum |p - q|."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(s, 0.0) - q.get(s, 0.0)) for s in keys)
