"""Quantum logic on an Ising nuclear-spin chain driven by rf pulses.

Builds the remote controlled-NOT pulse protocol, propagates states either
sparsely (two-level resonance map, polynomial in chain length) or exactly
(full Hilbert space, small chains), and evaluates the closed-form error
theory for non-resonant transitions.
"""

from .model import BasisState, ChainParams, energy, larmor_frequency, transition_frequency
from .protocol import Pulse, PulseSequence, cn_remote_protocol, cn_trajectory, ground_branch_detunings
from .propagator import (
    AMPLITUDE_FLOOR,
    Census,
    RunReport,
    SparseState,
    apply_pulse,
    pair_update,
    resonant_spin,
    run_protocol,
    total_variation_distance,
    unwanted_census,
)
from .exact import HILBERT_CAP, DenseState, evolve_exact, integrate_tdse, rotating_frame_generator
from .analytics import (
    ErrorBudget,
    epsilon,
    error_budget,
    first_order_states,
    n1,
    p1_target,
    p1_total,
    regime,
    suppression_rabi,
    suppression_windows,
    u3_table,
)

__all__ = [
    "AMPLITUDE_FLOOR",
    "BasisState",
    "Census",
    "ChainParams",
    "DenseState",
    "ErrorBudget",
    "HILBERT_CAP",
    "Pulse",
    "PulseSequence",
    "RunReport",
    "SparseState",
    "apply_pulse",
    "cn_remote_protocol",
    "cn_trajectory",
    "energy",
    "epsilon",
    "error_budget",
    "evolve_exact",
    "first_order_states",
    "ground_branch_detunings",
    "integrate_tdse",
    "larmor_frequency",
    "n1",
    "p1_target",
    "p1_total",
    "pair_update",
    "regime",
    "resonant_spin",
    "rotating_frame_generator",
    "run_protocol",
    "suppression_rabi",
    "suppression_windows",
    "total_variation_distance",
    "transition_frequency",
    "u3_table",
    "unwanted_census",
]

__version__ = "0.1.0"
