"""Quantum logic on an Ising nuclear-spin chain driven by rf pulses.

Builds the remote controlled-NOT pulse protocol, a CN on inputs whose
target qubit is 0 (the paper's case), propagates states either sparsely
(two-level resonance map, polynomial in chain length) or exactly (full
Hilbert space, small chains), and evaluates the closed-form error theory
for non-resonant transitions.

The package root exports nothing: import each name from the module that
defines it (model, protocol, propagator, exact, analytics, cli).
"""
