"""Acceptance suite: one test per criterion, one printed line per sub-check.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Allowances of criteria 4 and 6.  The sums in `spinchain.analytics` are
first-order bookkeeping; the simulation is checked against them with an
allowance for the second-order terms they leave out.

* Per-pulse errors.  Pulse i of the N = 2L-3 pulses moves probability
  eps_i = epsilon(Omega, Delta_i, tau) off the ground state, with Delta_i
  from `ground_branch_detunings`: 2J on every pulse except the third,
  which sees 4J and errs with eps' (3.23e-5 against eps = 4.78e-5 at
  Omega = 0.0906).  To first order the unwanted total is

      P1_pp = sum_i eps_i * prod_{j<i} (1 - eps_j).

  The uniform-eps sum `p1_total(L, eps)` differs from P1_pp at first order
  by eps - eps' = 1.56e-5, so it is not the reference for P1.  Pulse 3
  seeds the target-unflipped family, so `p1_target(L, eps)` keeps its
  first-order value and stays the reference for P1cal.
* Second order.  The first-order state seeded at pulse i carries ~eps_i
  and, at each of the N - i later pulses, exchanges up to
  eps_max = max(eps, eps') of its weight with second-order states.
  Summed over the seeding pulses:

      |P1_numeric - P1_pp|               <= sum_{i=1}^{N} (N - i) eps_max^2
                                          = N(N-1)/2 * eps_max^2,
      |P1cal_numeric - p1_target(L,eps)| <= sum_{i in A} (N - i) eps_max^2
                                          = L(L-2) * eps_max^2,

  where A = {1, 2, 4, 6, ..., 2L-4} are the pulses that seed the
  target-flipped family.  Both residuals grow as L^2 eps^2; a bound linear
  in L cannot hold.  Measured over L = 4..100 at Omega = 0.0906 the worst
  ratios to these allowances are 0.49 (P1) and 0.48 (P1cal), both at
  L = 100, while the uniform-eps P1 sum misses its allowance by 680x at
  L = 4.
* Per state.  The same count for one first-order state gives
  eps * (1 + N * eps_max): the lid of the first-order band in criterion 6
  (1.408*eps at L = 70, Omega = 0.20844, where the top states reach
  1.166*eps).  It bounds the resonance map; the exact dense propagator
  adds neighbour-spin transitions of order (Omega/delta_omega)^2 per pulse
  that the map neglects by design.
"""

import cmath
import math

import numpy as np
import pytest

from spinchain.analytics import (
    epsilon,
    ground_branch_errors,
    n1,
    p1_target,
)
from spinchain.exact import DenseState, evolve_exact
from spinchain.model import BasisState, ChainParams
from spinchain.propagator import (
    SparseState,
    _unpack,
    run_protocol,
    unwanted_census,
)
from spinchain.protocol import cn_remote_protocol

from oracles import (
    census_table,
    cn_trajectory,
    first_order_states,
    ground_branch_detunings,
    pair_update,
    probability,
    suppression_rabi,
    total_variation_distance,
    two_level_ode,
)

P0 = 1e-6
OMEGA_FIG2 = 0.0906
OMEGA_FIG3 = 0.20844


def _check(failures: list, ok: bool, label: str, detail: str = "") -> None:
    print(f"  {'PASS' if ok else 'FAIL'} - {label}" + (f" ({detail})" if detail else ""))
    if not ok:
        failures.append(f"{label}: {detail}")


def _finish(criterion: str, failures: list) -> None:
    if failures:
        pytest.fail(f"{criterion}: " + "; ".join(failures), pytrace=False)


def _ground_run(L: int, Omega: float, P_drop: float):
    params = ChainParams(L=L)
    seq = cn_remote_protocol(params, Omega)
    return run_protocol(SparseState.from_basis(BasisState.ground(L)), seq,
                        params, P_drop=P_drop)


def test_criterion_1_epsilon_anchors():
    print("\nACCEPTANCE 1: single-pulse error anchors")
    failures = []
    tau = math.pi / OMEGA_FIG2
    for delta, ref, tol in ((2.0, 4.78e-5, 0.03), (4.0, 3.23e-5, 0.03)):
        got = epsilon(OMEGA_FIG2, delta, tau)
        _check(failures, abs(got - ref) <= tol * ref,
               f"eps(Omega={OMEGA_FIG2}, Delta={delta}) = {ref:g} within {tol:.0%}",
               f"got {got:.4e}")
    tau = math.pi / OMEGA_FIG3
    for delta, ref, tol in ((2.0, 2.98e-3, 0.01), (4.0, 2.41e-3, 0.01)):
        got = epsilon(OMEGA_FIG3, delta, tau)
        _check(failures, abs(got - ref) <= tol * ref,
               f"eps(Omega={OMEGA_FIG3}, Delta={delta}) = {ref:g} within {tol:.0%}",
               f"got {got:.4e}")
    _finish("criterion 1", failures)


def test_criterion_2_suppression_zeros_and_windows():
    print("\nACCEPTANCE 2: suppression points and double-suppression windows")
    failures = []
    worst = max(epsilon(suppression_rabi(d, k), d, math.pi / suppression_rabi(d, k))
                for d in (2.0, 4.0) for k in range(1, 21))
    _check(failures, worst < 1e-20,
           "eps at Omega_k = |Delta|/sqrt(4k^2-1) < 1e-20 for k=1..20",
           f"worst {worst:.2e}")
    # windows are the runs of grid points with max(eps, eps') < P0; each lies
    # strictly inside the grid points that bracket its run
    grid = np.linspace(0.02, 0.6, 2_000_000)
    below = np.maximum(*ground_branch_errors(grid, 1.0)) < P0
    edges = np.flatnonzero(np.diff(below.astype(np.int8), prepend=0, append=0))
    start, stop = edges[::2], edges[1::2]  # run i is below[start[i]:stop[i]]
    lo = grid[np.maximum(start - 1, 0)]
    hi = grid[np.minimum(stop, grid.size - 1)]
    _check(failures, start.size >= 1,
           "scan over Omega in (0.02, 0.6) finds windows with eps, eps' < P0",
           f"{start.size} windows")
    omega_50 = suppression_rabi(2.0, 50)
    _check(failures, bool(np.any((lo < omega_50) & (omega_50 < hi))),
           f"a window holds the k=50 zero Omega = {omega_50:.7f} near 0.02")
    rel_widths = (hi - lo) / (0.5 * (hi + lo))
    _check(failures, start.size and rel_widths.max() < 0.02,
           "every window width < 2% of Omega",
           f"widest {rel_widths.max():.3%}" if start.size else "none found")
    _finish("criterion 2", failures)


def test_criterion_3_unwanted_state_count():
    print("\nACCEPTANCE 3: unwanted-state census, eps1 < eps < eps2 regime")
    failures = []
    for L in (4, 10, 20, 50, 100):
        final, _ = _ground_run(L, OMEGA_FIG2, P_drop=1e-6)
        census = unwanted_census(final, threshold=P0)
        family_a, family_b = first_order_states(L)
        expect = {s.bits for s in family_a + family_b}
        got = {s.bits for s, _ in census_table(census, L)}
        count = len(census.probabilities)
        _check(failures, count == n1(L) and got == expect,
               f"L={L}: census = 2L-3 = {n1(L)} states, identities match",
               f"count {count}, identity {'ok' if got == expect else 'MISMATCH'}")
    _finish("criterion 3", failures)


def _per_pulse_first_order(L: int, Omega: float) -> float:
    """First-order unwanted total over the protocol's own per-pulse errors."""
    params = ChainParams(L=L)
    seq = cn_remote_protocol(params, Omega)
    tau = math.pi / Omega
    total, survive = 0.0, 1.0
    for delta in ground_branch_detunings(seq, params):
        eps_i = epsilon(Omega, delta, tau)
        total += eps_i * survive
        survive *= 1.0 - eps_i
    return total


def test_criterion_4_fig2_reproduction():
    print("\nACCEPTANCE 4: P1/P1cal sweep at Omega=0.0906 vs first-order sums")
    failures = []
    tau = math.pi / OMEGA_FIG2
    eps = epsilon(OMEGA_FIG2, 2.0, tau)
    eps_max = max(eps, epsilon(OMEGA_FIG2, 4.0, tau))
    rows_p1, rows_cal = [], []
    last = None
    for L in range(4, 101):
        final, _ = _ground_run(L, OMEGA_FIG2, P_drop=1e-6)
        census = unwanted_census(final, threshold=P0)
        n = n1(L)
        ref1 = _per_pulse_first_order(L, OMEGA_FIG2)
        allow1 = n * (n - 1) / 2 * eps_max**2
        ref2 = p1_target(L, eps)
        allow2 = L * (L - 2) * eps_max**2
        rows_p1.append((abs(census.p1_total - ref1) / allow1, L,
                        census.p1_total, ref1, allow1))
        rows_cal.append((abs(census.p1_target - ref2) / allow2, L,
                         census.p1_target, ref2, allow2))
        if L == 100:
            last = census
    ratio, L, got, ref, allow = max(rows_p1)
    _check(failures, ratio <= 1.0,
           "|P1_numeric - per-pulse sum| <= N(N-1)/2*eps_max^2 over L in [4,100]",
           f"worst {ratio:.3f}x at L={L}: P1_numeric {got:.6e}, "
           f"per-pulse sum {ref:.6e}, allowance {allow:.3e}")
    ratio, L, got, ref, allow = max(rows_cal)
    _check(failures, ratio <= 1.0,
           "|P1cal_numeric - exact sum| <= L(L-2)*eps_max^2 over L in [4,100]",
           f"worst {ratio:.3f}x at L={L}: P1cal_numeric {got:.6e}, "
           f"first-order sum {ref:.6e}, allowance {allow:.3e}")
    big_e = (2 * 100 - 3) * eps
    gamma = (100 - 2) * eps
    rel1 = abs(last.p1_total - big_e * (1 - big_e / 2)) / last.p1_total
    rel2 = abs(last.p1_target - gamma * (1 - gamma)) / last.p1_target
    _check(failures, rel1 <= 0.05,
           "E(1-E/2) tracks P1_numeric within 5% at L=100", f"{rel1:.2%}")
    _check(failures, rel2 <= 0.05,
           "Gamma(1-Gamma) tracks P1cal_numeric within 5% at L=100", f"{rel2:.2%}")
    _finish("criterion 4", failures)


def test_criterion_5_fig3_reproduction():
    print("\nACCEPTANCE 5: P1 sweep at Omega=0.20844 vs E(1-E/2) for E <= 0.5")
    failures = []
    eps = epsilon(OMEGA_FIG3, 2.0, math.pi / OMEGA_FIG3)
    worst = 0.0
    arg = 0
    for L in (4, 10, 20, 30, 40, 50, 60, 70, 85):
        big_e = (2 * L - 3) * eps
        assert big_e <= 0.5
        final, _ = _ground_run(L, OMEGA_FIG3, P_drop=1e-6)
        census = unwanted_census(final, threshold=P0)
        rel = abs(census.p1_total - big_e * (1 - big_e / 2)) / (big_e * (1 - big_e / 2))
        if rel > worst:
            worst, arg = rel, L
    _check(failures, worst <= 0.10,
           "P1_numeric within 10% of E(1-E/2) for E <= 0.5",
           f"worst {worst:.2%} at L={arg}")
    _finish("criterion 5", failures)


def test_criterion_6_fig4_bands():
    print("\nACCEPTANCE 6: per-state probability bands at L=70, Omega=0.20844")
    failures = []
    L = 70
    tau = math.pi / OMEGA_FIG3
    eps = epsilon(OMEGA_FIG3, 2.0, tau)
    eps_max = max(eps, epsilon(OMEGA_FIG3, 4.0, tau))
    lid = eps * (1 + n1(L) * eps_max)
    final, _ = _ground_run(L, OMEGA_FIG3, P_drop=1e-8)
    census = unwanted_census(final, threshold=1e-8)
    table = census_table(census, L)
    probs = [p for _, p in table]
    band1 = {s.bits for s, p in table if 0.2 * eps <= p <= lid}
    band2 = [p for p in probs if p < 10 * eps**2]
    between = [p for p in probs if 10 * eps**2 <= p < 0.2 * eps]
    family_a, family_b = first_order_states(L)
    expect = {s.bits for s in family_a + family_b}
    _check(failures, band1 == expect,
           f"band within [0.2*eps, {lid / eps:.3f}*eps] holds exactly the "
           f"2L-3 = {n1(L)} first-order states",
           f"{len(band1)} states, {len(band1 & expect)} of them first-order, "
           f"{sum(1 for p in probs if p > lid)} above the lid")
    _check(failures, 0.1 * L * L <= len(band2) <= L * L,
           "band below 10*eps^2 holds O(L^2) states",
           f"{len(band2)} states vs L^2 = {L * L}")
    _check(failures, not between,
           "bands are separated: nothing between 10*eps^2 and 0.2*eps",
           f"{len(between)} states in the gap")
    _check(failures, max(probs) <= lid,
           "no state exceeds eps*(1 + N*eps_max)",
           f"max {max(probs) / eps:.3f}*eps, lid {lid / eps:.3f}*eps")
    _finish("criterion 6", failures)


def test_criterion_7_oracle_equivalence():
    print("\nACCEPTANCE 7: sparse map vs exact propagator, and map vs ODE")
    failures = []
    for L in (3, 4, 5, 6):
        params = ChainParams(L=L)
        seq = cn_remote_protocol(params, OMEGA_FIG2)
        sparse, _ = run_protocol(SparseState.from_basis(BasisState.ground(L)),
                                 seq, params, P_drop=0.0)
        dense = evolve_exact(DenseState.from_sparse(SparseState.from_basis(BasisState.ground(L))),
                             seq, params)
        tvd = total_variation_distance(DenseState.from_sparse(sparse).probability_array(),
                                       dense.probability_array())
        _check(failures, tvd <= 1e-3,
               f"L={L}: TVD(resonance, exact) <= 1e-3 over the CN protocol",
               f"TVD {tvd:.2e}")
    worst = 0.0
    for ratio in (0.0, 0.5, 1.0, 2.0, 10.0):
        for area in (math.pi / 2, math.pi, 2 * math.pi, 5 * math.pi):
            for t0 in (0.0, 7.3):
                Omega, Delta, tau = 1.0, ratio, area
                for init in ((1.0, 0.0), (0.6 * cmath.exp(0.7j), 0.8 * cmath.exp(-1.9j))):
                    got = pair_update(*init, Delta, Omega, tau, t0)
                    ref = two_level_ode(*init, Delta, Omega, tau, t0)
                    worst = max(worst, abs(got[0] - ref[0]), abs(got[1] - ref[1]))
    _check(failures, worst <= 1e-8,
           "pair map matches two-level ODE integration to 1e-8 on the grid",
           f"worst component gap {worst:.2e}")
    _finish("criterion 7", failures)


def test_criterion_8_gate_correctness():
    """The 2L - 3 protocol is a CN on target-0 inputs, the paper's case:
    |10...0> goes to |10...01> and a control superposition splits.  It is no
    CN on target-1 inputs (test_protocol pins where those go)."""
    print("\nACCEPTANCE 8: resonant-branch transfer and entangled-input splitting")
    failures = []
    worst_p, arg = 1.0, 3
    for L in range(3, 101):
        params = ChainParams(L=L)
        seq = cn_remote_protocol(params, OMEGA_FIG2)
        traj = cn_trajectory(params)
        final, _ = run_protocol(SparseState.from_basis(traj[0]), seq, params, P_drop=0.0)
        p = probability(final, traj[-1])
        if p <= worst_p:
            worst_p, arg = p, L
    _check(failures, worst_p >= 1 - 1e-10,
           "|10...0> -> |10...01> with probability >= 1 - 1e-10 for all L <= 100",
           f"worst 1-p = {1 - worst_p:.2e} at L={arg}")

    # sub-eps1 regime: the k=50 zero of eps near Omega = 0.02, where
    # eps = 8.6e-32 and eps' = 3.5e-9
    omega = suppression_rabi(2.0, 50)
    alpha = beta = 1 / math.sqrt(2)
    for L, check_ground in ((10, True), (50, False)):
        params = ChainParams(L=L)
        seq = cn_remote_protocol(params, omega)
        initial = SparseState.from_amplitudes({0: alpha, 1 << (L - 1): beta}, L)
        final, _ = run_protocol(initial, seq, params, P_drop=0.0)
        target = BasisState((1 << (L - 1)) | 1, L)
        gap_t = abs(probability(final, target) - beta**2)
        _check(failures, gap_t <= 1e-8,
               f"L={L}: P(target) = |beta|^2 within 1e-8", f"gap {gap_t:.2e}")
        sector = sum(p for s, p in zip(_unpack(final.keys), final.probability_array().tolist())
                     if s >> (L - 1))
        gap_s = abs(sector - beta**2)
        _check(failures, gap_s <= 1e-8,
               f"L={L}: control-1 sector total = |beta|^2 within 1e-8",
               f"gap {gap_s:.2e}")
        if check_ground:
            gap_g = abs(probability(final, BasisState.ground(L)) - alpha**2)
            _check(failures, gap_g <= 1e-8,
                   f"L={L}: P(|0...0>) = |alpha|^2 within 1e-8 inside the window",
                   f"gap {gap_g:.2e}")
    _finish("criterion 8", failures)


def test_criterion_9_unitarity_at_scale():
    print("\nACCEPTANCE 9: probability conservation with pruning disabled")
    failures = []
    L = 100
    params = ChainParams(L=L)
    seq = cn_remote_protocol(params, OMEGA_FIG2)
    final, _ = run_protocol(SparseState.from_basis(BasisState(1 << (L - 1), L)),
                            seq, params, P_drop=0.0)
    total = final.total_probability()
    _check(failures, abs(total - 1.0) <= 1e-10,
           "|sum |C|^2 - 1| <= 1e-10 after 2L-3 pulses at L=100, P_drop=0",
           f"deviation {abs(total - 1.0):.2e}, floor ledger {final.dropped:.2e}")
    _check(failures, abs(total + final.dropped - 1.0) <= 1e-12,
           "probability plus dropped ledger is exactly unity",
           f"deviation {abs(total + final.dropped - 1.0):.2e}")
    _finish("criterion 9", failures)
