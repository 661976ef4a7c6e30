"""Closed-form error theory for the remote-CN protocol.

A pi-pulse detuned by Delta transfers the off-resonant pair with
probability

    eps(Omega, Delta) = (Omega/lam)^2 sin^2(lam*tau/2),   lam = sqrt(Omega^2+Delta^2),

which vanishes identically at Omega = |Delta|/sqrt(4k^2-1): there the
detuned pair completes k full precession cycles during the pulse.  On the
all-zeros branch the protocol sees |Delta| = 2J on every pulse except the
third, which sees 4J; eps refers to the generic 2J value and eps' to the
third-pulse 4J value throughout, both from `ground_branch_errors` (of a float
or a grid of Omegas), and `sweep-omega`'s below_P0 marks where both are < P0.

First-order bookkeeping: each of the 2L-3 pulses seeds one unwanted state
from the ground state, giving the two terminal families (runs of 1s ending
at the target bit 0, and runs ending at bit 1) and the totals

    P1  = eps * sum_{n=0}^{2L-4} (1 - n*eps)      ~  E(1 - E/2),  E = (2L-3) eps
    P1' = eps + eps * sum_{n=0}^{L-3} (1 - (2n+1) eps)  ~  G(1 - G),  G = (L-2) eps

(P1' counting only the target-flipped family).  `p1_total` and `p1_target`
return the sums, also per entry of an int array L, each the float of an
in-order loop (`np.cumsum`); `budgets.csv` carries E and Gamma beside them.

Regime thresholds against a measurability floor P0: first-order states are
visible above eps1 = P0, second-order above eps2 = sqrt(P0), third-order
above eps3 = P0^(1/3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def epsilon(Omega, Delta, tau):
    """Non-resonant transfer probability of one pulse of Rabi frequency
    Omega > 0 at detuning Delta, per entry of arrays (a float for floats)."""
    lam = np.hypot(Omega, Delta)
    c, s = Omega / lam, np.sin(0.5 * lam * tau)
    eps = c * c * s * s
    return eps if eps.ndim else float(eps)


def ground_branch_errors(Omega, J: float):
    """(eps, eps') of a pi-pulse at Rabi frequency Omega > 0 (a float or an
    array) on the all-zeros branch: the errors at detunings 2J and 4J."""
    tau = np.pi / Omega
    return epsilon(Omega, 2.0 * J, tau), epsilon(Omega, 4.0 * J, tau)


def suppression_rabi(Delta: float, k: int) -> float:
    """k-th Rabi frequency at which a pi-pulse detuned by Delta is errorless,

    Omega_k = |Delta| / sqrt(4k^2 - 1): the detuned pair then precesses
    through exactly k full cycles while the resonant pair does half a turn.
    """
    if k < 1:
        raise ValueError(f"cycle index must be a positive integer, got {k}")
    if Delta == 0.0:
        raise ValueError("suppression is defined for nonzero detuning only")
    return abs(Delta) / math.sqrt(4.0 * k * k - 1.0)


def n1(L):
    """Number of first-order unwanted states, one per pulse: 2L-3 (per entry of an int array)."""
    if np.min(L) < 3:
        raise ValueError(f"remote-CN protocol needs L >= 3, got {np.min(L)}")
    return 2 * L - 3


def _partial_sums(eps: float, coefficients: np.ndarray, counts):
    """eps * sum (1 - c eps) over the first `counts` (int or int array) coefficients c."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be a probability, got {eps}")
    sums = eps * np.cumsum(1.0 - coefficients * eps)[counts - 1]
    return sums if sums.ndim else float(sums)


def p1_total(L, eps: float):
    """Total first-order unwanted probability after the full protocol.

    The first-order sum eps * sum_{n=0}^{2L-4} (1 - n*eps), about E(1 - E/2)
    with E = (2L-3) eps.  A uniform-eps sum: every pulse is taken to err
    with eps.  The protocol's third pulse errs with eps' instead, so its
    own per-pulse first-order total sum_i eps_i prod_{j<i} (1 - eps_j)
    differs from this one by eps - eps' at first order.
    """
    N = n1(L)
    return _partial_sums(eps, np.arange(np.max(N)), N)


def p1_target(L, eps: float):
    """Probability of ending with the target flipped while the control is 0.

    The sum eps + eps * sum_{n=0}^{L-3} (1 - (2n+1) eps) over the
    target-flipped family, about G(1-G) with G = (L-2) eps.  A
    uniform-eps sum like `p1_total`; here that is exact at first order,
    since the third pulse (error eps') seeds the target-unflipped family.
    """
    n1(L)  # the protocol's L >= 3 rule
    return eps + _partial_sums(eps, np.arange(1, 2 * np.max(L) - 4, 2), L - 2)


def regime(eps: float, P0: float) -> str:
    """Classify eps against the visibility thresholds of the floor P0.

    eps1 = P0, eps2 = sqrt(P0), eps3 = P0^(1/3); boundary values fall in
    the lower regime.
    """
    if not 0.0 < P0 < 1.0:
        raise ValueError(f"P0 must be in (0, 1), got {P0}")
    eps1 = P0
    eps2 = math.sqrt(P0)
    eps3 = P0 ** (1.0 / 3.0)
    if eps <= eps1:
        return "below-eps1"
    if eps <= eps2:
        return "eps1-eps2"
    if eps <= eps3:
        return "eps2-eps3"
    return "above-eps3"


@dataclass(frozen=True)
class ErrorBudget:
    """Analytic error budget of one (L, Omega) operating point.

    P1 and P1cal are the uniform-eps sums `p1_total` and `p1_target`.  P1
    differs from the protocol's per-pulse first-order total by eps - eps'
    (the third pulse errs with eps'); P1cal is unaffected.
    """

    L: int
    Omega: float
    eps: float
    eps_prime: float
    N1: int
    P1: float
    P1cal: float
    E: float
    Gamma: float
    regime: str


def error_budget(lengths, Omega: float, J: float = 1.0,
                 P0: float = 1e-6) -> list[ErrorBudget]:
    """The analytic budget at Omega of each of a non-empty sequence of chain
    lengths, with eps and eps' the `ground_branch_errors` at (Omega, J)."""
    eps, eps_prime = ground_branch_errors(Omega, J)
    L, kind = np.asarray(lengths), regime(eps, P0)
    return [ErrorBudget(L=length, Omega=Omega, eps=eps, eps_prime=eps_prime, N1=N, P1=P1,
                        P1cal=P1cal, E=(2 * length - 3) * eps, Gamma=(length - 2) * eps,
                        regime=kind)
            for length, N, P1, P1cal in zip(L.tolist(), n1(L).tolist(),
                                            p1_total(L, eps).tolist(), p1_target(L, eps).tolist())]
