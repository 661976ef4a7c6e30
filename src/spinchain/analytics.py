"""Closed-form error theory for the remote-CN protocol.

A pi-pulse detuned by Delta transfers the off-resonant pair with
probability

    eps(Omega, Delta) = (Omega/lam)^2 sin^2(lam*tau/2),   lam = sqrt(Omega^2+Delta^2),

which vanishes identically at Omega = |Delta|/sqrt(4k^2-1): there the
detuned pair completes k full precession cycles during the pulse.  On the
all-zeros branch the protocol sees |Delta| = 2J on every pulse except the
third, which sees 4J; eps refers to the generic 2J value and eps' to the
third-pulse 4J value throughout.

First-order bookkeeping: each of the 2L-3 pulses seeds one unwanted state
from the ground state, giving the two terminal families (runs of 1s ending
at the target bit 0, and runs ending at bit 1) and the totals

    P1  = eps * sum_{n=0}^{2L-4} (1 - n*eps)      ~  E(1 - E/2),  E = (2L-3) eps
    P1' = eps + eps * sum_{n=0}^{L-3} (1 - (2n+1) eps)  ~  G(1 - G),  G = (L-2) eps

(P1' counting only the target-flipped family).  The exact sums are primary;
the quadratic approximations are what gets plotted against sweeps.

Regime thresholds against a measurability floor P0: first-order states are
visible above eps1 = P0, second-order above eps2 = sqrt(P0), third-order
above eps3 = P0^(1/3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .model import BasisState


def epsilon(Omega: float, Delta: float, tau: float) -> float:
    """Non-resonant transfer probability of one pulse at detuning Delta."""
    lam = math.hypot(Omega, Delta)
    if lam == 0.0:
        return 0.0
    s = math.sin(0.5 * lam * tau)
    return (Omega / lam) ** 2 * s * s


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


def n1(L: int) -> int:
    """Number of first-order unwanted states, one per pulse: 2L-3."""
    if L < 3:
        raise ValueError(f"remote-CN protocol needs L >= 3, got {L}")
    return 2 * L - 3


def first_order_states(L: int) -> tuple[list[BasisState], list[BasisState]]:
    """The two terminal families of first-order unwanted states.

    Family A (target bit 0 flipped): a single run of 1s extending down to
    bit 0, run length 1..L-1.  Family B (target unflipped): a run of 1s
    ending at bit 1, run length 1..L-2.  Sizes L-1 and L-2, totalling 2L-3.
    """
    if L < 3:
        raise ValueError(f"remote-CN protocol needs L >= 3, got {L}")
    family_a = [BasisState((1 << r) - 1, L) for r in range(1, L)]
    family_b = [BasisState(((1 << r) - 1) << 1, L) for r in range(1, L - 1)]
    return family_a, family_b


class P1Estimate(NamedTuple):
    exact: float
    approx: float


def p1_total(L: int, eps: float) -> P1Estimate:
    """Total first-order unwanted probability after the full protocol.

    Exact first-order sum eps * sum_{n=0}^{2L-4} (1 - n*eps) alongside the
    closed approximation E(1 - E/2), E = (2L-3) eps.  Both are uniform-eps
    sums: every pulse is taken to err with eps.  The protocol's third pulse
    errs with eps' instead, so its own per-pulse first-order total
    sum_i eps_i prod_{j<i} (1 - eps_j) differs from this one by eps - eps'
    at first order.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be a probability, got {eps}")
    if L < 3:
        raise ValueError(f"remote-CN protocol needs L >= 3, got {L}")
    exact = eps * sum(1.0 - n * eps for n in range(2 * L - 3))
    big_e = (2 * L - 3) * eps
    return P1Estimate(exact=exact, approx=big_e * (1.0 - 0.5 * big_e))


def p1_target(L: int, eps: float) -> P1Estimate:
    """Probability of ending with the target flipped while the control is 0.

    Exact sum eps + eps * sum_{n=0}^{L-3} (1 - (2n+1) eps) over the
    target-flipped family, with approximation G(1-G), G = (L-2) eps.  A
    uniform-eps sum like `p1_total`; here that is exact at first order,
    since the third pulse (error eps') seeds the target-unflipped family.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be a probability, got {eps}")
    if L < 3:
        raise ValueError(f"remote-CN protocol needs L >= 3, got {L}")
    exact = eps + eps * sum(1.0 - (2 * n + 1) * eps for n in range(L - 2))
    gamma = (L - 2) * eps
    return P1Estimate(exact=exact, approx=gamma * (1.0 - gamma))


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


def u3_table(eps: float, eps_prime: float) -> list[tuple[str, float]]:
    """Estimated state populations right after the third protocol pulse.

    Four patterns, written control-first with trailing zeros elided; the
    rows sum to 1 identically for any eps, eps' in [0, 1].
    """
    if not 0.0 <= eps <= 1.0 or not 0.0 <= eps_prime <= 1.0:
        raise ValueError("eps and eps_prime must be probabilities")
    return [
        ("0000...", (1.0 - eps) ** 2 * (1.0 - eps_prime)),
        ("0100...", eps_prime * (1.0 - eps) ** 2),
        ("0010...", eps * (1.0 - eps + eps * eps)),
        ("0110...", eps * (1.0 - eps * eps)),
    ]


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


def error_budget(L: int, Omega: float, J: float = 1.0, P0: float = 1e-6) -> ErrorBudget:
    """Evaluate the full analytic budget for a pi-pulse protocol at (L, Omega).

    eps is evaluated at |Delta| = 2J and eps' at |Delta| = 4J, matching the
    detunings the protocol produces on the all-zeros branch.
    """
    tau = math.pi / Omega
    eps = epsilon(Omega, 2.0 * J, tau)
    eps_prime = epsilon(Omega, 4.0 * J, tau)
    return ErrorBudget(
        L=L,
        Omega=Omega,
        eps=eps,
        eps_prime=eps_prime,
        N1=n1(L),
        P1=p1_total(L, eps).exact,
        P1cal=p1_target(L, eps).exact,
        E=(2 * L - 3) * eps,
        Gamma=(L - 2) * eps,
        regime=regime(eps, P0),
    )


def suppression_windows(P0: float, omega_lo: float = 0.02, omega_hi: float = 0.6,
                        samples: int = 200_000) -> list[tuple[float, float]]:
    """Omega intervals where a pi-pulse is errorless to floor P0 at both
    protocol detunings, 2J and 4J (J = 1), simultaneously.

    Located by a dense scan and refined by bisection on the window edges;
    the returned (lo, hi) pairs bracket max(eps, eps') < P0.
    """
    import numpy as np

    def worst(om):
        tau = math.pi / om
        return max(epsilon(om, 2.0, tau), epsilon(om, 4.0, tau))

    grid = np.linspace(omega_lo, omega_hi, samples)
    below = [worst(om) < P0 for om in grid.tolist()]
    windows = []
    i = 0
    while i < grid.size:
        if not below[i]:
            i += 1
            continue
        j = i
        while j + 1 < grid.size and below[j + 1]:
            j += 1
        lo = _bisect_edge(worst, P0, grid[max(i - 1, 0)], grid[i], rising=False) \
            if i > 0 else grid[0]
        hi = _bisect_edge(worst, P0, grid[j], grid[min(j + 1, grid.size - 1)], rising=True) \
            if j + 1 < grid.size else grid[-1]
        windows.append((lo, hi))
        i = j + 1
    return windows


def _bisect_edge(worst, P0: float, a: float, b: float, rising: bool) -> float:
    """Bisect the crossing of worst(Omega) = P0 inside [a, b] in 60 halvings."""
    for _ in range(60):
        mid = 0.5 * (a + b)
        inside = worst(mid) < P0
        if inside == rising:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
