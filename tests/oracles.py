"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way, on separate
code paths from the package (explicit bit lists, quadrature-grade ODE
integration), so agreement is evidence rather than tautology.

The last few helpers are not oracles but views of the package under test
that only the tests need: the package's own pair map for one pulse
(`pair_map`, `pair_update`), a one-pulse run (`run_pulse`) and one basis
state's probability (`probability`).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from spinchain.analytics import error_budget
from spinchain.model import BasisState, ChainParams, flip_gap
from spinchain.propagator import (
    AMPLITUDE_FLOOR,
    SparseState,
    _pair_maps,
    _rotation,
    resonant_spin,
    run_protocol,
)
from spinchain.protocol import PulseSequence, cn_remote_protocol


def bits_of(state: int, L: int) -> list[int]:
    return [(state >> k) & 1 for k in range(L)]


def energy_bruteforce(state: int, L: int, J: float, omega0: float,
                      delta_omega: float) -> float:
    """Diagonal chain energy from an explicit bit list."""
    m = [0.5 if b == 0 else -0.5 for b in bits_of(state, L)]
    omegas = [omega0 + k * delta_omega for k in range(L)]
    zeeman = -sum(w * mk for w, mk in zip(omegas, m))
    ising = -2.0 * J * sum(m[k] * m[k + 1] for k in range(L - 1))
    return zeeman + ising


def two_level_ode(C_m: complex, C_p: complex, Delta: float, Omega: float,
                  tau: float, t_start: float) -> tuple[complex, complex]:
    """High-accuracy integration of the cross-coupled pair equations

        i dC_m/dt = -(Omega/2) e^{-i Delta t} C_p
        i dC_p/dt = -(Omega/2) e^{+i Delta t} C_m
    """

    def rhs(t, y):
        cm = y[0] + 1j * y[1]
        cp = y[2] + 1j * y[3]
        dcm = 1j * (Omega / 2.0) * np.exp(-1j * Delta * t) * cp
        dcp = 1j * (Omega / 2.0) * np.exp(1j * Delta * t) * cm
        return [dcm.real, dcm.imag, dcp.real, dcp.imag]

    y0 = [C_m.real, C_m.imag, C_p.real, C_p.imag]
    sol = solve_ivp(rhs, (t_start, t_start + tau), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=False)
    assert sol.success
    y = sol.y[:, -1]
    return complex(y[0], y[1]), complex(y[2], y[3])


def chain_ode(C: np.ndarray, pulse, params, t_start: float) -> np.ndarray:
    """High-accuracy integration of all 2^L interaction-picture amplitudes
    through one pulse,

        i dC_p/dt = -(Omega/2) sum_k e^{i(E_p - E_m) t - i sgn(E_p - E_m) nu t} C_m,

    with m = p XOR 2^k and energies from `energy_bruteforce`.  Only the
    co-rotating term of each coupling appears, which is exact for the
    circularly polarised drive.
    """
    L = params.L
    E = np.array([energy_bruteforce(s, L, params.J, params.omega0, params.delta_omega)
                  for s in range(1 << L)])
    p = np.repeat(np.arange(1 << L), L)
    m = p ^ np.tile(1 << np.arange(L), 1 << L)
    gap = E[p] - E[m]
    rate = gap - np.sign(gap) * pulse.nu

    def rhs(t, y):
        terms = 1j * (pulse.Omega / 2.0) * np.exp(1j * rate * t) * y[m]
        return terms.reshape(-1, L).sum(axis=1)

    sol = solve_ivp(rhs, (t_start, t_start + pulse.tau), C, method="DOP853",
                    rtol=1e-12, atol=1e-14)
    assert sol.success
    return sol.y[:, -1]


def pair_map_closed_form(Delta: float, Omega: float, tau: float,
                         t_start: float) -> tuple[complex, complex]:
    """The published closed-form pi-pulse map for initial (C_m, C_p) = (1, 0)."""
    lam = np.sqrt(Omega**2 + Delta**2)
    half = lam * tau / 2.0
    cm = (np.cos(half) + 1j * (Delta / lam) * np.sin(half)) * np.exp(-1j * tau * Delta / 2.0)
    cp = 1j * (Omega / lam) * np.sin(half) * np.exp(1j * t_start * Delta + 1j * tau * Delta / 2.0)
    return complex(cm), complex(cp)


def pair_coefficients_scalar(Delta: float, Omega: float, tau: float,
                             t_start: float) -> tuple[complex, complex, complex, complex]:
    """(K_mm, K_mp, K_pm, K_pp) of the pair map over one pulse from t_start,
    one pulse at a time in Python complex arithmetic.

    This is the scalar map that the planned array tables replaced, kept as
    their bitwise reference: the package's `_pair_maps` writes the same
    products out in real array arithmetic, and must round every one of them
    the same way.
    """
    lam = math.hypot(Omega, Delta)
    if lam == 0.0:
        u, v, w = 1.0, 0.0, 0.0
    else:
        half = 0.5 * lam * tau
        s = math.sin(half)
        u, v, w = math.cos(half), Delta / lam * s, Omega / lam * s
    ph = complex(math.cos(0.5 * Delta * tau), -math.sin(0.5 * Delta * tau))
    rot_m, cross, rot_p = ph * complex(u, v), ph * 1j * w, ph * complex(u, -v)
    t1 = t_start + tau
    e0 = complex(math.cos(Delta * t_start), -math.sin(Delta * t_start))
    e1 = complex(math.cos(Delta * t1), math.sin(Delta * t1))
    return (rot_m, cross * e0, cross * e1, rot_p * e0 * e1)


def pair_table_scalar(pulse, params, t_start: float) -> np.ndarray:
    """(2, 8) pair table of one pulse from `pair_coefficients_scalar`:
    column b_{k-1} + 2 b_k + 4 b_{k+1} holds what a state of unit amplitude
    adds to its pair's lower and upper amplitude."""
    k = resonant_spin(pulse.nu, params)
    table = np.empty((2, 8), dtype=np.complex128)
    for code in range(8):
        below, bit, above = code & 1, (code >> 1) & 1, code >> 2
        # the neighbour pattern as a state of the chain, bit k clear
        pattern = (below << k >> 1) | (above << (k + 1) & ((1 << params.L) - 1))
        K = pair_coefficients_scalar(flip_gap(pattern, k, params) - pulse.nu,
                                     pulse.Omega, pulse.tau, t_start)
        table[:, code] = (K[1], K[3]) if bit else (K[0], K[2])
    return table


def apply_pulse_dict(amplitudes: dict[int, complex], t: float, pulse, params,
                     P_drop: float) -> tuple[dict[int, complex], float]:
    """One pulse of the sparse resonance map on a {packed state: amplitude}
    dict, one flip pair at a time; returns (kept amplitudes, dropped).

    This is the dict loop that the array kernel
    `spinchain.propagator.apply_pulse` replaced, kept as its reference.  It
    takes the pair map from `pair_coefficients_scalar` and the flip gap from
    the package, so agreement checks the kernel's grouping into flip pairs,
    its choice of map by the neighbour bits and its pruning.
    """
    k = resonant_spin(pulse.nu, params)
    mask = 1 << k
    below = mask >> 1
    above = (mask << 1) & ((1 << params.L) - 1)
    neighbours = below | above
    maps = {
        pattern: pair_coefficients_scalar(flip_gap(pattern, k, params) - pulse.nu,
                                          pulse.Omega, pulse.tau, t)
        for pattern in {0, below, above, neighbours}
    }
    new: dict[int, complex] = {}
    for s in amplitudes:
        q = s ^ mask
        if q < s and q in amplitudes:
            continue  # pair already handled from its partner
        lo_s = s & ~mask
        hi_s = lo_s | mask
        K_mm, K_mp, K_pm, K_pp = maps[s & neighbours]
        C_m = amplitudes.get(lo_s, 0.0 + 0.0j)
        C_p = amplitudes.get(hi_s, 0.0 + 0.0j)
        new[lo_s] = K_mm * C_m + K_mp * C_p
        new[hi_s] = K_pm * C_m + K_pp * C_p
    threshold = max(P_drop, AMPLITUDE_FLOOR)
    dropped = 0.0
    kept: dict[int, complex] = {}
    for s, c in new.items():
        p = c.real * c.real + c.imag * c.imag
        if p < threshold:
            dropped += p
        else:
            kept[s] = c
    return kept, dropped


def census_bitstring(final, threshold: float):
    """(count, p1_total, p1_target, table) of the unwanted states at or above
    `threshold`, one Python int at a time.

    This is the census that the array census `unwanted_census` replaced:
    every state but |0...0> and |10...01>, sorted by descending probability
    with ties broken by bitstring; the totals are `math.fsum`s.
    """
    L = final.L
    control_mask = 1 << (L - 1)
    target_bits = control_mask | 1
    rows = [(BasisState(bits, L), q)
            for bits, q in zip(final.states(), final.probability_array().tolist())
            if q >= threshold and bits != 0 and bits != target_bits]
    rows.sort(key=lambda item: (-item[1], str(item[0])))
    p1 = math.fsum(q for _, q in rows)
    p1cal = math.fsum(q for state, q in rows
                      if (state.bits & 1) and not (state.bits & control_mask))
    return len(rows), p1, p1cal, rows


def sweep_length_per_run(lengths, Omega: float, P_drop: float, P0: float,
                         **fields) -> list[list[str]]:
    """`sweep_length.csv` rows as read back from the file, from one protocol
    run and one bitstring census per chain length: the sweep as it was
    before `sweep-length` took every length from one run of the longest."""
    rows = []
    for L in lengths:
        params = ChainParams(L=L, **fields)
        final, _ = run_protocol(SparseState.from_basis(BasisState.ground(L)),
                                cn_remote_protocol(params, Omega), params, P_drop=P_drop)
        count, p1, p1cal, _ = census_bitstring(final, P0)
        budget = error_budget(L, Omega, J=params.J, P0=P0)
        rows.append([str(L), repr(budget.P1), repr(p1), repr(budget.P1cal), repr(p1cal),
                     str(count)])
    return rows


def pair_map(Delta: float, Omega: float, tau: float,
             t_start: float) -> tuple[complex, complex, complex, complex]:
    """(K_mm, K_mp, K_pm, K_pp) of the package's own pair map over one pulse
    from t_start: `_rotation` and `_pair_maps`, as a run's plan evaluates
    them, for a single pulse."""
    K = _pair_maps(np.array([_rotation(Delta, Omega, tau)]), np.array([Delta]),
                   t_start, t_start + tau)
    return tuple(K[0].tolist())


def pair_update(C_m: complex, C_p: complex, Delta: float, Omega: float,
                tau: float, t_start: float) -> tuple[complex, complex]:
    """One flip pair (C_m lower, C_p upper, Delta = E_p - E_m - nu) through
    one pulse under the package's pair map."""
    K_mm, K_mp, K_pm, K_pp = pair_map(Delta, Omega, tau, t_start)
    return K_mm * C_m + K_mp * C_p, K_pm * C_m + K_pp * C_p


def run_pulse(state: SparseState, pulse, params, P_drop: float) -> SparseState:
    """`state` after one pulse, through `run_protocol` on a one-pulse
    sequence: planned from state.t, with the norm ledger checked."""
    final, _ = run_protocol(state, PulseSequence(pulses=(pulse,)), params, P_drop=P_drop)
    return final


def probability(state: SparseState, basis: BasisState | int) -> float:
    """|C|^2 of one basis state (a BasisState or a packed int) of a sparse
    state, 0 where it is not active."""
    bits = basis.bits if isinstance(basis, BasisState) else basis
    return dict(zip(state.states(), state.probability_array().tolist())).get(bits, 0.0)
