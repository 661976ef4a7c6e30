"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way, on separate
code paths from the package (explicit bit lists, quadrature-grade ODE
integration), so agreement is evidence rather than tautology.

The last few helpers are not oracles but views of the package under test
that only the tests need: the suppression zeros of eps (`suppression_rabi`),
the all-zeros branch's detuning under each pulse, signed and as a
magnitude (`ground_branch_signed_detunings`, `ground_branch_detunings`),
the package's own pair map for one pulse (`pair_map`, `pair_update`), its
rotation factor of |0...0> under each pulse and their summed phase
(`ground_branch_rotations`, `ground_branch_phase`), a one-pulse run
(`run_pulse`), one basis state's probability (`probability`), the total
variation distance of two dense probability arrays
(`total_variation_distance`), a census as sorted rows (`census_table`), the
first-order state families (`first_order_states`), the populations after
pulse 3 (`u3_table`), one bit of a basis state or its single flip (`bit`,
`flipped`), and a sequence of `Pulse` records (`sequence`).
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import solve_ivp

from spinchain.analytics import error_budget, n1
from spinchain.model import BasisState, ChainParams, flip_gap
from spinchain.propagator import (
    AMPLITUDE_FLOOR,
    Census,
    SparseState,
    _pair_maps,
    _unpack,
    resonant_spin,
    run_protocol,
)
from spinchain.protocol import Pulse, PulseSequence, cn_remote_protocol


def flip_gap_scalar(bits: int, k: int, params: ChainParams) -> float:
    """E(bit k set) - E(bit k cleared) of the flip pair containing the packed
    state `bits`, from its neighbour bits one Python int at a time.

    This is the packed-int form that `spinchain.model.flip_gap` dropped,
    kept as its bitwise reference: the same float operations in the same
    order, so the array form must give the same bits.
    """
    below = (bits >> k - 1) & 1 if k else 0
    above = (bits >> k + 1) & 1
    g = params.omega0 + k * params.delta_omega
    g = g + 2.0 * params.J * (0.5 - below) * (k > 0)
    return g + 2.0 * params.J * (0.5 - above) * (k < params.L - 1)


def cn_trajectory(params: ChainParams) -> list[BasisState]:
    """Control-branch state path of the remote-CN protocol, 2L-2 states,
    one Python int at a time.

    Starts at |10...0>, ends at |10...01>; adjacent states differ in
    exactly one bit: first qubit L-2, then for j = L-3 down to 0 qubit j
    and qubit j+1.
    """
    L = params.L
    if L < 3:
        raise ValueError(f"remote-CN protocol needs L >= 3, got L={L}")
    bits = 1 << (L - 1)
    path = [bits]
    bits ^= 1 << (L - 2)
    path.append(bits)
    for j in range(L - 3, -1, -1):
        bits ^= 1 << j
        path.append(bits)
        bits ^= 1 << (j + 1)
        path.append(bits)
    return [BasisState(b, L) for b in path]


def cn_carriers_scalar(params: ChainParams) -> tuple[list[float], list[int], list[BasisState]]:
    """(carriers, flip qubits, trajectory) of the remote-CN protocol, one
    pulse at a time: each carrier the `flip_gap_scalar` of its flip on the
    branch state before it, each flip qubit read off two adjacent states."""
    traj = cn_trajectory(params)
    flips = [(a.bits ^ b.bits).bit_length() - 1 for a, b in zip(traj, traj[1:])]
    return [flip_gap_scalar(a.bits, k, params) for a, k in zip(traj, flips)], flips, traj


def classical_orbit(seq: PulseSequence, params: ChainParams, start: int) -> dict[int, int]:
    """The states the pair map can reach from the packed state `start`,
    each with the fewest off-resonant flips that reach it, one Python int
    at a time.

    At each pulse of `seq`, a remote-CN sequence, on the qubit that the
    reference `cn_carriers_scalar` flips there, a state whose
    `flip_gap_scalar` equals the carrier must flip (a resonant pi pulse
    flips with certainty); any other state may stay, or take one
    off-resonant flip, which the pass counts.
    """
    orbit = {start: 0}
    for nu, k in zip(seq.nu.tolist(), cn_carriers_scalar(params)[1], strict=True):
        reached: dict[int, int] = {}
        for state, flips in orbit.items():
            if flip_gap_scalar(state, k, params) == nu:
                moves = [(state ^ (1 << k), flips)]
            else:
                moves = [(state, flips), (state ^ (1 << k), flips + 1)]
            for after, n in moves:
                reached[after] = min(n, reached.get(after, n))
        orbit = reached
    return orbit


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
        K = pair_coefficients_scalar(flip_gap_scalar(pattern, k, params) - pulse.nu,
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
    `flip_gap_scalar`, so agreement checks the kernel's grouping into flip
    pairs, its choice of map by the neighbour bits and its pruning.
    """
    k = resonant_spin(pulse.nu, params)
    mask = 1 << k
    below = mask >> 1
    above = (mask << 1) & ((1 << params.L) - 1)
    neighbours = below | above
    maps = {
        pattern: pair_coefficients_scalar(flip_gap_scalar(pattern, k, params) - pulse.nu,
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
            for bits, q in zip(_unpack(final.keys), final.probability_array().tolist())
            if q >= threshold and bits != 0 and bits != target_bits]
    # ties by bitstring, which at one L is by packed value
    rows.sort(key=lambda item: (-item[1], item[0].bits))
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
        budget = error_budget([L], Omega, J=params.J, P0=P0)
        [P1], [P1cal] = budget["P1"], budget["P1cal"]
        rows.append([str(L), repr(P1), repr(p1), repr(P1cal), repr(p1cal), str(count)])
    return rows


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


def ground_branch_signed_detunings(seq: PulseSequence, params: ChainParams) -> list[float]:
    """Detuning Delta = E_p - E_m - nu of the all-zeros state's flip pair
    under each pulse of `seq`, a remote-CN sequence: the `flip_gap` of
    |0...0> at the qubit that the reference `cn_carriers_scalar` flips
    there, less the pulse's carrier.

    The all-zeros branch never moves at leading order, so each pulse is
    compared against the spacing for flipping its qubit out of |0...0>.
    For the CN protocol this is 2J for every pulse except the third, which
    is 4J.  The gate phase is odd in Delta, so it needs the sign.
    """
    if len(seq) != 2 * params.L - 3:
        raise ValueError(f"sequence has {len(seq)} pulses, the remote CN of "
                         f"L={params.L} has 2L-3 pulses")
    flips = np.array(cn_carriers_scalar(params)[1])
    ground = np.zeros((len(seq), (params.L + 63) // 64), dtype=np.uint64)  # |0...0>
    return (flip_gap(ground, flips, params) - seq.nu).tolist()


def ground_branch_detunings(seq: PulseSequence, params: ChainParams) -> list[float]:
    """Detuning magnitudes |Delta| seen by the all-zeros state under each
    pulse (see `ground_branch_signed_detunings`)."""
    return [abs(delta) for delta in ground_branch_signed_detunings(seq, params)]


def pair_map(Delta: float, Omega: float, tau: float,
             t_start: float) -> tuple[complex, complex, complex, complex]:
    """(K_mm, K_mp, K_pm, K_pp) of the package's own pair map over one pulse
    from t_start: `_pair_maps`, as a run's plan evaluates it, for a single
    pulse."""
    K = _pair_maps(np.array([Delta]), Omega, tau, t_start, t_start + tau)
    return tuple(K[0].tolist())


def ground_branch_rotations(seq: PulseSequence, params: ChainParams) -> list[complex]:
    """K_mm of each pulse at its signed ground-branch detuning: the factor
    that pulse gives the |0...0> amplitude, whose partner never holds any."""
    return [pair_map(delta, Omega, tau, 0.0)[0] for delta, Omega, tau in
            zip(ground_branch_signed_detunings(seq, params), seq.Omega.tolist(),
                seq.tau.tolist())]


def ground_branch_phase(seq: PulseSequence, params: ChainParams) -> float:
    """Sum of arg K_mm over the pulses, unwrapped: the map's phase of the
    |0...0> amplitude from |0...0>, the gate phase that no census sees."""
    return math.fsum(cmath.phase(k) for k in ground_branch_rotations(seq, params))


def pair_update(C_m: complex, C_p: complex, Delta: float, Omega: float,
                tau: float, t_start: float) -> tuple[complex, complex]:
    """One flip pair (C_m lower, C_p upper, Delta = E_p - E_m - nu) through
    one pulse under the package's pair map."""
    K_mm, K_mp, K_pm, K_pp = pair_map(Delta, Omega, tau, t_start)
    return K_mm * C_m + K_mp * C_p, K_pm * C_m + K_pp * C_p


def run_pulse(state: SparseState, pulse, params, P_drop: float) -> SparseState:
    """`state` after one pulse, through `run_protocol` on a one-pulse
    sequence: planned from state.t, with the norm ledger checked."""
    final, _ = run_protocol(state, sequence(pulse), params, P_drop=P_drop)
    return final


def probability(state: SparseState, basis: BasisState | int) -> float:
    """|C|^2 of one basis state (a BasisState or a packed int) of a sparse
    state, 0 where it is not active."""
    bits = basis.bits if isinstance(basis, BasisState) else basis
    return dict(zip(_unpack(state.keys), state.probability_array().tolist())).get(bits, 0.0)


def total_variation_distance(p: np.ndarray, q: np.ndarray) -> float:
    """TVD between two dense probability arrays over basis states,
    1/2 sum |p - q|, summed exactly (`math.fsum`): the sum `verify` takes
    over the abs_gap column it writes."""
    return 0.5 * math.fsum(np.abs(p - q).tolist())


def census_table(census: Census, L: int) -> list[tuple[BasisState, float]]:
    """(state, probability) rows of a census of an L-spin state by descending
    probability, ties by bitstring (ascending key, most significant word
    first): the order of the `census.csv` and `spectrum.csv` rows."""
    order = np.lexsort((*census.keys.T, -census.probabilities))
    return [(BasisState(bits, L), q)
            for bits, q in zip(_unpack(census.keys[order]),
                               census.probabilities[order].tolist())]


def first_order_states(L: int) -> tuple[list[BasisState], list[BasisState]]:
    """The two terminal families of first-order unwanted states.

    Family A (target bit 0 flipped): a single run of 1s extending down to
    bit 0, run length 1..L-1.  Family B (target unflipped): a run of 1s
    ending at bit 1, run length 1..L-2.  Sizes L-1 and L-2, totalling 2L-3.
    """
    n1(L)  # the protocol's L >= 3 rule
    family_a = [BasisState((1 << r) - 1, L) for r in range(1, L)]
    family_b = [BasisState(((1 << r) - 1) << 1, L) for r in range(1, L - 1)]
    return family_a, family_b


def u3_table(eps: float, eps_prime: float) -> list[tuple[str, float]]:
    """Estimated state populations right after the third protocol pulse.

    Four patterns, written control-first with trailing zeros elided; the
    rows sum to 1 identically for any eps, eps' in [0, 1].  Rows 3 and 4
    are incoherent sums of two paths each: the interference term, up to
    2 eps^(3/2) (1 - eps) in either row, cancels between them.
    """
    if not 0.0 <= eps <= 1.0 or not 0.0 <= eps_prime <= 1.0:
        raise ValueError("eps and eps_prime must be probabilities")
    return [
        ("0000...", (1.0 - eps) ** 2 * (1.0 - eps_prime)),
        ("0100...", eps_prime * (1.0 - eps) ** 2),
        ("0010...", eps * (1.0 - eps + eps * eps)),
        ("0110...", eps * (1.0 - eps * eps)),
    ]


def bit(state: BasisState, k: int) -> int:
    """Bit k of a basis state; IndexError outside the chain."""
    if not 0 <= k < state.L:
        raise IndexError(f"qubit {k} out of range for L={state.L}")
    return (state.bits >> k) & 1


def flipped(state: BasisState, k: int) -> BasisState:
    """The basis state with bit k flipped; IndexError outside the chain."""
    if not 0 <= k < state.L:
        raise IndexError(f"qubit {k} out of range for L={state.L}")
    return BasisState(bits=state.bits ^ (1 << k), L=state.L)


def sequence(*pulses: Pulse) -> PulseSequence:
    """A `PulseSequence` of `Pulse` records, in order."""
    return PulseSequence(*np.array(pulses, dtype=np.float64).reshape(-1, 3).T)
