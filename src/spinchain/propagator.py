"""Sparse propagation of interaction-picture amplitudes through a pulse sequence.

Under a pulse resonant with spin k, a basis state couples appreciably only
to its single-flip partner at spin k; all other couplings are suppressed by
the gradient (delta_omega >> Omega).  Each pulse therefore factorises into
independent two-level problems over flip pairs, and each pair evolves by
the closed-form map

    C_m(t1) = [cos(lam*tau/2) + i (Delta/lam) sin(lam*tau/2)] e^{-i tau Delta/2}
    C_p(t1) = i (Omega/lam) sin(lam*tau/2) e^{i t0 Delta + i tau Delta/2}

for a pair starting in the lower level m (the map for arbitrary initial
amplitudes is the unitary 2x2 extension, see _pair_maps), where
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

The state is pruned after every pulse: amplitudes with |C|^2 below the
pruning threshold are removed and their probability is accounted in a
`dropped` ledger, never renormalised away.  This keeps the active set
polynomial in L while making the approximation cost visible.

Storage.  A `SparseState` holds its n active basis states as an (n, W)
uint64 bitset array, W = ceil(L/64), with bit k of a state at bit k % 64 of
word k // 64, and a matching (n,) complex128 amplitude array.  The dict view
`SparseState.amplitudes` is derived from the arrays on first access.

Grouping.  `apply_pulse` at spin k clears bit k of every key to get its pair
key and sorts the states by it (`np.lexsort` over the words), so the
members of a flip pair, at most two, form a group of consecutive rows.  A
state's bits k-1, k and k+1 (the neighbours may sit in the previous or the
next word) pick one column of a 2x8 table, built from the pulse's at most
four pair maps, that holds what the state adds to its pair's lower and
upper amplitude.  The group starts come from one compare of all adjacent
sorted rows, its word columns ORed into one mask (`_starts`), with no byte
view.  When some group has two members, one `np.add.reduceat` over the
group starts sums each group's shares; a state without a partner keeps its
table products untouched, signed zeros included.  So all pairs are
updated by array arithmetic, and pruning is one mask.

Plan.  A run's pulses, and so their start times, are known before the
first one runs, so `run_protocol` builds every pulse's resonant spin and
(2, 8) pair table up front, in array passes over the sequence's arrays
(`_plan`).  Every pulse's resonant spin comes from the array form of
`resonant_spin` (`np.rint` rounds half to even, as `round` does), and its
four detunings from `neighbour_gap` on the four neighbour patterns, each
the float `flip_gap` gives.  All 4n pair maps of n pulses are then one
array formula (`_pair_maps`): lam is `math.hypot` mapped over the entries
(`np.hypot` rounds some of them differently), and the complex products are
written out in real arithmetic in the order of Python's complex product, so
each table is bit for bit the one the scalar map in tests/oracles.py gives
(numpy's complex multiply rounds differently).  Start and end times are
one `np.cumsum` of t0 and the durations, which adds in order, one
`t += tau` per pulse; a pulse's end time is the `t` of the state it makes,
so the kernel keeps no clock of its own.  Nothing is kept between runs.

Determinism.  The output lists the kept lower members in ascending
pair-key order, then the kept upper members in the same order.  That order
depends only on the keys, not on the input order or on how the sort breaks
ties, and a pair's two shares meet in one commutative addition, so equal
inputs give bit-identical outputs.  The census sums its totals with
`math.fsum`, which does not depend on the order either.

Prefix.  Counted from the control end, pulse i of every chain addresses the
same spin, at the same time i*tau, with the same detunings: a flip gap less
its carrier is 0, +-2J or +-4J, and the Zeeman part omega0 + k*delta_omega
cancels.  The spins beyond a shorter chain's end are never flipped in its
first 2L - 3 pulses, so they stay 0 and their Ising terms drop out of every
Delta.  Hence chain L after its last pulse is chain L_max after pulse
2L - 3 with the low L_max - L bits removed, bit for bit wherever the gaps
are exactly representable, as they are for the default fields (integer
multiples of J).  So `unwanted_census(state, L=L)` tallies chain L on that
snapshot's own key rows: its ideal states and its target bit are read at
bit L_max - L, and no key is copied or shifted.  For other fields the
carrier rounds at each chain's own magnitude, and the two agree only to
rounding (rel 3.7e-12 at J = 0.7, omega0 = 100.1, delta_omega = 20.3).
This holds for the resonance map only: a map that also drives spins within
a window around the resonant one stops being exact once its window reaches
past the shorter chain's last spin.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable, Collection
from dataclasses import dataclass, field

import numpy as np

from .model import ChainParams, neighbour_gap, pack_keys
from .protocol import Pulse, PulseSequence

# Amplitudes with |C|^2 below this floor are discarded even when pruning is
# disabled (P_drop=0): they are far below any resolvable probability, and
# keeping every nonzero descendant would let the active set grow as 2^L.
# Removed probability still lands in the dropped ledger.
AMPLITUDE_FLOOR = 1e-30

# |sum |C|^2 + dropped| may drift from its initial value by rounding only;
# run_protocol raises beyond this.
NORM_LEDGER_TOLERANCE = 1e-12

_WORD = 64
# Every shift count and mask the kernel applies to the uint64 keys, as
# np.uint64 (_SHIFT[n] is np.uint64(n)): numpy converts a Python int operand
# again on every array operation, about 0.4 us each at figure sizes.
_SHIFT = np.arange(_WORD, dtype=np.uint64)
_BIT = 1 << _SHIFT
_CLEAR = ~_BIT


def _unpack(keys: np.ndarray) -> list[int]:
    """Packed basis states (Python ints) of bitset rows."""
    states = keys[:, 0].tolist()
    for j in range(1, keys.shape[1]):
        states = [s | (word << (_WORD * j)) for s, word in zip(states, keys[:, j].tolist())]
    return states


class bitstrings:
    """The bitstrings b_{L-1}...b_0 of bitset rows, in row order, as
    `format(s, f"0{L}b")` renders each packed state s: a sized view over
    the rows whose `len` is the row count and whose slice renders just the
    sliced rows, in array passes, as a list of str."""

    def __init__(self, keys: np.ndarray, L: int):
        self.keys, self.L = keys, L

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, rows: slice) -> list[str]:
        # most significant word first, each word's bytes most significant first
        block = self.keys[rows, ::-1].astype(">u8").view(np.uint8)
        bits = np.unpackbits(block, axis=1)[:, _WORD * self.keys.shape[1] - self.L:]
        # '0' + bit as UCS4 code points, one row a string of L characters
        return (bits + np.uint32(ord("0"))).view(f"U{self.L}").ravel().tolist()


@dataclass(eq=False)
class SparseState:
    """Active basis states and their interaction-picture amplitudes.

    `keys` is an (n, ceil(L/64)) uint64 bitset array, `amps` the matching
    (n,) complex128 array; neither is modified after construction.

    Invariant: sum |C|^2 + dropped is constant (pair updates are unitary;
    only pruning removes norm, and what it removes is added to `dropped`).
    """

    keys: np.ndarray
    amps: np.ndarray
    L: int
    t: float = 0.0
    dropped: float = 0.0

    @classmethod
    def from_amplitudes(cls, amplitudes: dict[int, complex], L: int) -> "SparseState":
        """State at t = 0 from a {packed basis state: amplitude} map."""
        if L < 1:
            raise ValueError(f"need at least one qubit, got L={L}")
        for s in amplitudes:
            if not 0 <= s < (1 << L):
                raise ValueError(f"state {s} out of range for L={L}")
        return cls(keys=pack_keys(amplitudes, L),
                   amps=np.array(list(amplitudes.values()), dtype=np.complex128),
                   L=L)

    def probability_array(self) -> np.ndarray:
        """|C|^2 of every active state, in array order."""
        return self.amps.real * self.amps.real + self.amps.imag * self.amps.imag

    @functools.cached_property
    def amplitudes(self) -> dict[int, complex]:
        """{packed basis state: amplitude}, derived from the arrays."""
        return dict(zip(_unpack(self.keys), self.amps.tolist()))

    def total_probability(self) -> float:
        return float(self.probability_array().sum())


def _product(ar, ai, br, bi):
    """Real and imaginary part of (ar + i ai)(br + i bi), rounded as Python's
    complex product rounds them."""
    return ar * br - ai * bi, ar * bi + ai * br


def _pair_maps(Delta, Omega, tau, t0, t1) -> np.ndarray:
    """The 2x2 unitaries (K_mm, K_mp, K_pm, K_pp) on (C_m, C_p) that solve
    i dC_p/dt = -(Omega/2) e^{i Delta t} C_m, i dC_m/dt = -(Omega/2) e^{-i Delta t} C_p
    over [t0, t1], for the broadcast arrays of the arguments, along a new
    last axis.

    With ph = e^{-i tau Delta/2}, u = cos(lam*tau/2), (v, w) = (Delta,
    Omega)/lam sin(lam*tau/2) (so u^2 + v^2 + w^2 = 1; (1, 0, 0) where
    lam = 0) and the frame phases e0 = e^{-i Delta t0}, e1 = e^{i Delta t1},
    K = (ph (u + iv), ph i w e0, ph i w e1, ph (u - iv) e0 e1).
    """
    Delta, Omega, tau = np.broadcast_arrays(Delta, Omega, tau)
    # math.hypot: np.hypot rounds some (Omega, Delta) differently
    lam = np.reshape(list(map(math.hypot, Omega.ravel().tolist(), Delta.ravel().tolist())),
                     Delta.shape)
    still = lam == 0.0
    half = 0.5 * lam * tau
    s = np.sin(half)
    with np.errstate(invalid="ignore"):  # 0/0 where lam == 0, replaced below
        v, w = Delta / lam * s, Omega / lam * s
    u = np.where(still, 1.0, np.cos(half))
    v = np.where(still, 0.0, v)
    w = np.where(still, 0.0, w)
    ph = np.cos(0.5 * Delta * tau), -np.sin(0.5 * Delta * tau)
    x0 = Delta * t0
    x1 = Delta * t1
    e0 = np.cos(x0), -np.sin(x0)
    e1 = np.cos(x1), np.sin(x1)
    cross = _product(*_product(*ph, 0.0, 1.0), w, 0.0)  # ph * 1j * w, in Python's order
    K = np.empty(Delta.shape + (4,), dtype=np.complex128)
    K.real[..., 0], K.imag[..., 0] = _product(*ph, u, v)
    K.real[..., 1], K.imag[..., 1] = _product(*cross, *e0)
    K.real[..., 2], K.imag[..., 2] = _product(*cross, *e1)
    K.real[..., 3], K.imag[..., 3] = _product(*_product(*_product(*ph, u, -v), *e0), *e1)
    return K


def resonant_spin(nu, params: ChainParams):
    """Index of the spin whose transition band contains the carrier nu (an
    int), or of each carrier of an array nu (an int array).

    Returns the k minimising |nu - omega_k|, unique because the band
    half-width 2J is below half the gradient step; `np.rint` rounds half to
    even, as `round` does.  Frequencies outside
    [omega_0 - 2J, omega_{L-1} + 2J] address no spin and raise, naming the
    first such carrier.
    """
    lo = params.omega0 - 2.0 * params.J
    hi = params.omega0 + (params.L - 1) * params.delta_omega + 2.0 * params.J
    nu = np.asarray(nu)
    outside = ~((lo <= nu) & (nu <= hi))
    if outside.any():
        raise ValueError(
            f"pulse frequency {float(nu[outside].flat[0])} addresses no spin "
            f"(outside [{lo}, {hi}] for this chain)"
        )
    k = np.rint((nu - params.omega0) / params.delta_omega).astype(np.int64)
    k = np.clip(k, 0, params.L - 1)
    return k if k.ndim else int(k)


def _starts(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows of a sorted 2-D array that differ from the row before
    them, the first row always marked: one compare of all adjacent rows, its
    columns ORed into the mask (numpy reduces a row of a few words slowly)."""
    differs = (rows[1:] != rows[:-1]).T
    start = np.empty(len(rows), dtype=bool)
    start[:1] = True
    if len(differs) == 1:
        start[1:] = differs[0]
    else:
        np.logical_or(differs[0], differs[1], out=start[1:])
        for column in differs[2:]:
            np.logical_or(start[1:], column, out=start[1:])
    return start


def _neighbourhood(keys: np.ndarray, k: int) -> np.ndarray:
    """Bits k-1, k and k+1 of every key as the code b_{k-1} + 2 b_k + 4 b_{k+1};
    bits outside the chain read 0 (the words hold no bit at or above L)."""
    word, bit = divmod(k, _WORD)
    col = keys[:, word]
    code = (col >> _SHIFT[bit - 1] if bit else col << _SHIFT[1]) & _SHIFT[7]
    if bit == 0 and word > 0:
        code |= keys[:, word - 1] >> _SHIFT[_WORD - 1]
    elif bit == _WORD - 1 and word + 1 < keys.shape[1]:
        code |= (keys[:, word + 1] & _BIT[0]) << _SHIFT[2]
    return code.view(np.int64)


# Column `code` (see _neighbourhood) of a pair table holds what a state of
# unit amplitude adds to its pair's lower (row 0) and upper (row 1)
# amplitude: a state with bit k clear enters as C_m (K_mm, K_pm), with bit k
# set as C_p (K_mp, K_pp).  Index into a pulse's (4 patterns x 4 maps) array
# of _pair_maps, patterns ordered none, b_{k-1}, b_{k+1}, both (their
# neighbour bits _BELOW and _ABOVE).
_CODE = np.arange(8)
_BELOW, _ABOVE = np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])
_TABLE = (4 * ((_CODE & 1) + 2 * (_CODE >> 2)) + ((_CODE >> 1) & 1)
          + 2 * np.arange(2)[:, None])


def _plan(seq: PulseSequence, params: ChainParams,
          t0: float) -> tuple[list[int], np.ndarray, list[float]]:
    """Resonant spin, (n, 2, 8) pair tables and end time of the n pulses of
    a sequence applied in order from time t0 (see Plan).

    The flip gap depends only on the neighbour bits k-1 and k+1 (absent at
    the chain's edges, where flip_gap's terms are zero), so a pulse has at
    most four pair maps, one per neighbour pattern.  Every gap is positive
    (ChainParams enforces omega0 > 2J): the bit-k-clear member of a pair is
    its lower level.  All 4n maps are one `_pair_maps` call.
    """
    k = resonant_spin(seq.nu, params)
    deltas = neighbour_gap(k[:, None], _BELOW, _ABOVE, params) - seq.nu[:, None]
    # start and end times, one t += tau per pulse in order
    times = np.cumsum(np.concatenate(([t0], seq.tau)))[:, None]
    maps = _pair_maps(deltas, seq.Omega[:, None], seq.tau[:, None], times[:-1], times[1:])
    return k.tolist(), maps.reshape(len(seq), 16)[:, _TABLE], times[1:, 0].tolist()


def apply_pulse(state: SparseState, pulse: Pulse, params: ChainParams, P_drop: float, *,
                planned: tuple[int, np.ndarray, float]) -> SparseState:
    """Advance a sparse state through one pulse in the two-level approximation.

    Every active basis state is paired with its single-flip partner at the
    resonant spin; each disjoint pair evolves once under its own detuning,
    its flip gap less the carrier.  Absent partners enter with amplitude
    zero.  After the update, amplitudes with |C|^2 < max(P_drop,
    AMPLITUDE_FLOOR) are removed and their probability added to the dropped
    ledger.

    `planned` is this pulse's (resonant spin, pair table, end time) row of
    the `_plan` that `run_protocol` makes from state.t.  The kernel reads
    nothing of `pulse` or `params`; they stay for callers such as
    perfbench/tracing.py.
    """
    k, table, t = planned
    word, bit = divmod(k, _WORD)
    # sort by pair key (bit k cleared) so that partners become neighbours
    clear = _CLEAR[bit]
    columns = list(state.keys.T)
    columns[word] = columns[word] & clear
    order = np.lexsort(columns)
    pair_keys = state.keys.take(order, axis=0)
    # out[:, i]: what state i adds to the lower and upper amplitude of its pair
    out = table.take(_neighbourhood(pair_keys, k), axis=1)
    out *= state.amps.take(order)
    pair_keys[:, word] &= clear
    # each pair's shares summed at its first member (see Grouping)
    first = _starts(pair_keys).nonzero()[0]
    if len(first) < len(pair_keys):
        out = np.add.reduceat(out, first, axis=1)
        pair_keys = pair_keys.take(first, axis=0)
    p = (out * out.conj()).real  # |C|^2, fastest form; fused, so not bit for bit re*re + im*im
    keep = p >= max(P_drop, AMPLITUDE_FLOOR)
    dropped = state.dropped + float(p[~keep].sum())
    # kept lower members in pair-key order, then kept upper members
    upper, pair = keep.nonzero()
    out_keys = pair_keys.take(pair, axis=0)
    lower = np.count_nonzero(keep[0])
    out_keys[lower:, word] |= _BIT[bit]
    return SparseState(keys=out_keys, amps=out[keep], L=state.L, t=t, dropped=dropped)


@dataclass
class RunReport:
    """Per-pulse diagnostics of a protocol run."""

    active_states: list[int] = field(default_factory=list)
    dropped_cumulative: list[float] = field(default_factory=list)
    wall_time: float = 0.0


def run_protocol(initial: SparseState, seq: PulseSequence, params: ChainParams,
                 P_drop: float, snapshot_at: Collection[int] = (),
                 on_snapshot: Callable[[int, SparseState], None] | None = None,
                 ) -> tuple[SparseState, RunReport]:
    """Apply every pulse of a sequence in order, collecting diagnostics: the
    one way into the sparse kernel, planned from initial.t by `_plan`.

    After each pulse count n in `snapshot_at` (1 to len(seq)) the state is
    handed to on_snapshot(n, state) as it is made, so memory holds one
    state at a time unless the callback keeps it.  `wall_time` includes the
    callbacks.

    Raises RuntimeError when the norm ledger sum |C|^2 + dropped moves more
    than NORM_LEDGER_TOLERANCE away from the initial state's own value, at
    every snapshot and after the last pulse.
    """
    if not 0.0 <= P_drop < 1.0:
        raise ValueError(f"P_drop must be in [0, 1), got {P_drop}")
    if initial.L != params.L:
        raise ValueError(f"state has L={initial.L}, params have L={params.L}")
    snapshot_at = frozenset(snapshot_at)
    if snapshot_at and on_snapshot is None:
        raise ValueError(f"snapshot pulse counts {sorted(snapshot_at)} given without "
                         "on_snapshot to receive them")
    if not snapshot_at <= set(range(1, len(seq) + 1)):
        raise ValueError(f"snapshot pulse counts {sorted(snapshot_at)} outside "
                         f"[1, {len(seq)}]")
    norm = initial.total_probability() + initial.dropped
    report = RunReport()
    t0 = time.perf_counter()
    state = initial
    plan = zip(*_plan(seq, params, initial.t))
    for n, (pulse, planned) in enumerate(zip(seq.pulses, plan), start=1):
        state = apply_pulse(state, pulse, params, P_drop=P_drop, planned=planned)
        report.active_states.append(len(state.amps))
        report.dropped_cumulative.append(state.dropped)
        if n in snapshot_at:
            _check_ledger(state, norm, n)
            on_snapshot(n, state)
    report.wall_time = time.perf_counter() - t0
    _check_ledger(state, norm, len(seq))
    return state, report


def _check_ledger(state: SparseState, norm: float, pulses: int) -> None:
    defect = (state.total_probability() + state.dropped) - norm
    if not abs(defect) <= NORM_LEDGER_TOLERANCE:
        raise RuntimeError(
            f"norm ledger defect {defect:.3e} after {pulses} pulses: "
            f"sum |C|^2 + dropped moved by more than {NORM_LEDGER_TOLERANCE:g}, "
            "so a pair map is not unitary or pruning lost probability")


@dataclass(frozen=True, eq=False)
class Census:
    """Unwanted-state tally of a run started from the all-zeros state.

    `keys` and `probabilities` hold the tallied states in array order, as
    rows of the censused state (its key width, whatever chain was tallied);
    the number of unwanted states is len(probabilities).
    """

    p1_total: float        # total probability of unwanted states >= threshold
    p1_target: float       # subset with the chain's target bit set and control bit clear
    keys: np.ndarray
    probabilities: np.ndarray


def unwanted_census(final: SparseState, threshold: float,
                    L: int | None = None) -> Census:
    """Count and total the unwanted states of chain L, the top L spins of
    `final` (all of them by default), left behind by the protocol.

    Tallies every state with probability at or above `threshold`, the
    caller's reporting floor (the CLI's P0; there is no default), other
    than chain L's two ideal gate outputs |0...0> and |10...01>, which set
    no bit of `final` or bits final.L - L (the target) and final.L - 1 (the
    control): its target and control bits are equal and it sets no other
    bit.  The keys are read where they are (see the Prefix note): raises
    ValueError when L is outside [1, final.L] or a state has one of the
    spins below the top L flipped.  On a run started from |0...0> the
    target state carries no weight, so this reduces to counting everything
    but the ground state.
    """
    L = final.L if L is None else L
    if not 1 <= L <= final.L:
        raise ValueError(f"prefix length {L} outside [1, {final.L}]")
    low_word, low_bit = divmod(final.L - L, _WORD)
    top_word, top_bit = divmod(final.L - 1, _WORD)
    keys = final.keys
    low, top = keys[:, low_word], keys[:, top_word]
    if keys[:, :low_word].any() or (low & (_BIT[low_bit] - _BIT[0])).any():
        raise ValueError(f"a state flips one of the {final.L - L} spins below the top {L}")
    # chain L's ideal outputs: target bit equal to control bit, no other bit
    one = _BIT[0]
    target = (low >> _SHIFT[low_bit]) & one
    control = (top >> _SHIFT[top_bit]) & one
    others = top & _CLEAR[top_bit]
    if low_word == top_word:
        others &= _CLEAR[low_bit]
    else:
        others |= low & _CLEAR[low_bit]
    for column in keys.T[low_word + 1:top_word]:
        others |= column
    p = final.probability_array()
    above = p >= threshold
    unwanted = above & ((others | (target ^ control)) != 0)
    flipped_target = above & (target > control)  # target bit set, control bit clear
    tallied = p[unwanted]
    return Census(p1_total=math.fsum(tallied.tolist()),
                  p1_target=math.fsum(p[flipped_target].tolist()),
                  keys=keys[unwanted], probabilities=tallied)
