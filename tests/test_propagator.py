import cmath
import csv
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spinchain.propagator
from spinchain.analytics import epsilon, ground_branch_errors, p1_total
from spinchain.cli import _write_states, main, write_report_csv, write_state_csv
from spinchain.model import ChainParams, pack_keys
from spinchain.propagator import (
    SparseState,
    _starts,
    _unpack,
    bitstrings,
    resonant_spin,
    run_protocol,
    unwanted_census,
)
from spinchain.protocol import Pulse, cn_remote_protocol

from oracles import (
    apply_pulse_dict,
    basis_state,
    bit,
    census_bitstring,
    census_table,
    classical_orbit,
    cn_trajectory,
    energy_bruteforce,
    first_order_states,
    ground_branch_phase,
    ground_branch_rotations,
    ground_branch_signed_detunings,
    pair_coefficients_scalar,
    pair_map,
    pair_map_closed_form,
    pair_table_scalar,
    pair_update,
    probability,
    run_pulse,
    sequence,
    suppression_rabi,
    total_variation_distance,
)


def bounded_run(initial, seq, params, P_drop, most):
    """run_protocol, failed after the first pulse that leaves more than
    `most` active states.  At P_drop = 0 only the closed orbit of a correct
    kernel bounds the active set, so a defective one would grow it until
    the process is killed; this stops it at once."""
    def check(n, state):
        assert len(state.amps) <= most, f"{len(state.amps)} active states after pulse {n}"

    return run_protocol(initial, seq, params, P_drop=P_drop,
                        snapshot_at=range(1, len(seq) + 1), on_snapshot=check)


def ground_orbit(L):
    """Size of the map's closed orbit from |0...0> (the orbit test says why)."""
    return (L * L - L + 2) // 2


def ground_run(L, Omega, P_drop=1e-6):
    params = ChainParams(L=L)
    seq = cn_remote_protocol(params, Omega)
    return bounded_run(basis_state(0, L), seq,
                       params, P_drop, ground_orbit(L))


def test_carrier_outside_the_band_raises_from_run_protocol(params5):
    inside = Pulse(nu=params5.omega0, Omega=0.2, tau=1.0)
    for nu in (params5.omega0 - 3 * params5.J, params5.omega0 + 4 * params5.delta_omega + 3):
        seq = sequence(inside, Pulse(nu=nu, Omega=0.2, tau=1.0), inside)
        with pytest.raises(ValueError, match=f"pulse frequency {nu} addresses no spin"):
            run_protocol(basis_state(0, 5), seq, params5,
                         P_drop=1e-6)


def test_resonant_spin_lookup(params5):
    w3 = params5.omega0 + 3 * params5.delta_omega
    assert resonant_spin(w3, params5) == 3
    assert resonant_spin(w3 - 2 * params5.J, params5) == 3
    assert resonant_spin(params5.omega0 - 2 * params5.J, params5) == 0
    with pytest.raises(ValueError):
        resonant_spin(params5.omega0 - 3 * params5.J, params5)
    with pytest.raises(ValueError):
        resonant_spin(params5.omega0 + 4 * params5.delta_omega + 3, params5)
    # as delta_omega nears 4J, the top of the band rounds to index L
    narrow = ChainParams(L=26, J=1.0, omega0=100.0, delta_omega=4.000000000000001)
    assert resonant_spin(202.00000000000003, narrow) == 25


def test_first_pulse_moves_control_branch(params5):
    seq = cn_remote_protocol(params5, 0.0906)
    state = basis_state(0b10000, 5)
    out = run_pulse(state, seq.pulses[0], params5, P_drop=0.0)
    assert probability(out, 0b11000) == pytest.approx(1.0, abs=1e-12)
    assert out.t == pytest.approx(seq.pulses[0].tau)


def test_first_pulse_leak_from_ground_matches_eps(params5):
    seq = cn_remote_protocol(params5, 0.0906)
    state = basis_state(0, 5)
    out = run_pulse(state, seq.pulses[0], params5, P_drop=0.0)
    leaked = probability(out, 0b01000)  # qubit L-2 flipped
    assert leaked == pytest.approx(4.78e-5, rel=0.01)
    assert probability(out, 0) == pytest.approx(1 - leaked, abs=1e-10)


def test_absent_partner_enters_with_zero_amplitude(params5):
    # a lone upper state must feed its lower partner, not be rescaled
    seq = cn_remote_protocol(params5, 0.0906)
    out = run_pulse(basis_state(0b11000, 5), seq.pulses[0], params5, P_drop=0.0)
    assert probability(out, 0b10000) == pytest.approx(1.0, abs=1e-12)


def test_pulse_without_pairs_keeps_the_table_products():
    # no flip pair is present, so no two shares meet: each output is its
    # plan-table entry times its input amplitude, bit for bit, the signed
    # zeros of a product with the input's -0.0 included
    params = ChainParams(L=4)
    seq = cn_remote_protocol(params, 0.20844)
    pulse = seq.pulses[0]
    k = resonant_spin(pulse.nu, params)
    inputs = {0b1000: complex(-0.0, -0.5), 0b1001: 0.5j}
    out = run_pulse(SparseState.from_amplitudes(inputs, 4), pulse, params, P_drop=0.0)
    codes = [(s << 1 >> k) & 7 for s in inputs]
    products = pair_table_scalar(pulse, params, 0.0)[:, codes] * np.array(list(inputs.values()))
    floor = spinchain.propagator.AMPLITUDE_FLOOR
    expect = {s & ~(1 << k) | (row << k): c
              for row, shares in enumerate(products.tolist())
              for s, c in zip(inputs, shares) if abs(c) ** 2 >= floor}
    assert _unpack(out.keys) == sorted(expect) == [0b1100, 0b1101]
    assert out.amps.tobytes() == np.array([expect[s] for s in _unpack(out.keys)]).tobytes()
    assert out.amps.tobytes().hex() == ("000000000000e03f" "0000000000000080"
                                        "000000000000e0bf" "0000000000000000")
    # an empty state passes through a whole run empty
    final, report = run_protocol(SparseState.from_amplitudes({}, 4), seq, params, P_drop=0.0)
    assert final.keys.shape == (0, 1) and len(final.amps) == 0
    assert final.dropped == 0.0 and report.active_states == [0] * len(seq)


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_pulse_is_pair_update_at_every_spin(L):
    # every spin, both edges included (the CN protocol never addresses
    # k = L-1); Delta comes from the energy oracle, not from the flip gap
    # the propagator indexes its pair maps by
    params = ChainParams(L=L)
    rng = np.random.default_rng(L)
    for k in range(L):
        for _ in range(3):
            nu = params.omega0 + k * params.delta_omega + rng.uniform(-2.0, 2.0) * params.J
            pulse = Pulse(nu=nu, Omega=rng.uniform(0.05, 1.0), tau=rng.uniform(0.5, 30.0))
            support = [s for s in range(1 << L) if rng.random() < 0.6] or [0]
            amps = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
            amps /= np.linalg.norm(amps)
            state = replace(SparseState.from_amplitudes(dict(zip(support, amps.tolist())), L),
                            t=rng.uniform(0.0, 10.0))
            out = run_pulse(state, pulse, params, P_drop=0.0)
            mask = 1 << k
            for lo in range(1 << L):
                if lo & mask:
                    continue
                hi = lo | mask
                e_lo, e_hi = (energy_bruteforce(s, L, params.J, params.omega0,
                                                params.delta_omega) for s in (lo, hi))
                c_lo = state.amplitudes.get(lo, 0j)
                c_hi = state.amplitudes.get(hi, 0j)
                if c_lo == 0 and c_hi == 0:
                    assert lo not in out.amplitudes and hi not in out.amplitudes
                    continue
                expect = pair_update(c_lo, c_hi, e_hi - e_lo - nu, pulse.Omega,
                                     pulse.tau, state.t)
                assert out.amplitudes[lo] == pytest.approx(expect[0], abs=1e-12)
                assert out.amplitudes[hi] == pytest.approx(expect[1], abs=1e-12)


# spins next to the 64-bit word boundaries, where a neighbour bit sits in
# the previous or the next word
WORD_EDGE_SPINS = (0, 62, 63, 64, 65, 127, 191, 192, 255, 256)


@st.composite
def pulse_on_sparse_state(draw):
    L = draw(st.one_of(st.integers(2, 140),
                       st.sampled_from([64, 65, 66, 128, 129, 140, 192, 193, 256, 257, 400])))
    k = draw(st.one_of(st.sampled_from([s for s in WORD_EDGE_SPINS if s < L] + [L - 1]),
                       st.integers(0, L - 1)))
    # random keys over all L bits, with the neighbour bits of k, the partner
    # at k and single-bit relatives (equal in all words but one) mixed in, so
    # that every map pattern, lone and paired states, and keys that tie on
    # some words all occur.  The bits are truly random (from a generator
    # hypothesis seeds): its own draws are mostly small, their high words
    # zero, so a relative that differs in a high word would seldom sort next
    # to its key, and rows equal in all but a fourth or later word would
    # seldom meet
    rnd = draw(st.randoms(use_true_random=True))
    nearby = [1 << j for j in (k - 1, k + 1) if 0 <= j < L]
    support = set()
    for _ in range(draw(st.integers(1, 8))):
        key = rnd.getrandbits(L)
        for j in nearby:
            if draw(st.booleans()):
                key ^= j
        family = {key} | {key ^ (1 << rnd.randrange(L))
                          for _ in range(draw(st.integers(0, 2)))}
        support |= family
        if draw(st.booleans()):
            support |= {s ^ (1 << k) for s in family}
    parts = draw(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                          min_size=len(support), max_size=len(support)))
    amps = np.array([complex(re, im) for re, im in parts]) + 1e-3
    amps /= np.linalg.norm(amps)
    # exactly-zero real or imaginary parts of either sign, which the group
    # sum meets as the oracle's pair updates do
    zeros = draw(st.lists(st.none() | st.tuples(st.integers(0, 1), st.sampled_from([0.0, -0.0])),
                          min_size=len(support), max_size=len(support)))
    components = amps.view(np.float64).reshape(-1, 2)
    for i, zero in enumerate(zeros):
        if zero is not None:
            components[i, zero[0]] = zero[1]
    params = ChainParams(L=L)
    pulse = Pulse(nu=params.omega0 + k * params.delta_omega
                  + draw(st.floats(-1.99, 1.99)) * params.J,
                  Omega=draw(st.floats(0.01, 1.0)), tau=draw(st.floats(0.1, 60.0)))
    return (params, pulse, dict(zip(sorted(support), amps.tolist())),
            draw(st.floats(0.0, 1e3)), draw(st.sampled_from([0.0, 1e-6])))


@settings(max_examples=300, deadline=None)
@given(pulse_on_sparse_state())
def test_kernel_matches_dict_oracle(case):
    params, pulse, amplitudes, t, P_drop = case
    out = run_pulse(replace(SparseState.from_amplitudes(amplitudes, params.L), t=t),
                    pulse, params, P_drop=P_drop)
    expect, dropped = apply_pulse_dict(amplitudes, t, pulse, params, P_drop)
    assert out.keys.shape == (len(expect), (params.L + 63) // 64)
    assert set(out.amplitudes) == set(expect)
    for s, c in expect.items():
        assert abs(out.amplitudes[s] - c) <= 1e-14
    assert abs(out.dropped - dropped) <= 1e-15
    assert out.t == t + pulse.tau


# one carrier (spin 2 of a 6-spin chain, both neighbours up at J = 1) under
# pulses that differ only in Omega, only in tau, or in both, then a second
# carrier; and two chains that differ only in J (at J = 1.5 the carriers
# still address spins 2 and 3, at other detunings)
SHARED_PARAMS = (ChainParams(L=6, omega0=100.0, delta_omega=20.0),
                 ChainParams(L=6, J=1.5, omega0=100.0, delta_omega=20.0))
SHARED_PULSES = (Pulse(nu=142.0, Omega=0.0906, tau=math.pi / 0.0906),
                 Pulse(nu=142.0, Omega=0.20844, tau=math.pi / 0.20844),
                 Pulse(nu=142.0, Omega=0.0906, tau=0.5 * math.pi / 0.0906),
                 Pulse(nu=142.0, Omega=0.20844, tau=math.pi / 0.0906),
                 Pulse(nu=160.0, Omega=0.0906, tau=math.pi / 0.0906),
                 Pulse(nu=142.0, Omega=0.0906, tau=math.pi / 0.0906))


def test_planned_pulse_matches_pulse_applied_alone():
    # every neighbour pattern of every state is present, so each detuning
    # of each pulse reaches the output; a run plans pulses that share a
    # carrier, a detuning or a rotation, and each must equal the same pulse
    # planned on its own from the run's state before it
    amplitudes = {s: complex(1 + s % 5, s % 3 - 1) / 24.0 for s in range(64)}
    for params in SHARED_PARAMS:
        for t in (0.0, 37.5):
            snapshots = {0: replace(SparseState.from_amplitudes(amplitudes, 6), t=t)}
            run_protocol(snapshots[0], sequence(*SHARED_PULSES), params,
                         P_drop=0.0, snapshot_at=range(1, len(SHARED_PULSES) + 1),
                         on_snapshot=snapshots.__setitem__)
            for n, pulse in enumerate(SHARED_PULSES, start=1):
                alone = run_pulse(snapshots[n - 1], pulse, params, P_drop=0.0)
                assert snapshots[n].keys.tobytes() == alone.keys.tobytes()
                assert snapshots[n].amps.tobytes() == alone.amps.tobytes()
                assert (snapshots[n].t, snapshots[n].dropped) == (alone.t, alone.dropped)
    # the pair maps themselves, against the scalar reference and the closed form
    calls = [(Delta, pulse.Omega, pulse.tau, t) for t in (0.0, 37.5) for pulse in SHARED_PULSES
             for Delta in (0.0, -2.0, 2.0, 1.0)]
    for call in calls:
        got = pair_map(*call)
        assert all(type(K) is complex for K in got)
        assert np.array(got).tobytes() == np.array(pair_coefficients_scalar(*call)).tobytes()
        K_mm, _, K_pm, _ = got
        cm, cp = pair_map_closed_form(*call)
        assert abs(K_mm - cm) <= 1e-12 and abs(K_pm - cp) <= 1e-12


@st.composite
def sorted_rows(draw):
    W = draw(st.sampled_from([1, 2, 3, 7]))
    words = st.integers(0, 2**64 - 1)
    base = draw(st.lists(words, min_size=W, max_size=W))
    # a small pool, so that rows repeat: a base row and rows that differ
    # from it only in the first, a middle or the last word
    pool = [base] + [base[:j] + [draw(words)] + base[j + 1:]
                     for j in draw(st.lists(st.sampled_from([0, W // 2, W - 1]), max_size=4))]
    rows = sorted(draw(st.lists(st.sampled_from(pool), max_size=40)))
    return np.array(rows, dtype=np.uint64).reshape(len(rows), W)


@settings(max_examples=300, deadline=None)
@given(sorted_rows())
def test_starts_marks_rows_unequal_to_the_row_before(rows):
    as_tuples = [tuple(row) for row in rows.tolist()]
    expect = [i == 0 or row != as_tuples[i - 1] for i, row in enumerate(as_tuples)]
    assert _starts(rows).tolist() == expect


@st.composite
def planned_run(draw):
    J = draw(st.sampled_from([1.0, 0.7, 1.5, draw(st.floats(0.05, 5.0))]))
    # short chains, and chains whose edge spins and neighbours sit at the
    # ends of a key word
    L = draw(st.one_of(st.integers(2, 9), st.sampled_from([63, 64, 65, 127, 128, 129])))
    params = ChainParams(L=L, J=J, omega0=J * draw(st.floats(2.5, 500.0)),
                         delta_omega=J * draw(st.floats(4.5, 100.0)))
    pulses = []
    for _ in range(draw(st.integers(1, 8))):
        k = draw(st.one_of(st.sampled_from([0, L - 1]), st.integers(0, L - 1)))
        # a flip gap (detunings 0, +-2J and +-4J) or anywhere in the band
        offset = draw(st.one_of(st.sampled_from([-2.0, 0.0, 2.0]), st.floats(-2.0, 2.0)))
        nu = params.omega0 + k * params.delta_omega + offset * J
        if pulses and draw(st.booleans()):  # a carrier again, under another drive
            nu = pulses[draw(st.integers(0, len(pulses) - 1))].nu
        Omega = draw(st.floats(1e-3, 2.0))
        pulses.append(Pulse(nu=nu, Omega=Omega,
                            tau=draw(st.one_of(st.just(math.pi / Omega),
                                               st.floats(1e-3, 1e3)))))
    return params, pulses, draw(st.one_of(st.just(0.0), st.floats(0.0, 1e6)))


EDGE_PLANS = [
    # one pulse on an L = 2 chain, at either spin
    (ChainParams(L=2), [Pulse(nu=100.0 + 1.0, Omega=0.3, tau=math.pi / 0.3)], 0.0),
    (ChainParams(L=2), [Pulse(nu=120.0 - 1.0, Omega=0.3, tau=math.pi / 0.3)], 5.0),
    # both edge spins of a two-word chain, each carrier under two Omegas and
    # two durations
    (ChainParams(L=65, J=0.7, omega0=100.1, delta_omega=20.3),
     [Pulse(nu=nu, Omega=Omega, tau=tau)
      for nu in (100.1 - 0.7, 100.1 + 64 * 20.3 + 0.7)
      for Omega, tau in ((0.2, math.pi / 0.2), (0.09, math.pi / 0.2), (0.2, 7.0))], 12.5),
    # drives at which np.hypot(Omega, Delta) rounds lam differently from
    # math.hypot, at Delta = +-2J (carrier on spin 1) and +4J (carrier 2J
    # below it)
    (ChainParams(L=3),
     [Pulse(nu=120.0, Omega=0.0546255, tau=math.pi / 0.0546255),
      Pulse(nu=118.0, Omega=0.11000774999999999, tau=math.pi / 0.11000774999999999)], 0.0),
]


@settings(max_examples=300, deadline=None)
@given(planned_run())
@example(EDGE_PLANS[0])
@example(EDGE_PLANS[1])
@example(EDGE_PLANS[2])
@example(EDGE_PLANS[3])
def test_plan_matches_scalar_pair_map_bit_for_bit(case):
    params, pulses, t0 = case
    spins, tables, ends = spinchain.propagator._plan(sequence(*pulses), params, t0)
    assert tables.shape == (len(pulses), 2, 8)
    t = t0
    for pulse, k, table, end in zip(pulses, spins, tables, ends):
        assert k == resonant_spin(pulse.nu, params)
        assert table.tobytes() == pair_table_scalar(pulse, params, t).tobytes()
        t += pulse.tau
        assert type(end) is float and end == t  # the end time, added as t += tau adds it


def test_plan_keeps_signed_zero_drives_apart():
    # Omega and tau of -0.0 and +0.0 are equal in value, not in bytes, and
    # their pair maps differ in the sign of zero parts; where Omega and
    # Delta are 0, the rotation is (u, v, w) = (1, +0, +0) whatever tau's sign
    params = ChainParams(L=3)
    pulses = [Pulse(nu=101.0, Omega=Omega, tau=tau)
              for Omega, tau in ((0.0, 1.0), (-0.0, 1.0), (0.3, 0.0), (0.3, -0.0),
                                 (0.0, -0.0))]
    _, tables, _ = spinchain.propagator._plan(sequence(*pulses), params, 0.0)
    t = 0.0
    for pulse, table in zip(pulses, tables):
        assert table.tobytes() == pair_table_scalar(pulse, params, t).tobytes()
        t += pulse.tau


@pytest.mark.parametrize("L,amplitudes,t", [
    (70, {0: 1.0}, 0.0),                                  # two key words
    (9, {0: 0.6, 1 << 8: 0.8j}, 123.25),                  # alpha/beta start, t != 0
], ids=["L70", "alpha-beta"])
def test_run_equals_chained_single_pulses(L, amplitudes, t):
    params = ChainParams(L=L)
    seq = cn_remote_protocol(params, 0.20844)
    state = replace(SparseState.from_amplitudes(amplitudes, L), t=t)
    snapshots = {}
    final, _ = run_protocol(state, seq, params, P_drop=1e-8,
                            snapshot_at=range(1, len(seq) + 1),
                            on_snapshot=snapshots.__setitem__)
    for n, pulse in enumerate(seq.pulses, start=1):
        state = run_pulse(state, pulse, params, P_drop=1e-8)
        assert snapshots[n].keys.tobytes() == state.keys.tobytes()
        assert snapshots[n].amps.tobytes() == state.amps.tobytes()
        assert (snapshots[n].t, snapshots[n].dropped) == (state.t, state.dropped)
    assert final is snapshots[len(seq)]


def test_run_protocol_asserts_norm_ledger(params5, monkeypatch, tmp_path):
    # scale every pair map by 1.001 through the pair maps the plan takes
    # from the module
    exact = spinchain.propagator._pair_maps
    monkeypatch.setattr(spinchain.propagator, "_pair_maps",
                        lambda *args: 1.001 * exact(*args))
    seq = cn_remote_protocol(params5, 0.0906)
    with pytest.raises(RuntimeError, match="norm ledger defect"):
        run_protocol(basis_state(0, 5), seq, params5, P_drop=1e-6)
    # a length sweep runs only its longest chain, and checks the ledger at
    # every length's snapshot: the first fails after chain 4's five pulses
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("preset=fig2\nL_min=4\nL_max=8\n")
    with pytest.raises(RuntimeError, match="norm ledger defect .* after 5 pulses"):
        main(["sweep-length", "--config", str(cfg), "--out", str(tmp_path)])
    assert not list(tmp_path.glob("*.csv"))


def test_norm_ledger_measured_from_initial_norm(params5):
    # a start state off by 5e-10 in norm, inside the 1e-9 that the config
    # boundary accepts for alpha and beta
    seq = cn_remote_protocol(params5, 0.0906)
    off = math.sqrt(1 + 5e-10)
    initial = SparseState.from_amplitudes({0b00000: 0.6 * off, 0b10000: 0.8 * off}, 5)
    final, _ = run_protocol(initial, seq, params5, P_drop=1e-6)
    assert abs(final.total_probability() + final.dropped - (1 + 5e-10)) <= 1e-12


@pytest.mark.parametrize("Omega", [0.0906, 0.20844])
def test_shorter_chain_is_a_prefix_of_the_longest(Omega):
    # pulse i of every chain flips the same spin, counted from the control
    # end, at the same detunings, and spins beyond a shorter chain's end are
    # never flipped: chain L after each of its pulses is chain 70 after the
    # same pulse, keys shifted right by 70 - L, bit for bit
    longest = ChainParams(L=70)
    seq = cn_remote_protocol(longest, Omega)
    snapshots = {}
    final, _ = run_protocol(basis_state(0, 70), seq, longest,
                            P_drop=1e-6, snapshot_at=range(1, len(seq) + 1),
                            on_snapshot=snapshots.__setitem__)
    assert sorted(snapshots) == list(range(1, len(seq) + 1))
    assert snapshots[len(seq)] is final
    for L in (3, 4, 6, 10, 63, 64, 65):
        params = ChainParams(L=L)
        shift = 70 - L
        state = basis_state(0, L)
        for n, pulse in enumerate(cn_remote_protocol(params, Omega).pulses, start=1):
            state = run_pulse(state, pulse, params, P_drop=1e-6)
            big = snapshots[n]
            assert all(s & ((1 << shift) - 1) == 0 for s in big.amplitudes)
            assert state.amplitudes == {s >> shift: c for s, c in big.amplitudes.items()}
            assert state.t == big.t and state.dropped == big.dropped


def test_run_protocol_rejects_snapshot_outside_the_run(params5):
    seq = cn_remote_protocol(params5, 0.0906)
    for n in (0, len(seq) + 1):
        with pytest.raises(ValueError, match="snapshot"):
            run_protocol(basis_state(0, 5), seq, params5,
                         P_drop=1e-6, snapshot_at=[n], on_snapshot=lambda n, state: None)


def test_run_protocol_rejects_snapshot_without_callback(params5):
    seq = cn_remote_protocol(params5, 0.0906)
    with pytest.raises(ValueError, match="on_snapshot"):
        run_protocol(basis_state(0, 5), seq, params5,
                     P_drop=1e-6, snapshot_at=[2])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_census_of_top_spins_reads_keys_in_place(data):
    big = data.draw(st.one_of(st.integers(2, 200), st.sampled_from([64, 65, 128, 129])))
    L = data.draw(st.one_of(st.integers(1, big),
                            st.sampled_from([big - s for s in (0, 1, 63, 64, 65, 128)
                                             if big - s >= 1])))
    rnd = data.draw(st.randoms(use_true_random=False))
    shift = big - L
    # chain L's ideal states and target-only flip, then random keys of chain L
    top = 1 << (L - 1)
    states = set(data.draw(st.lists(st.sampled_from([0, top | 1, top, 1]), max_size=4)))
    states |= {rnd.getrandbits(L) for _ in range(data.draw(st.integers(0, 10)))}
    amps = {s: complex(i + 1, -i) / 16 for i, s in enumerate(sorted(states))}
    threshold = data.draw(st.sampled_from([1e-6, 0.01, 0.1]))
    shifted = {s << shift: c for s, c in amps.items()}
    state = SparseState.from_amplitudes(shifted, big)
    short = SparseState.from_amplitudes(amps, L)
    census = unwanted_census(state, threshold=threshold, L=L)
    expect = unwanted_census(short, threshold=threshold)
    assert (len(census.probabilities), census.p1_total, census.p1_target) == (
        len(expect.probabilities), expect.p1_total, expect.p1_target)
    assert census.probabilities.tobytes() == expect.probabilities.tobytes()
    # the tallied rows are the big state's own, as wide as its keys
    assert census.keys.shape[1] == state.keys.shape[1]
    assert [s >> shift for s in _unpack(census.keys)] == _unpack(expect.keys)
    if shift:
        low = 1 << rnd.randrange(shift)
        flipped = SparseState.from_amplitudes({**shifted, low: 1j}, big)
        with pytest.raises(ValueError, match="spins below the top"):
            unwanted_census(flipped, threshold=threshold, L=L)
    for outside in (0, big + 1):
        with pytest.raises(ValueError, match="prefix length"):
            unwanted_census(state, threshold=threshold, L=outside)


def test_p_drop_validation(params5):
    pulse = Pulse(nu=params5.omega0, Omega=0.1, tau=1.0)
    with pytest.raises(ValueError):
        run_protocol(basis_state(0, 5),
                     sequence(pulse), params5, P_drop=1.0)


@pytest.mark.parametrize("L", [8, 70])
def test_run_protocol_rejects_a_state_of_another_length(L):
    # a 5-spin state under a longer chain's protocol would be read as that
    # chain's low spins, or index past its key columns
    params = ChainParams(L=L)
    seq = cn_remote_protocol(params, 0.0906)
    with pytest.raises(ValueError, match=f"state has L=5, params have L={L}"):
        run_protocol(basis_state(0, 5), seq, params, P_drop=1e-6)


def test_run_of_no_pulses_returns_its_input(params5):
    # the plan of an empty sequence is empty, and nothing is applied
    initial = SparseState(keys=SparseState.from_amplitudes({0b10000: 0, 0b00110: 0}, 5).keys,
                          amps=np.array([0.6, -0.8j]), L=5, t=12.5, dropped=1e-7)
    final, report = run_protocol(initial, sequence(), params5, P_drop=1e-6)
    assert final.keys.tobytes() == initial.keys.tobytes()
    assert final.amps.tobytes() == initial.amps.tobytes()
    assert (final.L, final.t, final.dropped) == (5, 12.5, 1e-7)
    assert report.active_states == [] and report.dropped_cumulative == []


def test_no_pruning_conserves_norm(params5):
    final, _ = ground_run(5, 0.0906, P_drop=0.0)
    assert final.total_probability() == pytest.approx(1.0, abs=1e-10)
    assert final.dropped < 1e-12


def test_dropped_ledger_monotone_and_exact():
    final, report = ground_run(8, 0.0906, P_drop=1e-6)
    assert all(b >= a for a, b in zip(report.dropped_cumulative,
                                      report.dropped_cumulative[1:]))
    assert final.dropped > 0
    assert final.total_probability() + final.dropped == pytest.approx(1.0, abs=1e-12)


def test_from_amplitudes_checks_its_states_and_chain():
    # the one constructor of a sparse state: every state within L >= 1 spins
    with pytest.raises(ValueError, match="state 32 out of range for L=5"):
        SparseState.from_amplitudes({0: 0.6, 1 << 5: 0.8}, 5)
    with pytest.raises(ValueError, match="state -1 out of range for L=5"):
        SparseState.from_amplitudes({-1: 1.0}, 5)
    for L in (0, -1):
        with pytest.raises(ValueError, match=f"need at least one qubit, got L={L}"):
            SparseState.from_amplitudes({0: 1.0}, L)
    one = SparseState.from_amplitudes({1: 1.0}, 1)
    assert one.keys.tolist() == [[1]] and one.amplitudes == {1: 1.0}


def test_run_protocol_resonant_branch(params5):
    params = params5
    seq = cn_remote_protocol(params, 0.0906)
    traj = cn_trajectory(params)
    final, report = run_protocol(basis_state(traj[0], params.L), seq, params, P_drop=0.0)
    assert probability(final, traj[-1]) >= 1 - 1e-10
    assert len(report.active_states) == len(seq)
    assert report.wall_time > 0


def test_run_protocol_splits_superposition(params5):
    alpha, beta = 0.6, 0.8
    seq = cn_remote_protocol(params5, 0.0906)
    initial = SparseState.from_amplitudes({0b00000: alpha, 0b10000: beta}, 5)
    final, _ = run_protocol(initial, seq, params5, P_drop=0.0)
    # no pulse addresses the control spin, so the two sectors never mix
    assert probability(final, 0b10001) == pytest.approx(beta**2, abs=1e-8)
    control_sector = sum(p for s, p in zip(_unpack(final.keys),
                                           final.probability_array().tolist())
                         if s >> 4)
    assert control_sector == pytest.approx(beta**2, abs=1e-12)


def test_suppression_window_run_has_no_visible_unwanted_states():
    # at the k=50 zero of eps near Omega=0.02 both pulse errors are below
    # P0, and the whole protocol leaves nothing above P0 on the ground branch
    omega = suppression_rabi(2.0, 50)
    assert max(ground_branch_errors(omega, 1.0)) < 1e-6
    final, _ = ground_run(6, omega, P_drop=0.0)
    unwanted = {s: p for s, p in zip(_unpack(final.keys), final.probability_array().tolist())
                if s != 0}
    assert unwanted
    assert max(unwanted.values()) < 1e-6


def test_census_counts_and_families():
    L = 8
    final, _ = ground_run(L, 0.0906)
    census = unwanted_census(final, threshold=1e-6)
    table = census_table(census)
    assert len(census.probabilities) == 2 * L - 3
    family_a, family_b = first_order_states(L)
    assert {s for s, _ in table} == set(family_a + family_b)
    assert census.p1_total == pytest.approx(sum(p for _, p in table))
    # target-flipped subset is exactly family A
    expect_cal = sum(p for s, p in table if bit(s, 0, L) == 1 and bit(s, L - 1, L) == 0)
    assert census.p1_target == pytest.approx(expect_cal)
    assert census.p1_target < census.p1_total
    # table sorted by descending probability
    probs = [p for _, p in table]
    assert probs == sorted(probs, reverse=True)


def test_census_of_resonant_branch_is_empty(params5):
    # the resonant branch parks everything on the gate target, which is a
    # wanted state
    seq = cn_remote_protocol(params5, 0.0906)
    final, _ = run_protocol(basis_state(0b10000, 5),
                            seq, params5, P_drop=0.0)
    census = unwanted_census(final, threshold=1e-6)
    assert len(census.probabilities) == 0

    ground_final, _ = ground_run(5, 0.0906, P_drop=1e-6)
    census2 = unwanted_census(ground_final, threshold=0.9)  # nothing that big
    assert len(census2.probabilities) == 0


@st.composite
def census_case(draw):
    L = draw(st.one_of(st.sampled_from([63, 64, 65, 129, 257, 400]), st.integers(3, 140)))
    rnd = draw(st.randoms(use_true_random=False))
    top = 1 << (L - 1)
    # the two wanted outputs, the two single flips of control and target,
    # other single flips, and random keys over all L bits
    support = set(draw(st.lists(st.sampled_from([0, top | 1, top, 1]), max_size=4)))
    support |= {1 << rnd.randrange(L) for _ in range(draw(st.integers(0, 3)))}
    support |= {rnd.getrandbits(L) for _ in range(draw(st.integers(0, 12)))}
    support = sorted(support or {0})
    levels = st.sampled_from([1e-7, 1e-6, 3e-6, 1e-3, 0.25])

    def amplitude():
        if draw(st.booleans()):  # real or imaginary at a level: probabilities tie
            a = math.sqrt(draw(levels))
            return complex(a, 0) if draw(st.booleans()) else complex(0, -a)
        return complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)))

    amps = {s: amplitude() for s in support}
    rnd.shuffle(support)
    state = SparseState.from_amplitudes({s: amps[s] for s in support}, L)
    return state, draw(st.sampled_from([1e-7, 1e-6, 2e-6, 0.01]))


@settings(max_examples=300, deadline=None)
@given(census_case())
def test_array_census_matches_bitstring_census(case):
    state, threshold = case
    count, p1, p1cal, rows = census_bitstring(state, threshold)
    census = unwanted_census(state, threshold=threshold)
    assert (len(census.probabilities), census.p1_total, census.p1_target) == (
        count, p1, p1cal)
    assert census_table(census) == rows
    # the written tables, rows rendered from the key arrays, in the order of
    # the bitstring census and of a sort of (-probability, bitstring)
    with tempfile.TemporaryDirectory() as tmp:
        _write_states(Path(tmp, "census.csv"), census.keys, state.L, census.probabilities,
                      probability=census.probabilities)
        write_state_csv(state, Path(tmp, "state.csv"))
        census_csv = Path(tmp, "census.csv").read_text()
        state_csv = Path(tmp, "state.csv").read_text()
    assert census_csv == "".join(f"{row}\n" for row in ["state,probability"] + [
        f"{s:0{state.L}b},{p!r}" for s, p in rows])
    labels = [format(s, f"0{state.L}b") for s in _unpack(state.keys)]
    expect = sorted(zip(labels, state.probability_array().tolist(), state.amps.tolist()),
                    key=lambda r: (-r[1], r[0]))
    assert state_csv == "".join(f"{row}\n" for row in [
        "state,probability,amplitude_re,amplitude_im"] + [
        f"{s},{p!r},{c.real!r},{c.imag!r}" for s, p, c in expect])


@pytest.mark.parametrize("L", [1, 63, 64, 65, 128, 129])
@pytest.mark.parametrize("rows", [None, 4096], ids=["one-block", "row-blocks"])
def test_bitstrings_equal_format(L, rows):
    # the view's length is the row count, and a slice renders its rows:
    # read whole or in the 4096-row slices that write_csv takes, and sliced
    # empty, one row, and from and to rows inside and across those slices
    rng = np.random.default_rng(L)
    states = [0, (1 << L) - 1, 1, 1 << (L - 1)]
    states += [int.from_bytes(rng.bytes(17), "little") % (1 << L) for _ in range(2 * 4096 + 60)]
    labels, expect = bitstrings(pack_keys(states, L), L), [format(s, f"0{L}b") for s in states]
    n = len(states)
    assert len(labels) == n
    step = rows or n
    assert [s for start in range(0, n, step) for s in labels[start:start + step]] == expect
    for start, stop in [(0, 0), (4096, 4096), (n, n), (0, 1), (4095, 4096), (4096, 4097),
                        (n - 1, n), (10, 4000), (4000, 4100), (4095, 8193), (1, n - 1)]:
        assert labels[start:stop] == expect[start:stop], (start, stop)
    assert len(bitstrings(pack_keys([], L), L)) == 0
    assert bitstrings(pack_keys([], L), L)[:] == []


@pytest.mark.parametrize("L", [25, 50, 100])
def test_active_state_count_stays_quadratic(L):
    # eps2 < eps < eps3 regime; the paper-level bound is c*L^2
    final, report = ground_run(L, 0.20844, P_drop=1e-6)
    assert max(report.active_states) <= L * L


@pytest.mark.parametrize("Omega", [0.0906, 0.20844])
@pytest.mark.parametrize("L", range(3, 41))
def test_unpruned_orbit_closes_at_two_runs(L, Omega):
    # a resonant pulse flips with certainty (its residue, 3.7e-33, falls
    # below AMPLITUDE_FLOOR) and an off-resonant one adds at most one flip,
    # so from |0...0> the map reaches the ground state, the 2L - 3 one-run
    # states and the C(L - 2, 2) two-run states, and no more
    final, report = ground_run(L, Omega, P_drop=0.0)
    assert len(final.amps) == max(report.active_states) == ground_orbit(L)
    assert all(bin(s & ~(s << 1)).count("1") <= 2 for s in _unpack(final.keys))
    # the control branch is one state after every pulse, ending on |10...01>
    params = ChainParams(L=L)
    final, report = bounded_run(SparseState.from_amplitudes({1 << (L - 1): 1.0}, L),
                                cn_remote_protocol(params, Omega), params, 0.0, 1)
    assert report.active_states == [1] * (2 * L - 3)
    assert _unpack(final.keys) == [(1 << (L - 1)) | 1]


def _ground_amplitude(state: SparseState) -> complex:
    [c0] = state.amps[~state.keys.any(axis=1)].tolist()
    return c0


@pytest.mark.parametrize("Omega", [0.0906, 0.20844, suppression_rabi(2.0, 11)])
@pytest.mark.parametrize("L", [3, 4, 5, 10, 20, 50, 100])
def test_ground_amplitude_is_the_product_of_its_rotations(L, Omega):
    # every pulse is off-resonant on |0...0> and its partner never holds
    # amplitude, so the map's ground amplitude is the product of the
    # pulses' rotation factors K_mm, which carry no frame phase: its
    # probability is the resummed prod (1 - eps_i), the third pulse's at
    # 4J, and its phase the sum of the factors' arguments, which the k = 11
    # zero of eps does not remove
    params = ChainParams(L=L)
    seq = cn_remote_protocol(params, Omega)
    final, _ = ground_run(L, Omega, P_drop=0.0)
    c0 = _ground_amplitude(final)
    K = ground_branch_rotations(seq, params)
    eps = [epsilon(Omega, delta, tau) for delta, tau in
           zip(ground_branch_signed_detunings(seq, params), seq.tau.tolist())]
    assert abs(c0 - math.prod(K)) <= 1e-14
    assert abs(abs(c0) ** 2 - math.prod(1.0 - e for e in eps)) <= 1e-12
    phase = ground_branch_phase(seq, params)
    assert abs(math.remainder(cmath.phase(c0) - phase, 2 * math.pi)) <= 1e-12
    assert all(abs(1.0 - abs(k) ** 2 - e) <= 1e-15 for k, e in zip(K, eps))


def test_ground_survival_leaves_first_order_behind():
    # at L = 100, Omega = 0.20844 the resummed 1 - prod (1 - eps_i) that
    # the map gives is 0.44397; the first-order sum stops at 0.41544
    final, _ = ground_run(100, 0.20844, P_drop=0.0)
    assert 1.0 - abs(_ground_amplitude(final)) ** 2 == pytest.approx(0.44397, abs=5e-6)
    eps, _ = ground_branch_errors(0.20844, 1.0)
    assert p1_total(100, eps) == pytest.approx(0.41544, abs=5e-6)


def test_run_protocol_applies_each_pulse_through_the_module_kernel(monkeypatch):
    # perfbench traces the kernel by replacing `spinchain.propagator.apply_pulse`
    # and reads each call's pulse.nu, so run_protocol must call it by that
    # name, once per pulse, with the pulse it plans
    L = 10
    params = ChainParams(L=L)
    seq = cn_remote_protocol(params, 0.0906)
    kernel, carriers = spinchain.propagator.apply_pulse, []

    def traced(state, pulse, *args, **kwargs):
        carriers.append(pulse.nu)
        return kernel(state, pulse, *args, **kwargs)

    monkeypatch.setattr(spinchain.propagator, "apply_pulse", traced)
    run_protocol(basis_state(0, L), seq, params, P_drop=1e-6)
    assert carriers == seq.nu.tolist()


@pytest.mark.parametrize("Omega", [0.0906, 0.20844])
@pytest.mark.parametrize("L", range(3, 31))
def test_classical_orbit_is_the_maps_key_set(L, Omega):
    # from |0...0> the map reaches exactly the classical pass's states, and
    # each state's count of off-resonant flips is its number of runs of 1s:
    # every correlated error of the map is two single flips, never more
    params = ChainParams(L=L)
    orbit = classical_orbit(cn_remote_protocol(params, Omega), params, 0)
    final, _ = ground_run(L, Omega, P_drop=0.0)
    assert set(orbit) == set(_unpack(final.keys))
    assert all(flips == bin(s & ~(s << 1)).count("1") <= 2 for s, flips in orbit.items())


def test_pulse_splitting_composes_exactly(params5):
    # tau/2 twice == tau once for every pair the pulse touches
    seq = cn_remote_protocol(params5, 0.0906)
    pulse = seq.pulses[0]
    half = Pulse(nu=pulse.nu, Omega=pulse.Omega, tau=pulse.tau / 2)
    initial = SparseState.from_amplitudes(
        {0b00000: 0.5, 0b10000: 0.5, 0b01010: 0.5, 0b00110: 0.5}, 5)
    once = run_pulse(initial, pulse, params5, P_drop=0.0)
    twice = run_pulse(run_pulse(initial, half, params5, P_drop=0.0),
                      half, params5, P_drop=0.0)
    assert set(once.amplitudes) == set(twice.amplitudes)
    for s, c in once.amplitudes.items():
        assert twice.amplitudes[s] == pytest.approx(c, abs=1e-10)


def test_total_variation_distance():
    assert total_variation_distance(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0
    assert total_variation_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert total_variation_distance(np.array([0.75, 0.25]), np.array([0.5, 0.5])) == 0.25


def test_state_and_report_csv(tmp_path):
    final, report = ground_run(4, 0.0906)
    spath = tmp_path / "state.csv"
    write_state_csv(final, spath)
    with open(spath, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["state", "probability", "amplitude_re", "amplitude_im"]
    assert rows[1][0] == "0000"  # ground dominates
    probs = [float(r[1]) for r in rows[1:]]
    assert probs == sorted(probs, reverse=True)
    for r in rows[1:]:
        assert float(r[1]) == pytest.approx(float(r[2])**2 + float(r[3])**2)

    rpath = tmp_path / "report.csv"
    write_report_csv(report, rpath)
    with open(rpath, newline="") as fh:
        rrows = list(csv.reader(fh))
    assert rrows[0] == ["pulse_index", "active_states", "dropped_cumulative"]
    assert len(rrows) - 1 == 5  # 2L-3 pulses
    assert [int(r[0]) for r in rrows[1:]] == [1, 2, 3, 4, 5]
