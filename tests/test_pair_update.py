import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from oracles import pair_map, pair_map_closed_form, pair_update, two_level_ode

# the spec grid for map-vs-ODE agreement
RATIOS = (0.0, 0.5, 1.0, 2.0, 10.0)
AREAS = (math.pi / 2, math.pi, 2 * math.pi, 5 * math.pi)
STARTS = (0.0, 7.3)


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("area", AREAS)
@pytest.mark.parametrize("t0", STARTS)
def test_reproduces_closed_form_from_lower_level(ratio, area, t0):
    Omega = 1.0
    Delta, tau = ratio * Omega, area / Omega
    cm, cp = pair_update(1.0, 0.0, Delta, Omega, tau, t0)
    cm_ref, cp_ref = pair_map_closed_form(Delta, Omega, tau, t0)
    assert cm == pytest.approx(cm_ref, abs=1e-12)
    assert cp == pytest.approx(cp_ref, abs=1e-12)


def test_resonant_pi_pulse_transfers_fully():
    cm, cp = pair_update(1.0, 0.0, Delta=0.0, Omega=1.0, tau=math.pi, t_start=0.0)
    assert abs(cm) < 1e-12
    assert cp == pytest.approx(1j, abs=1e-12)
    assert abs(cp) == pytest.approx(1.0, abs=1e-12)


def test_full_rabi_cycle_returns_with_sign_flip():
    cm, cp = pair_update(1.0, 0.0, Delta=0.0, Omega=1.0, tau=2 * math.pi, t_start=0.0)
    assert cm == pytest.approx(-1.0, abs=1e-12)
    assert abs(cp) < 1e-12


def test_detuned_pi_pulse_transfer_probability_anchor():
    # Omega=0.0906, |Delta|=2J: transfer probability 4.78e-5
    Omega = 0.0906
    _, cp = pair_update(1.0, 0.0, Delta=2.0, Omega=Omega, tau=math.pi / Omega, t_start=0.0)
    assert abs(cp) ** 2 == pytest.approx(4.78e-5, rel=0.01)


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("area", AREAS)
@pytest.mark.parametrize("t0", STARTS)
def test_matches_ode_integration_componentwise(ratio, area, t0):
    Omega = 1.0
    Delta, tau = ratio * Omega, area / Omega
    for init in [(1.0, 0.0), (0.0, 1.0),
                 (0.6 * cmath.exp(0.7j), 0.8 * cmath.exp(-1.9j))]:
        got = pair_update(init[0], init[1], Delta, Omega, tau, t0)
        ref = two_level_ode(init[0], init[1], Delta, Omega, tau, t0)
        assert got[0] == pytest.approx(ref[0], abs=1e-8)
        assert got[1] == pytest.approx(ref[1], abs=1e-8)


def test_zero_coupling_zero_detuning_is_identity():
    cm, cp = pair_update(0.3 + 0.1j, 0.2 - 0.5j, Delta=0.0, Omega=0.0, tau=2.0, t_start=1.0)
    assert cm == 0.3 + 0.1j
    assert cp == 0.2 - 0.5j


amp = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
freq = st.floats(-25.0, 25.0)
pos = st.floats(0.01, 50.0)


@settings(max_examples=200)
@given(cm=amp, cp=amp, Delta=freq, Omega=st.floats(0.0, 10.0), tau=pos, t0=st.floats(0.0, 100.0))
def test_update_is_unitary(cm, cp, Delta, Omega, tau, t0):
    out_m, out_p = pair_update(cm, cp, Delta, Omega, tau, t0)
    before = abs(cm) ** 2 + abs(cp) ** 2
    after = abs(out_m) ** 2 + abs(out_p) ** 2
    assert after == pytest.approx(before, abs=1e-10)


@settings(max_examples=200)
@given(Delta=freq, Omega=st.floats(0.0, 10.0), tau=pos, t0=st.floats(0.0, 100.0))
def test_pair_coefficients_are_unitary(Delta, Omega, tau, t0):
    K_mm, K_mp, K_pm, K_pp = pair_map(Delta, Omega, tau, t0)
    assert abs(K_mm) ** 2 + abs(K_pm) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert abs(K_mp) ** 2 + abs(K_pp) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert abs(K_mm * K_mp.conjugate() + K_pm * K_pp.conjugate()) < 1e-12


@settings(max_examples=100)
@given(cm=amp, cp=amp, Delta=freq, Omega=st.floats(0.01, 10.0),
       tau1=pos, tau2=pos, t0=st.floats(0.0, 20.0))
def test_composition_of_two_segments(cm, cp, Delta, Omega, tau1, tau2, t0):
    # pulse(tau1) then pulse(tau2) at the same carrier equals pulse(tau1+tau2)
    mid = pair_update(cm, cp, Delta, Omega, tau1, t0)
    two = pair_update(mid[0], mid[1], Delta, Omega, tau2, t0 + tau1)
    one = pair_update(cm, cp, Delta, Omega, tau1 + tau2, t0)
    assert two[0] == pytest.approx(one[0], abs=1e-10)
    assert two[1] == pytest.approx(one[1], abs=1e-10)
