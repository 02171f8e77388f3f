import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdrepeater.cavity import (
    IDEAL,
    CavityParams,
    ScatterCoeffs,
    full_coeffs,
    probability_sum,
    resonant_coeffs,
)

params_strategy = st.builds(
    CavityParams,
    g=st.floats(0.0, 3.0),
    kappa_s=st.floats(0.0, 0.5),
    gamma=st.floats(0.01, 0.5),
    delta=st.floats(-5.0, 5.0),
)


# --- full four-channel response ---------------------------------------------

def test_strong_coupling_magnitudes():
    # g = 2.4, kappa_s = 0.1, gamma = 0.1, on resonance: denominator 116.25
    R, T, S, N = full_coeffs(CavityParams(g=2.4, kappa_s=0.1, gamma=0.1))
    assert abs(R) == pytest.approx(115.25 / 116.25, abs=1e-12)
    assert abs(T) == pytest.approx(1.0 / 116.25, abs=1e-12)
    assert abs(S) == pytest.approx(np.sqrt(0.1) / 116.25, abs=1e-12)
    assert abs(N) == pytest.approx(2.4 * np.sqrt(0.1) / 0.05 / 116.25, abs=1e-12)
    assert abs(R) ** 2 + abs(T) ** 2 + abs(S) ** 2 + abs(N) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_empty_cavity_transmits_fully():
    R, T, S, N = full_coeffs(CavityParams(g=0.0, kappa_s=0.0, gamma=0.1))
    assert R == pytest.approx(0.0, abs=1e-15)
    assert T == pytest.approx(-1.0, abs=1e-15)
    assert S == 0.0
    assert N == 0.0


def test_probability_sum_is_one_on_the_figure_grid():
    deltas = np.linspace(-5.0, 5.0, 101)
    for g in (0.0, 0.6, 1.2, 2.4):
        for ks in (0.0, 0.05, 0.15, 0.2):
            base = CavityParams(g=g, kappa_s=ks, gamma=0.1)
            for d in deltas:
                assert probability_sum(dataclasses.replace(base, delta=d)) == pytest.approx(1.0, abs=1e-12)


# --- resonant reduced coefficients -------------------------------------------

def test_reference_point_values():
    sc = resonant_coeffs(CavityParams(g=1.2, kappa_s=0.2, gamma=0.1))
    assert sc.t == pytest.approx(-10.0 / 299.0, abs=1e-12)       # denominator 29.9
    assert sc.r == pytest.approx(1.0 - 10.0 / 299.0, abs=1e-12)
    assert sc.t0 == pytest.approx(-10.0 / 11.0, abs=1e-12)
    assert sc.r0 == pytest.approx(1.0 / 11.0, abs=1e-12)


def test_cold_limit_without_leakage():
    sc = resonant_coeffs(CavityParams(g=0.0, kappa_s=0.0, gamma=0.1))
    assert sc.t0 == pytest.approx(-1.0, abs=1e-15)
    assert sc.r0 == pytest.approx(0.0, abs=1e-15)


def test_strong_coupling_reflection():
    sc = resonant_coeffs(CavityParams(g=2.4, kappa_s=0.0, gamma=0.1))
    assert sc.t == pytest.approx(-1.0 / 116.2, abs=1e-12)
    assert sc.r == pytest.approx(1.0 - 1.0 / 116.2, abs=1e-12)
    assert abs(sc.r - 1.0) < 0.01


@given(params_strategy)
@settings(max_examples=200, deadline=None)
def test_beam_splitter_identities(p):
    sc = resonant_coeffs(p)
    assert abs(sc.r - (1.0 + sc.t)) <= 1e-12
    assert abs(sc.r0 - (1.0 + sc.t0)) <= 1e-12


@given(params_strategy)
@settings(max_examples=100, deadline=None)
def test_coupled_channels_carry_unit_probability(p):
    sc = resonant_coeffs(p)
    total = abs(sc.r) ** 2 + abs(sc.t) ** 2 + abs(sc.s_leak) ** 2 + abs(sc.n_noise) ** 2
    assert total == pytest.approx(1.0, abs=1e-12)


def test_reflection_magnitude_is_even_in_detuning():
    p = CavityParams(g=2.4, kappa_s=0.1, gamma=0.1)
    for d in np.linspace(0.0, 5.0, 51):
        plus = resonant_coeffs(dataclasses.replace(p, delta=d))
        minus = resonant_coeffs(dataclasses.replace(p, delta=-d))
        assert abs(plus.r) == pytest.approx(abs(minus.r), abs=1e-12)
        assert abs(plus.t) == pytest.approx(abs(minus.t), abs=1e-12)


def test_cold_coefficients_match_uncoupled_full_response():
    sc = resonant_coeffs(CavityParams(g=1.2, kappa_s=0.15, gamma=0.1, delta=0.4))
    R0, T0, _, _ = full_coeffs(CavityParams(g=0.0, kappa_s=0.15, gamma=0.1, delta=0.4))
    assert sc.r0 == pytest.approx(R0, abs=1e-12)
    assert sc.t0 == pytest.approx(T0, abs=1e-12)


@given(params_strategy)
@settings(max_examples=100, deadline=None)
def test_resonant_coeffs_use_the_stored_detuning(p):
    # the hot amplitudes are the four-channel response at p.delta itself
    sc = resonant_coeffs(p)
    assert (sc.r, sc.t, sc.s_leak, sc.n_noise) == full_coeffs(p)
    R0, T0, _, _ = full_coeffs(dataclasses.replace(p, g=0.0))
    assert (sc.r0, sc.t0) == (R0, T0)


# --- validation ---------------------------------------------------------------

def test_invalid_rates_rejected():
    with pytest.raises(ValueError):
        CavityParams(g=-0.1)
    with pytest.raises(ValueError):
        CavityParams(g=1.0, kappa_s=-0.2)
    with pytest.raises(ValueError):
        CavityParams(g=1.0, gamma=0.0)


@pytest.mark.parametrize("field", ["g", "kappa_s", "gamma", "delta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_params_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        CavityParams(**{"g": 1.0, field: value})


@pytest.mark.parametrize("delta", [float("nan"), float("inf")])
def test_non_finite_detuning_rejected(delta):
    # detuning a validated cavity goes through the same checks
    with pytest.raises(ValueError, match="delta must be finite"):
        dataclasses.replace(CavityParams(g=1.0), delta=delta)


@pytest.mark.parametrize("params", [
    {"g": 1e160}, {"g": 1e200, "kappa_s": 0.2}, {"g": 1.2, "gamma": 1e-320}, {"g": 1.2, "gamma": 5e-324},
])
@pytest.mark.parametrize("response", [full_coeffs, resonant_coeffs, probability_sum])
def test_response_beyond_float_range_names_the_parameters(params, response):
    p = CavityParams(**params)
    with pytest.raises(ValueError, match=re.escape(f"cavity response of {p!r} is not finite")):
        response(p)


def test_cavity_params_fields():
    assert [f.name for f in dataclasses.fields(CavityParams)] == ["g", "kappa_s", "gamma", "delta"]


def test_scatter_coeffs_identity_enforced():
    with pytest.raises(ValueError):
        ScatterCoeffs(r=0.9, t=0.0, r0=0.0, t0=-1.0)
    with pytest.raises(ValueError):
        ScatterCoeffs(r=1.0, t=0.0, r0=0.2, t0=-1.0)


@pytest.mark.parametrize("field", ["r", "t", "r0", "t0", "s_leak", "n_noise"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_scatter_coeffs_reject_non_finite_amplitudes(field, value):
    amplitudes = {"r": 1.0, "t": 0.0, "r0": 0.0, "t0": -1.0, field: value}
    with pytest.raises(ValueError):
        ScatterCoeffs(**amplitudes)


def test_ideal_constant():
    assert IDEAL.r == 1.0 and IDEAL.t == 0.0
    assert IDEAL.r0 == 0.0 and IDEAL.t0 == -1.0
    assert IDEAL.hot_survival == pytest.approx(1.0)
