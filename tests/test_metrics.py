import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdrepeater.cavity import IDEAL, CavityParams, resonant_coeffs
from qdrepeater.metrics import (
    REFERENCE_RUNS,
    CrosscheckReport,
    chain_analytic,
    crosscheck,
    distribution_metrics,
    extension_metrics,
    pcd_metrics,
    purification_metrics,
)
from qdrepeater.protocols import (
    ChainScenario,
    SegmentSpec,
    distribute_bell,
    extend_chain,
    pcd,
    phi_minus,
    purify_analytic,
    purify_round,
    uniform_spins,
)
from qdrepeater.timebin import NoiseChannel

from conftest import random_coeffs

QUIET = NoiseChannel.identity()


def at(g, ks, gamma=0.1, delta=0.0):
    return resonant_coeffs(CavityParams(g=g, kappa_s=ks, gamma=gamma, delta=delta))


# --- reference working points --------------------------------------------------

def test_moderate_coupling_with_leakage():
    m = distribution_metrics(at(1.2, 0.2))
    assert m.f_even == pytest.approx(0.991, abs=1e-3)
    assert m.eta_d == pytest.approx(0.770, abs=1e-3)
    assert m.f_odd == 1.0


def test_moderate_coupling_without_leakage():
    m = distribution_metrics(at(1.2, 0.0))
    assert m.f_even == pytest.approx(0.998, abs=1e-3)


def test_strong_coupling_efficiency():
    m = distribution_metrics(at(2.4, 0.0))
    assert m.eta_d == pytest.approx(0.983, abs=1e-3)


def test_even_odd_split_at_reference_point():
    m = distribution_metrics(at(1.2, 0.2))
    assert m.eta_d_even == pytest.approx(0.3866802, abs=5e-7)
    assert m.eta_d_odd == pytest.approx(0.3833780, abs=5e-7)


def test_ideal_coefficients_are_lossless():
    m = distribution_metrics(IDEAL)
    assert m.eta_d == pytest.approx(1.0)
    assert m.f_even == pytest.approx(1.0)
    assert m.eta_d_even == pytest.approx(0.5)
    assert m.eta_d_odd == pytest.approx(0.5)


def test_uncoupled_point():
    m = distribution_metrics(at(0.0, 0.1))
    assert m.eta_d_odd == 0.0
    assert m.f_even == 0.0
    p = pcd_metrics(at(0.0, 0.1))
    assert p.eta_d_odd == 0.0
    assert p.f_even == 0.0


#: g = 0 gives t = t0, so the odd branch heralds nothing; kappa_s = 2 then
#: gives t = t0 = -1/2, so the even branch heralds nothing either
@pytest.mark.parametrize("ks,f_even", [pytest.param(0.1, 0.0, id="odd-dead"), pytest.param(2.0, None, id="both-dead")])
def test_a_branch_that_heralds_nothing_has_no_fidelity_in_closed_form_or_simulation(ks, f_even):
    coeffs = at(0.0, ks)
    for closed_form, even_detections, simulate in REFERENCE_RUNS.values():
        m = closed_form(coeffs)
        assert (m.f_even, m.f_odd) == (f_even, None)
        for out in simulate(coeffs, 1.0):
            f = m.f_even if out.detection in even_detections else m.f_odd
            assert out.fidelity == f
    forms = extension_metrics(coeffs)
    outcomes = extend_chain(phi_minus(("x", "z")), phi_minus(("zp", "d")), ("z", "zp"), coeffs, 1.0)
    for out in outcomes:
        assert forms[out.detection][1] == out.fidelity == (f_even if out.detection.startswith("even") else None)


# --- structure ------------------------------------------------------------------

def test_total_is_even_plus_odd(rng):
    for _ in range(50):
        m = distribution_metrics(random_coeffs(rng))
        assert m.eta_d == pytest.approx(m.eta_d_even + m.eta_d_odd, abs=1e-12)
        assert 0.0 <= m.eta_d <= 1.0 + 1e-12
        assert 0.0 <= m.f_even <= 1.0 + 1e-12


def test_pcd_metrics_track_distribution_metrics(rng):
    for _ in range(20):
        sc = random_coeffs(rng)
        d = distribution_metrics(sc)
        p = pcd_metrics(sc)
        assert p.eta_d_even == d.eta_d_even
        assert p.eta_d_odd == d.eta_d_odd
        assert p.eta_d == d.eta_d
        assert p.f_even == d.f_even
        assert p.f_odd == 1.0


def test_input_coupling_adjustments():
    d = distribution_metrics(IDEAL, eta_in=0.9)
    p = pcd_metrics(IDEAL, eta_in=0.9)
    assert d.eta_in_adjusted == pytest.approx(0.81)   # two photon passes
    assert p.eta_in_adjusted == pytest.approx(0.9)    # one photon pass
    assert distribution_metrics(IDEAL).eta_in_adjusted is None


@pytest.mark.parametrize("metrics,passes,eta_in", [(distribution_metrics, 2, 1e-160), (pcd_metrics, 1, 1e-310)])
def test_input_coupling_below_the_normal_range_reads_zero(metrics, passes, eta_in):
    # eta * eta_in ** passes is subnormal; it reads 0, as every simulated
    # probability at that eta_in does
    coeffs = at(1.2, 0.2)
    assert 0.0 < metrics(coeffs).eta_d * eta_in ** passes < sys.float_info.min
    if passes == 2:
        outcomes = distribute_bell(QUIET, QUIET, coeffs, coeffs, eta_in=eta_in)
    else:
        outcomes = pcd(uniform_spins(("e1", "e2")), "e1", "e2", coeffs, eta_in=eta_in)
    assert metrics(coeffs, eta_in=eta_in).eta_in_adjusted == 0.0 == sum(o.probability for o in outcomes)


def test_performance_improves_with_coupling_without_leakage():
    previous_f, previous_eta = 0.0, 0.0
    for g in np.linspace(0.6, 3.0, 13):
        m = distribution_metrics(at(float(g), 0.0))
        assert m.f_even >= previous_f - 1e-12
        assert m.eta_d >= previous_eta - 1e-12
        previous_f, previous_eta = m.f_even, m.eta_d
    assert previous_f > 0.99
    assert previous_eta > 0.98


def test_fidelity_floor_on_the_working_region():
    worst = 1.0
    for g in np.linspace(0.6, 3.0, 15):
        for ks in np.linspace(0.0, 0.2, 9):
            worst = min(worst, distribution_metrics(at(float(g), float(ks))).f_even)
    assert worst > 0.948


# --- simulation crosscheck ---------------------------------------------------------

def test_crosscheck_ideal_is_exact():
    report = crosscheck(IDEAL)
    assert report.ok
    assert report.max_deviation < 1e-12


def test_crosscheck_reference_point():
    report = crosscheck(at(1.2, 0.2))
    assert report.ok
    assert report.max_deviation < 1e-10
    assert any(r.quantity.startswith("pcd") for r in report.rows)
    assert any(r.quantity.startswith("distribute") for r in report.rows)


def test_crosscheck_random_points(rng):
    for _ in range(5):
        report = crosscheck(random_coeffs(rng))
        assert report.ok, max(report.rows, key=lambda r: r.deviation)


def test_crosscheck_threshold_is_strict():
    assert CrosscheckReport.THRESHOLD == 1e-10


# --- extension and purification at any node ------------------------------------

@st.composite
def _node(draw):
    """Coefficients of a random, possibly detuned node; g = 0 is the uncoupled cavity."""
    return resonant_coeffs(CavityParams(g=draw(st.floats(0.0, 3.0)), kappa_s=draw(st.floats(0.0, 0.3)),
                                        gamma=draw(st.floats(0.02, 0.5)), delta=draw(st.floats(-1.0, 1.0))))


@given(_node(), st.floats(0.5, 1.0, exclude_min=True))
@example(IDEAL, 1.0)
@settings(max_examples=60, deadline=None)
def test_extension_of_two_perfect_pairs_matches_its_closed_form(coeffs, eta_in):
    forms = extension_metrics(coeffs, eta_in)
    outcomes = extend_chain(phi_minus(("x", "z")), phi_minus(("zp", "d")), ("z", "zp"), coeffs, eta_in)
    assert [o.detection for o in outcomes] == list(forms)
    for o in outcomes:
        p, f = forms[o.detection]
        assert o.probability == pytest.approx(p, abs=1e-10)
        if o.post_state is not None:
            assert o.fidelity == pytest.approx(f, abs=1e-10)


@given(st.floats(0.0, 1.0), _node())
@example(0.0, IDEAL)
@example(1.0, IDEAL)
@example(0.7, resonant_coeffs(CavityParams(g=0.0, kappa_s=0.1)))
@settings(max_examples=60, deadline=None)
def test_one_purification_round_matches_its_closed_form(mu, coeffs):
    state, _ = purify_round(mu, coeffs)
    form = purification_metrics(mu, coeffs)
    assert form.round == state.round == 1
    assert form.success_probability == pytest.approx(state.success_probability, abs=1e-10)
    assert form.mu == pytest.approx(state.mu, abs=1e-10)


@pytest.mark.parametrize("mu", [0.0, 0.3, 0.7, 1.0])
def test_purification_closed_form_reduces_to_the_ideal_recursion(mu):
    (ideal,) = purify_analytic(mu, 1)
    form = purification_metrics(mu, IDEAL)
    assert form.success_probability == pytest.approx(ideal.success_probability, abs=1e-15)
    assert form.mu == pytest.approx(ideal.mu, abs=1e-15)


def test_purification_closed_form_rejects_mu_outside_the_unit_interval():
    with pytest.raises(ValueError, match="outside"):
        purification_metrics(1.5, IDEAL)


def test_chain_analytic_rejects_a_segment_at_a_practical_node():
    nodes = {"A": IDEAL, "B": IDEAL, "C": at(1.2, 0.2), "D": at(2.4, 0.1)}
    # an unused practical node leaves the chain ideal
    assert chain_analytic(ChainScenario(nodes, [SegmentSpec("AB", "A", "B")])) == [(1.0, 1.0)]
    scenario = ChainScenario(nodes, [SegmentSpec("AB", "A", "B"), SegmentSpec("BC", "B", "C")])
    with pytest.raises(ValueError) as info:
        chain_analytic(scenario)
    assert str(info.value) == "segment BC: node 'C' is not ideal; the chain closed form holds for ideal nodes only"
