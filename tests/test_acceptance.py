"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints one PASS line when its checks hold; a failing assertion
marks the criterion FAIL.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from qdrepeater.cavity import IDEAL, CavityParams, full_coeffs, probability_sum, resonant_coeffs
from qdrepeater.cli import main
from qdrepeater.metrics import crosscheck, distribution_metrics, pcd_metrics
from qdrepeater.protocols import (
    distribute_bell,
    distribute_ghz,
    extend_chain,
    ghz_state,
    pcd,
    phi_minus,
    purify_analytic,
    purify_round,
    uniform_spins,
)
from qdrepeater.qstate import tensor
from qdrepeater.timebin import NoiseChannel

from conftest import random_symmetric

QUIET = NoiseChannel.identity()
EVEN = ("R↑R↑", "L↓L↓")
ODD = ("R↑L↓", "L↓R↑")

#: Coupling/leakage combinations of the coefficient figure: one leakage scan
#: at strong coupling, one coupling scan at moderate leakage.
FIG_COEFF_COMBOS = [(g, 0.1) for g in (0.0, 0.6, 1.2, 2.4)] + \
                   [(2.4, ks) for ks in (0.0, 0.05, 0.15, 0.2)]


def _report(num, desc):
    print(f"ACCEPTANCE {num}: PASS ({desc})")


def _random_point(rng):
    g = rng.uniform(0.1, 3.0)
    ks = rng.uniform(0.0, 0.3)
    gamma = rng.uniform(0.02, 0.5)
    return resonant_coeffs(CavityParams(g=g, kappa_s=ks, gamma=gamma))


def test_criterion_1_coefficient_unitarity():
    start = time.perf_counter()
    deltas = np.linspace(-5.0, 5.0, 101)
    worst = 0.0
    for g, ks in FIG_COEFF_COMBOS:
        for d in deltas:
            worst = max(worst, abs(probability_sum(CavityParams(g=g, kappa_s=ks, gamma=0.1, delta=float(d))) - 1.0))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"worst unitarity deviation {worst}"
    assert elapsed < 1.0, f"took {elapsed:.3f} s"
    _report(1, f"|R|^2+|T|^2+|S|^2+|N|^2 = 1 to {worst:.2e} over 8 x 101 points in {elapsed:.3f} s")


def test_criterion_2_beam_splitter_identities():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        g = rng.uniform(0.0, 3.0)
        ks = rng.uniform(0.0, 0.5)
        gamma = rng.uniform(0.01, 0.5)
        delta = rng.uniform(-5.0, 5.0)
        # the stored reflections are 1 + t by construction; check the response
        R, T, _, _ = full_coeffs(CavityParams(g=g, kappa_s=ks, gamma=gamma, delta=delta))
        R0, T0, _, _ = full_coeffs(CavityParams(g=0.0, kappa_s=ks, gamma=gamma, delta=delta))
        worst = max(worst, abs(R - (1.0 + T)), abs(R0 - (1.0 + T0)))
    assert worst <= 1e-12, f"worst identity deviation {worst}"
    _report(2, f"R = 1+T at g and at g = 0 to {worst:.2e} over 1000 random draws")


def test_criterion_3_reference_numbers():
    def m(g, ks):
        return distribution_metrics(resonant_coeffs(CavityParams(g=g, kappa_s=ks, gamma=0.1)))

    assert m(1.2, 0.2).f_even == pytest.approx(0.991, abs=1e-3)
    assert m(1.2, 0.0).f_even == pytest.approx(0.998, abs=1e-3)
    assert m(1.2, 0.2).eta_d == pytest.approx(0.770, abs=1e-3)
    assert m(2.4, 0.0).eta_d == pytest.approx(0.983, abs=1e-3)
    worst = 1.0
    for g in np.linspace(0.6, 3.0, 50):
        for ks in np.linspace(0.0, 0.2, 50):
            worst = min(worst, m(float(g), float(ks)).f_even)
    assert worst > 0.948, f"fidelity floor violated: {worst}"
    _report(3, f"0.991 / 0.998 / 0.770 / 0.983 reproduced; floor {worst:.4f} > 0.948 on 50x50 grid")


def test_criterion_4_odd_branch_perfection():
    rng = np.random.default_rng(4)
    checked = 0
    worst = 0.0
    while checked < 100:
        sc = _random_point(rng)
        if abs(sc.t - sc.t0) <= 1e-6:
            continue
        checked += 1
        for out in distribute_bell(QUIET, QUIET, sc, sc):
            if out.detection in ODD:
                worst = max(worst, abs(out.fidelity - 1.0))
        for out in pcd(uniform_spins(("e1", "e2")), "e1", "e2", sc):
            if out.detection.startswith("L"):
                worst = max(worst, abs(out.fidelity - 1.0))
    assert worst < 1e-12, f"odd-branch fidelity deviates by {worst}"
    _report(4, f"odd-branch fidelity 1 to {worst:.2e} over 100 coefficient sets")


def test_criterion_5_analytic_simulation_equivalence():
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        report = crosscheck(_random_point(rng))
        worst = max(worst, report.max_deviation)
        assert report.ok
    elapsed = time.perf_counter() - start
    assert worst < 1e-10, f"max deviation {worst}"
    assert elapsed < 10.0, f"took {elapsed:.3f} s"
    _report(5, f"simulation matches closed forms to {worst:.2e} at 20 random points in {elapsed:.2f} s")


def test_criterion_6_noise_immunity():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        ch_a = random_symmetric(rng)
        ch_b = random_symmetric(rng)
        for out in distribute_bell(ch_a, ch_b, IDEAL, IDEAL):
            worst = max(worst, abs(out.fidelity - 1.0))
    for n in (3, 4):
        for _ in range(100):
            chans = [random_symmetric(rng) for _ in range(n)]
            for out in distribute_ghz(n, chans, [IDEAL] * n):
                worst = max(worst, abs(out.fidelity - 1.0))
    assert worst < 1e-10, f"noise leaked into the heralded state: {worst}"
    _report(6, f"herald fidelity 1 to {worst:.2e} over 100 channel draws (Bell, GHZ3, GHZ4)")


def test_criterion_7_purification_recursion():
    rng = np.random.default_rng(7)
    worst = 0.0
    for mu in rng.uniform(0.0, 1.0, size=50):
        state, _ = purify_round(float(mu))
        expected = mu ** 2 / (mu ** 2 + (1.0 - mu) ** 2)
        worst = max(worst, abs(state.mu - expected),
                    abs(state.success_probability - (mu ** 2 + (1.0 - mu) ** 2)))
    assert worst < 1e-10, f"simulation deviates from the recursion by {worst}"

    rounds = purify_analytic(0.7, 3)
    # exact recursion from 0.7: 49/58, then 2401/2482, then 5764801/5771362
    assert rounds[1].mu == pytest.approx(2401.0 / 2482.0, abs=1e-12)
    assert rounds[1].mu == pytest.approx(0.967365028, abs=1e-9)
    crossing = next(s.round for s in rounds if s.mu > 0.997)
    assert rounds[1].mu < 0.997
    assert crossing == 3
    _report(7, "simulated round matches mu^2/(mu^2+(1-mu)^2) to "
               f"{worst:.2e}; from mu=0.7 two rounds reach {rounds[1].mu:.6f} (< 0.997), "
               f"the 0.997 level is crossed at round {crossing}")


def test_criterion_8_extension_correctness():
    start = time.perf_counter()
    cases = [
        (phi_minus(("e_a", "e_z")), "Bell+Bell"),
        (ghz_state(("e_a", "e_b", "e_z"), -1), "GHZ3+Bell"),
    ]
    for chain_state, label in cases:
        bell = phi_minus(("e_zp", "e_d"))
        outs = extend_chain(chain_state, bell, ("e_z", "e_zp"), IDEAL)
        total = sum(o.probability for o in outs)
        assert total == pytest.approx(1.0, abs=1e-10), label
        assert all(abs(o.fidelity - 1.0) < 1e-10 for o in outs), label
        assert len(outs) == 8
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f} s"
    _report(8, f"all herald branches at fidelity 1, total probability 1, in {elapsed:.3f} s")


def test_criterion_9_heralded_completeness():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(10):
        sc = _random_point(rng)
        ch = random_symmetric(rng)

        outs = distribute_bell(ch, ch, sc, sc)
        heralded = sum(o.probability for o in outs)
        worst = max(worst, abs(heralded + (1.0 - heralded) - 1.0),
                    abs(heralded - distribution_metrics(sc).eta_d))

        pouts = pcd(uniform_spins(("e1", "e2")), "e1", "e2", sc)
        p_heralded = sum(o.probability for o in pouts)
        worst = max(worst, abs(p_heralded - pcd_metrics(sc).eta_d))

        eouts = extend_chain(phi_minus(("e_a", "e_z")), phi_minus(("e_zp", "e_d")),
                             ("e_z", "e_zp"), sc)
        e_total = sum(o.probability for o in eouts)
        # the extension heralds exactly when its probe photon survives
        joint = tensor(phi_minus(("e_a", "e_z")), phi_minus(("e_zp", "e_d")))
        probe_total = sum(o.probability for o in pcd(joint, "e_z", "e_zp", sc))
        worst = max(worst, abs(e_total - probe_total))

        state, discarded = purify_round(float(rng.uniform(0.0, 1.0)), sc)
        worst = max(worst, abs(state.success_probability + discarded - 1.0))
    assert worst < 1e-10, f"probability bookkeeping leaks {worst}"
    _report(9, f"branch + discarded probabilities close to 1 within {worst:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    coeff_args = ["sweep", "--quantity", "coeffs", "--g-grid", "0,0.6,1.2,2.4",
                  "--kappa-s-grid", "0.1", "--delta-grid=-5:5:101"]
    perf_args = ["sweep", "--quantity", "distribution", "--g-grid", "0:3:61",
                 "--kappa-s-grid", "0,0.2"]
    for name, args in (("coeffs", coeff_args), ("performance", perf_args)):
        first = tmp_path / f"{name}_1.csv"
        second = tmp_path / f"{name}_2.csv"
        assert main(args + ["--output", str(first)]) == 0
        assert main(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), f"{name} sweep not reproducible"
    _report(10, "coefficient and performance sweep CSVs are byte-identical across runs")
