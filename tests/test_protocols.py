import functools
import itertools
import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qdrepeater import protocols
from qdrepeater.cavity import IDEAL, CavityParams, ScatterCoeffs, resonant_coeffs
from qdrepeater.metrics import (chain_analytic, crosscheck, distribution_metrics, extension_metrics, pcd_metrics,
                                purification_metrics)
from qdrepeater.protocols import (
    ChainScenario,
    HeraldedOutcome,
    NoSurvivingBranchError,
    PurificationState,
    SegmentSpec,
    channel_mixing_weight,
    distribute_bell,
    distribute_ghz,
    extend_chain,
    ghz_state,
    pcd,
    phi_minus,
    phi_plus,
    purify_analytic,
    purify_round,
    run_chain,
    spin_register,
    uniform_spins,
)
from qdrepeater.qstate import (
    LinearMap,
    Register,
    RegisterError,
    StateVector,
    Subsystem,
    apply_map,
    basis_state,
    superposition,
    tensor,
)
from qdrepeater.timebin import TB_DECODED, NoiseChannel, encode_map

from conftest import allclose_upto_phase, random_asymmetric, random_coeffs, random_symmetric, symmetric_from_angles
from dense_oracle import (
    PORTS,
    _rho_stage,
    apply_gates,
    collect_outcomes_scalar,
    distribution_branches,
    exact_bell_weights,
    extend_chain_gates,
    extension_maps_loop,
    ghz_correction_search,
    mixture_fidelity,
    pair_stage_scalar,
    pcd_per_parity,
    pattern_corrections_loop,
    photon_transfer,
    pool_scalar,
    purification_maps_loop,
    purify_gates,
    run_chain_gates,
    run_distribution,
    run_pcd,
    segment_rho,
)

RT2 = 1.0 / math.sqrt(2.0)
QUIET = NoiseChannel.identity()
REF = resonant_coeffs(CavityParams(g=1.2, kappa_s=0.2, gamma=0.1))

EVEN = ("R↑R↑", "L↓L↓")
ODD = ("R↑L↓", "L↓R↑")


def outcome_map(outcomes):
    return {o.detection: o for o in outcomes}


def _outcome_mixture(outcomes):
    """rho = sum_i p_i |psi_i><psi_i| / sum_i p_i over the live outcomes, and sum_i p_i."""
    live = [o for o in outcomes if o.post_state is not None]
    total = math.fsum(o.probability for o in live)
    return sum(o.probability * _outer(o.post_state.amplitudes) for o in live) / total, total


def _weight(rho, state):
    """<psi|rho|psi>, the weight of the pure state ``state`` in the density matrix ``rho``."""
    return float(np.vdot(state.amplitudes, rho @ state.amplitudes).real)


# --- Bell distribution ---------------------------------------------------------

def test_ideal_distribution_four_equal_branches():
    outs = distribute_bell(QUIET, QUIET, IDEAL, IDEAL)
    assert len(outs) == 4
    for o in outs:
        assert o.probability == pytest.approx(0.25, abs=1e-12)
        assert o.fidelity == pytest.approx(1.0, abs=1e-12)
    by = outcome_map(outs)
    for name in EVEN:
        assert by[name].correction == ()
    for name in ODD:
        assert by[name].correction == (("x", "e_b"),)


def test_practical_distribution_matches_reference_numbers():
    outs = distribute_bell(QUIET, QUIET, REF, REF)
    by = outcome_map(outs)
    even_p = sum(by[n].probability for n in EVEN)
    odd_p = sum(by[n].probability for n in ODD)
    assert even_p == pytest.approx(0.3866802, abs=5e-7)
    assert odd_p == pytest.approx(0.3833780, abs=5e-7)
    for n in EVEN:
        assert by[n].fidelity == pytest.approx(0.9914603, abs=5e-7)
    for n in ODD:
        assert by[n].fidelity == pytest.approx(1.0, abs=1e-12)


def test_uncoupled_cavity_kills_the_odd_class():
    sc = resonant_coeffs(CavityParams(g=0.0, kappa_s=0.1, gamma=0.1))
    by = outcome_map(distribute_bell(QUIET, QUIET, sc, sc))
    for n in ODD:
        assert by[n].probability == 0.0
        assert by[n].post_state is None
    assert sum(by[n].probability for n in EVEN) > 0.0


def test_noise_never_reaches_the_spins(rng):
    fids = []
    for _ in range(10):
        ch_a = random_symmetric(rng)
        ch_b = random_symmetric(rng)
        outs = distribute_bell(ch_a, ch_b, IDEAL, IDEAL)
        fids.extend(o.fidelity for o in outs)
    assert np.var(fids) < 1e-20
    assert all(abs(f - 1.0) < 1e-10 for f in fids)


def test_completeness_with_random_coefficients(rng):
    # heralded plus leak/noise probability covers everything, and with equal
    # nodes the split reproduces the closed forms
    for _ in range(5):
        sc = random_coeffs(rng)
        ch = random_symmetric(rng)
        outs = distribute_bell(ch, ch, sc, sc)
        heralded = sum(o.probability for o in outs)
        m = distribution_metrics(sc)
        assert heralded == pytest.approx(m.eta_d, abs=1e-10)
        even_p = sum(o.probability for o in outs if o.detection in EVEN)
        odd_p = sum(o.probability for o in outs if o.detection in ODD)
        assert even_p == pytest.approx(m.eta_d_even, abs=1e-10)
        assert odd_p == pytest.approx(m.eta_d_odd, abs=1e-10)


def test_input_coupling_scales_probabilities():
    outs = distribute_bell(QUIET, QUIET, IDEAL, IDEAL, eta_in=0.9)
    assert sum(o.probability for o in outs) == pytest.approx(0.81, abs=1e-12)
    for o in outs:
        assert o.fidelity == pytest.approx(1.0, abs=1e-12)


def test_asymmetric_noise_splits_branches_and_mu_matches(rng):
    for _ in range(5):
        ch_a = random_asymmetric(rng)
        ch_b = random_asymmetric(rng)
        outs = distribute_bell(ch_a, ch_b, IDEAL, IDEAL)
        rho, total = _outcome_mixture(outs)
        assert total == pytest.approx(1.0, abs=1e-10)
        mu_sim = _weight(rho, phi_minus(("e_a", "e_b")))
        assert mu_sim == pytest.approx(channel_mixing_weight([ch_a, ch_b]), abs=1e-10)
        plus_weight = _weight(rho, phi_plus(("e_a", "e_b")))
        assert mu_sim + plus_weight == pytest.approx(1.0, abs=1e-10)


def test_distribution_branches_match_tensor_oracle(rng):
    # independent derivation: with input (R+L-type Bell) x uniform spins, the
    # photon measured in its original port leaves the transmission pair
    # (t, t0) on its spin, the swapped port leaves the reflection pair
    # (r, r0); each two-photon branch is a difference of two such products
    # with overall weight 1/8
    for _ in range(5):
        ca = random_coeffs(rng)
        cb = random_coeffs(rng)
        t_a = np.array([ca.t, ca.t0])
        r_a = np.array([ca.r, ca.r0])
        t_b = np.array([cb.t, cb.t0])
        r_b = np.array([cb.r, cb.r0])
        vectors = {
            (("R", "up"), ("R", "up")): np.kron(t_a, t_b) - np.kron(r_a, r_b),
            (("L", "dn"), ("L", "dn")): np.kron(r_a, r_b) - np.kron(t_a, t_b),
            (("R", "up"), ("L", "dn")): np.kron(t_a, r_b) - np.kron(r_a, t_b),
            (("L", "dn"), ("R", "up")): np.kron(r_a, t_b) - np.kron(t_a, r_b),
        }
        grouped, _ = run_distribution(("a", "b"), (QUIET, QUIET), (ca, cb),
                                      phase_photon="b", spin_labels=("e_a", "e_b"))
        for pattern, vec in vectors.items():
            entries = [e for e in grouped[pattern] if e[1] > 1e-24]
            p_sim = sum(p for _, p, _ in entries)
            assert p_sim == pytest.approx(float(np.vdot(vec, vec).real) / 8.0, abs=1e-12)
            if p_sim > 1e-12:
                expected = StateVector(spin_register(("e_a", "e_b")), vec / np.linalg.norm(vec))
                assert allclose_upto_phase(entries[0][2], expected, 1e-10)


def _assert_matches_dense_oracle(noises, coeffs, phase_photon):
    n = len(noises)
    names = [chr(ord("a") + i) for i in range(n)]
    labels = [f"e_{nm}" for nm in names]
    dense, dense_survival = run_distribution(names, noises, coeffs, names[phase_photon], labels)
    amps, survival = distribution_branches(noises, coeffs, phase_photon)
    assert survival == pytest.approx(dense_survival, abs=1e-12)
    # amps[k, j] is port pattern k and time-bin outcome j, both in product order
    assert list(dense) == list(itertools.product(PORTS, repeat=n))
    assert amps.shape == (2 ** n, 2 ** n, 2 ** n)
    for pat_amps, entries in zip(amps, dense.values()):
        assert [tb for tb, _, _ in entries] == list(itertools.product(TB_DECODED, repeat=n))
        for heralded, (_, p_dense, post_dense) in zip(pat_amps, entries):
            p = float(np.vdot(heralded, heralded).real)
            assert p == pytest.approx(p_dense, abs=1e-12)
            heralded_dense = (np.zeros(2 ** n) if post_dense is None
                              else math.sqrt(p_dense) * post_dense.amplitudes)
            assert np.max(np.abs(heralded - heralded_dense)) < 1e-12
            if p > 1e-6:
                assert np.max(np.abs(heralded / math.sqrt(p) - post_dense.amplitudes)) < 1e-12


def _asymmetric_fiber(early, late):
    a = symmetric_from_angles(*early)
    b = symmetric_from_angles(*late)
    return NoiseChannel(a.delta, a.eta, b.delta, b.eta)


def _late_rotated(ch, eps):
    """``ch`` with its late bin rotated by a further ``eps`` rad."""
    c, s = math.cos(eps), math.sin(eps)
    return NoiseChannel(ch.delta, ch.eta, c * ch.delta - s * np.conj(ch.eta), c * ch.eta + s * np.conj(ch.delta))


_angles = st.floats(0.0, 2.0 * math.pi)
_rotations = st.tuples(_angles, _angles, _angles)
#: collective fibers, and fibers whose two bins rotate independently (the chain tests draw these)
_far_fibers = st.one_of(
    _rotations.map(lambda a: symmetric_from_angles(*a)),
    st.tuples(_rotations, _rotations).map(lambda ab: _asymmetric_fiber(*ab)),
)
#: near-collective fibers: the late bin is the early rotation turned by eps, log-uniform in [1e-12, 1e-1]
_near_collective_fibers = st.tuples(_rotations, st.floats(-12.0, -1.0)).map(
    lambda a: _late_rotated(symmetric_from_angles(*a[0]), 10.0 ** a[1]))
_fibers = _far_fibers | _near_collective_fibers
_nodes = st.builds(lambda g, ks, gamma: resonant_coeffs(CavityParams(g=g, kappa_s=ks, gamma=gamma)),
                   st.floats(0.2, 3.0), st.floats(0.0, 0.3), st.floats(0.02, 0.5))


@st.composite
def _distribution_inputs(draw):
    n = draw(st.integers(2, 4))
    noises = draw(st.lists(_fibers, min_size=n, max_size=n))
    coeffs = draw(st.lists(_nodes, min_size=n, max_size=n))
    return noises, coeffs, draw(st.sampled_from((0, n - 1)))


@given(_distribution_inputs())
@settings(max_examples=25, deadline=None)
def test_transfer_branches_match_dense_oracle(inputs):
    _assert_matches_dense_oracle(*inputs)


def test_transfer_branches_match_dense_oracle_five_photons():
    rng = np.random.default_rng(55)
    noises = [random_asymmetric(rng)] + [random_symmetric(rng) for _ in range(4)]
    _assert_matches_dense_oracle(noises, [random_coeffs(rng) for _ in range(5)], 4)


def test_transfer_branches_match_dense_oracle_near_identity_fibers():
    # rotations of 1e-45 and 1e-112 leave time-bin branches whose
    # probability is a subnormal float
    fibers = [symmetric_from_angles(theta)
              for theta in (0.0, 0.0, 1.401298464324817e-45, 1.7235558102405707e-112)]
    node = resonant_coeffs(CavityParams(g=1.0, kappa_s=0.0, gamma=0.5))
    _assert_matches_dense_oracle(fibers, [node] * 4, 0)


def test_dense_oracle_decodes_without_the_routing_map(monkeypatch):
    # the oracle runs the decoder's elements, so it stays independent of the map the library applies
    def routing_map_called():
        raise AssertionError("the dense oracle called decode_map")
    monkeypatch.setattr("qdrepeater.timebin.decode_map", routing_map_called)
    grouped, survival = run_distribution(["a", "b"], [QUIET, QUIET], [REF, IDEAL], "b", ["e_a", "e_b"])
    assert list(grouped) == list(itertools.product(PORTS, repeat=2))
    assert 0.0 < survival <= 1.0


def test_transfer_table_is_read_only_and_each_entry_is_zero_or_a_signed_root_half():
    table = protocols._transfer_table()
    assert table.shape == (2, 3, 64)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0, 0] = 7.0
    assert not table.imag.any()
    assert set(table.real.ravel().tolist()) == {0.0, RT2, -RT2}


@pytest.mark.parametrize("phased", [0, 1])
def test_a_nodes_terms_times_the_transfer_table_are_its_element_maps(phased, rng):
    # random, ideal, empty (g = 0, so t = t0) and detuned nodes, each behind quiet, collective and split fibers
    nodes = [random_coeffs(rng) for _ in range(20)] + [
        IDEAL, resonant_coeffs(CavityParams(g=0.0)), resonant_coeffs(CavityParams(g=1.2, kappa_s=0.2, delta=0.7))]
    table = protocols._transfer_table()[phased]
    encoder = encode_map().matrix[:, [0, 2]]
    for node in nodes:
        for noise in (QUIET, random_symmetric(rng), random_asymmetric(rng)):
            got = (np.array([1.0, node.t, node.t0]) @ table).reshape(16, 4) @ noise.matrix() @ encoder
            # the oracle's v[s, (p, d, t), spin] from decode_map, the pi plate, scatter_map on |+> and encode_map,
            # in the table's order (p, d, spin, t) x s
            want = photon_transfer(noise, node, phased).reshape(2, 4, 2, 2).transpose(1, 3, 2, 0).reshape(16, 2)
            assert np.max(np.abs(got - want)) <= 2e-16


def _unlisted_branches(outcomes, n):
    """The (port pattern, time bin) branches of a distribution's outcomes
    that no live outcome lists, both indexed in product order; a pattern
    listed once stands for every time bin."""
    patterns = ["".join(pol + ("↑" if d == "up" else "↓") for pol, d in pattern)
                for pattern in itertools.product(PORTS, repeat=n)]
    bins = [",".join(tb) for tb in itertools.product(TB_DECODED, repeat=n)]
    listed = set()
    for o in outcomes:
        label, _, tb = o.detection.partition(":")
        if o.post_state is None:
            assert (o.probability, o.fidelity, tb) == (0.0, None, "")
        else:
            listed |= {(patterns.index(label), j) for j in range(2 ** n) if not tb or bins[j] == tb}
    return set(itertools.product(range(2 ** n), range(2 ** n))) - listed


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_transfer_branches_keep_the_oracle_zero_branches(n):
    # ideal and empty nodes leave many branches exactly empty; the library
    # lists dead exactly the patterns, and in a split exactly the time-bin
    # outcomes, that the dense pipeline leaves at zero
    names = [chr(ord("a") + i) for i in range(n)]
    labels = [f"e_{nm}" for nm in names]
    mixed = [(IDEAL, EMPTY, REF)[i % 3] for i in range(n)]
    fibers = ([QUIET] * n, [_asymmetric_fiber((0.3, 0.1, 0.2), (0.5, 0.4, 0.1))] + [QUIET] * (n - 1))
    node_sets = [[IDEAL] * n, [EMPTY] * n, [REF] * n, mixed]
    # the dense pipeline takes seconds at n = 5, so only its richest case runs there
    cases = [(mixed, fibers[1], False)] if n == 5 else itertools.product(node_sets, fibers, {False, n == 2})
    for coeffs, noises, bell in cases:
        dense, _ = run_distribution(names, noises, coeffs, names[1 if bell else 0], labels)
        zeros = {(k, j) for k, entries in enumerate(dense.values())
                 for j, (_, p, post) in enumerate(entries) if p == 0.0 and post is None}
        outcomes = distribute_bell(*noises, *coeffs) if bell else distribute_ghz(n, noises, coeffs)
        unlisted = _unlisted_branches(outcomes, n)
        if noises[0] is QUIET:      # a pattern is dead when all its time bins are
            zeros = {(k, j) for k, _ in zeros for j in range(2 ** n)
                     if all((k, i) in zeros for i in range(2 ** n))}
        assert unlisted == zeros
        assert zeros or noises[0] is QUIET      # a split always leaves some time bins empty


# --- the time-bin split ------------------------------------------------------------

def _distribute(noises, coeffs, bell):
    """Outcomes and `distribution_branches` amplitudes of one Bell or GHZ distribution."""
    if bell:
        return distribute_bell(*noises, *coeffs), distribution_branches(noises, coeffs, 1)[0]
    return distribute_ghz(len(noises), noises, coeffs), distribution_branches(noises, coeffs, 0)[0]


def _by_pattern(outcomes, n):
    """The listed outcomes of each port pattern, in `distribution_branches` order."""
    labels = ["".join(pol + ("↑" if d == "up" else "↓") for pol, d in pattern)
              for pattern in itertools.product(PORTS, repeat=n)]
    return [[o for o in outcomes if o.detection.split(":")[0] == label] for label in labels]


def _corrected(amps, outcome):
    """Raw spin amplitudes of one time-bin outcome after the outcome's correction."""
    return apply_gates(StateVector(outcome.post_state.register, amps), outcome.correction).amplitudes


def _assert_equal_upto_phase(a, b, atol=1e-12):
    # the phase is read off the largest entry of b; no relative tolerance
    k = int(np.argmax(np.abs(b)))
    phase = a[k] / b[k]
    assert np.max(np.abs(a - phase / abs(phase) * b)) <= atol


_collective_fibers = st.tuples(st.one_of(_angles, st.floats(-11.0, -6.0).map(lambda e: 10.0 ** e)),
                               _angles, _angles).map(lambda a: symmetric_from_angles(*a))


@st.composite
def _collective_inputs(draw):
    n = draw(st.integers(2, 4))
    noises = draw(st.lists(_collective_fibers, min_size=n, max_size=n))
    coeffs = draw(st.lists(st.one_of(st.just(IDEAL), _nodes), min_size=n, max_size=n))
    return noises, coeffs, n == 2 and draw(st.booleans())


@given(_collective_inputs())
@settings(max_examples=40, deadline=None)
def test_collective_fibers_report_each_pattern_once(inputs):
    outcomes, amps = _distribute(*inputs)
    for listed, pat_amps in zip(_by_pattern(outcomes, len(inputs[0])), amps):
        assert len(listed) == 1 and ":" not in listed[0].detection
        out = listed[0]
        probs = np.sum(np.abs(pat_amps) ** 2, axis=1)
        live = probs > 1e-24
        if not live.any():
            assert (out.probability, out.post_state) == (0.0, None)
            continue
        assert out.probability == pytest.approx(float(np.sum(probs[live])), rel=1e-13, abs=0.0)
        # every live time bin heralds the reported state, the smallest ones too
        for a, p in zip(pat_amps[live], probs[live]):
            _assert_equal_upto_phase(out.post_state.amplitudes, _corrected(a / math.sqrt(p), out))


@pytest.mark.parametrize("eps", [1e-9, 1e-7, 1e-6])
def test_a_small_late_bin_rotation_lists_exact_time_bin_outcomes(rng, eps):
    # p F summed over a pattern's outcomes is the target weight of its time
    # bins only if each outcome carries its own time bin's state
    target = phi_minus(("e_a", "e_b")).amplitudes
    for _ in range(10):
        noises = [_late_rotated(random_symmetric(rng), eps), random_symmetric(rng)]
        outcomes, amps = _distribute(noises, [REF, REF], True)
        for listed, pat_amps in zip(_by_pattern(outcomes, 2), amps):
            assert listed and all(":" in o.detection for o in listed)
            exact = sum(abs(np.vdot(target, _corrected(a, listed[0]))) ** 2 for a in pat_amps)
            assert sum(o.probability * o.fidelity for o in listed) == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("phi", [1e-8, 0.3, math.pi / 2, 2.5])
def test_a_late_bin_phase_splits_into_outcomes_of_one_state(rng, phi):
    early = random_symmetric(rng)
    shifted = NoiseChannel(early.delta, early.eta, np.exp(1j * phi) * early.delta, np.exp(1j * phi) * early.eta)
    noises = [shifted, random_symmetric(rng)]
    outcomes, _ = _distribute(noises, [IDEAL, IDEAL], True)
    for listed in _by_pattern(outcomes, 2):
        assert len(listed) > 1 and all(":" in o.detection for o in listed)
        for o in listed[1:]:
            _assert_equal_upto_phase(o.post_state.amplitudes, listed[0].post_state.amplitudes)
    rho, _ = _outcome_mixture(outcomes)
    assert _weight(rho, phi_minus(("e_a", "e_b"))) == pytest.approx(channel_mixing_weight(noises), abs=1e-10)


def test_distribution_splits_without_comparing_states(monkeypatch, rng):
    def compared(*args):
        raise AssertionError("distribution compared heralded states")
    monkeypatch.setattr("qdrepeater.protocols._equal_upto_phase", compared)
    for fiber in (random_symmetric, random_asymmetric):
        assert any(o.post_state for o in distribute_bell(fiber(rng), fiber(rng), REF, IDEAL))
        assert any(o.post_state for o in distribute_ghz(3, [fiber(rng) for _ in range(3)], [REF, IDEAL, REF]))


# --- outcomes against the per-pattern oracle ----------------------------------------

#: an empty cavity (g = 0) transmits both spin states alike, so whole patterns are dead
EMPTY = resonant_coeffs(CavityParams(g=0.0))


@functools.cache
def _searched_corrections(n):
    return ghz_correction_search(n)


@st.composite
def _outcome_inputs(draw):
    n = draw(st.integers(2, 6))
    fibers = draw(st.sampled_from((_collective_fibers, _fibers)))
    noises = draw(st.lists(fibers, min_size=n, max_size=n))
    coeffs = draw(st.lists(st.sampled_from((IDEAL, EMPTY)) | _nodes, min_size=n, max_size=n))
    # probabilities times eta_in**n fall below the smallest normal float
    eta_in = draw(st.just(1.0) | st.sampled_from((1e-160, 1e-100, 1e-40)) | st.floats(1e-160, 1.0))
    return noises, coeffs, eta_in, n == 2 and draw(st.booleans())


@given(_outcome_inputs())
@settings(max_examples=60, deadline=None)
@example(([QUIET] * 3, [EMPTY] * 3, 1e-160, False))
@example(([_asymmetric_fiber((0.3, 0.1, 0.2), (0.5, 0.4, 0.1)), QUIET], [EMPTY, REF], 1e-160, True))
@example(([_asymmetric_fiber((0.3, 0.1, 0.2), (0.5, 0.4, 0.1))] + [QUIET] * 4, [IDEAL, EMPTY, REF, IDEAL, REF],
          0.9, False))
def test_outcomes_match_the_per_pattern_oracle(inputs):
    noises, coeffs, eta_in, bell = inputs
    n = len(noises)
    if bell:
        labels = ("e_a", "e_b")
        got = distribute_bell(*noises, *coeffs, eta_in=eta_in)
        amps, _ = distribution_branches(noises, coeffs, 1)
        corrections = {p: () if p[0] == p[1] else (("x", "e_b"),) for p in itertools.product(PORTS, repeat=2)}
        target = phi_minus(labels)
    else:
        labels = [f"e_{chr(ord('a') + i)}" for i in range(n)]
        got = distribute_ghz(n, noises, coeffs, eta_in=eta_in)
        amps, _ = distribution_branches(noises, coeffs, 0)
        corrections = _searched_corrections(n)
        target = ghz_state(labels)
    want = collect_outcomes_scalar(amps, noises, labels, corrections, target, eta_in)
    # labels, corrections and dead outcomes exactly; the numbers to a few
    # ulps, as the library multiplies the photons' factors in another order
    assert [(o.detection, o.correction, o.post_state is None) for o in got] == \
           [(o.detection, o.correction, o.post_state is None) for o in want]
    for o, w in zip(got, want):
        if w.post_state is None:
            assert (o.probability, o.fidelity) == (w.probability, None) == (0.0, None)
        else:
            assert abs(o.probability - w.probability) <= 4e-15 * w.probability
            assert o.post_state.register == w.post_state.register
            assert np.max(np.abs(o.post_state.amplitudes - w.post_state.amplitudes)) <= 2e-15
            assert abs(o.fidelity - w.fidelity) <= 2e-15


# --- GHZ distribution ------------------------------------------------------------

def test_ghz_needs_two_parties():
    with pytest.raises(ValueError):
        distribute_ghz(1, [QUIET], [IDEAL])
    with pytest.raises(ValueError):
        distribute_ghz(3, [QUIET] * 2, [IDEAL] * 3)


def test_ghz_two_party_matches_bell_branchwise():
    # raw heralded states agree branch by branch up to a global phase; only
    # the declared targets (and hence corrections) differ between protocols
    bell_raw, _ = run_distribution(("a", "b"), (QUIET, QUIET), (IDEAL, IDEAL),
                                   phase_photon="b", spin_labels=("e_a", "e_b"))
    ghz_raw, _ = run_distribution(("a", "b"), (QUIET, QUIET), (IDEAL, IDEAL),
                                  phase_photon="a", spin_labels=("e_a", "e_b"))
    assert set(bell_raw) == set(ghz_raw)
    for pattern, bell_entries in bell_raw.items():
        ghz_entries = ghz_raw[pattern]
        p_bell = sum(p for _, p, _ in bell_entries)
        p_ghz = sum(p for _, p, _ in ghz_entries)
        assert p_ghz == pytest.approx(p_bell, abs=1e-12)
        assert allclose_upto_phase(bell_entries[0][2], ghz_entries[0][2], 1e-10)
    bell = distribute_bell(QUIET, QUIET, IDEAL, IDEAL)
    ghz = distribute_ghz(2, [QUIET] * 2, [IDEAL] * 2)
    assert all(abs(o.fidelity - 1.0) < 1e-10 for o in bell)
    assert all(abs(o.fidelity - 1.0) < 1e-10 for o in ghz)


def test_ghz_three_ideal():
    outs = distribute_ghz(3, [QUIET] * 3, [IDEAL] * 3)
    assert len(outs) == 8
    assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-10)
    by = outcome_map(outs)
    allr = by["R↑R↑R↑"]
    assert allr.probability == pytest.approx(0.125, abs=1e-12)
    assert allr.correction == ()
    assert allr.fidelity == pytest.approx(1.0, abs=1e-12)
    assert allclose_upto_phase(allr.post_state, phi_plus(("e_a", "e_b", "e_c")), 1e-10)


def test_ghz_four_needs_a_phase_flip_on_the_all_r_branch():
    outs = distribute_ghz(4, [QUIET] * 4, [IDEAL] * 4)
    by = outcome_map(outs)
    allr = by["R↑R↑R↑R↑"]
    assert allr.probability == pytest.approx(1.0 / 16.0, abs=1e-12)
    assert allr.correction == (("z", "e_a"),)
    assert allr.fidelity == pytest.approx(1.0, abs=1e-12)
    assert all(abs(o.fidelity - 1.0) < 1e-10 for o in outs)


def test_ghz_corrections_match_the_golden_table():
    # the per-pattern corrections are derived once per n; they must not drift
    golden = pathlib.Path(__file__).parent / "golden" / "ghz_corrections.txt"
    lines = []
    for n in range(2, 7):
        for o in distribute_ghz(n, [QUIET] * n, [IDEAL] * n):
            lines.append(f"{n} {o.detection} " + (" ".join(f"{g}({lab})" for g, lab in o.correction) or "-"))
    assert lines == golden.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("n", range(2, 8))
def test_ghz_corrections_follow_the_searched_corrections(n):
    # the rule (flip the smaller port class, phase-flip the first spin at
    # even n) is what a search over candidate corrections finds
    searched = ghz_correction_search(n)
    outs = distribute_ghz(n, [QUIET] * n, [IDEAL] * n)
    assert [o.correction for o in outs] == list(searched.values())
    assert all(abs(o.fidelity - 1.0) < 1e-10 for o in outs)


@pytest.mark.parametrize("rule", ["bell", "ghz"])
@pytest.mark.parametrize("n", range(2, 8))
def test_correction_tables_equal_their_element_by_element_oracle(rule, n):
    correction_for = {"bell": protocols._bell_correction, "ghz": protocols._ghz_correction}[rule]
    tables = protocols._pattern_corrections(correction_for, tuple(f"s{i}" for i in range(n)))[-2:]
    shapes = [(n, 2, 2 ** n, 2, 2), (n, 1, 2 ** n, 1, 2)]
    for got, want, shape in zip(tables, pattern_corrections_loop(correction_for, n), shapes):
        assert got.dtype == want.dtype and got.shape == want.shape == shape
        assert got.flags.c_contiguous and not got.flags.writeable
        assert np.array_equal(got, want)


def test_ghz_noise_immunity(rng):
    for n in (3, 4):
        chans = [random_symmetric(rng) for _ in range(n)]
        outs = distribute_ghz(n, chans, [IDEAL] * n)
        assert all(abs(o.fidelity - 1.0) < 1e-10 for o in outs)
        assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("sign", [0, 0.5, -2, 1j, float("nan")])
def test_ghz_state_rejects_a_sign_other_than_plus_or_minus_one(sign):
    # a sign off +-1 would give an unnormalized target: norm**2 0.5 at 0, 0.625 at 0.5
    with pytest.raises(ValueError, match=r"GHZ sign must be \+1 or -1, not"):
        ghz_state(("a", "b"), sign)


@pytest.mark.parametrize("labels", [(), []])
def test_ghz_state_rejects_an_empty_label_list(labels):
    with pytest.raises(ValueError, match="a GHZ state needs at least one spin label"):
        ghz_state(labels)
    with pytest.raises(ValueError, match="a GHZ state needs at least one spin label"):
        phi_minus(labels)


@pytest.mark.parametrize("sign", [1, -1, 1.0, np.int64(-1)])
def test_ghz_state_keeps_both_signs(sign):
    state = ghz_state(("a",), sign)
    assert np.array_equal(state.amplitudes, np.array([RT2, sign * RT2], dtype=complex))


# --- parity-check detection --------------------------------------------------------

def test_pcd_on_uniform_spins_ideal():
    outs = pcd(uniform_spins(("e1", "e2")), "e1", "e2", IDEAL)
    assert [o.detection for o in outs] == ["R_a1", "R_a2", "L_a1", "L_a2"]
    even_p = sum(o.probability for o in outs if o.detection.startswith("R"))
    odd_p = sum(o.probability for o in outs if o.detection.startswith("L"))
    assert even_p == pytest.approx(0.5, abs=1e-12)
    assert odd_p == pytest.approx(0.5, abs=1e-12)
    by = outcome_map(outs)
    assert allclose_upto_phase(by["R_a1"].post_state, phi_minus(("e1", "e2")), 1e-10)
    odd_target = superposition(spin_register(("e1", "e2")),
                               [(RT2, {"e1": "up", "e2": "dn"}), (-RT2, {"e1": "dn", "e2": "up"})])
    assert allclose_upto_phase(by["L_a1"].post_state, odd_target, 1e-10)


def test_pcd_aligned_spins_herald_even_with_certainty():
    spins = basis_state(spin_register(("e1", "e2")))
    outs = pcd(spins, "e1", "e2", IDEAL)
    by = outcome_map(outs)
    even_p = by["R_a1"].probability + by["R_a2"].probability
    assert even_p == pytest.approx(1.0, abs=1e-12)
    assert by["L_a1"].probability == 0.0 and by["L_a2"].probability == 0.0
    assert allclose_upto_phase(by["R_a1"].post_state, spins, 1e-10)


def test_pcd_practical_reference_numbers():
    outs = pcd(uniform_spins(("e1", "e2")), "e1", "e2", REF)
    odd_p = sum(o.probability for o in outs if o.detection.startswith("L"))
    assert odd_p == pytest.approx(0.3833780, abs=5e-7)
    for o in outs:
        if o.detection.startswith("L"):
            assert o.fidelity == pytest.approx(1.0, abs=1e-12)
        else:
            assert o.fidelity == pytest.approx(0.9914603, abs=5e-7)


def test_pcd_matches_contraction_pair_oracle(rng):
    # independent route: one arm multiplies the spin by diag(u, v); the output
    # combiner turns the pair into (D1 + D2)/2 for even and (D1 - D2)/2 for odd
    for _ in range(10):
        sc = random_coeffs(rng)
        u = 1.0 + 2.0 * sc.t
        v = 1.0 + 2.0 * sc.t0
        d1 = np.kron(np.diag([u, v]), np.eye(2))
        d2 = np.kron(np.eye(2), np.diag([u, v]))
        k_even = LinearMap((d1 + d2) / 2.0)
        k_odd = LinearMap((d1 - d2) / 2.0)

        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        spins = StateVector(spin_register(("e1", "e2")), amps / np.linalg.norm(amps))
        outs = outcome_map(pcd(spins, "e1", "e2", sc))

        even_ref = apply_map(spins, k_even, ["e1", "e2"])
        odd_ref = apply_map(spins, k_odd, ["e1", "e2"])
        even_p = outs["R_a1"].probability + outs["R_a2"].probability
        odd_p = outs["L_a1"].probability + outs["L_a2"].probability
        assert even_p == pytest.approx(even_ref.norm2, abs=1e-10)
        assert odd_p == pytest.approx(odd_ref.norm2, abs=1e-10)
        if even_ref.norm2 > 1e-12:
            assert allclose_upto_phase(outs["R_a1"].post_state, even_ref.normalized(), 1e-8)
        if odd_ref.norm2 > 1e-12:
            assert allclose_upto_phase(outs["L_a1"].post_state, odd_ref.normalized(), 1e-8)


@st.composite
def _pcd_inputs(draw):
    # zeroing the amplitudes of one parity of the checked pair draws dead
    # branches and, at ideal coefficients, branches with no ideal target
    n = draw(st.integers(2, 4))
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    amps = np.array([complex(draw(parts), draw(parts)) for _ in range(2 ** n)])
    labels = tuple(f"e{i}" for i in range(n))
    spin1, spin2 = draw(st.permutations(labels))[:2]
    dead = draw(st.sampled_from((None, "even", "odd")))
    if dead is not None:
        bits = [(np.arange(2 ** n) >> (n - 1 - labels.index(lab))) & 1 for lab in (spin1, spin2)]
        amps[(bits[0] == bits[1]) == (dead == "even")] = 0.0
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    ideal = dead is not None and draw(st.booleans())
    coeffs = IDEAL if ideal else random_coeffs(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    eta_in = draw(st.floats(0.5, 1.0, exclude_min=True))
    return StateVector(spin_register(labels), amps / norm), spin1, spin2, coeffs, eta_in


@given(_pcd_inputs())
# the odd ports herald |dn,up> at 1.4e-24, just above the dead-branch weight;
# run on the whole state, the dense optics' rounding of |up,up> put its
# fidelity 5.3e-10 off
@example((StateVector(spin_register(("e0", "e1")), [1j, 0, 1.73201893e-12j, 0]), "e0", "e1",
          ScatterCoeffs(t=-0.005014980843849264, t0=-0.9611059573289995), 1.0))
@settings(max_examples=60, deadline=None)
def test_pcd_matches_dense_oracle(inputs):
    state, spin1, spin2, coeffs, eta_in = inputs
    dense = run_pcd(state, spin1, spin2, coeffs, eta_in)
    outs = pcd(state, spin1, spin2, coeffs, eta_in)
    assert [o.detection for o in outs] == [o.detection for o in dense]
    for o, d in zip(outs, dense):
        assert o.probability == pytest.approx(d.probability, abs=1e-12)
        assert (o.post_state is None) == (d.post_state is None)
        assert (o.fidelity is None) == (d.fidelity is None)
        if o.fidelity is not None:
            assert o.fidelity == pytest.approx(d.fidelity, abs=1e-12)
        if o.post_state is not None:
            heralded = math.sqrt(o.probability) * o.post_state.amplitudes
            heralded_dense = math.sqrt(d.probability) * d.post_state.amplitudes
            assert np.max(np.abs(heralded - heralded_dense)) < 1e-12


@given(_pcd_inputs())
# the odd ports herald +-9.37e-13 vectors, below atol and of opposite sign
@example((StateVector(spin_register(("e0", "e1")), [0, 0, 1.6e-12j, 1j]), "e0", "e1",
          ScatterCoeffs(t=-0.005014980843849264, t0=-0.9611059573289995), 0.75))
@settings(max_examples=30, deadline=None)
def test_dense_pcd_ports_of_a_parity_herald_the_same_state(inputs):
    by = outcome_map(run_pcd(*inputs))
    for first, second in (("R_a1", "R_a2"), ("L_a1", "L_a2")):
        a, b = by[first], by[second]
        assert a.probability == pytest.approx(b.probability, abs=1e-15)
        assert (a.post_state is None) == (b.post_state is None)
        if a.post_state is not None:
            ha = StateVector(a.post_state.register, math.sqrt(a.probability) * a.post_state.amplitudes)
            hb = StateVector(b.post_state.register, math.sqrt(b.probability) * b.post_state.amplitudes)
            assert allclose_upto_phase(ha, hb, 1e-12)


def test_pcd_rejects_unknown_spin():
    spins = uniform_spins(("e1", "e2"))
    with pytest.raises(Exception):
        pcd(spins, "e1", "nope", IDEAL)


def _node(kind, rng):
    """IDEAL, a resonant, detuned or empty (g = 0) cavity, or a node anywhere
    in the passive set |1 + t|^2 + |t|^2 <= 1, that is with u = 1 + 2t and
    v = 1 + 2t0 anywhere in the closed unit disc, drawn from ``rng``."""
    if kind == "ideal":
        return IDEAL
    if kind == "resonant":
        return random_coeffs(rng)
    if kind == "passive":
        u, v = np.sqrt(rng.uniform(0.0, 1.0, 2)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 2))
        return ScatterCoeffs(t=(u - 1.0) / 2.0, t0=(v - 1.0) / 2.0)
    g = 0.0 if kind == "empty" else rng.uniform(0.2, 3.0)
    return resonant_coeffs(CavityParams(g=g, kappa_s=rng.uniform(0.0, 0.3), gamma=rng.uniform(0.02, 0.5),
                                        delta=rng.uniform(-2.0, 2.0)))


_NODE_KINDS = ("ideal", "resonant", "detuned", "empty", "passive")


@st.composite
def _pcd_register_inputs(draw):
    # spins with a 3-level spectator anywhere, and a parity of the checked
    # pair zeroed at will, as `_pcd_inputs` zeroes it
    n = draw(st.integers(2, 4))
    subs = [Subsystem(f"e{i}", ("up", "dn")) for i in range(n)]
    if draw(st.booleans()):
        subs.insert(draw(st.integers(0, n)), Subsystem("x", ("0", "1", "2")))
    reg = Register(tuple(subs))
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    amps = np.array([complex(draw(parts), draw(parts)) for _ in range(reg.dim)])
    spin1, spin2 = draw(st.permutations([f"e{i}" for i in range(n)]))[:2]
    dead = draw(st.sampled_from((None, "even", "odd")))
    if dead is not None:
        levels = np.indices(reg.dims).reshape(len(reg.dims), -1)
        bits = [levels[reg.position(lab)] for lab in (spin1, spin2)]
        amps[(bits[0] == bits[1]) == (dead == "even")] = 0.0
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    coeffs = _node(draw(st.sampled_from(_NODE_KINDS)), rng)
    eta_in = 10.0 ** draw(st.floats(-160.0, 0.0))
    return StateVector(reg, amps / norm), spin1, spin2, coeffs, eta_in


@given(_pcd_register_inputs())
@example((basis_state(spin_register(("e1", "e2"))), "e1", "e2", REF, 1.0))
@example((basis_state(spin_register(("e1", "e2")), {"e2": "dn"}), "e2", "e1", REF, 0.5))
@example((uniform_spins(("e1", "e2")), "e1", "e2", ScatterCoeffs(t=-0.5, t0=-0.5), 1.0))   # every port dead
@settings(max_examples=100, deadline=None)
def test_pcd_matches_the_per_parity_oracle(inputs):
    outs = pcd(*inputs)
    oracle = pcd_per_parity(*inputs)
    assert [o.detection for o in outs] == [o.detection for o in oracle]
    assert [(o.post_state is None, o.fidelity is None) for o in outs] == \
           [(o.post_state is None, o.fidelity is None) for o in oracle]
    # the two round in different orders (an elementwise product and one sum
    # per row, against a matrix product and np.vdot): over 10^5 draws the
    # largest gaps were 3.9, 2.0 and 8.5 eps, and the bounds leave about 4x
    eps = np.finfo(float).eps
    for o, r in zip(outs, oracle):
        assert abs(o.probability - r.probability) <= 16 * eps * r.probability
        if r.post_state is not None:
            assert o.post_state.register == r.post_state.register
            assert np.max(np.abs(o.post_state.amplitudes - r.post_state.amplitudes)) <= 8 * eps
        if r.fidelity is not None:
            assert abs(o.fidelity - r.fidelity) <= 32 * eps


@pytest.mark.parametrize("levels,dead_ports,targetless_ports", [
    ({}, {"L_a1", "L_a2"}, set()),                        # |up,up>: the odd parity is dead
    ({"e2": "dn"}, set(), {"R_a1", "R_a2"}),              # |up,dn>: even lives, its ideal target does not
])
def test_pcd_dead_parities_and_dead_targets_at_a_practical_node(levels, dead_ports, targetless_ports):
    outs = outcome_map(pcd(basis_state(spin_register(("e1", "e2")), levels), "e1", "e2", REF))
    assert {lab for lab, o in outs.items() if o.post_state is None} == dead_ports
    assert all(outs[lab].probability == 0.0 and outs[lab].fidelity is None for lab in dead_ports)
    assert {lab for lab, o in outs.items() if o.post_state is not None and o.fidelity is None} == targetless_ports


@given(st.sampled_from(_NODE_KINDS), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_parity_operators_lose_weight(kind, seed):
    ops = protocols._parity_operators(_node(kind, np.random.default_rng(seed)))
    assert ops.shape == (2, 4)
    # sum_k A_k^dagger A_k <= I for the two diagonal operators, entry by entry
    assert np.all(np.abs(ops[0]) ** 2 + np.abs(ops[1]) ** 2 <= 1.0 + 1e-12)
    assert np.all(np.abs(ops) <= 1.0 + 1e-12)


# --- chain extension ------------------------------------------------------------

def test_extend_bell_with_bell():
    ghz = phi_minus(("e_a", "e_z"))
    bell = phi_minus(("e_zp", "e_d"))
    outs = extend_chain(ghz, bell, ("e_z", "e_zp"), IDEAL)
    assert len(outs) == 8
    assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-10)
    for o in outs:
        assert o.probability == pytest.approx(0.125, abs=1e-12)
        assert o.fidelity == pytest.approx(1.0, abs=1e-10)
        assert allclose_upto_phase(o.post_state, phi_minus(("e_a", "e_d")), 1e-10)


def test_extend_ghz3_with_bell():
    ghz = ghz_state(("e_a", "e_b", "e_z"), -1)
    bell = phi_minus(("e_zp", "e_d"))
    outs = extend_chain(ghz, bell, ("e_z", "e_zp"), IDEAL)
    assert len(outs) == 8
    assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-10)
    target = ghz_state(("e_a", "e_b", "e_d"), -1)
    for o in outs:
        assert o.fidelity == pytest.approx(1.0, abs=1e-10)
        assert allclose_upto_phase(o.post_state, target, 1e-10)


def test_extension_even_branch_before_measurement():
    # the even-parity PCD branch on chain + pair is the (N+2)-spin GHZ
    ghz = ghz_state(("e_a", "e_b", "e_z"), -1)
    bell = phi_minus(("e_zp", "e_d"))
    state = tensor(ghz, bell)
    outs = outcome_map(pcd(state, "e_z", "e_zp", IDEAL))
    expected = ghz_state(("e_a", "e_b", "e_z", "e_zp", "e_d"), -1)
    expected = StateVector(state.register, expected.amplitudes)
    assert allclose_upto_phase(outs["R_a1"].post_state, expected, 1e-10)
    assert outs["R_a1"].probability + outs["R_a2"].probability == pytest.approx(0.5, abs=1e-12)


def test_extension_at_small_eta_in_keeps_every_branch():
    # a dead branch is decided on its weight before eta_in scales it
    ghz = phi_minus(("a", "z"))
    bell = phi_minus(("zp", "d"))
    outs = extend_chain(ghz, bell, ("z", "zp"), IDEAL, eta_in=1e-30)
    assert math.fsum(o.probability for o in outs) == pytest.approx(1e-30, rel=1e-12)
    assert all(o.fidelity == pytest.approx(1.0, abs=1e-12) for o in outs)


def _zero_or_normal(outcomes):
    return all(o.probability == 0.0 or o.probability >= sys.float_info.min for o in outcomes)


@pytest.mark.parametrize("protocol,eta_in", [
    (lambda eta_in: distribute_bell(QUIET, QUIET, REF, IDEAL, eta_in=eta_in), 1e-160),
    (lambda eta_in: distribute_ghz(3, [QUIET] * 3, [REF, IDEAL, REF], eta_in=eta_in), 1e-107),
    (lambda eta_in: distribute_ghz(3, [QUIET] * 3, [REF, IDEAL, REF], eta_in=eta_in), 1e-110),
    (lambda eta_in: pcd(uniform_spins(("e1", "e2")), "e1", "e2", REF, eta_in=eta_in), 1e-310),
])
def test_probability_below_the_normal_range_is_reported_as_zero(protocol, eta_in):
    # the heralded weights are normal numbers; eta_in once per photon pass takes them below
    outcomes = protocol(eta_in)
    assert _zero_or_normal(outcomes)
    assert any(o.post_state is not None and o.probability == 0.0 for o in outcomes)


def test_extension_normalizes_a_branch_of_small_weight():
    # unit inputs whose joint spins are "dn" with amplitude 1e-10 leave odd-parity
    # branches of weight 5e-21, far below the amplitudes' own scale; each post
    # state is still a unit vector
    ghz = StateVector(spin_register(("a", "z")), [1.0, 0.0, 0.0, 1e-10])
    bell = StateVector(spin_register(("zp", "d")), [1.0, 0.0, 0.0, 1e-10])
    outs = extend_chain(ghz, bell, ("z", "zp"), IDEAL)
    assert [o.detection.split(":")[0] for o in outs] == ["even"] * 4 + ["odd"] * 4
    for o in outs[4:]:
        assert o.probability == pytest.approx(5e-21, rel=1e-12)
        assert o.post_state.norm2 == pytest.approx(1.0, abs=1e-12)
        assert o.fidelity == pytest.approx(1.0, abs=1e-12)


def test_extend_rejects_missing_joint_labels():
    ghz = phi_minus(("e_a", "e_z"))
    bell = phi_minus(("e_zp", "e_d"))
    with pytest.raises(Exception):
        extend_chain(ghz, bell, ("oops", "e_zp"), IDEAL)
    with pytest.raises(Exception):
        extend_chain(ghz, bell, ("e_z", "oops"), IDEAL)


@st.composite
def _extension_inputs(draw):
    # a chain of 2-4 spins and a fresh pair with random amplitudes; fixing
    # the joint spins of both to basis levels kills one parity, exactly or
    # down to a weight below the dead-branch threshold
    n = draw(st.integers(2, 4))
    parts = st.floats(-1.0, 1.0, allow_nan=False)

    def amplitudes(size):
        return np.array([complex(draw(parts), draw(parts)) for _ in range(size)])

    labels = tuple(f"e{i}" for i in range(n))
    label_z = draw(st.sampled_from(labels))
    pair = draw(st.sampled_from((("zp", "d"), ("d", "zp"))))
    chain, fresh = amplitudes(2 ** n), amplitudes(4)
    if draw(st.booleans()):
        residue = draw(st.sampled_from((0.0, 1e-13)))
        bits = (np.arange(2 ** n) >> (n - 1 - labels.index(label_z))) & 1
        chain[bits != draw(st.integers(0, 1))] *= residue
        fresh[((np.arange(4) >> (1 - pair.index("zp"))) & 1) != draw(st.integers(0, 1))] *= residue
    assume(np.linalg.norm(chain) > 1e-3 and np.linalg.norm(fresh) > 1e-3)
    ideal = draw(st.booleans())
    coeffs = IDEAL if ideal else random_coeffs(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    eta_in = draw(st.floats(0.5, 1.0, exclude_min=True))
    return (StateVector(spin_register(labels), chain / np.linalg.norm(chain)),
            StateVector(spin_register(pair), fresh / np.linalg.norm(fresh)),
            (label_z, "zp"), coeffs, eta_in)


#: the even branches weigh 1.28e-24 at unit input coupling, above the
#: dead-branch threshold, and 9.6e-25 after eta_in = 0.75, below it
_LIVE_BELOW_THE_THRESHOLD_AFTER_COUPLING = (
    StateVector(spin_register(("e0", "e1")), np.array([0.0, 1j, 0.0, 0.0])),
    StateVector(spin_register(("d", "zp")), np.array([0.0, 1j, 1.6e-12 + 1.6e-12j, 0.0])
                / math.sqrt(1.0 + 2 * 1.6e-12 ** 2)),
    ("e0", "zp"), IDEAL, 0.75)


@given(_extension_inputs())
@example(_LIVE_BELOW_THE_THRESHOLD_AFTER_COUPLING)
@settings(max_examples=60, deadline=None)
def test_extend_chain_matches_gate_oracle(inputs):
    outs = extend_chain(*inputs)
    gates = extend_chain_gates(*inputs)
    assert [(o.detection, o.correction) for o in outs] == [(o.detection, o.correction) for o in gates]
    for o, g in zip(outs, gates):
        assert (o.post_state is None) == (g.post_state is None)
        assert (o.fidelity is None) == (g.fidelity is None)
        assert o.probability == pytest.approx(g.probability, abs=1e-12)
        if o.fidelity is not None:
            assert o.fidelity == pytest.approx(g.fidelity, abs=1e-12)
        if o.probability > 1e-6:
            assert o.post_state.register == g.post_state.register
            assert np.max(np.abs(o.post_state.amplitudes - g.post_state.amplitudes)) < 1e-12


def _deficit(maps):
    """I - sum_k A_k^dagger A_k of the instrument stack ``maps``."""
    return np.eye(maps.shape[2]) - np.einsum("kji,kjl->il", maps.conj(), maps)


@given(st.sampled_from(_NODE_KINDS), st.sampled_from(_NODE_KINDS), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_cached_instruments_lose_weight(kind_a, kind_b, seed):
    # sum_k A_k^dagger A_k <= I over every extension branch and every kept purification branch
    rng = np.random.default_rng(seed)
    coeffs_a, coeffs_b = _node(kind_a, rng), _node(kind_b, rng)
    for maps in (protocols._extension_maps(coeffs_a), protocols._purification_maps(coeffs_a, coeffs_b)):
        assert np.linalg.eigvalsh(_deficit(maps)).min() >= -1e-12


@given(st.sampled_from(_NODE_KINDS), st.sampled_from(_NODE_KINDS), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_instrument_stacks_equal_their_branch_by_branch_oracles(kind_a, kind_b, seed):
    # the extension table's products give every entry of the per-branch Kronecker and matrix
    # products exactly; the purification stack is 0.0 exactly where the exact oracle is, and
    # elsewhere within its own rounding (1.7e-16 at most over 3,000 draws) and the oracle's one
    rng = np.random.default_rng(seed)
    coeffs_a, coeffs_b = _node(kind_a, rng), _node(kind_b, rng)
    ext, pur = protocols._extension_maps(coeffs_a), protocols._purification_maps(coeffs_a, coeffs_b)
    assert (ext.shape, pur.shape) == ((8, 2, 8), (8, 4, 16))
    assert ext.dtype == pur.dtype == np.complex128
    assert np.array_equal(ext, extension_maps_loop(coeffs_a))
    oracle = purification_maps_loop(coeffs_a, coeffs_b)
    assert np.array_equal(pur == 0, oracle == 0)
    assert np.max(np.abs(pur - oracle)) <= 2.3e-16


@given(st.sampled_from(_NODE_KINDS), st.sampled_from(_NODE_KINDS), st.integers(0, 2 ** 32 - 1))
@example("ideal", "empty", 0)
@example("empty", "ideal", 0)
@example("ideal", "detuned", 1)     # IDEAL's u and v are +-1, so its products cancel across the table's terms
@example("resonant", "ideal", 165)  # u = -v to 3e-9: the Phi- to Phi+ weights are 9.1e-17, not zero
@settings(max_examples=100, deadline=None)
def test_instrument_stacks_and_bell_weights_read_exactly_zero_where_exact_arithmetic_does(kind_a, kind_b, seed):
    # the oracle is exact arithmetic on the nodes' u and v, rounded once: its 0.0 entries are the
    # structural zeros, and a tiny entry is a true one, not a zero; here at every draw, IDEAL and
    # g = 0 ("empty") included, two nodes and one
    rng = np.random.default_rng(seed)
    coeffs_a, coeffs_b = _node(kind_a, rng), _node(kind_b, rng)
    for pair in ((coeffs_a, coeffs_b), (coeffs_a, coeffs_a)):
        assert not protocols._purification_maps(*pair)[purification_maps_loop(*pair) == 0].any()
    assert not protocols._bell_weights(coeffs_a)[exact_bell_weights(coeffs_a) == 0].any()
    # at g = 0, u == v: every odd branch, a multiple of u - v, is 0.0 at every entry
    if "empty" in (kind_a, kind_b):
        assert not protocols._purification_maps(coeffs_a, coeffs_b)[4:].any()
    if kind_a == "empty":
        assert not protocols._extension_maps(coeffs_a)[4:].any()


def test_instrument_tables_hold_only_zeros_and_signed_powers_of_two():
    # so every product of a coefficient with a node's term is exact
    for table in protocols._instrument_tables():
        assert not table.imag.any()
        mags = np.abs(table.real[table.real != 0])
        assert np.array_equal(mags, 2.0 ** np.round(np.log2(mags)))


def test_purification_stack_has_its_structural_zeros_at_the_reference_nodes():
    # 384 of 512 entries vanish in exact arithmetic at IDEAL on both parties, 304 at (g=1.2, ks=0.2)
    practical = resonant_coeffs(CavityParams(g=1.2, kappa_s=0.2))
    assert [int(np.sum(protocols._purification_maps(c, c) == 0)) for c in (IDEAL, practical)] == [384, 304]
    # no Psi- weight from two Phi- copies at equal nodes, and none of the weights that vanish at IDEAL
    assert protocols._bell_weights(practical)[2, 0] == 0.0
    assert protocols._bell_weights(IDEAL).tolist() == [[8.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 8.0],
                                                        [0.0] * 4, [0.0] * 4]


@given(_extension_inputs())
@example(_LIVE_BELOW_THE_THRESHOLD_AFTER_COUPLING)
@settings(max_examples=60, deadline=None)
def test_extension_deficit_is_the_lost_probability(inputs):
    # the extension lists every branch, so its deficit's expectation is all the probability it loses
    chain, fresh, (label_z, label_zp), coeffs, _ = inputs
    joint = tensor(chain, fresh)
    pos = [joint.register.position(lab) for lab in (label_z, label_zp, "d")]
    psi = np.moveaxis(joint.tensor_axes(), pos, (-3, -2, -1)).reshape(-1, 8)
    lost = np.einsum("ri,ij,rj->", psi.conj(), _deficit(protocols._extension_maps(coeffs)), psi).real
    outcomes = extend_chain(chain, fresh, (label_z, label_zp), coeffs)
    assert abs(lost - (1.0 - math.fsum(o.probability for o in outcomes))) <= 1e-12


# --- purification ------------------------------------------------------------------

def test_purify_fixed_points():
    state, discarded = purify_round(0.5)
    assert state.mu == pytest.approx(0.5, abs=1e-10)
    assert state.success_probability == pytest.approx(0.5, abs=1e-10)
    assert discarded == pytest.approx(0.5, abs=1e-10)
    state, discarded = purify_round(1.0)
    assert state.mu == pytest.approx(1.0, abs=1e-10)
    assert state.success_probability == pytest.approx(1.0, abs=1e-10)


def test_purify_reference_point():
    state, discarded = purify_round(0.7)
    assert state.mu == pytest.approx(49.0 / 58.0, abs=1e-10)
    assert state.success_probability == pytest.approx(0.58, abs=1e-10)
    assert discarded == pytest.approx(0.42, abs=1e-10)


def test_purify_simulation_matches_recursion(rng):
    for mu in rng.uniform(0.0, 1.0, size=8):
        state, _ = purify_round(float(mu))
        expected = mu ** 2 / (mu ** 2 + (1.0 - mu) ** 2)
        assert state.mu == pytest.approx(expected, abs=1e-10)
        assert state.success_probability == pytest.approx(mu ** 2 + (1.0 - mu) ** 2, abs=1e-10)


def test_purify_strictly_improves_above_half(rng):
    for mu in rng.uniform(0.51, 0.99, size=10):
        state, _ = purify_round(float(mu))
        assert state.mu > mu


@given(st.floats(0.0, 1.0), st.none() | st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_purify_round_matches_gate_oracle(mu, seed):
    coeffs = IDEAL if seed is None else random_coeffs(np.random.default_rng(seed))
    state, discarded = purify_round(mu, coeffs)
    labels = ("e_a", "e_b")
    weights = np.array([mu, 1.0 - mu])
    rows = np.array([phi_minus(labels).amplitudes, phi_plus(labels).amplitudes])
    mixture, success = purify_gates((weights[weights > 0.0], rows[weights > 0.0]), labels, coeffs, coeffs)
    assert state.mu == pytest.approx(mixture_fidelity(mixture, labels), abs=1e-12)
    assert state.success_probability == pytest.approx(success, abs=1e-12)
    assert discarded == pytest.approx(1.0 - success, abs=1e-12)


@given(st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_purify_round_is_the_chain_round_on_the_bell_mixture(mu, seed):
    # two independent computations of one round: the chain's pools the pair
    # stage's rows on the matrix's eigenvectors, purify_round contracts the
    # instrument with the Bell basis, in which the mixture is diagonal
    coeffs = random_coeffs(np.random.default_rng(seed))
    state, discarded = purify_round(mu, coeffs)
    labels = ("e_a", "e_b")
    rho = mu * _outer(phi_minus(labels).amplitudes) + (1.0 - mu) * _outer(phi_plus(labels).amplitudes)
    out, p = protocols._purify(rho, protocols._purification_maps(coeffs, coeffs))
    assert abs(state.mu - _weight(out, phi_minus(labels))) <= 1e-14
    assert abs(state.success_probability - p) <= 1e-14
    assert abs(discarded - (1.0 - p)) <= 1e-14


def test_purify_round_reaches_no_pooling(monkeypatch, rng):
    def pooled(*args):
        raise AssertionError("purify_round reached the pair stage's pooling")
    monkeypatch.setattr(protocols, "_pair_stage", pooled)
    monkeypatch.setattr(protocols, "_apply_instrument", pooled)
    monkeypatch.setattr(protocols, "_normalized_ensemble", pooled)
    monkeypatch.setattr(protocols, "_eigen_ensemble", pooled)
    monkeypatch.setattr(protocols, "_equal_upto_phase", pooled)
    for coeffs in (IDEAL, random_coeffs(rng)):
        for mu in (0.0, 1e-30, 0.7, 1.0):
            state, _ = purify_round(mu, coeffs)
            assert 0.0 <= state.mu <= 1.0 and state.success_probability > 0.0


def test_purify_rejects_bad_mu():
    with pytest.raises(ValueError):
        purify_round(1.2)
    with pytest.raises(ValueError):
        purify_round(-0.1)
    with pytest.raises(ValueError):
        purify_analytic(2.0, 1)


#: a node whose parity checks lose every probe: t = t0 = -1/2, so u = v = 0
DEAD = resonant_coeffs(CavityParams(g=0.0, kappa_s=2.0))


def test_purification_at_a_dead_node_raises_one_error_in_simulation_and_closed_form():
    assert protocols._parity_operators(DEAD).tolist() == [[0j] * 4] * 2
    assert issubclass(NoSurvivingBranchError, ValueError)
    with pytest.raises(NoSurvivingBranchError, match="^purification heralded no surviving branches$"):
        purify_round(0.7, DEAD)
    with pytest.raises(NoSurvivingBranchError, match="^no purification branch survives at these coefficients$"):
        purification_metrics(0.7, DEAD)


@pytest.mark.parametrize("nodes,rounds,message", [
    ({"A": IDEAL, "B": DEAD, "C": IDEAL}, 0, "extend at B: extension heralded no surviving branches"),
    ({"A": IDEAL, "B": DEAD, "C": IDEAL}, 1, "purify AB round 1: purification heralded no surviving branches"),
    ({"A": DEAD, "B": DEAD, "C": IDEAL}, 0, "distribute AB: no surviving branches"),
], ids=["extension", "purification", "distribution"])
def test_a_chain_stage_that_heralds_nothing_names_itself(nodes, rounds, message):
    scenario = ChainScenario(nodes=nodes, segments=[SegmentSpec("AB", "A", "B"), SegmentSpec("BC", "B", "C")],
                             purify_rounds=rounds)
    with pytest.raises(NoSurvivingBranchError) as info:
        run_chain(scenario)
    assert str(info.value) == message


def test_purify_analytic_sequence():
    states = purify_analytic(0.7, 3)
    assert [s.round for s in states] == [1, 2, 3]
    assert states[0].mu == pytest.approx(49.0 / 58.0, abs=1e-12)
    assert states[1].mu == pytest.approx(2401.0 / 2482.0, abs=1e-12)
    assert states[2].mu == pytest.approx(5764801.0 / 5771362.0, abs=1e-12)
    assert states[0].success_probability == pytest.approx(0.58, abs=1e-12)
    assert purify_analytic(0.5, 4)[-1].mu == pytest.approx(0.5, abs=1e-12)


# --- mixture pooling ---------------------------------------------------------------

POOL_REG = spin_register(("e_a", "e_b"))


def _pool(pairs):
    """(weight, unit amplitude row) pairs over `POOL_REG` pooled as the pair stage pools its rows,
    as (weights, rows)."""
    return protocols._normalized_ensemble([w for w, _ in pairs], np.array([row for _, row in pairs]))


#: how a member is made from its base row, and whether it pools with the base
POOL_KINDS = {
    "copy": True,       # the base row
    "atol": True,       # every entry 1e-11 off
    "rtol": True,       # the largest entry 5e-7 off relative, within rtol 1e-5 only
    "near": True,       # the smallest entry 0.8e-5 off relative, so it also pools with "far"
    "far": False,       # the smallest entry 1.6e-5 off relative
    "edge": True,       # the smaller entries 0.999 of the bound up, the larger down as the norm needs
    "apart": False,     # every entry 1e-4 off
    "tiny": False,      # the largest entry at 1e-11, below atol
    "zero": False,      # the largest entry at 0
    "subnormal": False,  # the largest entry at 1e-310, whose phase overflows
}


def _unit_row(rng):
    row = rng.normal(size=POOL_REG.dim) + 1j * rng.normal(size=POOL_REG.dim)
    return row / np.linalg.norm(row)


def _pool_member(row, kind, phase, rng):
    """A unit row made from ``row`` as ``kind`` says, times a global phase."""
    out = row.copy()
    k = int(np.argmax(np.abs(row)))
    if kind in ("atol", "apart"):
        out += (1e-11 if kind == "atol" else 1e-4) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, row.size))
    elif kind == "rtol":
        out[k] *= 1.0 + 5e-7
    elif kind in ("near", "far"):
        out[np.argmin(np.abs(row))] *= 1.0 + (0.8e-5 if kind == "near" else 1.6e-5)
    elif kind in ("tiny", "zero", "subnormal"):
        out[k] = {"tiny": 1e-11, "zero": 0.0, "subnormal": 1e-310}[kind]
    elif kind == "edge":
        # the smaller half of the entries grows by 0.999 of its bound, 1e-10 + 1e-5 |entry|,
        # and the larger half shrinks by as much of the norm, so normalizing moves no entry
        mag = np.abs(row)
        up = mag < np.median(mag)
        bound = 0.999 * (1e-10 + 1e-5 * mag)
        norm_up, norm_dn = (np.sum(mag[side] * bound[side]) for side in (up, ~up))
        out *= 1.0 + np.where(up, bound, -bound * norm_up / norm_dn) / mag
    return np.exp(1j * phase) * out / np.linalg.norm(out)


def _pool_outcomes(seed, n_bases, picks):
    """One heralded outcome per (base index, kind) pick, of random weight."""
    rng = np.random.default_rng(seed)
    bases = [_unit_row(rng) for _ in range(n_bases)]
    rows = [_pool_member(bases[b], kind, rng.uniform(0.0, 2.0 * math.pi), rng) for b, kind in picks]
    return [HeraldedOutcome(f"m{i}", float(rng.uniform(1e-3, 1.0)), (), StateVector(POOL_REG, row), None)
            for i, row in enumerate(rows)]


_pool_inputs = st.integers(1, 6).flatmap(lambda n: st.builds(
    _pool_outcomes, st.integers(0, 2 ** 32 - 1), st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(sorted(POOL_KINDS))), min_size=1, max_size=16)))

#: every kind against its base, a representative below atol at the new row's
#: largest entry, a row that matches two representatives, and more distinct
#: rows than the register dimension, which takes the eigenbasis rebuild
_EVERY_POOLING_BRANCH = _pool_outcomes(3, 5, [
    (0, "tiny"), (0, "copy"), (0, "atol"), (0, "rtol"), (0, "apart"), (1, "zero"), (1, "copy"),
    (1, "far"), (1, "near"), (2, "subnormal"), (2, "copy"), (3, "atol"), (3, "copy"), (4, "copy"),
    (4, "rtol")])


@pytest.mark.parametrize("kind", sorted(POOL_KINDS))
def test_pooling_rule_against_the_base_row(kind):
    # the made row comes first, so it is the representative the base row meets
    rng = np.random.default_rng(11)
    row = _unit_row(rng)
    made = _pool_member(row, kind, 0.0, rng)
    weights, rows = _pool([(0.5, made), (0.5, row)])
    assert len(weights) == len(rows) == (1 if POOL_KINDS[kind] else 2)
    if kind == "rtol":
        # beyond atol alone: the pooling rests on numpy's default rtol
        assert not np.allclose(made, row, rtol=0.0, atol=1e-10)


def test_a_row_that_matches_two_representatives_joins_the_first():
    rng = np.random.default_rng(5)
    row = _unit_row(rng)
    rows = [row, _pool_member(row, "far", 0.0, rng), _pool_member(row, "near", 0.0, rng)]
    weights, pooled = _pool(list(zip((0.5, 0.25, 0.25), rows)))
    assert weights.tolist() == [0.75, 0.25]
    assert pooled.tobytes() == np.array(rows[:2]).tobytes()


#: the Bell states over (e_a, e_b), which pair stages map onto each other
_BELL_ROWS = [np.array(row) * RT2 for row in ([1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0])]


#: 131 rows of dimension 4: the last rows match representatives among the
#: first ones, and the last one, "near" its base, matches both its "copy"
#: and its "far" row
_MATCHES_FAR_BACK = _pool_outcomes(7, 3, [(0, "copy"), (0, "far")] + [
    (i % 3, sorted(POOL_KINDS)[i % len(POOL_KINDS)]) for i in range(128)] + [(0, "near")])


def _bell_outcomes(seed, kinds):
    """One outcome of random weight per index into `_BELL_ROWS`, each row at a random global phase."""
    rng = np.random.default_rng(seed)
    rows = [np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) * _BELL_ROWS[k] for k in kinds]
    return [HeraldedOutcome(f"m{i}", float(rng.uniform(1e-3, 1.0)), (), StateVector(POOL_REG, row), None)
            for i, row in enumerate(rows)]


#: the purify shape, 128 rows of two Bell states: every key is sqrt(2), so
#: every pair is in the window, and the pairs of one state, about half, match
_TWO_BELL_STATES = _bell_outcomes(17, np.random.default_rng(19).integers(0, 2, 128).tolist())
#: the four Bell rows: every key is sqrt(2), so every pair is in the window,
#: and none matches, not even Phi+ and Phi-, whose entry magnitudes are equal
_FOUR_BELL_STATES = _bell_outcomes(23, [0, 1, 2, 3])


def _assert_same_mixture(mixture, oracle):
    (weights, rows), (oracle_weights, oracle_rows) = mixture, oracle
    assert weights.tolist() == oracle_weights.tolist()
    assert rows.shape == oracle_rows.shape and rows.tobytes() == oracle_rows.tobytes()


@given(_pool_inputs)
@example(_EVERY_POOLING_BRANCH)
@example(_MATCHES_FAR_BACK)
@example(_TWO_BELL_STATES)
@example(_FOUR_BELL_STATES)
@settings(max_examples=60, deadline=None)
def test_pooling_matches_scalar_oracle_bit_for_bit(outcomes):
    pairs = [(o.probability, o.post_state.amplitudes) for o in outcomes]
    _assert_same_mixture(_pool(pairs), pool_scalar(pairs))


def test_pooling_compares_only_rows_within_the_key_window(monkeypatch):
    # 128 distinct random rows: comparing every later row with every earlier
    # one would take 8,128 pairs
    pairs = []
    equal_upto_phase = protocols._equal_upto_phase

    def counting(va, vb, atol):
        pairs.append(len(va))
        return equal_upto_phase(va, vb, atol)

    monkeypatch.setattr(protocols, "_equal_upto_phase", counting)
    rng = np.random.default_rng(13)
    _pool([(1.0, _unit_row(rng)) for _ in range(128)])
    assert pairs and sum(pairs) < 0.05 * 128 * 127 / 2


def _two_spin_mixture(seed, kinds):
    """A mixture (weights, rows) of random weights whose members are Bell
    states (kinds 0-3) or random rows (kind 4), each at a random global phase."""
    rng = np.random.default_rng(seed)
    rows = [_unit_row(rng) if k == 4 else _BELL_ROWS[k] for k in kinds]
    weights = rng.uniform(1e-3, 1.0, len(kinds))
    return weights / weights.sum(), np.array([np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) * row for row in rows])


_mixtures = st.builds(_two_spin_mixture, st.integers(0, 2 ** 32 - 1),
                      st.lists(st.integers(0, 4), min_size=1, max_size=4))


@given(seed=st.integers(0, 2 ** 32 - 1), mixture=_mixtures)
@settings(max_examples=40, deadline=None)
def test_pair_stage_matches_scalar_oracle_bit_for_bit(seed, mixture):
    rng = np.random.default_rng(seed)
    maps = protocols._purification_maps(random_coeffs(rng), random_coeffs(rng))
    pooled, success = protocols._pair_stage(*mixture, maps)
    oracle, oracle_success = pair_stage_scalar(*mixture, maps)
    _assert_same_mixture(pooled, oracle)
    assert success == oracle_success


@st.composite
def _one_path_inputs(draw):
    # a chain (a, z) and a fresh pair (zp, d) of random unit states, and a node
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    coeffs = _node(draw(st.sampled_from(("ideal", "resonant", "detuned", "empty"))), rng)
    chain, pair = (StateVector(spin_register(labels), _unit_row(rng)) for labels in (("a", "z"), ("zp", "d")))
    return chain, pair, coeffs


def _outer(amps):
    return np.outer(amps, amps.conj())


@given(_one_path_inputs())
@settings(max_examples=60, deadline=None)
def test_extension_branches_mix_to_the_chain_splice(inputs):
    # extend_chain's live branches, weighted by their probabilities, add up
    # to the splice's p rho'
    chain, pair, coeffs = inputs
    live = [o for o in extend_chain(chain, pair, ("z", "zp"), coeffs) if o.post_state is not None]
    assert {o.post_state.register.labels for o in live} == {("a", "d")}
    rho, p = protocols._splice(_outer(chain.amplitudes), _outer(pair.amplitudes), protocols._extension_maps(coeffs))
    mixed = sum(o.probability * _outer(o.post_state.amplitudes) for o in live)
    assert np.max(np.abs(mixed - p * rho)) < 1e-12


def _density_matrix(rng, rank):
    """A random two-spin density matrix of rank ``rank``: random weights on random unit rows."""
    rows = rng.normal(size=(rank, 4)) + 1j * rng.normal(size=(rank, 4))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    weights = rng.uniform(1e-3, 1.0, rank)
    return sum(w * _outer(row) for w, row in zip(weights / weights.sum(), rows))


@st.composite
def _splice_inputs(draw):
    # a chain (a, z) and a segment (zp, d) as mixtures of rank 1 to 4, and a node
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    coeffs = _node(draw(st.sampled_from(("ideal", "resonant", "detuned", "empty"))), rng)
    return _density_matrix(rng, draw(st.integers(1, 4))), _density_matrix(rng, draw(st.integers(1, 4))), coeffs


@given(_splice_inputs())
@settings(max_examples=60, deadline=None)
def test_splice_matches_the_density_matrix_oracle(inputs):
    rho_chain, rho_seg, coeffs = inputs
    maps = protocols._extension_maps(coeffs)
    rho, p = protocols._splice(rho_chain, rho_seg, maps)
    oracle, oracle_p = _rho_stage(rho_chain, rho_seg, maps)
    assert np.max(np.abs(rho - oracle)) < 1e-12
    assert p == pytest.approx(oracle_p, rel=0, abs=1e-12)


# --- chains -----------------------------------------------------------------------

def test_single_ideal_segment():
    scenario = ChainScenario(nodes={"A": IDEAL, "B": IDEAL},
                             segments=[SegmentSpec("AB", "A", "B")])
    report = run_chain(scenario)
    assert report.final_fidelity == pytest.approx(1.0, abs=1e-10)
    assert report.total_probability == pytest.approx(1.0, abs=1e-10)


def test_two_ideal_segments_with_extension():
    scenario = ChainScenario(
        nodes={"A": IDEAL, "B": IDEAL, "C": IDEAL},
        segments=[SegmentSpec("AB", "A", "B"), SegmentSpec("BC", "B", "C")])
    report = run_chain(scenario)
    assert report.final_fidelity == pytest.approx(1.0, abs=1e-10)
    assert report.total_probability == pytest.approx(1.0, abs=1e-10)
    assert [s.stage for s in report.stages] == ["distribute", "distribute", "extend"]


def test_practical_segment_probability_matches_eta():
    scenario = ChainScenario(nodes={"A": REF, "B": REF},
                             segments=[SegmentSpec("AB", "A", "B")])
    report = run_chain(scenario)
    assert report.total_probability == pytest.approx(0.7700582, abs=5e-7)


def test_chain_with_purification_round():
    ch = NoiseChannel(0.8, 0.6, 0.6, -0.8)
    scenario = ChainScenario(
        nodes={"A": IDEAL, "B": IDEAL},
        segments=[SegmentSpec("AB", "A", "B", noise_left=ch, noise_right=ch)],
        purify_rounds=1)
    report = run_chain(scenario)
    mu0 = channel_mixing_weight([ch, ch])
    mu1 = mu0 ** 2 / (mu0 ** 2 + (1.0 - mu0) ** 2)
    assert report.stages[0].fidelity == pytest.approx(mu0, abs=1e-10)
    assert report.final_fidelity == pytest.approx(mu1, abs=1e-10)
    assert report.stages[1].probability == pytest.approx(mu0 ** 2 + (1.0 - mu0) ** 2, abs=1e-10)


def test_deep_practical_chain_stays_compact():
    # noisy practical segments, purification and extension together once blew
    # ensembles up through duplicated members; the final state is one 4x4
    # matrix of trace 1
    ch = NoiseChannel(0.6, 0.8, 0.8, -0.6)
    sc = resonant_coeffs(CavityParams(g=2.4, kappa_s=0.2, gamma=0.1))
    scenario = ChainScenario(
        nodes={"A": sc, "B": IDEAL, "C": sc},
        segments=[SegmentSpec("AB", "A", "B", noise_left=ch, noise_right=ch),
                  SegmentSpec("BC", "B", "C")],
        purify_rounds=1, eta_in=0.9)
    report = run_chain(scenario)
    assert report.final_state.shape == (4, 4)
    assert np.trace(report.final_state).real == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < report.total_probability < 1.0
    assert 0.0 < report.final_fidelity <= 1.0


def test_chain_input_coupling():
    scenario = ChainScenario(nodes={"A": IDEAL, "B": IDEAL},
                             segments=[SegmentSpec("AB", "A", "B")], eta_in=0.9)
    report = run_chain(scenario)
    assert report.total_probability == pytest.approx(0.81, abs=1e-10)
    assert report.final_fidelity == pytest.approx(1.0, abs=1e-10)


def test_chain_at_small_eta_in_keeps_every_branch():
    scenario = ChainScenario(nodes={"A": IDEAL, "B": IDEAL},
                             segments=[SegmentSpec("AB", "A", "B")], purify_rounds=1, eta_in=1e-13)
    report = run_chain(scenario)
    assert [s.probability for s in report.stages] == pytest.approx([1e-26, 1e-26], rel=1e-12)
    assert report.total_probability == pytest.approx(1e-52, rel=1e-12)
    assert report.final_fidelity == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("eta_in,log10_total", [(1e-160, -640.0), (1e-200, -800.0)])
def test_chain_at_tiny_eta_in_reports_zero_stages_and_the_log(eta_in, log10_total):
    # each stage runs at unit input coupling; eta_in ** 2 per stage lies below
    # the smallest normal float, so every stage probability reads 0
    scenario = ChainScenario(nodes={"A": IDEAL, "B": IDEAL},
                             segments=[SegmentSpec("AB", "A", "B")], purify_rounds=1, eta_in=eta_in)
    report = run_chain(scenario)
    assert [s.probability for s in report.stages] == [0.0, 0.0]
    assert report.total_probability == 0.0
    assert report.log10_total_probability == pytest.approx(log10_total, rel=0, abs=1e-12)
    assert report.final_fidelity == pytest.approx(1.0, abs=1e-12)


def _ideal_chain(segments, eta_in, rounds=0):
    return ChainScenario(nodes={f"n{i}": IDEAL for i in range(segments + 1)},
                         segments=[SegmentSpec(f"s{i}", f"n{i}", f"n{i + 1}") for i in range(segments)],
                         purify_rounds=rounds, eta_in=eta_in)


@pytest.mark.parametrize("segments", [10, 11, 12])
def test_long_chain_total_below_the_normal_range_is_reported_as_zero(segments):
    # 3 S - 1 photon passes at eta_in = 1e-10: 1e-290, 1e-320 (subnormal), 1e-350
    report = run_chain(_ideal_chain(segments, 1e-10))
    assert report.log10_total_probability == pytest.approx(-10.0 * (3 * segments - 1), rel=1e-12)
    product = math.prod(s.probability for s in report.stages)
    assert report.total_probability == (product if segments == 10 else 0.0)


@given(st.integers(1, 4), st.integers(0, 2), st.floats(-12.0, 0.0),
       st.lists(st.tuples(_rotations, _rotations), min_size=4, max_size=4))
@settings(max_examples=30, deadline=None)
def test_ideal_chain_probability_counts_every_photon_pass(segments, rounds, log_eta, rotations):
    # eta_in^2 per distribution and per purification round of each segment,
    # eta_in per extension; collective fibers change nothing
    eta_in = 10.0 ** log_eta
    scenario = _ideal_chain(segments, eta_in, rounds)
    for seg, pair in zip(scenario.segments, rotations):
        seg.noise_left, seg.noise_right = (symmetric_from_angles(*r) for r in pair)
    report = run_chain(scenario)
    assert report.final_fidelity == pytest.approx(1.0, abs=1e-12)
    expected = (3 * segments + 2 * segments * rounds - 1) * math.log10(eta_in)
    # the absolute floor covers eta_in near 1, where the logarithm is ~0
    assert report.log10_total_probability == pytest.approx(expected, rel=1e-12, abs=1e-13)


#: fibers whose early and late bins rotate independently, or near-collective ones
_chain_fibers = st.tuples(_rotations, _rotations).map(lambda ab: _asymmetric_fiber(*ab)) | _near_collective_fibers
#: one fiber rotated by a subnormal angle late: a member keeps a subnormal
#: entry where the next one is largest, so their phase ratio overflows
_SUBNORMAL_ROTATION = [(_asymmetric_fiber((0.0,) * 3, (0.0,) * 3),
                        _asymmetric_fiber((1.0, 0.0, 0.0), (2.225073858507203e-309, 0.0, 0.0)))]
_QUIET_FIBERS = [(_asymmetric_fiber((0.0,) * 3, (0.0,) * 3), _asymmetric_fiber((0.0,) * 3, (0.0,) * 3))] * 3
#: near-collective fibers: distribution outcomes whose states differ by less
#: than numpy's rtol 1e-5; pooling them put the purify stage's fidelity 1.3e-10 off
_NEAR_COLLECTIVE = [(_late_rotated(NoiseChannel.identity(), 1e-12),
                     _late_rotated(symmetric_from_angles(2.25, 0.0, 0.0), 1e-2))]


@given(st.integers(1, 4), st.integers(0, 2), st.floats(0.7, 1.0),
       st.lists(st.tuples(_chain_fibers, _chain_fibers), min_size=4, max_size=4))
@example(1, 0, 1.0, _SUBNORMAL_ROTATION + _QUIET_FIBERS)
@example(1, 1, 1.0, _NEAR_COLLECTIVE + _QUIET_FIBERS)
@settings(max_examples=30, deadline=None)
def test_ideal_chain_matches_closed_form(segments, rounds, eta_in, fibers):
    scenario = _ideal_chain(segments, eta_in, rounds)
    for seg, (left, right) in zip(scenario.segments, fibers):
        seg.noise_left, seg.noise_right = left, right
    report = run_chain(scenario)
    expected = chain_analytic(scenario)
    assert len(report.stages) == len(expected)
    for stage, (p, f) in zip(report.stages, expected):
        assert stage.probability == pytest.approx(p, rel=0, abs=1e-10)
        assert stage.fidelity == pytest.approx(f, rel=0, abs=1e-10)
    assert report.total_probability == pytest.approx(math.prod(p for p, _ in expected), rel=0, abs=1e-10)
    assert report.final_fidelity == pytest.approx(expected[-1][1], rel=0, abs=1e-10)


def test_chain_with_rounding_level_parity_ports():
    # ideal -> (g=2.4, ks=0.1) -> (g=1.2, ks=0.2) behind asymmetric fibers:
    # in one purification PCD the odd ports herald p ~ 1e-24 each, and their
    # normalized post states are rounding noise that disagree in overlap
    q = resonant_coeffs(CavityParams(g=2.4, kappa_s=0.1))
    scenario = ChainScenario(
        nodes={"n0": IDEAL, "n1": q, "n2": REF},
        segments=[
            SegmentSpec("s0", "n0", "n1",
                        NoiseChannel((0.0628476289781431-0.0499944094042439j),
                                     (0.11928947588670098+0.9896063639158869j),
                                     (-0.34651586383907135+0.1899312833764904j),
                                     (0.91860548664152+0.004101660019753711j)),
                        NoiseChannel((0.8727444606654313-0.47665096798113243j),
                                     (0.08047339113587026-0.06815419590566632j),
                                     (-0.31811386315867474+0.25979087992107525j),
                                     (-0.6397949458924587-0.6495957943110185j))),
            SegmentSpec("s1", "n1", "n2",
                        NoiseChannel((0.28359467155000806+0.3336147419278929j),
                                     (0.4524627321309792+0.7768865697573863j),
                                     (-0.2358664978576113+0.5576412185929951j),
                                     (0.04121059057691217+0.7947986875547839j)),
                        NoiseChannel((0.9479023602355074+0.26632121751135457j),
                                     (-0.14888673194642404+0.09157983191477154j),
                                     (-0.6108409376726804+0.719202617488421j),
                                     (-0.27625430379639854+0.18249521499187804j))),
        ],
        purify_rounds=1, eta_in=0.8582862963260186)
    report = run_chain(scenario)
    assert [s.stage for s in report.stages] == ["distribute", "purify", "distribute", "purify", "extend"]
    for st in report.stages:
        assert 0.0 <= st.probability <= 1.0
        assert 0.0 <= st.fidelity <= 1.0
    assert 0.0 <= report.total_probability <= 1.0
    assert 0.0 <= report.final_fidelity <= 1.0


@st.composite
def _chain_inputs(draw):
    segments = draw(st.integers(1, 3))
    seeds = draw(st.lists(st.none() | st.integers(0, 2 ** 32 - 1),
                          min_size=segments + 1, max_size=segments + 1))
    nodes = {f"n{i}": IDEAL if seed is None else random_coeffs(np.random.default_rng(seed))
             for i, seed in enumerate(seeds)}
    rotations = draw(st.lists(st.tuples(_rotations, _rotations), min_size=segments, max_size=segments))
    rounds = draw(st.integers(0, 1))
    eta_in = draw(st.floats(0.5, 1.0, exclude_min=True))
    return nodes, rotations, rounds, eta_in


def _chain_scenario(nodes, fibers, rounds, eta_in):
    segments = [SegmentSpec(f"s{i}", f"n{i}", f"n{i + 1}", *pair) for i, pair in enumerate(fibers)]
    return ChainScenario(nodes=nodes, segments=segments, purify_rounds=rounds, eta_in=eta_in)


#: a stage probability is a sum of branch weights; at these nodes it is 1 in
#: exact arithmetic, and the extension at n2 reports 1.0000000000000004
_ROUNDING_EXAMPLE = (
    {"n0": IDEAL, "n1": random_coeffs(np.random.default_rng(104)), "n2": IDEAL, "n3": IDEAL},
    [((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))] * 3, 0, 1.0)
#: rounding allowance on the upper bounds of probabilities and fidelities
_ROUNDING = 1e-12


@given(_chain_inputs())
@example(_ROUNDING_EXAMPLE)
@settings(max_examples=10, deadline=None)
def test_run_chain_invariants_under_collective_fiber_noise(inputs):
    nodes, rotations, rounds, eta_in = inputs
    fibers = [tuple(symmetric_from_angles(*r) for r in pair) for pair in rotations]
    report = run_chain(_chain_scenario(nodes, fibers, rounds, eta_in))
    quiet = run_chain(_chain_scenario(nodes, [(QUIET, QUIET)] * len(fibers), rounds, eta_in))
    for stage in report.stages:
        assert 0.0 <= stage.probability <= 1.0 + _ROUNDING
        assert 0.0 <= stage.fidelity <= 1.0 + _ROUNDING
    assert report.total_probability == pytest.approx(
        math.prod(stage.probability for stage in report.stages), abs=1e-12)
    assert np.trace(report.final_state).real == pytest.approx(1.0, abs=1e-12)
    # heralded states do not depend on collective fiber rotations
    assert [(s.stage, s.label) for s in report.stages] == [(s.stage, s.label) for s in quiet.stages]
    for stage, reference in zip(report.stages, quiet.stages):
        assert stage.probability == pytest.approx(reference.probability, abs=1e-10)
        assert stage.fidelity == pytest.approx(reference.fidelity, abs=1e-10)


@given(st.integers(1, 4), st.integers(0, 2), st.lists(_nodes, min_size=5, max_size=5),
       st.lists(st.tuples(_chain_fibers, _chain_fibers), min_size=4, max_size=4))
@settings(max_examples=20, deadline=None)
def test_final_state_is_a_read_only_density_matrix(segments, rounds, nodes, fibers):
    scenario = _chain_scenario({f"n{i}": c for i, c in enumerate(nodes[:segments + 1])}, fibers[:segments],
                               rounds, 1.0)
    report = run_chain(scenario)
    rho = report.final_state
    assert rho.shape == (4, 4)
    with pytest.raises(ValueError, match="read-only"):
        rho[0, 0] = 0.0
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
    target = phi_minus(report.end_labels).amplitudes
    assert report.final_fidelity == float(np.vdot(target, rho @ target).real)


@st.composite
def _mixed_end_chains(draw):
    # the two ends of every segment differ, so each purification round runs
    # with different coefficients at the two parties; two segments with two
    # rounds each would take the oracle about a second alone
    segments, rounds = draw(st.sampled_from(((1, 1), (2, 1), (1, 2), (2, 0))))
    seeds = draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=segments + 1, max_size=segments + 1,
                          unique=True))
    nodes = {f"n{i}": random_coeffs(np.random.default_rng(seed)) for i, seed in enumerate(seeds)}
    if draw(st.booleans()):
        nodes[f"n{draw(st.integers(0, segments))}"] = IDEAL
    fibers = [(_asymmetric_fiber(*draw(st.tuples(_rotations, _rotations))), draw(_far_fibers))
              for _ in range(segments)]
    return _chain_scenario(nodes, fibers, rounds, draw(st.floats(0.5, 1.0, exclude_min=True)))


#: (g=1.2, ks=0.2) -> (g=2.4, ks=0.1) behind asymmetric fibers, one round,
#: eta_in below 1: each party's coefficients and the input coupling show
_PURIFIED_PRACTICAL_SEGMENT = _chain_scenario(
    {"n0": REF, "n1": resonant_coeffs(CavityParams(g=2.4, kappa_s=0.1))},
    [(_asymmetric_fiber((0.3, 1.0, 2.0), (0.5, 0.2, 0.1)), _asymmetric_fiber((1.1, 0.4, 0.0), (0.7, 2.5, 1.3)))],
    1, 0.9)


@given(_mixed_end_chains())
@example(_PURIFIED_PRACTICAL_SEGMENT)
@settings(max_examples=2, deadline=None)
def test_run_chain_matches_gate_oracle(scenario):
    report = run_chain(scenario)
    oracle = run_chain_gates(scenario)
    assert [(s.stage, s.label) for s in report.stages] == [(s.stage, s.label) for s in oracle.stages]
    for stage, expected in zip(report.stages, oracle.stages):
        assert stage.probability == pytest.approx(expected.probability, abs=1e-12)
        assert stage.fidelity == pytest.approx(expected.fidelity, abs=1e-12)
    assert report.end_labels == oracle.end_labels
    assert report.total_probability == pytest.approx(oracle.total_probability, abs=1e-12)
    assert report.final_fidelity == pytest.approx(oracle.final_fidelity, abs=1e-12)
    # the fidelity misses a flip of both spins, which keeps every Bell state
    assert np.max(np.abs(report.final_state - oracle.final_state)) < 1e-12


#: practical nodes behind near-collective fibers whose outcome states differ by
#: about 1e-6, less than numpy's rtol 1e-5; pooling them put rho 6.2e-7 off
_NEAR_COLLECTIVE_PRACTICAL = (REF, resonant_coeffs(CavityParams(g=2.4, kappa_s=0.1)),
                              _late_rotated(symmetric_from_angles(2.25, 0.0, 0.0), 1e-6),
                              _late_rotated(NoiseChannel.identity(), 1e-12))


#: uncoupled nodes behind collective fibers: the odd class's rows lie below the
#: dead-branch weight (per-photon Gram products would give them 4.3e-19), so
#: the segment's probability is the even class's alone
_UNCOUPLED = resonant_coeffs(CavityParams(g=0.0, kappa_s=0.1))
_UNCOUPLED_SEGMENT = (_UNCOUPLED, _UNCOUPLED, symmetric_from_angles(0.3, 1.0, 2.0), QUIET, 0.8)


@given(_nodes, _nodes, _near_collective_fibers, _near_collective_fibers, st.floats(0.0, 1.0, exclude_min=True))
@example(*_NEAR_COLLECTIVE_PRACTICAL, 1.0)
@example(*_UNCOUPLED_SEGMENT)
@settings(max_examples=30, deadline=None)
def test_a_segment_is_the_mixture_of_its_distribution_outcomes(left, right, noise_left, noise_right, eta_in):
    # no outcome is pooled into another, however close their states
    scenario = _chain_scenario({"n0": left, "n1": right}, [(noise_left, noise_right)], 0, eta_in)
    report = run_chain(scenario)
    rho, p = segment_rho(scenario.segments[0], scenario.nodes, report.end_labels)
    assert np.max(np.abs(report.final_state - rho)) < 1e-12
    (stage,) = report.stages
    assert stage.probability == pytest.approx(protocols.coupled_probability(p, eta_in, 2), rel=1e-12, abs=0.0)
    target = phi_minus(report.end_labels).amplitudes
    assert stage.fidelity == pytest.approx(float(np.vdot(target, rho @ target).real), rel=0, abs=1e-12)


#: a node with g = 0: t = t0, so the odd parity and every branch that needs it herald nothing
_EMPTY = resonant_coeffs(CavityParams(g=0.0))


def _split_ghz(rng):
    """A four-party GHZ distribution with a split fiber and two empty nodes, which leave patterns dead."""
    noises = [random_asymmetric(rng)] + [random_symmetric(rng) for _ in range(3)]
    coeffs = [_EMPTY, _EMPTY, IDEAL, random_coeffs(rng)]
    quiet = {o.detection: o.correction for o in distribute_ghz(4, [QUIET] * 4, coeffs)}    # each pattern's gates
    patterns = ["".join(p) for p in itertools.product(("R↑", "L↓"), repeat=4)]
    return (lambda eta_in: distribute_ghz(4, noises, coeffs, eta_in)), 4, \
        {p: quiet[p] for p in patterns}, lambda detection: detection.split(":")[0]


def _even_pcd(rng):
    """A parity check of a state with no odd part on its two spins, so the L ports are dead."""
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps[2:6] = 0.0                 # a != b
    state = StateVector(spin_register(("a", "b", "c")), amps / np.linalg.norm(amps))
    coeffs = random_coeffs(rng)
    return (lambda eta_in: pcd(state, "a", "b", coeffs, eta_in)), 1, \
        dict.fromkeys(["R_a1", "R_a2", "L_a1", "L_a2"], ()), lambda detection: detection


def _empty_extension(rng):
    """An extension at an empty node, whose odd branches are dead."""
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    chain = StateVector(spin_register(("a", "z")), amps / np.linalg.norm(amps))
    gates = {f"{parity}:{m1},{m2}": ((("x", "d"),) if parity == "odd" else ()) + ((("z", "d"),) if m1 != m2 else ())
             for parity in ("even", "odd") for m1, m2 in itertools.product(("up", "dn"), repeat=2)}
    return (lambda eta_in: extend_chain(chain, phi_minus(("zp", "d")), ("z", "zp"), _EMPTY, eta_in)), 1, \
        gates, lambda detection: detection


@pytest.mark.parametrize("case", [_split_ghz, _even_pcd, _empty_extension],
                         ids=["split-ghz", "even-pcd", "empty-extension"])
def test_every_protocol_lists_its_branches_by_one_rule(rng, case):
    run, passes, gates, branch_of = case(rng)
    unit = run(1.0)
    # every branch in its own place, in order, a dead one listed once as (name, 0.0, gates, None, None)
    branches = [branch_of(o.detection) for o in unit]
    assert list(dict.fromkeys(branches)) == list(gates)
    assert branches == sorted(branches, key=list(gates).index)
    dead = [o for o in unit if o.post_state is None]
    assert 0 < len(dead) < len(unit)
    for o, branch in zip(unit, branches):
        if o.post_state is None:
            assert o == HeraldedOutcome(branch, 0.0, gates[branch], None, None) and branches.count(branch) == 1
        else:
            assert o.correction == gates[branch] and o.probability > 0.0 and o.fidelity is not None
    # a live branch's probability is `coupled_probability` of its own at unit coupling, bit for bit, and its
    # state and fidelity stay; the last eta_in underflows on every live branch
    for eta_in in (0.37, 1e-120, 1e-310):
        scaled = run(eta_in)
        assert [(o.detection, o.correction, o.fidelity) for o in scaled] == \
               [(o.detection, o.correction, o.fidelity) for o in unit]
        for o, u in zip(scaled, unit):
            want = 0.0 if u.post_state is None else protocols.coupled_probability(u.probability, eta_in, passes)
            assert o.probability.hex() == want.hex()
            assert (o.post_state is None) == (u.post_state is None)
            if u.post_state is not None:
                assert o.post_state.amplitudes.tobytes() == u.post_state.amplitudes.tobytes()
    assert {o.probability for o in scaled} == {0.0}


def test_run_chain_builds_no_distribution_outcome_list(monkeypatch):
    # a segment's state comes from the amplitude rows; the public outcome
    # list, and the state stack every listed outcome is checked in, are never built
    def refused(*args, **kwargs):
        raise AssertionError("run_chain built a distribution outcome list")

    monkeypatch.setattr(protocols, "distribute_bell", refused)
    monkeypatch.setattr(StateVector, "rows", refused)
    report = run_chain(_PURIFIED_PRACTICAL_SEGMENT)
    assert [s.stage for s in report.stages] == ["distribute", "purify"]
    assert 0.0 < report.total_probability < 1.0


@pytest.mark.parametrize("segments", [3, 4])
def test_splices_at_ideal_nodes_commute(rng, segments):
    # `run_chain` splices left to right; at ideal nodes every order of the
    # splices leaves the same 4x4 state, as each recorded correction is a
    # Pauli gate that passes through the later parity checks
    nodes = {f"n{i}": IDEAL for i in range(segments + 1)}
    maps = protocols._extension_maps(IDEAL)
    for _ in range(5):
        pieces = [segment_rho(SegmentSpec(f"s{i}", f"n{i}", f"n{i + 1}", random_asymmetric(rng),
                                          random_asymmetric(rng)), nodes, ("a", "b"))[0]
                  for i in range(segments)]
        results = []
        for order in itertools.permutations(range(1, segments)):
            spans = {i: (i + 1, rho) for i, rho in enumerate(pieces)}     # left node -> (right node, state)
            total = 1.0
            for node in order:
                left = next(k for k, (right, _) in spans.items() if right == node)
                right, rho_b = spans.pop(node)
                rho, p = _rho_stage(spans[left][1], rho_b, maps)
                spans[left] = (right, rho)
                total *= p
            ((_, rho),) = spans.values()
            results.append((rho, total))
        for rho, total in results[1:]:
            assert np.max(np.abs(rho - results[0][0])) < 1e-12
            assert total == pytest.approx(results[0][1], abs=1e-12)


@pytest.mark.parametrize("eta_in", [0.0, -1.0, 1.5, float("nan")])
def test_eta_in_outside_unit_interval_rejected(eta_in):
    spins = uniform_spins(("e1", "e2"))
    calls = [
        lambda: distribute_bell(QUIET, QUIET, IDEAL, IDEAL, eta_in=eta_in),
        lambda: distribute_ghz(3, [QUIET] * 3, [IDEAL] * 3, eta_in=eta_in),
        lambda: pcd(spins, "e1", "e2", IDEAL, eta_in=eta_in),
        lambda: extend_chain(phi_minus(("a", "z")), phi_minus(("zp", "d")), ("z", "zp"),
                             IDEAL, eta_in=eta_in),
        lambda: distribution_metrics(IDEAL, eta_in=eta_in),
        lambda: pcd_metrics(IDEAL, eta_in=eta_in),
        lambda: ChainScenario(nodes={"A": IDEAL, "B": IDEAL},
                              segments=[SegmentSpec("AB", "A", "B")], eta_in=eta_in).validate(),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="eta_in"):
            call()


def test_wiring_validation():
    scenario = ChainScenario(
        nodes={"A": IDEAL, "B": IDEAL, "C": IDEAL, "D": IDEAL},
        segments=[SegmentSpec("AB", "A", "B"), SegmentSpec("CD", "C", "D")])
    with pytest.raises(ValueError):
        scenario.validate()
    with pytest.raises(ValueError):
        ChainScenario(nodes={"A": IDEAL}, segments=[SegmentSpec("AX", "A", "X")]).validate()


def _spins_and_qutrit(labels, qutrit):
    """|0...0> over two-level spins ``labels``, of which ``qutrit`` has three levels."""
    return basis_state(Register(tuple(Subsystem(lab, ("0", "1", "2") if lab == qutrit else ("up", "dn"))
                                      for lab in labels)))


@pytest.mark.parametrize("build,error,message", [
    (lambda: PurificationState(mu=1.5, round=1, success_probability=1.0), ValueError,
     "mu = 1.5 outside [0, 1]"),
    (lambda: pcd(StateVector(spin_register(("a", "b")), [0.5, 0, 0, 0]), "a", "b", IDEAL), ValueError,
     "PCD input state must be normalized"),
    (lambda: pcd(uniform_spins(("a", "b")), "a", "a", IDEAL), RegisterError, "duplicate targets ['a', 'a']"),
    (lambda: pcd(basis_state(Register((Subsystem("a", ("up", "dn")), Subsystem("q", ("0", "1", "2"))))),
                 "a", "q", IDEAL), RegisterError, "map dimension 4 does not match target dimension 6"),
    (lambda: extend_chain(phi_minus(("a", "z")), ghz_state(("zp", "d", "e")), ("z", "zp"), IDEAL),
     ValueError, "the fresh pair must hold exactly two spins"),
    (lambda: extend_chain(phi_minus(("a", "z")), phi_minus(("zp", "z")), ("z", "zp"), IDEAL), RegisterError,
     "cannot tensor states sharing labels ['z']"),
    (lambda: extend_chain(_spins_and_qutrit(("a", "z"), "z"), phi_minus(("zp", "d")), ("z", "zp"), IDEAL),
     RegisterError, "extension needs two-level spins; 'z' has 3 levels"),
    (lambda: extend_chain(_spins_and_qutrit(("x", "a", "z"), "x"), phi_minus(("zp", "d")), ("z", "zp"), IDEAL),
     RegisterError, "extension needs two-level spins; 'x' has 3 levels"),
    (lambda: extend_chain(phi_minus(("a", "z")), _spins_and_qutrit(("zp", "d"), "d"), ("z", "zp"), IDEAL),
     RegisterError, "extension needs two-level spins; 'd' has 3 levels"),
    (lambda: run_chain(ChainScenario(nodes={"A": IDEAL}, segments=[])), ValueError,
     "scenario needs at least one segment"),
    (lambda: distribute_bell(QUIET, QUIET, IDEAL, IDEAL, spin_labels=("a", "b", "c")), ValueError,
     "Bell distribution needs exactly two spin labels, not ['a', 'b', 'c']"),
    (lambda: distribute_bell(QUIET, QUIET, IDEAL, IDEAL, spin_labels=("a",)), ValueError,
     "Bell distribution needs exactly two spin labels, not ['a']"),
    (lambda: distribute_bell(QUIET, QUIET, IDEAL, IDEAL, spin_labels=("a", "a")), RegisterError,
     "duplicate subsystem labels in register: ['a', 'a']"),
    (lambda: distribute_bell(QUIET, QUIET, IDEAL, IDEAL, spin_labels=(1, 2.5)), RegisterError,
     "subsystem label 1 is not a string"),
    (lambda: distribute_bell(QUIET, QUIET, IDEAL, IDEAL, spin_labels=("a", 2.5)), RegisterError,
     "subsystem label 2.5 is not a string"),
    (lambda: ghz_state((3,)), RegisterError, "subsystem label 3 is not a string"),
    (lambda: distribute_ghz(2.5, [QUIET] * 3, [IDEAL] * 3), ValueError,
     "GHZ distribution needs a whole number of parties, not 2.5"),
    (lambda: distribute_ghz(3.0, [QUIET] * 3, [IDEAL] * 3), ValueError,
     "GHZ distribution needs a whole number of parties, not 3.0"),
    (lambda: extend_chain(StateVector(spin_register(("a", "z")), [0.5 ** 0.5, 0, 0, 0]), phi_minus(("zp", "d")),
                          ("z", "zp"), IDEAL), ValueError, "the chain state must be normalized"),
    (lambda: extend_chain(phi_minus(("a", "z")), StateVector(spin_register(("zp", "d")), [0.5, 0, 0, 0.5]),
                          ("z", "zp"), IDEAL), ValueError, "the fresh pair must be normalized"),
    (lambda: ChainScenario(nodes={"A": IDEAL, "B": IDEAL}, segments=[SegmentSpec("AB", "A", "B")],
                           purify_rounds=1.5).validate(), ValueError,
     "purify_rounds must be a whole number, not 1.5"),
    (lambda: run_chain(ChainScenario(nodes={"A": IDEAL, "B": IDEAL}, segments=[SegmentSpec("AB", "A", "B")],
                                     purify_rounds=2.5)), ValueError, "purify_rounds must be a whole number, not 2.5"),
    (lambda: chain_analytic(ChainScenario(nodes={"A": IDEAL, "B": IDEAL}, segments=[SegmentSpec("AB", "A", "B")],
                                          purify_rounds=1.0)), ValueError,
     "purify_rounds must be a whole number, not 1.0"),
    (lambda: purify_analytic(0.7, 1.5), ValueError, "rounds must be a whole number, not 1.5"),
    (lambda: purify_analytic(1.25, 1), ValueError, "mu = 1.25 outside [0, 1]"),
    (lambda: purify_round(-0.5), ValueError, "mu = -0.5 outside [0, 1]"),
    (lambda: purification_metrics(float("nan"), IDEAL), ValueError, "mu = nan outside [0, 1]"),
    # a node that is not a ScatterCoeffs or a fiber that is not a NoiseChannel, at each entry point
    pytest.param(lambda: distribute_bell(QUIET, QUIET, CavityParams(g=1.0), IDEAL), ValueError,
                 "coeffs_a must be a ScatterCoeffs, not CavityParams", id="distribute_bell-node"),
    pytest.param(lambda: distribute_bell(QUIET, (1.0, 0.0), IDEAL, IDEAL), ValueError,
                 "noise_b must be a NoiseChannel, not tuple", id="distribute_bell-fiber"),
    pytest.param(lambda: distribute_ghz(3, [QUIET] * 3, [IDEAL, CavityParams(g=1.0), IDEAL]), ValueError,
                 "coeffs[1] must be a ScatterCoeffs, not CavityParams", id="distribute_ghz-node"),
    pytest.param(lambda: distribute_ghz(3, [QUIET, QUIET, (1.0, 0.0)], [IDEAL] * 3), ValueError,
                 "noise[2] must be a NoiseChannel, not tuple", id="distribute_ghz-fiber"),
    pytest.param(lambda: pcd(uniform_spins(("a", "b")), "a", "b", CavityParams(g=1.0)), ValueError,
                 "coeffs must be a ScatterCoeffs, not CavityParams", id="pcd-node"),
    pytest.param(lambda: extend_chain(phi_minus(("a", "z")), phi_minus(("zp", "d")), ("z", "zp"),
                                      CavityParams(g=1.0)), ValueError,
                 "coeffs must be a ScatterCoeffs, not CavityParams", id="extend_chain-node"),
    pytest.param(lambda: purify_round(0.7, CavityParams(g=1.0)), ValueError,
                 "coeffs must be a ScatterCoeffs, not CavityParams", id="purify_round-node"),
    pytest.param(lambda: run_chain(ChainScenario(nodes={"A": IDEAL, "B": CavityParams(g=1.0)},
                                                 segments=[SegmentSpec("AB", "A", "B")])), ValueError,
                 "node 'B' must be a ScatterCoeffs, not CavityParams", id="run_chain-node"),
    pytest.param(lambda: run_chain(ChainScenario(nodes={"A": IDEAL, "B": IDEAL},
                                                 segments=[SegmentSpec("AB", "A", "B", (1.0, 0.0))])), ValueError,
                 "segment AB: noise_left must be a NoiseChannel, not tuple", id="run_chain-fiber"),
    # the closed forms reject a node that is not a ScatterCoeffs as the protocols do
    pytest.param(lambda: distribution_metrics(CavityParams(g=1.0)), ValueError,
                 "coeffs must be a ScatterCoeffs, not CavityParams", id="distribution_metrics-node"),
    pytest.param(lambda: pcd_metrics(CavityParams(g=1.0), eta_in=0.5), ValueError,
                 "coeffs must be a ScatterCoeffs, not CavityParams", id="pcd_metrics-node"),
    pytest.param(lambda: extension_metrics(CavityParams(g=1.0)), ValueError,
                 "coeffs must be a ScatterCoeffs, not CavityParams", id="extension_metrics-node"),
    pytest.param(lambda: purification_metrics(0.7, CavityParams(g=1.0)), ValueError,
                 "coeffs must be a ScatterCoeffs, not CavityParams", id="purification_metrics-node"),
    pytest.param(lambda: crosscheck(CavityParams(g=1.0)), ValueError,
                 "coeffs must be a ScatterCoeffs, not CavityParams", id="crosscheck-node"),
    # a scenario whose nodes are not a mapping or whose segment is not a SegmentSpec
    pytest.param(lambda: run_chain(ChainScenario(nodes=[("A", IDEAL), ("B", IDEAL)],
                                                 segments=[SegmentSpec("AB", "A", "B")])), ValueError,
                 "nodes must be a Mapping, not list", id="run_chain-nodes"),
    pytest.param(lambda: run_chain(ChainScenario(nodes={"A": IDEAL, "B": IDEAL, "C": IDEAL},
                                                 segments=[SegmentSpec("AB", "A", "B"), ("BC", "B", "C")])),
                 ValueError, "segments[1] must be a SegmentSpec, not tuple", id="run_chain-segment"),
    pytest.param(lambda: chain_analytic(ChainScenario(nodes={"A": IDEAL, "B": IDEAL}, segments=[("AB", "A", "B")])),
                 ValueError, "segments[0] must be a SegmentSpec, not tuple", id="chain_analytic-segment"),
    pytest.param(lambda: ChainScenario(nodes=None, segments=[SegmentSpec("AB", "A", "B")]).validate(), ValueError,
                 "nodes must be a Mapping, not NoneType", id="validate-nodes"),
])
def test_boundary_checks_raise(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message

