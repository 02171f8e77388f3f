import math

import numpy as np
import pytest

from qdrepeater.qstate import (
    RegisterError,
    Register,
    StateVector,
    Subsystem,
    apply_map,
    basis_state,
    hadamard,
    superposition,
)
from qdrepeater.timebin import (
    NoiseChannel,
    apply_noise,
    decode,
    decode_map,
    delay,
    encode,
    pc_map,
    phase_shift_map,
    photon_register,
    pockels,
    pol_label,
    qwp,
    routing_map,
    tb_label,
)

from conftest import allclose_upto_phase, random_asymmetric, random_symmetric, schmidt_rank
from dense_oracle import decode_elements

RT2 = 1.0 / math.sqrt(2.0)


def one_photon(pol_level="H", name="a"):
    return basis_state(photon_register(name), {pol_label(name): pol_level})


def two_photon_bell():
    reg = Register(photon_register("a").subsystems + photon_register("b").subsystems)
    return superposition(reg, [
        (RT2, {"a_pol": "H", "b_pol": "H"}),
        (RT2, {"a_pol": "V", "b_pol": "V"}),
    ])


# --- encoder -----------------------------------------------------------------

def test_encode_h_goes_early():
    out = encode(one_photon("H"), "a")
    assert out.amplitude({"a_pol": "H", "a_tb": "s"}) == pytest.approx(1.0)


def test_encode_v_goes_late_and_flips():
    out = encode(one_photon("V"), "a")
    assert out.amplitude({"a_pol": "H", "a_tb": "l"}) == pytest.approx(1.0)
    assert out.amplitude({"a_pol": "V", "a_tb": "l"}) == 0.0


def test_encode_bell_pair():
    state = two_photon_bell()
    state = encode(state, "a")
    state = encode(state, "b")
    expected = superposition(state.register, [
        (RT2, {"a_pol": "H", "b_pol": "H", "a_tb": "s", "b_tb": "s"}),
        (RT2, {"a_pol": "H", "b_pol": "H", "a_tb": "l", "b_tb": "l"}),
    ])
    assert allclose_upto_phase(state, expected, 1e-12)


def test_encode_rejects_late_input():
    state = basis_state(photon_register("a"), {tb_label("a"): "l"})
    with pytest.raises(RegisterError):
        encode(state, "a")


# --- noise channel -----------------------------------------------------------

def test_identity_channel_is_identity():
    state = encode(one_photon("V"), "a")
    out = apply_noise(state, "a", NoiseChannel.identity())
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_channel_normalization_enforced():
    with pytest.raises(ValueError):
        NoiseChannel(0.9, 0.9)
    with pytest.raises(ValueError):
        NoiseChannel(1.0, 0.0, 0.5, 0.5)


def test_channel_rejects_nan_rotation():
    with pytest.raises(ValueError):
        NoiseChannel(math.nan, 0.0)
    with pytest.raises(ValueError):
        NoiseChannel(1.0, 0.0, math.nan, 0.0)


def test_symmetric_channel_rotates_both_bins_identically():
    delta, eta = 0.6, 0.8
    state = encode(one_photon("H"), "a")
    # superpose both bins first: encode (H+V)/sqrt(2)
    plus = superposition(photon_register("a"), [(RT2, {"a_pol": "H"}), (RT2, {"a_pol": "V"})])
    state = encode(plus, "a")
    out = apply_noise(state, "a", NoiseChannel(delta, eta))
    for bin_name in ("s", "l"):
        assert out.amplitude({"a_pol": "H", "a_tb": bin_name}) == pytest.approx(RT2 * delta)
        assert out.amplitude({"a_pol": "V", "a_tb": bin_name}) == pytest.approx(RT2 * eta)


def test_asymmetric_channel_rotates_bins_differently():
    ch = NoiseChannel(0.6, 0.8, 0.8, -0.6)
    plus = superposition(photon_register("a"), [(RT2, {"a_pol": "H"}), (RT2, {"a_pol": "V"})])
    out = apply_noise(encode(plus, "a"), "a", ch)
    assert out.amplitude({"a_pol": "H", "a_tb": "s"}) == pytest.approx(RT2 * 0.6)
    assert out.amplitude({"a_pol": "V", "a_tb": "s"}) == pytest.approx(RT2 * 0.8)
    assert out.amplitude({"a_pol": "H", "a_tb": "l"}) == pytest.approx(RT2 * 0.8)
    assert out.amplitude({"a_pol": "V", "a_tb": "l"}) == pytest.approx(RT2 * -0.6)


def test_channel_unitarity(rng):
    for _ in range(20):
        ch = random_asymmetric(rng)
        u = ch.matrix()
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


# --- decoder -----------------------------------------------------------------

def _expected_decoded(ch_a, ch_b, reg):
    """Polarization-direction Bell form times per-photon time-bin factors.

    The sp class carries the channel-diagonal (delta) amplitude of each
    branch: the late-bin rotation for the H output, the early-bin rotation
    for the V output.
    """
    terms = []
    for pol, dr, coeff in (("H", "up", lambda ch: (ch.delta_l, ch.eta_l)),
                           ("V", "dn", lambda ch: (ch.delta, ch.eta))):
        da, ea = coeff(ch_a)
        db, eb = coeff(ch_b)
        for tb_a, ca in (("sp", da), ("lp", ea)):
            for tb_b, cb in (("sp", db), ("lp", eb)):
                terms.append((RT2 * ca * cb, {
                    "a_pol": pol, "b_pol": pol, "a_dir": dr, "b_dir": dr,
                    "a_tb": tb_a, "b_tb": tb_b,
                }))
    return superposition(reg, terms)


def _encode_noise_decode(ch_a, ch_b):
    state = two_photon_bell()
    for name, ch in (("a", ch_a), ("b", ch_b)):
        state = encode(state, name)
        state = apply_noise(state, name, ch)
        state = decode(state, name)
    return state


def test_decode_restores_polarization_entanglement(rng):
    ch_a = random_symmetric(rng)
    ch_b = random_symmetric(rng)
    out = _encode_noise_decode(ch_a, ch_b)
    assert out.norm2 == pytest.approx(1.0, abs=1e-12)
    expected = _expected_decoded(ch_a, ch_b, out.register)
    assert allclose_upto_phase(out, expected, 1e-10)


def test_decode_time_factor_is_spectator_product(rng):
    for _ in range(5):
        out = _encode_noise_decode(random_symmetric(rng),
                                   random_symmetric(rng))
        assert schmidt_rank(out, ["a_tb", "b_tb"]) == 1
        assert schmidt_rank(out, ["a_tb"]) == 1
        assert schmidt_rank(out, ["b_tb"]) == 1


def test_noiseless_decode_puts_everything_in_sp():
    out = _encode_noise_decode(NoiseChannel.identity(), NoiseChannel.identity())
    for tb_a, tb_b in (("sp", "lp"), ("lp", "sp"), ("lp", "lp")):
        for pol, dr in (("H", "up"), ("V", "dn")):
            assert out.amplitude({"a_pol": pol, "b_pol": pol, "a_dir": dr, "b_dir": dr,
                                  "a_tb": tb_a, "b_tb": tb_b}) == pytest.approx(0.0, abs=1e-12)
    assert abs(out.amplitude({"a_pol": "H", "b_pol": "H", "a_dir": "up", "b_dir": "up",
                              "a_tb": "sp", "b_tb": "sp"})) == pytest.approx(RT2, abs=1e-12)


def test_asymmetric_decode_tags_early_as_v_late_as_h():
    # early components exit V-polarized, late components H-polarized
    ch = NoiseChannel(0.6, 0.8, 1.0, 0.0)
    out = _encode_noise_decode(ch, ch)
    a_vv_sp = out.amplitude({"a_pol": "V", "b_pol": "V", "a_dir": "dn", "b_dir": "dn",
                             "a_tb": "sp", "b_tb": "sp"})
    a_hh_sp = out.amplitude({"a_pol": "H", "b_pol": "H", "a_dir": "up", "b_dir": "up",
                             "a_tb": "sp", "b_tb": "sp"})
    a_hh_lp = out.amplitude({"a_pol": "H", "b_pol": "H", "a_dir": "up", "b_dir": "up",
                             "a_tb": "lp", "b_tb": "lp"})
    assert a_vv_sp == pytest.approx(RT2 * 0.6 * 0.6, abs=1e-12)   # early rotation
    assert a_hh_sp == pytest.approx(RT2 * 1.0, abs=1e-12)          # late rotation
    assert a_hh_lp == pytest.approx(0.0, abs=1e-12)


def test_decode_rejects_expanded_register():
    state = _encode_noise_decode(NoiseChannel.identity(), NoiseChannel.identity())
    with pytest.raises(RegisterError):
        decode(state, "a")


_DECODED = decode(encode(one_photon("V"), "a"), "a")


@pytest.mark.parametrize("build,message", [
    (lambda: encode(_DECODED, "a"), "photon 'a' time-bin register is not in the raw (s, l) form"),
    (lambda: decode(qwp(one_photon("H"), "a"), "a"), "photon 'a' must be in the linear basis to decode"),
    (lambda: decode(_DECODED, "a"), "photon 'a' time register is already expanded or decoded"),
    (lambda: decode(apply_map(one_photon("V"), routing_map(), ["a_pol", "a_dir"]), "a"),
     "photon 'a' direction tag must be clear before decoding"),
])
def test_boundary_checks_raise(build, message):
    with pytest.raises(RegisterError) as info:
        build()
    assert str(info.value) == message


def test_decode_unitary_under_asymmetric_noise(rng):
    out = _encode_noise_decode(random_asymmetric(rng),
                               random_asymmetric(rng))
    assert out.norm2 == pytest.approx(1.0, abs=1e-12)


def test_decode_map_columns_match_the_element_chain():
    m = decode_map().matrix
    reg = photon_register("x")
    for col, (pol, tb) in zip((0, 1, 4, 5), [("H", "s"), ("H", "l"), ("V", "s"), ("V", "l")]):
        out = decode_elements(basis_state(reg, {"x_pol": pol, "x_tb": tb}), "x")
        np.testing.assert_array_equal(out.amplitudes, m[:, col])
    assert decode_map().unitary


def _random_decoder_input(rng):
    """1-3 photons and 0-2 spins in a shuffled register order, each photon
    either given random (polarization, bin) amplitudes on a clear direction
    tag or encoded and sent through a collective or asymmetric fiber."""
    photons = ["a", "b", "c"][:rng.integers(1, 4)]
    spins = [Subsystem(f"e{i}", ("up", "dn")) for i in range(rng.integers(0, 3))]
    subsystems = [sub for nm in photons for sub in photon_register(nm).subsystems] + spins
    reg = Register(tuple(subsystems[i] for i in rng.permutation(len(subsystems))))
    through_fiber = rng.random(len(photons)) < 0.5
    v = rng.normal(size=reg.dim) + 1j * rng.normal(size=reg.dim)
    psi = v.reshape(reg.dims)
    for nm, fiber in zip(photons, through_fiber):
        index = [slice(None)] * len(reg.dims)
        index[reg.position(f"{nm}_dir")] = 1
        psi[tuple(index)] = 0.0
        if fiber:
            index[reg.position(f"{nm}_dir")] = slice(None)
            index[reg.position(f"{nm}_tb")] = 1
            psi[tuple(index)] = 0.0
    state = StateVector(reg, psi.reshape(-1) / np.linalg.norm(psi))
    for nm, fiber in zip(photons, through_fiber):
        if fiber:
            ch = random_asymmetric(rng) if rng.random() < 0.5 else random_symmetric(rng)
            state = apply_noise(encode(state, nm), nm, ch)
    return state, photons


def test_decode_equals_the_element_chain(rng):
    for _ in range(240):
        state, photons = _random_decoder_input(rng)
        by_map = by_elements = state
        for nm in rng.permutation(photons):
            by_map = decode(by_map, nm)
            by_elements = decode_elements(by_elements, nm)
            assert by_map.register == by_elements.register
            assert np.array_equal(by_map.amplitudes, by_elements.amplitudes)


# --- optical elements ----------------------------------------------------------

def test_qwp_relabels_polarization():
    state = qwp(one_photon("H"), "a")
    assert state.register.subsystem("a_pol").levels == ("R", "L")
    assert state.amplitude({"a_pol": "R"}) == pytest.approx(1.0)


def test_qwp_element_toggles():
    state = qwp(one_photon("V"), "a")
    assert state.amplitude({"a_pol": "L"}) == pytest.approx(1.0)
    back = qwp(state, "a")
    assert back.register.subsystem("a_pol").levels == ("H", "V")


def test_phase_element_flips_v_sign():
    plus = superposition(photon_register("a"), [(RT2, {"a_pol": "H"}), (RT2, {"a_pol": "V"})])
    out = apply_map(plus, phase_shift_map(math.pi), ["a_pol"])
    assert out.amplitude({"a_pol": "H"}) == pytest.approx(RT2)
    assert out.amplitude({"a_pol": "V"}) == pytest.approx(-RT2)


def test_bs_splits_path():
    state = basis_state(photon_register("a"))
    out = apply_map(state, hadamard(), ["a_dir"])
    assert out.amplitude({"a_dir": "up"}) == pytest.approx(RT2)
    assert out.amplitude({"a_dir": "dn"}) == pytest.approx(RT2)


def test_routing_map_is_a_polarization_controlled_flip():
    m = routing_map().matrix
    # H keeps the port, V flips it
    assert m[0, 0] == 1.0 and m[1, 1] == 1.0
    assert m[3, 2] == 1.0 and m[2, 3] == 1.0
    assert np.allclose(m.conj().T @ m, np.eye(4))


def test_pc_element_flips_inside_window_only():
    state = encode(one_photon("V"), "a")    # H polarized, late bin
    out = pockels(state, "a", ("l",))
    assert out.amplitude({"a_pol": "V", "a_tb": "l"}) == pytest.approx(1.0)
    out2 = pockels(state, "a", ("s",))
    assert out2.amplitude({"a_pol": "H", "a_tb": "l"}) == pytest.approx(1.0)


def test_matrix_elements_are_unitary():
    maps = [
        routing_map(),
        pc_map(("ss", "sl", "ls", "ll"), ("sl", "ls")),
        pc_map(("s", "l"), ("l",)),
        phase_shift_map(0.7),
        hadamard(),
    ]
    for lm in maps:
        m = lm.matrix
        assert np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= 1e-12


def test_delay_element_expands_the_register():
    state = encode(one_photon("V"), "a")
    out = delay(state, "a", "H")
    assert out.register.subsystem("a_tb").levels == ("ss", "sl", "ls", "ll")
    assert out.amplitude({"a_pol": "H", "a_tb": "ll"}) == pytest.approx(1.0)
    assert out.norm2 == pytest.approx(1.0, abs=1e-12)


def test_chained_delays_place_each_amplitude_by_its_polarization(rng):
    # photon b's time bin before its polarization, with spectators around and between them
    pol, direction, tb = photon_register("b").subsystems
    reg = Register(photon_register("a").subsystems[:2] + (tb, direction, pol))
    v = rng.normal(size=reg.dim) + 1j * rng.normal(size=reg.dim)
    state = StateVector(reg, v / np.linalg.norm(v))
    for pol in ("H", "V", "V", "H"):
        out = delay(state, "b", pol)
        expected = np.zeros(out.register.dim, dtype=complex)
        for idx, amp in enumerate(state.amplitudes):
            levels = dict(zip(state.register.labels, state.register.basis_levels(idx)))
            levels["b_tb"] += "l" if levels["b_pol"] == pol else "s"
            expected[out.register.basis_index(levels)] = amp
        np.testing.assert_array_equal(out.amplitudes, expected)
        state = out
    assert len(state.register.subsystem("b_tb").levels) == 2 ** 5
