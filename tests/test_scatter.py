import math

import numpy as np
import pytest

from qdrepeater.cavity import IDEAL, CavityParams, full_coeffs, resonant_coeffs
from qdrepeater.qstate import (
    Register,
    RegisterError,
    StateVector,
    Subsystem,
    basis_state,
    superposition,
)
from qdrepeater.scatter import scatter_map

from conftest import random_coeffs
from dense_oracle import scatter

RT2 = 1.0 / math.sqrt(2.0)


def photon_spin(photon="ph", spin="e"):
    return Register((
        Subsystem(f"{photon}_pol", ("R", "L")),
        Subsystem(f"{photon}_dir", ("up", "dn")),
        Subsystem(spin, ("up", "dn")),
    ))


def ket(pol, dr, sp, photon="ph", spin="e"):
    return basis_state(photon_spin(photon, spin),
                       {f"{photon}_pol": pol, f"{photon}_dir": dr, spin: sp})


def amp(state, pol, dr, sp, photon="ph", spin="e"):
    return state.amplitude({f"{photon}_pol": pol, f"{photon}_dir": dr, spin: sp})


# --- ideal selection rules ---------------------------------------------------

IDEAL_RULES = [
    # (input, output, phase): reflection swaps polarization and direction,
    # transmission keeps both and flips the sign
    (("R", "up", "up"), ("L", "dn", "up"), 1.0),
    (("R", "dn", "up"), ("R", "dn", "up"), -1.0),
    (("L", "dn", "up"), ("R", "up", "up"), 1.0),
    (("L", "up", "up"), ("L", "up", "up"), -1.0),
    (("R", "up", "dn"), ("R", "up", "dn"), -1.0),
    (("R", "dn", "dn"), ("L", "up", "dn"), 1.0),
    (("L", "dn", "dn"), ("L", "dn", "dn"), -1.0),
    (("L", "up", "dn"), ("R", "dn", "dn"), 1.0),
]


@pytest.mark.parametrize("state_in,state_out,phase", IDEAL_RULES)
def test_ideal_rules(state_in, state_out, phase):
    out = scatter(ket(*state_in), "ph", "e", IDEAL)
    assert amp(out, *state_out) == pytest.approx(phase, abs=1e-12)
    assert out.norm2 == pytest.approx(1.0, abs=1e-12)


def test_ideal_map_is_unitary():
    m = scatter_map(IDEAL).matrix
    np.testing.assert_allclose(m.conj().T @ m, np.eye(8), atol=1e-12)


def test_practical_amplitudes_at_reference_point():
    sc = resonant_coeffs(CavityParams(g=1.2, kappa_s=0.2, gamma=0.1))
    out = scatter(ket("R", "up", "up"), "ph", "e", sc)
    assert amp(out, "L", "dn", "up") == pytest.approx(0.9665551839, abs=1e-9)
    assert amp(out, "R", "up", "up") == pytest.approx(-0.0334448161, abs=1e-9)


def test_linearity(rng):
    sc = random_coeffs(rng)
    a = ket("R", "up", "up")
    b = ket("L", "up", "dn")
    combo = StateVector(a.register, 0.6 * a.amplitudes + 0.8j * b.amplitudes)
    out_combo = scatter(combo, "ph", "e", sc)
    out_sum = 0.6 * scatter(a, "ph", "e", sc).amplitudes + 0.8j * scatter(b, "ph", "e", sc).amplitudes
    assert np.allclose(out_combo.amplitudes, out_sum, atol=1e-12)


def test_norm_deficit_matches_channel_losses(rng):
    # coupled input loses |S|^2 + |N|^2 of the hot cavity; uncoupled input
    # loses the cold-cavity leak only
    for _ in range(10):
        g = rng.uniform(0.2, 3.0)
        ks = rng.uniform(0.0, 0.3)
        gamma = rng.uniform(0.02, 0.5)
        params = CavityParams(g=g, kappa_s=ks, gamma=gamma)
        sc = resonant_coeffs(params)
        R, T, S, N = full_coeffs(params)
        coupled = scatter(ket("R", "up", "up"), "ph", "e", sc)
        assert 1.0 - coupled.norm2 == pytest.approx(abs(S) ** 2 + abs(N) ** 2, abs=1e-12)
        _, _, S0, _ = full_coeffs(CavityParams(g=0.0, kappa_s=ks, gamma=gamma))
        uncoupled = scatter(ket("R", "dn", "up"), "ph", "e", sc)
        assert 1.0 - uncoupled.norm2 == pytest.approx(abs(S0) ** 2, abs=1e-12)


def test_spin_populations_preserved(rng):
    sc = random_coeffs(rng)
    reg = photon_spin()
    state = superposition(reg, [
        (0.6, {"ph_pol": "R", "e": "up"}),
        (0.8, {"ph_pol": "L", "ph_dir": "dn", "e": "dn"}),
    ])
    out = scatter(state, "ph", "e", sc)

    def spin_population(st, level):
        total = 0.0
        for pol in ("R", "L"):
            for dr in ("up", "dn"):
                total += abs(st.amplitude({"ph_pol": pol, "ph_dir": dr, "e": level})) ** 2
        return total

    # each spin sector is scattered by its own contraction; populations only
    # shrink by that sector's loss, never mix.  R-up couples to spin up (hot),
    # L-dn with spin dn sees the cold cavity.
    hot = abs(sc.r) ** 2 + abs(sc.t) ** 2
    cold = abs(sc.r0) ** 2 + abs(sc.t0) ** 2
    assert spin_population(out, "up") == pytest.approx(0.36 * hot, abs=1e-12)
    assert spin_population(out, "dn") == pytest.approx(0.64 * cold, abs=1e-12)


def test_random_input_unitarity_ideal(rng):
    reg = photon_spin()
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = StateVector(reg, v / np.linalg.norm(v))
    out = scatter(state, "ph", "e", IDEAL)
    assert out.norm2 == pytest.approx(1.0, abs=1e-12)


def test_missing_direction_rejected():
    reg = Register((
        Subsystem("ph_pol", ("R", "L")),
        Subsystem("e", ("up", "dn")),
    ))
    with pytest.raises(RegisterError):
        scatter(basis_state(reg), "ph", "e", IDEAL)


def test_linear_basis_rejected():
    reg = Register((
        Subsystem("ph_pol", ("H", "V")),
        Subsystem("ph_dir", ("up", "dn")),
        Subsystem("e", ("up", "dn")),
    ))
    with pytest.raises(RegisterError):
        scatter(basis_state(reg), "ph", "e", IDEAL)
