"""Objects built from already-checked inputs are built and checked once.

Registers keep their sizes, the constant optical maps are built once per
process, `scatter_map` once per coefficient set and the spin targets once
per label tuple.  These tests hold the saving (a repeated distribution
makes no singular value decomposition), show that nothing cached can be
written to, and show that user-built maps keep every check.
"""

import math

import numpy as np
import pytest

from qdrepeater import protocols
from qdrepeater.cavity import CavityParams, resonant_coeffs
from qdrepeater.protocols import distribute_bell, distribute_ghz, ghz_state, phi_minus, phi_plus, spin_register
from qdrepeater.qstate import LinearMap, Register, Subsystem, basis_state, superposition
from qdrepeater.scatter import scatter_map
from qdrepeater.timebin import (
    NoiseChannel,
    decode_map,
    delay,
    encode_map,
    fiber_map,
    photon_register,
    pol_label,
    qwp,
    tb_label,
)

from conftest import random_asymmetric

RT2 = 1.0 / math.sqrt(2.0)


def _practical():
    """A fresh coefficient object, equal to every other one this returns."""
    return resonant_coeffs(CavityParams(g=1.2, kappa_s=0.2))


@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_a_repeated_distribution_makes_no_svd(svd_calls, rng):
    noises = [random_asymmetric(rng) for _ in range(3)]
    runs = [lambda: distribute_bell(noises[0], noises[1], _practical(), _practical()),
            lambda: distribute_ghz(3, noises, [_practical() for _ in range(3)])]
    first = [run() for run in runs]
    svd_calls.clear()
    again = [run() for run in runs]
    assert svd_calls == []
    for old, new in zip(first, again):
        assert [(o.detection, o.probability, o.fidelity) for o in old] == \
               [(o.detection, o.probability, o.fidelity) for o in new]


def test_a_user_built_map_keeps_its_svd_check(svd_calls):
    m = LinearMap(np.array([[0.5, 0.5], [0.0, 0.5]]))
    assert len(svd_calls) == 1
    assert m.matrix[0, 1] == 0.5
    with pytest.raises(ValueError, match="largest singular value"):
        LinearMap(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert len(svd_calls) == 2


#: every cached map and target, as the array a caller could try to write to
CACHED_ARRAYS = {
    "encode_map": lambda: encode_map().matrix,
    "decode_map": lambda: decode_map().matrix,
    "pi plate": lambda: protocols._pi_plate(),
    "scatter_map": lambda: scatter_map(_practical()).matrix,
    "ghz_state": lambda: ghz_state(("a", "b", "c")).amplitudes,
    "phi_minus": lambda: phi_minus(("a", "b")).amplitudes,
    "phi_plus": lambda: phi_plus(("a", "b")).amplitudes,
}


@pytest.mark.parametrize("name", list(CACHED_ARRAYS))
def test_cached_maps_and_targets_are_read_only(name):
    array = CACHED_ARRAYS[name]()
    corner = (0,) * array.ndim
    with pytest.raises(ValueError, match="read-only"):
        array[corner] = 7.0
    assert CACHED_ARRAYS[name]()[corner] != 7.0


def test_cached_maps_are_shared_per_input():
    assert encode_map() is encode_map()
    assert scatter_map(_practical()) is scatter_map(_practical())
    assert isinstance(scatter_map(_practical()), LinearMap)
    assert phi_minus(("a", "b")) is phi_minus(["a", "b"])


@pytest.mark.parametrize("sign", [1, -1])
def test_cached_targets_equal_a_fresh_superposition(sign):
    labels = ("x", "y", "z")
    reg = spin_register(labels)
    fresh = superposition(reg, [(RT2, {lab: "up" for lab in labels}),
                                (sign * RT2, {lab: "dn" for lab in labels})])
    for target in (ghz_state(labels, sign), ghz_state(list(labels), sign)):
        assert target.register == fresh.register
        assert np.array_equal(target.amplitudes, fresh.amplitudes)
    pair = (phi_plus if sign == 1 else phi_minus)(("x", "y"))
    assert np.array_equal(pair.amplitudes, np.array([RT2, 0.0, 0.0, sign * RT2]))


def test_a_register_that_read_its_sizes_still_equals_and_hashes_as_one_that_did_not():
    subs = (Subsystem("s", ("up", "dn")), Subsystem("t", ("a", "b", "c")))
    read, fresh = Register(subs), Register(subs)
    assert (read.dims, read.dim) == ((2, 3), 6)
    assert read == fresh and hash(read) == hash(fresh)
    assert {read: 1}[fresh] == 1
    assert read.replace("t", Subsystem("t", ("a", "b"))).dims == (2, 2)
    assert read.without(["s"]).dims == (3,)
    assert read.without(["s"]) == fresh.without(["s"])


def test_delay_and_qwp_give_registers_of_the_right_sizes():
    state = basis_state(photon_register("p"), {pol_label("p"): "V"})
    assert state.register.dims == (2, 2, 2)
    for slots in (4, 8):
        state = delay(state, "p", "V")
        assert state.register.dims == (2, 2, slots)
        assert state.register.dim == 4 * slots
        assert len(state.register.subsystem(tb_label("p")).levels) == slots
    turned = qwp(state, "p")
    assert turned.register.subsystem(pol_label("p")).levels == ("R", "L")
    assert turned.register.dims == (2, 2, 8)
    assert turned.register.dim == 32


def test_the_fiber_matrix_is_the_checked_fiber_map(rng):
    for ch in (NoiseChannel.identity(), random_asymmetric(rng)):
        assert np.array_equal(ch.matrix(), fiber_map(ch).matrix)
