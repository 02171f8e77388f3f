"""Objects built from already-checked inputs are built and checked once.

Registers keep their sizes, a photon's path ends are built once per
process, the |+> scattering and the purification instrument once per
coefficient set, both instruments' coefficient-free tables once per
process and the pattern corrections once per rule and n; the Bell rows of
chain stages and `purify_round` are one read-only module constant.  The
parity operators, the extension instrument and the spin targets (each a few
microseconds of array arithmetic) and the maps the cached pieces start from
(`encode_map`, `decode_map`, `scatter_map`) are built afresh on each call,
the maps read-only like every `LinearMap`.  These tests hold
the saving (a repeated distribution makes no singular value decomposition
and no Kronecker product, and checks its listed live states as one stack;
a parity check builds and applies no map and checks its states as one
stack; a new coefficient set's instruments take no Kronecker product and
no gate product), show that nothing cached can be written to and that
every cached function of the library is listed here or exempted with a
reason, that an outcome built without its constructor equals one built
with it, and that user-built maps keep every check.
"""

import ast
import dataclasses
import math
import pathlib

import numpy as np
import pytest

from qdrepeater import protocols, qstate
from qdrepeater.cavity import IDEAL, CavityParams, resonant_coeffs
from qdrepeater.protocols import (HeraldedOutcome, distribute_bell, distribute_ghz, ghz_state, pcd, phi_minus,
                                  phi_plus, spin_register)
from qdrepeater.qstate import (LinearMap, Register, StateVector, Subsystem, apply_map, basis_state, fidelity,
                               superposition)
from qdrepeater.scatter import scatter_map
from qdrepeater.timebin import NoiseChannel, decode_map, delay, encode_map, photon_register, pol_label, qwp, tb_label

from conftest import random_asymmetric, random_coeffs, random_symmetric
from dense_oracle import K_EVEN_IDEAL, K_ODD_IDEAL

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


def test_a_repeated_ghz_distribution_makes_no_kron_and_checks_its_live_states_as_one_stack(monkeypatch, rng):
    noises = [random_asymmetric(rng)] + [random_symmetric(rng) for _ in range(3)]
    # two empty cavities (g = 0) leave half of the port patterns dead
    empty = resonant_coeffs(CavityParams(g=0.0))
    coeffs = [empty, empty, IDEAL, _practical()]
    distribute_ghz(4, noises, coeffs)
    krons, stacks, singles = [], [], []
    kron, rows, post_init = np.kron, StateVector.rows, StateVector.__post_init__

    def counted_kron(*args, **kwargs):
        krons.append(args)
        return kron(*args, **kwargs)

    def counted_rows(cls, register, amplitudes):
        states = rows(register, amplitudes)
        stacks.append((register, np.shape(amplitudes), states))
        return states

    def counted_post_init(self):
        singles.append(self.register)
        post_init(self)

    monkeypatch.setattr(np, "kron", counted_kron)
    monkeypatch.setattr(StateVector, "rows", classmethod(counted_rows))
    monkeypatch.setattr(StateVector, "__post_init__", counted_post_init)
    outcomes = distribute_ghz(4, noises, coeffs)
    assert krons == []
    assert singles == []
    live = [o for o in outcomes if o.post_state is not None]
    assert 0 < len(live) < len(outcomes)
    [(register, shape, states)] = stacks
    assert shape == (len(live), 2 ** 4)
    assert all(o.post_state is state and o.post_state.register is register for o, state in zip(live, states))


def test_an_outcome_built_in_one_pass_equals_one_built_by_its_constructor(rng):
    noises = [random_asymmetric(rng)] + [random_symmetric(rng) for _ in range(3)]
    empty = resonant_coeffs(CavityParams(g=0.0))
    runs = [distribute_ghz(4, noises, [empty, empty, IDEAL, _practical()]),
            distribute_ghz(3, noises[1:], [empty, IDEAL, _practical()]),
            distribute_bell(noises[0], noises[1], _practical(), empty)]
    kinds = {o.post_state is None for outcomes in runs for o in outcomes}
    assert kinds == {True, False}       # dead outcomes and live ones
    for outcomes in runs:
        for o in outcomes:
            fresh = HeraldedOutcome(o.detection, o.probability, o.correction, o.post_state, o.fidelity)
            assert type(o) is HeraldedOutcome
            assert o == fresh and repr(o) == repr(fresh)
            assert list(vars(o).items()) == list(vars(fresh).items())
            with pytest.raises(dataclasses.FrozenInstanceError):
                o.probability = 1.0


PAIR = spin_register(("a", "b"))
MIXED = Register((Subsystem("a", ("up", "dn")), Subsystem("x", ("0", "1", "2")),
                  Subsystem("b", ("up", "dn")), Subsystem("c", ("up", "dn"))))


@pytest.mark.parametrize("reg,spins", [(MIXED, ("a", "b")), (MIXED, ("c", "a")), (PAIR, ("a", "b")),
                                       (PAIR, ("b", "a"))], ids=["mixed-ab", "mixed-ca", "pair-ab", "pair-ba"])
def test_pcd_builds_no_map_and_checks_its_states_as_one_stack(monkeypatch, rng, reg, spins):
    amps = rng.normal(size=reg.dim) + 1j * rng.normal(size=reg.dim)
    state = StateVector(reg, amps / np.linalg.norm(amps))
    coeffs = random_coeffs(rng)
    applied, built, stacks = [], [], []
    post_init, rows = LinearMap.__post_init__, StateVector.rows

    def counted_apply(*args):
        applied.append(args)
        return apply_map(*args)

    def counted_post_init(self):
        built.append(self.matrix.shape)
        post_init(self)

    def counted_rows(cls, register, amplitudes):
        stacks.append((register, np.shape(amplitudes)))
        return rows(register, amplitudes)

    monkeypatch.setattr(qstate, "apply_map", counted_apply)
    monkeypatch.setattr(protocols, "apply_map", counted_apply, raising=False)
    monkeypatch.setattr(LinearMap, "__post_init__", counted_post_init)
    monkeypatch.setattr(StateVector, "rows", classmethod(counted_rows))
    outcomes = pcd(state, *spins, coeffs)
    monkeypatch.undo()
    assert applied == []
    assert built == []
    assert stacks == [(reg, (4, reg.dim))]
    # the ideal-interface target as apply_map builds it
    for o, ideal in zip(outcomes, [K_EVEN_IDEAL] * 2 + [K_ODD_IDEAL] * 2):
        target = apply_map(state, ideal, spins).normalized()
        assert abs(o.fidelity - fidelity(o.post_state, target)) <= 1e-15


def test_a_new_coefficient_set_builds_its_instruments_without_kron_or_gate_products(monkeypatch, rng):
    protocols._instrument_tables()      # the tables are the process's, built by any earlier instrument
    coeffs_a, coeffs_b = random_coeffs(rng), random_coeffs(rng)     # sets no earlier call has seen
    krons, gates = [], []
    kron, gate_product = np.kron, protocols._gate_product

    def counted_kron(*args, **kwargs):
        krons.append(args)
        return kron(*args, **kwargs)

    def counted_gate_product(names):
        gates.append(names)
        return gate_product(names)

    monkeypatch.setattr(np, "kron", counted_kron)
    monkeypatch.setattr(protocols, "_gate_product", counted_gate_product)
    maps = [protocols._extension_maps(coeffs_a), protocols._purification_maps(coeffs_a, coeffs_b)]
    monkeypatch.undo()
    assert krons == [] and gates == []
    assert [m.shape for m in maps] == [(8, 2, 8), (8, 4, 16)]


def test_a_user_built_map_keeps_its_svd_check(svd_calls):
    m = LinearMap(np.array([[0.5, 0.5], [0.0, 0.5]]))
    assert len(svd_calls) == 1
    assert m.matrix[0, 1] == 0.5
    with pytest.raises(ValueError, match="largest singular value"):
        LinearMap(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert len(svd_calls) == 2


@pytest.mark.parametrize("build", [encode_map, decode_map, lambda: scatter_map(_practical())],
                         ids=["encode_map", "decode_map", "scatter_map"])
def test_fresh_maps_are_read_only(build):
    matrix = build().matrix
    with pytest.raises(ValueError, match="read-only"):
        matrix[0, 0] = 7.0
    assert build().matrix[0, 0] != 7.0


#: every cached map and the Bell rows, as the array a caller could try to write to
CACHED_ARRAYS = {
    "decoder ends": lambda: protocols._path_ends()[0],
    "encoder end": lambda: protocols._path_ends()[1],
    "plus scatter": lambda: protocols._plus_scatter(_practical()),
    "correction index": lambda: protocols._pattern_corrections(protocols._ghz_correction, 3)[3],
    "correction sign": lambda: protocols._pattern_corrections(protocols._ghz_correction, 3)[4],
    "extension table": lambda: protocols._instrument_tables()[0],
    "purification table": lambda: protocols._instrument_tables()[1],
    "purification rotation": lambda: protocols._instrument_tables()[2],
    "purification maps": lambda: protocols._purification_maps(_practical(), IDEAL),
    "Bell rows": lambda: protocols._BELL,
}


@pytest.mark.parametrize("name", list(CACHED_ARRAYS))
def test_cached_maps_and_targets_are_read_only(name):
    array = CACHED_ARRAYS[name]()
    corner = (0,) * array.ndim
    with pytest.raises(ValueError, match="read-only"):
        array[corner] = 7.0
    assert CACHED_ARRAYS[name]()[corner] != 7.0


#: cached functions of the library that hold no array, each with the reason
CACHE_EXEMPT = {
    "_parser": "the CLI's argument parser, no array",
}


def cached_functions(source: str) -> list[str]:
    """Every function decorated with ``functools.cache`` or ``lru_cache``."""
    def is_cache(node):
        node = node.func if isinstance(node, ast.Call) else node
        return (node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)) in ("cache", "lru_cache")

    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and any(map(is_cache, node.decorator_list))]


def test_scan_finds_cached_functions():
    source = ("import functools\nfrom functools import cache, lru_cache\n@functools.cache\ndef a(): pass\n"
              "@functools.lru_cache(maxsize=4)\ndef b(): pass\n@cache\ndef c(): pass\n@lru_cache\ndef d(): pass\n"
              "class K:\n    @functools.cached_property\n    def e(self): pass\n@staticmethod\ndef f(): pass\n")
    assert cached_functions(source) == ["a", "b", "c", "d"]


def test_every_cached_function_is_checked_read_only_or_exempt():
    # an entry of CACHED_ARRAYS checks a function it calls
    called = {name for entry in CACHED_ARRAYS.values() for name in entry.__code__.co_names}
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "qdrepeater"
    cached = [name for f in sorted(src.glob("*.py")) for name in cached_functions(f.read_text(encoding="utf-8"))]
    assert "_instrument_tables" in cached
    unchecked = [name for name in cached
                 if name not in called and name.lstrip("_") not in called and name not in CACHE_EXEMPT]
    assert unchecked == []
    assert set(CACHE_EXEMPT) <= set(cached)


def test_cached_maps_are_shared_per_input():
    assert protocols._plus_scatter(_practical()) is protocols._plus_scatter(_practical())
    assert isinstance(scatter_map(_practical()), LinearMap)
    assert protocols._purification_maps(_practical(), IDEAL) is protocols._purification_maps(_practical(), IDEAL)
    assert protocols._instrument_tables() is protocols._instrument_tables()


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
    # the Bell rows hold Phi- first, then Phi+
    assert np.array_equal(protocols._BELL[(sign + 1) // 2], pair.amplitudes)


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
        assert np.array_equal(ch.matrix(), LinearMap(ch.matrix(), unitary=True).matrix)
