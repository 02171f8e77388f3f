"""Objects built from already-checked inputs are built and checked once.

Registers keep their sizes, the photons' exact transfer table, from which
a node's terms (1, t, t0) give each photon's path, is built once per
process, the purification instrument and `purify_round`'s Bell weight
table once per coefficient set (the last 16 each), both instruments' exact
dyadic tables, from which a node's terms give every branch map, once per
process and distribution's outcome table (the spins' register, the labeled
corrections, the detection labels and each photon's correction as a
read-only gather and sign) once per rule and spin labels; every array a
module holds, as a constant or as a value of a module-level dict (the
parity rule, the Bell signs and rows, the PCD's port tables, the gates),
is read-only, found by a scan of the library's modules.  The parity
operators, the extension instrument and the spin targets (each a few
microseconds of array arithmetic) and the maps the cached pieces start
from (`encode_map`, `decode_map`, `scatter_map`) are built afresh on each
call, the maps read-only like every `LinearMap`.  These tests hold the
saving (a distribution, a chain or a crosscheck at coefficients never seen
makes no singular value decomposition; a repeated distribution takes no
Kronecker product, builds no register, formats no detection label, and
checks its listed live states as one stack;
a parity check builds and applies no map and checks its states as one
stack; a repeated purification round builds no instrument and takes no
Kronecker product; a new coefficient set's instruments and Bell weight
table take no Kronecker product and no gate product), show that nothing
cached can be written to and that every cached function of the library is
listed here or exempted with a reason, that a distribution's outcomes
equal ones built afresh and cannot be written to, that the outcomes of a
split five-party distribution, a parity check and an extension equal ones
built by the constructors, each state slotted, frozen and a view of one
read-only stack, and that user-built maps keep every check.
"""

import ast
import dataclasses
import importlib
import math
import pathlib

import numpy as np
import pytest

from qdrepeater import protocols, qstate
from qdrepeater.cavity import IDEAL, CavityParams, resonant_coeffs
from qdrepeater.metrics import crosscheck
from qdrepeater.protocols import (ChainScenario, HeraldedOutcome, SegmentSpec, distribute_bell, distribute_ghz,
                                  extend_chain, ghz_state, pcd, phi_minus, phi_plus, purify_round, run_chain,
                                  spin_register)
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


def test_a_distribution_at_coefficients_never_seen_makes_no_svd(svd_calls, rng):
    noises = [random_asymmetric(rng) for _ in range(3)]
    nodes = [random_coeffs(rng) for _ in range(3)]    # drawn afresh, so no cache has met them
    scenario = ChainScenario({"A": nodes[0], "B": nodes[1], "C": nodes[2]},
                             [SegmentSpec("s0", "A", "B", noises[0], noises[1]), SegmentSpec("s1", "B", "C")],
                             purify_rounds=1)
    runs = [lambda: distribute_bell(noises[0], noises[1], nodes[0], nodes[1]),
            lambda: distribute_ghz(3, noises, nodes),
            lambda: run_chain(scenario).final_fidelity,
            lambda: crosscheck(nodes[2]).max_deviation]
    first = [run() for run in runs]
    again = [run() for run in runs]
    assert svd_calls == []

    def listed(result):
        return [(o.detection, o.probability, o.fidelity) for o in result] if isinstance(result, list) else result

    assert [listed(r) for r in again] == [listed(r) for r in first]


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


@pytest.fixture
def registers_built(monkeypatch):
    built = []
    for cls in (Register, Subsystem):
        def counted(self, post_init=cls.__post_init__):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return built


def test_a_repeated_ghz_distribution_builds_no_register_and_formats_no_label(registers_built, rng):
    noises = [random_asymmetric(rng)] + [random_symmetric(rng) for _ in range(3)]
    empty = resonant_coeffs(CavityParams(g=0.0))
    coeffs = [empty, empty, IDEAL, _practical()]
    first = distribute_ghz(4, noises, coeffs)
    registers_built.clear()
    again = distribute_ghz(4, noises, coeffs)
    assert registers_built == []
    assert {o.post_state is None for o in again} == {True, False}      # dead patterns and live rows
    assert [(o.detection, o.probability, o.fidelity) for o in again] == \
           [(o.detection, o.probability, o.fidelity) for o in first]
    # the labels, corrections and register are the cached table's own objects, not made anew
    for old, new in zip(first, again):
        assert new.detection is old.detection and new.correction is old.correction
        if new.post_state is not None:
            assert new.post_state.register is old.post_state.register


def test_bell_distribution_over_its_own_labels_gets_its_own_register_and_gates(rng):
    noise_a, noise_b = random_asymmetric(rng), random_asymmetric(rng)

    def run(*labels):
        return distribute_bell(noise_a, noise_b, _practical(), IDEAL, **({"spin_labels": labels} if labels else {}))

    runs = [(("x", "y"), run("x", "y")), (("e_a", "e_b"), run()), (("x", "y"), run("x", "y"))]
    for labels, outcomes in runs:
        live = [o for o in outcomes if o.post_state is not None]
        assert live and {o.post_state.register for o in live} == {spin_register(labels)}
        assert {o.correction for o in outcomes} == {(), (("x", labels[1]),)}
        # the labels name the spins and nothing else
        assert [(o.detection, o.probability, o.fidelity, o.post_state.amplitudes.tobytes()) for o in live] == \
               [(o.detection, o.probability, o.fidelity, o.post_state.amplitudes.tobytes())
                for o in runs[1][1] if o.post_state is not None]
    assert runs[0][1][0].post_state.register is runs[2][1][0].post_state.register


def test_a_distribution_outcome_equals_a_fresh_one_and_is_immutable(rng):
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
            with pytest.raises(AttributeError):
                o.probability = 1.0


def test_bulk_built_outcomes_equal_constructed_ones_over_one_read_only_stack(rng):
    noises = [random_asymmetric(rng)] + [random_symmetric(rng) for _ in range(4)]
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    runs = [distribute_ghz(5, noises, [IDEAL, _practical(), IDEAL, _practical(), random_coeffs(rng)]),
            pcd(StateVector(spin_register(("a", "b", "c")), amps / np.linalg.norm(amps)), "c", "a", _practical()),
            extend_chain(ghz_state(("a", "b", "z")), phi_minus(("zp", "d")), ("z", "zp"), random_coeffs(rng))]
    assert len(runs[0]) == 1024         # the split fiber lists every live (pattern, time bin) row
    for outcomes in runs:
        states = [o.post_state for o in outcomes if o.post_state is not None]
        assert states
        stack = states[0].amplitudes.base
        assert stack.ndim == 2 and not stack.flags.writeable
        for o in outcomes:
            state = o.post_state
            fresh = HeraldedOutcome(o.detection, o.probability, o.correction,
                                    None if state is None else StateVector(state.register, state.amplitudes),
                                    o.fidelity)
            assert type(o) is HeraldedOutcome
            assert o._replace(post_state=None) == fresh._replace(post_state=None)
            if state is None:
                continue
            assert type(state) is StateVector and not hasattr(state, "__dict__")
            assert state.register is fresh.post_state.register
            assert state.amplitudes.tobytes() == fresh.post_state.amplitudes.tobytes()
            assert state.amplitudes.base is stack and not state.amplitudes.flags.writeable
            for name in ("register", "amplitudes"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(state, name, getattr(fresh.post_state, name))


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
    krons, kron = [], np.kron

    def counted_kron(*args, **kwargs):
        krons.append(args)
        return kron(*args, **kwargs)

    def gate_product(names):
        raise AssertionError(f"a new coefficient set took the gate product {tuple(names)}")

    monkeypatch.setattr(np, "kron", counted_kron)
    monkeypatch.setattr(protocols, "_gate_product", gate_product)
    maps = [protocols._extension_maps(coeffs_a), protocols._purification_maps(coeffs_a, coeffs_b),
            protocols._bell_weights(coeffs_b)]
    monkeypatch.undo()
    assert krons == []
    assert [m.shape for m in maps] == [(8, 2, 8), (8, 4, 16), (4, 4)]


def test_a_repeated_purification_round_builds_no_instrument_and_takes_no_kron(monkeypatch, rng):
    coeffs = random_coeffs(rng)      # a set no earlier call has seen
    first = [purify_round(mu, coeffs) for mu in (0.7, 1e-9)]
    calls = []

    def counted(name, real):
        def count(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return count

    monkeypatch.setattr(protocols, "_purification_maps", counted("_purification_maps", protocols._purification_maps))
    monkeypatch.setattr(np, "kron", counted("kron", np.kron))
    again = [purify_round(mu, dataclasses.replace(coeffs)) for mu in (0.7, 1e-9)]   # an equal, new object
    monkeypatch.undo()
    assert calls == []

    def floats(result):
        state, discarded = result
        return [x.hex() for x in (state.mu, state.success_probability, discarded)]

    assert [floats(r) for r in again] == [floats(r) for r in first]


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


#: every cached map, as the array a caller could try to write to
CACHED_ARRAYS = {
    "transfer table": lambda: protocols._transfer_table(),
    "correction gather": lambda: protocols._pattern_corrections(protocols._ghz_correction, ("a", "b", "c"))[-2],
    "correction sign": lambda: protocols._pattern_corrections(protocols._ghz_correction, ("a", "b", "c"))[-1],
    "extension table": lambda: protocols._instrument_tables()[0],
    "purification table": lambda: protocols._instrument_tables()[1],
    "purification maps": lambda: protocols._purification_maps(_practical(), IDEAL),
    "Bell weights": lambda: protocols._bell_weights(_practical()),
    # constants named here too, so that renaming one fails a check instead of leaving the scan
    "parity rule": lambda: module_arrays()["protocols._PARITY_RULE"],
    "Bell signs": lambda: module_arrays()["protocols._BELL_SIGNS"],
    "Bell pair signs": lambda: module_arrays()["protocols._BELL_PAIRS"],
    "Bell rows": lambda: module_arrays()["protocols._BELL"],
}


@pytest.mark.parametrize("name", list(CACHED_ARRAYS))
def test_cached_maps_and_targets_are_read_only(name):
    array = CACHED_ARRAYS[name]()
    corner = (0,) * array.ndim
    with pytest.raises(ValueError, match="read-only"):
        array[corner] = 7.0
    assert CACHED_ARRAYS[name]()[corner] != 7.0


SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qdrepeater"


def module_arrays() -> dict[str, np.ndarray]:
    """Every module-level array of the library, and every array value of a module-level dict, by name."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("qdrepeater" if path.stem == "__init__" else f"qdrepeater.{path.stem}")
        for name, value in vars(module).items():
            items = value.items() if isinstance(value, dict) else [("", value)]
            found.update({f"{path.stem}.{name}" + (f"[{key!r}]" if key else ""): array for key, array in items
                          if isinstance(array, np.ndarray)})
    return found


def test_every_module_level_array_is_read_only():
    arrays = module_arrays()
    # the scan reaches constants and dict values alike
    assert {"protocols._BELL_SIGNS", "protocols._PCD_SIGN", "protocols._GATES['h']"} <= set(arrays)
    assert [name for name, array in arrays.items() if array.flags.writeable] == []


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
    cached = [name for f in sorted(SRC.glob("*.py")) for name in cached_functions(f.read_text(encoding="utf-8"))]
    assert "_instrument_tables" in cached
    unchecked = [name for name in cached
                 if name not in called and name.lstrip("_") not in called and name not in CACHE_EXEMPT]
    assert unchecked == []
    assert set(CACHE_EXEMPT) <= set(cached)


def test_cached_maps_are_shared_per_input():
    assert protocols._transfer_table() is protocols._transfer_table()
    assert isinstance(scatter_map(_practical()), LinearMap)
    assert protocols._purification_maps(_practical(), IDEAL) is protocols._purification_maps(_practical(), IDEAL)
    assert protocols._bell_weights(_practical()) is protocols._bell_weights(_practical())
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
    # the Bell rows hold Phi- first, then Phi+, the first two signs scaled
    assert np.array_equal(protocols._BELL[(sign + 1) // 2], pair.amplitudes)
    assert np.array_equal(RT2 * protocols._BELL_SIGNS[(sign + 1) // 2], pair.amplitudes)


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
