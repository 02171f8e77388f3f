import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdrepeater.qstate import (
    LinearMap,
    Register,
    RegisterError,
    StateVector,
    Subsystem,
    apply_map,
    basis_state,
    fidelity,
    hadamard,
    sigma_x,
    superposition,
    tensor,
)
from qdrepeater.timebin import phase_shift_map

from conftest import allclose_upto_phase, schmidt_rank
from dense_oracle import measure

RT2 = 1.0 / math.sqrt(2.0)


def spin(label):
    return Register((Subsystem(label, ("up", "dn")),))


def pol(label):
    return Register((Subsystem(label, ("H", "V")),))


def two_spins(a="s1", b="s2"):
    return Register((Subsystem(a, ("up", "dn")), Subsystem(b, ("up", "dn"))))


def bell_minus(reg):
    la, lb = reg.labels
    return superposition(reg, [(RT2, {la: "up", lb: "up"}), (-RT2, {la: "dn", lb: "dn"})])


def bell_plus(reg):
    la, lb = reg.labels
    return superposition(reg, [(RT2, {la: "up", lb: "up"}), (RT2, {la: "dn", lb: "dn"})])


amplitude_pairs = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda t: abs(t[0]) + abs(t[1]) + abs(t[2]) + abs(t[3]) > 1e-3)


def normalized_qubit(label, t):
    v = np.array([t[0] + 1j * t[1], t[2] + 1j * t[3]])
    return StateVector(spin(label), v / np.linalg.norm(v))


# --- registers -------------------------------------------------------------

def test_register_rejects_duplicate_labels():
    with pytest.raises(RegisterError):
        Register((Subsystem("x", ("up", "dn")), Subsystem("x", ("up", "dn"))))


def test_timebin_may_have_eight_levels():
    levels = tuple("abcdefgh")
    sub = Subsystem("tb", levels)
    assert sub.dim == 8


def test_basis_index_roundtrip():
    reg = Register((
        Subsystem("p", ("H", "V")),
        Subsystem("tb", ("s", "l")),
        Subsystem("e", ("up", "dn")),
    ))
    for idx in range(reg.dim):
        levels = reg.basis_levels(idx)
        assert reg.basis_index(dict(zip(reg.labels, levels))) == idx


def test_unknown_label_rejected():
    reg = spin("e")
    with pytest.raises(RegisterError):
        reg.position("nope")


# --- tensor ----------------------------------------------------------------

def test_tensor_of_basis_states():
    out = tensor(basis_state(pol("ph")), basis_state(spin("e")))
    assert out.amplitude({"ph": "H", "e": "up"}) == 1.0
    assert out.norm2 == pytest.approx(1.0)


def test_tensor_is_linear_in_first_factor():
    plus = superposition(pol("ph"), [(RT2, {"ph": "H"}), (RT2, {"ph": "V"})])
    out = tensor(plus, basis_state(spin("e")))
    assert out.amplitude({"ph": "H", "e": "up"}) == pytest.approx(RT2)
    assert out.amplitude({"ph": "V", "e": "up"}) == pytest.approx(RT2)
    assert out.amplitude({"ph": "H", "e": "dn"}) == 0.0


def test_tensor_rejects_shared_labels():
    with pytest.raises(RegisterError):
        tensor(basis_state(spin("e")), basis_state(spin("e")))


@given(amplitude_pairs, amplitude_pairs)
@settings(max_examples=30, deadline=None)
def test_tensor_norm_is_multiplicative(ta, tb):
    a = normalized_qubit("a", ta)
    b = normalized_qubit("b", tb)
    assert tensor(a, b).norm2 == pytest.approx(a.norm2 * b.norm2, abs=1e-12)


# --- apply_map -------------------------------------------------------------

def test_bit_flip():
    out = apply_map(basis_state(spin("e")), sigma_x(), ["e"])
    assert out.amplitude({"e": "dn"}) == 1.0
    assert out.amplitude({"e": "up"}) == 0.0


def test_hadamard_makes_even_superposition():
    out = apply_map(basis_state(spin("e")), hadamard(), ["e"])
    assert out.amplitude({"e": "up"}) == pytest.approx(RT2)
    assert out.amplitude({"e": "dn"}) == pytest.approx(RT2)


def test_projection_drops_norm():
    st_in = StateVector(pol("ph"), [0.6, 0.8])
    out = apply_map(st_in, LinearMap(np.diag([1.0, 0.0]), unitary=False), ["ph"])
    assert out.amplitude({"ph": "H"}) == pytest.approx(0.6)
    assert out.amplitude({"ph": "V"}) == 0.0
    assert out.norm2 == pytest.approx(0.36, abs=1e-12)


def test_dimension_mismatch_rejected():
    reg = two_spins()
    with pytest.raises(RegisterError):
        apply_map(basis_state(reg), sigma_x(), ["s1", "s2"])


def test_map_acts_only_on_targets():
    reg = two_spins()
    out = apply_map(basis_state(reg), sigma_x(), ["s2"])
    assert out.amplitude({"s1": "up", "s2": "dn"}) == 1.0


@given(amplitude_pairs)
@settings(max_examples=30, deadline=None)
def test_unitary_preserves_norm(t):
    state = normalized_qubit("e", t)
    for gate in (sigma_x(), hadamard(), phase_shift_map(0.37)):
        assert apply_map(state, gate, ["e"]).norm2 == pytest.approx(state.norm2, abs=1e-12)


def test_linear_map_validation():
    with pytest.raises(ValueError):
        LinearMap(np.array([[1.0, 0.0], [0.0, 2.0]]), unitary=True)
    with pytest.raises(ValueError):
        LinearMap(np.array([[1.0, 0.0], [0.0, 1.5]]), unitary=False)
    # a diagonal map may carry an entry of magnitude exactly 1
    assert LinearMap(np.diag([1j, -1.0, 0.5])).dim == 3


def test_unitarity_check_rejects_nan():
    with pytest.raises(ValueError, match="unitarity"):
        LinearMap(np.diag([1.0, np.nan]), unitary=True)


# --- measure ---------------------------------------------------------------

def test_measure_bell_marginals():
    reg = two_spins()
    branches = measure(bell_minus(reg), ["s1"])
    assert len(branches) == 2
    by_outcome = {b.outcome: b for b in branches}
    up = by_outcome[("up",)]
    dn = by_outcome[("dn",)]
    assert up.probability == pytest.approx(0.5, abs=1e-12)
    assert dn.probability == pytest.approx(0.5, abs=1e-12)
    assert allclose_upto_phase(up.post, basis_state(spin("s2")))
    assert allclose_upto_phase(dn.post, basis_state(spin("s2"), {"s2": "dn"}))


def test_measure_definite_state():
    branches = measure(basis_state(pol("ph")), ["ph"])
    assert [b.outcome for b in branches] == [("H",), ("V",)]
    assert branches[0].probability == pytest.approx(1.0)
    assert branches[1].probability == 0.0
    assert branches[1].post is None


def test_measure_normalizes_a_branch_of_subnormal_probability():
    # |3e-162|^2 and |7e-162|^2 are subnormal, so their sum carries a large
    # relative rounding error; the post state must still be normalized
    state = StateVector(two_spins(), np.array([1.0, 0.0, 3e-162, 7e-162]))
    dn = measure(state, ["s1"])[1]
    assert 0.0 < dn.probability < 1e-300
    assert dn.post.norm2 == pytest.approx(1.0, abs=1e-12)
    assert dn.post.amplitudes[1] / dn.post.amplitudes[0] == pytest.approx(7.0 / 3.0, rel=1e-12)


def test_measure_keeps_zero_branches_on_request():
    state = basis_state(pol("ph"))
    branches = measure(state, ["ph"])
    assert len(branches) == 2
    assert branches[1].probability == 0.0
    assert branches[1].post is None


def test_measure_requires_targets():
    with pytest.raises(RegisterError):
        measure(basis_state(spin("e")), [])


@given(amplitude_pairs, amplitude_pairs)
@settings(max_examples=30, deadline=None)
def test_measurement_completeness(ta, tb):
    state = tensor(normalized_qubit("a", ta), normalized_qubit("b", tb))
    state = apply_map(state, hadamard(), ["a"])
    branches = measure(state, ["a", "b"])
    assert sum(b.probability for b in branches) == pytest.approx(state.norm2, abs=1e-12)


@given(amplitude_pairs, amplitude_pairs)
@settings(max_examples=30, deadline=None)
def test_tensor_measure_consistency(ta, tb):
    a = normalized_qubit("a", ta)
    b = normalized_qubit("b", tb)
    joint = {br.outcome: br.probability for br in measure(tensor(a, b), ["b"])}
    alone = {br.outcome: br.probability for br in measure(b, ["b"])}
    for outcome, p in alone.items():
        assert joint[outcome] == pytest.approx(p, abs=1e-12)


# --- fidelity --------------------------------------------------------------

def test_fidelity_of_identical_states():
    reg = two_spins()
    assert fidelity(bell_minus(reg), bell_minus(reg)) == pytest.approx(1.0)


def test_fidelity_of_orthogonal_bell_states():
    reg = two_spins()
    assert fidelity(bell_minus(reg), bell_plus(reg)) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_rejects_zero_norm():
    reg = two_spins()
    zero = StateVector(reg, np.zeros(4))
    with pytest.raises(ValueError):
        fidelity(zero, bell_minus(reg))


def test_fidelity_is_phase_insensitive():
    reg = two_spins()
    rotated = StateVector(reg, np.exp(0.91j) * bell_minus(reg).amplitudes)
    assert fidelity(rotated, bell_minus(reg)) == pytest.approx(1.0)


# --- misc invariants ---------------------------------------------------------

def test_amplitudes_cannot_exceed_unit_norm():
    with pytest.raises(ValueError):
        StateVector(spin("e"), [1.0, 1.0])


def test_nan_amplitudes_rejected():
    with pytest.raises(ValueError):
        StateVector(spin("e"), [np.nan, 0.0])


def test_allclose_upto_phase():
    reg = two_spins()
    a = bell_minus(reg)
    b = StateVector(reg, -1j * a.amplitudes)
    assert allclose_upto_phase(a, b)
    assert not allclose_upto_phase(a, bell_plus(reg))
    zero = StateVector(reg, np.zeros(4))
    assert allclose_upto_phase(zero, zero)
    assert not allclose_upto_phase(a, zero)
    assert not allclose_upto_phase(zero, a)


def test_schmidt_rank_detects_products_and_entanglement():
    reg = two_spins()
    assert schmidt_rank(bell_minus(reg), ["s1"]) == 2
    product = tensor(basis_state(spin("a")), basis_state(spin("b")))
    assert schmidt_rank(product, ["a"]) == 1


_QUBIT = Register((Subsystem("a", ("0", "1")),))
_PAIR = Register((Subsystem("a", ("0", "1")), Subsystem("b", ("0", "1"))))
_PLUS = superposition(_QUBIT, [(1 / math.sqrt(2), {"a": "0"}), (1 / math.sqrt(2), {"a": "1"})])


@pytest.mark.parametrize("build,error,message", [
    (lambda: Subsystem("x", ("a",)), RegisterError, "x: a subsystem needs at least two levels"),
    (lambda: Subsystem("x", ("a", "a")), RegisterError, "x: duplicate level names"),
    (lambda: _QUBIT.basis_index({"q": "0"}), RegisterError, "no subsystem labeled 'q'"),
    (lambda: StateVector(_QUBIT, np.ones(3)), RegisterError,
     "amplitude length 3 does not match register dimension 2"),
    (lambda: StateVector(_QUBIT, np.zeros(2)).normalized(), ValueError, "cannot normalize a zero-norm state"),
    (lambda: LinearMap(np.zeros((2, 3))), ValueError, "linear map must be square, got shape (2, 3)"),
    (lambda: LinearMap(np.diag([0.5, (1 + 1e-9) * 1j])), ValueError,
     "largest singular value 1.000000001 exceeds 1; map would grow norm"),
    (lambda: LinearMap(np.diag([0.5, np.nan])), ValueError, "largest singular value nan exceeds 1; map would grow norm"),
    pytest.param(lambda: LinearMap(np.array([[0.5, np.nan], [0.1, 0.2]])), ValueError,
                 "largest singular value nan exceeds 1; map would grow norm", id="non-diagonal nan map"),
    pytest.param(lambda: LinearMap(np.array([[0.5, np.inf], [0.1, 0.2]])), ValueError,
                 "largest singular value nan exceeds 1; map would grow norm", id="inf map"),
    (lambda: apply_map(basis_state(_PAIR), LinearMap(np.eye(4)), ["a", "a"]), RegisterError,
     "duplicate targets ['a', 'a']"),
    (lambda: apply_map(basis_state(_PAIR), LinearMap(np.eye(2)), ["a", "b"]), RegisterError,
     "map dimension 2 does not match target dimension 4"),
    (lambda: fidelity(_PLUS, StateVector(_QUBIT, [0.5, 0.5])), ValueError, "fidelity target must be normalized"),
    (lambda: fidelity(basis_state(_PAIR), _PLUS), RegisterError, "fidelity requires matching registers"),
])
def test_boundary_checks_raise(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


# --- StateVector.rows --------------------------------------------------------

def _single_error(amps):
    with pytest.raises(ValueError) as info:
        StateVector(_PAIR, amps)
    return info.type, str(info.value)


@pytest.mark.parametrize("stack,single", [
    (np.full(4, 0.5), np.full(3, 0.5)),
    (np.full((2, 2, 2), 0.5), np.full(3, 0.5)),
    (np.full((2, 3), 0.5), np.full(3, 0.5)),
    (np.array([[1.0, 0, 0, 0], [0.5, 0.5, 0.5, 0.5 + 3e-9]]), [0.5, 0.5, 0.5, 0.5 + 3e-9]),
    (np.array([[1.0, 0, 0, 0], [0.5, 0.5, 0.5, 0.5], [0, np.nan, 0, 0]]), [0, np.nan, 0, 0]),
])
def test_rows_rejects_what_the_single_constructor_rejects(stack, single):
    error, message = _single_error(single)
    with pytest.raises(error) as info:
        StateVector.rows(_PAIR, stack)
    assert info.type is error
    if stack.ndim == 2:
        assert str(info.value) == message
    else:
        assert str(info.value) == f"amplitude stack of shape {stack.shape} is not 2-D"


def test_rows_copies_the_stack_into_read_only_views():
    stack = np.array([[1.0, 0, 0, 0], [0.5, 0.5, 0.5, 0.5j]])
    states = StateVector.rows(_PAIR, stack)
    stack[:] = 0.0
    assert np.array_equal(states[0].amplitudes, [1, 0, 0, 0])
    assert np.array_equal(states[1].amplitudes, [0.5, 0.5, 0.5, 0.5j])
    for state in states:
        assert state.register is _PAIR and state.amplitudes.dtype == np.complex128
        assert not state.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0


def test_rows_of_an_empty_stack_is_empty():
    assert StateVector.rows(_PAIR, np.zeros((0, 4))) == []


@given(st.integers(1, 3), st.integers(0, 6), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_rows_equal_single_constructions(n, k, seed):
    reg = Register(tuple(Subsystem(f"s{i}", ("up", "dn")) for i in range(n)))
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(k, 2 ** n)) + 1j * rng.normal(size=(k, 2 ** n))
    stack /= np.linalg.norm(stack, axis=1, keepdims=True) * rng.uniform(1.0, 4.0, size=(k, 1))
    states = StateVector.rows(reg, stack)
    assert len(states) == k
    for state, row in zip(states, stack):
        assert np.array_equal(state.amplitudes, StateVector(reg, row).amplitudes)
