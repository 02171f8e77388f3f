"""Exact complex state algebra over small labeled composite quantum systems.

States are dense amplitude vectors over a register of named subsystems
(polarizations, time bins, spatial paths, spins).  Nothing is renormalized
implicitly: a heralded (non-unitary) map shrinks the squared norm, and that
deficit is exactly the probability lost to undetected channels.

Objects are checked when they are built: a `StateVector` checks its length
and norm and keeps read-only amplitudes, and a `LinearMap` checks its shape
and that it cannot grow the norm, however a caller builds it.
`StateVector.rows` checks a 2-D stack of amplitude rows once, with the same
rules and errors, and returns one state per row, each a read-only view of
the one copied stack; a kept state therefore holds its whole stack alive
(512 KiB for the 1,024 outcomes of a five-party GHZ distribution).  A
`Register` computes its sizes once.  The library builds the maps and targets that
depend only on constants or on already-checked inputs once and shares them
read-only (see `timebin`, `scatter` and `protocols`).

There is no mixed-state type.  Every mixture the library forms is over two
spins and is held as its 4x4 density matrix, or, inside a purification
round's pair stage, as a weight vector and a stack of unit amplitude rows
(see `protocols`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

ATOL = 1e-12            # tolerance for algebraic identities
_NORM_SLACK = 1e-9      # construction-time slack on norm**2 <= 1


class RegisterError(ValueError):
    """Malformed register, unknown label, or dimension mismatch."""


@dataclass(frozen=True)
class Subsystem:
    """One named degree of freedom with explicitly named levels."""

    label: str
    levels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if len(self.levels) < 2:
            raise RegisterError(f"{self.label}: a subsystem needs at least two levels")
        if len(set(self.levels)) != len(self.levels):
            raise RegisterError(f"{self.label}: duplicate level names")

    @property
    def dim(self) -> int:
        return len(self.levels)

    def level_index(self, name: str) -> int:
        try:
            return self.levels.index(name)
        except ValueError:
            raise RegisterError(f"{self.label}: no level named {name!r}") from None


@dataclass(frozen=True)
class Register:
    """Ordered collection of subsystems; Kronecker order follows list order."""

    subsystems: tuple[Subsystem, ...]

    def __post_init__(self):
        object.__setattr__(self, "subsystems", tuple(self.subsystems))
        labels = [s.label for s in self.subsystems]
        if len(set(labels)) != len(labels):
            raise RegisterError(f"duplicate subsystem labels in register: {labels}")

    # a register never changes after it is built, so its sizes are computed
    # once; the cached values sit outside the fields, so == and hash ignore them
    @functools.cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.subsystems)

    @functools.cached_property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.subsystems)

    def position(self, label: str) -> int:
        for i, s in enumerate(self.subsystems):
            if s.label == label:
                return i
        raise RegisterError(f"no subsystem labeled {label!r}")

    def subsystem(self, label: str) -> Subsystem:
        return self.subsystems[self.position(label)]

    def has(self, label: str) -> bool:
        return any(s.label == label for s in self.subsystems)

    def without(self, labels) -> "Register":
        drop = set(labels)
        return Register(tuple(s for s in self.subsystems if s.label not in drop))

    def join(self, other: "Register") -> "Register":
        """The register of a Kronecker product: these subsystems, then ``other``'s."""
        overlap = set(self.labels) & set(other.labels)
        if overlap:
            raise RegisterError(f"cannot tensor states sharing labels {sorted(overlap)}")
        return Register(self.subsystems + other.subsystems)

    def replace(self, label: str, new: Subsystem) -> "Register":
        pos = self.position(label)
        subs = list(self.subsystems)
        subs[pos] = new
        return Register(tuple(subs))

    def basis_index(self, assignment: dict[str, str]) -> int:
        """Flat index of the basis state given as {label: level}; omitted labels take level 0."""
        for lab in assignment:
            if not self.has(lab):
                raise RegisterError(f"no subsystem labeled {lab!r}")
        idx = 0
        for s in self.subsystems:
            lev = assignment.get(s.label, s.levels[0])
            idx = idx * s.dim + s.level_index(lev)
        return idx

    def basis_levels(self, index: int) -> tuple[str, ...]:
        out = []
        for s in reversed(self.subsystems):
            index, k = divmod(index, s.dim)
            out.append(s.levels[k])
        return tuple(reversed(out))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over a register; norm**2 carries branch probability."""

    register: Register
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1).copy()
        if amps.shape != (self.register.dim,):
            raise RegisterError(
                f"amplitude length {amps.shape[0]} does not match register dimension {self.register.dim}"
            )
        n2 = float(np.vdot(amps, amps).real)
        if not n2 <= 1.0 + _NORM_SLACK:
            raise ValueError(f"norm**2 = {n2} exceeds 1; amplitudes cannot grow")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def rows(cls, register: Register, amplitudes) -> list["StateVector"]:
        """One state per row of a 2-D stack, checked once as a whole.

        The stack is copied once and made read-only; each state's amplitudes
        are a view of its row.  A malformed stack or a row that would fail
        the single constructor raises that constructor's error.
        """
        stack = np.array(amplitudes, dtype=np.complex128)
        if stack.ndim != 2:
            raise RegisterError(f"amplitude stack of shape {stack.shape} is not 2-D")
        if stack.shape[1] != register.dim:
            raise RegisterError(
                f"amplitude length {stack.shape[1]} does not match register dimension {register.dim}"
            )
        parts = stack.view(np.float64)
        bad = ~(np.einsum("ij,ij->i", parts, parts) <= 1.0 + _NORM_SLACK)     # a NaN row too
        if bad.any():
            row = stack[bad.argmax()]
            raise ValueError(f"norm**2 = {float(np.vdot(row, row).real)} exceeds 1; amplitudes cannot grow")
        stack.setflags(write=False)
        states = []
        for row in stack:       # each field set as the frozen __init__ makes it, without a second check
            state = object.__new__(cls)
            object.__setattr__(state, "register", register)
            object.__setattr__(state, "amplitudes", row)
            states.append(state)
        return states

    @property
    def norm2(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm2 - 1.0) <= ATOL

    def normalized(self) -> "StateVector":
        n2 = self.norm2
        if n2 <= 0.0:
            raise ValueError("cannot normalize a zero-norm state")
        return StateVector(self.register, self.amplitudes / math.sqrt(n2))

    def amplitude(self, assignment: dict[str, str]) -> complex:
        return complex(self.amplitudes[self.register.basis_index(assignment)])

    def tensor_axes(self) -> np.ndarray:
        return self.amplitudes.reshape(self.register.dims if self.register.subsystems else (1,))


@dataclass(frozen=True)
class LinearMap:
    """Square matrix acting on a target sub-register.

    A unitary map preserves norm; a non-unitary (heralded) map may shrink it
    but never grow it, so its largest singular value must stay at 1.
    """

    matrix: np.ndarray
    unitary: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"linear map must be square, got shape {m.shape}")
        if self.unitary:
            dev = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
            if not dev <= ATOL:
                raise ValueError(f"matrix flagged unitary deviates from unitarity by {dev}")
        else:
            # a nan or inf entry reads as singular value nan, which the bound rejects
            smax = float(np.linalg.svd(m, compute_uv=False)[0]) if np.isfinite(m).all() else math.nan
            if not smax <= 1.0 + ATOL:
                raise ValueError(f"largest singular value {smax} exceeds 1; map would grow norm")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# Common single-subsystem maps.

def sigma_x() -> LinearMap:
    return LinearMap(np.array([[0, 1], [1, 0]], dtype=complex), unitary=True)


def sigma_z() -> LinearMap:
    return LinearMap(np.array([[1, 0], [0, -1]], dtype=complex), unitary=True)


def hadamard() -> LinearMap:
    return LinearMap(np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2), unitary=True)


def basis_state(register: Register, assignment: dict[str, str] | None = None) -> StateVector:
    amps = np.zeros(register.dim, dtype=complex)
    amps[register.basis_index(assignment or {})] = 1.0
    return StateVector(register, amps)


def superposition(register: Register, terms) -> StateVector:
    """Build a state from (amplitude, {label: level}) components."""
    amps = np.zeros(register.dim, dtype=complex)
    for coeff, assignment in terms:
        amps[register.basis_index(assignment)] += coeff
    return StateVector(register, amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; registers are concatenated and must not share labels."""
    return StateVector(a.register.join(b.register), np.kron(a.amplitudes, b.amplitudes))


def apply_map(state: StateVector, m: LinearMap, targets) -> StateVector:
    """Apply `m` to the listed target subsystems, identity elsewhere.

    The result may be unnormalized; its squared norm is the surviving branch
    probability.
    """
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise RegisterError(f"duplicate targets {targets}")
    pos = [state.register.position(t) for t in targets]
    psi = np.moveaxis(state.tensor_axes(), pos, range(len(pos)))
    dt = math.prod(psi.shape[:len(pos)])
    if m.dim != dt:
        raise RegisterError(f"map dimension {m.dim} does not match target dimension {dt}")
    psi = (m.matrix @ psi.reshape(dt, -1)).reshape(psi.shape)
    return StateVector(state.register, np.moveaxis(psi, range(len(pos)), pos).reshape(-1))


def fidelity(state: StateVector, target: StateVector) -> float:
    """Overlap fidelity with a normalized pure target; phase-insensitive."""
    if not target.is_normalized:
        raise ValueError("fidelity target must be normalized")
    if state.register.dims != target.register.dims or state.register.labels != target.register.labels:
        raise RegisterError("fidelity requires matching registers")
    n2 = state.norm2
    if n2 <= 0.0:
        raise ValueError("fidelity of a zero-norm state is undefined")
    ov = np.vdot(target.amplitudes, state.amplitudes)
    return float(abs(ov) ** 2 / n2)


def _equal_upto_phase(va: np.ndarray, vb: np.ndarray, atol: float) -> np.ndarray:
    """Entry p says whether row ``va[p]`` equals unit row ``vb[p]`` up to a global phase.

    The phase is read off the largest entry k of ``vb[p]``; ``va[p]`` below
    ``atol`` there is unequal, and otherwise the rows are compared entry by
    entry as `np.allclose` compares them (rtol 1e-5).
    """
    k = np.arange(0, vb.size, vb.shape[1]) + np.abs(vb).argmax(axis=1)   # flat, in va as in vb
    at_k = va.take(k)
    with np.errstate(all="ignore"):     # a row below atol at k may get a nan or inf phase
        phase = at_k / vb.take(k)
        b = (phase / np.abs(phase))[:, None] * vb
        close = (np.abs(va - b) <= atol + 1e-5 * np.abs(b)) & np.isfinite(b) | (va == b)
        return (np.abs(at_k) >= atol) & close.all(axis=-1)
