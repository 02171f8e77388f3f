"""Heralded entanglement protocols over spin-cavity nodes.

Four protocols are implemented by exact state-vector evolution:

* Bell / GHZ entanglement distribution: photons from a central source are
  time-bin encoded, sent through noisy fibers, decoded, scattered off one
  spin per node and detected.  Every two-photon (n-photon) detection pattern
  heralds a spin state; a fixed single-spin correction, given by a rule per
  pattern, turns each pattern into the same target state.  Each photon's
  path is compiled into a small transfer array from the matrices of the
  dense time-bin pipeline.  Their tensor products form one (pattern, time
  bin, spin) amplitude array, from which the outcomes are read directly.
* Parity-check detection (PCD): a single probe photon is split over two
  local cavities, recombined and detected; the detected polarization heralds
  the even or odd parity subspace of the two spins without measuring them.
  The probe never flips a spin, so its optics act on the two spins as one
  diagonal operator per parity.
* Chain extension: a PCD plus two single-spin measurements splices a fresh
  Bell pair onto an existing entangled chain.
* Purification: two noisy copies are distilled into one of higher quality
  using one PCD per party.

Extension and purification are applied as one fixed map per heralded branch
(parity and two measured spins), cached per coefficient set; the chain runs
every pair of mixture members through those maps.

What is built from checked inputs is built once and shared read-only: the
pi phase plate once per process (as `timebin`'s encoder and decoder maps),
`scatter_map` and the parity, extension and purification maps per
coefficient set (the last 16 sets each), and the targets `ghz_state`,
`phi_minus` and `phi_plus` per label tuple (the last 64).  A distribution
that repeats its coefficients builds no map and makes no SVD.

Branch probabilities are exact: imperfect cavity coefficients shrink the
pre-detection norm, and one minus the sum of all heralded probabilities is
the leak/noise (plus input-coupling) loss.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .cavity import IDEAL, ScatterCoeffs
from .qstate import (
    Ensemble,
    LinearMap,
    Register,
    RegisterError,
    StateVector,
    Subsystem,
    _equal_upto_phase,
    apply_map,
    fidelity,
    hadamard,
    sigma_x,
    sigma_z,
    superposition,
    tensor,
)
from .scatter import scatter_map
from .timebin import (
    DIRECTION,
    POL_CIRCULAR,
    TB_DECODED,
    NoiseChannel,
    decode_map,
    encode_map,
    phase_shift_map,
)

RT2 = 1.0 / math.sqrt(2.0)
_ZERO = 1e-24          # branch weights below this are numerically dead
_MERGE_TOL = 1e-10

#: structurally possible single-photon detections after the decoder routing
_PORTS = (("R", "up"), ("L", "dn"))

_GATES = {"x": sigma_x(), "z": sigma_z(), "h": hadamard()}


@dataclass(frozen=True)
class HeraldedOutcome:
    """One detection branch of a heralded protocol."""

    detection: str
    probability: float
    correction: tuple[tuple[str, str], ...]
    post_state: StateVector | None
    fidelity: float | None


@dataclass(frozen=True)
class PurificationState:
    """Weight of the phase-correct Bell component after purification rounds."""

    mu: float
    round: int
    success_probability: float

    def __post_init__(self):
        if not (-1e-12 <= self.mu <= 1.0 + 1e-12):
            raise ValueError(f"mu = {self.mu} outside [0, 1]")


def spin_register(labels) -> Register:
    return Register(tuple(Subsystem(lab, ("up", "dn")) for lab in labels))


def ghz_state(labels, sign: int = 1) -> StateVector:
    """(|up...up> + sign |dn...dn>)/sqrt(2) over fresh spin subsystems.

    The state is read-only, so it is built once per label tuple and sign;
    the last 64 are kept, as a chain's labels grow with its segments.
    """
    return _ghz_state(tuple(labels), sign)


@functools.lru_cache(maxsize=64)
def _ghz_state(labels: tuple[str, ...], sign: int) -> StateVector:
    reg = spin_register(labels)
    return superposition(reg, [
        (RT2, {lab: "up" for lab in reg.labels}),
        (sign * RT2, {lab: "dn" for lab in reg.labels}),
    ])


def phi_minus(labels) -> StateVector:
    return ghz_state(labels, -1)


def phi_plus(labels) -> StateVector:
    return ghz_state(labels, +1)


def uniform_spins(labels) -> StateVector:
    """Equal superposition of every basis state of fresh spins."""
    n = len(labels)
    reg = spin_register(labels)
    return StateVector(reg, np.full(2 ** n, 2.0 ** (-n / 2.0), dtype=complex))


def _detection_label(pattern) -> str:
    return "".join(pol + ("↑" if d == "up" else "↓") for pol, d in pattern)


# ---------------------------------------------------------------------------
# entanglement distribution
# ---------------------------------------------------------------------------

#: per-photon detection outcomes a branch lists, port by port, each with its
#: sp and lp arrival class; rows of the 8-dimensional (circular polarization,
#: direction, decoded time bin) output of one photon's path
_PORT_ROWS = [4 * POL_CIRCULAR.index(pol) + 2 * DIRECTION.index(d) + k
              for pol, d in _PORTS for k in range(len(TB_DECODED))]


@functools.cache
def _pi_plate() -> np.ndarray:
    """The pi phase plate on the polarization of one photon's decoded
    (polarization, direction, time bin) output, built once per process."""
    m = np.kron(phase_shift_map(math.pi).matrix, np.eye(4))
    m.setflags(write=False)
    return m


def _photon_transfer(noise: NoiseChannel, coeffs: ScatterCoeffs, phased: bool) -> np.ndarray:
    """Amplitudes v[s, o, spin] left by one photon's path.

    The photon leaves the source with polarization s (H, V) in the early
    bin and runs encode -> fiber -> decode -> (pi phase) -> quarter-wave
    relabel -> scatter off its spin, which starts in |+>.  o indexes the
    photon's (circular polarization, direction, decoded time bin) outcome.
    The channel and the coefficients were checked when they were built, so
    the fiber rotation enters as its plain matrix and the scattering map
    comes from the per-coefficient cache of `scatter_map`.
    """
    # source columns Hs and Vs of the (polarization, raw time bin) basis; the
    # decoder's columns Hs, Hl, Vs, Vl with the direction tag up are 0, 1, 4, 5
    path = decode_map().matrix[:, [0, 1, 4, 5]] @ noise.matrix() @ encode_map().matrix[:, [0, 2]]
    if phased:
        path = _pi_plate() @ path
    # the scattering map acts on (polarization, direction, spin); the time bin is a spectator
    s_plus = scatter_map(coeffs).matrix.reshape(8, 4, 2) @ np.array([RT2, RT2])
    v = np.einsum("pdxq,qts->spdtx", s_plus.reshape(2, 2, 2, 4), path.reshape(4, 2, 2))
    return v.reshape(2, 8, 2)


def distribution_branches(noises, coeffs_list, phase_photon: int):
    """Heralded spin amplitudes of n-photon distribution from per-photon transfers.

    The source emits (|H...H> + |V...V>)/sqrt(2), and every photon runs its
    own path to its own spin, so the state before detection is
    (x_i v_i[H] + x_i v_i[V])/sqrt(2) with x the tensor product; photon
    ``phase_photon`` gets the pi phase.  Returns (amps, survival): amps[k, j]
    holds the unnormalized 2^n spin amplitudes of port pattern k and
    time-bin outcome j, both listed photon by photon in ``itertools.product``
    order (ports ("R", "up"), ("L", "dn"); time bins `TB_DECODED`); survival
    is the squared norm after scattering, i.e. one minus the leak/noise loss.
    """
    n = len(noises)
    v = [_photon_transfer(ch, cf, i == phase_photon)
         for i, (ch, cf) in enumerate(zip(noises, coeffs_list))]
    from_h, from_v = (functools.reduce(np.kron, [vi[s, _PORT_ROWS] for vi in v]) for s in (0, 1))
    # rows run over (port_1, tb_1, ..., port_n, tb_n); regroup by port pattern
    amps = (RT2 * (from_h + from_v)).reshape((2,) * (2 * n) + (-1,))
    amps = amps.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2), 2 * n])
    amps = amps.reshape(2 ** n, 2 ** n, 2 ** n)

    # <x_i a_i, x_i b_i> = prod_i <a_i, b_i> gives the full norm, stray ports included
    overlap = [[math.prod(np.vdot(vi[a], vi[b]) for vi in v) for b in (0, 1)] for a in (0, 1)]
    survival = 0.5 * float((overlap[0][0] + overlap[1][1] + 2.0 * overlap[0][1]).real)
    if abs(float(np.sum(np.abs(amps) ** 2)) - survival) > 1e-10:
        raise RuntimeError("port detections do not add up to the surviving norm")
    return amps, survival


@functools.cache
def _correction_matrix(gates_idx, n: int) -> np.ndarray:
    """The single-spin corrections of one pattern as one 2^n x 2^n matrix.

    The corrections are Pauli gates, so the entries are 0 and +-1, and the
    matrix moves and negates amplitudes exactly as the gates one by one do.
    """
    m = functools.reduce(np.kron, [_gate_product(g for g, j in gates_idx if j == i) for i in range(n)])
    m.setflags(write=False)
    return m


def _collect_outcomes(amps, noises, spin_labels, correction_for, target, eta_in):
    """One outcome per port pattern, or one per live time-bin outcome when
    some fiber's late bin rotates differently from its early one.

    Collective noise factors out, so every live time-bin outcome of a
    pattern heralds the first one's state up to a phase and the pattern is
    reported once.  A late rotation equal to the early one times e^{i phi}
    still splits, into outcomes of one state (fidelity (1 + cos phi)/2 at
    ideal nodes, `channel_mixing_weight`), which the chain's pooling merges.
    """
    n = len(spin_labels)
    reg = spin_register(spin_labels)
    split = any(ch.delta_l != ch.delta or ch.eta_l != ch.eta for ch in noises)
    tb_names = [",".join(bins) for bins in itertools.product(TB_DECODED, repeat=n)]
    probs = np.sum(np.abs(amps) ** 2, axis=2)
    outcomes = []
    for pattern, pat_amps, pat_probs in zip(itertools.product(_PORTS, repeat=n), amps, probs):
        gates_idx = correction_for(pattern)
        gates = tuple((g, spin_labels[i]) for g, i in gates_idx)
        label = _detection_label(pattern)
        live = np.flatnonzero(pat_probs > _ZERO)
        if not live.size:
            outcomes.append(HeraldedOutcome(label, 0.0, gates, None, None))
            continue
        if split:
            reported = [(f"{label}:{tb_names[j]}", p) for j, p in zip(live.tolist(), pat_probs[live].tolist())]
        else:
            reported = [(label, sum(pat_probs[live].tolist()))]
            live = live[:1]
        posts = (pat_amps[live] / np.sqrt(pat_probs[live])[:, None]) @ _correction_matrix(gates_idx, n).T
        fids = np.abs(posts @ target.amplitudes.conj()) ** 2 / np.sum(np.abs(posts) ** 2, axis=1)
        for (name, p), post, fid in zip(reported, posts, fids.tolist()):
            outcomes.append(HeraldedOutcome(name, coupled_probability(p, eta_in, n), gates,
                                            StateVector(reg, post), fid))
    return outcomes


def _bell_correction(pattern):
    return () if pattern[0] == pattern[1] else (("x", 1),)


def _ghz_correction(pattern):
    """Flip the spins of the smaller port class (R on a tie), then the phase
    of the first spin when the number of parties is even."""
    classes = [[i for i, pd in enumerate(pattern) if pd == port] for port in _PORTS]
    flips = min(classes, key=len)
    return tuple(("x", i) for i in flips) + ((("z", 0),) if len(pattern) % 2 == 0 else ())


def check_eta_in(eta_in: float) -> None:
    """Reject an input-coupling efficiency outside (0, 1]."""
    if not (0.0 < eta_in <= 1.0):
        raise ValueError(f"eta_in = {eta_in} outside (0, 1]")


def coupled_probability(p: float, eta_in: float, passes: int) -> float:
    """p eta_in^passes, a probability after ``passes`` photon passes through an
    input coupler, reported as 0.0 below the smallest normal float."""
    scaled = p * eta_in ** passes
    return scaled if scaled >= sys.float_info.min else 0.0


def distribute_bell(
    noise_a: NoiseChannel,
    noise_b: NoiseChannel,
    coeffs_a: ScatterCoeffs,
    coeffs_b: ScatterCoeffs,
    eta_in: float = 1.0,
    spin_labels=("e_a", "e_b"),
) -> list[HeraldedOutcome]:
    """Distribute one Bell pair between two nodes; herald on both photons.

    Even detection patterns need no correction; odd patterns record a spin
    flip on the second node.  The declared target is
    (|up,up> - |dn,dn>)/sqrt(2).
    """
    check_eta_in(eta_in)
    amps, _ = distribution_branches((noise_a, noise_b), (coeffs_a, coeffs_b), phase_photon=1)
    return _collect_outcomes(amps, (noise_a, noise_b), spin_labels, _bell_correction,
                             phi_minus(spin_labels), eta_in)


def distribute_ghz(
    n: int,
    noise,
    coeffs,
    eta_in: float = 1.0,
) -> list[HeraldedOutcome]:
    """Distribute an n-party GHZ state; herald on all n photons.

    The declared target is (|up...up> + |dn...dn>)/sqrt(2).  Each detection
    pattern records spin flips on the photons of its smaller port class (the
    R class on a tie), then a phase flip on the first spin when n is even;
    these map every pattern onto the target.
    """
    if n < 2:
        raise ValueError("GHZ distribution needs at least two parties")
    check_eta_in(eta_in)
    noise = list(noise)
    coeffs = list(coeffs)
    if len(noise) != n or len(coeffs) != n:
        raise ValueError("need one noise channel and one coefficient set per photon")
    labels = [f"e_{chr(ord('a') + i)}" for i in range(n)]
    amps, _ = distribution_branches(noise, coeffs, phase_photon=0)
    return _collect_outcomes(amps, noise, labels, _ghz_correction, phi_plus(labels), eta_in)


def channel_mixing_weight(channels) -> float:
    """Weight of the phase-correct Bell component left by asymmetric fibers.

    The early- and late-bin rotations of each fiber overlap pairwise; the
    product overlap c gives mu = (1 + Re c)/2.  Collective noise has c = 1
    and mu = 1.
    """
    c = 1.0 + 0.0j
    for ch in channels:
        c *= np.conj(ch.delta) * ch.delta_l + np.conj(ch.eta) * ch.eta_l
    return float((1.0 + c.real) / 2.0)


def _normalized_ensemble(reg: Register, pairs) -> Ensemble:
    """Ensemble over ``reg`` from (weight, unit amplitude row) pairs.

    A row equal up to a global phase to an earlier distinct row is the same
    pure state, and its weight joins the first such row.  Only rows whose
    keys, their sums of entry magnitudes, lie close together are compared:
    a match moves no entry's magnitude by more than atol + 1e-5 |entry|, so
    matching keys differ by at most dim * atol + 1e-5 * key, and the window
    is twice that.  The rows then join their distinct rows in arrival order,
    so the weights add up in that order.  If more distinct rows than the
    register dimension d remain, the mixture is rebuilt from the eigenbasis
    of its density matrix, which holds any d-dimensional mixture exactly in
    d pure components.  Exact sums keep the total at 1.
    """
    rows = np.array([amps for _, amps in pairs])
    n, dim = rows.shape
    key = np.abs(rows).sum(axis=1)
    order = key.argsort(kind="stable")     # np.lexsort's code; the default sort adds 0.25 MB of RSS
    key = key.take(order)
    # sorted position s meets each t in (s, end[s]): within the larger key's window
    end = key.searchsorted((key + 2 * dim * _MERGE_TOL) / (1.0 - 2e-5), "right")
    width = end - np.arange(1, n + 1)
    s = order.repeat(width)
    t = order.take(np.arange(len(s)) + (end - width.cumsum()).repeat(width))
    later, earlier = np.maximum(s, t), np.minimum(s, t)
    by_row = np.lexsort((earlier, later))    # by later row, then by earlier row
    later, earlier = later.take(by_row), earlier.take(by_row)
    hit = _equal_upto_phase(rows.take(earlier, axis=0), rows.take(later, axis=0), _MERGE_TOL)
    weights = [w for w, _ in pairs]
    free = [True] * n               # whether a row is still a distinct row
    for i, j in zip(later[hit].tolist(), earlier[hit].tolist()):
        if free[i] and free[j]:
            free[i] = False
            weights[j] += weights[i]
    distinct = [(w, amps) for w, (_, amps), f in zip(weights, pairs, free) if f]
    total = math.fsum(w for w, _ in distinct)

    if len(distinct) > reg.dim:
        vecs = np.array([amps for _, amps in distinct])
        scale = np.array([w / total for w, _ in distinct])[:, None, None]
        # (w / total) * outer, added one at a time from zero as a running sum adds them
        rho = np.add.reduce(scale * (vecs[:, :, None] * vecs.conj()[:, None, :]), axis=0, initial=0.0)
        eigvals, eigvecs = np.linalg.eigh(rho)
        distinct = [(float(lam), eigvecs[:, i]) for i, lam in enumerate(eigvals) if lam > _ZERO]
        distinct.reverse()      # dominant component first
        total = math.fsum(w for w, _ in distinct)

    scaled = [(w / total, amps) for w, amps in distinct]
    residual = math.fsum(w for w, _ in scaled)
    return Ensemble(tuple((w / residual, StateVector(reg, amps)) for w, amps in scaled))


def heralded_ensemble(outcomes) -> tuple[Ensemble, float]:
    """Mixture of corrected branch states, weighted by branch probability.

    The protocol has already decided which branches are dead: those are the
    outcomes without a post state.
    """
    live = [o for o in outcomes if o.post_state is not None]
    for o in live:
        if not 0.0 <= o.probability < math.inf:
            raise ValueError(f"outcome {o.detection!r}: probability {o.probability} is negative or not finite")
        if o.post_state.register != live[0].post_state.register:
            raise RegisterError(f"outcome {o.detection!r}: post state is over another register than the first")
    total = math.fsum(o.probability for o in live)
    if total <= 0.0:
        raise ValueError("no surviving branches")
    pairs = [(o.probability, o.post_state.amplitudes) for o in live]
    return _normalized_ensemble(live[0].post_state.register, pairs), total


# ---------------------------------------------------------------------------
# parity-check detection
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _parity_operators(coeffs: ScatterCoeffs) -> tuple[tuple[str, LinearMap], ...]:
    """The probe optics of a PCD as one diagonal operator per parity.

    The probe never flips a spin: an arm whose spin is up (dn) multiplies
    the probe by u = r + t (v = r0 + t0), and the output combiner turns the
    two arms into their half sum (even) or half difference (odd).  On
    (spin1, spin2) that gives diag(u, (u+v)/2, (u+v)/2, v) for even and
    diag(0, (u-v)/2, (v-u)/2, 0) for odd.
    """
    u = coeffs.r + coeffs.t
    v = coeffs.r0 + coeffs.t0
    return (("even", LinearMap(np.diag([u, (u + v) / 2.0, (u + v) / 2.0, v]))),
            ("odd", LinearMap(np.diag([0.0, (u - v) / 2.0, (v - u) / 2.0, 0.0]))))


#: the two detector ports of each parity: (label, sign of the amplitude)
_PCD_PORTS = {"even": (("R_a1", 1.0), ("R_a2", 1.0)), "odd": (("L_a1", 1.0), ("L_a2", -1.0))}


def pcd(
    state: StateVector,
    spin1: str,
    spin2: str,
    coeffs: ScatterCoeffs,
    eta_in: float = 1.0,
) -> list[HeraldedOutcome]:
    """Parity-check detection on two co-located spins.

    A probe photon in (|R> + |L>)/sqrt(2) is split over the two cavities,
    recombined and detected.  An R click (ports R_a1, R_a2) heralds the even
    parity subspace, an L click (L_a1, L_a2) the odd one.  The probe optics
    act on the spins as the two diagonal operators of `_parity_operators`.
    The reported fidelity compares each branch with the ideal-interface
    branch for the same input spins.
    """
    check_eta_in(eta_in)
    for lab in (spin1, spin2):
        if not state.register.has(lab):
            raise RegisterError(f"no spin labeled {lab!r} in the input state")
    if abs(state.norm2 - 1.0) > 1e-9:
        raise ValueError("PCD input state must be normalized")

    # both ports of a parity carry K/sqrt(2), so each heralds half of the
    # probability and the same state; a parity whose ports carry no more
    # than the dead-branch weight has probability 0 and post state None
    outcomes = []
    for (parity, kraus), (_, ideal) in zip(_parity_operators(coeffs), _parity_operators(IDEAL)):
        heralded = apply_map(state, kraus, [spin1, spin2])
        p = heralded.norm2
        if p / 2.0 <= _ZERO:
            outcomes += [HeraldedOutcome(label, 0.0, (), None, None) for label, _ in _PCD_PORTS[parity]]
            continue
        target = apply_map(state, ideal, [spin1, spin2])
        target = target.normalized() if target.norm2 > _ZERO else None
        for label, sign in _PCD_PORTS[parity]:
            post = StateVector(heralded.register, sign * (heralded.amplitudes / math.sqrt(p)))
            fid = fidelity(post, target) if target is not None else None
            outcomes.append(HeraldedOutcome(label, coupled_probability(p / 2.0, eta_in, 1), (), post, fid))
    return outcomes


# ---------------------------------------------------------------------------
# chain extension and purification as branch maps
# ---------------------------------------------------------------------------

#: the heralded branches of one parity check followed by the measurement of
#: two spins, as (parity, m1, m2): even before odd, outcomes in product order
_BRANCHES = tuple((parity, m1, m2) for parity in ("even", "odd")
                  for m1, m2 in itertools.product(("up", "dn"), repeat=2))


def _gate_product(names) -> np.ndarray:
    """The single-spin gates ``names``, applied in order, as one 2x2 matrix."""
    return functools.reduce(lambda m, g: _GATES[g].matrix @ m, names, np.eye(2))


def _outcome_row(ops: np.ndarray, m1: str, m2: str) -> np.ndarray:
    """Row <m1 m2| of a two-spin operator."""
    return ops[2 * ("up", "dn").index(m1) + ("up", "dn").index(m2)]


def _extension_gates(parity, m1, m2, label_d):
    """Recorded correction on d: a flip after odd parity, a phase flip after unequal outcomes."""
    return ((("x", label_d),) if parity == "odd" else ()) + ((("z", label_d),) if m1 != m2 else ())


@functools.lru_cache(maxsize=16)
def _extension_maps(coeffs: ScatterCoeffs) -> tuple[np.ndarray, ...]:
    """One 2x8 map from (z, z', d) to d per branch of `_BRANCHES`.

    Each is G_d <m1 m2|(H x H) K_parity: the parity check of z and z', their
    Hadamard rotation and measurement, and the recorded correction on the
    fresh end spin d.  The input coupling is left to the caller.
    """
    h = _GATES["h"].matrix
    kraus = dict(_parity_operators(coeffs))
    maps = []
    for parity, m1, m2 in _BRANCHES:
        row = _outcome_row(np.kron(h, h) @ kraus[parity].matrix, m1, m2)
        gate = _gate_product(g for g, _ in _extension_gates(parity, m1, m2, None))
        maps.append(np.kron(row, gate))
        maps[-1].setflags(write=False)
    return tuple(maps)


@functools.lru_cache(maxsize=16)
def _purification_maps(coeffs_a: ScatterCoeffs, coeffs_b: ScatterCoeffs) -> tuple[np.ndarray, ...]:
    """One 4x16 map from two copies (a, b, a', b') to (a', b') per branch of `_BRANCHES`.

    All four spins are Hadamard-rotated so the phase error becomes a bit
    error, checked by one PCD per party, (a, a') with ``coeffs_a`` and
    (b, b') with ``coeffs_b``; equal parities are kept (odd-odd after a
    recorded flip of a and b), a and b are measured in the Hadamard basis,
    unequal outcomes record a phase flip on a', and a', b' are rotated back.
    One probe photon per party, so the caller scales by eta_in squared.
    """
    h = _GATES["h"].matrix
    rotate = functools.reduce(np.kron, [h] * 4)
    kraus_a, kraus_b = dict(_parity_operators(coeffs_a)), dict(_parity_operators(coeffs_b))
    maps = []
    for parity, m1, m2 in _BRANCHES:
        # both checks are diagonal: entry (a, b, a', b') is K_a[a, a'] K_b[b, b']
        check = np.einsum("ac,bd->abcd", np.diag(kraus_a[parity].matrix).reshape(2, 2),
                          np.diag(kraus_b[parity].matrix).reshape(2, 2)).reshape(16)
        pre = _gate_product(("x", "h") if parity == "odd" else ("h",))
        row = _outcome_row(np.kron(pre, pre), m1, m2)
        post = np.kron(_gate_product(("z", "h") if m1 != m2 else ("h",)), h)
        maps.append(np.kron(row, post) @ (check[:, None] * rotate))
        maps[-1].setflags(write=False)
    return tuple(maps)


def extend_chain(
    ghz: StateVector,
    bell: StateVector,
    joint_node,
    coeffs: ScatterCoeffs,
    eta_in: float = 1.0,
) -> list[HeraldedOutcome]:
    """Splice a Bell pair onto a GHZ chain at a node holding one spin of each.

    The PCD heralds the parity of the two co-located spins; both are then
    Hadamard-rotated and measured, leaving the remaining spins in the
    extended GHZ state (|up...up> - |dn...dn>)/sqrt(2) after the recorded
    correction on the fresh end spin.
    """
    check_eta_in(eta_in)
    label_z, label_zp = joint_node
    if not ghz.register.has(label_z):
        raise RegisterError(f"label {label_z!r} not in the chain state")
    if not bell.register.has(label_zp):
        raise RegisterError(f"label {label_zp!r} not in the fresh pair")
    others = [lab for lab in bell.register.labels if lab != label_zp]
    if len(others) != 1:
        raise ValueError("the fresh pair must hold exactly two spins")
    label_d = others[0]

    state = tensor(ghz, bell)
    reg = state.register.without((label_z, label_zp))
    target = phi_minus(reg.labels)
    # the rest of the chain keeps its order and d, from the fresh pair, comes last
    pos = [state.register.position(lab) for lab in (label_z, label_zp, label_d)]
    psi = np.moveaxis(state.tensor_axes(), pos, (0, 1, 2)).reshape(8, -1)
    outcomes = []
    for (parity, m1, m2), m in zip(_BRANCHES, _extension_maps(coeffs)):
        label = f"{parity}:{m1},{m2}"
        gates = _extension_gates(parity, m1, m2, label_d)
        out = (m @ psi).T.reshape(-1)
        p = float(np.vdot(out, out).real)
        if p <= _ZERO:
            outcomes.append(HeraldedOutcome(label, 0.0, gates, None, None))
            continue
        final = StateVector(reg, out / math.sqrt(p))
        outcomes.append(HeraldedOutcome(label, coupled_probability(p, eta_in, 1), gates,
                                        final, fidelity(final, target)))
    return outcomes


def _pair_stage(ens_a: Ensemble, ens_b: Ensemble, maps, labels, stage: str) -> tuple[Ensemble, float]:
    """Every member pair of two two-spin mixtures through every branch map.

    Each map takes the Kronecker product of one member of each mixture to
    the two spins ``labels``; a map narrower than that product acts on its
    trailing spins, the leading ones being spectators.  Returns the heralded
    mixture and its success probability at unit input coupling.  All pairs
    go through all maps as array products; accepted rows are listed pair by
    pair, branch by branch, the arrival order in which `_normalized_ensemble`
    gives each row to the first earlier distinct row it matches.
    """
    w_a, a = np.array([w for w, _ in ens_a.members]), np.array([s.amplitudes for _, s in ens_a.members])
    w_b, b = np.array([w for w, _ in ens_b.members]), np.array([s.amplitudes for _, s in ens_b.members])
    # the np.kron of each pair, its products unchanged, as row i * len(b) + j
    psi = (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), 1, -1, maps[0].shape[1])
    # each (pair, map) slice is the same matrix product as one pair's own
    out = (psi @ np.stack(maps).transpose(0, 2, 1)).reshape(len(a) * len(b) * len(maps), -1)
    # np.vdot per row: a vectorised norm sums in another order
    p = np.array([np.vdot(row, row).real for row in out])
    w = np.repeat((w_a[:, None] * w_b[None, :]).reshape(-1), len(maps)) * p
    live = np.flatnonzero(w > _ZERO)
    if not live.size:
        raise RuntimeError(f"{stage} heralded no surviving branches")
    weights = w[live].tolist()
    accepted = list(zip(weights, out[live] / np.sqrt(p[live])[:, None]))
    return _normalized_ensemble(spin_register(labels), accepted), math.fsum(weights)


def purify_round(mu: float, coeffs: ScatterCoeffs = IDEAL) -> tuple[PurificationState, float]:
    """One purification round on two copies of the (mu, 1-mu) Bell mixture.

    This is the chain's mixture purification applied to the mixture of
    Phi- (weight mu) and Phi+ (weight 1-mu), with ``coeffs`` at both
    parties.  At ideal coefficients the kept weight follows
    mu -> mu^2/(mu^2 + (1-mu)^2) with success probability mu^2 + (1-mu)^2.
    """
    if not (0.0 <= mu <= 1.0):
        raise ValueError(f"mu = {mu} outside [0, 1]")
    labels = ("e_a", "e_b")
    mixture = ((mu, phi_minus(labels)), (1.0 - mu, phi_plus(labels)))
    ens = Ensemble(tuple((w, st) for w, st in mixture if w > 0.0))
    ens, success = _pair_stage(ens, ens, _purification_maps(coeffs, coeffs), labels, "purification")
    return PurificationState(mu=fidelity(ens, phi_minus(labels)), round=1,
                             success_probability=success), 1.0 - success


def purify_analytic(mu: float, rounds: int) -> list[PurificationState]:
    """Iterate mu -> mu^2/(mu^2 + (1-mu)^2); one entry per round."""
    if not (0.0 <= mu <= 1.0):
        raise ValueError(f"mu = {mu} outside [0, 1]")
    if rounds < 0:
        raise ValueError("rounds must be nonnegative")
    out = []
    current = mu
    for k in range(1, rounds + 1):
        success = current ** 2 + (1.0 - current) ** 2
        current = current ** 2 / success
        out.append(PurificationState(mu=current, round=k, success_probability=success))
    return out


# ---------------------------------------------------------------------------
# end-to-end chains
# ---------------------------------------------------------------------------

@dataclass
class SegmentSpec:
    name: str
    left: str
    right: str
    noise_left: NoiseChannel = field(default_factory=NoiseChannel.identity)
    noise_right: NoiseChannel = field(default_factory=NoiseChannel.identity)


@dataclass
class ChainScenario:
    """Nodes (scattering coefficients) plus the ordered segments linking them."""

    nodes: dict[str, ScatterCoeffs]
    segments: list[SegmentSpec]
    purify_rounds: int = 0
    eta_in: float = 1.0

    def validate(self):
        if not self.segments:
            raise ValueError("scenario needs at least one segment")
        for seg in self.segments:
            for node in (seg.left, seg.right):
                if node not in self.nodes:
                    raise ValueError(f"segment {seg.name}: unknown node {node!r}")
            if seg.left == seg.right:
                raise ValueError(f"segment {seg.name}: ends at a single node")
        for prev, nxt in zip(self.segments, self.segments[1:]):
            if prev.right != nxt.left:
                raise ValueError(
                    f"inconsistent node wiring: segment {nxt.name} starts at "
                    f"{nxt.left!r} but the chain so far ends at {prev.right!r}")
        check_eta_in(self.eta_in)
        if self.purify_rounds < 0:
            raise ValueError("purify_rounds must be nonnegative")


@dataclass(frozen=True)
class StageResult:
    stage: str
    label: str
    probability: float
    fidelity: float


@dataclass(frozen=True)
class ChainReport:
    """Stage results and the end-to-end state of a chain.

    ``total_probability`` is the product of the stage probabilities, or 0.0
    where that product falls below the smallest normal float;
    ``log10_total_probability`` holds the `math.fsum` of their base-10
    logarithms, taken before any underflow, in either case.
    """

    stages: tuple[StageResult, ...]
    end_labels: tuple[str, str]
    final_fidelity: float
    total_probability: float
    log10_total_probability: float
    final_state: Ensemble


def run_chain(scenario: ChainScenario) -> ChainReport:
    """Distribute every segment, purify, then extend left to right.

    Each stage runs at unit input coupling; its probability, conditional on
    all earlier stages, then gains eta_in per photon pass through an input
    coupler (two per distribution or purification round, one per extension)
    and is reported as 0.0 below the smallest normal float.
    """
    scenario.validate()
    eta_in = scenario.eta_in
    stages: list[StageResult] = []
    logs: list[float] = []

    def record(stage, label, p, passes, ens, labels):
        stages.append(StageResult(stage, label, coupled_probability(p, eta_in, passes),
                                  fidelity(ens, phi_minus(labels))))
        logs.append(math.log10(p) + passes * math.log10(eta_in))

    segments = []
    for i, seg in enumerate(scenario.segments):
        labels = (f"e{i}_{seg.left}", f"e{i}_{seg.right}")
        outcomes = distribute_bell(seg.noise_left, seg.noise_right,
                                   scenario.nodes[seg.left], scenario.nodes[seg.right],
                                   spin_labels=labels)
        ens, p = heralded_ensemble(outcomes)
        record("distribute", seg.name, p, 2, ens, labels)
        for r in range(scenario.purify_rounds):
            maps = _purification_maps(scenario.nodes[seg.left], scenario.nodes[seg.right])
            ens, p = _pair_stage(ens, ens, maps, labels, "purification")
            record("purify", f"{seg.name} round {r + 1}", p, 2, ens, labels)
        segments.append((ens, labels))

    ens, (left_end, right_end) = segments[0]
    for seg, (ens_b, (_, right_end)) in zip(scenario.segments[1:], segments[1:]):
        # the chain's left end is a spectator of the splice at seg.left
        ens, p = _pair_stage(ens, ens_b, _extension_maps(scenario.nodes[seg.left]),
                             (left_end, right_end), "extension")
        record("extend", f"at {seg.left}", p, 1, ens, (left_end, right_end))

    total_p = math.prod(st.probability for st in stages)
    return ChainReport(
        stages=tuple(stages),
        end_labels=(left_end, right_end),
        final_fidelity=stages[-1].fidelity,
        total_probability=total_p if total_p >= sys.float_info.min else 0.0,
        log10_total_probability=math.fsum(logs),
        final_state=ens,
    )
