"""Heralded entanglement protocols over spin-cavity nodes.

Four protocols are implemented by exact state-vector evolution:

* Bell / GHZ entanglement distribution: photons from a central source are
  time-bin encoded, sent through noisy fibers, decoded, scattered off one
  spin per node and detected.  Every two-photon (n-photon) detection pattern
  heralds a spin state; a fixed single-spin correction, given by a rule per
  pattern, turns each pattern into the same target state.  Each photon's
  path is its node's terms (1, t, t0) times one exact table, composed once
  from the dense time-bin pipeline's matrices, then its fiber's rotation.
  Corrections act photon by photon, so the products of the corrected
  factors form the (pattern, time bin, spin) amplitude array already
  corrected.  Probabilities (the rows' squared norms), states and
  fidelities are read off it in whole-array steps.  A chain segment forms
  its 4x4 state from the array's live rows and builds no outcome.  The
  tests' oracle, `distribution_branches`, builds the array uncorrected.
* Parity-check detection (PCD): a single probe photon is split over two
  local cavities, recombined and detected; the detected polarization heralds
  the even or odd parity subspace of the two spins without measuring them.
  The probe never flips a spin, so its optics act on the two spins as one
  diagonal operator per parity.  One broadcast product of both diagonals
  and the ideal interface's two with the state's amplitude array gives
  both heralded branches and their fidelity targets.
* Chain extension: a PCD plus two single-spin measurements splices a fresh
  Bell pair onto an existing entangled chain.
* Purification: two noisy copies are distilled into one of higher quality
  using one PCD per party.

Distribution, the PCD and extension list their branches by one rule,
`_listed_outcomes`: each in its place, a dead one as (label, 0.0, gates,
None, None), a live one's probability times eta_in per photon pass (0.0
below the smallest normal float) and its state a row of one checked stack
(`StateVector.rows`), every outcome built once by its constructor.

Extension and purification are instruments: one fixed map per heralded branch
(parity and two measured spins), stacked per coefficient set from a node's
terms and an exact table, so an entry 0 in exact arithmetic reads 0.0.  One
routine applies either to pure states: the extension to a chain and a fresh
pair in `extend_chain`, purification to every pair of members of a chain's
mixture in the pair stage, whose heralded rows are pooled into one mixture.
Everywhere else a two-spin mixture is its 4x4 density matrix: a chain holds
each stage's, a splice applies the extension instrument as one
superoperator, T = sum_k A_k x conj(A_k), only a chain's purification round
expands the matrix into pure states, its eigenvectors, and a chain reports
its last matrix as its final state.  `purify_round`'s Bell mixture stays
diagonal in the Bell basis, so its round is one 4x4 product.

Built once per process and shared read-only (`_read_only`): the photons'
transfer table, both instruments' tables and every module constant array
(the Bell signs with their pairs over two copies, the parity rule, the
PCD's port tables, the integer gates); per coefficient set (the last 16
each): the purification stack and the Bell weight table; per correction
rule and spin labels (the last 16): distribution's outcome table, the
spins' register, each pattern's correction on the labels, every detection
label and each photon's correction as one gather and sign over its
transfer amplitudes.  Past the
first in a process, no distribution builds a map, at any coefficients; a
repeated one builds no register and no label, and reads its states off the
formed array in place when every row heralds; the parity operators, the
extension instrument and `ghz_state`, a few microseconds each, are built on
each call.

Branch probabilities are exact: imperfect cavity coefficients shrink the
pre-detection norm, and one minus the sum of all heralded probabilities is
the leak/noise (plus input-coupling) loss.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cavity import IDEAL, ScatterCoeffs
from .qstate import (
    Register,
    RegisterError,
    StateVector,
    Subsystem,
    _equal_upto_phase,
    superposition,
)
from .timebin import (
    DIRECTION,
    POL_CIRCULAR,
    TB_DECODED,
    NoiseChannel,
    _rotations,
    decode_map,
    phase_shift_map,
)

RT2 = 1.0 / math.sqrt(2.0)
_ZERO = 1e-24          # branch weights below this are numerically dead
_MERGE_TOL = 1e-10

#: structurally possible single-photon detections after the decoder routing
_PORTS = (("R", "up"), ("L", "dn"))


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only, as every array built once and shared is."""
    array.setflags(write=False)
    return array


class HeraldedOutcome(NamedTuple):
    """One detection branch of a heralded protocol, an immutable named tuple."""

    detection: str
    probability: float
    correction: tuple[tuple[str, str], ...]
    post_state: StateVector | None
    fidelity: float | None


class NoSurvivingBranchError(ValueError):
    """No heralded branch survives: the inputs or the nodes herald nothing."""


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
    """(|up...up> + sign |dn...dn>)/sqrt(2) over fresh spin subsystems; ``sign`` is +1 or -1."""
    if sign not in (1, -1):
        raise ValueError(f"GHZ sign must be +1 or -1, not {sign!r}")
    reg = spin_register(labels)
    if not reg.subsystems:
        raise ValueError("a GHZ state needs at least one spin label")
    return superposition(reg, [
        (RT2, {lab: "up" for lab in reg.labels}),
        (sign * RT2, {lab: "dn" for lab in reg.labels}),
    ])


def phi_minus(labels) -> StateVector:
    return ghz_state(labels, -1)


def phi_plus(labels) -> StateVector:
    return ghz_state(labels, +1)


#: Phi-, Phi+, Psi- and Psi+ over two spins times sqrt(2), read-only: as signs, they keep products
#: that are 0 in exact arithmetic at 0.0; `_BELL` scales Phi- (every chain stage's target) and Phi+
_BELL_SIGNS = _read_only(np.array([[1, 0, 0, -1], [1, 0, 0, 1], [0, 1, -1, 0], [0, 1, 1, 0]], dtype=complex))
_BELL = _read_only(RT2 * _BELL_SIGNS[:2])
#: the signs of the pairs B_i x B_j of two copies, i and j over Phi- and Phi+, as rows 2i + j, read-only
_BELL_PAIRS = _read_only(np.kron(_BELL_SIGNS[:2], _BELL_SIGNS[:2]))


def uniform_spins(labels) -> StateVector:
    """Equal superposition of every basis state of fresh spins."""
    n = len(labels)
    reg = spin_register(labels)
    return StateVector(reg, np.full(2 ** n, 2.0 ** (-n / 2.0), dtype=complex))


# ---------------------------------------------------------------------------
# entanglement distribution
# ---------------------------------------------------------------------------

#: (circular polarization, direction) of each port in `_PORTS`, the axes a
#: photon's transfer lists its outcomes on
_PORT_AXES = ([POL_CIRCULAR.index(pol) for pol, _ in _PORTS], [DIRECTION.index(d) for _, d in _PORTS])


@functools.cache
def _transfer_table() -> np.ndarray:
    """Each photon's path after its fiber as its node's terms (1, t, t0)
    times this read-only (2, 3, 64) table, built once per process: per phase
    setting (slice 1 with the pi plate) and term, a map from the fiber's
    (polarization, raw time bin) to (circular polarization, direction, spin,
    decoded time bin).

    It composes `decode_map` (tag up), the exact pi plate and the scattering
    of a spin in |+> by the rule ``p ^ d == s`` of `scatter.scatter_map`: a
    coupled column reflects with 1 + t and keeps t, an uncoupled one 1 + t0
    and t0.  Each entry is one product of entries 0 or +-1, times
    1/sqrt(2), so it is exactly 0 or +-1/sqrt(2).
    """
    dec = decode_map().matrix[:, [0, 1, 4, 5]]             # tag up: Hs, Hl, Vs, Vl in
    decs = np.stack((dec, np.kron(phase_shift_map(math.pi).matrix, np.eye(4)) @ dec)).reshape(2, 4, 2, 4)
    rule = np.zeros((3, 8, 8))
    for p, d, s in itertools.product((0, 1), repeat=3):
        col = 4 * p + 2 * d + s
        term = 1 if p ^ d == s else 2
        rule[0, col ^ 0b110, col] = 1.0                      # reflection flips polarization and direction
        rule[term, col ^ 0b110, col] = rule[term, col, col] = 1.0
    # on a spin in |+>, each term from (p, d) to (p, d, spin), then after the decoder's (p, d) x (t, in)
    plus = rule.reshape(3, 8, 4, 2).sum(axis=3)
    return _read_only(RT2 * np.einsum("kop,hpti->hkoti", plus, decs).reshape(2, 3, 64))


def _photon_transfers(noises, coeffs_list, phase_photon: int) -> np.ndarray:
    """Amplitudes v[i, p, d, spin, t, s] left by each photon i's path.

    The photon leaves the source with polarization s (H, V) in the early
    bin and runs encode -> fiber -> decode -> (pi phase, photon
    ``phase_photon`` only) -> quarter-wave relabel -> scatter off its spin
    in |+>, to circular polarization p, direction d and decoded time bin t:
    the node's terms (1, t, t0) times `_transfer_table`, times the fiber's
    rotation of the encoder's columns Hs -> Hs and Vs -> Hl, its first two.
    Channels and nodes were checked when built, so each enters as one array.
    """
    n = len(noises)
    terms = np.array([(1.0, cf.t, cf.t0) for cf in coeffs_list])
    table = _transfer_table()[(np.arange(n) == phase_photon).astype(np.intp)]
    paths = (terms[:, None, :] @ table).reshape(n, 16, 4)
    return (paths @ _rotations(noises)[:, :, :2]).reshape(n, 2, 2, 2, 2, 2)


@functools.lru_cache(maxsize=16)
def _pattern_corrections(correction_for, spin_labels: tuple[str, ...]):
    """The outcome table of distribution by the rule ``correction_for`` over
    the spins ``spin_labels``, built once per rule and labels for every
    distribution (the last 16 kept), each part in product order: the spins'
    `Register`; each port pattern's correction, its gates on the labels;
    the detection labels, each pattern's, then each (pattern, time bin)
    row's ``pattern:bins``, listed when the fibers split; and every photon's
    correction as a read-only pair (gather, sign) over the flat output v of
    `_photon_transfers`.  Photon i's factor of pattern k, axes (s, k, t,
    spin), is corrected to v.take(gather[i]) * sign[i], as the rule's x and z
    gates one by one do: x swaps spin i's up and dn, z negates its dn.
    """
    n = len(spin_labels)
    patterns = list(itertools.product(_PORTS, repeat=n))
    corrections = [correction_for(pattern) for pattern in patterns]
    # at j = i 2^n + k: whether photon i's gates of pattern k swap its spins, and each spin's sign
    flip, sign = [0] * (n << n), [1.0] * (2 * n << n)
    for k, gates in enumerate(corrections):
        for g, i in gates:
            j = (i << n) + k
            if g == "x":
                flip[j] ^= 1
                sign[2 * j], sign[2 * j + 1] = sign[2 * j + 1], sign[2 * j]
            else:
                sign[2 * j + 1] = -sign[2 * j + 1]
    # photon i's port in pattern k as (i, k, 1), and where each v[i, p, d, spin, t, s] lies
    port = np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)[:, None, None] & 1
    at = np.arange(32 * n).reshape(n, 2, 2, 2, 2, 2)
    gather = at[np.arange(n)[:, None, None], np.take(_PORT_AXES[0], port), np.take(_PORT_AXES[1], port),
                np.arange(2) ^ np.reshape(flip, (n, -1, 1))]
    gather = _read_only(np.ascontiguousarray(gather.transpose(0, 4, 1, 3, 2)))
    sign = _read_only(np.reshape(sign, (n, 1, -1, 1, 2)))
    labels = ["".join(p) for p in itertools.product([pol + ("↑" if d == "up" else "↓") for pol, d in _PORTS],
                                                    repeat=n)]
    bins = [":" + ",".join(b) for b in itertools.product(TB_DECODED, repeat=n)]
    gates = [tuple((g, spin_labels[i]) for g, i in c) for c in corrections]
    return spin_register(spin_labels), gates, labels + [a + b for a in labels for b in bins], gather, sign


def _distribution_amplitudes(noises, coeffs_list, phase_photon, gather, sign):
    """The corrected (port pattern, time bin, spin) amplitude array of n-photon
    distribution, built photon by photon, and its rows' squared norms.

    The source emits (|H...H> + |V...V>)/sqrt(2), and every photon runs its
    own path to its own spin, so the state before detection is
    (x_i v_i[H] + x_i v_i[V])/sqrt(2) with x the tensor product; photon
    ``phase_photon`` gets the pi phase.  Each correction, the table pair
    ``gather``, ``sign`` of `_pattern_corrections`, is applied to each
    photon's factor, and the products, from the last photon to the first,
    form the array in ``itertools.product`` order.  A row's probability is
    its squared norm; they add up to the norm left after scattering, stray
    ports included, or the array is not returned.
    """
    n = len(noises)
    v = _photon_transfers(noises, coeffs_list, phase_photon)
    # <x_i a_i, x_i b_i> = prod_i <a_i, b_i> gives the full norm, stray ports included
    flat = v.reshape(n, 16, 2)
    overlap = (flat.conj().transpose(0, 2, 1) @ flat).prod(axis=0)
    survival = 0.5 * float((overlap[0, 0] + overlap[1, 1] + 2.0 * overlap[0, 1]).real)

    # photon i's corrected factor of pattern k, f[i, s, k, t, spin], contiguous
    # so that each product below runs along whole rows
    f = v.take(gather) * sign
    amps = RT2 * f[-1]
    for fi in f[-2::-1]:        # axes (s, k, time bins, spins), photon i's bin and spin first
        span = 2 * amps.shape[2]
        amps = (fi[:, :, :, None, :, None] * amps[:, :, None, :, None, :]).reshape(2, 2 ** n, span, span)
    amps[0] += amps[1]          # the source's V term, in place
    amps = amps[0]
    parts = amps.view(np.float64)
    probs = np.einsum("kjs,kjs->kj", parts, parts)
    if abs(float(np.sum(probs)) - survival) > 1e-10:
        raise RuntimeError("port detections do not add up to the surviving norm")
    return amps, probs


def _ghz_fidelities(rows: np.ndarray, sign: int) -> np.ndarray:
    """Each C-contiguous row's fidelity to (|up...up> + sign |dn...dn>)/sqrt(2), elementwise off its end entries."""
    parts = rows.view(np.float64)
    return np.abs(rows[:, 0] * RT2 + rows[:, -1] * (sign * RT2)) ** 2 / np.einsum("ij,ij->i", parts, parts)


def _distribution_outcomes(noises, coeffs_list, phase_photon, spin_labels, correction_for, target_sign, eta_in):
    """Heralded outcomes of n-photon distribution, read off
    `_distribution_amplitudes`, with fidelities to the target
    (|up...up> + target_sign |dn...dn>)/sqrt(2).

    A pattern is listed once, or once per live time-bin outcome when some
    fiber's late bin rotates differently from its early one.  Collective
    noise factors out, so every live time-bin outcome of a pattern heralds
    the first one's state up to a phase.  A late rotation equal to the
    early one times e^{i phi} still splits, into outcomes of one state
    (fidelity (1 + cos phi)/2 at ideal nodes, `channel_mixing_weight`); a
    chain segment adds such outcomes into its 4x4 state as it adds any
    other (`_segment`).  A dead pattern keeps its place.

    The register, corrections and detection labels are read from the outcome
    table of `_pattern_corrections`, and `_listed_outcomes` lists the
    branches; when the fibers split and every row heralds, the rows are
    normalized in place in the formed array, so the stack's copy is the only one.
    """
    register, gates, names, gather, sign = _pattern_corrections(correction_for, spin_labels)
    amps, probs = _distribution_amplitudes(noises, coeffs_list, phase_photon, gather, sign)

    split = any(ch.delta_l != ch.delta or ch.eta_l != ch.eta for ch in noises)
    live = probs > _ZERO
    # a branch per pattern, at its first live row or, if none is live, its first row; split, per live row too
    branch = live.copy() if split else np.zeros_like(live)
    branch[np.arange(len(probs)), live.argmax(axis=1)] = True
    pats, tbs = branch.nonzero()
    listed = probs[pats, tbs]
    alive = listed > _ZERO
    # unsplit, a pattern's probability is a running sum of its live rows, which adds them one by one in their order
    heralded = listed if split else np.where(live, probs, 0.0).cumsum(axis=1)[:, -1]
    # split with every row heralding, each row is normalized in place, in the formed array
    posts = amps.reshape(probs.size, -1) if split and live.all() else amps[pats[alive], tbs[alive]]
    posts /= np.sqrt(listed[alive])[:, None]
    at = np.where(alive, len(probs) + pats * probs.shape[1] + tbs, pats) if split else pats
    return _listed_outcomes(map(names.__getitem__, at.tolist()), map(gates.__getitem__, pats.tolist()), heralded,
                            alive, register, posts, _ghz_fidelities(posts, target_sign).tolist(), eta_in, len(noises))


#: the spins of `distribute_bell` unless named, whose table a chain segment reads
_BELL_LABELS = ("e_a", "e_b")


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


def check_mu(mu: float) -> None:
    """Reject a Bell-mixture weight outside [0, 1]."""
    if not (0.0 <= mu <= 1.0):
        raise ValueError(f"mu = {mu} outside [0, 1]")


def check_kind(what: str, value, kind: type) -> None:
    """Reject ``value``, the argument named ``what``, unless it is a ``kind``."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a {kind.__name__}, not {type(value).__name__}")


def _check_normalized(state: StateVector, what: str) -> None:
    if abs(state.norm2 - 1.0) > 1e-9:
        raise ValueError(f"{what} must be normalized")


def coupled_probability(p: float, eta_in: float, passes: int) -> float:
    """p eta_in^passes, a probability after ``passes`` photon passes through an
    input coupler, reported as 0.0 below the smallest normal float."""
    scaled = p * eta_in ** passes
    return scaled if scaled >= sys.float_info.min else 0.0


def _listed_outcomes(names, gates, probs, live, register, rows, fids, eta_in, passes) -> list[HeraldedOutcome]:
    """Every branch of a heralded protocol in its place, built once in one pass of the constructor, from
    each branch's name, gates, probability at unit input coupling and liveness, and the live branches'
    unit rows and fidelities.  A live branch's probability is its `coupled_probability`, taken on all at
    once, and the rows are checked as one stack by `StateVector.rows`; a dead branch is (name, 0.0,
    gates, None, None)."""
    scaled = probs * eta_in ** passes
    heralded = np.where(live & (scaled >= sys.float_info.min), scaled, 0.0).tolist()
    posts, fids = list(StateVector.rows(register, rows)), list(fids)
    for k in (~live).nonzero()[0].tolist():      # each dead branch's None in its place, in order
        posts.insert(k, None)
        fids.insert(k, None)
    return list(map(HeraldedOutcome, names, heralded, gates, posts, fids))


def distribute_bell(
    noise_a: NoiseChannel,
    noise_b: NoiseChannel,
    coeffs_a: ScatterCoeffs,
    coeffs_b: ScatterCoeffs,
    eta_in: float = 1.0,
    spin_labels=_BELL_LABELS,
) -> list[HeraldedOutcome]:
    """Distribute one Bell pair between two nodes; herald on both photons.

    Even detection patterns need no correction; odd patterns record a spin
    flip on the second node.  The declared target is
    (|up,up> - |dn,dn>)/sqrt(2).
    """
    check_eta_in(eta_in)
    for what, value, kind in (("noise_a", noise_a, NoiseChannel), ("noise_b", noise_b, NoiseChannel),
                              ("coeffs_a", coeffs_a, ScatterCoeffs), ("coeffs_b", coeffs_b, ScatterCoeffs)):
        check_kind(what, value, kind)
    spin_labels = tuple(spin_labels)
    if len(spin_labels) != 2:
        raise ValueError(f"Bell distribution needs exactly two spin labels, not {list(spin_labels)}")
    return _distribution_outcomes((noise_a, noise_b), (coeffs_a, coeffs_b), 1, spin_labels, _bell_correction,
                                  -1, eta_in)


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
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"GHZ distribution needs a whole number of parties, not {n!r}")
    if n < 2:
        raise ValueError("GHZ distribution needs at least two parties")
    check_eta_in(eta_in)
    noise = list(noise)
    coeffs = list(coeffs)
    if len(noise) != n or len(coeffs) != n:
        raise ValueError("need one noise channel and one coefficient set per photon")
    for i, (ch, cf) in enumerate(zip(noise, coeffs)):
        check_kind(f"noise[{i}]", ch, NoiseChannel)
        check_kind(f"coeffs[{i}]", cf, ScatterCoeffs)
    labels = tuple(f"e_{chr(ord('a') + i)}" for i in range(n))
    return _distribution_outcomes(noise, coeffs, 0, labels, _ghz_correction, 1, eta_in)


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


def _normalized_ensemble(weights, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mixture of unit amplitude rows ``rows`` of weights ``weights``, as
    (weights that sum to 1, rows).

    A row equal up to a global phase to an earlier distinct row is the same
    pure state, and its weight joins the first such row.  Only rows whose
    keys, their sums of entry magnitudes, lie close together are compared:
    a match moves no entry's magnitude by more than atol + 1e-5 |entry|, so
    matching keys differ by at most dim * atol + 1e-5 * key, and the window
    is twice that.  The rows then join their distinct rows in arrival order,
    so the weights add up in that order.  If more distinct rows than their
    dimension d remain, the mixture is rebuilt from the eigenbasis of its
    density matrix, which holds any d-dimensional mixture exactly in d pure
    components.  Exact sums keep the total at 1.
    """
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
    weights = list(weights)
    free = [True] * n               # whether a row is still a distinct row
    for i, j in zip(later[hit].tolist(), earlier[hit].tolist()):
        if free[i] and free[j]:
            free[i] = False
            weights[j] += weights[i]
    keep = [i for i, f in enumerate(free) if f]
    weights, rows = [weights[i] for i in keep], rows[keep]
    total = math.fsum(weights)

    if len(keep) > dim:
        scale = np.array([w / total for w in weights])[:, None, None]
        # (w / total) * outer, added one at a time from zero as a running sum adds them
        return _eigen_ensemble(np.add.reduce(scale * (rows[:, :, None] * rows.conj()[:, None, :]),
                                             axis=0, initial=0.0))
    return _scaled_ensemble(weights, rows, total)


def _eigen_ensemble(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mixture held by the density matrix ``rho``: its eigenvectors of
    eigenvalue above the dead-branch weight, dominant first, as (weights, rows)."""
    eigvals, eigvecs = np.linalg.eigh(rho)
    keep = [i for i, lam in enumerate(eigvals) if lam > _ZERO][::-1]
    weights = [float(eigvals[i]) for i in keep]
    return _scaled_ensemble(weights, eigvecs.T[keep], math.fsum(weights))


def _scaled_ensemble(weights, rows: np.ndarray, total: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights scaled to sum to 1, twice by exact sums, and their rows."""
    scaled = [w / total for w in weights]
    residual = math.fsum(scaled)
    return np.array([w / residual for w in scaled]), rows


# ---------------------------------------------------------------------------
# parity-check detection
# ---------------------------------------------------------------------------

def _node_terms(coeffs: ScatterCoeffs) -> np.ndarray:
    """A node's u = r + t and v = r0 + t0, the probe's factor in an arm whose spin is up (dn)."""
    return np.array([coeffs.r + coeffs.t, coeffs.r0 + coeffs.t0])


#: the coefficients of u (row 0) and v (row 1) in the even, then the odd diagonal of `_parity_operators`
_PARITY_RULE = _read_only(np.array([[1, 0.5, 0.5, 0, 0, 0.5, -0.5, 0], [0, 0.5, 0.5, 1, 0, -0.5, 0.5, 0]],
                                    dtype=complex))


def _parity_operators(coeffs: ScatterCoeffs) -> np.ndarray:
    """The probe optics of a PCD as one diagonal operator per parity.

    The probe never flips a spin: an arm whose spin is up (dn) multiplies
    the probe by u (v) of `_node_terms`, and the output combiner turns the
    two arms into their half sum (even) or half difference (odd).  On
    (spin1, spin2) that gives u diag(1, 1/2, 1/2, 0) + v diag(0, 1/2, 1/2, 1)
    for even and (u - v) diag(0, 1/2, -1/2, 0) for odd, `_PARITY_RULE` on
    (u, v), the two rows of the returned (2, 4) array.

    The operators cannot grow a norm.  `ScatterCoeffs` keeps
    |1 + t|^2 + |t|^2 <= 1, and as (1 + t) - t = 1 the parallelogram law
    gives |u|^2 = |1 + 2t|^2 = 2(|1 + t|^2 + |t|^2) - 1 <= 1; so too
    |v| <= 1.  Every entry then has modulus at most 1, and each
    |even_k|^2 + |odd_k|^2 is |u|^2, |v|^2 or (|u|^2 + |v|^2)/2, at most 1
    (each within twice the constructor's slack of 1e-12).
    """
    return (_node_terms(coeffs) @ _PARITY_RULE).reshape(2, 4)


#: the detector ports in output order and each one's parity, read-only: an R click
#: heralds the even parity (row 0 of `_parity_operators`), an L click the odd one (row 1)
_PCD_PORTS = ("R_a1", "R_a2", "L_a1", "L_a2")
_PCD_PARITY = _read_only(np.array([0, 0, 1, 1]))
#: the sign each port gives the heralded amplitudes, read-only
_PCD_SIGN = _read_only(np.array([1.0, 1.0, 1.0, -1.0]))


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
    branch for the same input spins, or is None where that branch is dead.

    Both parities and both ideal-interface branches come from one broadcast
    product of the four diagonals with the state's amplitude array.
    """
    check_eta_in(eta_in)
    check_kind("coeffs", coeffs, ScatterCoeffs)
    reg = state.register
    for lab in (spin1, spin2):
        if not reg.has(lab):
            raise RegisterError(f"no spin labeled {lab!r} in the input state")
    _check_normalized(state, "PCD input state")
    if spin1 == spin2:
        raise RegisterError(f"duplicate targets {[spin1, spin2]}")
    pos = [reg.position(lab) for lab in (spin1, spin2)]
    dt = reg.dims[pos[0]] * reg.dims[pos[1]]
    if dt != 4:
        raise RegisterError(f"map dimension 4 does not match target dimension {dt}")

    # rows: the node's even and odd branches, then the ideal interface's, each
    # diagonal laid on the two spins' axes (in register order) of the state
    diags = np.concatenate((_parity_operators(coeffs), _parity_operators(IDEAL))).reshape(4, 2, 2)
    if pos[0] > pos[1]:
        diags = diags.transpose(0, 2, 1)
    shape = (4,) + tuple(2 if a in pos else 1 for a in range(len(reg.dims)))
    rows = (diags.reshape(shape) * state.tensor_axes()).reshape(4, -1)
    parts = rows.view(np.float64)
    norm2 = np.einsum("ij,ij->i", parts, parts)
    # |<ideal branch, branch>|^2 per parity, the fidelity's numerator
    overlaps = np.abs(np.einsum("ij,ij->i", rows[2:].conj(), rows[:2])) ** 2

    # both ports of a parity carry K/sqrt(2), so each heralds half of the
    # probability and the same state, or is dead with its parity
    probs = norm2[_PCD_PARITY] / 2.0
    live = probs > _ZERO
    parity = _PCD_PARITY[live]
    posts = _PCD_SIGN[live, None] * (rows[parity] / np.sqrt(norm2[parity])[:, None])
    fids = [o / (ideal * p) if ideal > _ZERO else None
            for o, ideal, p in zip(overlaps[parity].tolist(), norm2[2 + parity].tolist(), norm2[parity].tolist())]
    return _listed_outcomes(_PCD_PORTS, [()] * 4, probs, live, reg, posts, fids, eta_in, 1)


# ---------------------------------------------------------------------------
# chain extension and purification as instruments
# ---------------------------------------------------------------------------

#: the heralded branches of one parity check followed by the measurement of
#: two spins, as (parity, m1, m2): even before odd, outcomes in product order,
#: so branch i takes row i // 4 of `_parity_operators` and ends in <m1 m2| = row i % 4
_BRANCHES = tuple((parity, m1, m2) for parity in ("even", "odd")
                  for m1, m2 in itertools.product(("up", "dn"), repeat=2))
#: x, z and sqrt(2) H as integer matrices, read-only
_GATES = {g: _read_only(np.array(m)) for g, m in zip("xzh", ([[0, 1], [1, 0]], [[1, 0], [0, -1]], [[1, 1], [1, -1]]))}


def _gate_product(names) -> np.ndarray:
    """The integer single-spin gates ``names`` (h is sqrt(2) H), applied in order, as one 2x2 matrix."""
    return functools.reduce(lambda m, g: _GATES[g] @ m, names, np.eye(2, dtype=int))


def _extension_gates(parity, m1, m2, label_d):
    """Recorded correction on d: a flip after odd parity, a phase flip after unequal outcomes."""
    return ((("x", label_d),) if parity == "odd" else ()) + ((("z", label_d),) if m1 != m2 else ())


@functools.cache
def _instrument_tables() -> tuple[np.ndarray, np.ndarray]:
    """Both instruments' coefficients, read-only, built once per process from `_PARITY_RULE` and the
    integer gates with one power-of-two scale: each is 0 or a power of two, so its product with a term
    is exact.  Extension's (2, 128) table is u's and v's in (h x h)[i % 4, j] K_parity[j] G_i[o, d] / 2,
    G_i branch i's correction on d; purification's (2, 2, 512) one is u_a u_b's, u_a d_b's, d_a u_b's and
    d_a d_b's (d = u - v, an odd check's only term) in A_i diag(K_a x K_b) h^{x4} / 16, A_i its gates."""
    h = _GATES["h"]
    rule = _PARITY_RULE.real.reshape(2, 2, 2, 2)          # (u or v, parity, spin1, spin2)
    rule_ud = np.stack((rule[0] + rule[1], -rule[1]))    # u K_u + v K_v = u (K_u + K_v) - d K_v
    ext, pur = np.empty((2, len(_BRANCHES), 2, 4, 2)), np.empty((2, 2, len(_BRANCHES), 4, 16))
    for i, (parity, m1, m2) in enumerate(_BRANCHES):
        gate = _gate_product(g for g, _ in _extension_gates(parity, m1, m2, None))
        ext[:, i] = np.kron(h, h)[i % 4, :, None] * gate[:, None, :] * rule[:, i // 4].reshape(2, 1, 4, 1) / 2
        pre = _gate_product(("x", "h") if parity == "odd" else ("h",))
        after = np.kron(np.kron(pre, pre)[i % 4], np.kron(_gate_product(("z", "h") if m1 != m2 else ("h",)), h))
        check = np.einsum("kac,lbd->klabcd", rule_ud[:, i // 4], rule_ud[:, i // 4]).reshape(2, 2, 16, 1)
        pur[:, :, i] = after @ (check * functools.reduce(np.kron, [h] * 4)) / 16
    return _read_only(ext.reshape(2, -1).astype(complex)), _read_only(pur.reshape(2, 2, -1).astype(complex))


def _extension_maps(coeffs: ScatterCoeffs) -> np.ndarray:
    """The extension instrument: one 2x8 map from (z, z', d) to d per branch
    of `_BRANCHES`, as an (8, 2, 8) stack.

    Each is G_d <m1 m2|(H x H) K_parity: the parity check of z and z', their
    Hadamard rotation and measurement, and the recorded correction on the
    fresh end spin d.  The input coupling is left to the caller.
    The stack is (u, v) times the extension table of `_instrument_tables`.
    """
    return (_node_terms(coeffs) @ _instrument_tables()[0]).reshape(8, 2, 8)


@functools.lru_cache(maxsize=16)
def _purification_maps(coeffs_a: ScatterCoeffs, coeffs_b: ScatterCoeffs) -> np.ndarray:
    """The purification instrument: one 4x16 map from two copies (a, b, a', b') to (a', b') per
    branch of `_BRANCHES`, as a read-only (8, 4, 16) stack cached for every round at the same nodes.

    All four spins are Hadamard-rotated so the phase error becomes a bit
    error, checked by one PCD per party, (a, a') with ``coeffs_a`` and
    (b, b') with ``coeffs_b``; equal parities are kept (odd-odd after a
    recorded flip of a and b), a and b are measured in the Hadamard basis,
    unequal outcomes record a phase flip on a', and a', b' are rotated back.
    One probe photon per party, so the caller scales by eta_in squared.
    The stack is the purification table of `_instrument_tables` times b's (u, d), each product exact,
    then a's, elementwise: an entry 0 in exact arithmetic adds equal products of opposite sign.
    """
    (u_a, v_a), (u_b, v_b) = _node_terms(coeffs_a), _node_terms(coeffs_b)
    by_b = np.array([u_b, u_b - v_b]) @ _instrument_tables()[1]
    return _read_only((u_a * by_b[0] + (u_a - v_a) * by_b[1]).reshape(8, 4, 16))


@functools.lru_cache(maxsize=16)
def _bell_weights(coeffs: ScatterCoeffs) -> np.ndarray:
    """The purification round's Bell weight table at ``coeffs`` on both parties, a read-only
    (4, 4) real array cached for every `purify_round` at the same coefficients:
    W[m, 2i + j] = 8 sum_k |<B_m|A_k|B_i B_j>|^2 over the branch maps A_k of
    `_purification_maps`, m over Phi-, Phi+, Psi-, Psi+ and i, j over Phi- and Phi+.  With the parties'
    (u, d) shared, u d and d u are one term, so <Psi-|A_k|Phi- Phi-> (0 here) keeps no coefficient."""
    u, v = _node_terms(coeffs)
    (uu, ud), (du, dd) = _BELL_SIGNS.real @ _instrument_tables()[1].real.reshape(2, 2, 8, 4, 16) @ _BELL_PAIRS.real.T
    amps = u * u * uu + u * (u - v) * (ud + du) + (u - v) * (u - v) * dd
    return _read_only((abs(amps) ** 2).sum(axis=0))


def _apply_instrument(w_a, a, w_b, b, maps):
    """Each pair of weighted rows of ``a`` and ``b`` through each map of the
    (branch, out, in) stack ``maps``, which meets the pair's np.kron on its
    trailing amplitudes; the leading ones are spectators.  Returns the
    weights w_a w_b p pair by pair, branch by branch, whether each is above
    the dead-branch weight, and the live rows normalized.
    """
    # the np.kron of each pair, its products unchanged, as row i * len(b) + j
    psi = (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), 1, -1, maps.shape[2])
    # each (pair, map) slice is the same matrix product as one pair's own
    out = (psi @ maps.transpose(0, 2, 1)).reshape(len(a) * len(b) * len(maps), -1)
    # np.vdot per row: a vectorised norm sums in another order
    p = np.array([np.vdot(row, row).real for row in out])
    w = np.repeat((w_a[:, None] * w_b[None, :]).reshape(-1), len(maps)) * p
    live = w > _ZERO
    return w, live, out[live] / np.sqrt(p[live])[:, None]


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
    correction on the fresh end spin.  Each post state is over the rest of
    the chain in its order, then d.  `_apply_instrument` runs the branches
    of `_extension_maps`, and `_ghz_fidelities` reads the live states, as
    distribution reads its own.
    """
    check_eta_in(eta_in)
    check_kind("coeffs", coeffs, ScatterCoeffs)
    _check_normalized(ghz, "the chain state")
    _check_normalized(bell, "the fresh pair")
    label_z, label_zp = joint_node
    if not ghz.register.has(label_z):
        raise RegisterError(f"label {label_z!r} not in the chain state")
    if not bell.register.has(label_zp):
        raise RegisterError(f"label {label_zp!r} not in the fresh pair")
    others = [lab for lab in bell.register.labels if lab != label_zp]
    if len(others) != 1:
        raise ValueError("the fresh pair must hold exactly two spins")
    label_d = others[0]
    joint = ghz.register.join(bell.register)
    for s in joint.subsystems:
        if s.dim != 2:
            raise RegisterError(f"extension needs two-level spins; {s.label!r} has {s.dim} levels")

    reg = joint.without((label_z, label_zp))
    # (rest of the chain, z) times (z', d): the maps meet (z, z', d) and leave d last
    chain = np.moveaxis(ghz.tensor_axes(), ghz.register.position(label_z), -1).reshape(1, -1)
    pair = np.moveaxis(bell.tensor_axes(), bell.register.position(label_zp), 0).reshape(1, -1)
    w, live, rows = _apply_instrument(np.ones(1), chain, np.ones(1), pair, _extension_maps(coeffs))
    return _listed_outcomes([f"{parity}:{m1},{m2}" for parity, m1, m2 in _BRANCHES],
                            [_extension_gates(*branch, label_d) for branch in _BRANCHES], w, live, reg, rows,
                            _ghz_fidelities(rows, -1).tolist(), eta_in, 1)


def _pair_stage(weights: np.ndarray, rows: np.ndarray, maps):
    """Every pair of members of one two-spin mixture, two copies of the unit
    rows ``rows`` of weights ``weights``, through the purification instrument ``maps``.

    The one step that pools pure states, the eigenvectors of a chain
    segment's 4x4 matrix; `purify_round` does not use it.  Returns the heralded
    mixture as `_normalized_ensemble` pools it, from rows listed pair by pair,
    branch by branch, and its success probability at unit input coupling.
    """
    w, live, out = _apply_instrument(weights, rows, weights, rows, maps)
    if not live.any():
        raise NoSurvivingBranchError("purification heralded no surviving branches")
    kept = w[live].tolist()
    return _normalized_ensemble(kept, out), math.fsum(kept)


def _segment(noise_a: NoiseChannel, noise_b: NoiseChannel, coeffs_a: ScatterCoeffs,
             coeffs_b: ScatterCoeffs) -> tuple[np.ndarray, float]:
    """A segment's 4x4 state and its heralding probability at unit input coupling.

    The live rows of Bell distribution's corrected amplitude array, those whose
    squared norm p_i is above the dead-branch weight, are the segment's
    heralded outcomes unnormalized, so rho = sum_i |row_i><row_i| / sum_i p_i;
    no outcome list is built.  `distribute_bell` lists the same rows.
    """
    *_, gather, sign = _pattern_corrections(_bell_correction, _BELL_LABELS)
    amps, probs = _distribution_amplitudes((noise_a, noise_b), (coeffs_a, coeffs_b), 1, gather, sign)
    live = probs > _ZERO
    if not live.any():
        raise NoSurvivingBranchError("no surviving branches")
    rows = amps[live]
    total = math.fsum(probs[live].tolist())
    return rows.T @ rows.conj() / total, total


def _purify(rho: np.ndarray, maps) -> tuple[np.ndarray, float]:
    """One purification round on two copies of the 4x4 state ``rho``: the pair stage on its
    eigenvectors, as the heralded matrix and its probability at unit input coupling."""
    (w, rows), p = _pair_stage(*_eigen_ensemble(rho), maps)
    return (w[:, None] * rows).T @ rows.conj(), p


def _splice(rho_chain: np.ndarray, rho_seg: np.ndarray, maps) -> tuple[np.ndarray, float]:
    """A chain's 4x4 state over (left end, z) spliced to a segment's over (z', d)
    through the extension instrument ``maps``, as one superoperator step.

    T[o, p, i, j] = sum_k A_k[o, i] conj(A_k[p, j]) folds the eight branch
    maps on (z, z', d) into one; the chain's left end (s, t) is a spectator.
    Returns the normalized state over (left end, d) and its probability,
    the trace, at unit input coupling.
    """
    t = np.einsum("koi,kpj->opij", maps, maps.conj())
    # np.kron(rho_chain, rho_seg), its products unchanged, as (s, i, t, j)
    x = (rho_chain[:, None, :, None] * rho_seg[None, :, None, :]).reshape(2, 8, 2, 8)
    out = np.einsum("opij,sitj->sotp", t, x).reshape(4, 4)
    p = float(out.trace().real)
    if not p > _ZERO:
        raise NoSurvivingBranchError("extension heralded no surviving branches")
    return out / p, p


def purify_round(mu: float, coeffs: ScatterCoeffs = IDEAL) -> tuple[PurificationState, float]:
    """One purification round on two copies of the (mu, 1-mu) Bell mixture.

    The mixture is diagonal in the Bell basis B, so Bell state m keeps weight
    sum_k sum_ij w_i w_j |<B_m|A_k|B_i B_j>|^2 over the branch maps A_k of
    `_purification_maps`, with ``coeffs`` at both parties: one 4x4 product of
    the Bell weight table `_bell_weights`, cached per coefficient set (the
    last 16), with the pair weights w_i w_j.  The sign table gives each
    amplitude times 2 sqrt(2), hence the exact division by 8; every
    term is nonnegative, so small weights keep their relative accuracy.  At
    ideal coefficients it follows
    mu -> mu^2/(mu^2 + (1-mu)^2) with success probability mu^2 + (1-mu)^2.
    """
    check_mu(mu)
    check_kind("coeffs", coeffs, ScatterCoeffs)
    w = np.array([mu, 1.0 - mu])
    out = (_bell_weights(coeffs) @ (w[:, None] * w).ravel() / 8.0).tolist()
    success = math.fsum(out)
    if not success > _ZERO:
        raise NoSurvivingBranchError("purification heralded no surviving branches")
    return PurificationState(mu=out[0] / success, round=1, success_probability=success), 1.0 - success


def purify_analytic(mu: float, rounds: int) -> list[PurificationState]:
    """Iterate mu -> mu^2/(mu^2 + (1-mu)^2); one entry per round."""
    check_mu(mu)
    if not isinstance(rounds, numbers.Integral):
        raise ValueError(f"rounds must be a whole number, not {rounds!r}")
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
        check_kind("nodes", self.nodes, Mapping)
        for name, coeffs in self.nodes.items():
            check_kind(f"node {name!r}", coeffs, ScatterCoeffs)
        for i, seg in enumerate(self.segments):
            check_kind(f"segments[{i}]", seg, SegmentSpec)
            check_kind(f"segment {seg.name}: noise_left", seg.noise_left, NoiseChannel)
            check_kind(f"segment {seg.name}: noise_right", seg.noise_right, NoiseChannel)
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
        if not isinstance(self.purify_rounds, numbers.Integral):
            raise ValueError(f"purify_rounds must be a whole number, not {self.purify_rounds!r}")
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
    final_state: np.ndarray


def run_chain(scenario: ChainScenario) -> ChainReport:
    """Distribute every segment, purify, then extend left to right.

    Every stage maps a two-spin mixture's normalized 4x4 density matrix: a
    segment starts at the matrix of the live rows of Bell distribution's
    corrected amplitude array, with no outcome list (`_segment`), a
    purification round pools the pair stage's rows on the matrix's
    eigenvectors (`_purify`), and a splice is one superoperator step
    (`_splice`).  Stage fidelities are <Phi-|rho|Phi->; the final
    state is the last matrix, read-only.

    Each splice's recorded correction acts on the fresh end spin before the
    next splice's parity check.  At ideal nodes every splice order gives the
    same state; at practical nodes it does not, by up to about 1e-2 in the
    final fidelity of random three-segment chains.

    Each stage runs at unit input coupling; its probability, conditional on
    all earlier stages, then gains eta_in per photon pass through an input
    coupler (two per distribution or purification round, one per extension)
    and is reported as 0.0 below the smallest normal float.  A stage that
    heralds nothing raises `NoSurvivingBranchError` naming it and its label.
    """
    scenario.validate()
    eta_in = scenario.eta_in
    stages: list[StageResult] = []
    logs: list[float] = []

    def stage(kind, label, passes, run, *args):
        """Run one stage, ``run(*args)`` giving (normalized 4x4 state, probability), and record it."""
        try:
            rho, p = run(*args)
        except NoSurvivingBranchError as e:
            raise NoSurvivingBranchError(f"{kind} {label}: {e}") from None
        f = float(np.vdot(_BELL[0], rho @ _BELL[0]).real)
        stages.append(StageResult(kind, label, coupled_probability(p, eta_in, passes), f))
        logs.append(math.log10(p) + passes * math.log10(eta_in))
        return rho

    segments = []
    for i, seg in enumerate(scenario.segments):
        labels = (f"e{i}_{seg.left}", f"e{i}_{seg.right}")
        rho = stage("distribute", seg.name, 2, _segment, seg.noise_left, seg.noise_right,
                    scenario.nodes[seg.left], scenario.nodes[seg.right])
        for r in range(scenario.purify_rounds):
            maps = _purification_maps(scenario.nodes[seg.left], scenario.nodes[seg.right])
            rho = stage("purify", f"{seg.name} round {r + 1}", 2, _purify, rho, maps)
        segments.append((rho, labels))

    rho, (left_end, right_end) = segments[0]
    for seg, (rho_b, (_, right_end)) in zip(scenario.segments[1:], segments[1:]):
        # the chain's left end is a spectator of the splice at seg.left
        rho = stage("extend", f"at {seg.left}", 1, _splice, rho, rho_b, _extension_maps(scenario.nodes[seg.left]))
    rho.setflags(write=False)

    total_p = math.prod(st.probability for st in stages)
    return ChainReport(
        stages=tuple(stages),
        end_labels=(left_end, right_end),
        final_fidelity=stages[-1].fidelity,
        total_probability=total_p if total_p >= sys.float_info.min else 0.0,
        log10_total_probability=math.fsum(logs),
        final_state=rho,
    )
