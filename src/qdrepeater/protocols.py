"""Heralded entanglement protocols over spin-cavity nodes.

Four protocols are implemented by exact state-vector evolution:

* Bell / GHZ entanglement distribution: photons from a central source are
  time-bin encoded, sent through noisy fibers, decoded, scattered off one
  spin per node and detected.  Every two-photon (n-photon) detection pattern
  heralds a spin state; a fixed single-spin correction, given by a rule per
  pattern, turns each pattern into the same target state.  Each photon's
  path is compiled into a small transfer array from cached pieces of the
  dense time-bin pipeline's matrices.  Corrections act photon by photon,
  so the products of the corrected factors form the (pattern, time bin,
  spin) amplitude array already corrected.  Probabilities (the rows'
  squared norms), states and fidelities are read off it in whole-array
  steps, the listed states are checked as one stack (`StateVector.rows`)
  and the outcomes built in one pass.  A chain segment forms its 4x4 state
  from the array's live rows and builds no outcome.  The tests' oracle,
  `distribution_branches`, builds the array uncorrected.
* Parity-check detection (PCD): a single probe photon is split over two
  local cavities, recombined and detected; the detected polarization heralds
  the even or odd parity subspace of the two spins without measuring them.
  The probe never flips a spin, so its optics act on the two spins as one
  diagonal operator per parity.  One broadcast product of both diagonals
  and the ideal interface's two with the state's amplitude array gives
  both heralded branches and their fidelity targets; the live ports'
  states are checked as one stack.
* Chain extension: a PCD plus two single-spin measurements splices a fresh
  Bell pair onto an existing entangled chain.
* Purification: two noisy copies are distilled into one of higher quality
  using one PCD per party.

Extension and purification are instruments: one fixed map per heralded branch
(parity and two measured spins), stacked per coefficient set.  One routine
applies either to pure states: the extension to a chain and a fresh pair in
`extend_chain`, purification to every pair of members of one mixture in the
pair stage, whose heralded rows are pooled into one mixture, held there as a
weight vector and a stack of unit rows.  Everywhere else a two-spin mixture
is its 4x4 density matrix: a chain holds each stage's, a splice applies the
extension instrument as one superoperator, T = sum_k A_k x conj(A_k), only a
purification round expands the matrix into pure states, its eigenvectors,
and a chain reports its last matrix as its final state.

What is built from checked inputs and reused often enough to pay for its cache
is built once and shared read-only: per process, a photon's path ends (as
`timebin`'s encoder and decoder maps), both instruments' coefficient-free
tables and the Bell rows every chain stage and `purify_round` read; per
coefficient set (the last 16 each), `scatter_map`'s scattering of a spin in
|+> and the purification instrument; per rule and n, the pattern
corrections.  A repeated distribution builds no map; the parity operators,
the extension instrument and `ghz_state`, a few microseconds each, are built
on each call.

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
from dataclasses import dataclass, field, replace

import numpy as np

from .cavity import IDEAL, ScatterCoeffs
from .qstate import (
    Register,
    RegisterError,
    StateVector,
    Subsystem,
    _equal_upto_phase,
    fidelity,
    hadamard,
    sigma_x,
    sigma_z,
    superposition,
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
    """(|up...up> + sign |dn...dn>)/sqrt(2) over fresh spin subsystems."""
    reg = spin_register(labels)
    return superposition(reg, [
        (RT2, {lab: "up" for lab in reg.labels}),
        (sign * RT2, {lab: "dn" for lab in reg.labels}),
    ])


def phi_minus(labels) -> StateVector:
    return ghz_state(labels, -1)


def phi_plus(labels) -> StateVector:
    return ghz_state(labels, +1)


#: Phi- and Phi+ over two spins, the rows of one read-only array: every chain
#: stage's target (row 0) and the eigenbasis of `purify_round`'s mixture
_BELL = np.array([[RT2, 0.0, 0.0, -RT2], [RT2, 0.0, 0.0, RT2]], dtype=complex)
_BELL.setflags(write=False)


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
def _path_ends() -> tuple[np.ndarray, np.ndarray]:
    """The source columns of the decoder and the encoder around a fiber,
    read-only, for every photon of every distribution: decoders (2, 8, 4) from the fiber's
    Hs, Hl, Vs, Vl to the (polarization, direction, decoded time bin) output, tag up, the
    second with the pi phase plate; the encoder (4, 2) from the source's H and V."""
    dec = decode_map().matrix[:, [0, 1, 4, 5]]
    decs = np.stack((dec, np.kron(phase_shift_map(math.pi).matrix, np.eye(4)) @ dec))
    enc = encode_map().matrix[:, [0, 2]]
    for end in (decs, enc):
        end.setflags(write=False)
    return decs, enc


@functools.lru_cache(maxsize=16)
def _plus_scatter(coeffs: ScatterCoeffs) -> np.ndarray:
    """`scatter_map` on a spin in |+>: a read-only (8, 4) array from the
    photon's (polarization, direction) to (polarization, direction, spin),
    cached per coefficient set, as every photon of a distribution meets one."""
    m = scatter_map(coeffs).matrix.reshape(8, 4, 2) @ np.array([RT2, RT2])
    m.setflags(write=False)
    return m


def _photon_transfers(noises, coeffs_list, phase_photon: int) -> np.ndarray:
    """Amplitudes v[i, p, d, spin, t, s] left by each photon i's path.

    The photon leaves the source with polarization s (H, V) in the early
    bin and runs encode -> fiber -> decode -> (pi phase, photon
    ``phase_photon`` only) -> quarter-wave relabel -> scatter off its spin
    in |+>, to circular polarization p, direction d and decoded time bin t.
    The channels were checked when built, so each enters as its matrix.
    """
    decs, enc = _path_ends()
    n = len(noises)
    phased = (np.arange(n) == phase_photon).astype(np.intp)
    paths = decs[phased] @ np.stack([ch.matrix() for ch in noises]) @ enc
    plus = np.stack([_plus_scatter(cf) for cf in coeffs_list])
    return (plus @ paths.reshape(n, 4, 4)).reshape(n, 2, 2, 2, 2, 2)     # paths as (p, d) x (t, s)


@functools.cache
def _pattern_corrections(correction_for, n: int):
    """Pattern labels, time-bin names and pattern corrections in product
    order, once per rule and n for every distribution, with each correction photon by photon:
    photon i's factor of pattern k, rows (port, spin), is corrected to
    sign[i, k, b] * factor[index[i, k, b]] for spin b, as the x and z gates
    one by one do.  Both are built as nested lists and kept as read-only arrays."""
    patterns = list(itertools.product(_PORTS, repeat=n))
    corrections = [correction_for(pattern) for pattern in patterns]
    index = [[[2 * _PORTS.index(p[i]), 2 * _PORTS.index(p[i]) + 1] for p in patterns] for i in range(n)]
    sign = [[[1.0, 1.0] for _ in patterns] for _ in range(n)]
    for k, gates in enumerate(corrections):
        for g, i in gates:      # x swaps spin i's up and dn, z negates its dn
            if g == "x":
                index[i][k], sign[i][k] = index[i][k][::-1], sign[i][k][::-1]
            else:
                sign[i][k][1] *= -1.0
    index, sign = np.array(index, dtype=np.intp), np.array(sign)
    for table in (index, sign):
        table.setflags(write=False)
    labels = ["".join(pol + ("↑" if d == "up" else "↓") for pol, d in pattern) for pattern in patterns]
    tb_names = [",".join(bins) for bins in itertools.product(TB_DECODED, repeat=n)]
    return labels, tb_names, corrections, index, sign


def _distribution_amplitudes(noises, coeffs_list, phase_photon, correction_for):
    """The corrected (port pattern, time bin, spin) amplitude array of n-photon
    distribution, built photon by photon, and its rows' squared norms.

    The source emits (|H...H> + |V...V>)/sqrt(2), and every photon runs its
    own path to its own spin, so the state before detection is
    (x_i v_i[H] + x_i v_i[V])/sqrt(2) with x the tensor product; photon
    ``phase_photon`` gets the pi phase.  Each correction is applied to each
    photon's factor, and the products, from the last photon to the first,
    form the array in ``itertools.product`` order.  A row's probability is
    its squared norm; they add up to the norm left after scattering, stray
    ports included, or the array is not returned.
    """
    n = len(noises)
    *_, index, sign = _pattern_corrections(correction_for, n)
    v = _photon_transfers(noises, coeffs_list, phase_photon)
    # <x_i a_i, x_i b_i> = prod_i <a_i, b_i> gives the full norm, stray ports included
    flat = v.reshape(n, 16, 2)
    overlap = (flat.conj().transpose(0, 2, 1) @ flat).prod(axis=0)
    survival = 0.5 * float((overlap[0, 0] + overlap[1, 1] + 2.0 * overlap[0, 1]).real)

    # photon i's corrected factor of pattern k, f[i, s, k, t, spin], contiguous
    # so that each product below runs along whole rows
    ports = v[:, _PORT_AXES[0], _PORT_AXES[1]].transpose(0, 1, 2, 4, 3).reshape(n, 4, 2, 2)
    f = np.ascontiguousarray((ports[np.arange(n)[:, None, None], index] * sign[..., None, None])
                             .transpose(0, 3, 1, 4, 2))
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
    other (`_segment`).  The listed states are checked as one stack, each a
    view of its row, and a dead pattern keeps its place.
    """
    n = len(spin_labels)
    labels, tb_names, corrections, _, _ = _pattern_corrections(correction_for, n)
    amps, probs = _distribution_amplitudes(noises, coeffs_list, phase_photon, correction_for)

    split = any(ch.delta_l != ch.delta or ch.eta_l != ch.eta for ch in noises)
    live = probs > _ZERO
    # unsplit, a pattern lists its first live time-bin outcome with a running
    # sum of the live probabilities, which adds them one by one in their order
    heralds = live.any(axis=1)
    pats, tbs = np.nonzero(live) if split else (np.flatnonzero(heralds), live.argmax(axis=1)[heralds])
    heralded = probs[pats, tbs] if split else np.where(live, probs, 0.0).cumsum(axis=1)[pats, -1]
    posts = amps[pats, tbs]
    posts /= np.sqrt(probs[pats, tbs])[:, None]
    # the target's two nonzero entries, elementwise as a stacked product starts BLAS threads
    overlaps = posts[:, 0] * RT2 + posts[:, -1] * (target_sign * RT2)
    parts = posts.view(np.float64)
    fids = np.abs(overlaps) ** 2 / np.einsum("ij,ij->i", parts, parts)
    scaled = heralded * eta_in ** n      # `coupled_probability`, on every outcome at once
    heralded = np.where(scaled >= sys.float_info.min, scaled, 0.0)

    gates = [tuple((g, spin_labels[i]) for g, i in gates_idx) for gates_idx in corrections]
    states = StateVector.rows(spin_register(spin_labels), posts)
    new = object.__new__
    outcomes = []
    for k, j, p, state, fid in zip(pats.tolist(), tbs.tolist(), heralded.tolist(), states, fids.tolist()):
        o = new(HeraldedOutcome)        # fields set as the frozen __init__ sets them; it checks nothing
        o.__dict__.update(detection=f"{labels[k]}:{tb_names[j]}" if split else labels[k], probability=p,
                          correction=gates[k], post_state=state, fidelity=fid)
        outcomes.append(o)
    dead = np.flatnonzero(~heralds)    # each after the live outcomes of the patterns before it
    for at, k in zip((np.searchsorted(pats, dead) + np.arange(len(dead))).tolist(), dead.tolist()):
        outcomes.insert(at, HeraldedOutcome(labels[k], 0.0, gates[k], None, None))
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


def check_mu(mu: float) -> None:
    """Reject a Bell-mixture weight outside [0, 1]."""
    if not (0.0 <= mu <= 1.0):
        raise ValueError(f"mu = {mu} outside [0, 1]")


def _check_normalized(state: StateVector, what: str) -> None:
    if abs(state.norm2 - 1.0) > 1e-9:
        raise ValueError(f"{what} must be normalized")


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
    labels = [f"e_{chr(ord('a') + i)}" for i in range(n)]
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

def _parity_operators(coeffs: ScatterCoeffs) -> np.ndarray:
    """The probe optics of a PCD as one diagonal operator per parity.

    The probe never flips a spin: an arm whose spin is up (dn) multiplies
    the probe by u = r + t (v = r0 + t0), and the output combiner turns the
    two arms into their half sum (even) or half difference (odd).  On
    (spin1, spin2) that gives diag(u, (u+v)/2, (u+v)/2, v) for even and
    diag(0, (u-v)/2, (v-u)/2, 0) for odd, the two rows of the returned
    (2, 4) array.

    The operators cannot grow a norm.  `ScatterCoeffs` keeps
    |1 + t|^2 + |t|^2 <= 1, and as (1 + t) - t = 1 the parallelogram law
    gives |u|^2 = |1 + 2t|^2 = 2(|1 + t|^2 + |t|^2) - 1 <= 1; so too
    |v| <= 1.  Every entry then has modulus at most 1, and each
    |even_k|^2 + |odd_k|^2 is |u|^2, |v|^2 or (|u|^2 + |v|^2)/2, at most 1
    (each within twice the constructor's slack of 1e-12).
    """
    u = coeffs.r + coeffs.t
    v = coeffs.r0 + coeffs.t0
    return np.array([[u, (u + v) / 2.0, (u + v) / 2.0, v],
                     [0.0, (u - v) / 2.0, (v - u) / 2.0, 0.0]], dtype=complex)


#: the detector ports in output order; an R click heralds the even parity
#: (row 0 of `_parity_operators`), an L click the odd one (row 1)
_PCD_PORTS = ("R_a1", "R_a2", "L_a1", "L_a2")
_PCD_PARITY = np.array([0, 0, 1, 1])
#: the sign each port gives the heralded amplitudes
_PCD_SIGN = np.array([1.0, 1.0, 1.0, -1.0])


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
    product of the four diagonals with the state's amplitude array; the
    live ports' states are checked as one stack (`StateVector.rows`).
    """
    check_eta_in(eta_in)
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
    # probability and the same state; a parity whose ports carry no more
    # than the dead-branch weight has probability 0 and post state None
    live = [i for i, k in enumerate(_PCD_PARITY) if norm2[k] / 2.0 > _ZERO]
    parity = _PCD_PARITY[live]
    posts = _PCD_SIGN[live, None] * (rows[parity] / np.sqrt(norm2[parity])[:, None])
    norm2, overlaps = norm2.tolist(), overlaps.tolist()
    outcomes = [HeraldedOutcome(label, 0.0, (), None, None) for label in _PCD_PORTS]
    for i, k, post in zip(live, parity.tolist(), StateVector.rows(reg, posts)):
        p, ideal = norm2[k], norm2[2 + k]
        fid = overlaps[k] / (ideal * p) if ideal > _ZERO else None
        outcomes[i] = HeraldedOutcome(_PCD_PORTS[i], coupled_probability(p / 2.0, eta_in, 1), (), post, fid)
    return outcomes


# ---------------------------------------------------------------------------
# chain extension and purification as instruments
# ---------------------------------------------------------------------------

#: the heralded branches of one parity check followed by the measurement of
#: two spins, as (parity, m1, m2): even before odd, outcomes in product order,
#: so branch i takes row i // 4 of `_parity_operators` (`_BRANCH_PARITY`) and ends in <m1 m2| = row i % 4
_BRANCHES = tuple((parity, m1, m2) for parity in ("even", "odd")
                  for m1, m2 in itertools.product(("up", "dn"), repeat=2))
_BRANCH_PARITY = np.arange(len(_BRANCHES)) // 4


def _gate_product(names) -> np.ndarray:
    """The single-spin gates ``names``, applied in order, as one 2x2 matrix."""
    return functools.reduce(lambda m, g: _GATES[g].matrix @ m, names, np.eye(2))


def _extension_gates(parity, m1, m2, label_d):
    """Recorded correction on d: a flip after odd parity, a phase flip after unequal outcomes."""
    return ((("x", label_d),) if parity == "odd" else ()) + ((("z", label_d),) if m1 != m2 else ())


@functools.cache
def _instrument_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coefficient-free parts of both instruments, read-only, built once per
    process for every extension and new purification instrument: extension's
    E[i, o, j, d] = (H x H)[i % 4, j] G_i[o, d], with G_i branch i's recorded correction on
    d; purification's A_i, the gates after its checks, and R = H^{x4}, the rotation before them."""
    h = _GATES["h"].matrix
    ext = np.empty((len(_BRANCHES), 2, 4, 2), dtype=complex)
    pur = np.empty((len(_BRANCHES), 4, 16), dtype=complex)
    for i, (parity, m1, m2) in enumerate(_BRANCHES):
        gate = _gate_product(g for g, _ in _extension_gates(parity, m1, m2, None))
        ext[i] = np.kron(h, h)[i % 4, None, :, None] * gate[:, None, :]
        pre = _gate_product(("x", "h") if parity == "odd" else ("h",))
        pur[i] = np.kron(np.kron(pre, pre)[i % 4], np.kron(_gate_product(("z", "h") if m1 != m2 else ("h",)), h))
    tables = ext, pur, functools.reduce(np.kron, [h] * 4)
    for table in tables:
        table.setflags(write=False)
    return tables


def _extension_maps(coeffs: ScatterCoeffs) -> np.ndarray:
    """The extension instrument: one 2x8 map from (z, z', d) to d per branch
    of `_BRANCHES`, as an (8, 2, 8) stack.

    Each is G_d <m1 m2|(H x H) K_parity: the parity check of z and z', their
    Hadamard rotation and measurement, and the recorded correction on the
    fresh end spin d.  The input coupling is left to the caller.
    The stack is the table E of `_instrument_tables` times K_parity along j.
    """
    return (_instrument_tables()[0] * _parity_operators(coeffs)[_BRANCH_PARITY][:, None, :, None]).reshape(8, 2, 8)


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
    Map i is A_i diag(check_parity) R, with A_i and R from `_instrument_tables`.
    """
    _, pur, rotate = _instrument_tables()
    kraus_a, kraus_b = _parity_operators(coeffs_a), _parity_operators(coeffs_b)
    # both checks are diagonal: entry (a, b, a', b') is K_a[a, a'] K_b[b, b'], one row per parity
    check = np.einsum("kac,kbd->kabcd", kraus_a.reshape(2, 2, 2), kraus_b.reshape(2, 2, 2)).reshape(2, 16)
    maps = pur @ (check[_BRANCH_PARITY][:, :, None] * rotate)
    maps.setflags(write=False)
    return maps


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
    of `_extension_maps`, and the live states are checked as one stack.
    """
    check_eta_in(eta_in)
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
    target = phi_minus(reg.labels)
    # (rest of the chain, z) times (z', d): the maps meet (z, z', d) and leave d last
    chain = np.moveaxis(ghz.tensor_axes(), ghz.register.position(label_z), -1).reshape(1, -1)
    pair = np.moveaxis(bell.tensor_axes(), bell.register.position(label_zp), 0).reshape(1, -1)
    w, live, rows = _apply_instrument(np.ones(1), chain, np.ones(1), pair, _extension_maps(coeffs))
    outcomes = [HeraldedOutcome(f"{parity}:{m1},{m2}", 0.0, _extension_gates(parity, m1, m2, label_d),
                                None, None) for parity, m1, m2 in _BRANCHES]
    for k, final in zip(np.flatnonzero(live).tolist(), StateVector.rows(reg, rows)):
        outcomes[k] = replace(outcomes[k], probability=coupled_probability(float(w[k]), eta_in, 1),
                              post_state=final, fidelity=fidelity(final, target))
    return outcomes


def _pair_stage(weights: np.ndarray, rows: np.ndarray, maps):
    """Every pair of members of one two-spin mixture, two copies of the unit
    rows ``rows`` of weights ``weights``, through the purification instrument ``maps``.

    The one step that pools pure states: the eigenvectors of a chain segment's
    4x4 matrix, or `purify_round`'s two Bell states.  Returns the heralded
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
    amps, probs = _distribution_amplitudes((noise_a, noise_b), (coeffs_a, coeffs_b), 1, _bell_correction)
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

    This is the chain's pair stage on the mixture's eigenbasis, Phi-
    (weight mu) and Phi+ (weight 1-mu), with ``coeffs`` at both
    parties.  At ideal coefficients the kept weight follows
    mu -> mu^2/(mu^2 + (1-mu)^2) with success probability mu^2 + (1-mu)^2.
    """
    check_mu(mu)
    weights = np.array([mu, 1.0 - mu])
    kept = weights > 0.0
    (w, rows), success = _pair_stage(weights[kept], _BELL[kept], _purification_maps(coeffs, coeffs))
    # the weighted sum of each row's fidelity |<Phi-|row>|^2 / |row|^2, which
    # stays in [0, 1] where <Phi-|rho|Phi-> can round below 0
    mu_out = sum(wk * float(abs(np.vdot(_BELL[0], row)) ** 2 / float(np.vdot(row, row).real))
                 for wk, row in zip(w.tolist(), rows))
    return PurificationState(mu=mu_out, round=1, success_probability=success), 1.0 - success


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
