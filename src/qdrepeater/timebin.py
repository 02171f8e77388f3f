"""Photon optics and the time-bin pipeline that defeats collective fiber noise.

One photon is modeled by three subsystems: polarization (levels H, V on the
linear side, R, L after a quarter-wave relabel), a direction tag written by
the final polarizing splitter, and a time-bin qudit.  The encoder converts
polarization into an early/late time bin (levels s, l) with everything
H-polarized; the fiber then rotates polarization identically on both bins
(collective noise) or slightly differently (asymmetric noise).  The decoder
interferometer chain converts arrival time back into polarization so that
the noise rotation factors out into a spectator time-bin product.

Time bins are discrete delay counters.  The decoder only routes amplitude,
so `decode` applies one 0/1 map, `decode_map()`, as `encode` applies
`encode_map()`, and relabels the bins as arrival classes sp and lp.  The
tests run the decoder's elements step by step as that map's reference.
Both maps are built and checked on each call; distribution in `protocols`
composes `decode_map()`, the exact pi plate and the scattering rule into
one table once per process, and meets the encoder as the first two columns
of the fibers' rotations.  `_rotations` writes the 4x4 rotations of
checked fibers out in one array, all of a distribution's at once;
`NoiseChannel.matrix()` is one fiber's, which `apply_noise` checks again
as a unitary map.

Each optical element is a plain function of one photon or a matrix:
`qwp`, `delay` and `pockels` act on the photon named; a half-wave plate or a
50/50 splitter is `qstate.hadamard()`, the polarizing splitter
`routing_map()` and a phase plate `phase_shift_map(angle)`, each applied
with `apply_map` to the subsystems it acts on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .qstate import (
    ATOL,
    LinearMap,
    Register,
    RegisterError,
    StateVector,
    Subsystem,
    apply_map,
)

POL_LINEAR = ("H", "V")
POL_CIRCULAR = ("R", "L")
DIRECTION = ("up", "dn")
TB_RAW = ("s", "l")
TB_DECODED = ("sp", "lp")


def pol_label(photon: str) -> str:
    return f"{photon}_pol"


def dir_label(photon: str) -> str:
    return f"{photon}_dir"


def tb_label(photon: str) -> str:
    return f"{photon}_tb"


def photon_register(photon: str) -> Register:
    """Polarization (linear) + direction + time-bin register for one photon."""
    return Register((
        Subsystem(pol_label(photon), POL_LINEAR),
        Subsystem(dir_label(photon), DIRECTION),
        Subsystem(tb_label(photon), TB_RAW),
    ))


@dataclass(frozen=True)
class NoiseChannel:
    """Unitary polarization rotation of one fiber, per time bin.

    The early bin sees |H> -> delta|H> + eta|V>; the late bin sees the
    (delta_l, eta_l) rotation, which defaults to the early one (collective
    noise).  The unused column is completed canonically so each rotation is
    a genuine unitary.
    """

    delta: complex
    eta: complex
    delta_l: complex | None = None
    eta_l: complex | None = None

    def __post_init__(self):
        object.__setattr__(self, "delta", complex(self.delta))
        object.__setattr__(self, "eta", complex(self.eta))
        dl = self.delta if self.delta_l is None else complex(self.delta_l)
        el = self.eta if self.eta_l is None else complex(self.eta_l)
        object.__setattr__(self, "delta_l", dl)
        object.__setattr__(self, "eta_l", el)
        for d, e, which in ((self.delta, self.eta, "early"), (dl, el, "late")):
            if not abs(abs(d) ** 2 + abs(e) ** 2 - 1.0) <= ATOL:
                raise ValueError(f"{which}-bin rotation is not normalized: |delta|^2+|eta|^2 != 1")

    def matrix(self) -> np.ndarray:
        """The rotation on (polarization, raw time bin), `_rotations` of this
        channel alone.  Both blocks were checked at construction;
        `apply_noise` checks the matrix again as a unitary `LinearMap`."""
        return _rotations((self,))[0]

    @classmethod
    def identity(cls) -> "NoiseChannel":
        return cls(1.0, 0.0)


def _rotations(channels) -> np.ndarray:
    """The (n, 4, 4) rotations of n checked channels on (polarization, raw
    time bin): one polarization block [[delta, -conj(eta)], [eta, conj(delta)]]
    per bin, all written out in one array."""
    z = 0j
    return np.array([(ch.delta, z, -ch.eta.conjugate(), z,
                      z, ch.delta_l, z, -ch.eta_l.conjugate(),
                      ch.eta, z, ch.delta.conjugate(), z,
                      z, ch.eta_l, z, ch.delta_l.conjugate()) for ch in channels], dtype=complex).reshape(-1, 4, 4)


def routing_map() -> LinearMap:
    """Polarizing splitter: flips the routing qubit for the V (or L) component."""
    m = np.zeros((4, 4), dtype=complex)
    for p in (0, 1):
        for d in (0, 1):
            m[p * 2 + (d ^ p), p * 2 + d] = 1.0
    return LinearMap(m, unitary=True)


def pc_map(tb_levels: tuple[str, ...], window) -> LinearMap:
    """Pockels cell on (polarization, time bin): bit-flips polarization inside the window."""
    window = set(window)
    unknown = window - set(tb_levels)
    if unknown:
        raise RegisterError(f"PC window refers to unknown time bins {sorted(unknown)}")
    n = len(tb_levels)
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    for p in (0, 1):
        for k, lev in enumerate(tb_levels):
            p_out = 1 - p if lev in window else p
            m[p_out * n + k, p * n + k] = 1.0
    return LinearMap(m, unitary=True)


def phase_shift_map(angle: float) -> LinearMap:
    """Phase plate: multiplies the second polarization level (V or L) by exp(i angle).

    The angle's whole quarter turns enter as a power of i, so every multiple
    of pi/2 gives exactly +-1 or +-i and an angle in [0, pi/2) keeps its
    bits; a non-finite angle gives nan, which the unitarity check rejects."""
    quarters, rest = divmod(angle, math.pi / 2)
    turn = {0: 1, 1: 1j, 2: -1, 3: -1j}.get(quarters % 4, math.nan)
    return LinearMap(np.diag([1.0, turn * np.exp(1j * rest)]), unitary=True)


def qwp(state: StateVector, photon: str) -> StateVector:
    """Quarter-wave plate: relabels H <-> R and V <-> L, amplitudes untouched."""
    lab = pol_label(photon)
    levels = POL_CIRCULAR if state.register.subsystem(lab).levels == POL_LINEAR else POL_LINEAR
    return StateVector(state.register.replace(lab, Subsystem(lab, levels)), state.amplitudes)


def pockels(state: StateVector, photon: str, window) -> StateVector:
    """Pockels cell: flips the photon's polarization inside the listed time bins."""
    pol, tb = pol_label(photon), tb_label(photon)
    return apply_map(state, pc_map(state.register.subsystem(tb).levels, window), [pol, tb])


def delay(state: StateVector, photon: str, pol: str) -> StateVector:
    """Append one delay slot to the photon's time-bin register.

    The component with polarization ``pol`` takes the long path (suffix
    "l"); the other polarization takes the short path (suffix "s").  The
    register dimension doubles: level k becomes levels 2k (short) and
    2k + 1 (long).
    """
    reg = state.register
    pol_sub = reg.subsystem(pol_label(photon))
    tb = reg.subsystem(tb_label(photon))
    d_idx = pol_sub.level_index(pol)
    new_levels = tuple(x + c for x in tb.levels for c in ("s", "l"))
    new_tb = Subsystem(tb.label, new_levels)
    new_reg = reg.replace(tb.label, new_tb)

    p_ax = reg.position(pol_sub.label)
    t_ax = reg.position(tb.label)
    psi = state.tensor_axes()
    psi = np.moveaxis(psi, (p_ax, t_ax), (0, 1))
    out = np.zeros((2, len(new_levels)) + psi.shape[2:], dtype=complex)
    for p in (0, 1):
        out[p, int(p == d_idx)::2] = psi[p]
    # the new register orders subsystems identically, only the tb axis grew
    out = np.moveaxis(out, (0, 1), (p_ax, t_ax))
    return StateVector(new_reg, out.reshape(-1))


def encode_map() -> LinearMap:
    """Encoder on (polarization, raw time bin), basis order Hs, Hl, Vs, Vl.

    Physical columns: Hs -> Hs, Vs -> Hl (long path plus window flip).  The
    late-bin columns are a formal unitary completion; `encode` keeps them
    unreachable by requiring the bin register in |s>.
    """
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0   # Hs -> Hs
    m[1, 2] = 1.0   # Vs -> Hl
    m[3, 1] = 1.0   # Hl -> Vl (completion)
    m[2, 3] = 1.0   # Vl -> Vs (completion)
    return LinearMap(m, unitary=True)


def decode_map() -> LinearMap:
    """Decoder on (polarization, direction, time bin), basis order as in
    `photon_register`: raw bins s, l in, arrival classes sp, lp out.

    The interferometer delays H, flips the polarization of the one-delay
    windows (Pockels cell), writes the direction tag (polarizing splitter,
    V -> dn) and delays V.  Windows of equal total delay arrive together:
    the two-delay ones form class sp, which carries the unrotated
    (channel-diagonal) amplitude, the one-delay ones class lp.  The arrival
    bin thus picks the output polarization and port, the source
    polarization picks the class, and under collective noise the fiber's
    rotation factors out into a spectator time-bin product.

    Physical columns (tag up): Hs -> V,dn,sp, Hl -> H,up,sp, Vs -> V,dn,lp,
    Vl -> H,up,lp.  The tag-dn columns follow the same rule, a formal
    unitary completion that `decode` keeps unreachable.
    """
    m = np.zeros((8, 8), dtype=complex)
    for p, d, b in itertools.product((0, 1), repeat=3):
        flip = 1 - b    # the early bin leaves V-polarized on the flipped port
        m[4 * flip + 2 * (d ^ flip) + p, 4 * p + 2 * d + b] = 1.0
    return LinearMap(m, unitary=True)


def encode(state: StateVector, photon: str) -> StateVector:
    """Convert polarization into an early/late time bin, all output H-polarized.

    alpha|H> + beta|V>  with the bin register in |s>  becomes
    |H> (alpha|s> + beta|l>).  Requires the bin register in |s>.
    """
    reg = state.register
    pol = pol_label(photon)
    tb = tb_label(photon)
    if reg.subsystem(pol).levels != POL_LINEAR:
        raise RegisterError(f"photon {photon!r} must be in the linear basis to encode")
    if reg.subsystem(tb).levels != TB_RAW:
        raise RegisterError(f"photon {photon!r} time-bin register is not in the raw (s, l) form")
    # reject any amplitude already in the late bin
    psi = np.moveaxis(state.tensor_axes(), reg.position(tb), 0)
    if float(np.sum(np.abs(psi[1]) ** 2)) > 1e-20:
        raise RegisterError(f"photon {photon!r} time bin must start in |s>")
    return apply_map(state, encode_map(), [pol, tb])


def apply_noise(state: StateVector, photon: str, ch: NoiseChannel) -> StateVector:
    """Fiber rotation: the early bin sees (delta, eta), the late bin (delta_l, eta_l)."""
    reg = state.register
    tb = tb_label(photon)
    if reg.subsystem(tb).levels != TB_RAW:
        raise RegisterError(f"photon {photon!r} must be in the raw (s, l) time-bin form")
    return apply_map(state, LinearMap(ch.matrix(), unitary=True), [pol_label(photon), tb])


def decode(state: StateVector, photon: str) -> StateVector:
    """Apply `decode_map()` to a photon in linear polarization, raw (s, l) bins
    and a clear direction tag; its bins come out as arrival classes sp, lp."""
    reg = state.register
    pol = pol_label(photon)
    direc = dir_label(photon)
    tb = tb_label(photon)
    if reg.subsystem(pol).levels != POL_LINEAR:
        raise RegisterError(f"photon {photon!r} must be in the linear basis to decode")
    if reg.subsystem(tb).levels != TB_RAW:
        raise RegisterError(f"photon {photon!r} time register is already expanded or decoded")
    psi = np.moveaxis(state.tensor_axes(), reg.position(direc), 0)
    if float(np.sum(np.abs(psi[1]) ** 2)) > 1e-20:
        raise RegisterError(f"photon {photon!r} direction tag must be clear before decoding")
    state = apply_map(state, decode_map(), [pol, direc, tb])
    return StateVector(reg.replace(tb, Subsystem(tb, TB_DECODED)), state.amplitudes)
