"""Photon-spin scattering at the spin-cavity interface.

The photon carries circular polarization (levels R, L) and a propagation
direction tag (up = along the spin quantization axis, dn = against it);
together with the spin this spans an 8-dimensional space.  A photon whose
spin angular momentum matches the electron spin sees the coupled cavity and
is (ideally) reflected, flipping both its polarization and its direction.
The mismatched photon sees the uncoupled cavity and is (ideally) transmitted
with a pi phase, leaving polarization and direction alone.

With finite coupling and side leakage the same map applies the amplitudes
(r, t) on the coupled pair and (t0, r0) on the uncoupled pair of basis
states.  Amplitude lost to the leak and noise channels simply disappears
from the state vector; the norm deficit is the undetected probability.  No
renormalization happens here; branches are normalized only when heralded.
"""

from __future__ import annotations

import numpy as np

from .cavity import ScatterCoeffs
from .qstate import LinearMap, RegisterError, StateVector, apply_map, linear_map

#: (polarization, direction, spin) triples that couple to the dipole.
_COUPLED = {
    ("R", "up", "up"),
    ("L", "dn", "up"),
    ("R", "dn", "dn"),
    ("L", "up", "dn"),
}

_POL = ("R", "L")
_DIR = ("up", "dn")
_SPIN = ("up", "dn")


def _flip(pair: str, table=("R", "L")) -> str:
    return table[1 - table.index(pair)]


def scatter_map(coeffs: ScatterCoeffs) -> LinearMap:
    """8x8 map on (polarization, direction, spin), in that Kronecker order."""
    m = np.zeros((8, 8), dtype=complex)

    def idx(pol, dr, sp):
        return (_POL.index(pol) * 2 + _DIR.index(dr)) * 2 + _SPIN.index(sp)

    for pol in _POL:
        for dr in _DIR:
            for sp in _SPIN:
                col = idx(pol, dr, sp)
                flipped = (_flip(pol, _POL), _flip(dr, _DIR), sp)
                if (pol, dr, sp) in _COUPLED:
                    m[idx(*flipped), col] += coeffs.r
                    m[col, col] += coeffs.t
                else:
                    m[col, col] += coeffs.t0
                    m[idx(*flipped), col] += coeffs.r0
    return linear_map(m)


def scatter(state: StateVector, photon: str, spin: str, coeffs: ScatterCoeffs) -> StateVector:
    """Scatter one photon off one spin; output norm may shrink (leak/noise loss)."""
    pol = f"{photon}_pol"
    direction = f"{photon}_dir"
    reg = state.register
    if not reg.has(direction):
        raise RegisterError(f"photon {photon!r} has no direction subsystem")
    if not reg.has(pol):
        raise RegisterError(f"photon {photon!r} has no polarization subsystem")
    if reg.subsystem(pol).levels != _POL:
        raise RegisterError(
            f"photon {photon!r} must be in the circular basis (R, L); apply the quarter-wave relabel first"
        )
    if reg.subsystem(direction).levels != _DIR:
        raise RegisterError(f"photon {photon!r} direction levels must be {_DIR}")
    return apply_map(state, scatter_map(coeffs), [pol, direction, spin])
