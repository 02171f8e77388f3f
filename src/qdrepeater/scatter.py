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

import itertools

import numpy as np

from .cavity import ScatterCoeffs
from .qstate import LinearMap
from .timebin import DIRECTION, POL_CIRCULAR

#: (polarization, direction, spin) triples that couple to the dipole.
_COUPLED = {
    ("R", "up", "up"),
    ("L", "dn", "up"),
    ("R", "dn", "dn"),
    ("L", "up", "dn"),
}

_SPIN = ("up", "dn")


def scatter_map(coeffs: ScatterCoeffs) -> LinearMap:
    """8x8 map on (polarization, direction, spin), in that Kronecker order."""
    m = np.zeros((8, 8), dtype=complex)
    for (p, pol), (d, dr), (s, sp) in itertools.product(
            enumerate(POL_CIRCULAR), enumerate(DIRECTION), enumerate(_SPIN)):
        # reflection flips both polarization and direction
        col, flipped = (2 * p + d) * 2 + s, (2 * (1 - p) + 1 - d) * 2 + s
        if (pol, dr, sp) in _COUPLED:
            m[flipped, col] += coeffs.r
            m[col, col] += coeffs.t
        else:
            m[col, col] += coeffs.t0
            m[flipped, col] += coeffs.r0
    return LinearMap(m)

