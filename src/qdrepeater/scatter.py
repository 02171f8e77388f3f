"""Photon-spin scattering at the spin-cavity interface.

The photon carries circular polarization (levels R, L) and a propagation
direction tag (up = along the spin quantization axis, dn = against it);
together with the spin this spans an 8-dimensional space.  A photon whose
spin angular momentum matches the electron spin sees the coupled cavity and
is (ideally) reflected, flipping both its polarization and its direction.
The mismatched photon sees the uncoupled cavity and is (ideally) transmitted
with a pi phase, leaving polarization and direction alone.  With the levels
indexed R, L / up, dn / up, dn, the photon couples if and only if
``p ^ d == s``.

With finite coupling and side leakage the same map applies the amplitudes
(r, t) on the coupled pair and (t0, r0) on the uncoupled pair of basis
states.  Amplitude lost to the leak and noise channels simply disappears
from the state vector; the norm deficit is the undetected probability.  No
renormalization happens here; branches are normalized only when heralded.

The map depends on the coefficients alone and is read-only, so it is built
and checked once per coefficient set: the last 16 sets are kept.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .cavity import ScatterCoeffs
from .qstate import LinearMap


def scatter_map(coeffs: ScatterCoeffs) -> LinearMap:
    """8x8 map on (polarization, direction, spin), in that Kronecker order."""
    return _scatter_map(coeffs)


@functools.lru_cache(maxsize=16)
def _scatter_map(coeffs: ScatterCoeffs) -> LinearMap:
    m = np.zeros((8, 8), dtype=complex)
    for p, d, s in itertools.product((0, 1), repeat=3):
        col = 4 * p + 2 * d + s
        coupled = p ^ d == s
        m[col, col] = coeffs.t if coupled else coeffs.t0
        # reflection flips both the polarization and the direction bit
        m[col ^ 0b110, col] = coeffs.r if coupled else coeffs.r0
    return LinearMap(m)
