"""Scattering coefficients of a spin-cavity unit probed by a single photon.

A two-port resonator holding a single charged emitter splits an incident
probe among four channels: reflection R, transmission T, side leakage S and
dipole noise N.  All rates are stored as ratios to the cavity field decay
rate kappa, matching how the parameter space is usually scanned (g/kappa,
kappa_s/kappa, Delta/kappa).  Energy conservation makes
|R|^2 + |T|^2 + |S|^2 + |N|^2 = 1 for every parameter choice.

The dipole sits on the cavity resonance and the probe is detuned from both
by delta.  One response formula gives the coupled ("hot") transmission t
and, at g = 0, the uncoupled ("cold") one t0.  Reflection and transmission
share a denominator, so the reflections follow as r = 1 + t and r0 = 1 + t0,
and a node is the pair (t, t0).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .qstate import ATOL


@dataclass(frozen=True)
class CavityParams:
    """Physical parameters of one spin-cavity unit, in units of kappa.

    The dipole sits on the cavity resonance; ``delta`` is the detuning of
    the probe from that common frequency.
    """

    g: float
    kappa_s: float = 0.0
    gamma: float = 0.1
    delta: float = 0.0

    def __post_init__(self):
        for name in ("g", "kappa_s", "gamma", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.g < 0.0:
            raise ValueError(f"g must be nonnegative, got {self.g}")
        if self.kappa_s < 0.0:
            raise ValueError(f"kappa_s must be nonnegative, got {self.kappa_s}")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class ScatterCoeffs:
    """Hot (t) and cold (t0) transmission amplitudes of one node.

    Reflection and transmission share a denominator, so the reflections are
    r = 1 + t and r0 = 1 + t0.  Neither pair can carry more than the whole
    photon: |1 + t|^2 + |t|^2 <= 1, and the rest is lost to leak and noise.
    """

    t: complex
    t0: complex

    def __post_init__(self):
        for name in ("t", "t0"):
            amp = complex(getattr(self, name))
            object.__setattr__(self, name, amp)
            kept = abs(1.0 + amp) ** 2 + abs(amp) ** 2
            if not kept <= 1.0 + ATOL:
                raise ValueError(f"{name} = {amp}: |1 + {name}|^2 + |{name}|^2 = {kept}, "
                                 "not a finite value at most 1")

    @property
    def r(self) -> complex:
        return 1.0 + self.t

    @property
    def r0(self) -> complex:
        return 1.0 + self.t0


#: Perfect birefringent interface: full reflection when coupled, full
#: transmission (with the pi phase) when uncoupled.
IDEAL = ScatterCoeffs(t=0.0, t0=-1.0)


def _response(p: CavityParams, g: float) -> tuple[complex, complex, complex, complex]:
    """Reflection, transmission, leak and noise amplitudes of ``p`` with coupling ``g``."""
    try:
        d_dip = 1j * p.delta + p.gamma / 2.0
        den = 1j * p.delta + 1.0 + p.kappa_s / 2.0 + g ** 2 / d_dip
        amps = ((den - 1.0) / den, -1.0 / den, -math.sqrt(p.kappa_s) / den,
                (1j * g * math.sqrt(p.gamma) / d_dip) / den)
    except (OverflowError, ZeroDivisionError):  # g ** 2 overflows, or gamma / 2 underflows to 0
        amps = (cmath.nan,)
    if not all(map(cmath.isfinite, amps)):
        raise ValueError(f"cavity response of {p} is not finite")
    return amps


def full_coeffs(p: CavityParams) -> tuple[complex, complex, complex, complex]:
    """Reflection, transmission, leak and noise amplitudes at the probe detuning."""
    return _response(p, p.g)


def probability_sum(p: CavityParams) -> float:
    """|R|^2 + |T|^2 + |S|^2 + |N|^2; equals 1 for any physical parameters."""
    return sum(abs(a) ** 2 for a in full_coeffs(p))


def resonant_coeffs(p: CavityParams) -> ScatterCoeffs:
    """Hot transmission of ``p`` and cold one of the same cavity with g = 0."""
    return ScatterCoeffs(t=_response(p, p.g)[1], t0=_response(p, 0.0)[1])
