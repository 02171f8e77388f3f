"""Scattering coefficients of a spin-cavity unit probed by a single photon.

A two-port resonator holding a single charged emitter splits an incident
probe among four channels: reflection R, transmission T, side leakage S and
dipole noise N.  All rates are stored as ratios to the cavity field decay
rate kappa, matching how the parameter space is usually scanned (g/kappa,
kappa_s/kappa, Delta/kappa).  Energy conservation makes
|R|^2 + |T|^2 + |S|^2 + |N|^2 = 1 for every parameter choice.

The dipole sits on the cavity resonance and the probe is detuned from both
by delta.  One response formula gives the coupled ("hot") pair (r, t) and,
at g = 0, the uncoupled ("cold") pair (r0, t0).  Reflection and
transmission share a denominator, which pins the beam-splitter identities
r = 1 + t and r0 = 1 + t0 exactly.
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
    """Hot (r, t) and cold (r0, t0) amplitudes plus the hot leak/noise channels."""

    r: complex
    t: complex
    r0: complex
    t0: complex
    s_leak: complex = 0.0
    n_noise: complex = 0.0

    def __post_init__(self):
        for name, val in (("r", self.r), ("t", self.t), ("r0", self.r0),
                          ("t0", self.t0), ("s_leak", self.s_leak), ("n_noise", self.n_noise)):
            object.__setattr__(self, name, complex(val))
        if not abs(self.r - (1.0 + self.t)) <= ATOL:
            raise ValueError(f"beam-splitter identity r = 1 + t violated: r={self.r}, t={self.t}")
        if not abs(self.r0 - (1.0 + self.t0)) <= ATOL:
            raise ValueError(f"beam-splitter identity r0 = 1 + t0 violated: r0={self.r0}, t0={self.t0}")
        total = abs(self.r) ** 2 + abs(self.t) ** 2 + abs(self.s_leak) ** 2 + abs(self.n_noise) ** 2
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"coupled channels must carry unit probability, got {total}")

    @property
    def hot_survival(self) -> float:
        """Probability that a coupled photon stays in the reflection/transmission modes."""
        return abs(self.r) ** 2 + abs(self.t) ** 2

    @property
    def cold_survival(self) -> float:
        return abs(self.r0) ** 2 + abs(self.t0) ** 2


#: Perfect birefringent interface: full reflection when coupled, full
#: transmission (with the pi phase) when uncoupled.
IDEAL = ScatterCoeffs(r=1.0, t=0.0, r0=0.0, t0=-1.0)


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
    """Hot amplitudes of ``p`` and cold ones of the same cavity with g = 0."""
    r, t, s_leak, n_noise = full_coeffs(p)
    r0, t0, _, _ = _response(p, 0.0)
    return ScatterCoeffs(r=r, t=t, r0=r0, t0=t0, s_leak=s_leak, n_noise=n_noise)
