"""Scattering coefficients of a spin-cavity unit probed by a single photon.

A two-port resonator holding a single charged emitter splits an incident
probe among four channels: reflection R, transmission T, side leakage S and
dipole noise N.  All rates are stored as ratios to the cavity field decay
rate kappa, matching how the parameter space is usually scanned (g/kappa,
kappa_s/kappa, Delta/kappa).  Energy conservation makes
|R|^2 + |T|^2 + |S|^2 + |N|^2 = 1 for every parameter choice.

When the dipole is tuned onto the cavity mode, the coupled ("hot") response
reduces to (r, t) and the uncoupled ("cold", g = 0) response to (r0, t0).
Both pairs share a denominator, which pins the beam-splitter identities
r = 1 + t and r0 = 1 + t0 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, InitVar

from .qstate import ATOL


@dataclass(frozen=True)
class CavityParams:
    """Physical parameters of one spin-cavity unit, in units of kappa.

    ``delta`` is accepted as a shorthand for the probe detuning
    omega_c - omega; it cannot be combined with explicit frequencies.
    """

    g: float
    kappa_s: float = 0.0
    gamma: float = 0.1
    kappa: float = 1.0
    omega_c: float = 0.0
    omega_x: float = 0.0
    omega: float = 0.0
    delta: InitVar[float | None] = None

    def __post_init__(self, delta):
        if delta is not None:
            if self.omega_c != 0.0 or self.omega_x != 0.0 or self.omega != 0.0:
                raise ValueError("give either delta or explicit frequencies, not both")
            object.__setattr__(self, "omega", self.omega_c - _check_detuning(delta))
        for name in ("g", "kappa_s", "gamma", "kappa", "omega_c", "omega_x", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.g < 0.0:
            raise ValueError(f"g must be nonnegative, got {self.g}")
        if self.kappa_s < 0.0:
            raise ValueError(f"kappa_s must be nonnegative, got {self.kappa_s}")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    @property
    def detuning(self) -> float:
        return self.omega_c - self.omega

    @property
    def resonant(self) -> bool:
        return self.omega_c == self.omega_x

    def with_detuning(self, delta: float) -> "CavityParams":
        return CavityParams(
            g=self.g, kappa_s=self.kappa_s, gamma=self.gamma, kappa=self.kappa,
            omega_c=self.omega_c, omega_x=self.omega_x, omega=self.omega_c - _check_detuning(delta),
        )


def _check_detuning(delta: float) -> float:
    """Reject a NaN or infinite probe detuning; return it otherwise."""
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    return delta


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
        if abs(self.r - (1.0 + self.t)) > ATOL:
            raise ValueError(f"beam-splitter identity r = 1 + t violated: r={self.r}, t={self.t}")
        if abs(self.r0 - (1.0 + self.t0)) > ATOL:
            raise ValueError(f"beam-splitter identity r0 = 1 + t0 violated: r0={self.r0}, t0={self.t0}")
        total = abs(self.r) ** 2 + abs(self.t) ** 2 + abs(self.s_leak) ** 2 + abs(self.n_noise) ** 2
        if abs(total - 1.0) > 1e-10:
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


def full_coeffs(p: CavityParams) -> tuple[complex, complex, complex, complex]:
    """Reflection, transmission, leak and noise amplitudes at the probe frequency."""
    d_dip = 1j * (p.omega_x - p.omega) + p.gamma / 2.0
    den = 1j * (p.omega_c - p.omega) + p.kappa + p.kappa_s / 2.0 + p.g ** 2 / d_dip
    R = (den - p.kappa) / den
    T = -p.kappa / den
    S = -math.sqrt(p.kappa_s * p.kappa) / den
    N = (1j * p.g * math.sqrt(p.gamma * p.kappa) / d_dip) / den
    return R, T, S, N


def probability_sum(p: CavityParams) -> float:
    """|R|^2 + |T|^2 + |S|^2 + |N|^2; equals 1 for any physical parameters."""
    R, T, S, N = full_coeffs(p)
    return abs(R) ** 2 + abs(T) ** 2 + abs(S) ** 2 + abs(N) ** 2


def resonant_coeffs(p: CavityParams, delta: float = 0.0) -> ScatterCoeffs:
    """Hot and cold amplitudes with the dipole tuned onto the cavity mode.

    ``delta`` is the probe detuning from the common mode/dipole frequency.
    """
    if not p.resonant:
        raise ValueError("resonant convention requires omega_c == omega_x")
    _check_detuning(delta)
    d_dip = 1j * delta + p.gamma / 2.0
    den_hot = 1j * delta + p.kappa + p.kappa_s / 2.0 + p.g ** 2 / d_dip
    t = -p.kappa / den_hot
    r = (den_hot - p.kappa) / den_hot
    den_cold = 1j * delta + p.kappa + p.kappa_s / 2.0
    t0 = -p.kappa / den_cold
    r0 = (den_cold - p.kappa) / den_cold
    s_leak = -math.sqrt(p.kappa_s * p.kappa) / den_hot
    n_noise = (1j * p.g * math.sqrt(p.gamma * p.kappa) / d_dip) / den_hot
    return ScatterCoeffs(r=r, t=t, r0=r0, t0=t0, s_leak=s_leak, n_noise=n_noise)
