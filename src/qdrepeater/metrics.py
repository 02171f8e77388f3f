"""Closed-form fidelities and efficiencies, checked against full simulation.

With u = 1 + 2t and v = 1 + 2t0 the heralded performance of one two-node
distribution run is

    eta_even = (|u|^2 + |v|^2 + 2|1 + t + t0|^2) / 4
    eta_odd  = |t0 - t|^2 / 2
    eta      = (|u|^2 + |v|^2) / 2 = eta_even + eta_odd
    f_even   = |t0 - t|^2 / (2 eta_even)
    f_odd    = 1

The parity-check detector obeys the same formulas branch for branch; only
its input-coupling adjustment differs (one photon pass instead of two).
``crosscheck`` replays both protocols by exact state evolution and reports
the worst disagreement with the formulas.  Chain extension splits the same
formulas over four measurement outcomes per parity (`extension_metrics`),
and one purification round has its own closed form at any node
(`purification_metrics`); both derivations are in their docstrings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cavity import ScatterCoeffs
from .protocols import (
    PurificationState,
    check_eta_in,
    coupled_probability,
    distribute_bell,
    pcd,
    uniform_spins,
)
from .timebin import NoiseChannel


@dataclass(frozen=True)
class DistributionMetrics:
    eta_d_even: float
    eta_d_odd: float
    eta_d: float
    f_even: float
    f_odd: float
    eta_in_adjusted: float | None = None


def _metrics(coeffs: ScatterCoeffs, eta_in: float | None, passes: int) -> DistributionMetrics:
    """The closed forms, with ``eta_in`` applied once per photon pass."""
    if eta_in is not None:
        check_eta_in(eta_in)
    u = 1.0 + 2.0 * coeffs.t
    v = 1.0 + 2.0 * coeffs.t0
    eta_even = (abs(u) ** 2 + abs(v) ** 2 + 2.0 * abs(1.0 + coeffs.t + coeffs.t0) ** 2) / 4.0
    eta_odd = abs(coeffs.t0 - coeffs.t) ** 2 / 2.0
    eta = (abs(u) ** 2 + abs(v) ** 2) / 2.0
    if abs(eta - (eta_even + eta_odd)) > 1e-12:
        raise AssertionError("parallelogram identity eta = eta_even + eta_odd failed")
    f_even = abs(coeffs.t0 - coeffs.t) ** 2 / (2.0 * eta_even) if eta_even > 0.0 else 0.0
    return DistributionMetrics(
        eta_d_even=eta_even, eta_d_odd=eta_odd, eta_d=eta, f_even=f_even, f_odd=1.0,
        eta_in_adjusted=coupled_probability(eta, eta_in, passes) if eta_in is not None else None)


def distribution_metrics(coeffs: ScatterCoeffs, eta_in: float | None = None) -> DistributionMetrics:
    """Heralded efficiency and fidelity of one Bell distribution run.

    ``eta_in`` multiplies the total efficiency once per photon pass; a
    distribution run has two.
    """
    return _metrics(coeffs, eta_in, passes=2)


def pcd_metrics(coeffs: ScatterCoeffs, eta_in: float | None = None) -> DistributionMetrics:
    """Heralded efficiency and fidelity of one parity check (single photon pass)."""
    return _metrics(coeffs, eta_in, passes=1)


def extension_metrics(coeffs: ScatterCoeffs, eta_in: float = 1.0) -> dict[str, tuple[float, float]]:
    """(probability, fidelity) of every branch of `extend_chain` splicing two
    perfect Phi- pairs at a node with ``coeffs``, keyed by its branch label.

    Each of the four even branches has probability eta_even/4 and fidelity
    f_even, each odd branch eta_odd/4 and fidelity 1; ``eta_in`` enters once.

    Derivation.  With s_up = 1 and s_dn = -1, Phi-(x, z) Phi-(z', d) is
    (1/2) sum_{k, k'} s_k s_k' |k k k' k'>.  The parity check multiplies the
    (z, z') = (k, k') term by diag(u, w, w, v) (even; u = r + t = 1 + 2t,
    v = r0 + t0 = 1 + 2t0, w = (u + v)/2 = 1 + t + t0) or by
    diag(0, y, -y, 0) (odd; y = (u - v)/2).  Measuring z and z' in the
    Hadamard basis gives each term a factor +-1/2, so every outcome leaves
    (x, d) in (1/4)(u|uu> -+ w|ud> -+ w|du> +- v|dd>) (even) or
    (y/4)(-+|ud> +- |du>) (odd), with signs set by the outcome and undone by
    the recorded correction on d.  The even norm (|u|^2 + 2|w|^2 + |v|^2)/16
    is eta_even/4, and its Phi- weight |u - v|^2/32 gives f_even =
    |u - v|^2 / (8 eta_even).  The odd norm |y|^2/8 = |t0 - t|^2/8 is
    eta_odd/4, and the flipped odd state is Phi- itself.
    """
    m = pcd_metrics(coeffs, eta_in)
    forms = {"even": (m.eta_d_even / 4.0, m.f_even), "odd": (m.eta_d_odd / 4.0, m.f_odd)}
    return {f"{parity}:{m1},{m2}": (coupled_probability(p, eta_in, 1), f)
            for parity, (p, f) in forms.items()
            for m1, m2 in itertools.product(("up", "dn"), repeat=2)}


def purification_metrics(mu: float, coeffs: ScatterCoeffs) -> PurificationState:
    """One purification round at nodes with ``coeffs``, in closed form.

    The input is two copies of mu|Phi-><Phi-| + (1-mu)|Phi+><Phi+|, as in
    `purify_round`.  With u = r + t, v = r0 + t0, a = |u|^2, b = |v|^2 and
    z = u conj(v), the success probability s and the kept Phi- weight F are

        16 s   = 2|u-v|^4 mu^2 + (8 Re z (a+b) - 6(a^2+b^2) - 4 Re z^2) mu
                 + 5(a^2+b^2) + 2 Re z^2 + 4ab
        16 s F = mu (|u+v|^4 - 2 mu (2 Re z (a+b) - 4ab))

    Derivation.  The two copies are a mixture of four product states (first
    copy, second copy): (Phi-, Phi-) with weight mu^2, (Phi-, Phi+) and
    (Phi+, Phi-) with mu(1-mu) each, (Phi+, Phi+) with (1-mu)^2.  Each runs
    through the eight kept branches (equal parities at both checks, then two
    Hadamard-basis outcomes).  Summed over the branches, its squared norm N
    and its Phi- weight O are

        16 N(--) = 16 O(--) = a^2 + b^2 + 2 Re z^2 + 12ab
        16 N(-+) = 16 N(+-) = 2|u+v|^2 (a+b),  16 O(-+) = 0,  16 O(+-) = |u+v|^4
        16 N(++) = 5(a^2+b^2) + 2 Re z^2 + 4ab,  16 O(++) = 0

    The even check diag(u, w, w, v), w = (u+v)/2, also passes odd-parity
    pairs, so the cross terms add weight and the map is not DEJMPS's.  Then
    s and s F are the weighted sums of N and O, and |u+v|^2 = a + b + 2 Re z
    with 2 (Re z)^2 = ab + Re z^2 gives the forms above.  At ideal nodes
    (u = 1, v = -1) they reduce to s = mu^2 + (1-mu)^2 and F = mu^2/s, the
    recursion of `purify_analytic`.
    """
    if not (0.0 <= mu <= 1.0):
        raise ValueError(f"mu = {mu} outside [0, 1]")
    u, v = coeffs.r + coeffs.t, coeffs.r0 + coeffs.t0
    a, b, z = abs(u) ** 2, abs(v) ** 2, u * v.conjugate()
    s16 = (2.0 * abs(u - v) ** 4 * mu ** 2
           + (8.0 * z.real * (a + b) - 6.0 * (a * a + b * b) - 4.0 * (z * z).real) * mu
           + 5.0 * (a * a + b * b) + 2.0 * (z * z).real + 4.0 * a * b)
    sf16 = mu * (abs(u + v) ** 4 - 2.0 * mu * (2.0 * z.real * (a + b) - 4.0 * a * b))
    if not s16 > 0.0:
        raise ValueError("no purification branch survives at these coefficients")
    return PurificationState(mu=sf16 / s16, round=1, success_probability=s16 / 16.0)


@dataclass(frozen=True)
class CrosscheckRow:
    quantity: str
    simulated: float
    analytic: float

    @property
    def deviation(self) -> float:
        return abs(self.simulated - self.analytic)


@dataclass(frozen=True)
class CrosscheckReport:
    rows: tuple[CrosscheckRow, ...]
    max_deviation: float
    ok: bool

    THRESHOLD = 1e-10


def crosscheck(coeffs: ScatterCoeffs) -> CrosscheckReport:
    """Replay distribution and parity check by state evolution; compare formulas."""
    quiet = NoiseChannel.identity()
    # (row label, closed forms, detections of the even parity, heralded branches)
    primitives = (("distribute", distribution_metrics(coeffs), ("R↑R↑", "L↓L↓"),
                   distribute_bell(quiet, quiet, coeffs, coeffs)),
                  ("pcd", pcd_metrics(coeffs), ("R_a1", "R_a2"),
                   pcd(uniform_spins(("e1", "e2")), "e1", "e2", coeffs)))
    rows: list[CrosscheckRow] = []
    for label, m, even_detections, outcomes in primitives:
        for out in outcomes:
            even = out.detection in even_detections
            p_ref = (m.eta_d_even if even else m.eta_d_odd) / 2.0
            rows.append(CrosscheckRow(f"{label} p({out.detection})", out.probability, p_ref))
            if out.fidelity is not None:
                f_ref = m.f_even if even else m.f_odd
                rows.append(CrosscheckRow(f"{label} F({out.detection})", out.fidelity, f_ref))

    worst = max(r.deviation for r in rows)
    return CrosscheckReport(rows=tuple(rows), max_deviation=worst,
                            ok=worst < CrosscheckReport.THRESHOLD)
