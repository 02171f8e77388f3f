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
the worst disagreement with the formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cavity import ScatterCoeffs
from .protocols import check_eta_in, coupled_probability, distribute_bell, pcd, uniform_spins
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
