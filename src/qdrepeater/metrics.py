"""Closed-form fidelities and efficiencies, checked against full simulation.

With u = 1 + 2t and v = 1 + 2t0 the heralded performance of one two-node
distribution run is

    eta_even = (|u|^2 + |v|^2 + 2|1 + t + t0|^2) / 4
    eta_odd  = |t0 - t|^2 / 2
    eta      = (|u|^2 + |v|^2) / 2 = eta_even + eta_odd
    f_even   = |t0 - t|^2 / (2 eta_even)
    f_odd    = 1          where eta_odd > 0

A branch that heralds nothing (its eta is 0) has no fidelity: its f is
None, as in the simulation, and the CLI prints "-" for it.  At g = 0,
t = t0, so the odd branch is dead.

The parity-check detector obeys the same formulas branch for branch; only
its input-coupling adjustment differs (one photon pass instead of two).
``crosscheck`` replays both protocols by exact state evolution and reports
the worst disagreement with the formulas.  Chain extension splits the same
formulas over four measurement outcomes per parity (`extension_metrics`),
and one purification round has its own closed form at any node
(`purification_metrics`); both derivations are in their docstrings.  A
whole chain of ideal nodes has a closed form too (`chain_analytic`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .cavity import IDEAL, ScatterCoeffs
from .protocols import (
    ChainScenario,
    NoSurvivingBranchError,
    PurificationState,
    channel_mixing_weight,
    check_eta_in,
    check_mu,
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
    f_even: float | None
    f_odd: float | None
    eta_in_adjusted: float


def _metrics(coeffs: ScatterCoeffs, eta_in: float, passes: int) -> DistributionMetrics:
    """The closed forms, with ``eta_in`` applied once per photon pass."""
    check_eta_in(eta_in)
    u = 1.0 + 2.0 * coeffs.t
    v = 1.0 + 2.0 * coeffs.t0
    eta_even = (abs(u) ** 2 + abs(v) ** 2 + 2.0 * abs(1.0 + coeffs.t + coeffs.t0) ** 2) / 4.0
    eta_odd = abs(coeffs.t0 - coeffs.t) ** 2 / 2.0
    eta = (abs(u) ** 2 + abs(v) ** 2) / 2.0
    if abs(eta - (eta_even + eta_odd)) > 1e-12:
        raise AssertionError("parallelogram identity eta = eta_even + eta_odd failed")
    f_even = abs(coeffs.t0 - coeffs.t) ** 2 / (2.0 * eta_even) if eta_even > 0.0 else None
    return DistributionMetrics(
        eta_d_even=eta_even, eta_d_odd=eta_odd, eta_d=eta, f_even=f_even, f_odd=1.0 if eta_odd > 0.0 else None,
        eta_in_adjusted=coupled_probability(eta, eta_in, passes))


def distribution_metrics(coeffs: ScatterCoeffs, eta_in: float = 1.0) -> DistributionMetrics:
    """Heralded efficiency and fidelity of one Bell distribution run.

    ``eta_in`` multiplies the total efficiency once per photon pass; a
    distribution run has two.
    """
    return _metrics(coeffs, eta_in, passes=2)


def pcd_metrics(coeffs: ScatterCoeffs, eta_in: float = 1.0) -> DistributionMetrics:
    """Heralded efficiency and fidelity of one parity check (single photon pass)."""
    return _metrics(coeffs, eta_in, passes=1)


def extension_metrics(coeffs: ScatterCoeffs, eta_in: float = 1.0) -> dict[str, tuple[float, float | None]]:
    """(probability, fidelity) of every branch of `extend_chain` splicing two
    perfect Phi- pairs at a node with ``coeffs``, keyed by its branch label.

    Each of the four even branches has probability eta_even/4 and fidelity
    f_even, each odd branch eta_odd/4 and fidelity 1; ``eta_in`` enters once.
    A parity that heralds nothing has fidelity None on all four branches.

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
    check_mu(mu)
    u, v = coeffs.r + coeffs.t, coeffs.r0 + coeffs.t0
    a, b, z = abs(u) ** 2, abs(v) ** 2, u * v.conjugate()
    s16 = (2.0 * abs(u - v) ** 4 * mu ** 2
           + (8.0 * z.real * (a + b) - 6.0 * (a * a + b * b) - 4.0 * (z * z).real) * mu
           + 5.0 * (a * a + b * b) + 2.0 * (z * z).real + 4.0 * a * b)
    sf16 = mu * (abs(u + v) ** 4 - 2.0 * mu * (2.0 * z.real * (a + b) - 4.0 * a * b))
    if not s16 > 0.0:
        raise NoSurvivingBranchError("no purification branch survives at these coefficients")
    return PurificationState(mu=sf16 / s16, round=1, success_probability=s16 / 16.0)


def chain_analytic(scenario: ChainScenario) -> list[tuple[float, float]]:
    """(probability, fidelity) of every stage of a chain of ideal nodes, in
    `run_chain`'s order, each probability reported as `run_chain` reports it.

    Each segment starts at mu = `channel_mixing_weight` of its two fibers
    with probability eta_in^2.  Each purification round maps mu -> mu^2/s,
    s = mu^2 + (1 - mu)^2, with probability eta_in^2 s.  Each extension has
    probability eta_in, and the fidelity of the chain so far is
    (1 + prod(2 mu_i - 1))/2 over its segments.  A segment ending at a node
    other than `IDEAL` is rejected: practical nodes leave states that are
    not Bell-diagonal, which this recursion does not describe.
    """
    scenario.validate()
    eta_in = scenario.eta_in
    stages, mus = [], []
    for seg in scenario.segments:
        for node in (seg.left, seg.right):
            if scenario.nodes[node] != IDEAL:
                raise ValueError(f"segment {seg.name}: node {node!r} is not ideal; "
                                 "the chain closed form holds for ideal nodes only")
        mu = channel_mixing_weight([seg.noise_left, seg.noise_right])
        stages.append((coupled_probability(1.0, eta_in, 2), mu))
        for _ in range(scenario.purify_rounds):
            s = mu ** 2 + (1.0 - mu) ** 2
            mu = mu ** 2 / s
            stages.append((coupled_probability(s, eta_in, 2), mu))
        mus.append(mu)
    for k in range(2, len(mus) + 1):
        fid = (1.0 + math.prod(2.0 * mu - 1.0 for mu in mus[:k])) / 2.0
        stages.append((coupled_probability(1.0, eta_in, 1), fid))
    return stages


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


#: row label -> (closed form, detections of the even parity, heralded
#: branches from (coeffs, eta_in)): a Bell pair over quiet fibers and a
#: parity check of two uniform spins, the runs `crosscheck` replays
REFERENCE_RUNS = {
    "distribute": (distribution_metrics, ("R↑R↑", "L↓L↓"), lambda coeffs, eta_in: distribute_bell(
        NoiseChannel.identity(), NoiseChannel.identity(), coeffs, coeffs, eta_in=eta_in)),
    "pcd": (pcd_metrics, ("R_a1", "R_a2"), lambda coeffs, eta_in: pcd(
        uniform_spins(("e1", "e2")), "e1", "e2", coeffs, eta_in=eta_in)),
}


def crosscheck(coeffs: ScatterCoeffs) -> CrosscheckReport:
    """Replay distribution and parity check by state evolution; compare formulas."""
    rows: list[CrosscheckRow] = []
    for label, (closed_form, even_detections, simulate) in REFERENCE_RUNS.items():
        m = closed_form(coeffs)
        for out in simulate(coeffs, 1.0):
            even = out.detection in even_detections
            p_ref = (m.eta_d_even if even else m.eta_d_odd) / 2.0
            rows.append(CrosscheckRow(f"{label} p({out.detection})", out.probability, p_ref))
            if out.fidelity is not None:
                f_ref = m.f_even if even else m.f_odd
                rows.append(CrosscheckRow(f"{label} F({out.detection})", out.fidelity, f_ref))

    worst = max(r.deviation for r in rows)
    return CrosscheckReport(rows=tuple(rows), max_deviation=worst,
                            ok=worst < CrosscheckReport.THRESHOLD)
