"""Heralded quantum-repeater simulator for spin-cavity nodes.

Exact state-vector simulation of heralded entanglement distribution with
time-bin encoded photons, parity-check detection, chain extension and
entanglement purification, together with the closed-form fidelity and
efficiency expressions they reproduce.
"""

from .cavity import IDEAL, CavityParams, ScatterCoeffs, full_coeffs, probability_sum, resonant_coeffs
from .metrics import CrosscheckReport, DistributionMetrics, crosscheck, distribution_metrics, pcd_metrics
from .protocols import (
    ChainReport,
    ChainScenario,
    HeraldedOutcome,
    PurificationState,
    SegmentSpec,
    channel_mixing_weight,
    distribute_bell,
    distribute_ghz,
    extend_chain,
    ghz_state,
    heralded_ensemble,
    pcd,
    phi_minus,
    phi_plus,
    purify_analytic,
    purify_round,
    run_chain,
    spin_register,
)
from .qstate import (
    Ensemble,
    LinearMap,
    Register,
    RegisterError,
    StateVector,
    Subsystem,
    apply_map,
    basis_state,
    fidelity,
    superposition,
    tensor,
)
from .scatter import scatter_map
from .timebin import NoiseChannel, apply_noise, decode, encode, photon_register

__version__ = "0.1.0"
