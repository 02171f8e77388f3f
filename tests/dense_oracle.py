"""Dense reference for entanglement distribution.

Evolves all photons and spins as one state vector through the time-bin
pipeline (encode, fiber, decode, phase, quarter-wave relabel, scatter) and
measures every photon.  The library builds the same branches from
per-photon transfer amplitudes; the tests compare the two.
"""

import math

from qdrepeater.protocols import uniform_spins
from qdrepeater.qstate import Register, measure, superposition, tensor
from qdrepeater.scatter import scatter
from qdrepeater.timebin import (
    OpticalElement,
    apply_element,
    apply_noise,
    decode,
    dir_label,
    encode,
    photon_register,
    pol_label,
    tb_label,
    to_circular,
)

RT2 = 1.0 / math.sqrt(2.0)

#: structurally possible single-photon detections after the decoder routing
PORTS = (("R", "up"), ("L", "dn"))


def run_distribution(photon_names, noises, coeffs_list, phase_photon, spin_labels):
    """Evolve source -> encoders -> fibers -> decoders -> cavities, then detect.

    Returns (grouped, survival): grouped maps each (pol, dir) detection
    pattern to a list of (time-bin outcome, probability, raw post state);
    survival is the squared norm after scattering, i.e. one minus the
    leak/noise loss.
    """
    n = len(photon_names)
    subsystems = []
    for nm in photon_names:
        subsystems.extend(photon_register(nm).subsystems)
    photons_reg = Register(tuple(subsystems))
    photonic = superposition(photons_reg, [
        (RT2, {pol_label(nm): "H" for nm in photon_names}),
        (RT2, {pol_label(nm): "V" for nm in photon_names}),
    ])
    state = tensor(photonic, uniform_spins(spin_labels))

    for nm, ch in zip(photon_names, noises):
        state = encode(state, nm)
        state = apply_noise(state, nm, ch)
        state = decode(state, nm)
    state = apply_element(state, OpticalElement("PHASE", {"angle": math.pi}),
                          [pol_label(phase_photon)])
    for nm in photon_names:
        state = to_circular(state, nm)
    for nm, lab, cf in zip(photon_names, spin_labels, coeffs_list):
        state = scatter(state, nm, lab, cf)

    survival = state.norm2
    targets = []
    for nm in photon_names:
        targets.extend([pol_label(nm), dir_label(nm), tb_label(nm)])
    branches = measure(state, targets, min_prob=None)

    grouped: dict[tuple, list] = {}
    stray = 0.0
    total = 0.0
    for br in branches:
        pattern = tuple((br.outcome[3 * i], br.outcome[3 * i + 1]) for i in range(n))
        tb = tuple(br.outcome[3 * i + 2] for i in range(n))
        total += br.probability
        if any(pd not in PORTS for pd in pattern):
            stray += br.probability
            continue
        grouped.setdefault(pattern, []).append((tb, br.probability, br.post))
    if stray > 1e-10:
        raise RuntimeError(f"amplitude {stray} escaped the decoder routing")
    if abs(total - survival) > 1e-10:
        raise RuntimeError("detection probabilities do not add up to the surviving norm")
    return grouped, survival
