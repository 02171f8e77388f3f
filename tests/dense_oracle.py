"""Dense references for entanglement distribution and the parity check.

`run_distribution` evolves all photons and spins as one state vector
through the time-bin pipeline (encode, fiber, decode, phase, quarter-wave
relabel, scatter) and measures every photon.  The library builds the same
branches from per-photon transfer amplitudes; the tests compare the two.

`run_pcd` evolves the probe photon of a parity check together with the
spins through the detector optics and measures it.  The library applies
the same optics as two diagonal spin operators; the tests compare the two.
"""

import math

import numpy as np

from qdrepeater.protocols import HeraldedOutcome, uniform_spins
from qdrepeater.qstate import (
    LinearMap,
    Register,
    Subsystem,
    apply_map,
    fidelity,
    linear_map,
    measure,
    superposition,
    tensor,
)
from qdrepeater.scatter import scatter, scatter_map
from qdrepeater.timebin import (
    OpticalElement,
    apply_element,
    apply_noise,
    decode,
    dir_label,
    encode,
    photon_register,
    pol_label,
    routing_map,
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
    branches = measure(state, targets)

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


# ---------------------------------------------------------------------------
# parity-check detection
# ---------------------------------------------------------------------------

#: branch weights below this are numerically dead, as in the library
ZERO = 1e-24

#: the ideal-interface parity projections (up to sign) on (spin1, spin2)
K_EVEN_IDEAL = LinearMap(np.diag([1.0, 0.0, 0.0, -1.0]).astype(complex))
K_ODD_IDEAL = LinearMap(np.diag([0.0, 1.0, -1.0, 0.0]).astype(complex))


def probe_state():
    """The probe photon (|R> + |L>)/sqrt(2), moving up, on input port a1."""
    reg = Register((
        Subsystem("probe_pol", "polarization", ("R", "L")),
        Subsystem("probe_dir", "path", ("up", "dn")),
        Subsystem("probe_path", "path", ("a1", "a2")),
    ))
    return superposition(reg, [(RT2, {"probe_pol": "R"}), (RT2, {"probe_pol": "L"})])


def _arm_scatter(coeffs, arm):
    """Scatter acting only in one spatial arm; identity in the other."""
    blk = scatter_map(coeffs).matrix
    full = np.zeros((16, 16), dtype=complex)
    for path in (0, 1):
        full[path * 8:(path + 1) * 8, path * 8:(path + 1) * 8] = blk if path == arm else np.eye(8)
    return linear_map(full)


def _cpbs_interference():
    """Output combiner: transmits R, swaps the spatial modes for L."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0          # R keeps a1
    m[1, 1] = 1.0          # R keeps a2
    m[2, 3] = 1.0          # L a2 -> a1
    m[3, 2] = 1.0          # L a1 -> a2
    return LinearMap(m, unitary=True)


def run_pcd(state, spin1, spin2, coeffs, eta_in=1.0):
    """Probe (x) spins -> BS -> routing -> scatter in each arm -> routing ->
    CPBS -> HWP, then detect the probe.

    Returns one `HeraldedOutcome` per detector port R_a1, R_a2, L_a1, L_a2
    with the raw post state of that port; fidelities compare it with the
    ideal-interface branch of the same parity.
    """
    work = tensor(probe_state(), state)
    work = apply_element(work, OpticalElement("BS"), ["probe_path"])
    work = apply_map(work, routing_map(), ["probe_pol", "probe_dir"])
    work = apply_map(work, _arm_scatter(coeffs, 0), ["probe_path", "probe_pol", "probe_dir", spin1])
    work = apply_map(work, _arm_scatter(coeffs, 1), ["probe_path", "probe_pol", "probe_dir", spin2])
    work = apply_map(work, routing_map(), ["probe_pol", "probe_dir"])
    work = apply_map(work, _cpbs_interference(), ["probe_pol", "probe_path"])
    work = apply_element(work, OpticalElement("HWP"), ["probe_pol"])

    ideal_targets = {}
    for parity, kraus in (("even", K_EVEN_IDEAL), ("odd", K_ODD_IDEAL)):
        branch = apply_map(state, kraus, [spin1, spin2])
        ideal_targets[parity] = branch.normalized() if branch.norm2 > ZERO else None

    outcomes = []
    for br in measure(work, ["probe_pol", "probe_path", "probe_dir"]):
        pol_out, path_out, dir_out = br.outcome
        if dir_out != "up":
            if br.probability > 1e-10:
                raise RuntimeError("amplitude escaped the output recombination")
            continue
        parity = "even" if pol_out == "R" else "odd"
        label = f"{pol_out}_{path_out}"
        if br.probability <= ZERO or br.post is None:
            outcomes.append(HeraldedOutcome(label, 0.0, (), None, None))
            continue
        tgt = ideal_targets[parity]
        fid = fidelity(br.post, tgt) if tgt is not None else None
        outcomes.append(HeraldedOutcome(label, br.probability * eta_in, (), br.post, fid))
    return outcomes
