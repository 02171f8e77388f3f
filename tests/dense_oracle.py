"""Dense references for distribution, the parity check, extension and purification.

`run_distribution` evolves all photons and spins as one state vector
through the time-bin pipeline (encode, fiber, decode, phase, quarter-wave
relabel, scatter) and measures every photon.  It decodes with
`decode_elements`, the decoder's optical elements one step at a time,
where the library applies one routing map, `decode_map`.
`distribution_branches` builds the uncorrected (port pattern, time bin,
spin) amplitude array from per-photon transfer amplitudes with one
broadcast product per photon over 3n axes of size 2; the tests hold it to
`run_distribution`.
`ghz_correction_search` finds each GHZ pattern's correction by trying
candidates at ideal nodes; the library applies a fixed rule.
`collect_outcomes_scalar` reads the outcomes off that array one port
pattern at a time, correcting each state with one dense matrix.  The
library forms the array already corrected, each correction applied to
each photon's factor, and lists the outcomes in whole-array steps; the
tests compare the two.  `pattern_corrections_loop` writes those per-photon
correction tables, positions in the flat per-photon transfers and signs,
one numpy element at a time; the library builds them in whole-list steps,
and the tests hold the two to equal arrays.

`run_pcd` evolves the probe photon of a parity check together with the
spins through the detector optics and measures it, the spins' even and odd
parts apart.  The library applies the same optics as two diagonal spin
operators; the tests compare the two.
`pcd_per_parity` applies those operators one parity at a time with
`apply_map` and builds every port's state on its own; the library forms
both parities and their ideal targets in one broadcast product.

`extend_chain_gates`, `purify_gates` and `run_chain_gates` run chain
extension and purification gate by gate: a parity check from the `pcd`
ports, Hadamard and Pauli gates one spin at a time, and `measure`.  The
library applies each heralded branch as one cached map; the tests compare
the two.  `extension_maps_loop` and `purification_maps_loop` build those
map stacks one branch at a time from Kronecker and matrix products of
integer gates with exact power-of-two scales; the library multiplies its
nodes' terms by exact tables of their coefficients.  The extension stack
equals its oracle entry for entry.  The purification oracle is exact
arithmetic on the nodes' rounded u and v, rounded once
(`exact_purification_maps`), so its zeros are the structural ones; the
library's stack has the same zeros and is within a rounding elsewhere, and
`exact_bell_weights` gives `_bell_weights`' zeros the same way.

`measure` is the projective measurement these references detect with, and
`scatter` applies the library's `scatter_map` to one photon and one spin
of a register.

A mixture of pure states here is a pair (weights, rows): a weight vector and
a stack of unit amplitude rows, the form the library's pair stage pools.
`pool_scalar` pools a mixture's members one `np.allclose` at a time; the
library compares, all at once, only the pairs of members whose sums of
entry magnitudes lie within one window.
`pair_stage_scalar` runs a pair stage one member pair and one branch map at
a time and pools with `pool_scalar`; the library forms all pairs and applies
each map to all of them as array products.

`run_chain_rho` runs a chain on 4x4 density matrices: every stage is
rho' = sum_A A (rho_a x rho_b) A^dagger over the library's cached branch
maps, so nothing is pooled under a tolerance (ROADMAP item 2's step); it
returns the stages and the final matrix.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from qdrepeater import protocols
from qdrepeater.cavity import IDEAL
from qdrepeater.protocols import (
    ChainReport,
    HeraldedOutcome,
    StageResult,
    check_eta_in,
    coupled_probability,
    distribute_bell,
    ghz_state,
    pcd,
    phi_minus,
    spin_register,
    uniform_spins,
)
from qdrepeater.qstate import (
    LinearMap,
    Register,
    RegisterError,
    StateVector,
    Subsystem,
    apply_map,
    fidelity,
    hadamard,
    superposition,
    tensor,
)
from qdrepeater.scatter import scatter_map
from qdrepeater.timebin import (
    DIRECTION,
    POL_CIRCULAR,
    TB_DECODED,
    NoiseChannel,
    apply_noise,
    decode_map,
    delay,
    dir_label,
    encode,
    encode_map,
    phase_shift_map,
    photon_register,
    pockels,
    pol_label,
    qwp,
    routing_map,
    tb_label,
)

from conftest import sigma_x, sigma_z

RT2 = 1.0 / math.sqrt(2.0)

#: structurally possible single-photon detections after the decoder routing
PORTS = (("R", "up"), ("L", "dn"))

#: branch weights below this are numerically dead, as in the library
ZERO = 1e-24

#: members equal up to a phase within this (and numpy's default rtol, 1e-5)
#: are pooled, as in the library
MERGE_TOL = 1e-10


@dataclass(frozen=True)
class MeasurementBranch:
    outcome: tuple[str, ...]
    probability: float
    post: StateVector | None


def _unit(amps, norm2):
    """``amps / sqrt(norm2)``, with ``norm2`` the sum of |amps|^2.

    Below the smallest normal float that sum has lost its precision, so the
    amplitudes are rescaled and their squared norm is summed again first.
    """
    if norm2 < np.finfo(float).tiny:
        amps = amps / np.max(np.abs(amps))
        norm2 = float(np.vdot(amps, amps).real)
    return amps / math.sqrt(norm2)


def measure(state, targets) -> list[MeasurementBranch]:
    """Projective measurement of the target subsystems.

    Outcomes are labeled by level names in target order, and every
    combinatorial outcome is listed.  Branch probabilities sum to the
    squared norm of the input.  Post states are normalized and live on the
    register with the measured subsystems removed; a zero-probability
    outcome has post state ``None``.
    """
    targets = list(targets)
    if not targets:
        raise RegisterError("measurement needs at least one target")
    if len(set(targets)) != len(targets):
        raise RegisterError(f"duplicate targets {targets}")
    reg = state.register
    pos = [reg.position(t) for t in targets]
    level_sets = [reg.subsystems[p].levels for p in pos]
    block = np.moveaxis(state.tensor_axes(), pos, range(len(pos)))
    block = block.reshape(math.prod(len(levels) for levels in level_sets), -1)
    probs = np.sum(np.abs(block) ** 2, axis=1)
    remaining = reg.without(targets)
    branches = []
    for k, outcome in enumerate(itertools.product(*level_sets)):
        p = float(probs[k])
        post = StateVector(remaining, _unit(block[k], p)) if p > 0.0 else None
        branches.append(MeasurementBranch(outcome=outcome, probability=p, post=post))
    return branches


def scatter(state, photon, spin, coeffs) -> StateVector:
    """Scatter one photon off one spin; output norm may shrink (leak/noise loss)."""
    pol = pol_label(photon)
    direction = dir_label(photon)
    reg = state.register
    if not reg.has(direction):
        raise RegisterError(f"photon {photon!r} has no direction subsystem")
    if not reg.has(pol):
        raise RegisterError(f"photon {photon!r} has no polarization subsystem")
    if reg.subsystem(pol).levels != POL_CIRCULAR:
        raise RegisterError(
            f"photon {photon!r} must be in the circular basis (R, L); apply the quarter-wave relabel first"
        )
    if reg.subsystem(direction).levels != DIRECTION:
        raise RegisterError(f"photon {photon!r} direction levels must be {DIRECTION}")
    return apply_map(state, scatter_map(coeffs), [pol, direction, spin])


#: total delay count decides the arrival class: sp collects the two-delay
#: windows, lp the one-delay windows
DECODE_CLASSES = {"sll": "sp", "lls": "sp", "ssl": "lp", "lss": "lp"}


def collapse_timebin(state, photon) -> StateVector:
    """Merge indistinguishable arrival windows into the classes `TB_DECODED`.

    Amplitudes of windows of the same class add coherently; windows absent
    from `DECODE_CLASSES` must carry no amplitude.
    """
    reg = state.register
    tb = reg.subsystem(tb_label(photon))
    t_ax = reg.position(tb.label)
    psi = np.moveaxis(state.tensor_axes(), t_ax, 0)
    out = np.zeros((len(TB_DECODED),) + psi.shape[1:], dtype=complex)
    for k, lev in enumerate(tb.levels):
        dest = DECODE_CLASSES.get(lev)
        if dest is None:
            weight = float(np.sum(np.abs(psi[k]) ** 2))
            if weight > 1e-20:
                raise RegisterError(f"unexpected amplitude {weight} in arrival window {lev!r}")
            continue
        out[TB_DECODED.index(dest)] += psi[k]
    new_reg = reg.replace(tb.label, Subsystem(tb.label, TB_DECODED))
    out = np.moveaxis(out, 0, new_reg.position(tb.label))
    result = StateVector(new_reg, out.reshape(-1))
    if abs(result.norm2 - state.norm2) > 1e-10:
        raise RegisterError("arrival-window collapse changed the norm; windows were not disjoint")
    return result


def decode_elements(state, photon) -> StateVector:
    """`decode` as its interferometer chain, element by element.

    Delay on the H component (bin register 2 -> 4), window-gated
    polarization flip on the mixed windows (sl, ls), polarizing split that
    writes the direction tag (H -> up, V -> dn), delay on the V component
    (4 -> 8), and collapse of same-delay windows (8 -> 2, levels sp/lp).
    `decode`'s input checks are left to `decode`.
    """
    state = delay(state, photon, "H")
    state = pockels(state, photon, ("sl", "ls"))
    state = apply_map(state, routing_map(), [pol_label(photon), dir_label(photon)])
    state = delay(state, photon, "V")
    return collapse_timebin(state, photon)


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
        state = decode_elements(state, nm)
    state = apply_map(state, phase_shift_map(math.pi), [pol_label(phase_photon)])
    for nm in photon_names:
        state = qwp(state, nm)
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


#: per-photon detection outcomes a branch lists, port by port, each with its
#: sp and lp arrival class; rows of the 8-dimensional (circular polarization,
#: direction, decoded time bin) output of one photon's path
PORT_ROWS = [4 * POL_CIRCULAR.index(pol) + 2 * DIRECTION.index(d) + k
             for pol, d in PORTS for k in range(len(TB_DECODED))]


def photon_transfer(noise, coeffs, phased):
    """Amplitudes v[s, o, spin] left by one photon's path, from the pipeline's matrices.

    The photon leaves the source with polarization s (H, V) in the early
    bin and runs encode -> fiber -> decode -> (pi phase) -> quarter-wave
    relabel -> scatter off its spin, which starts in |+>.  o indexes the
    photon's (circular polarization, direction, decoded time bin) outcome.
    """
    # source columns Hs and Vs of the (polarization, raw time bin) basis; the
    # decoder's columns Hs, Hl, Vs, Vl with the direction tag up are 0, 1, 4, 5
    path = decode_map().matrix[:, [0, 1, 4, 5]] @ noise.matrix() @ encode_map().matrix[:, [0, 2]]
    if phased:
        path = np.kron(phase_shift_map(math.pi).matrix, np.eye(4)) @ path
    # the scattering map acts on (polarization, direction, spin); the time bin is a spectator
    s_plus = scatter_map(coeffs).matrix.reshape(8, 4, 2) @ np.array([RT2, RT2])
    v = np.einsum("pdxq,qts->spdtx", s_plus.reshape(2, 2, 2, 4), path.reshape(4, 2, 2))
    return v.reshape(2, 8, 2)


def distribution_branches(noises, coeffs_list, phase_photon):
    """Heralded spin amplitudes of n-photon distribution as one dense array.

    The source emits (|H...H> + |V...V>)/sqrt(2), and every photon runs its
    own path to its own spin, so the state before detection is
    (x_i v_i[H] + x_i v_i[V])/sqrt(2) with x the tensor product; photon
    ``phase_photon`` gets the pi phase.  Returns (amps, survival): amps[k, j]
    holds the unnormalized, uncorrected 2^n spin amplitudes of port pattern
    k and time-bin outcome j, both listed photon by photon in
    ``itertools.product`` order (ports `PORTS`, time bins `TB_DECODED`);
    survival is the squared norm after scattering, i.e. one minus the
    leak/noise loss.  The library forms the same array already corrected,
    photon by photon; this one is built with one broadcast product per
    photon over 3n axes of size 2.
    """
    n = len(noises)
    v = [photon_transfer(ch, cf, i == phase_photon) for i, (ch, cf) in enumerate(zip(noises, coeffs_list))]
    # photon i's (port, time bin, spin) on axes 1 + (i, n + i, 2n + i); products in np.kron's order
    both = functools.reduce(np.multiply, [vi[:, PORT_ROWS].reshape(
        (2,) + tuple(2 if a % n == i else 1 for a in range(3 * n))) for i, vi in enumerate(v)])
    amps = RT2 * both.sum(axis=0).reshape(2 ** n, 2 ** n, 2 ** n)

    # <x_i a_i, x_i b_i> = prod_i <a_i, b_i> gives the full norm, stray ports included
    overlap = [[math.prod(np.vdot(vi[a], vi[b]) for vi in v) for b in (0, 1)] for a in (0, 1)]
    survival = 0.5 * float((overlap[0][0] + overlap[1][1] + 2.0 * overlap[0][1]).real)
    if abs(float(np.sum(np.abs(amps) ** 2)) - survival) > 1e-10:
        raise RuntimeError("port detections do not add up to the surviving norm")
    return amps, survival


def pattern_corrections_loop(correction_for, n):
    """(gather, sign) tables of per-photon corrections, as `distribute_ghz`
    reads them off the flat per-photon transfers v[i, p, d, spin, t, s]:
    photon i's factor of pattern k is corrected to
    sign[i, 0, k, 0, b] * v.flat[gather[i, s, k, t, b]] for spin b, written
    one element at a time, each gate of a pattern's rule in the rule's
    order; gather names the entry at the photon's port (p, d) whose spin
    the gates moved to b."""
    index = np.empty((n, 2 ** n, 2), dtype=np.intp)     # 2 * port + the spin that lands on b
    sign = np.ones((n, 1, 2 ** n, 1, 2))
    for k, pattern in enumerate(itertools.product(PORTS, repeat=n)):
        for i, port in enumerate(pattern):
            index[i, k] = 2 * PORTS.index(port) + np.arange(2)
        for g, i in correction_for(pattern):      # x swaps spin i's up and dn, z negates its dn
            if g == "x":
                index[i, k], sign[i, 0, k, 0] = index[i, k, ::-1], sign[i, 0, k, 0, ::-1]
            else:
                sign[i, 0, k, 0, 1] *= -1.0
    gather = np.empty((n, 2, 2 ** n, 2, 2), dtype=np.intp)
    for i, s, k, t, b in itertools.product(range(n), range(2), range(2 ** n), range(2), range(2)):
        port, spin = divmod(int(index[i, k, b]), 2)
        pol, d = PORTS[port]
        gather[i, s, k, t, b] = np.ravel_multi_index(
            (i, POL_CIRCULAR.index(pol), DIRECTION.index(d), spin, t, s), (n, 2, 2, 2, 2, 2))
    return gather, sign


def ghz_correction_search(n):
    """Per-pattern corrections of n-party GHZ distribution, found by search.

    At ideal nodes and quiet fibers each pattern heralds one state.  The
    candidates are spin flips on the photons detected in one port class,
    optionally followed by a phase flip on the first spin; the shortest
    candidate that reaches unit fidelity against the GHZ target wins.
    Returns {pattern: ((gate, spin label), ...)} in pattern product order.
    """
    labels = [f"e_{chr(ord('a') + i)}" for i in range(n)]
    amps, _ = distribution_branches([NoiseChannel.identity()] * n, [IDEAL] * n, phase_photon=0)
    target = ghz_state(labels)
    table = {}
    for pattern, pat_amps in zip(itertools.product(PORTS, repeat=n), amps):
        heralded = next(a for a in pat_amps if np.vdot(a, a).real > ZERO)
        post = StateVector(spin_register(labels), heralded / np.linalg.norm(heralded))
        classes = [tuple(("x", lab) for lab, pd in zip(labels, pattern) if pd == port) for port in PORTS]
        candidates = []
        for flips in ((), *classes):
            for z in ((), (("z", labels[0]),)):
                if flips + z not in candidates:
                    candidates.append(flips + z)
        candidates.sort(key=len)
        table[pattern] = next(cand for cand in candidates
                              if abs(fidelity(apply_gates(post, cand), target) - 1.0) < 1e-10)
    return table


def collect_outcomes_scalar(amps, noises, spin_labels, corrections, target, eta_in):
    """Distribution outcomes read off `distribution_branches`' ``amps`` one
    port pattern at a time, each state corrected by one dense matrix.

    ``corrections`` maps each port pattern to its ((gate, spin label), ...)
    correction.  A pattern lists each live time-bin outcome when some fiber's
    late bin rotates differently from its early one, else its first live
    one, with the live probabilities added one by one; a pattern with none
    is listed with probability 0.0 and no post state.  The correction is the
    Kronecker product of each spin's gates, applied as one matrix product.
    """
    n = len(spin_labels)
    reg = spin_register(spin_labels)
    split = any(ch.delta_l != ch.delta or ch.eta_l != ch.eta for ch in noises)
    tb_names = [",".join(bins) for bins in itertools.product(TB_DECODED, repeat=n)]
    probs = np.sum(np.abs(amps) ** 2, axis=2)
    outcomes = []
    for pattern, pat_amps, pat_probs in zip(itertools.product(PORTS, repeat=n), amps, probs):
        gates = corrections[pattern]
        label = "".join(pol + ("↑" if d == "up" else "↓") for pol, d in pattern)
        live = np.flatnonzero(pat_probs > ZERO)
        if not live.size:
            outcomes.append(HeraldedOutcome(label, 0.0, gates, None, None))
            continue
        if split:
            reported = [(f"{label}:{tb_names[j]}", p) for j, p in zip(live.tolist(), pat_probs[live].tolist())]
        else:
            total = 0.0
            for p in pat_probs[live].tolist():
                total += p
            reported = [(label, total)]
            live = live[:1]
        per_spin = [functools.reduce(lambda m, g: GATES[g].matrix @ m, [g for g, lab in gates if lab == spin],
                                     np.eye(2)) for spin in spin_labels]
        matrix = functools.reduce(np.kron, per_spin)
        posts = (pat_amps[live] / np.sqrt(pat_probs[live])[:, None]) @ matrix.T
        fids = np.abs(posts @ target.amplitudes.conj()) ** 2 / np.sum(np.abs(posts) ** 2, axis=1)
        for (name, p), post, fid in zip(reported, posts, fids.tolist()):
            outcomes.append(HeraldedOutcome(name, coupled_probability(p, eta_in, n), gates,
                                            StateVector(reg, post), fid))
    return outcomes


# ---------------------------------------------------------------------------
# parity-check detection
# ---------------------------------------------------------------------------

#: the ideal-interface parity projections (up to sign) on (spin1, spin2)
K_EVEN_IDEAL = LinearMap(np.diag([1.0, 0.0, 0.0, -1.0]).astype(complex))
K_ODD_IDEAL = LinearMap(np.diag([0.0, 1.0, -1.0, 0.0]).astype(complex))


def probe_state():
    """The probe photon (|R> + |L>)/sqrt(2), moving up, on input port a1."""
    reg = Register((
        Subsystem("probe_pol", ("R", "L")),
        Subsystem("probe_dir", ("up", "dn")),
        Subsystem("probe_path", ("a1", "a2")),
    ))
    return superposition(reg, [(RT2, {"probe_pol": "R"}), (RT2, {"probe_pol": "L"})])


def _arm_scatter(coeffs, arm):
    """Scatter acting only in one spatial arm; identity in the other."""
    blk = scatter_map(coeffs).matrix
    full = np.zeros((16, 16), dtype=complex)
    for path in (0, 1):
        full[path * 8:(path + 1) * 8, path * 8:(path + 1) * 8] = blk if path == arm else np.eye(8)
    return LinearMap(full)


def _cpbs_interference():
    """Output combiner: transmits R, swaps the spatial modes for L."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0          # R keeps a1
    m[1, 1] = 1.0          # R keeps a2
    m[2, 3] = 1.0          # L a2 -> a1
    m[3, 2] = 1.0          # L a1 -> a2
    return LinearMap(m, unitary=True)


#: projectors of (spin1, spin2) onto equal (even) and unequal (odd) spins
PARITY_PROJECTORS = {"even": LinearMap(np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)),
                     "odd": LinearMap(np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex))}


def _pcd_optics(state, spin1, spin2, coeffs):
    """Probe (x) spins -> BS -> routing -> scatter in each arm -> routing -> CPBS -> HWP."""
    work = tensor(probe_state(), state)
    work = apply_map(work, hadamard(), ["probe_path"])
    work = apply_map(work, routing_map(), ["probe_pol", "probe_dir"])
    work = apply_map(work, _arm_scatter(coeffs, 0), ["probe_path", "probe_pol", "probe_dir", spin1])
    work = apply_map(work, _arm_scatter(coeffs, 1), ["probe_path", "probe_pol", "probe_dir", spin2])
    work = apply_map(work, routing_map(), ["probe_pol", "probe_dir"])
    work = apply_map(work, _cpbs_interference(), ["probe_pol", "probe_path"])
    return apply_map(work, hadamard(), ["probe_pol"])


def run_pcd(state, spin1, spin2, coeffs, eta_in=1.0):
    """Run the probe's optics (`_pcd_optics`) on the spins, then detect the probe.

    Returns one `HeraldedOutcome` per detector port R_a1, R_a2, L_a1, L_a2
    with the raw post state of that port; fidelities compare it with the
    ideal-interface branch of the same parity.

    The optics are linear, so they run on the spins' even and odd parts
    apart.  The R ports detect the sum of both outputs.  The L ports detect
    the odd part's output alone, and the even part must herald nothing
    there, so the rounding of a large even part lands in no small odd branch.
    """
    parts = {parity: _pcd_optics(apply_map(state, proj, [spin1, spin2]), spin1, spin2, coeffs)
             for parity, proj in PARITY_PROJECTORS.items()}
    probe = ["probe_pol", "probe_path", "probe_dir"]
    if any(br.outcome[0] == "L" and br.probability > ZERO for br in measure(parts["even"], probe)):
        raise RuntimeError("the even spins reached an odd port")
    work = StateVector(parts["even"].register, parts["even"].amplitudes + parts["odd"].amplitudes)

    ideal_targets = {}
    for parity, kraus in (("even", K_EVEN_IDEAL), ("odd", K_ODD_IDEAL)):
        branch = apply_map(state, kraus, [spin1, spin2])
        ideal_targets[parity] = branch.normalized() if branch.norm2 > ZERO else None

    outcomes = []
    ports = ([br for br in measure(work, probe) if br.outcome[0] == "R"]
             + [br for br in measure(parts["odd"], probe) if br.outcome[0] == "L"])
    for br in ports:
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


def parity_maps(coeffs):
    """(parity, diagonal spin operator) of a parity check on (spin1, spin2),
    from u = r + t and v = r0 + t0 as `_parity_operators` documents them."""
    u = coeffs.r + coeffs.t
    v = coeffs.r0 + coeffs.t0
    return (("even", LinearMap(np.diag([u, (u + v) / 2.0, (u + v) / 2.0, v]))),
            ("odd", LinearMap(np.diag([0.0, (u - v) / 2.0, (v - u) / 2.0, 0.0]))))


#: the two detector ports of each parity: (label, sign of the amplitude)
PCD_PORTS = {"even": (("R_a1", 1.0), ("R_a2", 1.0)), "odd": (("L_a1", 1.0), ("L_a2", -1.0))}


def pcd_per_parity(state, spin1, spin2, coeffs, eta_in=1.0):
    """`pcd` one parity at a time: each parity's operator and its
    ideal-interface operator applied with `apply_map`, and each port's post
    state and fidelity built as a single `StateVector`.

    A parity whose ports carry no more than the dead-branch weight has
    probability 0 and post state None; a dead ideal target gives fidelity None.
    """
    check_eta_in(eta_in)
    for lab in (spin1, spin2):
        if not state.register.has(lab):
            raise RegisterError(f"no spin labeled {lab!r} in the input state")
    if abs(state.norm2 - 1.0) > 1e-9:
        raise ValueError("PCD input state must be normalized")
    outcomes = []
    for (parity, kraus), (_, ideal) in zip(parity_maps(coeffs), parity_maps(IDEAL)):
        heralded = apply_map(state, kraus, [spin1, spin2])
        p = heralded.norm2
        if p / 2.0 <= ZERO:
            outcomes += [HeraldedOutcome(label, 0.0, (), None, None) for label, _ in PCD_PORTS[parity]]
            continue
        target = apply_map(state, ideal, [spin1, spin2])
        target = target.normalized() if target.norm2 > ZERO else None
        for label, sign in PCD_PORTS[parity]:
            post = StateVector(heralded.register, sign * (heralded.amplitudes / math.sqrt(p)))
            fid = fidelity(post, target) if target is not None else None
            outcomes.append(HeraldedOutcome(label, coupled_probability(p / 2.0, eta_in, 1), (), post, fid))
    return outcomes


# ---------------------------------------------------------------------------
# chain extension and purification, gate by gate
# ---------------------------------------------------------------------------

GATES = {"x": sigma_x(), "z": sigma_z(), "h": hadamard()}


def apply_gates(state, gates):
    for name, label in gates:
        state = apply_map(state, GATES[name], [label])
    return state


def parity_branches(state, spin1, spin2, coeffs, eta_in):
    """parity -> (probability, post state or None) from the pcd ports R_a1 and L_a1.

    The two ports of a parity herald the same state with half the probability each.
    """
    ports = {o.detection: o for o in pcd(state, spin1, spin2, coeffs, eta_in)}
    return {parity: (2.0 * ports[port].probability, ports[port].post_state)
            for parity, port in (("even", "R_a1"), ("odd", "L_a1"))}


def extension_gates(parity, m1, m2, label_d):
    """Recorded correction on the fresh end spin: a flip after an odd parity,
    a phase flip after unequal measurement outcomes."""
    return ((("x", label_d),) if parity == "odd" else ()) + ((("z", label_d),) if m1 != m2 else ())


#: x, z and sqrt(2) h as integers, from which the instrument stacks below are built with exact scales
INTEGER_GATES = {"x": np.array([[0, 1], [1, 0]]), "z": np.array([[1, 0], [0, -1]]), "h": np.array([[1, 1], [1, -1]])}


def gate_product(names):
    """The integer gates ``names``, applied in order, as one 2x2 integer matrix."""
    return functools.reduce(lambda m, g: INTEGER_GATES[g] @ m, names, np.eye(2, dtype=int))


#: (parity, m1, m2) of each instrument branch, in the library's order
BRANCHES = tuple((parity, m1, m2) for parity in ("even", "odd")
                 for m1, m2 in itertools.product(("up", "dn"), repeat=2))


def extension_maps_loop(coeffs):
    """The (8, 2, 8) extension stack, branch by branch: G_d <m1 m2|(H x H) K_parity,
    with H x H the integer H2 x H2 over 2."""
    h = INTEGER_GATES["h"]
    kraus = protocols._parity_operators(coeffs)
    maps = np.empty((len(BRANCHES), 2, 8), dtype=complex)
    for i, (parity, m1, m2) in enumerate(BRANCHES):
        row = (np.kron(h, h) @ np.diag(kraus[i // 4]))[i % 4] / 2
        gate = gate_product(g for g, _ in extension_gates(parity, m1, m2, None))
        maps[i] = np.kron(row, gate)
    return maps


def exact_parity_operators(coeffs):
    """Both parity operators of a node in exact integer arithmetic, from u = r + t and
    v = r0 + t0 as the rounded sums they are: the real and the imaginary parts of the
    (2, 4) rows diag(u, (u+v)/2, (u+v)/2, v) and diag(0, (u-v)/2, (v-u)/2, 0), as object
    arrays of Python integers over one power of two, and its exponent."""
    ratios = [x.as_integer_ratio() for z in (coeffs.r + coeffs.t, coeffs.r0 + coeffs.t0) for x in (z.real, z.imag)]
    e = max(d.bit_length() for _, d in ratios)      # each d is a power of two below 2**e
    (ur, ui), (vr, vi) = np.array([n << (e + 1 - d.bit_length()) for n, d in ratios], dtype=object).reshape(2, 2)
    # u, v over 2**e, so the operators' halves are whole over 2**(e + 1)
    return [np.array([[2 * u, u + v, u + v, 2 * v], [0, u - v, v - u, 0]], dtype=object)
            for u, v in ((ur, vr), (ui, vi))] + [e + 1]


def exact_purification_maps(coeffs_a, coeffs_b):
    """The (8, 4, 16) purification stack, branch by branch, in exact integer arithmetic: the
    kept copy after Hadamards on all four spins, the two parity checks, the Hadamard
    measurement of a and b and the recorded corrections, every gate an integer one.  Returns
    the real and the imaginary parts as object arrays of Python integers over one power of two
    (the eight Hadamards' 1/sqrt(2) an exact 1/16 of it), and its exponent."""
    h = INTEGER_GATES["h"]
    rotate = functools.reduce(np.kron, [h] * 4)
    ar, ai, ea = exact_parity_operators(coeffs_a)
    br, bi, eb = exact_parity_operators(coeffs_b)
    maps = np.empty((2, len(BRANCHES), 4, 16), dtype=object)
    for i, (parity, m1, m2) in enumerate(BRANCHES):
        # both checks are diagonal: entry (a, b, a', b') is K_a[a, a'] K_b[b, b']
        k = i // 4
        kron = [np.einsum("ac,bd->abcd", x[k].reshape(2, 2), y[k].reshape(2, 2)).reshape(16)
                for x, y in ((ar, br), (ai, bi), (ar, bi), (ai, br))]
        pre = gate_product(("x", "h") if parity == "odd" else ("h",))
        row = np.kron(pre, pre)[i % 4]
        post = np.kron(gate_product(("z", "h") if m1 != m2 else ("h",)), h)
        for part, check in enumerate((kron[0] - kron[1], kron[2] + kron[3])):
            maps[part, i] = np.kron(row, post) @ (check[:, None] * rotate)
    return maps[0], maps[1], ea + eb + 4


def rounded(parts, e):
    """Integers over 2**e as the nearest floats: Python's integer division rounds correctly."""
    return np.array([n / (1 << e) for n in parts.ravel()]).reshape(parts.shape)


def purification_maps_loop(coeffs_a, coeffs_b):
    """`exact_purification_maps`, each entry rounded once to the nearest complex float."""
    re, im, e = exact_purification_maps(coeffs_a, coeffs_b)
    return rounded(re, e) + 1j * rounded(im, e)


#: Phi-, Phi+, Psi- and Psi+ times sqrt(2) as integer signs, and the pairs of Phi- and Phi+ over two copies
BELL_SIGNS = np.array([[1, 0, 0, -1], [1, 0, 0, 1], [0, 1, -1, 0], [0, 1, 1, 0]])
BELL_PAIRS = np.kron(BELL_SIGNS[:2], BELL_SIGNS[:2])


def exact_bell_weights(coeffs):
    """`_bell_weights` from `exact_purification_maps` at ``coeffs`` on both parties,
    W[m, 2i + j] = sum_k |<B_m|A_k|B_i B_j>|^2 over the sign tables, exact until its one rounding."""
    re, im, e = exact_purification_maps(coeffs, coeffs)
    squares = [(BELL_SIGNS @ part @ BELL_PAIRS.T) ** 2 for part in (re, im)]
    return rounded((squares[0] + squares[1]).sum(axis=0), 2 * e)


def extend_chain_gates(ghz, bell, joint_node, coeffs, eta_in=1.0):
    """`extend_chain` as parity check, two Hadamards and a measurement of (z, z')."""
    label_z, label_zp = joint_node
    label_d = next(lab for lab in bell.register.labels if lab != label_zp)
    state = tensor(ghz, bell)
    survivors = [lab for lab in state.register.labels if lab not in (label_z, label_zp)]
    target = ghz_state(survivors, -1)
    outcomes = []
    # dead branches are decided at unit input coupling, as in the library
    for parity, (p_par, post) in parity_branches(state, label_z, label_zp, coeffs, 1.0).items():
        branches = (measure(apply_gates(post, (("h", label_z), ("h", label_zp))), [label_z, label_zp])
                    if post is not None else [])
        for m1, m2 in itertools.product(("up", "dn"), repeat=2):
            gates = extension_gates(parity, m1, m2, label_d)
            label = f"{parity}:{m1},{m2}"
            br = next((b for b in branches if b.outcome == (m1, m2)), None)
            p = p_par * br.probability if br is not None else 0.0
            if br is None or br.post is None or p <= ZERO:
                outcomes.append(HeraldedOutcome(label, 0.0, gates, None, None))
                continue
            final = apply_gates(br.post, gates)
            outcomes.append(HeraldedOutcome(label, p * eta_in, gates, final, fidelity(final, target)))
    return outcomes


def merge(weighted):
    """(weight, normalized state) pairs pooled by `pool_scalar`, and the `math.fsum` of their weights."""
    return pool_scalar([(w, state.amplitudes) for w, state in weighted]), math.fsum(w for w, _ in weighted)


def members(mixture, labels):
    """The (weight, state over the spins ``labels``) members of the mixture (weights, rows)."""
    weights, rows = mixture
    return [(w, StateVector(spin_register(labels), row)) for w, row in zip(weights.tolist(), rows)]


def mixture_fidelity(mixture, labels) -> float:
    """sum_k w_k F(row_k, Phi-) of the mixture (weights, rows) over the spins ``labels``."""
    target = phi_minus(labels)
    return float(sum(w * fidelity(state, target) for w, state in members(mixture, labels)))


def density(mixture) -> np.ndarray:
    """sum_k w_k |row_k><row_k| of the mixture (weights, rows)."""
    return sum(w * np.outer(row, row.conj()) for w, row in zip(*mixture))


def equal_upto_phase_scalar(va, vb, atol) -> bool:
    """One unit row against another up to a global phase, read off the largest
    entry of ``vb``; a ``va`` below ``atol`` there is unequal."""
    k = int(np.argmax(np.abs(vb)))
    if abs(va[k]) < atol:
        return False
    phase = va[k] / vb[k]
    phase = phase / abs(phase)
    return bool(np.allclose(va, phase * vb, atol=atol))


def pool_scalar(pairs):
    """The mixture of (weight, unit amplitude row) pairs, pooled one pair at a
    time, as (weights, rows).

    Each row's weight joins the first distinct row so far that equals it up
    to a phase, compared one by one with `equal_upto_phase_scalar`, or the
    row becomes a distinct row itself.  More distinct rows than their
    dimension are rebuilt from the eigenbasis of the density matrix.
    """
    dim = len(pairs[0][1])
    distinct = []
    for w, amps in pairs:
        for i, (wd, ad) in enumerate(distinct):
            if equal_upto_phase_scalar(ad, amps, MERGE_TOL):
                distinct[i] = (wd + w, ad)
                break
        else:
            distinct.append((w, amps))
    total = math.fsum(w for w, _ in distinct)
    if len(distinct) > dim:
        rho = np.zeros((dim, dim), dtype=complex)
        for w, amps in distinct:
            rho += (w / total) * np.outer(amps, amps.conj())
        eigvals, eigvecs = np.linalg.eigh(rho)
        distinct = [(float(lam), eigvecs[:, i]) for i, lam in enumerate(eigvals) if lam > ZERO]
        distinct.reverse()
        total = math.fsum(w for w, _ in distinct)
    scaled = [(w / total, amps) for w, amps in distinct]
    residual = math.fsum(w for w, _ in scaled)
    return np.array([w / residual for w, _ in scaled]), np.array([amps for _, amps in scaled])


def pair_stage_scalar(weights, rows, maps):
    """The library's pair stage on the mixture (weights, rows), one member pair
    and one branch map at a time.

    Each pair's Kronecker product goes through each map as its own matrix
    product; a branch of weight at most ZERO is dead.  The heralded rows,
    listed pair by pair and branch by branch, are pooled with `pool_scalar`.
    Returns (mixture, success probability at unit input coupling).
    """
    accepted = []
    for w1, r1 in zip(weights.tolist(), rows):
        for w2, r2 in zip(weights.tolist(), rows):
            psi = np.kron(r1, r2)
            for m in maps:
                out = (psi.reshape(-1, m.shape[1]) @ m.T).reshape(-1)
                p = float(np.vdot(out, out).real)
                w = w1 * w2 * p
                if w > ZERO:
                    accepted.append((w, out / math.sqrt(p)))
    return pool_scalar(accepted), math.fsum(w for w, _ in accepted)


def relabel(state, labels):
    return StateVector(spin_register(labels), state.amplitudes)


def purify_gates(mixture, labels, coeffs_a, coeffs_b, eta_in=1.0):
    """One purification round on the two-spin mixture (weights, rows) over
    ``labels``, member pair by member pair.

    Both copies are Hadamard-rotated, one parity check per party keeps equal
    parities (odd-odd after a flip of the first copy), the first copy is
    measured in the Hadamard basis and unequal outcomes flip the phase of the
    kept copy.  Returns (mixture, success probability).
    """
    la, lb = labels
    lac, lbc = f"{la}_c", f"{lb}_c"
    accepted = []
    for w1, s1 in members(mixture, labels):
        for w2, s2 in members(mixture, labels):
            st = tensor(s1, relabel(s2, (lac, lbc)))
            st = apply_gates(st, [("h", lab) for lab in (la, lb, lac, lbc)])
            for parity, (p_a, post_a) in parity_branches(st, la, lac, coeffs_a, eta_in).items():
                if post_a is None:
                    continue
                p_b, post_b = parity_branches(post_a, lb, lbc, coeffs_b, eta_in)[parity]
                if post_b is None:
                    continue
                if parity == "odd":
                    post_b = apply_gates(post_b, (("x", la), ("x", lb)))
                post_b = apply_gates(post_b, (("h", la), ("h", lb)))
                for br in measure(post_b, [la, lb]):
                    if br.post is None:
                        continue
                    final = br.post
                    if br.outcome[0] != br.outcome[1]:
                        final = apply_gates(final, (("z", lac),))
                    final = apply_gates(final, (("h", lac), ("h", lbc)))
                    accepted.append((w1 * w2 * p_a * p_b * br.probability, relabel(final, labels)))
    return merge(accepted)


def eigen_mixture(weighted):
    """(weight, normalized state) pairs as the eigenbasis of their density matrix, with no
    tolerance: the mixture (weights that sum to 1, rows) of its eigenvectors of eigenvalue
    above ZERO, dominant first, and the `math.fsum` of the pairs' weights."""
    total = math.fsum(w for w, _ in weighted)
    rho = sum(w * np.outer(state.amplitudes, state.amplitudes.conj()) for w, state in weighted) / total
    eigvals, eigvecs = np.linalg.eigh(rho)
    keep = [i for i, lam in enumerate(eigvals.tolist()) if lam > ZERO][::-1]
    weights = eigvals[keep]
    return (weights / math.fsum(weights.tolist()), eigvecs.T[keep]), total


def run_chain_gates(scenario):
    """`run_chain` with `purify_gates` and `extend_chain_gates` on every member pair.

    A segment's mixture is the eigenbasis of its outcomes' density matrix (`eigen_mixture`), as
    `run_chain` forms it from the exact 4x4 state; purification rounds and splices pool their
    members with `merge`, the library's rule, until the pooling leaves the library."""
    scenario.validate()
    stages = []
    segments = []
    for i, seg in enumerate(scenario.segments):
        labels = (f"e{i}_{seg.left}", f"e{i}_{seg.right}")
        mixture, p = eigen_mixture([(o.probability, o.post_state) for o in distribute_bell(
            seg.noise_left, seg.noise_right, scenario.nodes[seg.left], scenario.nodes[seg.right],
            eta_in=scenario.eta_in, spin_labels=labels) if o.post_state is not None])
        stages.append(StageResult("distribute", seg.name, p, mixture_fidelity(mixture, labels)))
        for r in range(scenario.purify_rounds):
            mixture, p = purify_gates(mixture, labels, scenario.nodes[seg.left], scenario.nodes[seg.right],
                                      scenario.eta_in)
            stages.append(StageResult("purify", f"{seg.name} round {r + 1}", p, mixture_fidelity(mixture, labels)))
        segments.append((mixture, labels))

    mixture, (left_end, right_end) = segments[0]
    for seg, (mixture_b, labels_b) in zip(scenario.segments[1:], segments[1:]):
        collected = []
        for w1, s1 in members(mixture, (left_end, right_end)):
            for w2, s2 in members(mixture_b, labels_b):
                for out in extend_chain_gates(s1, s2, (right_end, labels_b[0]),
                                              scenario.nodes[seg.left], scenario.eta_in):
                    if out.post_state is not None:
                        collected.append((w1 * w2 * out.probability, out.post_state))
        mixture, p = merge(collected)
        right_end = labels_b[1]
        stages.append(StageResult("extend", f"at {seg.left}", p, mixture_fidelity(mixture, (left_end, right_end))))
    return ChainReport(stages=tuple(stages), end_labels=(left_end, right_end),
                       final_fidelity=mixture_fidelity(mixture, (left_end, right_end)),
                       total_probability=math.prod(st.probability for st in stages),
                       log10_total_probability=math.fsum(math.log10(st.probability) for st in stages),
                       final_state=density(mixture))


def _rho_stage(rho_a, rho_b, maps):
    """rho' = sum_A A (rho_a x rho_b) A^dagger, normalized, and its trace.

    A map narrower than the product acts on its trailing spins; the leading
    ones are spectators, so A is widened by an identity on them.
    """
    joint = np.kron(rho_a, rho_b)
    widened = [np.kron(np.eye(joint.shape[0] // m.shape[1]), m) for m in maps]
    out = sum(a @ joint @ a.conj().T for a in widened)
    p = float(np.trace(out).real)
    return out / p, p


def segment_rho(seg, nodes, labels):
    """The 4x4 state of segment ``seg`` between ``nodes``, rho = sum_i p_i |psi_i><psi_i| / sum_i p_i
    over the live outcomes of `distribute_bell` at unit input coupling, and sum_i p_i."""
    live = [o for o in distribute_bell(seg.noise_left, seg.noise_right, nodes[seg.left], nodes[seg.right],
                                       spin_labels=labels)
            if o.post_state is not None]
    p = math.fsum(o.probability for o in live)
    rho = sum(o.probability * np.outer(o.post_state.amplitudes, o.post_state.amplitudes.conj()) for o in live)
    return rho / p, p


def run_chain_rho(scenario) -> tuple[list[StageResult], np.ndarray]:
    """`run_chain`'s stages and final state with every two-spin mixture held
    as its 4x4 density matrix.

    A segment starts at its `segment_rho`.  Each purification round and each
    extension is one `_rho_stage` over the cached branch maps of
    `run_chain`.  Stage probabilities gain eta_in per photon pass, as in
    `run_chain`.
    """
    scenario.validate()
    eta_in = scenario.eta_in
    stages = []

    def record(stage, label, p, passes, rho, labels):
        target = phi_minus(labels).amplitudes
        stages.append(StageResult(stage, label, p * eta_in ** passes,
                                  float(np.vdot(target, rho @ target).real)))

    segments = []
    for i, seg in enumerate(scenario.segments):
        labels = (f"e{i}_{seg.left}", f"e{i}_{seg.right}")
        rho, p = segment_rho(seg, scenario.nodes, labels)
        record("distribute", seg.name, p, 2, rho, labels)
        for r in range(scenario.purify_rounds):
            maps = protocols._purification_maps(scenario.nodes[seg.left], scenario.nodes[seg.right])
            rho, p = _rho_stage(rho, rho, maps)
            record("purify", f"{seg.name} round {r + 1}", p, 2, rho, labels)
        segments.append((rho, labels))

    rho, (left_end, right_end) = segments[0]
    for seg, (rho_b, (_, right_end)) in zip(scenario.segments[1:], segments[1:]):
        rho, p = _rho_stage(rho, rho_b, protocols._extension_maps(scenario.nodes[seg.left]))
        record("extend", f"at {seg.left}", p, 1, rho, (left_end, right_end))
    return stages, rho
