import math

import numpy as np
import pytest

from qdrepeater import CavityParams, NoiseChannel, channel_mixing_weight, resonant_coeffs


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_coeffs(rng, g_range=(0.2, 3.0), ks_range=(0.0, 0.3)):
    """Scattering coefficients at a random resonant working point."""
    g = rng.uniform(*g_range)
    ks = rng.uniform(*ks_range)
    gamma = rng.uniform(0.02, 0.5)
    return resonant_coeffs(CavityParams(g=g, kappa_s=ks, gamma=gamma))


def symmetric_from_angles(theta: float, phi_d: float = 0.0, phi_e: float = 0.0) -> NoiseChannel:
    """Collective fiber rotation |H> -> cos(theta) e^(i phi_d)|H> + sin(theta) e^(i phi_e)|V>."""
    return NoiseChannel(math.cos(theta) * np.exp(1j * phi_d), math.sin(theta) * np.exp(1j * phi_e))


def random_symmetric(rng) -> NoiseChannel:
    """Collective fiber rotation with uniformly drawn angle and phases."""
    theta, pd, pe = rng.uniform(0, 2 * math.pi, size=3)
    return symmetric_from_angles(theta, pd, pe)


def random_asymmetric(rng) -> NoiseChannel:
    """Fiber whose early and late bins see two independent random rotations."""
    a = random_symmetric(rng)
    b = random_symmetric(rng)
    return NoiseChannel(a.delta, a.eta, b.delta, b.eta)


def schmidt_rank(state, cut_labels, tol: float = 1e-10) -> int:
    """Number of singular values above ``tol`` across the given bipartition."""
    reg = state.register
    pos = [reg.position(lab) for lab in cut_labels]
    block = np.moveaxis(state.tensor_axes(), pos, range(len(pos)))
    block = block.reshape(math.prod(reg.subsystems[p].dim for p in pos), -1)
    return int(np.sum(np.linalg.svd(block, compute_uv=False) > tol))


def allclose_upto_phase(a, b, atol: float = 1e-10) -> bool:
    """State equality up to a single global phase; a state below ``atol``
    everywhere equals only another such state."""
    if a.register.dims != b.register.dims:
        return False
    va, vb = a.amplitudes, b.amplitudes
    k = int(np.argmax(np.abs(vb)))
    if abs(vb[k]) < atol:
        return bool(np.allclose(va, vb, atol=atol))
    if abs(va[k]) < atol:
        return False
    phase = va[k] / vb[k]
    return bool(np.allclose(va, phase / abs(phase) * vb, atol=atol))


def ideal_chain_closed_form(scenario) -> list[tuple[float, float]]:
    """(probability, fidelity) of every stage of a chain of ideal nodes, in
    `run_chain`'s order.

    Each segment starts at mu = `channel_mixing_weight` of its two fibers
    with probability eta_in^2.  Each purification round maps mu -> mu^2/s,
    s = mu^2 + (1 - mu)^2, with probability eta_in^2 s.  Each extension has
    probability eta_in, and the fidelity of the chain so far is
    (1 + prod(2 mu_i - 1))/2 over its segments.
    """
    eta_in = scenario.eta_in
    stages, mus = [], []
    for seg in scenario.segments:
        mu = channel_mixing_weight([seg.noise_left, seg.noise_right])
        stages.append((eta_in ** 2, mu))
        for _ in range(scenario.purify_rounds):
            s = mu ** 2 + (1.0 - mu) ** 2
            mu = mu ** 2 / s
            stages.append((eta_in ** 2 * s, mu))
        mus.append(mu)
    for k in range(2, len(mus) + 1):
        stages.append((eta_in, (1.0 + math.prod(2.0 * mu - 1.0 for mu in mus[:k])) / 2.0))
    return stages
