"""Continuum reference for the sudden release: the in-well probability p_w(t)
with no time step, grid or box.

A test oracle for `trapswitch.propagate` at T = 0.  After a sudden switch
the Hamiltonian is the final trap's for every t > 0, and that trap binds no
state, so the released state is a superposition of its scattering states:

    psi(x, t) = int_0^inf dk c(k) psi_k(x) exp(-i kappa k^2 t / 2),
    c(k) = <psi_k | phi_0>,

with psi_k delta-normalized in k and phi_0 the initial trap's closed-form
bound state (`bound_state_profile` at the decay constant kappa_0 from
`find_bound_states`).  Inside the trap psi_k is `trap_waves`' amplitude
times its real standing wave, as in `evaluate_scattering_state`, and c(k)
is a Gauss-Legendre sum over panels of the well and of the barrier.  Past
it, psi_k = (exp(-ikx) - S exp(ikx))/sqrt(2 pi),
phi_0 = phi_0(L) exp(-kappa_0 (x - L)), L = d + b, and
int_L^inf exp(+-ikx) exp(-kappa_0 (x - L)) dx = exp(+-ikL)/(kappa_0 -+ ik)
closes the integral.  The k integral runs over [0, k_max] on 16-point
Gauss-Legendre panels, and p_w is a Gauss-Legendre sum over the well.

Nothing here uses `propagate`, the FEM matrices or the projection.  The cut
at k_max drops the state's fastest components: at k_max = 3 um^-1, p_w(0)
reads ~4e-4 below the bound state's in-well weight, but those components
leave the well within a few ms.  So compare from t >= 0.05 s, where the
default (k_max 3, 16,384 nodes) moves by < 1e-6 when either is doubled.
The expansion misses 4.2e-6 of the bound state's weight at k_max = 3 and
1.1e-7 at k_max = 6 (`captured_weight`).

Not a test module; `test_continuum.py` imports it.
"""

import math

import numpy as np

from trapswitch.groundstate import bound_state_profile
from trapswitch.model import PotentialConfig, UnitSystem
from trapswitch.poles import find_bound_states
from trapswitch.scattering import trap_waves

#: Nodes of one Gauss-Legendre panel, in k and over the trap.
PANEL = 16
#: Gauss-Legendre nodes of the integral of |psi|^2 over the well.
WELL_NODES = 60
#: Wave numbers per block of the k sums, which bounds the memory they take.
K_BLOCK = 2048


def _panels(lo: float, hi: float, n_panels: int, n: int = PANEL):
    """Nodes and weights of n_panels n-point Gauss-Legendre panels on [lo, hi]."""
    t, w = np.polynomial.legendre.leggauss(n)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * t).ravel(), (half * w).ravel()


def bound_state(config: PotentialConfig, unit: UnitSystem):
    """(kappa_0, nodes, weights, phi_0 at the nodes, phi_0(L)) of the
    normalized bound state, on panels over the well and the barrier; the
    tail past L adds phi_0(L)^2 / (2 kappa_0) to the norm."""
    (level,) = find_bound_states(config, unit)
    kappa0 = level.k_res.imag
    well = _panels(0.0, config.d, 4)
    barrier = _panels(config.d, config.outer_edge, 8)
    x, w = np.concatenate((well[0], barrier[0])), np.concatenate((well[1], barrier[1]))
    phi = bound_state_profile(config, unit, kappa0, x)
    edge = bound_state_profile(config, unit, kappa0, np.array([config.outer_edge]))[0]
    norm = math.sqrt(w @ phi**2 + edge**2 / (2.0 * kappa0))
    return kappa0, x, w, phi / norm, edge / norm


def overlaps(initial: PotentialConfig, final: PotentialConfig, unit: UnitSystem, k):
    """c(k) = <psi_k | phi_0> of the final trap's scattering states with the
    initial trap's bound state, at a 1-d array of k; the traps share d and b."""
    if (initial.d, initial.b) != (final.d, final.b):
        raise ValueError("the oracle needs traps of the same geometry")
    kappa0, x, w, phi, edge = bound_state(initial, unit)
    turn = np.exp(1j * k * final.outer_edge)
    out = np.empty(k.size, dtype=complex)
    for lo in range(0, k.size, K_BLOCK):
        block = slice(lo, lo + K_BLOCK)
        # inside the trap psi_k is a complex amplitude times a real wave
        amp, wave, s = trap_waves(final, unit, k[block], x)
        inside = amp.conj() * (wave @ (w * phi))
        outside = turn[block] / (kappa0 - 1j * k[block]) - s.conj() / (
            turn[block] * (kappa0 + 1j * k[block])
        )
        out[block] = inside + edge * outside / math.sqrt(2.0 * math.pi)
    return out


def captured_weight(
    initial: PotentialConfig,
    final: PotentialConfig,
    unit: UnitSystem,
    k_max: float = 3.0,
    n_k: int = 16384,
) -> float:
    """int_0^k_max |c(k)|^2 dk on n_k nodes: the final trap's scattering
    states are complete, so this is 1 less the bound state's weight past
    k_max."""
    k, wk = _panels(0.0, k_max, n_k // PANEL)
    return float(wk @ np.abs(overlaps(initial, final, unit, k)) ** 2)


def in_well_probability(
    initial: PotentialConfig,
    final: PotentialConfig,
    unit: UnitSystem,
    times,
    k_max: float = 3.0,
    n_k: int = 16384,
) -> np.ndarray:
    """p_w at the given times after a sudden switch from the initial trap's
    bound state into the final trap, on n_k nodes of [0, k_max]."""
    times = np.asarray(times, dtype=float)
    k, wk = _panels(0.0, k_max, n_k // PANEL)
    amp = wk * overlaps(initial, final, unit, k)
    xw, ww = _panels(0.0, final.d, 1, WELL_NODES)
    psi = np.zeros((xw.size, times.size), dtype=complex)
    for lo in range(0, k.size, K_BLOCK):
        kb = k[lo : lo + K_BLOCK]
        wave_amp, wave, _ = trap_waves(final, unit, kb, xw)
        phase = np.exp(-0.5j * unit.kappa * np.outer(kb * kb, times))
        psi += (wave.T * (wave_amp * amp[lo : lo + K_BLOCK])) @ phase
    return ww @ np.abs(psi) ** 2
