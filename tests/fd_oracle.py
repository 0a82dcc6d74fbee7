"""Independent reference propagator for the released energy distribution.

A test oracle for `trapswitch.propagate` + `trapswitch.spectra`: it shares
no discretization or time stepping with them.  Space is a second-order
finite-difference grid whose nodes carry the cell average of the
piecewise-constant potential (a node on a region edge gets the mean of the
two sides).  Each step applies the exact exponential of the mid-step
Hamiltonian, exp(-i H(t + dt/2) dt), with scipy's `expm_multiply`, so the
only time error comes from the switch itself.  The projection onto the
final trap's scattering states is written out here rather than taken from
`spectra`.

Box length and projection time follow the rule of a `SpectrumRunSpec`
(settle time to `spectra.RESIDUAL_V`, at least `spectra.MIN_PROJECTION_TIME`,
box covering the `e_cut` front plus `spectra.BOX_PAD`), so at equal grid
step the oracle sees the same finite box as the program.

Not a test module; `test_acceptance.py` imports it.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.optimize import brentq
from scipy.sparse.linalg import expm_multiply

from trapswitch.errors import NoBoundStateError
from trapswitch.groundstate import bound_state_profile
from trapswitch.model import PotentialConfig, SwitchingSchedule, UnitSystem
from trapswitch.scattering import evaluate_scattering_state
from trapswitch.spectra import BOX_PAD, MIN_PROJECTION_TIME, RESIDUAL_V


def bound_decay_constant(config: PotentialConfig, unit: UnitSystem) -> float:
    """Decay constant of the deepest bound level, by matching log-derivatives.

    Inside the barrier the level is a_+ e^{kb u} + a_- e^{-kb u}; outside it
    is e^{-kappa0 (x - d - b)}, so psi' = -kappa0 psi at x = d + b.  The
    mismatch is scaled by e^{-kb b} to stay finite.
    """
    k_top = math.sqrt(2.0 * config.v_well / unit.kappa)

    def mismatch(kappa0):
        q0 = math.sqrt(k_top * k_top - kappa0 * kappa0)
        kb = math.sqrt(kappa0 * kappa0 + 2.0 * config.v_barrier / unit.kappa)
        psi_d = math.sin(q0 * config.d)
        dpsi_d = q0 * math.cos(q0 * config.d)
        a_plus = 0.5 * (psi_d + dpsi_d / kb)
        a_minus = 0.5 * (psi_d - dpsi_d / kb) * math.exp(-2.0 * kb * config.b)
        return kb * (a_plus - a_minus) + kappa0 * (a_plus + a_minus)

    grid = np.linspace(1e-9, k_top * (1.0 - 1e-9), 4001)
    vals = np.array([mismatch(k) for k in grid])
    roots = [
        brentq(mismatch, grid[i], grid[i + 1], xtol=1e-15)
        for i in np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
    ]
    if not roots:
        raise NoBoundStateError(f"{config} holds no bound state")
    return max(roots)


def _cell_average(config: PotentialConfig, x: np.ndarray, h: float) -> np.ndarray:
    """Mean of the piecewise-constant potential over [x - h/2, x + h/2]."""
    lo, hi = x - 0.5 * h, x + 0.5 * h
    out = np.zeros_like(x)
    for a, b, v in (
        (0.0, config.d, -config.v_well),
        (config.d, config.outer_edge, config.v_barrier),
    ):
        out += v * np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None)
    return out / h


def release_distribution(
    initial: PotentialConfig,
    final: PotentialConfig,
    t_switch: float,
    unit: UnitSystem,
    spec,
    energies: np.ndarray,
    h: float = 0.1,
    dt: float = 5e-4,
) -> np.ndarray:
    """P(E) of the released atom on the given energies.

    spec supplies the box and projection-time rule (a `SpectrumRunSpec`);
    h and dt are the oracle's own grid and time step.
    """
    schedule = SwitchingSchedule(initial, final, t_switch)
    t_proj = max(schedule.settle_time(RESIDUAL_V), MIN_PROJECTION_TIME)
    v_cut = math.sqrt(2.0 * spec.e_cut * unit.kappa)
    box = math.ceil((final.outer_edge + v_cut * t_proj + BOX_PAD) / h) * h
    n = int(round(box / h)) + 1
    x = h * np.arange(n)

    kappa0 = bound_decay_constant(initial, unit)
    psi = bound_state_profile(initial, unit, kappa0, x).astype(complex)
    psi[0] = psi[-1] = 0.0
    psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * h)

    # interior nodes only: Dirichlet walls at x = 0 and x = box
    xi = x[1:-1]
    c = 0.5 * unit.kappa / (h * h)
    kinetic = sp.diags(
        [np.full(n - 3, -c), np.full(n - 2, 2.0 * c), np.full(n - 3, -c)], [-1, 0, 1]
    )
    v_init = _cell_average(initial, xi, h)
    v_step = _cell_average(final, xi, h) - v_init
    n_steps = max(1, int(round(t_proj / dt)))
    step = t_proj / n_steps
    u = psi[1:-1]
    for j in range(n_steps):
        w = schedule.weight((j + 0.5) * step)
        ham = (kinetic + sp.diags(v_init + w * v_step)).tocsr()
        u = expm_multiply(-1j * step * ham, u)
    psi[1:-1] = u

    p = np.empty(len(energies))
    for i, e in enumerate(energies):
        k = math.sqrt(2.0 * e / unit.kappa)
        psi_k = evaluate_scattering_state(final, unit, k, x)
        overlap = np.trapezoid(np.conj(psi_k) * psi, dx=h)
        p[i] = abs(overlap) ** 2 / (unit.kappa * k)
    return p


def lorentzian_deviation(
    initial: PotentialConfig,
    final: PotentialConfig,
    t_switch: float,
    unit: UnitSystem,
    spec,
    e_r: float,
    gamma: float,
    h: float = 0.1,
    dt: float = 5e-4,
) -> float:
    """L1 distance of the released P(E) to the unit pole Lorentzian over
    e_r +- 10 gamma, sampled uniformly at gamma/50."""
    e = np.linspace(e_r - 10.0 * gamma, e_r + 10.0 * gamma, 1001)
    p = release_distribution(initial, final, t_switch, unit, spec, e, h, dt)
    ref = (gamma / (2.0 * math.pi)) / ((e - e_r) ** 2 + 0.25 * gamma * gamma)
    return float(np.trapezoid(np.abs(p - ref), e))
