"""Scans and sums as `trapswitch` took them before vectorisation: one
scalar call per point.

Kept only as a test oracle: `test_scattering.py` checks `delay_time_pointwise`
(the old Richardson difference) against the exact delay and
`phase_shift_curve_pointwise` (the depth-first unwrap, one scalar S-matrix
call per midpoint) against the batched one, `test_poles.py`
checks the bound-state scan and the winding number against theirs, and
`test_spectra.py` checks the blocked projection against
`energy_distribution_pointwise`.  Not a test module.
"""

import cmath
import math

import numpy as np

from trapswitch.errors import RefinementError
from trapswitch.poles import _arg_increment, pole_function
from trapswitch.scattering import _raw_phase, evaluate_scattering_state, s_matrix


def _wrap_half_pi(diff: float) -> float:
    return -((-diff + 0.5 * math.pi) % math.pi - 0.5 * math.pi)


def delay_time_pointwise(config, unit, k: float) -> float:
    """Wigner delay at one k from four scalar S-matrix calls."""
    h = 1e-5 * k

    def raw(kk):
        return 0.5 * cmath.phase(complex(s_matrix(config, unit, np.array([kk]))[0]))

    def slope(hh):
        return _wrap_half_pi(raw(k + hh) - raw(k - hh)) / (2.0 * hh)

    dddk = (4.0 * slope(0.5 * h) - slope(h)) / 3.0
    return 2.0 / (unit.kappa * k) * dddk


def phase_shift_curve_pointwise(config, unit, k_grid) -> np.ndarray:
    """Continuous phase shift on an increasing grid of k > 0: raw phases on
    the grid from one S-matrix call, then each interval checked depth-first
    by midpoint refinement, one scalar S-matrix call per midpoint, up to 26
    halvings."""
    k_grid = np.asarray(k_grid, dtype=float)

    def step(ka, da, kb, db, depth):
        direct = _wrap_half_pi(db - da)
        if depth >= 26:
            raise RefinementError(
                f"phase unwrap did not settle on [{ka:.9g}, {kb:.9g}]",
                interval=(ka, kb),
            )
        km = 0.5 * (ka + kb)
        dm = float(_raw_phase(config, unit, km))
        left = _wrap_half_pi(dm - da)
        right = _wrap_half_pi(db - dm)
        if abs((left + right) - direct) < 1e-9:
            return direct
        return step(ka, da, km, dm, depth + 1) + step(km, dm, kb, db, depth + 1)

    raw_vals = _raw_phase(config, unit, k_grid).tolist()
    delta = np.empty_like(k_grid)
    delta[0] = raw_vals[0]
    for i in range(k_grid.size - 1):
        inc = step(k_grid[i], raw_vals[i], k_grid[i + 1], raw_vals[i + 1], 0)
        delta[i + 1] = delta[i] + inc
    return delta


def bound_state_kappas_pointwise(config, unit) -> list[float]:
    """Bound-state kappas from a 4000-point scalar sign scan plus the same
    bisection `find_bound_states` runs."""
    ceiling = math.sqrt(2.0 * config.v_well / unit.kappa)
    lo, hi = 1e-9, ceiling * (1.0 - 1e-12)

    def g(kap):
        return (pole_function(config, unit, 1j * kap) / 1j).real

    grid = np.linspace(lo, hi, 4000)
    vals = np.array([g(k) for k in grid])
    roots = []
    for i in np.nonzero(np.diff(np.sign(vals)) != 0)[0]:
        a, b, ga = grid[i], grid[i + 1], vals[i]
        for _ in range(200):
            m = 0.5 * (a + b)
            gm = g(m)
            if gm == 0.0:
                a = b = m
                break
            if (gm > 0) == (ga > 0):
                a, ga = m, gm
            else:
                b = m
            if b - a < 1e-15 * (1.0 + b):
                break
        roots.append(0.5 * (a + b))
    return roots


def winding_number_pointwise(config, unit, rect) -> int:
    """Argument-principle root count from one scalar Omega call per edge
    point, refined by the package's own `_arg_increment`."""
    re_min, re_max, im_min, im_max = rect
    corners = [
        complex(re_min, im_min),
        complex(re_max, im_min),
        complex(re_max, im_max),
        complex(re_min, im_max),
    ]
    total = 0.0
    for a, b in zip(corners, corners[1:] + corners[:1]):
        zs = [a + (b - a) * t for t in np.linspace(0.0, 1.0, 65)]
        fs = [complex(pole_function(config, unit, z)) for z in zs]
        for za, zb, fa, fb in zip(zs, zs[1:], fs, fs[1:]):
            total += _arg_increment(config, unit, za, zb, fa, fb, 0)
    return int(round(total / (2.0 * math.pi)))


def energy_distribution_pointwise(state, final_config, unit, e_grid) -> np.ndarray:
    """P(E) from one scattering state on the whole grid per energy and a
    trapezoid overlap; no completeness or containment check."""
    p = np.empty(len(e_grid))
    for i, e in enumerate(e_grid):
        k = math.sqrt(2.0 * e / unit.kappa)
        psi_k = evaluate_scattering_state(final_config, unit, k, state.x)
        overlap = np.trapezoid(np.conj(psi_k) * state.values, dx=state.dx)
        p[i] = (abs(overlap) ** 2) / (unit.kappa * k)
    return p
