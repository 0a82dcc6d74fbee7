"""The potential's finite-element integrals as `trapswitch.propagate` took
them before the per-region pass: a bulk fill that assumes each element lies
inside one region, then a correction of each element cut by an edge; and
the absorber's integrals as it took them before the array pass, one element
and one Gauss point at a time.

Kept only as test oracles: `test_propagate.py` checks `_config_mass`
against `config_mass_by_edges`, and `_absorber_mass` against
`absorber_mass_by_elements`.  The first holds while no element holds both
region edges; such an element is corrected once per edge, so it counts its
pieces twice.  Not a test module.
"""

import math

import numpy as np

from trapswitch.propagate import ABSORBER_FRACTION, ABSORBER_STRENGTH, _hat_overlaps


def potential_mass(x: np.ndarray, dx: float, edges: list[float], values: list[float]):
    """Exact FEM mass integrals of a piecewise-constant potential.

    edges are the ascending region boundaries inside (x[0], x[-1]); values
    has one entry more than edges, value[i] applying between edge i-1 and
    edge i.  Returns (diag, off) over all nodes.
    """
    n = x.size
    diag = np.zeros(n)
    off = np.zeros(n - 1)
    n_el = n - 1
    # bulk fill assuming each element lies inside a single region
    centers = x[:-1] + 0.5 * dx
    region = np.searchsorted(edges, centers)
    vals = np.asarray(values, dtype=float)[region]
    diag[:-1] += vals * dx / 3.0
    diag[1:] += vals * dx / 3.0
    off += vals * dx / 6.0
    # correct the elements actually cut by an edge
    for e in edges:
        j = int(math.floor(e / dx - 1e-12))
        if j < 0 or j >= n_el:
            continue
        xa, xb = x[j], x[j + 1]
        if not (xa < e < xb):
            continue
        # remove the bulk guess, redo the two pieces exactly
        c = xa + 0.5 * dx
        v_bulk = float(np.asarray(values)[np.searchsorted(edges, c)])
        diag[j] -= v_bulk * dx / 3.0
        diag[j + 1] -= v_bulk * dx / 3.0
        off[j] -= v_bulk * dx / 6.0
        cuts = [xa] + sorted(ee for ee in edges if xa < ee < xb) + [xb]
        for a, bcut in zip(cuts[:-1], cuts[1:]):
            mid = 0.5 * (a + bcut)
            v = float(np.asarray(values)[np.searchsorted(edges, mid)])
            s, tt = (a - xa) / dx, (bcut - xa) / dx
            il, ir, ic = _hat_overlaps(s, tt)
            diag[j] += v * dx * il
            diag[j + 1] += v * dx * ir
            off[j] += v * dx * ic
    return diag, off


def config_mass_by_edges(config, x, dx):
    """One trap's (diag, off), -v_well on [0, d) and v_barrier on [d, d + b)."""
    edges = [config.d, config.outer_edge]
    values = [-config.v_well, config.v_barrier, 0.0]
    return potential_mass(x, dx, edges, values)


def absorber_mass_by_elements(x: np.ndarray, dx: float, box_length: float):
    """FEM mass integrals of the cubic absorber ramp over the last
    ABSORBER_FRACTION of the box, 3-point Gauss exact, by a loop over the
    elements the ramp reaches."""
    n = x.size
    diag = np.zeros(n)
    off = np.zeros(n - 1)
    width = ABSORBER_FRACTION * box_length
    x_on = box_length - width
    gauss_u = np.array([0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15)])
    gauss_w = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
    j0 = max(0, int(math.floor(x_on / dx)))
    for j in range(j0, n - 1):
        xa = x[j]
        for u, wgt in zip(gauss_u, gauss_w):
            xp = xa + u * dx
            r = (xp - x_on) / width
            if r <= 0.0:
                continue
            wv = ABSORBER_STRENGTH * r**3
            diag[j] += wgt * dx * wv * (1.0 - u) ** 2
            diag[j + 1] += wgt * dx * wv * u * u
            off[j] += wgt * dx * wv * u * (1.0 - u)
    return diag, off
