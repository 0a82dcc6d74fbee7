"""Summary statistics of energy distributions that only the tests use.

Not a test module; `test_spectra.py` and `test_acceptance.py` (criteria 7,
8e and 8f) import it.
"""

import numpy as np

from trapswitch.errors import InvalidArgumentError
from trapswitch.spectra import EnergyDistribution


def distribution_median(dist: EnergyDistribution) -> float:
    """Energy below which half of the distribution's computed weight lies."""
    incr = 0.5 * (dist.p[1:] + dist.p[:-1]) * np.diff(dist.energies)
    cum = np.concatenate([[0.0], np.cumsum(incr)])
    if cum[-1] <= 0.0:
        raise InvalidArgumentError("distribution has no weight")
    return float(np.interp(0.5 * cum[-1], cum, dist.energies))


def l1_difference(a: EnergyDistribution, b: EnergyDistribution) -> float:
    """Integral of |P_a - P_b| over their (identical) grid."""
    if a.energies.size != b.energies.size or np.any(a.energies != b.energies):
        raise InvalidArgumentError("distributions live on different grids")
    return float(np.trapezoid(np.abs(a.p - b.p), a.energies))
