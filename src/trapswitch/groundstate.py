"""Closed-form bound state of the trap, sampled on a simulation grid.

The bound level is located first as an S-matrix pole on the positive
imaginary axis; the wavefunction is then assembled from the piecewise
solution (sine inside the well, a mix of real exponentials under the
barrier, a single decaying exponential outside) and normalized on the
grid.  No relaxation loop: the pole already fixes the energy.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguousBoundStateError, InvalidArgumentError, NoBoundStateError
from .model import PotentialConfig, UnitSystem
from .poles import find_bound_states


@dataclass
class WavefunctionGrid:
    """Uniform complex samples psi(x_j), x_j = j dx, from the hard wall at
    x_0 = 0.

    Norm convention is the plain Riemann sum sum |psi_j|^2 dx; the hard
    wall makes psi_0 = 0, so the j = 0 term never contributes anyway.
    """

    dx: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dx <= 0.0:
            raise InvalidArgumentError(f"dx must be positive, got {self.dx}")
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 1 or self.values.size < 2:
            raise InvalidArgumentError("values must be a 1-d array with at least 2 samples")

    @property
    def x(self) -> np.ndarray:
        return self.dx * np.arange(self.values.size)

    @property
    def x_max(self) -> float:
        return self.dx * (self.values.size - 1)

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.dx)

    def normalized(self) -> "WavefunctionGrid":
        n2 = self.norm_squared()
        if n2 <= 0.0:
            raise InvalidArgumentError("cannot normalize a zero wavefunction")
        return WavefunctionGrid(self.dx, self.values / math.sqrt(n2))


def bound_state_profile(
    config: PotentialConfig, unit: UnitSystem, kappa0: float, x: np.ndarray
) -> np.ndarray:
    """Un-normalized bound-state amplitude at positions x for decay constant kappa0."""
    q0_sq = 2.0 * config.v_well / unit.kappa - kappa0 * kappa0
    if q0_sq <= 0.0:
        raise InvalidArgumentError("decay constant puts the level below the well floor")
    q0 = math.sqrt(q0_sq)
    kb = math.sqrt(kappa0 * kappa0 + 2.0 * config.v_barrier / unit.kappa)
    d, b = config.d, config.b
    psi_d = math.sin(q0 * d)
    dpsi_d = q0 * math.cos(q0 * d)
    a_plus = 0.5 * (psi_d + dpsi_d / kb)
    a_minus = 0.5 * (psi_d - dpsi_d / kb)
    psi_db = a_plus * math.exp(kb * b) + a_minus * math.exp(-kb * b)

    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    well = (x >= 0.0) & (x <= d)
    out[well] = np.sin(q0 * x[well])
    barrier = (x > d) & (x <= d + b)
    u = x[barrier] - d
    out[barrier] = a_plus * np.exp(kb * u) + a_minus * np.exp(-kb * u)
    outside = x > d + b
    out[outside] = psi_db * np.exp(-kappa0 * (x[outside] - d - b))
    return out


TAIL_CUTOFF = 1e-12  # truncate where |psi| drops below this times its peak


def ground_state(
    config: PotentialConfig,
    unit: UnitSystem,
    dx: float = 0.05,
    x_max: float | None = None,
) -> tuple[WavefunctionGrid, float]:
    """Normalized bound state of the trap and its energy.

    With x_max = None the grid ends where the exponential tail falls below
    TAIL_CUTOFF of the peak amplitude.  A trap holding several bound levels
    is rejected: which one to prepare is not defined.
    """
    if dx <= 0.0:
        raise InvalidArgumentError(f"dx must be positive, got {dx}")
    levels = find_bound_states(config, unit)
    if not levels:
        raise NoBoundStateError(
            f"configuration {config} holds no bound state; nothing to prepare"
        )
    if len(levels) > 1:
        raise AmbiguousBoundStateError(
            "configuration holds several bound states",
            energies=[p.e_r for p in levels],
        )
    (pole,) = levels
    kappa0 = pole.k_res.imag
    e0 = pole.e_r

    if x_max is None:
        # peak amplitude is at most 1 (sine region); walk the outside tail
        probe = bound_state_profile(config, unit, kappa0, np.array([config.outer_edge]))
        tail_amp = abs(float(probe[0]))
        peak = 1.0
        if tail_amp <= 0.0:
            x_max = config.outer_edge + 5.0
        else:
            x_max = config.outer_edge + math.log(max(tail_amp / (TAIL_CUTOFF * peak), 2.0)) / kappa0
    n = int(math.ceil(x_max / dx)) + 1
    x = dx * np.arange(n)
    values = bound_state_profile(config, unit, kappa0, x).astype(complex)
    grid = WavefunctionGrid(dx, values).normalized()
    return grid, e0
