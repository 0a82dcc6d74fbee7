"""Unit system, trap geometry, and the time profile of the potential switch.

Internal units set hbar = 1: lengths are micrometers, times are seconds,
energies are hbar per second (numerically 1/s).  The single surviving
constant is kappa = hbar/m in um^2/s, so a wave number k (1/um) carries
kinetic energy (kappa/2) k^2.

The potential is a hard wall at x <= 0, a square well of depth v_well on
(0, d], a square barrier of height v_barrier on (d, d+b], and zero beyond.
A switch replaces one such configuration by another with the exponential
profile V(t, x) = V_init(x) + (1 - exp(-t/T)) * (V_final(x) - V_init(x));
T = 0 means a sudden switch (final values for every t > 0).
"""

import math
from dataclasses import dataclass

from .errors import InvalidArgumentError

HBAR_SI = 1.054571817e-34            # J s, CODATA 2018
ATOMIC_MASS_SI = 1.66053906660e-27   # kg, CODATA 2018
SODIUM23_MASS_AMU = 22.98976928

_M2_PER_S_TO_UM2_PER_S = 1e12


@dataclass(frozen=True)
class UnitSystem:
    """hbar = 1 working units; kappa = hbar/m in um^2/s."""

    kappa: float
    mass_amu: float

    def __post_init__(self):
        if not (self.kappa > 0.0 and math.isfinite(self.kappa)):
            raise InvalidArgumentError(f"kappa must be positive, got {self.kappa}")
        if not (self.mass_amu > 0.0 and math.isfinite(self.mass_amu)):
            raise InvalidArgumentError(f"mass_amu must be positive, got {self.mass_amu}")


def make_unit_system(mass_amu: float = SODIUM23_MASS_AMU) -> UnitSystem:
    if not (mass_amu > 0.0 and math.isfinite(mass_amu)):
        raise InvalidArgumentError(f"mass_amu must be positive, got {mass_amu}")
    kappa = HBAR_SI / (mass_amu * ATOMIC_MASS_SI) * _M2_PER_S_TO_UM2_PER_S
    return UnitSystem(kappa=kappa, mass_amu=mass_amu)


@dataclass(frozen=True)
class PotentialConfig:
    """Hard wall + square well (depth v_well) + square barrier (height v_barrier)."""

    v_well: float
    v_barrier: float
    d: float
    b: float

    def __post_init__(self):
        if not (self.d > 0.0 and math.isfinite(self.d)):
            raise InvalidArgumentError(f"well width d must be positive, got {self.d}")
        if not (self.b >= 0.0 and math.isfinite(self.b)):
            raise InvalidArgumentError(f"barrier width b must be >= 0, got {self.b}")
        for name in ("v_well", "v_barrier"):
            v = getattr(self, name)
            if not (v >= 0.0 and math.isfinite(v)):
                raise InvalidArgumentError(f"{name} must be >= 0, got {v}")

    @property
    def outer_edge(self) -> float:
        return self.d + self.b


@dataclass(frozen=True)
class SwitchingSchedule:
    """Exponential interpolation between two trap configurations.

    t_switch is the time constant T; T = 0 is the tagged sudden case, for
    which the potential equals the final configuration exactly for any t > 0.
    """

    initial: PotentialConfig
    final: PotentialConfig
    t_switch: float

    def __post_init__(self):
        if not (self.t_switch >= 0.0 and math.isfinite(self.t_switch)):
            raise InvalidArgumentError(f"t_switch must be >= 0, got {self.t_switch}")

    def weight(self, t: float) -> float:
        """Mixing weight w(t) in V = V_init + w (V_final - V_init)."""
        if t < 0.0:
            raise InvalidArgumentError(f"t must be >= 0, got {t}")
        if self.t_switch == 0.0:
            return 0.0 if t == 0.0 else 1.0
        return -math.expm1(-t / self.t_switch)

    def settle_time(self, residual: float) -> float:
        """Time after which |V(t,x) - V_final(x)| < residual everywhere."""
        if not (residual > 0.0):
            raise InvalidArgumentError("residual must be positive")
        dv = max(
            abs(self.final.v_well - self.initial.v_well),
            abs(self.final.v_barrier - self.initial.v_barrier),
        )
        if self.t_switch == 0.0 or dv <= residual:
            return 0.0
        return self.t_switch * math.log(dv / residual)
