import math

import pytest

from trapswitch.errors import InvalidArgumentError
from trapswitch.model import (
    ATOMIC_MASS_SI,
    HBAR_SI,
    PotentialConfig,
    SODIUM23_MASS_AMU,
    SwitchingSchedule,
    make_unit_system,
)

from frozen import FINAL, INITIAL, KAPPA


def test_kappa_matches_si_constants(unit):
    # hbar/m in m^2/s, converted to um^2/s
    expected = HBAR_SI / (SODIUM23_MASS_AMU * ATOMIC_MASS_SI) * 1e12
    assert unit.kappa == pytest.approx(expected, rel=1e-12)
    assert unit.kappa == pytest.approx(KAPPA, rel=1e-12)


def test_potential_rejects_bad_geometry():
    with pytest.raises(InvalidArgumentError):
        PotentialConfig(v_well=100.0, v_barrier=200.0, d=-1.0, b=10.0)
    with pytest.raises(InvalidArgumentError):
        PotentialConfig(v_well=100.0, v_barrier=200.0, d=5.0, b=-1.0)
    with pytest.raises(InvalidArgumentError):
        PotentialConfig(v_well=-5.0, v_barrier=200.0, d=5.0, b=10.0)
    # a zero-width barrier is a legal degenerate case
    assert PotentialConfig(v_well=100.0, v_barrier=200.0, d=5.0, b=0.0).outer_edge == 5.0
    assert FINAL.outer_edge == 15.0


def test_switch_weight_exponential_approach():
    sched = SwitchingSchedule(INITIAL, FINAL, t_switch=0.2)
    assert sched.weight(0.0) == 0.0
    for t in (0.05, 0.2, 0.9):
        assert sched.weight(t) == pytest.approx(1.0 - math.exp(-t / 0.2), rel=1e-14)
    # sudden limit: final values for any positive time
    sudden = SwitchingSchedule(INITIAL, FINAL, t_switch=0.0)
    assert sudden.weight(0.0) == 0.0
    assert sudden.weight(1e-12) == 1.0


def test_settle_time_reaches_requested_residual():
    sched = SwitchingSchedule(INITIAL, FINAL, t_switch=0.3)
    # largest depth change is 250; residual is absolute, in the same units
    for residual in (1.0, 1e-3):
        t = sched.settle_time(residual)
        assert t == pytest.approx(0.3 * math.log(250.0 / residual), rel=1e-12)
        # V(t) - V_final = (1 - w(t)) (V_init - V_final) in the well and the barrier
        lag = (1.0 - sched.weight(t)) * max(
            abs(INITIAL.v_well - FINAL.v_well), abs(INITIAL.v_barrier - FINAL.v_barrier)
        )
        assert lag == pytest.approx(residual, rel=1e-9)
    assert SwitchingSchedule(INITIAL, FINAL, 0.0).settle_time(1e-3) == 0.0


def test_unit_system_rejects_nonpositive_mass():
    with pytest.raises(InvalidArgumentError):
        make_unit_system(0.0)
    with pytest.raises(InvalidArgumentError):
        make_unit_system(-1.0)
