import math

import numpy as np
import pytest

from trapswitch.errors import AmbiguousBoundStateError, InvalidArgumentError, NoBoundStateError
from trapswitch.groundstate import TAIL_CUTOFF, WavefunctionGrid, ground_state
from trapswitch.model import PotentialConfig, SwitchingSchedule
from trapswitch.propagate import (
    PropagationSetup,
    _tri_mul,
    assemble_operators,
    non_escape_probability,
)

from cn_oracle import _tri_solve
from conftest import E_BOUND, FINAL, INITIAL, P_WELL_BOUND


def _fem_residual(unit, dx):
    """How well the analytic profile solves the discrete eigenproblem."""
    phi, e0 = ground_state(INITIAL, unit, dx=dx)
    sched = SwitchingSchedule(INITIAL, INITIAL, 0.0)
    setup = PropagationSetup(schedule=sched, dx=dx, box_length=phi.x_max,
                             dt=2e-4, t_end=0.0, e_cut=10.0)
    ops = assemble_operators(setup, unit)
    v = phi.values[1 : 1 + ops.m_diag.size].copy()
    hv = _tri_mul(ops.h0_diag, ops.h0_off, v)
    r = _tri_solve(ops.m_diag.astype(complex), ops.m_off.astype(complex), hv) - e0 * v
    return float(np.linalg.norm(r) / (abs(e0) * np.linalg.norm(v)))


def test_ground_state_energy_and_norm(unit):
    phi, e0 = ground_state(INITIAL, unit, dx=0.05)
    assert e0 == pytest.approx(E_BOUND, rel=1e-12)
    assert phi.norm_squared() == pytest.approx(1.0, abs=1e-12)
    assert phi.values[0] == 0.0
    # evanescent tail truncated where it stops mattering
    amp = np.abs(phi.values)
    assert amp[-1] <= 10.0 * TAIL_CUTOFF * amp.max()


def test_ground_state_well_weight(unit):
    phi, _ = ground_state(INITIAL, unit, dx=0.05)
    assert non_escape_probability(phi, INITIAL.d) == pytest.approx(
        P_WELL_BOUND, rel=1e-9
    )
    # most of the state sits in the well, the rest tunnels into the barrier
    assert 0.5 < non_escape_probability(phi, INITIAL.d) < 1.0


def test_ground_state_energy_is_grid_free(unit):
    _, e_a = ground_state(INITIAL, unit, dx=0.05)
    _, e_b = ground_state(INITIAL, unit, dx=0.02)
    assert e_a == e_b  # analytic eigenvalue, dx only controls sampling


def test_ground_state_respects_requested_box(unit):
    phi, _ = ground_state(INITIAL, unit, dx=0.05, x_max=120.0)
    assert phi.x_max == pytest.approx(120.0)
    assert phi.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_ground_state_missing_level_raises(unit):
    with pytest.raises(NoBoundStateError):
        ground_state(FINAL, unit, dx=0.05)


def test_ground_state_rejects_a_trap_with_two_levels(unit):
    wide = PotentialConfig(v_well=350.0, v_barrier=400.0, d=15.0, b=10.0)
    with pytest.raises(AmbiguousBoundStateError) as err:
        ground_state(wide, unit)
    energies = err.value.energies
    assert len(set(energies)) == len(energies) == 2
    for e in energies:
        # each is a level: the log-derivative carried from the wall through
        # the barrier meets the evanescent tail slope -kap
        kap = math.sqrt(-2.0 * e / unit.kappa)
        q = math.sqrt(2.0 * wide.v_well / unit.kappa - kap * kap)
        mu = math.sqrt(2.0 * wide.v_barrier / unit.kappa + kap * kap)
        f, fp = math.sin(q * wide.d), q * math.cos(q * wide.d)
        ch, sh = math.cosh(mu * wide.b), math.sinh(mu * wide.b)
        slope = (f * mu * sh + fp * ch) / (f * ch + fp * sh / mu)
        assert slope == pytest.approx(-kap, rel=1e-7)  # cosh(mu b) ~ 600 amplifies roundoff


def test_fem_residual_second_order_convergence(unit):
    r1 = _fem_residual(unit, 0.05)
    r2 = _fem_residual(unit, 0.025)
    assert r1 < 1e-3
    assert 3.0 < r1 / r2 < 5.0


def test_wavefunction_grid_validation():
    with pytest.raises(InvalidArgumentError):
        WavefunctionGrid(0.0, -0.1, np.ones(5, dtype=complex))
    with pytest.raises(InvalidArgumentError):
        WavefunctionGrid(0.0, 0.1, np.ones((2, 3), dtype=complex))
    grid = WavefunctionGrid(0.0, 0.1, np.ones(8, dtype=complex))
    assert grid.x_max == pytest.approx(0.7)
    assert grid.x.shape == (8,)


def test_normalized_returns_unit_norm(unit):
    phi, _ = ground_state(INITIAL, unit, dx=0.05)
    phi.values[:] *= 3.0 - 4.0j
    renorm = phi.normalized()
    assert renorm.norm_squared() == pytest.approx(1.0, rel=1e-12)
