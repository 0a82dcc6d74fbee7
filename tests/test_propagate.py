"""Time stepping: setup validation, conservation, convergence under step
refinement, and the absorbing layer.

The heavier invariance checks (projection equivalence, time reversal,
stationarity, absorber transparency) live in the acceptance suite; here the
profiles are kept small enough for quick iteration.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import trapswitch.propagate as propagate_module
from trapswitch.errors import InvalidArgumentError
from trapswitch.groundstate import ground_state
from trapswitch.model import SwitchingSchedule
from trapswitch.propagate import (
    PropagationSetup,
    _embed_initial,
    _Stepper,
    _tri_mul,
    assemble_operators,
    non_escape_probability,
    propagate,
    validate_setup,
)
from trapswitch.spectra import DecayRunSpec, fit_exponential_decay, switch_and_record

from cn_oracle import _cn_step
from conftest import FINAL, INITIAL, TAU_RES


def _sudden():
    return SwitchingSchedule(INITIAL, FINAL, 0.0)


def test_validate_setup_flags_each_constraint(unit):
    ok = PropagationSetup(schedule=_sudden(), dx=0.05, box_length=300.0,
                          dt=2e-4, t_end=0.5, e_cut=40.0)
    assert validate_setup(ok, unit) == []

    coarse = PropagationSetup(schedule=_sudden(), dx=0.5, box_length=300.0,
                              dt=2e-4, t_end=0.5, e_cut=1000.0)
    problems = validate_setup(coarse, unit)
    assert any("dx=0.5" in p and "need dx <=" in p for p in problems)

    leaky = PropagationSetup(schedule=_sudden(), dx=0.05, box_length=100.0,
                             dt=2e-4, t_end=0.5, e_cut=40.0)
    assert any("flux" in p for p in validate_setup(leaky, unit))
    # the same box is fine once an absorber handles the outgoing flux
    absorbed = PropagationSetup(schedule=_sudden(), dx=0.05, box_length=100.0,
                                dt=2e-4, t_end=0.5, e_cut=40.0,
                                absorber=True)
    assert validate_setup(absorbed, unit) == []

    tiny = PropagationSetup(schedule=_sudden(), dx=0.05, box_length=0.1,
                            dt=2e-4, t_end=0.0, e_cut=40.0)
    assert any("1 interior nodes" in p for p in validate_setup(tiny, unit))

    # CN carries e_cut + v_top = 390 hbar/s at 1/(1 + 0.975^2) of its group
    # velocity here, so dt must come down to 1/390 s
    slow = PropagationSetup(schedule=SwitchingSchedule(INITIAL, FINAL, 0.01), dx=0.05,
                            box_length=300.0, dt=5e-3, t_end=0.5, e_cut=40.0)
    assert validate_setup(slow, unit) == [
        "dt=0.005 carries energy e_cut + v_top = 390 over 20% slow; need dt <= 0.0025641"
    ]
    assert validate_setup(replace(slow, dt=1.0 / 390.0), unit) == []


def test_propagate_rejects_invalid_inputs(unit):
    phi, _ = ground_state(INITIAL, unit, dx=0.05, x_max=300.0)
    setup = PropagationSetup(schedule=_sudden(), dx=0.05, box_length=300.0,
                             dt=2e-4, t_end=0.01, e_cut=40.0)
    with pytest.raises(InvalidArgumentError):
        propagate(phi, setup, unit, record_every=0)
    doubled = phi.normalized()
    doubled.values[:] *= 2.0
    with pytest.raises(InvalidArgumentError):
        propagate(doubled, setup, unit)


def test_accuracy_probe_rejects_coarse_step(unit):
    """propagate refuses a time step too coarse for e_cut before any step,
    through the static dt bound of validate_setup."""
    phi, _ = ground_state(INITIAL, unit, dx=0.05, x_max=300.0)
    sched = SwitchingSchedule(INITIAL, FINAL, 0.01)
    setup = PropagationSetup(schedule=sched, dx=0.05, box_length=300.0,
                             dt=5e-3, t_end=0.5, e_cut=40.0)
    with pytest.raises(InvalidArgumentError, match=r"dt=0\.005 .* need dt <= 0\.0025641"):
        propagate(phi, setup, unit)


def test_mass_norm_conserved_and_recorded(unit):
    phi, _ = ground_state(INITIAL, unit, dx=0.05, x_max=300.0)
    setup = PropagationSetup(schedule=_sudden(), dx=0.05, box_length=300.0,
                             dt=2e-4, t_end=0.1, e_cut=100.0)
    out = propagate(phi, setup, unit, record_every=25)
    # the recorded norm is the conserved mass-matrix form; it starts an
    # O(dx^2) distance from the plain Riemann sum and must then stay put
    assert np.max(np.abs(out.record.norm - out.record.norm[0])) < 1e-10
    assert abs(out.record.norm[0] - 1.0) < 1e-3
    assert out.final.values[0] == 0.0 and out.final.values[-1] == 0.0
    assert out.record.times[0] == 0.0
    assert out.record.times[-1] == pytest.approx(0.1)
    assert out.record.times.size == setup.n_steps() // 25 + 1


def test_stationary_state_is_static(unit):
    phi, _ = ground_state(INITIAL, unit, dx=0.05, x_max=260.0)
    sched = SwitchingSchedule(INITIAL, INITIAL, 0.0)
    setup = PropagationSetup(schedule=sched, dx=0.05, box_length=260.0,
                             dt=2e-4, t_end=1.0, e_cut=10.0)
    out = propagate(phi, setup, unit, record_every=50)
    drift = np.max(np.abs(out.record.p_w - out.record.p_w[0]))
    assert drift < 2e-5
    assert np.max(np.abs(out.record.norm - out.record.norm[0])) < 1e-10


def test_decay_rate_insensitive_to_time_step(unit):
    a = switch_and_record(INITIAL, FINAL, 0.0, unit,
                          DecayRunSpec(t_end=0.6, dt=1e-4, record_every=20))
    b = switch_and_record(INITIAL, FINAL, 0.0, unit,
                          DecayRunSpec(t_end=0.6, dt=5e-5, record_every=40))
    assert abs(a.p_w[-1] - b.p_w[-1]) < 1e-5


def test_decay_rate_insensitive_to_grid_step(unit):
    a = switch_and_record(INITIAL, FINAL, 0.0, unit,
                          DecayRunSpec(t_end=2.5, record_every=5))
    b = switch_and_record(INITIAL, FINAL, 0.0, unit,
                          DecayRunSpec(t_end=2.5, dx=0.025, record_every=5))
    tau_a, _, _ = fit_exponential_decay(a, 0.5)
    tau_b, _, _ = fit_exponential_decay(b, 0.5)
    assert abs(tau_a - tau_b) / tau_a < 5e-3
    assert abs(tau_a - TAU_RES) / TAU_RES < 0.01


def test_non_escape_probability_half_open_interval(unit):
    phi, _ = ground_state(INITIAL, unit, dx=0.05)
    p_narrow = non_escape_probability(phi, 2.5)
    p_well = non_escape_probability(phi, INITIAL.d)
    p_wide = non_escape_probability(phi, INITIAL.outer_edge)
    assert 0.0 < p_narrow < p_well < p_wide < 1.0


#: Block elimination reorders the pivoted elimination of the banded LU; its
#: roundoff drifts ~1.7e-14 max|psi| per step (condition number ~200).
STEPPER_ORACLE_TOL = 2e-10


def _stepper_drift(unit, setup, n_steps):
    """Largest state difference, relative to max|psi|, stepper against oracle."""
    ops = assemble_operators(setup, unit)
    phi, _ = ground_state(INITIAL, unit, dx=setup.dx, x_max=setup.box_length)
    a = b = _embed_initial(phi.normalized(), setup)[1:-1]
    stepper = _Stepper(ops, setup.dt)
    worst = 0.0
    for j in range(n_steps):
        w = setup.schedule.weight((j + 0.5) * setup.dt)
        a = stepper.step(w, a, stepper.rhs(a))
        b = _cn_step(ops, w, setup.dt, b)
        worst = max(worst, float(np.max(np.abs(a - b)) / np.max(np.abs(b))))
    return stepper, worst


@pytest.mark.parametrize(
    "t_switch",
    [0.0, 0.002, 0.058 * TAU_RES, TAU_RES],
    ids=["T0", "T0.002s", "T0.058tau", "T1tau"],
)
def test_stepper_matches_banded_lu_oracle_on_decay_box(unit, t_switch):
    setup = DecayRunSpec().setup(SwitchingSchedule(INITIAL, FINAL, t_switch), unit)
    stepper, drift = _stepper_drift(unit, setup, 2000)
    # the trap rows end at the outer edge; the rest is the constant far block
    assert stepper.m == round(FINAL.outer_edge / setup.dx)
    # w(t) rounds to exactly 1 near step 370 at T = 0.002 s, so that run
    # crosses from block elimination to the whole factored matrix
    assert (stepper.whole is not None) == (t_switch < 0.01)
    assert drift < STEPPER_ORACLE_TOL


@pytest.mark.parametrize(
    "final, box, absorbed, far_rows",
    [
        (INITIAL, 150.0, True, 2996),  # dV = 0: the trap block is MIN_BLOCK rows
        (FINAL, 60.0, False, 899),  # no absorber
        (FINAL, 15.05, False, 0),  # no rows past the trap
        (FINAL, 15.1, False, 0),  # one row past the trap joins it
        (FINAL, 15.2, False, 3),  # smallest far block
    ],
    ids=["no-dV", "no-absorber", "no-far-rows", "one-far-row", "smallest-far-block"],
)
def test_stepper_matches_banded_lu_oracle_edge_cases(unit, final, box, absorbed, far_rows):
    setup = PropagationSetup(
        schedule=SwitchingSchedule(INITIAL, final, 0.01), dx=0.05, box_length=box,
        dt=2e-4, t_end=0.1, absorber=absorbed,
    )
    stepper, drift = _stepper_drift(unit, setup, 200)
    assert setup.n_nodes() - 2 - stepper.m == far_rows
    assert (stepper.far is None) == (far_rows == 0)
    assert drift < STEPPER_ORACLE_TOL


def test_far_block_is_factored_once_per_time_step(unit, monkeypatch):
    """Structural guard: while the switch changes, each step refactors only
    the trap rows, and the far block is factored once per run.  Once
    w == 1.0 (from the first step of a sudden switch) the whole matrix is
    factored once instead, and no step refactors anything."""
    calls = []

    def counting(name, routine):
        def wrapped(*args, **kwargs):
            calls.append((name, args[1].size))  # the diagonal
            return routine(*args, **kwargs)
        return wrapped

    for name in ("zgttrf", "zgtsv"):
        monkeypatch.setattr(propagate_module, name, counting(name, getattr(propagate_module, name)))

    def run(t_switch):
        setup = DecayRunSpec(t_end=0.02).setup(SwitchingSchedule(INITIAL, FINAL, t_switch), unit)
        phi, _ = ground_state(INITIAL, unit, dx=setup.dx, x_max=setup.box_length)
        calls.clear()
        propagate(phi, setup, unit)
        factored = [size for name, size in calls if name == "zgttrf"]
        return setup, factored, [size for name, size in calls if name == "zgtsv"]

    setup, factored, trap_solved = run(0.01)
    trap_rows = round(FINAL.outer_edge / setup.dx)
    rows = setup.n_nodes() - 2
    far_rows = rows - trap_rows
    assert factored == [far_rows]
    assert trap_solved == [trap_rows] * setup.n_steps()

    # the stepper factors its far block when built and the whole matrix on
    # its first step
    _, factored, trap_solved = run(0.0)
    assert factored == [far_rows, rows]
    assert trap_solved == []


@pytest.mark.parametrize("absorbed", [True, False], ids=["absorbed-sudden", "unabsorbed-ramp"])
def test_recorded_observables_match_the_final_state(unit, absorbed):
    """The record takes p_w from fixed trapezoid weights and the norm from
    the step's right-hand side 2M psi; both must equal the direct forms on
    the state they sample."""
    if absorbed:
        setup = DecayRunSpec(t_end=0.05).setup(_sudden(), unit)
    else:
        setup = PropagationSetup(schedule=SwitchingSchedule(INITIAL, FINAL, 0.01), dx=0.05,
                                 box_length=100.0, dt=2e-4, t_end=0.05, e_cut=40.0)
    phi, _ = ground_state(INITIAL, unit, dx=setup.dx, x_max=setup.box_length)
    out = propagate(phi, setup, unit, record_every=7)
    assert out.record.times[-1] == pytest.approx(setup.t_end)
    p_w = non_escape_probability(out.final, INITIAL.d)
    assert abs(out.record.p_w[-1] - p_w) <= 1e-14 * p_w
    ops = assemble_operators(setup, unit)
    psi = out.final.values[1:-1]
    norm = np.vdot(psi, _tri_mul(ops.m_diag, ops.m_off, psi)).real
    assert abs(out.record.norm[-1] - norm) <= 1e-14 * norm
