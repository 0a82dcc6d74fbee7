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
    edge_kernel,
    edge_rows,
    non_escape_probability,
    propagate,
    tail_phase,
    validate_setup,
)
from trapswitch.spectra import DecayRunSpec, fit_exponential_decay, switch_and_record

from cn_oracle import _cn_step
from conftest import FINAL, INITIAL, KAPPA_BOUND, TAU_RES


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

    absorbed = PropagationSetup(schedule=_sudden(), dx=0.05, box_length=100.0,
                                dt=2e-4, t_end=0.5, e_cut=40.0,
                                absorber=True)
    assert validate_setup(absorbed, unit) == []

    # an open edge needs V = 0 past it; the absorbing box has a wall there
    inside = replace(absorbed, box_length=12.0, absorber=False)
    assert validate_setup(inside, unit) == [
        "box_length=12 ends inside the trap; the open edge needs V = 0 past it, "
        "so box_length >= 15"
    ]
    assert validate_setup(replace(inside, absorber=True), unit) == []

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
    # the box holds all CN carries in 0.1 s (its fastest group velocity is
    # ~4.2 mm/s at this dt), so no norm leaves through the open edge
    phi, _ = ground_state(INITIAL, unit, dx=0.05, x_max=500.0)
    setup = PropagationSetup(schedule=_sudden(), dx=0.05, box_length=500.0,
                             dt=2e-4, t_end=0.1, e_cut=100.0)
    out = propagate(phi, setup, unit, record_every=25)
    # the recorded norm is the conserved mass-matrix form; it starts an
    # O(dx^2) distance from the plain Riemann sum and must then stay put
    assert np.max(np.abs(out.record.norm - out.record.norm[0])) < 1e-10
    assert abs(out.record.norm[0] - 1.0) < 1e-3
    assert out.final.values[0] == 0.0 and out.final.values.size == setup.n_nodes()
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
    """Largest state difference, relative to max|psi|, stepper against oracle;
    an open box's matrices carry its edge term in both."""
    ops = assemble_operators(setup, unit)
    edge = 0.0
    if not setup.absorber:
        a_row, b_row = edge_rows(setup.dx, setup.dt, unit.kappa)
        edge = -0.5 * (b_row + edge_kernel(a_row, b_row, 0)[0])
    phi, _ = ground_state(INITIAL, unit, dx=setup.dx, x_max=setup.box_length)
    a = b = _embed_initial(phi.normalized(), setup)[0][1 : 1 + ops.m_diag.size]
    stepper = _Stepper(ops, setup.dt, edge)
    worst = 0.0
    for j in range(n_steps):
        w = setup.schedule.weight((j + 0.5) * setup.dt)
        a = stepper.step(w, a, stepper.rhs(a))
        b = _cn_step(ops, w, setup.dt, b, edge)
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
        (FINAL, 60.0, False, 900),  # open edge: its node is a row
        (FINAL, 15.0, False, 0),  # no rows past the trap
        (FINAL, 15.05, False, 0),  # one row past the trap joins it
        (FINAL, 15.15, False, 3),  # smallest far block
    ],
    ids=["no-dV", "no-absorber", "no-far-rows", "one-far-row", "smallest-far-block"],
)
def test_stepper_matches_banded_lu_oracle_edge_cases(unit, final, box, absorbed, far_rows):
    setup = PropagationSetup(
        schedule=SwitchingSchedule(INITIAL, final, 0.01), dx=0.05, box_length=box,
        dt=2e-4, t_end=0.1, absorber=absorbed,
    )
    stepper, drift = _stepper_drift(unit, setup, 200)
    assert stepper.ops.m_diag.size - stepper.m == far_rows
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
    psi = out.final.values[1 : 1 + ops.m_diag.size]
    norm = np.vdot(psi, _tri_mul(ops.m_diag, ops.m_off, psi)).real
    assert abs(out.record.norm[-1] - norm) <= 1e-14 * norm


@pytest.mark.parametrize("dx, dt", [(0.15, 2.5e-4), (0.1, 2e-4)], ids=["benchmark", "scan"])
def test_edge_kernel_matches_mpmath(dx, dt, unit):
    """s_m, ell_0 = nu_0 and the implied ell_m = nu_m, and zeta_p against
    40 digits.  With P = p0 (1 - w/w1)(1 - w/w2), |w1| = |w2| = 1,
    sqrt(P) = sqrt(p0) sum_m c_m (r w)^m with r = (w1 w2)^(-1/2) and
    c_m = (P_{m-2}(mu) - P_m(mu))/(2m - 1) in Legendre polynomials of a real
    mu, an expansion independent of the program's recurrence."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        a, b = edge_rows(dx, dt, unit.kappa)
        n = 20_000  # the T = tau run's length at the benchmark numerics
        s = edge_kernel(a, b, n)

        am, bm = mp.mpc(a), mp.mpc(b)
        w1 = (bm - 2 * am) / mp.conj(bm - 2 * am)
        w2 = (bm + 2 * am) / mp.conj(bm + 2 * am)
        r = 1 / mp.sqrt(w1 * w2)
        mu = mp.re((1 / w1 + 1 / w2) / (2 * r))
        s0 = mp.sqrt(bm * bm - 4 * am * am)
        if abs(bm + s0) > 2 * abs(am):
            s0 = -s0
        legendre = [mp.mpf(1), mu]
        for m in range(1, n):
            legendre.append(((2 * m + 1) * mu * legendre[m] - m * legendre[m - 1]) / (m + 1))
        c = [mp.mpf(1), -mu] + [(legendre[m - 2] - legendre[m]) / (2 * m - 1) for m in range(2, n + 1)]
        for m in list(range(65)) + [n]:
            ref = s0 * r**m * c[m]
            assert abs(mp.mpc(s[m]) - ref) <= 1e-12 * abs(ref), m

        # nu = -(B + s)/(2A): its coefficients by series division, both sides
        nu_ref, nu = [], []
        for m in range(65):
            num = -(bm if m == 0 else -mp.conj(bm) if m == 1 else 0) - s0 * r**m * c[m]
            nu_ref.append((num / 2 + (mp.conj(am) * nu_ref[-1] if m else 0)) / am)
            num_f = -(b if m == 0 else -b.conjugate() if m == 1 else 0) - s[m]
            nu.append((num_f / 2 + (a.conjugate() * nu[-1] if m else 0)) / a)
        assert abs(nu_ref[0]) < 1
        for m in range(65):
            assert abs(mp.mpc(nu[m]) - nu_ref[m]) <= 1e-12 * abs(nu_ref[m]), m

        rho = math.exp(-KAPPA_BOUND * dx)  # the prepared state's tail
        zeta = tail_phase(a, b, rho)
        d = am * (rho + 1 / mp.mpf(rho)) + bm
        assert abs(mp.mpc(zeta) - mp.conj(d) / d) <= 1e-14
        assert abs(abs(zeta) - 1.0) <= 1e-15


@pytest.mark.parametrize("t_switch", [0.0, 0.058 * TAU_RES], ids=["T0", "T0.058tau"])
def test_open_box_matches_a_large_box(unit, t_switch):
    """A 134-node run at the benchmark's numerics equals, on [0, R], a box so
    large that nothing Crank-Nicolson carries reaches its edge (its edge
    history stays below 1e-14): the edge is exact, tail term included."""
    dx, dt, t_end = 0.15, 2.5e-4, 0.3
    schedule = SwitchingSchedule(INITIAL, FINAL, t_switch)
    phi, _ = ground_state(INITIAL, unit, dx=dx)
    small = propagate(phi, PropagationSetup(schedule, dx, 20.1, dt, t_end, e_cut=400.0), unit)
    assert small.final.values.size == 135 and small.edge.tail != 0.0
    big = 1500.0
    phi_big, _ = ground_state(INITIAL, unit, dx=dx, x_max=big)
    large = propagate(phi_big, PropagationSetup(schedule, dx, big, dt, t_end, e_cut=400.0), unit)
    peak = np.max(np.abs(large.final.values))
    assert np.max(np.abs(large.edge.psi_edge)) <= 1e-14 * peak
    inside = large.final.values[:135]
    assert np.max(np.abs(small.final.values - inside)) <= 1e-10 * peak
    assert abs(small.edge.psi_out[-1] - large.final.values[135]) <= 1e-10 * peak
    assert np.max(np.abs(small.record.p_w - large.record.p_w)) <= 1e-12
