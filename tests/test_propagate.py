"""Time stepping: setup validation, the potential's element integrals,
whole runs against a banded-LU oracle (an open box's in a box its packet
does not reach), conservation, convergence under step refinement, and the
absorbing layer.

The heavier invariance checks (projection equivalence, time reversal,
stationarity, absorber transparency) live in the acceptance suite; here the
profiles are kept small enough for quick iteration.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import trapswitch.propagate as propagate_module
from trapswitch.errors import InvalidArgumentError, NumericalBlowupError
from trapswitch.groundstate import WavefunctionGrid, ground_state
from trapswitch.model import PotentialConfig, SwitchingSchedule
from trapswitch.propagate import (
    PropagationSetup,
    _absorber_mass,
    _config_mass,
    _embed_initial,
    _OpenEdge,
    _Prefactored,
    _Stepper,
    _stencil,
    assemble_operators,
    edge_kernel,
    edge_rows,
    non_escape_probability,
    propagate,
    tail_phase,
    validate_setup,
)
from trapswitch.spectra import (
    DecayRunSpec,
    SpectrumRunSpec,
    fit_exponential_decay,
    switch_and_record,
)

from cn_oracle import _tri_mul, _tri_solve, cn_states, zgttrs_solve
from conftest import FINAL, INITIAL, KAPPA_BOUND, TAU_RES
from mass_oracle import absorber_mass_by_elements, config_mass_by_edges, potential_mass


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

    # an open edge needs V = 0 past it, and so does the absorbing ramp over
    # the box's last quarter, which a 12 um box starts at 9 um
    inside = replace(absorbed, box_length=12.0, absorber=False)
    assert validate_setup(inside, unit) == [
        "box_length=12 ends inside the trap; the open edge needs V = 0 past it, "
        "so box_length >= 15"
    ]
    assert validate_setup(replace(inside, absorber=True), unit) == [
        "box_length=12 starts its absorber inside the trap; the absorber needs V = 0 "
        "past it, so box_length >= 20"
    ]
    assert validate_setup(replace(inside, box_length=20.0, absorber=True), unit) == []

    # rows are what `assemble_operators` keeps: an open box keeps its last
    # node, the absorbing box drops it
    tiny = PropagationSetup(schedule=_sudden(), dx=0.05, box_length=0.1,
                            dt=2e-4, t_end=0.0, e_cut=40.0)
    too_few = "box_length=0.1 at dx=0.05 leaves the solver {} of the 3 rows it needs"
    assert too_few.format(2) in validate_setup(tiny, unit)
    assert too_few.format(1) in validate_setup(replace(tiny, absorber=True), unit)
    # four nodes around a trap that ends at 0.1 um: three rows, enough to run
    trap = [replace(config, d=0.05, b=0.05) for config in (INITIAL, FINAL)]
    smallest = replace(tiny, schedule=SwitchingSchedule(*trap, 0.0), box_length=0.15,
                       t_end=10 * tiny.dt)
    assert smallest.n_nodes() == 4 and validate_setup(smallest, unit) == []
    phi = WavefunctionGrid(smallest.dx, np.array([0.0, 1.0, 1.0, 1.0])).normalized()
    record = propagate(phi, smallest, unit, record_every=1).record
    assert record.times.size == 11
    assert np.all(np.isfinite(record.p_w)) and np.all(np.isfinite(record.norm))

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
        propagate(doubled, setup, unit, record_every=1)


def test_static_dt_bound_rejects_coarse_step(unit):
    """propagate refuses a time step too coarse for e_cut before any step,
    through the static dt bound of validate_setup."""
    phi, _ = ground_state(INITIAL, unit, dx=0.05, x_max=300.0)
    sched = SwitchingSchedule(INITIAL, FINAL, 0.01)
    setup = PropagationSetup(schedule=sched, dx=0.05, box_length=300.0,
                             dt=5e-3, t_end=0.5, e_cut=40.0)
    with pytest.raises(InvalidArgumentError, match=r"dt=0\.005 .* need dt <= 0\.0025641"):
        propagate(phi, setup, unit, record_every=1)


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


#: (dx, box length) of the decay box, the spectrum-vs-T box, the scan's
#: spectrum box, and a grid with nodes on both edges of the shipped traps
MASS_GRIDS = [(0.05, 150.0), (0.15, 20.1), (0.1, 20.0), (0.125, 20.0)]
MASS_GRID_IDS = ["decay", "spectrum", "scan", "nodes-on-edges"]


def _random_traps(n):
    """Traps whose barrier is wider than every grid step, inside a 20 um box."""
    rng = np.random.default_rng(7)
    return [
        PotentialConfig(v_well=rng.uniform(0.0, 500.0), v_barrier=rng.uniform(0.0, 500.0),
                        d=rng.uniform(0.3, 9.0), b=rng.uniform(0.5, 8.0))
        for _ in range(n)
    ]


def _assert_mass_matches(config, x, dx, ref_diag, ref_off):
    diag, off = _config_mass(config, x, dx)
    tol = 1e-13 * max(config.v_well, config.v_barrier) * dx
    assert np.max(np.abs(diag - ref_diag)) <= tol
    assert np.max(np.abs(off - ref_off)) <= tol
    # no potential past the trap: the elements there add exactly nothing
    past = x[:-1] >= config.outer_edge
    assert np.all(off[past] == 0.0) and np.all(diag[1:][past] == 0.0)


@pytest.mark.parametrize("dx, box", MASS_GRIDS, ids=MASS_GRID_IDS)
def test_config_mass_matches_the_edge_oracle(dx, box):
    x = dx * np.arange(int(round(box / dx)) + 1)
    for config in [INITIAL, FINAL, *_random_traps(20)]:
        _assert_mass_matches(config, x, dx, *config_mass_by_edges(config, x, dx))


@pytest.mark.parametrize("dx, box", MASS_GRIDS, ids=MASS_GRID_IDS)
@pytest.mark.parametrize("b", [0.02, 0.0], ids=["narrow-barrier", "no-barrier"])
def test_config_mass_on_an_element_holding_both_edges(dx, box, b):
    """Both edges inside one element: the trap equals a step of
    -(v_well + v_barrier) up to d plus a step of v_barrier up to d + b, and
    the oracle is exact on each."""
    x = dx * np.arange(int(round(box / dx)) + 1)
    config = PotentialConfig(v_well=100.0, v_barrier=200.0, d=5.01, b=b)
    j = int(config.d // dx)
    assert x[j] < config.d <= config.outer_edge < x[j + 1]
    well = potential_mass(x, dx, [config.d], [-config.v_well - config.v_barrier, 0.0])
    step = potential_mass(x, dx, [config.outer_edge], [config.v_barrier, 0.0])
    _assert_mass_matches(config, x, dx, well[0] + step[0], well[1] + step[1])


@pytest.mark.parametrize("dx, box", [(0.05, 150.0), (0.1, 60.0), (0.0375, 20.0), (0.15, 20.1)],
                         ids=["decay", "60um", "fine", "off-grid-box"])
def test_absorber_mass_matches_the_element_loop(dx, box):
    x = dx * np.arange(int(round(box / dx)) + 1)
    diag, off = _absorber_mass(x, dx, box)
    ref_diag, ref_off = absorber_mass_by_elements(x, dx, box)
    tol = 1e-15 * np.max(ref_diag)
    assert np.max(np.abs(diag - ref_diag)) <= tol
    assert np.max(np.abs(off - ref_off)) <= tol
    # nothing before the ramp starts
    assert np.all(diag[x < 0.75 * box - dx] == 0.0)


def test_trap_rows_match_the_edge_oracle_on_the_shipped_boxes(unit, monkeypatch):
    schedule = SwitchingSchedule(INITIAL, FINAL, 0.058 * TAU_RES)
    specs = [DecayRunSpec(t_end=2.5), SpectrumRunSpec(dx=0.15, dt=2.5e-4), SpectrumRunSpec()]
    setups = [spec.setup(schedule) for spec in specs]

    def trap_rows(setup):
        ops = assemble_operators(setup, unit)
        trap = _Stepper(ops, setup.dt, 0.0).m
        return trap, np.flatnonzero(ops.dv_diag), np.flatnonzero(ops.dv_off)

    rows = [trap_rows(setup) for setup in setups]
    monkeypatch.setattr(propagate_module, "_config_mass", config_mass_by_edges)
    for setup, (m, dv_diag, dv_off) in zip(setups, rows):
        m_ref, dv_diag_ref, dv_off_ref = trap_rows(setup)
        assert m == m_ref
        assert np.array_equal(dv_diag, dv_diag_ref) and np.array_equal(dv_off, dv_off_ref)


#: Block elimination reorders the pivoted elimination of the banded LU; its
#: roundoff drifts ~1.7e-14 max|psi| per step (condition number ~200).
STEPPER_ORACLE_TOL = 2e-10


def _reach(unit, dt, t):
    """Twice the distance Crank-Nicolson carries anything in time t: its
    group velocity kappa k / (1 + (c k^2)^2), c = kappa dt / 4, peaks at
    (3/4) kappa (3 c^2)^(-1/4)."""
    c = 0.25 * unit.kappa * dt
    return 2.0 * 0.75 * unit.kappa * (3.0 * c * c) ** -0.25 * t


def _oracle_drift(unit, monkeypatch, setup, phi, counts):
    """Largest state difference, relative to max|psi|, of whole `propagate`
    runs from phi of each step count in counts (ascending) against a loop of
    `_cn_step`, and the stepper of the longest run.  An open box's oracle
    runs in a box whose end nothing reaches in time, so it checks the open
    edge too, with the psi_{J+1} the edge history implies."""
    oracle_setup = setup
    if not setup.absorber:
        reach = _reach(unit, setup.dt, counts[-1] * setup.dt)
        oracle_setup = replace(setup, box_length=setup.box_length + reach)
    ops = assemble_operators(oracle_setup, unit)
    start = _embed_initial(phi, oracle_setup)[0][1 : 1 + ops.m_diag.size]
    oracle = cn_states(ops, setup.schedule, setup.dt, start, set(counts))
    made = []

    class Recording(_Stepper):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(propagate_module, "_Stepper", Recording)
    worst = 0.0
    for count in counts:
        run = propagate(phi, replace(setup, t_end=count * setup.dt), unit, record_every=1)
        size = made[-1].ops.m_diag.size
        ref = oracle[count]
        peak = np.max(np.abs(ref))
        drift = np.max(np.abs(run.final.values[1 : 1 + size] - ref[:size]))
        if not setup.absorber:
            assert abs(ref[-1]) <= 1e-14 * peak
            drift = max(drift, abs(run.edge.psi_out[-1] - ref[size]))
        worst = max(worst, float(drift / peak))
    return made[-1], worst


def _block_counts(unit, setup, n_steps):
    """Step counts 1, one below, at and one above the stepper's block of
    steps, one that ends mid-block, and n_steps."""
    block = _Stepper(assemble_operators(setup, unit), setup.dt, 0.0).block
    assert 2 <= block < n_steps // 3
    return block, [1, block - 1, block, block + 1, 2 * block + block // 2, n_steps]


@pytest.mark.parametrize(
    "t_switch",
    [0.0, 0.002, 0.058 * TAU_RES, TAU_RES],
    ids=["T0", "T0.002s", "T0.058tau", "T1tau"],
)
def test_stepper_matches_banded_lu_oracle_on_decay_box(unit, monkeypatch, t_switch):
    setup = DecayRunSpec(t_end=2.5).setup(SwitchingSchedule(INITIAL, FINAL, t_switch))
    phi, _ = ground_state(INITIAL, unit, dx=setup.dx, x_max=setup.box_length)
    block, counts = _block_counts(unit, setup, 2000)
    stepper, drift = _oracle_drift(unit, monkeypatch, setup, phi, counts)
    # the trap rows end at the outer edge; the rest is the constant far block
    assert stepper.m == round(FINAL.outer_edge / setup.dx)
    # w(t) rounds to exactly 1 near step 370 at T = 0.002 s, inside a block
    # of steps, so that run crosses from block elimination to the whole
    # factored matrix within one table of trap rows
    if t_switch == 0.002:
        weights = (setup.schedule.weight((j + 0.5) * setup.dt) for j in range(2000))
        settled = next(j for j, w in enumerate(weights) if w == 1.0)
        assert 360 < settled < 380 and settled % block != 0
    assert (stepper.whole is not None) == (t_switch < 0.01)
    assert drift < STEPPER_ORACLE_TOL


@pytest.mark.parametrize(
    "final, box, absorbed, far_rows",
    [
        (INITIAL, 150.0, True, 2996),  # dV = 0: the trap block is MIN_BLOCK rows
        (FINAL, 60.0, False, 900),  # open edge: its node is a row
        (FINAL, 15.0, False, 0),  # no rows past the trap
        (FINAL, 15.05, False, 0),  # one row past the trap joins it
        (FINAL, 15.15, False, 0),  # three rows, enough for LAPACK, join it too
        (FINAL, 29.95, False, 0),  # 299 rows, one fewer than the trap block's, join it
        (FINAL, 30.0, False, 300),  # smallest far block: as many rows as the trap block
    ],
    ids=["no-dV", "no-absorber", "no-far-rows", "one-far-row", "three-far-rows",
         "largest-joining-far-block", "smallest-far-block"],
)
def test_stepper_matches_banded_lu_oracle_edge_cases(
    unit, monkeypatch, final, box, absorbed, far_rows
):
    """The prepared state cut at the box's end: an open box starts with
    psi_J != 0 and nothing past J."""
    setup = PropagationSetup(
        schedule=SwitchingSchedule(INITIAL, final, 0.01), dx=0.05, box_length=box,
        dt=2e-4, t_end=0.1, e_cut=1000.0, absorber=absorbed,
    )
    phi, _ = ground_state(INITIAL, unit, dx=setup.dx, x_max=setup.box_length)
    stepper, drift = _oracle_drift(unit, monkeypatch, setup, phi, [200])
    assert stepper.ops.m_diag.size - stepper.m == far_rows
    assert (stepper.far is None) == (far_rows == 0)
    assert drift < STEPPER_ORACLE_TOL


def test_stepper_matches_banded_lu_oracle_on_the_spectrum_box(unit, monkeypatch):
    # the shipped spectrum box and prepared state, tail included: its 34 far
    # rows join the 100 trap rows, so every step while 0 < w < 1 is one
    # solve of the whole matrix
    spec = SpectrumRunSpec(dx=0.15, dt=2.5e-4)
    setup = spec.setup(SwitchingSchedule(INITIAL, FINAL, 0.058 * TAU_RES))
    assert setup.n_nodes() == 135
    phi, _ = ground_state(INITIAL, unit, dx=setup.dx)
    _, counts = _block_counts(unit, setup, 400)
    stepper, drift = _oracle_drift(unit, monkeypatch, setup, phi, counts)
    assert stepper.far is None and stepper.m == stepper.ops.m_diag.size == 134
    assert 0.0 < setup.schedule.weight(400 * setup.dt) < 1.0
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

    lapack = propagate_module._lapack()
    for name in ("zgttrf", "zgtsv"):
        monkeypatch.setattr(lapack, name, counting(name, getattr(lapack, name)))

    def run(t_switch):
        setup = DecayRunSpec(t_end=0.02).setup(SwitchingSchedule(INITIAL, FINAL, t_switch))
        phi, _ = ground_state(INITIAL, unit, dx=setup.dx, x_max=setup.box_length)
        calls.clear()
        propagate(phi, setup, unit, record_every=1)
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


def _open_gain(setup, unit):
    return _OpenEdge(*edge_rows(setup.dx, setup.dt, unit.kappa), 1, 0j, 0.0, 0j).gain


def _sweep_drift(solver, diag, off):
    """Largest difference of solver's sweeps from `zgttrs` on the same
    matrix, relative to max|x|, for a random right-hand side."""
    rhs = np.array([1.0, 1j]) @ np.random.default_rng(5).normal(size=(2, diag.size))
    ref = zgttrs_solve(diag, off, rhs)
    x = rhs.copy()
    solver.solve(x)
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


def _open_60um(unit):
    """A 60 um open box: its 900-row far block ends in the edge-gain row."""
    setup = PropagationSetup(SwitchingSchedule(INITIAL, FINAL, 0.01), dx=0.05, box_length=60.0,
                             dt=2e-4, t_end=0.1, e_cut=1000.0)
    return _Stepper(assemble_operators(setup, unit), setup.dt, _open_gain(setup, unit))


def test_bidiagonal_sweeps_match_zgttrs(unit):
    """The prefactored solves of the decay box (its L(1) and far block), of
    a 60 um open box's far block, whose last row carries the edge gain and
    is the first the bottom-up elimination takes, and of the 135-node open
    box with its edge gain (its L(1)) against the `zgttrs` they replace."""
    decay = DecayRunSpec(t_end=2.5).setup(SwitchingSchedule(INITIAL, FINAL, 0.058 * TAU_RES))
    stepper = _Stepper(assemble_operators(decay, unit), decay.dt, 0.0)
    diag, off = stepper._lhs(0.0)
    m = stepper.m
    assert _sweep_drift(stepper.far, diag[m:], off[m:]) <= 1e-13
    assert _sweep_drift(stepper.factor_whole(), *stepper._lhs(1.0)) <= 1e-13

    stepper = _open_60um(unit)
    diag, off = stepper._lhs(0.0)
    m = stepper.m
    assert diag.size - m == 900 and stepper.edge
    assert _sweep_drift(stepper.far, diag[m:], off[m:]) <= 1e-13

    spectrum = SpectrumRunSpec(dx=0.15, dt=2.5e-4).setup(SwitchingSchedule(INITIAL, FINAL, 0.0))
    stepper = _Stepper(assemble_operators(spectrum, unit), spectrum.dt, _open_gain(spectrum, unit))
    diag, off = stepper._lhs(1.0)
    assert diag.size == 134 and stepper.far is None
    assert _sweep_drift(stepper.factor_whole(), diag, off) <= 1e-13


@pytest.mark.parametrize("box", ["decay", "open-60um"])
def test_schur_term_is_the_far_blocks_top_response(unit, box):
    """The bottom-up factors meet the trap rows through the top pivot p_0
    alone: the Schur term on the trap block's last diagonal, c^2/p_0, is
    c^2 (A22^-1)_00 from a banded solve of the far block."""
    if box == "decay":
        decay = DecayRunSpec(t_end=2.5).setup(SwitchingSchedule(INITIAL, FINAL, 0.058 * TAU_RES))
        stepper = _Stepper(assemble_operators(decay, unit), decay.dt, 0.0)
    else:
        stepper = _open_60um(unit)
    diag, off = stepper._lhs(0.0)
    m = stepper.m
    e0 = np.zeros(diag.size - m, dtype=complex)
    e0[0] = 1.0
    ref = off[m - 1] ** 2 * _tri_solve(diag[m:], off[m:], e0)[0]
    term = diag[m - 1] - stepper.lhs_diag[-1]
    assert abs(term - ref) <= 1e-14 * abs(ref)


#: dx and dt from the finest in use up to the largest that validate_setup
#: admits on the shipped traps (at e_cut 1: dx <= 0.62, dt <= 2.85e-3)
PIVOT_DX = [0.01, 0.05, 0.15, 0.6]
PIVOT_DT = [1e-6, 2e-4, 2.8e-3]


@pytest.mark.parametrize("box, absorbed", [(150.0, True), (20.0, False), (60.0, False)],
                         ids=["absorbing-150um", "open-20um", "open-60um"])
@pytest.mark.parametrize("dt", PIVOT_DT)
@pytest.mark.parametrize("dx", PIVOT_DX)
def test_zgttrf_swaps_no_rows(unit, dx, dt, box, absorbed):
    """The premise of the bidiagonal sweeps: partial pivoting, from the
    bottom row up as `_Prefactored` factors, keeps every row of L(w) in
    place for w in {0, 1/2, 1}, far block included."""
    setup = PropagationSetup(SwitchingSchedule(INITIAL, FINAL, 0.01), dx, box, dt,
                             t_end=0.0, e_cut=1.0, absorber=absorbed)
    assert validate_setup(setup, unit) == []
    gain = 0.0 if absorbed else _open_gain(setup, unit)
    stepper = _Stepper(assemble_operators(setup, unit), dt, gain)  # refuses a swapping far block
    lapack = propagate_module._lapack()
    for w in (0.0, 0.5, 1.0):
        diag, off = stepper._lhs(w)
        _, _, _, du2, ipiv, info = lapack.zgttrf(off[::-1], diag[::-1], off[::-1])
        assert info == 0
        assert np.array_equal(ipiv, np.arange(1, diag.size + 1)) and not np.any(du2)


def test_a_pivoted_factorization_is_refused():
    # from the bottom up, row 1's pivot, 0.1 - 0.5^2 / 0.75, is smaller than
    # the 0.5 above it, so zgttrf swaps rows 1 and 0 (2 and 3 reversed)
    diag = np.array([1.0, 0.1, 1.0, 1.0], dtype=complex)
    off = np.full(3, 0.5, dtype=complex)
    *_, ipiv, info = propagate_module._lapack().zgttrf(off, diag[::-1], off)
    assert info == 0 and ipiv[2] == 4
    with pytest.raises(NumericalBlowupError, match=r"4-row Crank-Nicolson block, first at row 1,"):
        _Prefactored(off, diag)


#: The decay box and the 135-node open spectrum box.
STENCIL_SPECS = [DecayRunSpec(t_end=2.5), SpectrumRunSpec(dx=0.15, dt=2.5e-4)]
STENCIL_IDS = ["decay", "open-135"]


@pytest.mark.parametrize("spec", STENCIL_SPECS, ids=STENCIL_IDS)
def test_stencil_times_half_the_scale_is_the_mass_product(unit, spec):
    """The step's right-hand side (4, 1, 1) psi is M psi over scale/2 on
    every row, the open box's node J included."""
    setup = spec.setup(SwitchingSchedule(INITIAL, FINAL, 0.058 * TAU_RES))
    ops = assemble_operators(setup, unit)
    psi = np.array([1.0, 1j]) @ np.random.default_rng(3).normal(size=(2, ops.m_diag.size))
    rhs = np.empty_like(psi)
    _stencil((psi, psi[1:], psi[:-1]), (rhs, rhs[1:], rhs[:-1]))
    ref = _tri_mul(ops.m_diag, ops.m_off, psi)
    scale = _Stepper(ops, setup.dt, 0.0).scale
    assert np.max(np.abs(0.5 * scale * rhs - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("spec", STENCIL_SPECS, ids=STENCIL_IDS)
def test_scaled_step_matrices_have_an_exact_mass_part(unit, monkeypatch, spec):
    """At dt = 0 every matrix the stepper factors or solves is its mass part
    alone, which must be (2, 1/2) bit for bit: L scaled by a rounded 3/dx
    would bias every step the same way."""
    factored = []
    lapack = propagate_module._lapack()
    zgttrf = lapack.zgttrf

    def recording(dl, d, du):
        factored.append((d.copy(), dl.copy()))
        return zgttrf(dl, d, du)

    monkeypatch.setattr(lapack, "zgttrf", recording)
    setup = spec.setup(SwitchingSchedule(INITIAL, FINAL, 0.058 * TAU_RES))
    stepper = _Stepper(assemble_operators(setup, unit), 0.0, 0.0)
    stepper.factor_whole()
    diags, lowers, uppers = stepper.trap_rows([0.0, 0.5, 1.0])
    m = stepper.m if stepper.far is None else stepper.m - 1  # the last row holds the Schur term
    assert len(factored) == (1 if stepper.far is None else 2)
    for diag, off in [*factored, (stepper.lhs_diag[:m], stepper.lhs_off),
                      *zip(diags[:, :m], lowers), *zip(diags[:, :m], uppers)]:
        assert np.array_equal(diag, np.full(diag.size, 2.0))
        assert np.array_equal(off, np.full(off.size, 0.5))


@pytest.mark.parametrize("absorbed", [True, False], ids=["absorbed-sudden", "unabsorbed-ramp"])
def test_recorded_observables_match_the_final_state(unit, absorbed):
    """The record takes p_w from fixed trapezoid weights and the norm from
    the step's stencil right-hand side; both must equal the direct forms on
    the state they sample."""
    if absorbed:
        setup = DecayRunSpec(t_end=0.05).setup(_sudden())
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
    """A 135-node run (134 unknowns past the wall) at the benchmark's
    numerics equals, on [0, R], a box so large that nothing Crank-Nicolson
    carries reaches its edge (its edge history stays below 1e-14): the edge
    is exact, tail term included."""
    dx, dt, t_end = 0.15, 2.5e-4, 0.3
    schedule = SwitchingSchedule(INITIAL, FINAL, t_switch)
    phi, _ = ground_state(INITIAL, unit, dx=dx)
    small = propagate(
        phi, PropagationSetup(schedule, dx, 20.1, dt, t_end, e_cut=400.0), unit, record_every=1
    )
    assert small.final.values.size == 135 and small.edge.tail != 0.0
    big = 1500.0
    phi_big, _ = ground_state(INITIAL, unit, dx=dx, x_max=big)
    large = propagate(
        phi_big, PropagationSetup(schedule, dx, big, dt, t_end, e_cut=400.0), unit, record_every=1
    )
    peak = np.max(np.abs(large.final.values))
    assert np.max(np.abs(large.edge.psi_edge)) <= 1e-14 * peak
    inside = large.final.values[:135]
    assert np.max(np.abs(small.final.values - inside)) <= 1e-10 * peak
    assert abs(small.edge.psi_out[-1] - large.final.values[135]) <= 1e-10 * peak
    assert np.max(np.abs(small.record.p_w - large.record.p_w)) <= 1e-12


def test_embed_initial_keeps_node_j_of_an_open_box(unit):
    """Node J is an unknown of an open run: a state that ends there, or is
    zero past it, keeps psi_J.  The absorbing box's node J is its wall."""
    setup = SpectrumRunSpec(dx=0.15, dt=2.5e-4).setup(SwitchingSchedule(INITIAL, FINAL, 0.0))
    n = setup.n_nodes()
    phi, _ = ground_state(INITIAL, unit, dx=setup.dx)
    psi_j = phi.values[n - 1]
    assert abs(psi_j) > 1e-3 * np.max(np.abs(phi.values))
    ends_at_j = WavefunctionGrid(setup.dx, phi.values[:n].copy())
    padded = WavefunctionGrid(setup.dx, np.concatenate([phi.values[:n], np.zeros(20)]))
    for state in (ends_at_j, padded):
        embedded, tail, rho = _embed_initial(state, setup)
        assert embedded[-1] == psi_j and (tail, rho) == (0j, 0.0)
        absorbed = _embed_initial(state, replace(setup, absorber=True))[0]
        assert absorbed[-1] == 0.0 and np.array_equal(absorbed[:-1], embedded[:-1])
