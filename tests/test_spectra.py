"""Energy-domain analysis: grids, reference profiles, fits, deviations."""

import math
import os
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from trapswitch import spectra
from trapswitch.errors import (
    CompletenessViolationError,
    FitFailureError,
    InsufficientDataError,
    InvalidArgumentError,
    WindowError,
)
from trapswitch.groundstate import WavefunctionGrid, ground_state
from trapswitch.model import SwitchingSchedule
from trapswitch.poles import find_poles
from trapswitch.propagate import DecayRecord, PropagationSetup, propagate
from trapswitch.spectra import (
    LORENTZIAN_OBJECTIVE,
    EnergyDistribution,
    SpectrumRunSpec,
    energy_distribution,
    energy_distributions,
    energy_grid,
    exponential_deviation,
    fit_exponential_decay,
    fit_lorentzian,
    lorentzian_deviation,
    lorentzian_reference,
    lowest_resonance,
    map_runs,
    optimal_switch_time,
    switch_and_project,
)

from frozen import E_RES, FINAL, GAMMA_RES, INITIAL, TAU_RES
from distributions import distribution_median, l1_difference
from pointwise_oracle import energy_distribution_pointwise


@pytest.fixture(scope="module")
def res(unit):
    return lowest_resonance(FINAL, unit)


def test_lowest_resonance_matches_frozen_pole(res):
    assert res.e_r == pytest.approx(E_RES, rel=1e-12)
    assert res.gamma == pytest.approx(GAMMA_RES, rel=1e-10)
    assert res.tau == pytest.approx(TAU_RES, rel=1e-10)


def test_energy_grid_dense_near_resonance(res):
    grid = energy_grid(res.e_r, res.gamma, 3000.0, 2000)
    assert np.all(np.diff(grid) > 0.0)
    assert grid[0] == pytest.approx(0.5)
    assert grid[-1] == pytest.approx(3000.0)
    d = np.diff(grid)
    near = (grid[:-1] > res.e_r - 5.0 * res.gamma) & (grid[:-1] < res.e_r + 5.0 * res.gamma)
    assert d[near].max() <= res.gamma / 50.0
    assert grid.size >= 2000


@pytest.mark.parametrize("e_cut", [200.0, 400.0, 1000.0, 3000.0])
def test_spectrum_grid_has_n_energy_points_or_is_refused(res, e_cut):
    # the dense part alone is 502 energies at gamma/50 over e_r +- 5 gamma,
    # and the grid adds at least two more; energy_grid itself refuses, so
    # no caller gets more energies than it asked for
    for n in (2, 300, 503, 504, 505, 2000):
        spec = SpectrumRunSpec(e_cut=e_cut, n_energy=n)
        for grid in (spec.grid, lambda r: energy_grid(r.e_r, r.gamma, e_cut, n)):
            if n < 504:
                with pytest.raises(InvalidArgumentError, match=f"n_energy >= 504 .* got {n}$"):
                    grid(res)
            else:
                assert grid(res).size == n


def test_lorentzian_reference_peak_and_weight(res):
    peak = lorentzian_reference(res, np.array([res.e_r]))[0]
    assert peak == pytest.approx(2.0 / (math.pi * res.gamma), rel=1e-12)
    grid = energy_grid(res.e_r, res.gamma, 1000.0, 2000)
    ref = lorentzian_reference(res, grid)
    assert ref.max() == pytest.approx(peak, rel=1e-3)
    lo, hi = res.e_r - 10.0 * res.gamma, res.e_r + 10.0 * res.gamma
    # closed-form weight of the unit Lorentzian inside [lo, hi]
    g2 = 0.5 * res.gamma
    w = (math.atan((hi - res.e_r) / g2) - math.atan((lo - res.e_r) / g2)) / math.pi
    assert w == pytest.approx(2.0 / math.pi * math.atan(20.0), rel=1e-12)
    mask = (grid >= lo) & (grid <= hi)
    assert np.trapezoid(ref[mask], grid[mask]) == pytest.approx(w, rel=1e-3)


def test_lorentzian_fit_exact_round_trip():
    e = np.linspace(100.0, 170.0, 400)
    er, g = 134.511, 2.433
    a = 2.0 / (math.pi * g)  # unit-area amplitude
    y = a * (g / 2.0) ** 2 / ((e - er) ** 2 + (g / 2.0) ** 2)
    fit = fit_lorentzian(e, y, with_offset=False)
    assert fit.e_r == pytest.approx(er, abs=1e-8)
    assert fit.gamma == pytest.approx(g, abs=1e-8)
    assert fit.amplitude == pytest.approx(a, abs=1e-10)
    assert fit.offset == 0.0

    fit_c = fit_lorentzian(e, y + 0.013, with_offset=True)
    assert fit_c.gamma == pytest.approx(g, abs=1e-7)
    assert fit_c.offset == pytest.approx(0.013, abs=1e-9)


def test_lorentzian_fit_window_and_data_guards():
    e = np.linspace(0.0, 10.0, 50)
    y = 1.0 / ((e - 9.8) ** 2 + 0.25)
    with pytest.raises(WindowError):
        fit_lorentzian(e, y, with_offset=False)  # peak pinned to the window edge
    with pytest.raises(InvalidArgumentError):
        fit_lorentzian(e[:6], y[:6], with_offset=False)
    centered = 1.0 / ((e - 5.0) ** 2 + 0.25)
    fit = fit_lorentzian(e, centered, with_offset=False)
    assert fit.e_r == pytest.approx(5.0, abs=1e-8)


def test_exponential_fit_round_trip_and_guards():
    t = np.linspace(0.0, 2.5, 1000)
    rec = DecayRecord(t, 0.9 * np.exp(-t / 0.411), np.ones_like(t))
    tau, quality, (intercept, slope) = fit_exponential_decay(rec, 0.5)
    assert tau == pytest.approx(0.411, rel=1e-12)
    assert quality < 1e-10
    assert slope == pytest.approx(-1.0 / 0.411, rel=1e-12)
    assert math.exp(intercept) == pytest.approx(0.9, rel=1e-10)

    short = DecayRecord(t[:30], np.exp(-t[:30] / 0.411), np.ones(30))
    with pytest.raises(InsufficientDataError):
        fit_exponential_decay(short, 0.0)
    rising = DecayRecord(t, np.exp(+t / 5.0), np.ones_like(t))
    with pytest.raises(FitFailureError):
        fit_exponential_decay(rising, 0.0)


def test_exponential_deviation_flags_early_history(res):
    # long enough that the late-time window from LATE_FIT_T_MIN spans
    # several lifetimes
    t = np.linspace(0.0, 3.5, 1200)
    clean = DecayRecord(t, np.exp(-t / res.tau), np.ones_like(t))
    assert exponential_deviation(clean, res.tau) < 1e-10
    bent = np.exp(-t / res.tau) * (1.0 + 0.3 * np.exp(-t / 0.05))
    dev = exponential_deviation(DecayRecord(t, bent, np.ones_like(t)), res.tau)
    assert dev == pytest.approx(math.log(1.3), rel=0.05)


def test_distribution_helpers(res):
    grid = energy_grid(res.e_r, res.gamma, 1000.0, 1500)
    p = lorentzian_reference(res, grid)
    dist = EnergyDistribution(energies=grid, p=p, total=float(np.trapezoid(p, grid)))
    assert distribution_median(dist) == pytest.approx(res.e_r, abs=0.05)
    assert l1_difference(dist, dist) == 0.0
    assert lorentzian_deviation(dist, res) == pytest.approx(0.0, abs=1e-12)

    shifted = EnergyDistribution(energies=grid, p=np.roll(p, 25), total=dist.total)
    assert lorentzian_deviation(shifted, res) > 0.1

    other = EnergyDistribution(energies=grid[:-1], p=p[:-1], total=dist.total)
    with pytest.raises(InvalidArgumentError):
        l1_difference(dist, other)
    with pytest.raises(InvalidArgumentError):
        EnergyDistribution(energies=grid[::-1], p=p, total=1.0)


def test_energy_distribution_requires_unbound_final(unit, res):
    phi, _ = ground_state(INITIAL, unit, dx=0.05)
    grid = energy_grid(res.e_r, res.gamma, 400.0, 800)
    with pytest.raises(CompletenessViolationError):
        # projecting onto the trap that still binds the state drops the
        # bound component from the closure
        energy_distribution(phi, INITIAL, unit, grid)


def test_sudden_projection_unit_total(unit, res):
    phi, _ = ground_state(INITIAL, unit, dx=0.05)
    wide = energy_grid(res.e_r, res.gamma, 3000.0, 2600)
    dist = energy_distribution(phi, FINAL, unit, wide)
    assert abs(dist.total - 1.0) < 1e-3
    assert dist.p[np.argmax(dist.p)] == dist.p.max()
    assert abs(wide[np.argmax(dist.p)] - res.e_r) < 0.5 * res.gamma


def _assert_matches_pointwise(state, unit, grid):
    dist = energy_distribution(state, FINAL, unit, grid)
    ref = energy_distribution_pointwise(state, FINAL, unit, grid)
    assert np.max(np.abs(dist.p - ref)) <= 1e-12 * np.max(ref)
    assert dist.total == pytest.approx(float(np.trapezoid(ref, grid)), rel=1e-12)


@pytest.mark.parametrize("e_cut, n_energy", [(400.0, 2000), (3000.0, 2600)],
                         ids=["shipped-grid", "unit-weight-grid"])
def test_sudden_projection_matches_the_pointwise_oracle(unit, res, e_cut, n_energy):
    # the sudden column of spectrum-vs-T at the shipped dx, on its P(E) grid
    # and on the wide grid whose total checks unit weight
    phi, _ = ground_state(INITIAL, unit, dx=0.15)
    _assert_matches_pointwise(phi, unit, energy_grid(res.e_r, res.gamma, e_cut, n_energy))


def test_propagated_projection_matches_the_pointwise_oracle(unit, res):
    # the in-box part of an open run's projection: the trapezoid sum over
    # the state it returns
    spec = SpectrumRunSpec(dx=0.3, dt=1e-3)
    setup = spec.setup(SwitchingSchedule(INITIAL, FINAL, 0.058 * res.tau))
    state = spec.release(setup, unit).final
    grid = energy_grid(res.e_r, res.gamma, spec.e_cut, 504)
    _assert_matches_pointwise(state, unit, grid)


def test_batched_projection_matches_single_projections(unit, res):
    # the spectrum-vs-T columns of one open box, plus one of their states
    # without its edge history, whose last node then takes half weight,
    # projected in one call and one at a time
    spec = SpectrumRunSpec(dx=0.3, dt=1e-3)
    released = []
    for frac in (0.0, 0.058, 0.3):
        out = spec.release(spec.setup(SwitchingSchedule(INITIAL, FINAL, frac * res.tau)), unit)
        released.append((out.final, out.edge))
    released.append((released[1][0], None))
    grid = energy_grid(res.e_r, res.gamma, spec.e_cut, 700)
    batched = energy_distributions(released, FINAL, unit, grid)
    assert len(batched) == len(released)
    for (state, edge), dist in zip(released, batched):
        single = energy_distribution(state, FINAL, unit, grid, edge=edge)
        assert np.max(np.abs(dist.p - single.p)) <= 1e-13 * np.max(single.p)
        assert dist.total == pytest.approx(single.total, rel=1e-13)
    shorter = WavefunctionGrid(spec.dx, released[1][0].values[:-1])
    with pytest.raises(InvalidArgumentError, match="one node grid"):
        energy_distributions([released[0], (shorter, None)], FINAL, unit, grid)


# dx = 1/8 puts a node on d + b = 15 exactly: nodes 0 .. 120 lie inside it
@pytest.mark.parametrize("n_outer", [0, 1, 2, 97, 1009], ids=lambda n: f"outer-{n}")
def test_synthetic_projection_matches_the_pointwise_oracle(unit, res, n_outer):
    rng = np.random.default_rng(20261019 + n_outer)
    n = 121 + n_outer
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    values[0] = 0.0
    state = WavefunctionGrid(0.125, values)
    assert int(np.sum(state.x > FINAL.outer_edge)) == n_outer
    grid = energy_grid(res.e_r, res.gamma, 1000.0, 504)
    _assert_matches_pointwise(state, unit, grid)


def test_projection_memory_stays_flat(unit, res):
    # criterion 7's size: ~50k nodes onto 2000 energies.  The 10 MB bound
    # was fixed before the blocked form was written; projecting all 2000
    # energies in one block peaks near 33 MB, chunks of 128 near 5 MB.
    x = 0.15 * np.arange(50_000)
    values = np.exp(-0.5 * ((x - 3000.0) / 400.0) ** 2) * np.exp(1j * 0.3 * x)
    state = WavefunctionGrid(0.15, values).normalized()
    grid = energy_grid(res.e_r, res.gamma, 400.0, 2000)
    tracemalloc.start()
    try:
        energy_distribution(state, FINAL, unit, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20, f"peak {peak / 2**20:.1f} MB"


def _grid_work(setup, tag):
    # a map_runs job: module-level, so a worker can unpickle it by name
    return tag, setup.n_nodes() * setup.n_steps(), os.getpid()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_map_runs_returns_results_in_the_order_given(monkeypatch, cpus):
    # the largest run is last here, so a pool submits it first
    monkeypatch.setattr(spectra, "_usable_cpus", lambda: cpus)
    schedule = SwitchingSchedule(INITIAL, FINAL, 0.0)
    setups = [
        PropagationSetup(schedule, dx=0.5, box_length=box, dt=1e-3, t_end=t_end, e_cut=1000.0)
        for box, t_end in ((20.0, 0.02), (30.0, 0.01), (20.0, 0.01), (40.0, 0.04))
    ]
    got = [pending() for pending in map_runs(_grid_work, setups, "x")]
    assert [work for _, work, _ in got] == [41 * 20, 61 * 10, 41 * 10, 81 * 40]
    assert {tag for tag, _, _ in got} == {"x"}
    pids = {pid for _, _, pid in got}
    if cpus == 1:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids and 1 <= len(pids) <= cpus


def test_map_runs_submits_the_longest_ramp_of_equal_work_first(monkeypatch):
    """Of runs with equal grid work the one with the longest ramp goes first,
    since its steps while the switch changes cost more than settled ones."""
    monkeypatch.setattr(spectra, "_usable_cpus", lambda: 2)
    submitted = []
    submit = ProcessPoolExecutor.submit

    def recording(self, job, setup, *args):
        submitted.append((setup.n_nodes() * setup.n_steps(), setup.schedule.t_switch))
        return submit(self, job, setup, *args)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recording)
    setups = [
        PropagationSetup(SwitchingSchedule(INITIAL, FINAL, t_switch), dx=0.5, box_length=box,
                         dt=1e-3, t_end=0.01, e_cut=1000.0)
        for t_switch, box in ((0.0, 20.0), (0.024, 20.0), (0.053, 20.0), (0.41, 20.0), (0.0, 40.0))
    ]
    got = [pending() for pending in map_runs(_grid_work, setups, "x")]
    assert [work for _, work, _ in got] == [41 * 10] * 4 + [81 * 10]
    assert submitted == [(810, 0.0), (410, 0.41), (410, 0.053), (410, 0.024), (410, 0.0)]


def test_scan_runs_every_point_in_pooled_batches(monkeypatch, unit, res):
    """The coarse grid is one map_runs batch and each refinement round is
    another of two midpoints; nothing propagates outside those batches."""
    monkeypatch.setattr(spectra, "_usable_cpus", lambda: 1)
    batches, inside = [], []
    pool, step = spectra.map_runs, spectra.propagate

    def recording(job, setups, *args):
        batches.append(len(setups))

        def pooled(*job_args):
            inside.append(job)
            try:
                return job(*job_args)
            finally:
                inside.pop()

        return pool(pooled, setups, *args)

    def checked(*args, **kwargs):
        assert inside, "a run propagated outside map_runs"
        return step(*args, **kwargs)

    monkeypatch.setattr(spectra, "map_runs", recording)
    monkeypatch.setattr(spectra, "propagate", checked)
    scan = optimal_switch_time(
        LORENTZIAN_OBJECTIVE, INITIAL, FINAL, unit, res, refine_rtol=0.1,
        t_range_fractions=(0.005, 0.2), n_coarse=5,
    )
    ts = scan.t_values.tolist()
    assert batches[0] == 5 and len(batches) > 1 and set(batches[1:]) == {2}
    assert len(set(ts)) == len(ts) == sum(batches)
    # criterion 6 reads the coarse grid's ratio from the end points
    assert [ts[0], ts[-1]] == [0.005 * res.tau, 0.2 * res.tau]
    assert ts[0] < scan.t_star < ts[-1] and not scan.multimodal


@pytest.mark.parametrize("t0", [0.0123, 0.0537, 0.1, 0.4437])
def test_bracket_rounds_close_on_the_minimum(t0):
    """(ln t - ln t0)^2 from the shipped coarse grid (ratio 60^(1/14)): three
    rounds of two points bring the bracket round the lowest point within the
    stop rule, and that point within refine_rtol of t0."""
    rtol = 0.05
    coarse = np.geomspace(0.01, 0.6, 15).tolist()
    batches = []

    def objective(t):
        return (math.log(t) - math.log(t0)) ** 2

    def batch(times):
        batches.append(len(times))
        return [objective(t) for t in times]

    best = min(range(len(coarse)), key=lambda i: objective(coarse[i]))
    bracket = [(t, objective(t)) for t in coarse[best - 1 : best + 2]]
    t_star, extra = spectra._refine_bracket(batch, bracket, rtol)
    assert batches == [2, 2, 2] and len(extra) == 6
    points = sorted(bracket + extra)
    i = points.index(min(points, key=lambda p: p[1]))
    assert points[i][0] == t_star
    a, b = points[i - 1][0], points[i + 1][0]
    assert b - a <= rtol * (a + b)
    assert abs(t_star - t0) <= rtol * t0


def _reflection_free(unit, spec, t_switch, grid):
    """P(E) of the spectrum run at t_switch in a box so wide that nothing
    Crank-Nicolson carries reaches its edge before the projection: CN's
    group velocity sqrt(2 E kappa)/(1 + (E dt/2)^2) peaks at E dt/2 = 1/sqrt(3)."""
    setup = spec.setup(SwitchingSchedule(INITIAL, FINAL, t_switch))
    v_max = 0.75 * math.sqrt(4.0 * unit.kappa / (math.sqrt(3.0) * spec.dt))
    box = math.ceil((FINAL.outer_edge + 1.2 * v_max * setup.t_end + 10.0) / spec.dx) * spec.dx
    phi0, _ = ground_state(INITIAL, unit, dx=spec.dx, x_max=box)
    final = propagate(phi0, replace(setup, box_length=box), unit, record_every=10**6).final
    assert np.max(np.abs(final.values[-20:])) <= 1e-14 * np.max(np.abs(final.values))
    return energy_distribution(final, FINAL, unit, grid)


@pytest.mark.parametrize(
    "frac, dx, dt", [(0.058, 0.15, 2.5e-4), (0.3, 0.3, 1e-3)], ids=["T0.058tau", "T0.3tau"]
)
def test_open_box_spectrum_matches_a_reflection_free_box(unit, res, frac, dx, dt):
    # the benchmark's numerics at 0.058 tau; at 0.3 tau the reference box
    # would take ~40k nodes at them, so both runs coarsen
    spec = SpectrumRunSpec(dx=dx, dt=dt)
    grid = spec.grid(res)
    open_box = switch_and_project(INITIAL, FINAL, frac * res.tau, unit, spec, res)
    ref = _reflection_free(unit, spec, frac * res.tau, grid)
    assert spec.setup(SwitchingSchedule(INITIAL, FINAL, 1.0)).n_nodes() < 300
    assert np.max(np.abs(open_box.p - ref.p)) <= 1e-10 * np.max(ref.p)


def test_program_deviation_matches_a_reflection_free_box(unit, res):
    """At T = 0.022 tau, near the shape optimum, what leaves the box must not
    come back into P(E): a wall 200 um out moved lorentzian_deviation by 7e-4."""
    spec = SpectrumRunSpec()
    t_switch = 0.022 * res.tau
    program = lorentzian_deviation(
        switch_and_project(INITIAL, FINAL, t_switch, unit, spec, res), res
    )
    ref = lorentzian_deviation(_reflection_free(unit, spec, t_switch, spec.grid(res)), res)
    assert abs(program - ref) <= 2e-5, f"{program:.6f} vs {ref:.6f}"


def test_lorentzian_objective_is_smooth_near_its_minimum(unit, res):
    # nine switching times across the scan's optimum, t*/tau ~ 0.0259 +- its
    # refine_rtol of 5%: a quadratic must fit the shape objective there, not
    # a ripple of box and wall effects (1.3e-4 with a wall 200 um out)
    spec = SpectrumRunSpec()
    fracs = np.linspace(0.0246, 0.0272, 9)
    values = [
        lorentzian_deviation(switch_and_project(INITIAL, FINAL, f * res.tau, unit, spec, res), res)
        for f in fracs
    ]
    fit = np.polyval(np.polyfit(fracs, values, 2), fracs)
    assert np.max(np.abs(values - fit)) <= 2e-5


def test_sudden_projection_through_the_box_edge_matches_the_whole_state(unit, res):
    # the sudden column: the prepared state cut at the box edge, its tail
    # summed in closed form, against the whole state's trapezoid sum
    spec = SpectrumRunSpec(dx=0.15, dt=2.5e-4)
    released = spec.release(spec.setup(SwitchingSchedule(INITIAL, FINAL, 0.0)), unit)
    assert released.final.x_max < 21.0 and released.edge.tail != 0.0
    for grid in (spec.grid(res), energy_grid(res.e_r, res.gamma, 3000.0, 2600)):
        cut = energy_distribution(released.final, FINAL, unit, grid, edge=released.edge)
        whole = energy_distribution(ground_state(INITIAL, unit, dx=spec.dx)[0], FINAL, unit, grid)
        assert np.max(np.abs(cut.p - whole.p)) <= 1e-10 * np.max(whole.p)
