"""Acceptance gate for the whole package.

One test per headline reproduction target plus the always-runnable invariant
suites.  Every test prints a single `criterion[...]` PASS/FAIL line with the
measured numbers, so the captured output of this module reads as a scorecard.

The switching-time scans dominate the runtime; the module as a whole takes
on the order of fifteen minutes.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from trapswitch.groundstate import ground_state
from trapswitch.model import PotentialConfig, SwitchingSchedule
from trapswitch.poles import find_poles, newton_pole, trace_iso_resonance, winding_number
from trapswitch.propagate import (
    PropagationSetup,
    assemble_operators,
    propagate,
)
from trapswitch.scattering import delay_time, s_matrix
from trapswitch.spectra import (
    DecayRunSpec,
    EXPONENTIAL_OBJECTIVE,
    LORENTZIAN_OBJECTIVE,
    SpectrumRunSpec,
    energy_distribution,
    energy_grid,
    fit_exponential_decay,
    fit_lorentzian,
    lorentzian_deviation,
    lowest_resonance,
    optimal_switch_time,
    switch_and_project,
    switch_and_record,
)
from trapswitch.groundstate import WavefunctionGrid

import fd_oracle
from cn_oracle import _tri_mul, _tri_solve
from conftest import FINAL, INITIAL
from distributions import distribution_median, l1_difference


def _verdict(name: str, ok: bool, detail: str):
    print(f"criterion[{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def resonance(unit):
    return lowest_resonance(FINAL, unit)


@pytest.fixture(scope="module")
def scan_results(unit, resonance):
    """Both switching-time scans at production settings (the slow part)."""
    lor = optimal_switch_time(LORENTZIAN_OBJECTIVE, INITIAL, FINAL, unit, resonance)
    exp = optimal_switch_time(EXPONENTIAL_OBJECTIVE, INITIAL, FINAL, unit, resonance)
    return lor, exp


@pytest.fixture(scope="module")
def sudden_run(unit, resonance):
    """Instant switch propagated without an absorber, projected three ways.

    The box is sized so that even spectral content far above the analysis
    cutoff cannot reflect back within the simulated window.  The two
    post-switch states come from runs to t1 and to t2 in the same box, so
    the t1 state is the longer run's state at that step.
    """
    dx, t1, t2 = 0.04, 0.05, 0.10
    v_front = unit.kappa * math.sqrt(2.0 * 5000.0 / unit.kappa)
    box = math.ceil((FINAL.outer_edge + v_front * t2 + 10.0) / dx) * dx
    phi0, _ = ground_state(INITIAL, unit, dx=dx, x_max=box)
    runs = [
        propagate(
            phi0,
            PropagationSetup(
                schedule=SwitchingSchedule(INITIAL, FINAL, 0.0),
                dx=dx,
                box_length=box,
                dt=2e-4,
                t_end=t_end,
                e_cut=1000.0,
            ),
            unit,
            record_every=10,
        )
        for t_end in (t1, t2)
    ]
    grid = energy_grid(resonance.e_r, resonance.gamma, 1000.0, 2000)
    d0 = energy_distribution(phi0, FINAL, unit, grid)
    d1, d2 = (
        energy_distribution(run.final, FINAL, unit, grid) for run in runs
    )
    return runs[1], d0, d1, d2


# ---------------------------------------------------------------------------
# headline numbers


def test_criterion_1_lowest_pole(resonance):
    e_err = abs(resonance.e_r - 134.509) / 134.509
    g_err = abs(0.5 * resonance.gamma - 1.217) / 1.217
    _verdict(
        "1 pole-reproduction",
        e_err <= 1e-3 and g_err <= 1e-3,
        f"e_r = {resonance.e_r:.4f} (err {e_err:.1e}), "
        f"gamma/2 = {0.5 * resonance.gamma:.4f} (err {g_err:.1e}), tol 1e-3 each",
    )


def test_criterion_2_lifetime_consistency(unit, resonance):
    tau = resonance.tau
    tau_err = abs(tau - 0.411) / 0.411
    parts = [f"pole tau = {tau:.4f} s (err {tau_err:.1e} <= 3e-3)"]
    ok = tau_err <= 3e-3
    for frac, tol in ((0.0, 0.02), (0.058, 0.03), (0.13, 0.03), (1.0, 0.03)):
        record = switch_and_record(
            INITIAL, FINAL, frac * tau, unit, DecayRunSpec(t_end=4.05)
        )
        # fit only after the ramp has settled and the early transient passed
        t_min = max(0.5, 6.32 * frac * tau)
        tau_fit, _, _ = fit_exponential_decay(record, t_min)
        err = abs(tau_fit - tau) / tau
        ok = ok and err <= tol
        parts.append(f"T={frac:g}tau fit err {err:.1e} <= {tol}")
    _verdict("2 lifetime-consistency", ok, "; ".join(parts))


def test_criterion_3_delay_matches_pole(unit, resonance):
    e = np.linspace(
        resonance.e_r - 10.0 * resonance.gamma,
        resonance.e_r + 10.0 * resonance.gamma,
        400,
    )
    k = np.sqrt(2.0 * e / unit.kappa)
    delays = np.array([delay_time(FINAL, unit, float(kk)) for kk in k])
    fit = fit_lorentzian(e, delays, with_offset=True)
    e_err = abs(fit.e_r - resonance.e_r) / resonance.e_r
    g_err = abs(fit.gamma - resonance.gamma) / resonance.gamma
    _verdict(
        "3 delay-pole-equivalence",
        e_err <= 0.02 and g_err <= 0.02,
        f"fit e_r err {e_err:.1e}, gamma err {g_err:.1e}, tol 2e-2 each",
    )


def test_criterion_4_iso_resonance_curves(unit):
    parts, ok = [], True
    for target in (53.391, 7.422):
        curve = trace_iso_resonance(target, unit, FINAL.d, FINAL.b)
        worst = 0.0
        for vw, vb, k0 in zip(curve.v_well, curve.v_barrier, curve.k_res):
            cfg = replace(FINAL, v_well=float(vw), v_barrier=float(vb))
            k = newton_pole(cfg, unit, complex(k0))
            if k is None:
                worst = math.inf
                break
            worst = max(worst, abs(0.5 * unit.kappa * (k * k).real - target) / target)
        third = max(2, len(curve.v_well) // 3)
        g = np.asarray(curve.gamma[:third])
        vb = np.asarray(curve.v_barrier[:third])
        g_var = (g.max() - g.min()) / g.max()
        vb_var = (vb.max() - vb.min()) / vb.max()
        ok = ok and worst <= 1e-3 and g_var > vb_var
        parts.append(
            f"target {target}: {len(curve.v_well)} pts, reverify {worst:.1e} <= 1e-3, "
            f"shallow-third width var {g_var:.2f} > barrier var {vb_var:.2f}"
        )
    _verdict("4 iso-resonance-curves", ok, "; ".join(parts))


def test_criterion_5_sudden_spectrum(unit, resonance):
    phi0, _ = ground_state(INITIAL, unit, dx=0.05)
    grid = energy_grid(resonance.e_r, resonance.gamma, 3000.0, 2600)
    dist = energy_distribution(phi0, FINAL, unit, grid)
    peak = float(dist.energies[np.argmax(dist.p)])
    lo = resonance.e_r - 10.0 * resonance.gamma
    hi = resonance.e_r + 10.0 * resonance.gamma
    mask = (dist.energies >= lo) & (dist.energies <= hi)
    near = float(np.trapezoid(dist.p[mask], dist.energies[mask]))
    ok = (
        abs(dist.total - 1.0) <= 1e-3
        and abs(peak - resonance.e_r) <= 0.5 * resonance.gamma
        and near < 1.0
    )
    _verdict(
        "5 sudden-spectrum",
        ok,
        f"total = {dist.total:.5f} (1 +- 1e-3), peak at {peak:.2f} vs e_r {resonance.e_r:.2f} "
        f"(within gamma/2 = {0.5 * resonance.gamma:.2f}), weight within 10 gamma = {near:.3f} < 1",
    )


def _program_deviation(unit, resonance, t_switch):
    dist = switch_and_project(INITIAL, FINAL, t_switch, unit, SpectrumRunSpec(), resonance)
    return lorentzian_deviation(dist, resonance)


def test_criterion_6_optimal_switch_time(unit, scan_results, resonance):
    """The shape optimum lies between the sudden and adiabatic limits.

    No document in the repository fixes the shape optimum's position, so it
    is checked by what the abstract claims (an intermediate ramp beats both
    limits) and against the independent propagator in `fd_oracle`.  The
    survival-shape bracket and the ordering of the two optima stay as given.
    """
    lor, exp = scan_results
    tau = resonance.tau
    f_lor = lor.t_star / tau
    f_exp = exp.t_star / tau
    exp_ok = 0.065 <= f_exp <= 0.26
    order_ok = lor.t_star < exp.t_star

    # the refined optimum sits strictly inside the coarse scan's end points
    interior_ok = not lor.multimodal and lor.t_values[0] < lor.t_star < lor.t_values[-1]
    sudden = _program_deviation(unit, resonance, 0.0)
    slowest = float(lor.values[-1])
    # neighbours one coarse-grid ratio away (15 log-spaced points, 14 gaps)
    ratio = (lor.t_values[-1] / lor.t_values[0]) ** (1.0 / 14.0)
    ramps = [lor.t_star / ratio, lor.t_star, lor.t_star * ratio]
    program = [_program_deviation(unit, resonance, t) for t in ramps]
    oracle = [
        fd_oracle.lorentzian_deviation(INITIAL, FINAL, t, unit, resonance.e_r, resonance.gamma)
        for t in ramps
    ]
    best = program[1]
    limits_ok = best <= sudden / 3.0 and best <= slowest / 3.0
    agree = max(abs(a - b) for a, b in zip(program, oracle))
    oracle_ok = agree <= 1e-3 and oracle[1] < min(oracle[0], oracle[2])
    lor_ok = interior_ok and limits_ok and oracle_ok
    _verdict(
        "6 optimal-switch-time",
        lor_ok and exp_ok and order_ok,
        f"lorentzian t*/tau = {f_lor:.4f} interior and unimodal: {interior_ok}; "
        f"deviation {best:.4f} <= 1/3 of sudden {sudden:.4f} and of "
        f"T={lor.t_values[-1] / tau:.2f}tau {slowest:.4f}: {limits_ok}; "
        f"oracle at t* x {ratio:.3f}^(-1,0,1) = "
        f"{oracle[0]:.4f}/{oracle[1]:.4f}/{oracle[2]:.4f}, lowest at t* and "
        f"within {agree:.1e} <= 1e-3 of the program: {oracle_ok}; "
        f"exponential t*/tau = {f_exp:.4f} in [0.065, 0.26]: {exp_ok}; "
        f"lorentzian < exponential: {order_ok}",
    )


def test_criterion_7_slow_switch_distortion(unit, resonance, scan_results):
    lor, _ = scan_results
    best_dev = float(np.min(lor.values))
    dist = switch_and_project(
        INITIAL,
        FINAL,
        resonance.tau,
        unit,
        SpectrumRunSpec(dx=0.15, dt=2.5e-4),
        resonance,
    )
    median = distribution_median(dist)
    dev = lorentzian_deviation(dist, resonance)
    ok = median < resonance.e_r and dev >= 3.0 * best_dev
    _verdict(
        "7 slow-switch-distortion",
        ok,
        f"median = {median:.2f} < e_r = {resonance.e_r:.2f}; "
        f"deviation = {dev:.3f} >= 3 x best {best_dev:.4f}",
    )


# ---------------------------------------------------------------------------
# invariant suites


def test_criterion_8a_unitarity(unit):
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(100):
        cfg = PotentialConfig(
            v_well=rng.uniform(5.0, 400.0),
            v_barrier=rng.uniform(0.0, 500.0),
            d=rng.uniform(1.0, 8.0),
            b=rng.uniform(2.0, 15.0),
        )
        k = rng.uniform(0.02, 1.2)
        s = complex(s_matrix(cfg, unit, np.array([k]))[0])
        worst = max(worst, abs(abs(s) - 1.0))
    _verdict("8a unitarity", worst < 1e-10, f"max ||S|-1| = {worst:.1e} < 1e-10 on 100 draws")


def test_criterion_8b_norm_conservation(sudden_run):
    result, _, _, _ = sudden_run
    drift = float(np.max(np.abs(result.record.norm - result.record.norm[0])))
    _verdict("8b norm-conservation", drift < 1e-8, f"max drift = {drift:.1e} < 1e-8")


def test_criterion_8c_time_reversal(unit):
    dx, dt, t_rev = 0.05, 2e-4, 0.05
    # the box is open, and what has left it cannot come back: it holds all
    # CN carries by t_rev, at up to its fastest group velocity
    # sqrt(2 E kappa)/(1 + (E dt/2)^2), reached at E dt/2 = 1/sqrt(3)
    v_max = 0.75 * math.sqrt(4.0 * unit.kappa / (math.sqrt(3.0) * dt))
    box = math.ceil((FINAL.outer_edge + 1.2 * v_max * t_rev + 10.0) / dx) * dx
    phi0, _ = ground_state(INITIAL, unit, dx=dx, x_max=box)
    setup = PropagationSetup(
        schedule=SwitchingSchedule(INITIAL, FINAL, 0.0),
        dx=dx,
        box_length=box,
        dt=dt,
        t_end=t_rev,
        e_cut=1000.0,
    )
    fwd = propagate(phi0, setup, unit, record_every=1).final
    # renormalize before re-feeding: the plain-sum norm drifts at O(dx^2)
    # even though the mass-matrix norm is conserved
    mirrored = WavefunctionGrid(fwd.dx, np.conj(fwd.values) / math.sqrt(fwd.norm_squared()))
    back = propagate(mirrored, setup, unit, record_every=1).final
    a = phi0.values / math.sqrt(phi0.norm_squared())
    b = np.conj(back.values) / math.sqrt(back.norm_squared())
    err = math.sqrt(dx) * float(np.linalg.norm(a - b))
    _verdict("8c time-reversal", err < 1e-6, f"L2 return error = {err:.1e} < 1e-6")


def test_criterion_8d_absorber_transparency(unit):
    dx, dt, t_end = 0.05, 2e-4, 0.6
    schedule = SwitchingSchedule(INITIAL, FINAL, 0.0)
    big = 1430.0
    phi_big, _ = ground_state(INITIAL, unit, dx=dx, x_max=big)
    truth = propagate(
        phi_big,
        PropagationSetup(
            schedule=schedule, dx=dx, box_length=big, dt=dt, t_end=t_end, e_cut=1000.0
        ),
        unit,
        record_every=10,
    ).record
    small = 150.0
    phi, _ = ground_state(INITIAL, unit, dx=dx, x_max=small)
    absorbed = propagate(
        phi,
        PropagationSetup(
            schedule=schedule,
            dx=dx,
            box_length=small,
            dt=dt,
            t_end=t_end,
            e_cut=1000.0,
            absorber=True,
        ),
        unit,
        record_every=10,
    ).record
    diff = float(np.max(np.abs(truth.p_w - absorbed.p_w)))
    _verdict("8d absorber-transparency", diff < 1e-4, f"max |dp_w| = {diff:.1e} < 1e-4")


def test_criterion_8e_sudden_equivalence(sudden_run):
    _, d0, d1, d2 = sudden_run
    worst = max(l1_difference(d0, d1), l1_difference(d0, d2))
    _verdict(
        "8e projection-propagation-equivalence",
        worst < 1e-4,
        f"max L1 distance = {worst:.1e} < 1e-4",
    )


def test_criterion_8f_spectrum_stationarity(sudden_run):
    _, _, d1, d2 = sudden_run
    dist = l1_difference(d1, d2)
    _verdict(
        "8f spectrum-stationarity",
        dist < 1e-4,
        f"L1 distance between post-switch times = {dist:.1e} < 1e-4",
    )


def test_criterion_8g_ground_state_residual(unit):
    dx = 0.0125
    phi, e0 = ground_state(INITIAL, unit, dx=dx)
    setup = PropagationSetup(
        schedule=SwitchingSchedule(INITIAL, INITIAL, 0.0),
        dx=dx,
        box_length=phi.x_max,
        dt=2e-4,
        t_end=0.0,
        e_cut=10.0,
    )
    ops = assemble_operators(setup, unit)
    v = phi.values[1 : 1 + ops.m_diag.size].copy()
    hv = _tri_mul(ops.h0_diag, ops.h0_off, v)
    r = _tri_solve(ops.m_diag.astype(complex), ops.m_off.astype(complex), hv) - e0 * v
    rel = float(np.linalg.norm(r) / (abs(e0) * np.linalg.norm(v)))
    _verdict("8g eigen-residual", rel < 1e-4, f"relative residual = {rel:.1e} < 1e-4")


def test_criterion_8h_pole_search_completeness(unit):
    rng = np.random.default_rng(42)
    rect = (0.02, 0.8, -0.3, 0.0)
    ok, parts = True, []
    for i in range(20):
        cfg = PotentialConfig(
            v_well=rng.uniform(30.0, 380.0),
            v_barrier=rng.uniform(60.0, 450.0),
            d=rng.uniform(3.0, 7.0),
            b=rng.uniform(4.0, 12.0),
        )
        found = find_poles(cfg, unit, rect)
        expected = winding_number(cfg, unit, rect)
        if len(found) != expected:
            ok = False
            parts.append(f"draw {i}: found {len(found)} vs winding {expected}")
    _verdict(
        "8h pole-completeness",
        ok,
        "all 20 random configs match the argument-principle count"
        if ok
        else "; ".join(parts),
    )
