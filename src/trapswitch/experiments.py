"""The named experiments: each turns a spec into CSV tables plus a report.

Every runner is deterministic and returns its tables, scalar summary,
tolerance checks, and plot scripts; emission and atomicity live in io.
The seven experiments map onto the standard deliverables: pole tables,
iso-resonance curves, the delay-time spectrum, decay curves for several
switching times, released-energy spectra, the switching-time scan, and the
prepared bound state itself.
"""

import contextlib
import math
from dataclasses import replace

import numpy as np

from .errors import TrapSwitchError
from .groundstate import ground_state
from .io import Check, ExperimentSpec, Table, emit_experiment, frac_label
from .model import SwitchingSchedule
from .poles import BOUND, find_poles, newton_pole, resonances, trace_iso_resonance
from .propagate import PropagationSetup, non_escape_probability
from .scattering import delay_time, phase_shift_curve
from .spectra import (
    DecayRunSpec,
    EXPONENTIAL_OBJECTIVE,
    FIT_SPAN_LIFETIMES,
    LORENTZIAN_OBJECTIVE,
    OBJECTIVES,
    SpectrumRunSpec,
    energy_distribution,
    energy_distributions,
    energy_grid,
    fit_exponential_decay,
    fit_lorentzian,
    lorentzian_deviation,
    lorentzian_reference,
    lowest_resonance,
    map_runs,
    optimal_switch_time,
    scan_plan,
    # not called here: perfbench/tracer.py wraps these two names in this
    # module and stops on a missing one
    switch_and_project,
    switch_and_record,
)

#: Default switching times for the multi-T experiments, as fractions of the
#: resonance lifetime.
DEFAULT_T_FRACTIONS = (0.0, 0.058, 0.13, 1.0)


@contextlib.contextmanager
def _stage(name):
    """Put the experiment stage in front of a package error's message.

    The error object itself is re-raised, so its structured fields survive.
    """
    try:
        yield
    except TrapSwitchError as exc:
        exc.args = (f"stage {name}: {exc}",)
        raise


def _pole_table(name, poles):
    table = Table(name)
    table.add("k_re", "1/um", [p.k_res.real for p in poles])
    table.add("k_im", "1/um", [p.k_res.imag for p in poles])
    table.add("e_r", "hbar/s", [p.e_r for p in poles])
    table.add("gamma", "hbar/s", [p.gamma for p in poles])
    table.add("tau", "s", [p.tau for p in poles])
    table.add("kind", "-", [p.kind for p in poles])
    return table


def _pole_region(unit):
    # resonances up to 1000 hbar/s, and the positive imaginary axis too, so
    # bound states are reported
    k_hi = 1.05 * math.sqrt(2.0 * 1000.0 / unit.kappa)
    return (0.0, k_hi, -0.45 * k_hi, k_hi)


def _resonance(spec: ExperimentSpec):
    with _stage("resonance"):
        return lowest_resonance(spec.final, spec.unit)


def run_poles(spec: ExperimentSpec):
    region = spec.options.get("region") or _pole_region(spec.unit)
    with _stage("pole-search"):
        initial_poles = find_poles(spec.initial, spec.unit, region)
        final_poles = find_poles(spec.final, spec.unit, region)
    tables = [
        _pole_table("poles_initial", initial_poles),
        _pole_table("poles_final", final_poles),
    ]
    res = resonances(final_poles)
    checks = [
        Check(
            "final_trap_has_resonance",
            bool(res),
            f"{len(res)} resonance(s) in the searched region",
            "poles_final.csv:kind:all",
        ),
        Check(
            "initial_trap_binds",
            any(p.kind == BOUND for p in initial_poles),
            "bound state present in the initial trap",
            "poles_initial.csv:kind:all",
        ),
    ]
    scalars = {}
    if res:
        low = res[0]
        row = final_poles.index(low)
        scalars = {
            "lowest_resonance_e_r": low.e_r,
            "lowest_resonance_gamma": low.gamma,
            "lowest_resonance_tau": low.tau,
            "lowest_resonance_row": row,
        }
    plot = (
        'set datafile separator ","\n'
        "set xlabel 'Re E (hbar/s)'\nset ylabel 'Im E = -gamma/2 (hbar/s)'\n"
        "plot 'poles_final.csv' using 3:(-$4/2) with points title 'final trap', \\\n"
        "     'poles_initial.csv' using 3:(-$4/2) with points title 'initial trap'\n"
    )
    return tables, scalars, checks, {"poles": plot}


def run_ground_state(spec: ExperimentSpec):
    with _stage("bound-state"):
        state, e0 = ground_state(spec.initial, spec.unit, **spec.options, **spec.numerics)
    table = Table("groundstate")
    table.add("x", "um", state.x)
    table.add("psi_re", "1/sqrt(um)", state.values.real)
    table.add("psi_im", "1/sqrt(um)", state.values.imag)
    table.add("density", "1/um", np.abs(state.values) ** 2)
    norm = state.norm_squared()
    p_w = non_escape_probability(state, spec.initial.d)
    checks = [
        Check("normalized", abs(norm - 1.0) <= 1e-10,
              f"|norm-1| = {abs(norm - 1.0):.3e} <= 1e-10", "groundstate.csv:density:all"),
        Check("bound_energy_negative", e0 < 0.0, f"e0 = {e0:.6g} < 0",
              "groundstate.csv:psi_re:all"),
        Check("starts_in_well", p_w > 0.5, f"in-well probability {p_w:.6g} > 0.5",
              "groundstate.csv:density:all"),
    ]
    scalars = {"e0": e0, "p_well": p_w, "dx": state.dx, "x_max": state.x_max}
    plot = (
        'set datafile separator ","\n'
        "set xlabel 'x (um)'\nset ylabel 'density (1/um)'\n"
        "plot 'groundstate.csv' using 1:4 with lines title 'bound state'\n"
    )
    return [table], scalars, checks, {"groundstate": plot}


def run_delay_spectrum(spec: ExperimentSpec):
    halfwidth = spec.options.get("window_halfwidth", 10.0)
    n_energy = spec.options.get("n_energy", 800)
    with_offset = spec.options.get("with_offset", True)
    res = _resonance(spec)
    e = np.linspace(
        res.e_r - halfwidth * res.gamma, res.e_r + halfwidth * res.gamma, n_energy
    )
    k_grid = np.sqrt(2.0 * e / spec.unit.kappa)
    with _stage("phase-curve"):
        phases = phase_shift_curve(spec.final, spec.unit, k_grid)
        delays = delay_time(spec.final, spec.unit, k_grid)
    table = Table("delay_spectrum")
    table.add("e", "hbar/s", e)
    table.add("phase", "rad", phases)
    table.add("delay", "s", delays)
    with _stage("lorentzian-fit"):
        fit = fit_lorentzian(e, delays, with_offset=with_offset)
    err_e = abs(fit.e_r - res.e_r) / res.e_r
    err_g = abs(fit.gamma - res.gamma) / res.gamma
    checks = [
        Check("fit_center_matches_pole", err_e <= 0.02,
              f"|e_fit-e_pole|/e_pole = {err_e:.3e} <= 0.02", "delay_spectrum.csv:delay:all"),
        Check("fit_width_matches_pole", err_g <= 0.02,
              f"|g_fit-g_pole|/g_pole = {err_g:.3e} <= 0.02", "delay_spectrum.csv:delay:all"),
    ]
    scalars = {
        "pole_e_r": res.e_r,
        "pole_gamma": res.gamma,
        "fit_e_r": fit.e_r,
        "fit_gamma": fit.gamma,
        "fit_amplitude": fit.amplitude,
        "fit_offset": fit.offset,
        "peak_delay": float(np.max(delays)),
    }
    plot = (
        'set datafile separator ","\n'
        "set xlabel 'E (hbar/s)'\nset ylabel 'delay (s)'\n"
        "plot 'delay_spectrum.csv' using 1:3 with lines title 'delay time'\n"
    )
    return [table], scalars, checks, {"delay_spectrum": plot}


def _decay_plan(spec: ExperimentSpec):
    """Lifetime, switching fractions, late-fit starts, run record and setups
    of decay-curves."""
    tau = _resonance(spec).tau
    fracs = spec.options.get("t_switch_fractions", DEFAULT_T_FRACTIONS)
    # late-fit start: past the switch transient, where the residual trap
    # reshaping perturbs the decay rate well below the check tolerance
    t_mins = [max(0.5, 6.32 * f * tau) for f in fracs]
    t_end = max(t_mins) + max(1.45, FIT_SPAN_LIFETIMES * tau)
    run = replace(DecayRunSpec(t_end=t_end), **spec.numerics)
    setups = [run.setup(SwitchingSchedule(spec.initial, spec.final, f * tau)) for f in fracs]
    return tau, fracs, t_mins, run, setups


def run_decay_curves(spec: ExperimentSpec):
    tau, fracs, t_mins, run, setups = _decay_plan(spec)
    runs = map_runs(run.release, setups, spec.unit)
    table = Table("decay_curves")
    checks = []
    scalars = {"tau_pole": tau, "t_end": run.t_end}
    for frac, t_min, pending in zip(fracs, t_mins, runs):
        label = frac_label(frac)
        with _stage(f"decay-{label}"):
            record = pending()
            tau_fit, quality, _ = fit_exponential_decay(record, t_min)
        if not table.columns:
            table.add("t", "s", record.times)
        table.add(f"p_w_{label}", "-", record.p_w)
        err = abs(tau_fit - tau) / tau
        checks.append(
            Check(
                f"late_decay_rate_{label}",
                err <= 0.02,
                f"|tau_fit-tau_pole|/tau_pole = {err:.3e} <= 0.02 "
                f"(fit window [{t_min:.3g}, {run.t_end:.3g}] s)",
                f"decay_curves.csv:p_w_{label}:all",
            )
        )
        scalars[f"tau_fit_{label}"] = tau_fit
        scalars[f"fit_quality_{label}"] = quality
    plot = (
        'set datafile separator ","\n'
        "set xlabel 't (s)'\nset ylabel 'P_W'\nset logscale y\n"
        "plot for [i=2:%d] 'decay_curves.csv' using 1:i with lines title columnheader(i)\n"
        % (len(fracs) + 1)
    )
    return [table], scalars, checks, {"decay_curves": plot}


def _spectrum_plan(spec: ExperimentSpec):
    """Resonance, switching fractions, run record, energy grid and setups of
    spectrum-vs-T; a grid that misses the deviation window is refused."""
    res = _resonance(spec)
    fracs = spec.options.get("t_switch_fractions", DEFAULT_T_FRACTIONS)
    run = replace(SpectrumRunSpec(), **spec.numerics)
    setups = [run.setup(SwitchingSchedule(spec.initial, spec.final, f * res.tau)) for f in fracs]
    return res, fracs, run, run.grid(res), setups


def run_spectrum_vs_t(spec: ExperimentSpec):
    res, fracs, run, grid, setups = _spectrum_plan(spec)
    # the sudden point's run takes no step: it cuts the prepared state at the
    # box edge, with its tail
    runs = map_runs(run.release, setups, spec.unit)
    released = []
    for frac, pending in zip(fracs, runs):
        with _stage(f"spectrum-{frac_label(frac)}"):
            out = pending()
        released.append((out.final, out.edge))
    with _stage("projection"):
        dists = energy_distributions(released, spec.final, spec.unit, grid)
    table = Table("spectrum_vs_t")
    table.add("e", "hbar/s", grid)
    table.add("lorentzian_ref", "s/hbar", lorentzian_reference(res, grid))
    checks = []
    scalars = {"e_r": res.e_r, "gamma": res.gamma, "tau": res.tau}
    for frac, (state, edge), dist in zip(fracs, released, dists):
        label = frac_label(frac)
        total = dist.total
        if frac == 0.0:
            # the prepared state's weight reaches far above e_cut (~5%
            # beyond 400 hbar/s), so unit weight is checked on a fixed
            # grid up to 3000 hbar/s
            wide = energy_grid(res.e_r, res.gamma, 3000.0, 2600)
            with _stage(f"spectrum-{label}"):
                total = energy_distribution(state, spec.final, spec.unit, wide, edge=edge).total
        table.add(f"p_{label}", "s/hbar", dist.p)
        dev = lorentzian_deviation(dist, res)
        checks.append(
            Check(
                f"unit_weight_{label}",
                abs(total - 1.0) <= 1e-3,
                f"|total-1| = {abs(total - 1.0):.3e} <= 1e-3",
                f"spectrum_vs_t.csv:p_{label}:all",
            )
        )
        scalars[f"total_{label}"] = total
        scalars[f"lorentzian_deviation_{label}"] = dev
    plot = (
        'set datafile separator ","\n'
        "set xlabel 'E (hbar/s)'\nset ylabel 'P(E) (s/hbar)'\n"
        f"set xrange [{res.e_r - 10 * res.gamma:.6g}:{res.e_r + 10 * res.gamma:.6g}]\n"
        "plot for [i=3:%d] 'spectrum_vs_t.csv' using 1:i with lines title columnheader(i), \\\n"
        "     'spectrum_vs_t.csv' using 1:2 with lines dashtype 2 title 'bare resonance'\n"
        % (len(fracs) + 2)
    )
    return [table], scalars, checks, {"spectrum_vs_t": plot}


def run_iso_curves(spec: ExperimentSpec):
    trace = dict(spec.options)  # v_well_range, n_points
    targets = trace.pop("e_r_targets", (53.391, 7.422))
    tables, checks, scalars = [], [], {}
    for idx, target in enumerate(targets, start=1):
        name = f"iso_curve_{idx}"
        with _stage(name):
            curve = trace_iso_resonance(target, spec.unit, spec.final.d, spec.final.b, **trace)
        meta = {"e_r_target": f"{target:.12g}"}
        if curve.truncated:
            meta["truncated_reason"] = curve.reason
        table = Table(name, meta=meta)
        table.add("v_well", "hbar/s", curve.v_well)
        table.add("v_barrier", "hbar/s", curve.v_barrier)
        table.add("gamma", "hbar/s", curve.gamma)
        table.add("e_r", "hbar/s", curve.e_r)
        table.add("k_re", "1/um", [k.real for k in curve.k_res])
        table.add("k_im", "1/um", [k.imag for k in curve.k_res])
        tables.append(table)

        with _stage(f"{name}-reverify"):
            worst = 0.0
            for vw, vb, k0 in zip(curve.v_well, curve.v_barrier, curve.k_res):
                cfg = replace(spec.final, v_well=float(vw), v_barrier=float(vb))
                k = newton_pole(cfg, spec.unit, complex(k0))
                if k is None:
                    worst = math.inf
                    break
                e_r = 0.5 * spec.unit.kappa * (k * k).real
                worst = max(worst, abs(e_r - target) / target)
        checks.append(
            Check(
                f"{name}_on_target",
                worst <= 1e-3,
                f"max re-solved |e_r-target|/target = {worst:.3e} <= 1e-3",
                f"{name}.csv:e_r:all",
            )
        )
        third = max(2, len(curve.v_well) // 3)
        g = np.asarray(curve.gamma[:third])
        vb = np.asarray(curve.v_barrier[:third])
        g_var = float((g.max() - g.min()) / g.max())
        vb_var = float((vb.max() - vb.min()) / vb.max())
        checks.append(
            Check(
                f"{name}_width_leads_shallow",
                g_var > vb_var,
                f"shallow-third relative variation: gamma {g_var:.3f} > barrier {vb_var:.3f}",
                f"{name}.csv:gamma:0-{third - 1}",
            )
        )
        scalars[f"{name}_target"] = target
        scalars[f"{name}_points"] = len(curve.v_well)
        scalars[f"{name}_truncated"] = int(curve.truncated)
    plot = (
        'set datafile separator ","\n'
        "set xlabel 'well depth (hbar/s)'\nset ylabel 'hbar/s'\nset logscale y\n"
        "plot 'iso_curve_1.csv' using 1:3 with linespoints title 'width, curve 1', \\\n"
        "     'iso_curve_1.csv' using 1:2 with linespoints title 'barrier, curve 1'\n"
    )
    return tables, scalars, checks, {"iso_curves": plot}


def _scan_plan(spec: ExperimentSpec):
    """Resonance, objectives and scan options of t-scan."""
    scan = dict(spec.options)  # t_range_fractions, n_coarse, refine_rtol
    objectives = scan.pop("objectives", OBJECTIVES)
    return _resonance(spec), objectives, scan


def run_t_scan(spec: ExperimentSpec):
    res, objectives, scan = _scan_plan(spec)
    tables, checks, scalars = [], [], {}
    stars = {}
    for objective in objectives:
        short = objective.split("-")[0]
        with _stage(f"scan-{short}"):
            result = optimal_switch_time(
                objective, spec.initial, spec.final, spec.unit, res, **scan
            )
        table = Table(f"tscan_{short}")
        table.add("t_switch", "s", result.t_values)
        table.add("objective", "-", result.values)
        tables.append(table)
        stars[objective] = result.t_star
        scalars[f"t_star_{short}"] = result.t_star
        scalars[f"t_star_{short}_over_tau"] = result.t_star / res.tau
        scalars[f"multimodal_{short}"] = int(result.multimodal)
        checks.append(
            Check(
                f"unimodal_{short}",
                not result.multimodal,
                "coarse scan has a single basin" if not result.multimodal
                else "several coarse minima within 10%",
                f"tscan_{short}.csv:objective:all",
            )
        )
    if LORENTZIAN_OBJECTIVE in stars and EXPONENTIAL_OBJECTIVE in stars:
        lor, exp = stars[LORENTZIAN_OBJECTIVE], stars[EXPONENTIAL_OBJECTIVE]
        checks.append(
            Check(
                "lorentzian_optimum_earlier",
                lor < exp,
                f"t_star {lor:.6g} s (shape) < {exp:.6g} s (decay)",
                "tscan_lorentzian.csv:objective:all",
            )
        )
    titles = {"lorentzian": "spectrum shape", "exponential": "decay shape"}
    series = ", \\\n     ".join(
        f"'{t.name}.csv' using 1:2 with linespoints title "
        f"'{titles.get(t.name.split('_')[1], t.name)}'"
        for t in tables
    )
    plot = (
        'set datafile separator ","\n'
        "set xlabel 'T (s)'\nset ylabel 'objective'\nset logscale xy\n"
        f"plot {series}\n"
    )
    return tables, scalars, checks, {"t_scan": plot}


def planned_setups(spec: ExperimentSpec) -> list[PropagationSetup]:
    """The setups `run` would propagate, from the runner's own planner,
    without propagating (t-scan: the coarse scan points; refined points lie
    between them).  Raises what the planner refuses before the first run,
    such as an energy grid that misses the resonance."""
    if spec.name == "decay-curves":
        return _decay_plan(spec)[-1]
    if spec.name == "spectrum-vs-T":
        return _spectrum_plan(spec)[-1]
    if spec.name != "t-scan":
        return []
    res, objectives, scan = _scan_plan(spec)
    scan.pop("refine_rtol", None)
    return [s for o in objectives for s in scan_plan(o, spec.initial, spec.final, res, **scan)[1]]


RUNNERS = {
    "poles": run_poles,
    "ground-state": run_ground_state,
    "delay-spectrum": run_delay_spectrum,
    "decay-curves": run_decay_curves,
    "spectrum-vs-T": run_spectrum_vs_t,
    "iso-curves": run_iso_curves,
    "t-scan": run_t_scan,
}


def run_experiment(spec: ExperimentSpec):
    """Run one experiment and emit its directory; returns (path, checks)."""
    tables, scalars, checks, plots = RUNNERS[spec.name](spec)
    summary = Table("summary")
    summary.add("name", "-", list(scalars.keys()))
    summary.add("value", "mixed", [scalars[k] for k in scalars])
    tables.append(summary)
    path = emit_experiment(spec, tables, scalars, checks, plots)
    return path, checks
