"""Experiment runners end to end, on configurations small enough for CI.

The propagation-heavy runners (decay-curves, spectrum-vs-T, t-scan) are
exercised by the acceptance suite; here we cover the cheap ones plus the
emission contract they all share.
"""

import csv
import os
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from trapswitch import experiments, poles, spectra
from trapswitch.errors import (
    AmbiguousBoundStateError,
    FitFailureError,
    IncompleteSearchError,
    NumericalBlowupError,
    RefinementError,
    SpecValidationError,
)
from trapswitch.experiments import _decay_plan, _stage, planned_setups, run_experiment
from trapswitch.io import load_spec, parse_spec, spec_hash, spec_problems
from trapswitch.propagate import DecayRecord, PropagationResult
from trapswitch.spectra import (
    FIT_SPAN_LIFETIMES,
    EnergyDistribution,
    lowest_resonance,
)

from conftest import E_RES, GAMMA_RES


def _spec(tmp_path, name, options=None, outdir="run"):
    doc = {
        "experiment": {"name": name, **(options or {})},
        "outputs": {"directory": str(tmp_path / outdir)},
    }
    return parse_spec(doc)


def _read_csv(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header = [h.split(" [")[0] for h in rows[0]]
    return header, rows[1:]


def _read_meta(path):
    with open(path) as fh:
        pairs = [line[2:].rstrip("\n").split(": ", 1) for line in fh if line.startswith("# ")]
    return dict(pairs)


def test_poles_runner_reports_both_traps(tmp_path):
    # region reaches up the imaginary axis so the initial trap's bound state shows
    spec = _spec(tmp_path, "poles", {"region": [0.0, 0.7, -0.25, 0.2]})
    path, checks = run_experiment(spec)
    assert all(c.passed for c in checks), [c.line() for c in checks]

    header, rows = _read_csv(os.path.join(path, "poles_initial.csv"))
    kinds = [r[header.index("kind")] for r in rows]
    assert "bound" in kinds

    header, rows = _read_csv(os.path.join(path, "poles_final.csv"))
    kind_col = header.index("kind")
    e_col = header.index("e_r")
    res_rows = [r for r in rows if r[kind_col] == "resonance"]
    assert res_rows
    lowest = min(float(r[e_col]) for r in res_rows if float(r[e_col]) > 0)
    assert lowest == pytest.approx(E_RES, rel=1e-6)


def test_delay_spectrum_runner_fit_agrees_with_pole(tmp_path):
    spec = _spec(tmp_path, "delay-spectrum", {"n_energy": 240})
    path, checks = run_experiment(spec)
    assert all(c.passed for c in checks), [c.line() for c in checks]

    header, rows = _read_csv(os.path.join(path, "summary.csv"))
    scalars = {r[0]: r[1] for r in rows}
    assert float(scalars["fit_e_r"]) == pytest.approx(E_RES, rel=0.02)
    assert float(scalars["fit_gamma"]) == pytest.approx(GAMMA_RES, rel=0.02)
    assert float(scalars["peak_delay"]) > 1.0

    header, rows = _read_csv(os.path.join(path, "delay_spectrum.csv"))
    assert header == ["e", "phase", "delay"]
    assert len(rows) == 240


def test_iso_curves_runner_traces_and_reverifies(tmp_path):
    spec = _spec(
        tmp_path, "iso-curves", {"e_r_targets": [134.511248728], "n_points": 5}
    )
    path, checks = run_experiment(spec)
    by_name = {c.name: c for c in checks}
    assert by_name["iso_curve_1_on_target"].passed, by_name["iso_curve_1_on_target"].line()

    header, rows = _read_csv(os.path.join(path, "iso_curve_1.csv"))
    v_well = [float(r[header.index("v_well")]) for r in rows]
    e_r = [float(r[header.index("e_r")]) for r in rows]
    assert v_well == sorted(v_well)
    assert len(v_well) >= 3
    for e in e_r:
        assert e == pytest.approx(134.511248728, rel=1e-3)
    # the curve's CSV says why it stopped exactly when the summary reports a
    # truncation (here Gamma falls below the double-precision floor)
    meta = _read_meta(os.path.join(path, "iso_curve_1.csv"))
    _, rows = _read_csv(os.path.join(path, "summary.csv"))
    truncated = {r[0]: r[1] for r in rows}["iso_curve_1_truncated"] == "1"
    assert ("truncated_reason" in meta) == truncated


def test_iso_curves_runner_writes_why_a_curve_stopped(tmp_path, monkeypatch):
    # Omega' vanishes past the first well depth, so the first point is
    # solved and certified, and no corrector step exists at any later depth
    v_first = 5.0
    derivatives = poles.pole_function_derivatives

    def first_depth_only(config, unit, k):
        *terms, d_k, d_barrier = derivatives(config, unit, k)
        if config.v_well != v_first:
            d_k, d_barrier = 0.0 * d_k, 0.0 * d_barrier
        return (*terms, d_k, d_barrier)

    monkeypatch.setattr(poles, "pole_function_derivatives", first_depth_only)
    spec = _spec(
        tmp_path, "iso-curves",
        {"e_r_targets": [134.511248728], "n_points": 3, "v_well_range": [v_first, 350.0]},
    )
    path, _ = run_experiment(spec)
    meta = _read_meta(os.path.join(path, "iso_curve_1.csv"))
    assert meta["truncated_reason"] == "pole tracking lost between v_well=5 and 177.5"
    _, rows = _read_csv(os.path.join(path, "summary.csv"))
    scalars = {r[0]: r[1] for r in rows}
    assert (scalars["iso_curve_1_points"], scalars["iso_curve_1_truncated"]) == ("1", "1")


def test_summary_and_bundle_contract(tmp_path):
    spec = _spec(tmp_path, "ground-state")
    path, checks = run_experiment(spec)
    assert all(c.passed for c in checks)

    header, rows = _read_csv(os.path.join(path, "summary.csv"))
    assert header == ["name", "value"]
    scalars = {r[0]: r[1] for r in rows}
    assert {"e0", "p_well", "dx", "x_max"} <= set(scalars)
    assert float(scalars["e0"]) < 0.0

    # the emitted spec revalidates and hashes to the value stamped in the report
    reloaded = load_spec(os.path.join(path, "spec.yaml"))
    stamped = None
    with open(os.path.join(path, "report.txt")) as fh:
        for line in fh:
            if line.startswith("# spec_sha256:"):
                stamped = line.split(":", 1)[1].strip()
    assert stamped == spec_hash(reloaded) == spec_hash(spec)


def test_runner_failure_emits_nothing(tmp_path):
    # no bound state in the shallow trap: ground-state must raise, not emit
    doc = {
        "experiment": {"name": "ground-state"},
        "physics": {"initial": {"v_well": 100.0, "v_barrier": 200.0}},
        "outputs": {"directory": str(tmp_path / "run")},
    }
    spec = parse_spec(doc)
    with pytest.raises(Exception):
        run_experiment(spec)
    assert not os.path.exists(str(tmp_path / "run"))


def test_stage_keeps_the_error_object_and_its_fields():
    with pytest.raises(IncompleteSearchError) as err:
        with _stage("pole-search"):
            raise IncompleteSearchError("winding count 3, found 2", found=2, expected=3)
    assert str(err.value) == "stage pole-search: winding count 3, found 2"
    assert (err.value.found, err.value.expected) == (2, 3)


def test_an_error_in_a_worker_keeps_its_type_stage_and_fields(tmp_path, monkeypatch):
    # decay runs go to two forked workers, which inherit this stand-in
    def blow_up(initial, setup, unit, record_every=1):
        raise NumericalBlowupError(f"non-finite observables in process {os.getpid()}", step=7)

    monkeypatch.setattr(spectra, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(spectra, "propagate", blow_up)
    spec = _spec(tmp_path, "decay-curves", {"t_switch_fractions": [0.02, 0.1]})
    with pytest.raises(NumericalBlowupError) as err:
        run_experiment(spec)
    message = str(err.value)
    assert message.startswith("stage decay-T0.02tau: non-finite observables in process ")
    assert int(message.rsplit(" ", 1)[1]) != os.getpid()
    assert err.value.step == 7
    assert not os.path.exists(str(tmp_path / "run"))


@pytest.mark.parametrize(
    "error",
    [
        RefinementError("depth limit", interval=(0.1, 0.2)),
        IncompleteSearchError("winding count 3, found 2", found=2, expected=3),
        AmbiguousBoundStateError("two bound states", energies=(-25.0, -3.0)),
        NumericalBlowupError("non-finite observables at step 7", step=7),
        FitFailureError("no convergence", last_iterate=(1.0, 134.5, 2.4)),
        SpecValidationError("1 problem", problems=("numerics.dx: must be > 0",)),
    ],
    ids=lambda error: type(error).__name__,
)
def test_errors_with_fields_survive_pickling(error):
    # what a worker raises reaches the caller through pickle
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert vars(back) == vars(error) != {}


def test_decay_default_window_spans_the_fit_margin_for_long_lifetimes(tmp_path):
    spec = parse_spec(
        {
            "experiment": {"name": "decay-curves"},
            "physics": {"final": {"v_well": 105.0, "v_barrier": 210.0}},
        }
    )
    tau = lowest_resonance(spec.final, spec.unit).tau
    assert tau > 0.5
    _, _, t_mins, run, _ = _decay_plan(spec)
    # t_end = max(t_mins) + 3.3 tau, and subtracting max(t_mins) back can
    # lose an ulp, so the span is compared with a relative allowance
    span = run.t_end - max(t_mins)
    assert span >= FIT_SPAN_LIFETIMES * tau * (1.0 - 1e-12)
    # planned and run setups come from the same record
    assert {s.t_end for s in planned_setups(spec)} == {run.t_end}


#: experiment -> a value for each numerics key its runner reads
READS = {
    "poles": {},
    "ground-state": {"dx": 0.04},
    "delay-spectrum": {},
    "iso-curves": {},
    "decay-curves": {
        "dx": 0.04, "dt": 1e-4, "t_end": 3.0, "box_length": 120.0,
        "e_cut": 800.0, "record_every": 7,
    },
    "spectrum-vs-T": {"dx": 0.12, "dt": 1e-4, "e_cut": 300.0, "n_energy": 999},
    "t-scan": {},
}
ALL_KEYS = set().union(*READS.values()) | {"absorber_width", "absorber_strength"}


#: experiment -> (callee in experiments, what of its call the numerics shape)
CONSUMERS = {"ground-state": ("ground_state", lambda args, kwargs: kwargs.get("dx"))}


class _Captured(Exception):
    pass


def _captured_call(monkeypatch, consumers, document):
    """What the runner hands its consumer, which is replaced by a capture."""
    spec = parse_spec(document)
    callee, pick = consumers[spec.name]

    def capture(*args, **kwargs):
        raise _Captured(pick(args, kwargs))

    monkeypatch.setattr(experiments, callee, capture)
    with pytest.raises(_Captured) as got:
        experiments.RUNNERS[spec.name](spec)
    return got.value.args[0]


def _handed_to_runs(monkeypatch, spec):
    """What a propagating runner hands propagate and the projection; both are
    stand-ins that only record, and the runs stay in this process."""
    handed = []

    def record_setup(initial, setup, unit, record_every=1):
        handed.append((setup, record_every))
        t = np.linspace(0.0, setup.t_end, 200)
        record = DecayRecord(t, np.exp(-t / 0.1), np.ones_like(t))
        return PropagationResult(initial, record, None)

    def flat_distributions(released, final_config, unit, e_grid):
        handed.append(tuple(e_grid))
        return [EnergyDistribution(e_grid, np.ones_like(e_grid), 1.0) for _ in released]

    def flat_distribution(state, final_config, unit, e_grid, edge=None):
        return flat_distributions([(state, edge)], final_config, unit, e_grid)[0]

    monkeypatch.setattr(spectra, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(spectra, "propagate", record_setup)
    monkeypatch.setattr(experiments, "energy_distribution", flat_distribution)
    monkeypatch.setattr(experiments, "energy_distributions", flat_distributions)
    experiments.RUNNERS[spec.name](spec)
    return handed


def _runner_record(monkeypatch, name, numerics):
    if name in CONSUMERS:
        document = {"experiment": {"name": name}, "numerics": numerics}
        return _captured_call(monkeypatch, CONSUMERS, document)
    document = {"experiment": {"name": name, "t_switch_fractions": [0.1]}, "numerics": numerics}
    return _handed_to_runs(monkeypatch, parse_spec(document))


@pytest.mark.parametrize("name", sorted(READS))
def test_numerics_keys_are_exactly_those_the_runner_reads(monkeypatch, name):
    for key in sorted(ALL_KEYS - set(READS[name])):
        doc = {"experiment": {"name": name}, "numerics": {key: 1}}
        assert spec_problems(doc) == [f"numerics: unknown keys ['{key}'] for {name}"]
    if not READS[name]:
        return
    default = _runner_record(monkeypatch, name, {})
    for key, value in READS[name].items():
        assert _runner_record(monkeypatch, name, {key: value}) != default, key


#: experiment -> {option its runner reads: (a value that changes the runner's
#: call, values the schema must refuse)}
OPTIONS = {
    "poles": {
        "region": ([0.0, 0.5, -0.2, 0.1], ["wide", [0.0, 0.5, -0.2], [0.5, 0.0, -0.2, 0.1]]),
    },
    "ground-state": {"x_max": (90, ["abc", 0, -1.0, True, 15.0])},
    "delay-spectrum": {
        "window_halfwidth": (6.0, ["abc", 0.0, [10.0]]),
        "n_energy": (120, ["abc", 1.5, 0, 9]),
        "with_offset": (False, ["false", 0, None]),
    },
    "iso-curves": {
        "e_r_targets": ([134.511248728], ["abc", [], [53.391, -1.0], 53.391]),
        "v_well_range": ([20, 300], ["abc", [5.0], [350.0, 5.0], [-1.0, 5.0]]),
        "n_points": (7, ["abc", 1, 2.5]),
    },
    "decay-curves": {
        "t_switch_fractions": ([0.1], ["abc", [], [-0.1], [0.02, 0.02], [0.1, 0.1000001]]),
    },
    "spectrum-vs-T": {
        "t_switch_fractions": ([0.1], ["abc", [0.0, "x"], [0.5, 0.5]]),
    },
    "t-scan": {
        "objectives": (
            ["exponential-deviation"],
            ["lorentzian-deviation", ["lorentz"], [], ["exponential-deviation"] * 2],
        ),
        "t_range_fractions": ([0.02, 0.3], ["abc", [0.6, 0.01], [0.0, 0.6], [0.01, 2.5], [0.1]]),
        "n_coarse": (5, ["abc", 0, 3.0]),
        "refine_rtol": (0.1, ["abc", -1, 0.0]),
    },
}
#: option keys no experiment accepts any more
DELETED_OPTIONS = {"v_barrier_bracket", "rtol", "t_min_fit"}
ALL_OPTIONS = set().union(*OPTIONS.values()) | DELETED_OPTIONS

#: experiment -> (callee in experiments, what of its call the options shape)
OPTION_CONSUMERS = {
    "poles": ("find_poles", lambda args, kwargs: args[2]),
    "ground-state": ("ground_state", lambda args, kwargs: kwargs),
    "delay-spectrum": ("fit_lorentzian", lambda args, kwargs: (args[0].tolist(), kwargs)),
    "iso-curves": ("trace_iso_resonance", lambda args, kwargs: (args[0], kwargs)),
    "decay-curves": ("map_runs", lambda args, kwargs: [s.schedule.t_switch for s in args[1]]),
    "spectrum-vs-T": ("map_runs", lambda args, kwargs: [s.schedule.t_switch for s in args[1]]),
    "t-scan": ("optimal_switch_time", lambda args, kwargs: (args[0], kwargs)),
}


def _options_call(monkeypatch, name, options):
    # nothing heavier than the pole search runs before the captured call
    monkeypatch.setattr(experiments, "delay_time", lambda config, unit, k: 1.0)
    flat = SimpleNamespace(p=[], total=1.0)
    monkeypatch.setattr(experiments, "energy_distribution", lambda *args, **kwargs: flat)
    monkeypatch.setattr(experiments, "lorentzian_deviation", lambda dist, res: 0.0)
    document = {"experiment": {"name": name, **options}}
    return _captured_call(monkeypatch, OPTION_CONSUMERS, document)


@pytest.mark.parametrize("name", sorted(OPTIONS))
def test_options_are_typed_and_each_changes_the_runners_call(monkeypatch, name):
    for key in sorted(ALL_OPTIONS - set(OPTIONS[name])):
        doc = {"experiment": {"name": name, key: 1}}
        assert spec_problems(doc) == [f"experiment: unknown keys ['{key}'] for {name}"]
    default = _options_call(monkeypatch, name, {})
    for key, (good, bad_values) in OPTIONS[name].items():
        assert spec_problems({"experiment": {"name": name, key: good}}) == []
        for bad in bad_values:
            problems = spec_problems({"experiment": {"name": name, key: bad}})
            assert len(problems) == 1 and problems[0].startswith(f"experiment.{key}: "), (
                key, bad, problems
            )
        assert _options_call(monkeypatch, name, {key: good}) != default, key
