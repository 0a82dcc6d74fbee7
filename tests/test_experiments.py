"""Experiment runners end to end, on configurations small enough for CI.

The propagation-heavy runners (decay-curves, spectrum-vs-T, t-scan) are
exercised by the acceptance suite; here we cover the cheap ones plus the
emission contract they all share.
"""

import csv
import os

import pytest

from trapswitch import experiments
from trapswitch.errors import IncompleteSearchError
from trapswitch.experiments import _decay_plan, _stage, planned_setups, run_experiment
from trapswitch.io import load_spec, parse_spec, spec_hash, spec_problems
from trapswitch.spectra import FIT_SPAN_LIFETIMES, lowest_resonance

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


def test_decay_default_window_spans_the_fit_margin_for_long_lifetimes(tmp_path):
    spec = parse_spec(
        {
            "experiment": {"name": "decay-curves"},
            "physics": {"final": {"v_well": 105.0, "v_barrier": 210.0}},
        }
    )
    tau = lowest_resonance(spec.final, spec.unit).tau
    assert tau > 0.5
    _, t_mins, run = _decay_plan(spec, tau)
    assert run.t_end - max(t_mins) >= FIT_SPAN_LIFETIMES * tau
    # planned and run setups come from the same record
    assert {s.t_end for s in planned_setups(spec)} == {run.t_end}


#: experiment -> a value for each numerics key its runner reads
READS = {
    "poles": {"e_cut": 300.0},
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
CONSUMERS = {
    "poles": ("find_poles", lambda args, kwargs: args[2]),
    "ground-state": ("ground_state", lambda args, kwargs: kwargs.get("dx")),
    "decay-curves": ("switch_and_record", lambda args, kwargs: args[4]),
    "spectrum-vs-T": ("switch_and_project", lambda args, kwargs: args[4]),
}


class _Captured(Exception):
    pass


def _runner_record(monkeypatch, name, numerics):
    callee, pick = CONSUMERS[name]

    def capture(*args, **kwargs):
        raise _Captured(pick(args, kwargs))

    monkeypatch.setattr(experiments, callee, capture)
    options = {"t_switch_fractions": [0.1]} if name == "spectrum-vs-T" else {}
    spec = parse_spec({"experiment": {"name": name, **options}, "numerics": numerics})
    with pytest.raises(_Captured) as got:
        experiments.RUNNERS[name](spec)
    return got.value.args[0]


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
