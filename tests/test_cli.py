"""End-to-end command-line behaviour: exit codes, output bundles, overrides."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from trapswitch import experiments, spectra
from trapswitch import propagate as propagate_module
from trapswitch.cli import _DIRECT, main
from trapswitch.io import _SCHEMA
from trapswitch.model import make_unit_system
from trapswitch.propagate import DecayRecord, PropagationResult, validate_setup
from trapswitch.spectra import EnergyDistribution

GOOD_SPEC = """\
experiment:
  name: poles
  region: [0.0, 0.9, -0.4, 0.0]
"""


def _write(tmp_path, text, name="spec.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_validate_accepts_good_spec(tmp_path, capsys):
    assert main(["validate", _write(tmp_path, GOOD_SPEC)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_lists_schema_problems(tmp_path, capsys):
    spec = _write(tmp_path, "experiment:\n  name: poles\nphysics:\n  mass_amu: -1\n")
    assert main(["validate", spec]) == 1
    out = capsys.readouterr().out
    assert "physics.mass_amu: must be > 0, got -1" in out


def test_validate_flags_unresolvable_grid(tmp_path, capsys):
    spec = _write(
        tmp_path,
        "experiment:\n  name: decay-curves\nnumerics:\n  dx: 0.5\n",
    )
    assert main(["validate", spec]) == 1
    assert "dx=0.5" in capsys.readouterr().out


def test_validate_applies_overrides_before_checking(tmp_path, capsys):
    spec = _write(tmp_path, "experiment:\n  name: poles\n")
    assert main(["validate", spec, "--set", "physics.d=-1"]) == 1
    assert "physics.d: must be > 0" in capsys.readouterr().out


def test_unparseable_yaml_exits_2(tmp_path, capsys):
    spec = _write(tmp_path, "experiment:\n  name: [poles\n")
    assert main(["validate", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: spec parse error")
    assert "line" in err


def test_run_rejects_unknown_experiment(tmp_path, capsys):
    spec = _write(tmp_path, "experiment:\n  name: warp-drive\n")
    assert main(["run", spec]) == 2
    err = capsys.readouterr().err
    assert "not one of" in err


def test_schema_runners_and_subcommands_name_the_same_experiments():
    assert set(_SCHEMA) == set(experiments.RUNNERS) == set(_DIRECT.values())


@pytest.mark.parametrize("directory", ["", "''", "[a, b]"])
def test_a_bad_output_directory_is_refused_before_the_run(tmp_path, monkeypatch, capsys, directory):
    monkeypatch.chdir(tmp_path)
    args = [os.path.join(CONFIGS, "ground_state.yaml"), "--set", f"outputs.directory={directory}"]
    assert main(["validate", *args]) == 1
    assert capsys.readouterr().out.startswith("outputs.directory: expected a non-empty string")
    assert main(["run", *args]) == 2
    assert "  - outputs.directory: " in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_groundstate_subcommand_emits_bundle(tmp_path, capsys):
    out = str(tmp_path / "gs")
    assert main(["groundstate", "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "check[" in stdout and "PASS" in stdout
    assert f"report: {out}/report.txt" in stdout
    names = set(os.listdir(out))
    assert {"report.txt", "spec.yaml", "summary.csv"} <= names
    assert any(name.endswith(".gp") for name in names)


#: experiment -> (options, numerics) small enough to run twice in CI
TINY = {
    "poles": ({"region": [0.0, 0.5, -0.2, 0.0]}, {}),
    "ground-state": ({}, {}),
    "delay-spectrum": ({"n_energy": 100}, {}),
    "iso-curves": ({"e_r_targets": [134.511248728], "n_points": 3}, {}),
    "decay-curves": (
        {"t_switch_fractions": [0.02]},
        {"dx": 0.5, "e_cut": 100.0, "box_length": 60.0, "dt": 5e-4, "record_every": 20},
    ),
    "spectrum-vs-T": (
        {"t_switch_fractions": [0.02]},
        {"dx": 0.4, "dt": 5e-4, "e_cut": 200.0, "n_energy": 504},
    ),
    "t-scan": (
        {"objectives": ["lorentzian-deviation"], "n_coarse": 3, "t_range_fractions": [0.01, 0.03]},
        {},
    ),
}


def _emitted(out):
    return {name: open(os.path.join(out, name), "rb").read() for name in os.listdir(out)}


@pytest.mark.parametrize("experiment", sorted(TINY))
def test_rerun_is_byte_identical(tmp_path, experiment):
    options, numerics = TINY[experiment]
    out = str(tmp_path / "run")
    document = {
        "experiment": {"name": experiment, **options},
        "numerics": numerics,
        "outputs": {"directory": out},
    }
    spec = _write(tmp_path, yaml.safe_dump(document))
    assert main(["run", spec]) in (0, 1)
    first = _emitted(out)
    assert main(["run", spec]) in (0, 1)
    assert _emitted(out) == first


#: TINY's propagating experiments, with enough switching times to fill two
#: workers.  Spectrum boxes and run times grow with T, so in spectrum-vs-T
#: and t-scan the largest run is the last in spec order.
POOLED = {
    "decay-curves": {"t_switch_fractions": [0.02, 0.05, 0.1]},
    "spectrum-vs-T": {"t_switch_fractions": [0.0, 0.02, 0.05]},
    "t-scan": {},
}


@pytest.mark.parametrize("experiment", sorted(POOLED))
def test_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, experiment):
    options, numerics = TINY[experiment]
    out = str(tmp_path / "run")
    document = {
        "experiment": {"name": experiment, **options, **POOLED[experiment]},
        "numerics": numerics,
        "outputs": {"directory": out},
    }
    spec = _write(tmp_path, yaml.safe_dump(document))
    pooled = []
    map_runs = spectra.map_runs

    def counted(job, setups, *args):
        pooled.append(len(setups))
        return map_runs(job, setups, *args)

    monkeypatch.setattr(spectra, "map_runs", counted)
    monkeypatch.setattr(experiments, "map_runs", counted)
    emitted = []
    for cpus in (1, 2):
        monkeypatch.setattr(spectra, "_usable_cpus", lambda: cpus)
        assert main(["run", spec]) in (0, 1)
        emitted.append(_emitted(out))
    assert min(pooled) >= 2
    assert emitted[0] == emitted[1]


#: Run in a fresh interpreter with argv [out, configs, *spec files]: validate
#: every shipped config, run the given specs, then hand two decay-curves
#: setups to a two-worker map_runs whose job only reports whether
#: scipy.linalg is loaded in the worker.
STARTUP = """\
import json, os, sys
from trapswitch import spectra
from trapswitch.cli import main
from trapswitch.experiments import planned_setups
from trapswitch.io import parse_spec

out, configs, *specs = sys.argv[1:]
codes = [main(["validate", os.path.join(configs, name)]) for name in sorted(os.listdir(configs))]
codes += [main(["run", spec]) for spec in specs]
before_pool = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

def probe(setup, parent):
    return os.getpid() != parent and "scipy.linalg" in sys.modules

spectra._usable_cpus = lambda: 2
spec = parse_spec({"experiment": {"name": "decay-curves", "t_switch_fractions": [0.02, 0.05]}})
runs = spectra.map_runs(probe, planned_setups(spec), os.getpid())
json.dump({"codes": codes, "before_pool": before_pool, "in_workers": [r() for r in runs]},
          open(os.path.join(out, "startup.json"), "w"))
"""


def test_only_propagation_loads_scipy(tmp_path):
    """Validation and the non-propagating experiments never import scipy,
    and a pool's workers inherit LAPACK from their parent rather than each
    importing it on their first step."""
    specs = []
    for experiment in ("poles", "ground-state", "delay-spectrum", "iso-curves"):
        options, numerics = TINY[experiment]
        document = {
            "experiment": {"name": experiment, **options},
            "numerics": numerics,
            "outputs": {"directory": str(tmp_path / experiment)},
        }
        specs.append(_write(tmp_path, yaml.safe_dump(document), f"{experiment}.yaml"))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run(
        [sys.executable, "-c", STARTUP, str(tmp_path), CONFIGS, *specs],
        env=env, check=True, capture_output=True,
    )
    with open(tmp_path / "startup.json") as fh:
        seen = json.load(fh)
    configs = len(os.listdir(CONFIGS))
    assert seen["codes"][:configs] == [0] * configs
    assert all(code in (0, 1) for code in seen["codes"][configs:])  # checks may fail
    assert seen["before_pool"] == []
    assert seen["in_workers"] == [True, True]


def test_set_override_lands_in_emitted_spec(tmp_path, capsys):
    out = str(tmp_path / "gs")
    code = main(["groundstate", "--out", out, "--set", "experiment.x_max=90"])
    assert code == 0
    with open(os.path.join(out, "spec.yaml")) as fh:
        document = yaml.safe_load(fh)
    assert document["experiment"]["x_max"] == 90


def test_run_spec_file_matches_direct_subcommand(tmp_path, capsys):
    spec = _write(
        tmp_path,
        "experiment:\n  name: ground-state\noutputs:\n  directory: %s\n" % (tmp_path / "a"),
    )
    assert main(["run", spec]) == 0
    assert main(["groundstate", "--out", str(tmp_path / "b")]) == 0
    a = open(tmp_path / "a" / "summary.csv").read()
    b = open(tmp_path / "b" / "summary.csv").read()
    assert a == b


@pytest.mark.parametrize(
    "override",
    [
        "numerics.n_energy=abc",
        "numerics.n_energy=1.5",
        "numerics.record_every=0",
        "numerics.dt=.inf",
        "numerics.box_length=.inf",
        "numerics.e_cut=-.inf",
        "numerics.dx=.nan",
    ],
)
def test_bad_numerics_are_schema_problems(tmp_path, capsys, override):
    key, value = override.split("=")
    decay_only = key in ("numerics.record_every", "numerics.box_length")
    experiment = "decay-curves" if decay_only else "spectrum-vs-T"
    spec = _write(tmp_path, f"experiment:\n  name: {experiment}\n")
    assert main(["validate", spec, "--set", override]) == 1
    assert main(["run", spec, "--set", override]) == 2
    captured = capsys.readouterr()
    fault = f"{key}: must be finite" if value in (".inf", "-.inf", ".nan") else f"{key}: "
    assert fault in captured.out and fault in captured.err
    assert "Traceback" not in captured.out + captured.err


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@pytest.mark.parametrize(
    "config, override",
    [
        ("switch_scan.yaml", "experiment.n_coarse=abc"),
        ("switch_scan.yaml", "experiment.refine_rtol=-1"),
        ("switch_scan.yaml", "experiment.objectives=[lorentz]"),
        ("switch_scan.yaml", "experiment.t_range_fractions=[0.6, 0.01]"),
        ("delay_spectrum.yaml", "experiment.with_offset='false'"),
        ("delay_spectrum.yaml", "experiment.n_energy=abc"),
        ("delay_spectrum.yaml", "experiment.n_energy=5"),
        ("decay_curves.yaml", "experiment.t_switch_fractions=abc"),
        ("ground_state.yaml", "experiment.x_max=abc"),
        ("ground_state.yaml", "experiment.x_max=3"),
        ("ground_state.yaml", "experiment.x_max=.inf"),
    ],
)
def test_bad_options_are_schema_problems(tmp_path, capsys, config, override):
    spec = os.path.join(CONFIGS, config)
    assert main(["validate", spec, "--set", override]) == 1
    key = override.split("=")[0]
    assert capsys.readouterr().out.startswith(f"{key}: ")
    assert main(["run", spec, "--set", override, "--set", f"outputs.directory={tmp_path}"]) == 2
    captured = capsys.readouterr()
    assert f"  - {key}: " in captured.err
    assert "Traceback" not in captured.out + captured.err
AGREEMENT_CASES = [(name, None) for name in sorted(os.listdir(CONFIGS))] + [
    ("poles.yaml", "numerics.dt=9"),
    ("spectrum_vs_t.yaml", "numerics.dx=0.35"),
    ("switch_scan.yaml", "numerics.dx=3"),
    ("decay_curves.yaml", "numerics.dx=0.5"),
]


@pytest.mark.parametrize("config, override", AGREEMENT_CASES)
def test_validate_agrees_with_the_runners_own_setups(
    tmp_path, monkeypatch, capsys, config, override
):
    # Run the real runner, but let propagation and projection only record
    # what they were handed: the setups are the runner's own, and nothing
    # propagates.
    setups = []

    def record_setup(initial, setup, unit, record_every=1):
        setups.append(setup)
        # a sudden spectrum run takes no step (t_end 0) and reads no record
        t = np.linspace(0.0, setup.t_end or 1.0, 200)
        record = DecayRecord(t, np.exp(-t / 0.1), np.ones_like(t))
        return PropagationResult(None, record, None)

    def flat_distributions(released, final_config, unit, e_grid):
        return [EnergyDistribution(e_grid, np.ones_like(e_grid), 1.0) for _ in released]

    def flat_distribution(state, final_config, unit, e_grid, edge=None):
        return flat_distributions([(state, edge)], final_config, unit, e_grid)[0]

    # the runs stay in this process, so what they record is seen here
    monkeypatch.setattr(spectra, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(spectra, "propagate", record_setup)
    for module in (spectra, experiments):
        monkeypatch.setattr(module, "energy_distribution", flat_distribution)
        monkeypatch.setattr(module, "energy_distributions", flat_distributions)

    args = [os.path.join(CONFIGS, config)] + (["--set", override] if override else [])
    verdict = main(["validate", *args])
    printed = set(capsys.readouterr().out.splitlines())
    code = main(["run", *args, "--set", f"outputs.directory={tmp_path / 'out'}"])
    if code == 2:  # the spec is refused before anything is built
        assert verdict == 1 and not setups
        return
    unit = make_unit_system()
    problems = {p for s in setups for p in validate_setup(s, unit)}
    assert verdict == (1 if problems else 0)
    assert printed == (problems or {"ok"})
    propagating = ("decay_curves.yaml", "spectrum_vs_t.yaml", "switch_scan.yaml")
    assert bool(setups) == (config in propagating)


class _FirstStep(Exception):
    """Raised where a run that passed every check would take its first step."""


#: (config, override, refused): a dt ladder at theta = (e_cut + v_top) dt/2
#: from 0.094 to 2.7 (refused above 0.5), a ramp shorter than one step, an
#: e_cut below the resonance, whose P(E) grid misses the fit window, an
#: n_energy below the 504 energies the grid needs, decay boxes whose wall
#: or absorbing quarter starts inside the 15 um trap, and an experiment name
#: that is not a string
LADDER = [
    ("decay_curves.yaml", "numerics.dt=2e-4", False),  # theta 0.135
    ("decay_curves.yaml", "numerics.dt=4e-4", False),  # 0.27
    ("decay_curves.yaml", "numerics.dt=8.0e-4", True),  # 0.54
    ("decay_curves.yaml", "numerics.dt=1.6e-3", True),  # 1.08
    ("decay_curves.yaml", "numerics.dt=4.0e-3", True),  # 2.7
    ("decay_curves.yaml", "experiment.t_switch_fractions=[1e-4]", False),  # T = 0.2 dt
    ("decay_curves.yaml", "numerics.box_length=10", True),  # wall inside the trap
    ("decay_curves.yaml", "numerics.box_length=18", True),  # absorber from 13.5 um
    ("decay_curves.yaml", "numerics.box_length=20", False),  # absorber from 15 um
    ("spectrum_vs_t.yaml", "numerics.dt=2.5e-4", False),  # 0.094
    ("spectrum_vs_t.yaml", "numerics.dt=8e-4", False),  # 0.30
    ("spectrum_vs_t.yaml", "numerics.dt=1.6e-3", True),  # 0.60
    ("spectrum_vs_t.yaml", "numerics.dt=4.0e-3", True),  # 1.5
    ("spectrum_vs_t.yaml", "experiment.t_switch_fractions=[1e-4]", False),
    ("spectrum_vs_t.yaml", "numerics.e_cut=80", True),
    ("spectrum_vs_t.yaml", "numerics.n_energy=300", True),
    ("spectrum_vs_t.yaml", "numerics.n_energy=504", False),
    ("poles.yaml", "experiment.name=[poles]", True),
]


@pytest.mark.parametrize("config, override, refused", LADDER)
def test_validate_and_run_refuse_the_same_specs(
    tmp_path, monkeypatch, capsys, config, override, refused
):
    args = [os.path.join(CONFIGS, config), "--set", override]
    assert main(["validate", *args]) == (1 if refused else 0)
    printed = capsys.readouterr().out.splitlines()

    def first_step(*_):
        raise _FirstStep

    # runs stay in this process, and an accepted one stops where it would step
    monkeypatch.setattr(spectra, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(propagate_module, "_Stepper", first_step)
    run = ["run", *args, "--set", f"outputs.directory={tmp_path / 'out'}"]
    if refused:
        assert main(run) == 2
        err = capsys.readouterr().err
        assert printed and all(line in err for line in printed)
    else:
        assert printed == ["ok"]
        with pytest.raises(_FirstStep):
            main(run)

