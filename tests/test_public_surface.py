"""The package root exports only what its callers use, every name the
benchmark's tracer patches still exists where the tracer looks for it, and
the package's settable values are pinned by name.

`perfbench/tracer.py` replaces functions by name in the module that calls
them, so renaming or moving one of them breaks the traced benchmark run
without failing any other test here.
"""

import ast
import glob
import importlib
import importlib.util
import inspect
import os

import pytest

import trapswitch
from trapswitch import spectra
from trapswitch.io import parse_spec
from trapswitch.poles import IsoResonanceCurve
from trapswitch.propagate import propagate
from trapswitch.scattering import pole_function_terms, s_matrix
from trapswitch.spectra import LorentzianFit

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # stdlib only, no package imports
    return module


def test_package_root_exports_only_what_callers_use():
    assert set(trapswitch.__all__) == {"load_spec", "run_experiment", "find_poles"}
    assert isinstance(trapswitch.__version__, str)


#: Parameters and dataclass fields with a default over src/trapswitch/*.py,
#: as module.owner.name with the owner's qualified name: the values a caller
#: can set.  A change that adds, removes or moves one changes this list and
#: says so in CHANGES.md.
SETTABLE_VALUES = [
    "cli.main.argv",
    "errors.AmbiguousBoundStateError.__init__.energies",
    "errors.FitFailureError.__init__.last_iterate",
    "errors.IncompleteSearchError.__init__.expected",
    "errors.IncompleteSearchError.__init__.found",
    "errors.NumericalBlowupError.__init__.step",
    "errors.RefinementError.__init__.interval",
    "errors.SpecValidationError.__init__.problems",
    "groundstate.WavefunctionGrid.values",
    "groundstate.ground_state.dx",
    "groundstate.ground_state.x_max",
    "io.Table.columns",
    "io.Table.meta",
    "io._number_fault.closed",
    "io._number_fault.kind",
    "io._number_fault.low",
    "io._numbers_fault.length",
    "io._range_fault.closed",
    "io._range_fault.high",
    "model.make_unit_system.mass_amu",
    "poles._subdivide_search.depth",
    "poles.find_bound_states.kappa_range",
    "poles.trace_iso_resonance.n_points",
    "poles.trace_iso_resonance.v_well_range",
    "propagate.PropagationSetup.absorber",
    "spectra.DecayRunSpec.box_length",
    "spectra.DecayRunSpec.dt",
    "spectra.DecayRunSpec.dx",
    "spectra.DecayRunSpec.e_cut",
    "spectra.DecayRunSpec.record_every",
    "spectra.SpectrumRunSpec.dt",
    "spectra.SpectrumRunSpec.dx",
    "spectra.SpectrumRunSpec.e_cut",
    "spectra.SpectrumRunSpec.n_energy",
    "spectra.energy_distribution.edge",
    "spectra.optimal_switch_time.refine_rtol",
    "spectra.scan_plan.n_coarse",
    "spectra.scan_plan.t_range_fractions",
]


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return ast.unparse(target).split(".")[-1] == "dataclass"


def _settable(node, owner):
    """owner.name of each parameter with a default and each dataclass field
    with a default below node, with the owner's qualified name."""
    found = []
    for child in ast.iter_child_nodes(node):
        inner = owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inner = f"{owner}.{getattr(child, 'name', '<lambda>')}"
            args = child.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults) :] + [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
            ]
            found += [f"{inner}.{arg.arg}" for arg in named]
        elif isinstance(child, ast.ClassDef):
            inner = f"{owner}.{child.name}"
            if any(map(_is_dataclass, child.decorator_list)):
                found += [
                    f"{inner}.{stmt.target.id}"
                    for stmt in child.body
                    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                ]
        found += _settable(child, inner)
    return found


def test_settable_values_are_pinned_by_name():
    found = []
    for path in glob.glob(os.path.join(os.path.dirname(trapswitch.__file__), "*.py")):
        with open(path) as f:
            found += _settable(ast.parse(f.read()), os.path.basename(path)[:-3])
    assert sorted(found) == SETTABLE_VALUES


def test_every_traced_name_resolves_in_its_calling_module():
    tracer = _tracer()
    missing = [
        (module, name)
        for module, name, *_ in tracer.SPANS + tracer.COUNTS
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_traced_arguments_and_fields_keep_their_places():
    # the tracer's hooks read these by position or by attribute (its
    # propagate hook still looks for a fifth, accuracy-probe argument; with
    # none it counts probe steps, although no run takes them any more)
    params = list(inspect.signature(propagate).parameters)
    assert params == ["initial", "setup", "unit", "record_every"]
    for fn in (pole_function_terms, s_matrix):
        assert list(inspect.signature(fn).parameters)[2] == "k"
    assert "n_iterations" in LorentzianFit.__dataclass_fields__
    assert "v_well" in IsoResonanceCurve.__dataclass_fields__


#: small propagating specs with two runs each, so two workers share them
POOLED = {
    "decay-curves": {"dx": 0.5, "e_cut": 100.0, "box_length": 60.0, "dt": 5e-4, "record_every": 20},
    "spectrum-vs-T": {"dx": 0.4, "dt": 5e-4, "e_cut": 200.0, "n_energy": 504},
}


@pytest.mark.parametrize("name", sorted(POOLED))
def test_pooled_runs_pickle_while_the_tracer_is_attached(tmp_path, monkeypatch, name):
    # the tracer's wrappers replace names such as experiments.switch_and_record
    # and cannot be pickled by name, so no pool job may be one of them
    tracer = _tracer()
    monkeypatch.setattr(spectra, "_usable_cpus", lambda: 2)
    spec = parse_spec({
        "experiment": {"name": name, "t_switch_fractions": [0.02, 0.05]},
        "numerics": POOLED[name],
        "outputs": {"directory": str(tmp_path / "run")},
    })
    with tracer.attached(tracer.Recorder()):
        path, _ = trapswitch.run_experiment(spec)
    assert os.path.isfile(os.path.join(path, "report.txt"))
