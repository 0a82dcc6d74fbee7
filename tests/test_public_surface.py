"""The package root exports only what its callers use, every name the
benchmark's tracer patches still exists where the tracer looks for it, and
the package's settable values are counted.

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


#: Parameters and dataclass fields with a default over src/trapswitch/*.py:
#: the values a caller can set.  A change that adds or removes one changes
#: this constant and says so in CHANGES.md.
SETTABLE_VALUES = 44


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return ast.unparse(target).split(".")[-1] == "dataclass"


def test_settable_value_count_is_pinned():
    count = 0
    for path in glob.glob(os.path.join(os.path.dirname(trapswitch.__file__), "*.py")):
        with open(path) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(default is not None for default in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                count += sum(
                    isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                    for stmt in node.body
                )
    assert count == SETTABLE_VALUES


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
    "spectrum-vs-T": {"dx": 0.4, "dt": 5e-4, "e_cut": 200.0, "n_energy": 300},
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
