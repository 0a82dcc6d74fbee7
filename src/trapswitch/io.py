"""Experiment specs on disk, deterministic CSV/report emission.

A spec is a small YAML document with four sections: experiment (name plus
per-experiment options), physics (trap shapes), numerics (overrides of the
run-record fields the experiment's runner reads), and outputs (target
directory).  Unknown keys anywhere are errors.  All emitted files are plain
text, carry '#'-prefixed metadata (code version, spec hash, units), print
floats with 12 significant digits, and contain nothing run-dependent, so
identical specs produce byte-identical outputs.
"""

import hashlib
import os
import re
import shutil
import sys
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from . import __version__
from .errors import SpecValidationError
from .model import PotentialConfig, UnitSystem, make_unit_system
from .spectra import MIN_FIT_SAMPLES, OBJECTIVES, DecayRunSpec, SpectrumRunSpec

#: default well width d and barrier width b, in um
_GEOMETRY = {"d": 5.0, "b": 10.0}
_ROOT_PROBLEM = "spec root must be a mapping with experiment/physics/numerics/outputs"


def frac_label(frac: float) -> str:
    """Column and check label of a switching time given in lifetimes."""
    return "T0" if frac == 0.0 else f"T{frac:g}tau"


def _number_fault(value, kind=float, low=0.0, closed=False):
    """Why value is not a finite `kind` above low (at or above, if closed), or None."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        return f"expected {'an integer' if kind is int else 'a number'}, got {value!r}"
    if not abs(value) <= sys.float_info.max:  # inf, nan, or an int past every float
        return f"must be finite, got {value}"
    if not (value >= low if closed else value > low):
        return f"must be {'>=' if closed else '>'} {low:g}, got {value}"
    return None


def _numbers_fault(value, length=None):
    """Why value is not a non-empty list of numbers (of that length), or None."""
    if not (
        isinstance(value, list)
        and value
        and len(value) == (length or len(value))
        and not any(_number_fault(v, low=-np.inf) for v in value)
    ):
        return f"expected a list of {length or 'one or more'} numbers, got {value!r}"
    return None


def _range_fault(value, low, high=np.inf, closed=True):
    """Why value is not [a, b] with low <= a < b <= high (low < a unless closed), or None."""
    return _numbers_fault(value, 2) or _number_fault(value[0], low=low, closed=closed) or (
        None if value[0] < value[1] <= high else f"need low < high <= {high:g}, got {value}"
    )


def _fractions_fault(value):
    fault = _numbers_fault(value) or _number_fault(min(value), closed=True)
    labels = [] if fault else [frac_label(f) for f in value]
    if len(set(labels)) < len(labels):
        fault = f"{value} repeat a column label {labels}"
    return fault


def _objectives_fault(value):
    if not isinstance(value, list) or not value or any(v not in OBJECTIVES for v in value):
        return f"expected a list of names from {list(OBJECTIVES)}, got {value!r}"
    return None if len(set(value)) == len(value) else f"names an objective twice: {value}"


#: experiment -> check tables of the options and numerics keys its runner
#: reads (for a propagating runner, the fields of its run record).  A check is
#: a number type (a finite one > 0), a function saying why a value is bad (or
#: None), or a subsection's (expected, check table); values are kept as parsed.
_SCHEMA = {
    "iso-curves": ({
        "e_r_targets": lambda v: _numbers_fault(v) or _number_fault(min(v)),
        "n_points": lambda v: _number_fault(v, int, 2, closed=True),
        "v_well_range": lambda v: _range_fault(v, 0.0),
    }, {}),
    "delay-spectrum": ({
        "n_energy": lambda v: _number_fault(v, int, MIN_FIT_SAMPLES, closed=True),
        "window_halfwidth": float,
        "with_offset": lambda v: (
            None if isinstance(v, bool) else f"expected true or false, got {v!r}"
        ),
    }, {}),
    "decay-curves": ({"t_switch_fractions": _fractions_fault},
                     {f.name: f.type for f in fields(DecayRunSpec)}),
    "spectrum-vs-T": ({"t_switch_fractions": _fractions_fault},
                      {f.name: f.type for f in fields(SpectrumRunSpec)}),
    "t-scan": ({
        # three points are the fewest that can hold an interior minimum
        "n_coarse": lambda v: _number_fault(v, int, 3, closed=True),
        "objectives": _objectives_fault,
        "refine_rtol": float,
        "t_range_fractions": lambda v: _range_fault(v, 0.0, 2.0, closed=False),
    }, {}),
    "poles": ({
        "region": lambda v: _numbers_fault(v, 4) or (
            None if v[0] < v[1] and v[2] < v[3] else f"need min < max on both axes, got {v}"
        ),
    }, {}),
    "ground-state": ({"x_max": float}, {"dx": float}),
}
#: a trap's depths in hbar/s, each >= 0
_TRAP = ("a mapping with v_well/v_barrier",
         dict.fromkeys(["v_barrier", "v_well"], lambda v: _number_fault(v, closed=True)))
_PHYSICS = {"d": float, "b": float, "mass_amu": float, "initial": _TRAP, "final": _TRAP}
_OUTPUTS = {
    "directory": lambda v: (
        None if isinstance(v, str) and v else f"expected a non-empty string, got {v!r}"
    ),
}


@dataclass
class ExperimentSpec:
    """Parsed and validated experiment description."""

    name: str
    unit: UnitSystem
    initial: PotentialConfig
    final: PotentialConfig
    numerics: dict
    options: dict
    output_dir: str


def _section_problems(raw, path, expected, table, suffix):
    """Problems of one spec section: `<path>: expected ...` unless a mapping
    (null reads as empty), then its unknown keys and each present key's fault;
    no check table (an unknown experiment's) checks only the mapping."""
    raw = raw or {}
    if not isinstance(raw, dict):
        return [f"{path}: expected {expected}"]
    if table is None:
        return []
    unknown = sorted(set(raw) - set(table))
    problems = [f"{path}: unknown keys {unknown}{suffix}"] if unknown else []
    for key, check in table.items():
        if key in raw and isinstance(check, tuple):
            problems += _section_problems(raw[key], f"{path}.{key}", *check, "")
        elif key in raw:
            fault = _number_fault(raw[key], check) if isinstance(check, type) else check(raw[key])
            problems += [f"{path}.{key}: {fault}"] if fault else []
    return problems


def spec_problems(document) -> list[str]:
    """All schema violations in a raw spec document; empty means parseable."""
    problems: list[str] = []
    if not isinstance(document, dict):
        return [_ROOT_PROBLEM]
    unknown = set(document) - {"experiment", "physics", "numerics", "outputs"}
    if unknown:
        problems.append(f"unknown top-level sections {sorted(unknown)}")

    exp = document.get("experiment")
    name = exp.get("name") if isinstance(exp, dict) else None
    options, kinds = _SCHEMA.get(name, (None, None)) if isinstance(name, str) else (None, None)
    if not isinstance(exp, dict) or "name" not in exp:
        problems.append("experiment.name: required")
    elif options is None:
        problems.append(f"experiment.name: {name!r} not one of {sorted(_SCHEMA)}")
    else:
        given = {key: value for key, value in exp.items() if key != "name"}
        problems += _section_problems(given, "experiment", "a mapping", options, f" for {name}")

    phys = document.get("physics")
    problems += _section_problems(phys, "physics", "a mapping", _PHYSICS, "")
    if name == "ground-state" and "x_max" in exp:
        # the grid must hold the whole trap, or the state is cut inside it
        phys = phys if isinstance(phys, dict) else {}
        edge = [phys.get(key, default) for key, default in _GEOMETRY.items()]
        if not any(map(_number_fault, [exp["x_max"], *edge])) and exp["x_max"] <= sum(edge):
            problems.append(
                f"experiment.x_max: must be > the trap's outer edge physics.d + physics.b "
                f"= {sum(edge):g}, got {exp['x_max']}"
            )
    numerics = document.get("numerics")
    problems += _section_problems(numerics, "numerics", "a mapping", kinds, f" for {name}")
    problems += _section_problems(document.get("outputs"), "outputs", "a mapping", _OUTPUTS, "")
    return problems


def parse_spec(document) -> ExperimentSpec:
    """Build the validated spec from a raw document, or raise with all problems."""
    problems = spec_problems(document)
    if problems:
        raise SpecValidationError(
            "spec failed validation: " + "; ".join(problems), problems=problems
        )
    phys = document.get("physics") or {}
    d, b = (float(phys.get(key, default)) for key, default in _GEOMETRY.items())

    def trap(key, v_well, v_barrier):
        raw = phys.get(key) or {}
        return PotentialConfig(
            float(raw.get("v_well", v_well)), float(raw.get("v_barrier", v_barrier)), d, b
        )

    unit = make_unit_system(float(phys["mass_amu"])) if "mass_amu" in phys else make_unit_system()
    exp = document["experiment"]
    kinds = _SCHEMA[exp["name"]][1]
    options = {k: v for k, v in exp.items() if k != "name"}
    outputs = document.get("outputs") or {}
    return ExperimentSpec(
        name=exp["name"],
        unit=unit,
        initial=trap("initial", 350.0, 400.0),
        final=trap("final", 100.0, 200.0),
        numerics={k: kinds[k](v) for k, v in (document.get("numerics") or {}).items()},
        options=options,
        output_dir=outputs.get("directory", os.path.join("out", exp["name"])),
    )


class _SpecLoader(yaml.SafeLoader):
    """PyYAML's safe loader with YAML 1.2's exponent floats: 2e-4 and 1E3 read
    as numbers, where YAML 1.1 wants a dot and a signed exponent."""


_SpecLoader.add_implicit_resolver(  # on a copy of SafeLoader's resolvers
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def load_document(path: str):
    """Raw YAML document of a spec file; errors carry their line and column."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return yaml.load(fh, Loader=_SpecLoader)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            raise SpecValidationError(f"spec parse error{where}: {exc}") from exc


def load_spec(path: str) -> ExperimentSpec:
    """Parse and validate a spec file."""
    return parse_spec(load_document(path))


def apply_overrides(document, assignments: list[str]):
    """Apply dotted key=value overrides (e.g. physics.final.v_well=120)."""
    for item in assignments:
        if "=" not in item:
            raise SpecValidationError(f"override {item!r} is not of the form a.b=value")
        dotted, raw = item.split("=", 1)
        keys = dotted.strip().split(".")
        try:
            value = yaml.load(raw, Loader=_SpecLoader)
        except yaml.YAMLError:
            value = raw
        if not isinstance(document, dict):
            raise SpecValidationError(f"override {dotted}: {_ROOT_PROBLEM}")
        node = document
        for key in keys[:-1]:
            if node.get(key) is None:  # a section left empty in YAML reads as null
                node[key] = {}
            node = node[key]
            if not isinstance(node, dict):
                raise SpecValidationError(f"override {dotted}: {key} is not a section")
        node[keys[-1]] = value
    return document


def canonical_document(spec: ExperimentSpec) -> dict:
    """Round-trippable document form of a parsed spec (stable key order)."""
    doc = {
        "experiment": {"name": spec.name, **{k: spec.options[k] for k in sorted(spec.options)}},
        "physics": {
            "mass_amu": spec.unit.mass_amu,
            "initial": {"v_well": spec.initial.v_well, "v_barrier": spec.initial.v_barrier},
            "final": {"v_well": spec.final.v_well, "v_barrier": spec.final.v_barrier},
            "d": spec.initial.d,
            "b": spec.initial.b,
        },
        "numerics": {k: spec.numerics[k] for k in sorted(spec.numerics)},
        "outputs": {"directory": spec.output_dir},
    }
    return doc


def spec_hash(spec: ExperimentSpec) -> str:
    # the output path feeds no computation, so it must not perturb the hash
    doc = canonical_document(spec)
    del doc["outputs"]
    text = yaml.safe_dump(doc, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# emission


def format_number(x) -> str:
    if isinstance(x, (str, np.str_)):
        return str(x)
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return f"{float(x):.12g}"


#: Rows of a table formatted at a time.
_ROW_BLOCK = 256


def _formatted(column: np.ndarray) -> list[str]:
    """format_number of every cell of a column, in one pass by dtype: floats
    up to double, integers and strings; any other kind cell by cell."""
    values = column.tolist()
    kind = column.dtype.kind
    if kind == "f" and column.dtype.itemsize <= 8:
        return [f"{v:.12g}" for v in values]
    if kind in "iu":
        return [str(v) for v in values]
    if kind == "U":
        return values
    return [format_number(v) for v in values]


@dataclass
class Table:
    """One CSV in the making: named, unit-tagged, equal-length columns."""

    name: str
    columns: list = field(default_factory=list)  # (name, unit, array)
    meta: dict = field(default_factory=dict)

    def add(self, name: str, unit: str, values):
        self.columns.append((name, unit, np.asarray(values)))

    def n_rows(self) -> int:
        return 0 if not self.columns else len(self.columns[0][2])


def write_table(directory: str, table: Table, common_meta: dict):
    lengths = {len(col[2]) for col in table.columns}
    if len(lengths) > 1:
        raise SpecValidationError(f"table {table.name}: ragged columns {lengths}")
    path = os.path.join(directory, f"{table.name}.csv")
    head = [f"# {key}: {value}" for key, value in {**common_meta, **table.meta}.items()]
    head.append(",".join(f"{name} [{unit}]" for name, unit, _ in table.columns))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(head) + "\n")
        # a block of rows at a time: the cell strings of a whole table would
        # add their size to the run's peak memory
        for lo in range(0, table.n_rows(), _ROW_BLOCK):
            cells = [_formatted(values[lo : lo + _ROW_BLOCK]) for _, _, values in table.columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


@dataclass
class Check:
    """One named tolerance check with its evidence and data citation."""

    name: str
    passed: bool
    detail: str
    citation: str  # file:column:rows backing the numbers

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"check[{self.name}]: {status} ({self.detail}) [{self.citation}]"


def write_report(directory: str, name: str, scalars: dict, checks: list[Check], common_meta: dict):
    lines = [f"# {key}: {value}" for key, value in common_meta.items()]
    lines.append(f"experiment: {name}")
    for key in scalars:
        lines.append(f"{key}: {format_number(scalars[key])}")
    for check in checks:
        lines.append(check.line())
    n_fail = sum(not c.passed for c in checks)
    lines.append(f"checks_failed: {n_fail}")
    with open(os.path.join(directory, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_plot_script(directory: str, name: str, text: str):
    with open(os.path.join(directory, f"{name}.gp"), "w", encoding="utf-8") as fh:
        fh.write(text)


def emit_experiment(
    spec: ExperimentSpec,
    tables: list[Table],
    scalars: dict,
    checks: list[Check],
    plots: dict,
) -> str:
    """Write everything under the spec's output directory, atomically.

    Files are staged in a sibling '.partial' directory that replaces the
    target only after every file landed; failures leave no partial target.
    """
    final_dir = spec.output_dir
    staging = final_dir.rstrip("/\\") + ".partial"
    if os.path.exists(staging):
        shutil.rmtree(staging)
    os.makedirs(staging)
    common_meta = {
        "code_version": __version__,
        "spec_sha256": spec_hash(spec),
        "experiment": spec.name,
    }
    try:
        for table in tables:
            write_table(staging, table, common_meta)
        for plot_name, text in plots.items():
            write_plot_script(staging, plot_name, text)
        write_report(staging, spec.name, scalars, checks, common_meta)
        with open(os.path.join(staging, "spec.yaml"), "w", encoding="utf-8") as fh:
            yaml.safe_dump(canonical_document(spec), fh, sort_keys=True)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if os.path.exists(final_dir):
        shutil.rmtree(final_dir)
    os.replace(staging, final_dir)
    return final_dir
