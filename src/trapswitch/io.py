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
import shutil
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import __version__
from .errors import SpecValidationError
from .model import PotentialConfig, UnitSystem, make_unit_system

EXPERIMENT_NAMES = (
    "iso-curves",
    "delay-spectrum",
    "decay-curves",
    "spectrum-vs-T",
    "t-scan",
    "poles",
    "ground-state",
)

_PHYSICS_KEYS = {"mass_amu", "initial", "final", "d", "b"}
_TRAP_KEYS = {"v_well", "v_barrier"}
_OPTION_KEYS = {
    "iso-curves": {"e_r_targets", "v_well_range", "n_points", "v_barrier_bracket", "rtol"},
    "delay-spectrum": {"window_halfwidth", "n_energy", "with_offset"},
    "decay-curves": {"t_switch_fractions", "t_min_fit"},
    "spectrum-vs-T": {"t_switch_fractions"},
    "t-scan": {"objectives", "t_range_fractions", "n_coarse", "refine_rtol"},
    "poles": {"region"},
    "ground-state": {"x_max"},
}
#: experiment -> {numerics key its runner reads: type}; every value is > 0
_NUMERICS_KEYS = {
    "iso-curves": {},
    "delay-spectrum": {},
    "decay-curves": {
        "dx": float,
        "dt": float,
        "t_end": float,
        "box_length": float,
        "e_cut": float,
        "record_every": int,
    },
    "spectrum-vs-T": {"dx": float, "dt": float, "e_cut": float, "n_energy": int},
    "t-scan": {},
    "poles": {"e_cut": float},
    "ground-state": {"dx": float},
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


def _as_float(value, path, problems):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{path}: expected a number, got {value!r}")
        return None
    return float(value)


def _check_positive(value, path, kind, problems):
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        problems.append(f"{path}: expected an integer, got {value!r}")
        return
    v = _as_float(value, path, problems)
    if v is not None and not v > 0.0:
        problems.append(f"{path}: must be > 0, got {value}")


def spec_problems(document) -> list[str]:
    """All schema violations in a raw spec document; empty means parseable."""
    problems: list[str] = []
    if not isinstance(document, dict):
        return ["spec root must be a mapping with experiment/physics/numerics/outputs"]
    unknown = set(document) - {"experiment", "physics", "numerics", "outputs"}
    if unknown:
        problems.append(f"unknown top-level sections {sorted(unknown)}")

    exp = document.get("experiment")
    name = None
    if not isinstance(exp, dict) or "name" not in exp:
        problems.append("experiment.name: required")
    else:
        name = exp["name"]
        if name not in EXPERIMENT_NAMES:
            problems.append(
                f"experiment.name: {name!r} not one of {sorted(EXPERIMENT_NAMES)}"
            )
        else:
            unknown = set(exp) - {"name"} - _OPTION_KEYS[name]
            if unknown:
                problems.append(f"experiment: unknown keys {sorted(unknown)} for {name}")

    phys = document.get("physics") or {}
    if not isinstance(phys, dict):
        problems.append("physics: expected a mapping")
        phys = {}
    unknown = set(phys) - _PHYSICS_KEYS
    if unknown:
        problems.append(f"physics: unknown keys {sorted(unknown)}")
    for key in ("d", "b", "mass_amu"):
        if key in phys:
            _check_positive(phys[key], f"physics.{key}", float, problems)
    for trap in ("initial", "final"):
        raw = phys.get(trap) or {}
        if not isinstance(raw, dict):
            problems.append(f"physics.{trap}: expected a mapping with v_well/v_barrier")
            continue
        unknown = set(raw) - _TRAP_KEYS
        if unknown:
            problems.append(f"physics.{trap}: unknown keys {sorted(unknown)}")
        for key in sorted(_TRAP_KEYS & set(raw)):
            v = _as_float(raw[key], f"physics.{trap}.{key}", problems)
            if v is not None and v < 0.0:
                problems.append(f"physics.{trap}.{key}: must be >= 0, got {v}")

    num = document.get("numerics") or {}
    if not isinstance(num, dict):
        problems.append("numerics: expected a mapping")
    elif name in EXPERIMENT_NAMES:
        kinds = _NUMERICS_KEYS[name]
        unknown = set(num) - set(kinds)
        if unknown:
            problems.append(f"numerics: unknown keys {sorted(unknown)} for {name}")
        for key, kind in kinds.items():
            if key in num:
                _check_positive(num[key], f"numerics.{key}", kind, problems)

    out = document.get("outputs") or {}
    if not isinstance(out, dict):
        problems.append("outputs: expected a mapping")
    else:
        unknown = set(out) - {"directory"}
        if unknown:
            problems.append(f"outputs: unknown keys {sorted(unknown)}")
    return problems


def parse_spec(document) -> ExperimentSpec:
    """Build the validated spec from a raw document, or raise with all problems."""
    problems = spec_problems(document)
    if problems:
        raise SpecValidationError(
            "spec failed validation: " + "; ".join(problems), problems=problems
        )
    phys = document.get("physics") or {}
    d = float(phys.get("d", 5.0))
    b = float(phys.get("b", 10.0))

    def trap(key, v_well, v_barrier):
        raw = phys.get(key) or {}
        return PotentialConfig(
            float(raw.get("v_well", v_well)), float(raw.get("v_barrier", v_barrier)), d, b
        )

    unit = make_unit_system(float(phys["mass_amu"])) if "mass_amu" in phys else make_unit_system()
    exp = document["experiment"]
    kinds = _NUMERICS_KEYS[exp["name"]]
    options = {k: v for k, v in exp.items() if k != "name"}
    outputs = document.get("outputs") or {}
    return ExperimentSpec(
        name=exp["name"],
        unit=unit,
        initial=trap("initial", 350.0, 400.0),
        final=trap("final", 100.0, 200.0),
        numerics={k: kinds[k](v) for k, v in (document.get("numerics") or {}).items()},
        options=options,
        output_dir=str(outputs.get("directory", os.path.join("out", exp["name"]))),
    )


def load_document(path: str):
    """Raw YAML document of a spec file; errors carry their line and column."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return yaml.safe_load(fh)
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
            value = yaml.safe_load(raw)
        except yaml.YAMLError:
            value = raw
        node = document
        for key in keys[:-1]:
            node = node.setdefault(key, {})
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
    lines = []
    for key, value in {**common_meta, **table.meta}.items():
        lines.append(f"# {key}: {value}")
    lines.append(",".join(f"{name} [{unit}]" for name, unit, _ in table.columns))
    n = table.n_rows()
    cols = [col[2] for col in table.columns]
    for i in range(n):
        lines.append(",".join(format_number(col[i]) for col in cols))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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
