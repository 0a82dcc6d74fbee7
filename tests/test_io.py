"""Spec parsing, overrides, hashing, and the CSV/report emission layer."""

import math
import os
import re

import numpy as np
import pytest
import yaml

from trapswitch.errors import SpecValidationError
from trapswitch.io import (
    _ROW_BLOCK,
    _SCHEMA,
    Check,
    Table,
    apply_overrides,
    canonical_document,
    emit_experiment,
    format_number,
    load_document,
    load_spec,
    parse_spec,
    spec_hash,
    spec_problems,
    write_report,
    write_table,
)


def _minimal_doc():
    return {"experiment": {"name": "poles"}}


# ---------------------------------------------------------------------------
# schema validation


def test_spec_problems_empty_for_minimal_document():
    assert spec_problems(_minimal_doc()) == []


def test_root_must_be_mapping():
    problems = spec_problems([1, 2, 3])
    assert len(problems) == 1
    assert "spec root" in problems[0]


def test_unknown_sections_and_keys_are_each_reported():
    doc = {
        "experiment": {"name": "decay-curves", "banana": 1},
        "physics": {"mass_amu": 23.0, "colour": "red"},
        "numerics": {"dx": 0.05, "speed": 9},
        "outputs": {"directory": "out", "format": "csv"},
        "plotting": {},
    }
    problems = spec_problems(doc)
    text = "\n".join(problems)
    assert "unknown top-level sections ['plotting']" in text
    assert "experiment: unknown keys ['banana']" in text
    assert "physics: unknown keys ['colour']" in text
    assert "numerics: unknown keys ['speed']" in text
    assert "outputs: unknown keys ['format']" in text


def test_experiment_name_is_required_and_checked():
    assert spec_problems({}) == ["experiment.name: required"]
    problems = spec_problems({"experiment": {"name": "warp-drive"}})
    assert any("'warp-drive' not one of" in p for p in problems)


@pytest.mark.parametrize("name", [["poles"], {"poles": 1}, 5, None])
def test_an_experiment_name_that_is_no_string_is_refused(name):
    problems = spec_problems({"experiment": {"name": name}, "numerics": {"dx": 1}})
    assert problems == [f"experiment.name: {name!r} not one of {sorted(_SCHEMA)}"]


@pytest.mark.parametrize("directory", [None, "", ["out"], 5])
def test_output_directory_must_be_a_non_empty_string(directory):
    doc = {"experiment": {"name": "poles"}, "outputs": {"directory": directory}}
    assert spec_problems(doc) == [
        f"outputs.directory: expected a non-empty string, got {directory!r}"
    ]


@pytest.mark.parametrize(
    "section, key, value, fragment",
    [
        ("physics", "d", -1.0, "physics.d: must be > 0"),
        ("physics", "b", 0.0, "physics.b: must be > 0"),
        ("physics", "mass_amu", -23.0, "physics.mass_amu: must be > 0"),
        ("numerics", "dx", -0.05, "numerics.dx: must be > 0"),
        ("numerics", "dt", 0.0, "numerics.dt: must be > 0"),
        ("physics", "d", "wide", "physics.d: expected a number"),
        ("numerics", "t_end", math.inf, "numerics.t_end: must be finite"),
        ("numerics", "dt", -math.inf, "numerics.dt: must be finite"),
        ("physics", "d", math.nan, "physics.d: must be finite"),
    ],
)
def test_bad_values_are_flagged(section, key, value, fragment):
    doc = {"experiment": {"name": "decay-curves"}, section: {key: value}}
    assert any(fragment in p for p in spec_problems(doc))


def test_trap_subsections_reject_unknown_keys():
    doc = _minimal_doc()
    doc["physics"] = {"initial": {"v_well": 350.0, "depth": 1.0}}
    assert any("physics.initial: unknown keys ['depth']" in p for p in spec_problems(doc))


def test_trap_values_are_checked():
    doc = _minimal_doc()
    doc["physics"] = {"initial": {"v_well": "deep"}, "final": {"v_barrier": -5.0}}
    problems = spec_problems(doc)
    assert "physics.initial.v_well: expected a number, got 'deep'" in problems
    assert "physics.final.v_barrier: must be >= 0, got -5.0" in problems


@pytest.mark.parametrize("name", ["decay-curves", "spectrum-vs-T"])
@pytest.mark.parametrize("fractions", [[0.02, 0.02], [0.0, 0.1, 0.1000001]])
def test_switching_times_must_label_distinct_columns(name, fractions):
    problems = spec_problems({"experiment": {"name": name, "t_switch_fractions": fractions}})
    assert len(problems) == 1
    assert problems[0].startswith("experiment.t_switch_fractions: ")
    assert "repeat a column label" in problems[0]


def test_readme_key_tables_match_the_schema():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        rows = re.findall(r"^\| `([\w-]+)` \| `(experiment|numerics)\.(\w+)` \|", fh.read(), re.M)
    accepted = {
        (name, section, key)
        for name, tables in _SCHEMA.items()
        for section, keys in zip(("experiment", "numerics"), tables)
        for key in keys
    }
    assert len(rows) == len(set(rows))
    assert set(rows) == accepted


def test_parse_spec_raises_with_all_problems_listed():
    doc = {"experiment": {"name": "nope"}, "physics": {"d": -1.0}}
    with pytest.raises(SpecValidationError) as err:
        parse_spec(doc)
    assert len(err.value.problems) == 2
    assert "spec failed validation" in str(err.value)


# ---------------------------------------------------------------------------
# parsing and defaults


def test_parse_spec_fills_documented_defaults():
    spec = parse_spec(_minimal_doc())
    assert spec.name == "poles"
    assert (spec.initial.v_well, spec.initial.v_barrier) == (350.0, 400.0)
    assert (spec.final.v_well, spec.final.v_barrier) == (100.0, 200.0)
    assert (spec.initial.d, spec.initial.b) == (5.0, 10.0)
    assert spec.numerics == {}
    assert spec.options == {}
    assert spec.output_dir == os.path.join("out", "poles")


def test_parse_spec_applies_geometry_to_both_configurations():
    doc = _minimal_doc()
    doc["physics"] = {"d": 4.0, "b": 8.0, "final": {"v_well": 120.0, "v_barrier": 210.0}}
    spec = parse_spec(doc)
    assert (spec.initial.d, spec.initial.b) == (4.0, 8.0)
    assert (spec.final.d, spec.final.b) == (4.0, 8.0)
    assert spec.final.v_well == 120.0


def test_parse_spec_custom_mass_changes_unit_scale():
    full = parse_spec(_minimal_doc()).unit
    doc = _minimal_doc()
    doc["physics"] = {"mass_amu": full.mass_amu * 2.0}
    halved = parse_spec(doc).unit
    assert halved.kappa == pytest.approx(full.kappa / 2.0, rel=1e-12)


def test_experiment_options_pass_through():
    doc = {"experiment": {"name": "ground-state", "x_max": 90.0}}
    spec = parse_spec(doc)
    assert spec.options == {"x_max": 90.0}


# ---------------------------------------------------------------------------
# overrides


def test_override_values_parse_as_yaml():
    doc = _minimal_doc()
    apply_overrides(doc, ["physics.final.v_well=120", "physics.d=4.5"])
    assert doc["physics"]["final"]["v_well"] == 120
    assert doc["physics"]["d"] == 4.5


def test_override_creates_missing_sections():
    doc = _minimal_doc()
    apply_overrides(doc, ["outputs.directory=/tmp/somewhere"])
    assert doc["outputs"]["directory"] == "/tmp/somewhere"


def test_override_fills_a_section_left_empty():
    doc = yaml.safe_load("experiment:\n  name: decay-curves\nnumerics:\n")
    assert doc["numerics"] is None
    apply_overrides(doc, ["numerics.dx=0.04"])
    assert doc["numerics"] == {"dx": 0.04}
    assert spec_problems(doc) == []


@pytest.mark.parametrize("root", [None, [1, 2], "poles"])
def test_override_into_a_root_that_is_not_a_mapping_is_rejected(root):
    with pytest.raises(SpecValidationError, match="numerics.dx: spec root must be a mapping"):
        apply_overrides(root, ["numerics.dx=0.04"])


def test_override_without_equals_sign_rejected():
    with pytest.raises(SpecValidationError, match="not of the form"):
        apply_overrides(_minimal_doc(), ["physics.d"])


def test_overridden_document_still_validates():
    doc = _minimal_doc()
    apply_overrides(doc, ["experiment.region=[0.0, 0.9, -0.4, 0.0]"])
    assert spec_problems(doc) == []
    assert doc["experiment"]["region"] == [0.0, 0.9, -0.4, 0.0]


# ---------------------------------------------------------------------------
# canonical form and hashing


def test_canonical_document_round_trips():
    doc = {
        "experiment": {"name": "spectrum-vs-T", "t_switch_fractions": [0.0, 1.0]},
        "numerics": {"dx": 0.15, "dt": 0.00025},
        "outputs": {"directory": "run1"},
    }
    spec = parse_spec(doc)
    again = parse_spec(canonical_document(spec))
    assert canonical_document(again) == canonical_document(spec)


def test_spec_hash_ignores_output_directory():
    a = parse_spec(_minimal_doc())
    doc = _minimal_doc()
    doc["outputs"] = {"directory": "elsewhere"}
    b = parse_spec(doc)
    assert spec_hash(a) == spec_hash(b)


def test_spec_hash_tracks_physics():
    a = parse_spec(_minimal_doc())
    doc = _minimal_doc()
    doc["physics"] = {"final": {"v_well": 150.0}}
    b = parse_spec(doc)
    assert spec_hash(a) != spec_hash(b)
    assert len(spec_hash(a)) == 64


# ---------------------------------------------------------------------------
# loading from disk


def test_load_spec_reports_yaml_error_location(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("experiment:\n  name: [poles\n")
    with pytest.raises(SpecValidationError, match="line"):
        load_spec(str(path))


def test_load_spec_reads_valid_file(tmp_path):
    path = tmp_path / "ok.yaml"
    path.write_text("experiment:\n  name: delay-spectrum\n")
    spec = load_spec(str(path))
    assert spec.name == "delay-spectrum"


@pytest.mark.parametrize(
    "raw, problem",
    [
        ("2e-4", None),
        ("1E3", None),
        ("abc", "numerics.dt: expected a number, got 'abc'"),
        (".inf", "numerics.dt: must be finite, got inf"),
    ],
)
def test_numbers_with_an_exponent_load_as_floats(tmp_path, raw, problem):
    path = tmp_path / "spec.yaml"
    path.write_text(f"experiment:\n  name: decay-curves\nnumerics:\n  dt: {raw}\n")
    from_file = load_document(str(path))
    overridden = apply_overrides({"experiment": {"name": "decay-curves"}}, [f"numerics.dt={raw}"])
    for doc in (from_file, overridden):
        value = doc["numerics"]["dt"]
        if problem is None:
            assert type(value) is float and value == float(raw)
        assert spec_problems(doc) == ([problem] if problem else [])
    # integers stay integers, and the shared safe loader is left as it was
    assert apply_overrides({}, ["numerics.n_energy=12"])["numerics"]["n_energy"] == 12
    assert yaml.safe_load("2e-4") == "2e-4"


# ---------------------------------------------------------------------------
# number formatting


def test_format_number_kinds():
    assert format_number("resonance") == "resonance"
    assert format_number(7) == "7"
    assert format_number(np.int64(7)) == "7"
    assert format_number(134.51124872833176) == "134.511248728"
    assert format_number(2.5e-13) == "2.5e-13"


# ---------------------------------------------------------------------------
# tables, checks, reports


def _sample_table():
    t = Table("energies")
    t.add("e", "hbar/s", np.array([1.0, 2.0, 134.51124872833176]))
    t.add("p", "s/hbar", np.array([0.5, 0.25, 0.125]))
    return t


def test_write_table_round_trips_through_loadtxt(tmp_path):
    write_table(str(tmp_path), _sample_table(), {"spec_sha256": "abc"})
    path = tmp_path / "energies.csv"
    text = path.read_text()
    assert text.startswith("# spec_sha256: abc\n")
    assert "e [hbar/s],p [s/hbar]" in text
    data = np.loadtxt(path, delimiter=",", comments="#", skiprows=2)
    assert data.shape == (3, 2)
    # 12 significant digits in the file
    np.testing.assert_allclose(data[:, 0], [1.0, 2.0, 134.51124872833176], rtol=1e-11)


def test_write_table_formats_columns_as_format_number_does_cells(tmp_path):
    # each column is formatted in one pass by dtype, a block of rows at a
    # time; the file must equal the cell-by-cell format_number rows for
    # every kind a runner hands it, across block boundaries
    rng = np.random.default_rng(20261020)
    floats = np.concatenate([rng.normal(size=592) * 10.0 ** rng.integers(-300, 300, 592),
                             [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16, 123456789012.5]])
    n = floats.size
    t = Table("kinds")
    t.add("f64", "-", floats)
    with np.errstate(over="ignore"):  # past float32's range: inf
        t.add("f32", "-", floats.astype(np.float32))
    t.add("i64", "-", rng.integers(-(2**62), 2**62, n))
    t.add("u8", "-", (np.arange(n) % 256).astype(np.uint8))
    t.add("flag", "-", np.arange(n) % 3 == 0)
    t.add("kind", "-", ["resonance", "bound", "ümlaut"] * (n // 3) + ["x"] * (n % 3))
    t.add("mixed", "-", np.array([1, 2.5, "s", True] * (n // 4), dtype=object))
    write_table(str(tmp_path), t, {})
    rows = (tmp_path / "kinds.csv").read_text(encoding="utf-8").splitlines()[1:]
    cols = [col for _, _, col in t.columns]
    assert n > 2 * _ROW_BLOCK
    assert rows == [",".join(format_number(col[i]) for col in cols) for i in range(n)]


def test_write_table_rejects_ragged_columns(tmp_path):
    t = _sample_table()
    t.add("extra", "1", np.array([1.0]))
    with pytest.raises(SpecValidationError, match="ragged"):
        write_table(str(tmp_path), t, {})


def test_check_line_format():
    c = Check("norm_conserved", True, "drift = 3e-12 <= 1e-10", "norms.csv:norm:all")
    assert c.line() == "check[norm_conserved]: PASS (drift = 3e-12 <= 1e-10) [norms.csv:norm:all]"
    c = Check("total_weight", False, "0.9 < 0.999", "spectrum.csv:p:all")
    assert c.line().startswith("check[total_weight]: FAIL")


def test_write_report_contents(tmp_path):
    checks = [
        Check("a", True, "fine", "x.csv:a:all"),
        Check("b", False, "off", "x.csv:b:all"),
    ]
    write_report(str(tmp_path), "poles", {"n_found": 3, "e_r": 134.51124872833176}, checks, {"experiment": "poles"})
    lines = (tmp_path / "report.txt").read_text().splitlines()
    assert lines[0] == "# experiment: poles"
    assert "experiment: poles" in lines
    assert "n_found: 3" in lines
    assert "e_r: 134.511248728" in lines
    assert lines[-1] == "checks_failed: 1"


# ---------------------------------------------------------------------------
# atomic emission


def _emit_once(spec, tmp_path, value=1.0):
    t = Table("numbers")
    t.add("x", "um", np.array([value]))
    return emit_experiment(spec, [t], {"answer": value}, [], {"numbers": "plot 'numbers.csv'\n"})


def test_emit_experiment_writes_the_bundle(tmp_path):
    doc = _minimal_doc()
    doc["outputs"] = {"directory": str(tmp_path / "run")}
    spec = parse_spec(doc)
    out = _emit_once(spec, tmp_path)
    assert out == str(tmp_path / "run")
    names = sorted(os.listdir(out))
    assert names == ["numbers.csv", "numbers.gp", "report.txt", "spec.yaml"]
    # the bundled spec re-validates and hashes identically
    reloaded = load_spec(os.path.join(out, "spec.yaml"))
    assert spec_hash(reloaded) == spec_hash(spec)
    report = open(os.path.join(out, "report.txt")).read()
    assert f"# spec_sha256: {spec_hash(spec)}" in report


def test_emit_experiment_replaces_stale_outputs(tmp_path):
    doc = _minimal_doc()
    doc["outputs"] = {"directory": str(tmp_path / "run")}
    spec = parse_spec(doc)
    _emit_once(spec, tmp_path)
    stale = tmp_path / "run" / "leftover.csv"
    stale.write_text("old\n")
    _emit_once(spec, tmp_path, value=2.0)
    assert not stale.exists()
    assert "2" in (tmp_path / "run" / "numbers.csv").read_text()


def test_emit_experiment_failure_leaves_previous_outputs(tmp_path):
    doc = _minimal_doc()
    doc["outputs"] = {"directory": str(tmp_path / "run")}
    spec = parse_spec(doc)
    _emit_once(spec, tmp_path, value=3.0)
    bad = Table("numbers")
    bad.add("x", "um", np.array([1.0, 2.0]))
    bad.add("y", "um", np.array([1.0]))
    with pytest.raises(SpecValidationError):
        emit_experiment(spec, [bad], {}, [], {})
    # old bundle intact, no .partial directory left behind
    assert "3" in (tmp_path / "run" / "numbers.csv").read_text()
    assert not os.path.exists(str(tmp_path / "run") + ".partial")


def test_emitted_spec_yaml_is_canonical(tmp_path):
    doc = _minimal_doc()
    doc["outputs"] = {"directory": str(tmp_path / "run")}
    spec = parse_spec(doc)
    out = _emit_once(spec, tmp_path)
    with open(os.path.join(out, "spec.yaml")) as fh:
        assert yaml.safe_load(fh) == canonical_document(spec)
