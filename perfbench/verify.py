"""Checks on the program's outputs, run after the timed section.

A run is correct when every emitted report passes all its checks, every
experiment's lowest pole matches one reference pole search within 1e-9
relative, seed 0 reproduces the frozen pole of tests/conftest.py, and every
pass of the run wrote byte-identical report.txt and CSV files.
"""

import os

from workloads import E_RES_0, GAMMA_RES_0, POLES_REGION, TAU_RES_0

POLE_RTOL = 1e-9

#: Report scalar -> which pole quantity it carries, per experiment.
POLE_SCALARS = {
    "poles": {"lowest_resonance_e_r": "e_r", "lowest_resonance_gamma": "gamma",
              "lowest_resonance_tau": "tau"},
    "delay-spectrum": {"pole_e_r": "e_r", "pole_gamma": "gamma"},
    "decay-curves": {"tau_pole": "tau"},
    "spectrum-vs-T": {"e_r": "e_r", "gamma": "gamma", "tau": "tau"},
}


def read_report(path: str) -> tuple[dict, list[str]]:
    """(scalars, failed check lines) of one report.txt."""
    scalars, failed = {}, []
    with open(os.path.join(path, "report.txt"), encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            if line.startswith("check["):
                if ": PASS " not in line:
                    failed.append(line)
            elif ": " in line:
                key, value = line.split(": ", 1)
                scalars[key] = value
    if scalars.get("checks_failed") != "0":
        failed.append(f"checks_failed: {scalars.get('checks_failed')}")
    return scalars, failed


def reference_pole(trapswitch, spec) -> dict:
    """Lowest resonance of the release trap, searched over the poles region."""
    poles = trapswitch.find_poles(spec.final, spec.unit, POLES_REGION)
    res = min((p for p in poles if p.kind == "resonance" and p.e_r > 0.0), key=lambda p: p.e_r)
    return {"e_r": res.e_r, "gamma": res.gamma, "tau": res.tau}


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def pole_problems(experiment: str, scalars: dict, reference: dict, seed: int) -> list[str]:
    frozen = {"e_r": E_RES_0, "gamma": GAMMA_RES_0, "tau": TAU_RES_0}
    problems = []
    for key, quantity in POLE_SCALARS.get(experiment, {}).items():
        value = float(scalars[key])
        if _rel(value, reference[quantity]) > POLE_RTOL:
            problems.append(f"{experiment} {key}={value!r} vs reference {reference[quantity]!r}")
        if seed == 0 and _rel(value, frozen[quantity]) > POLE_RTOL:
            problems.append(f"{experiment} {key}={value!r} vs frozen {frozen[quantity]!r}")
    return problems


def _output_files(path: str) -> list[str]:
    return sorted(n for n in os.listdir(path) if n == "report.txt" or n.endswith(".csv"))


def identity_problems(paths: list[str]) -> list[str]:
    """Byte differences between the emitted directories of one experiment."""
    problems = []
    first = paths[0]
    names = _output_files(first)
    for other in paths[1:]:
        if _output_files(other) != names:
            problems.append(f"{other}: files {_output_files(other)} != {names}")
            continue
        for name in names:
            with open(os.path.join(first, name), "rb") as a, open(os.path.join(other, name), "rb") as b:
                if a.read() != b.read():
                    problems.append(f"{name} differs between {first} and {other}")
    return problems
