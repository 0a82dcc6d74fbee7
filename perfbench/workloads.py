"""Seeded spec documents for the three workloads, and their problem sizes.

Seed 0 gives the shipped `configs/*.yaml` experiments (the paper's traps),
except that `spectrum` stops at T = 0.3 tau: the shipped T = tau point needs
a box that grows as T^2 and costs minutes.  Any other seed draws the release
trap uniformly from v_well in [95, 105], v_barrier in [190, 210] and jitters
each nonzero switching-time fraction by up to +-10%.  The documents are
copies, not reads of `configs/`, so editing a shipped config cannot move the
benchmark; a test keeps the two equal.

The drawn trap sets tau, and tau sets how long each run simulates, so the
work of `decay` and `spectrum` changes with the seed (spectrum work grows as
T^2).  `problem_size` turns a workload's inputs into a fixed count of grid
work at the shipped recipe, so that a wall time can be scaled to the seed-0
problem.  The count depends only on the inputs and tau, never on what the
program does, so a change that does less work for the same inputs shows.
"""

import copy
import math
import os
import random

import yaml

#: Frozen lowest resonance of the seed-0 release trap (tests/conftest.py).
E_RES_0 = 134.51124872833176
GAMMA_RES_0 = 2.4332890610635545
TAU_RES_0 = 0.41096638126623347

#: Region of the shipped `poles` experiment; the verifier's reference pole
#: search uses it for every workload.
POLES_REGION = (0.0, 0.9, -0.4, 0.22)

#: The shipped experiment documents, without their `outputs` section.
SHIPPED = {
    "poles": {
        "experiment": {"name": "poles", "region": list(POLES_REGION)},
    },
    "delay_spectrum": {
        "experiment": {
            "name": "delay-spectrum",
            "window_halfwidth": 10.0,
            "n_energy": 800,
            "with_offset": True,
        },
    },
    "iso_curves": {
        "experiment": {
            "name": "iso-curves",
            "e_r_targets": [53.391, 7.422],
            "v_well_range": [5.0, 350.0],
            "n_points": 40,
        },
    },
    "decay_curves": {
        "experiment": {"name": "decay-curves", "t_switch_fractions": [0.0, 0.058, 0.13, 1.0]},
        "numerics": {"dx": 0.05, "dt": 2.0e-4, "box_length": 150.0},
    },
    "spectrum_vs_t": {
        "experiment": {"name": "spectrum-vs-T", "t_switch_fractions": [0.0, 0.058, 1.0]},
        "numerics": {"dx": 0.15, "dt": 2.5e-4},
    },
}

SPECTRUM_FRACTIONS = [0.0, 0.058, 0.3]

#: Workload name -> shipped configs it runs, in order.
WORKLOADS = {
    "analytic": ("poles", "delay_spectrum", "iso_curves"),
    "decay": ("decay_curves",),
    "spectrum": ("spectrum_vs_t",),
}

V_WELL_RANGE = (95.0, 105.0)
V_BARRIER_RANGE = (190.0, 210.0)
FRACTION_JITTER = 0.10

# Defaults of the preparation trap and the trap geometry (io.parse_spec).
_INITIAL_TRAP = (350.0, 400.0)
_OUTER_EDGE = 15.0
_KAPPA = 2762.4374339513397


def documents(workload: str, seed: int) -> list[tuple[str, dict]]:
    """(config name, spec document) pairs for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; one of {sorted(WORKLOADS)}")
    docs = []
    for name in WORKLOADS[workload]:
        doc = copy.deepcopy(SHIPPED[name])
        if name == "spectrum_vs_t":
            doc["experiment"]["t_switch_fractions"] = list(SPECTRUM_FRACTIONS)
        docs.append((name, doc))
    if seed == 0:
        return docs
    rng = random.Random(seed)
    v_well = rng.uniform(*V_WELL_RANGE)
    v_barrier = rng.uniform(*V_BARRIER_RANGE)
    for _, doc in docs:
        doc["physics"] = {"final": {"v_well": v_well, "v_barrier": v_barrier}}
        fracs = doc["experiment"].get("t_switch_fractions")
        if fracs is not None:
            doc["experiment"]["t_switch_fractions"] = [
                f if f == 0.0 else f * rng.uniform(1.0 - FRACTION_JITTER, 1.0 + FRACTION_JITTER)
                for f in fracs
            ]
    return docs


def write_specs(workload: str, seed: int, directory: str) -> list[str]:
    """Write the workload's spec files; outputs land under `directory`."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, doc in documents(workload, seed):
        doc["outputs"] = {"directory": os.path.join(directory, name)}
        path = os.path.join(directory, f"{name}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh, sort_keys=True)
        paths.append(path)
    return paths


def problem_size(workload: str, seed: int, tau: float) -> float:
    """Grid work the shipped recipe needs for these inputs, in node-steps.

    `decay`: every switching time propagates the same window, the runner's
    default max(t_min) + 1.45 s, on the fixed absorbing box.  `spectrum`:
    each nonzero T propagates to its settle time in a box the packet cannot
    leave, then projects onto n_energy states; the sudden point projects a
    seed-independent state of ~4000 nodes onto 2000 + 2600 energies.
    Projection pairs count like node-steps: per unit they cost about the
    same (0.13 and 0.15 us on a 2-core 2 GHz Xeon).
    `analytic` does no grid work and its largest part does not depend on
    the seed, so its size is 1.
    """
    if workload == "analytic":
        return 1.0
    ((_, doc),) = documents(workload, seed)
    fracs = doc["experiment"]["t_switch_fractions"]
    num = doc["numerics"]
    dx, dt = num["dx"], num["dt"]
    if workload == "decay":
        t_end = max(max(0.5, 6.32 * f * tau) for f in fracs) + 1.45
        nodes = round(num["box_length"] / dx) + 1
        return len(fracs) * nodes * round(t_end / dt)
    final = doc.get("physics", {}).get("final", {"v_well": 100.0, "v_barrier": 200.0})
    dv = max(_INITIAL_TRAP[0] - final["v_well"], _INITIAL_TRAP[1] - final["v_barrier"])
    v_cut = _KAPPA * math.sqrt(2.0 * 400.0 / _KAPPA)
    size = 4000.0 * (2000 + 2600)
    for f in fracs:
        if f == 0.0:
            continue
        t_end = max(f * tau * math.log(dv / 1e-3), 0.05)
        nodes = math.ceil((_OUTER_EDGE + v_cut * t_end + 20.0) / dx) + 1
        size += nodes * (round(t_end / dt) + 2000)
    return size
