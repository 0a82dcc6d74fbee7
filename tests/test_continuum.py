"""The program's sudden release against `continuum_oracle`, a scattering-
state expansion that shares no time step, grid, box or projection with it.

Bounds, maxima over TIMES (t >= 0.05 s) unless a later start is named:
- the oracle's expansion misses <= 1e-6 of the bound state's weight at
  k_max = 6;
- the oracle moves by <= 1e-6 when its k nodes, or k_max and its k nodes
  together, are doubled;
- the shipped T = 0 decay run (absorbing 150 um box, dx 0.05, dt 2e-4) is
  within 1.2e-4 of it, and within 3.5e-5 from t = 0.5 s on;
- halving dx and dt together, in an open 20 um box run to 1 s, brings p_w
  at least 2x closer to it.
"""

import os

import numpy as np
import pytest

from trapswitch.experiments import _decay_plan
from trapswitch.groundstate import ground_state
from trapswitch.io import load_document, parse_spec
from trapswitch.model import SwitchingSchedule
from trapswitch.propagate import PropagationSetup, propagate

from frozen import FINAL, INITIAL
from continuum_oracle import captured_weight, in_well_probability

#: Sample times (s): every 25th record of a decay run from 0.05 s, where the
#: oracle's cut at k_max no longer shows, to the shipped run's end.
TIMES = 0.025 * np.arange(2, 162)

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@pytest.fixture(scope="module")
def reference(unit):
    return in_well_probability(INITIAL, FINAL, unit, TIMES)


def _deviation(record, reference):
    """|p_w - oracle| at the TIMES the record holds."""
    times = TIMES[TIMES <= record.times[-1] + 1e-9]
    rows = np.searchsorted(record.times, times - 1e-9)
    assert np.allclose(record.times[rows], times, rtol=0.0, atol=1e-9)
    return times, np.abs(record.p_w[rows] - reference[: times.size])


def test_oracle_is_complete_and_converged_in_k(unit, reference):
    # the final trap binds nothing, so its scattering states carry the whole
    # bound state: what they miss is the weight past k_max
    missed = 1.0 - captured_weight(INITIAL, FINAL, unit, 6.0, 32768)
    assert 0.0 <= missed <= 1e-6, missed
    for k_max, n_k in ((3.0, 32768), (6.0, 32768)):
        moved = np.max(np.abs(in_well_probability(INITIAL, FINAL, unit, TIMES, k_max, n_k)
                              - reference))
        assert moved <= 1e-6, (k_max, n_k, moved)


def test_shipped_sudden_decay_run_matches_the_continuum(unit, reference):
    spec = parse_spec(load_document(os.path.join(CONFIGS, "decay_curves.yaml")))
    _, fracs, _, run, setups = _decay_plan(spec)
    assert fracs[0] == 0.0
    times, dev = _deviation(run.release(setups[0], unit), reference)
    assert times[-1] > 4.0
    assert dev.max() <= 1.2e-4, dev.max()
    assert dev[times >= 0.5].max() <= 3.5e-5, dev[times >= 0.5].max()


def test_halving_dx_and_dt_converges_to_the_continuum(unit, reference):
    worst = []
    for dx, dt in ((0.05, 2e-4), (0.025, 1e-4)):
        phi, _ = ground_state(INITIAL, unit, dx=dx)
        setup = PropagationSetup(schedule=SwitchingSchedule(INITIAL, FINAL, 0.0), dx=dx,
                                 box_length=20.0, dt=dt, t_end=1.0, e_cut=1000.0)
        record = propagate(phi, setup, unit, record_every=round(0.025 / dt)).record
        times, dev = _deviation(record, reference)
        assert times[-1] == pytest.approx(1.0)
        worst.append(dev.max())
    assert worst[1] <= 0.5 * worst[0], worst
