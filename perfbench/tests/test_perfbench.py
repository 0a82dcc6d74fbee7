"""Tests of the benchmark harness itself (not of trapswitch).

Run with: python -m pytest perfbench/tests
"""

import os
import signal
import sys
import time

import pytest
import yaml

import run
import speed
import tracer
import verify
from env import ROOT
from workloads import SPECTRUM_FRACTIONS, WORKLOADS, documents, problem_size, TAU_RES_0

import trapswitch


def test_self_times_subtract_covered_child_intervals():
    spans = [
        ["root", None, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["a.leaf", 1, 2.0, 3.0],
        ["b", 0, 5.0, 9.0],
        ["b.x", 3, 6.0, 8.0],
        ["b.y", 3, 7.0, 8.5],  # overlaps b.x: the union counts once
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.0, 1.5])


def _traced_names():
    return [(m, a) for m, a, *_ in tracer.SPANS + tracer.COUNTS]


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    before = {(m, a): getattr(sys.modules[m], a) for m, a in _traced_names()}
    rec = tracer.Recorder()
    with pytest.raises(RuntimeError):
        with tracer.attached(rec):
            assert sys.modules["trapswitch.spectra"].propagate is not before[
                ("trapswitch.spectra", "propagate")
            ]
            run.run_pass(trapswitch, "analytic", 0, str(tmp_path), rec)
            raise RuntimeError("leave the block early")
    assert {(m, a): getattr(sys.modules[m], a) for m, a in _traced_names()} == before
    names = {s[0] for s in rec.spans}
    assert {"io.parse", "experiments", "poles.find_poles", "poles.winding", "io.emit"} <= names
    assert all(end is not None for *_, end in rec.spans)


def test_generator_is_deterministic_and_seed0_is_shipped():
    for workload in WORKLOADS:
        assert documents(workload, 7) == documents(workload, 7)
        assert documents(workload, 7) != documents(workload, 8)
    shipped = {}
    for workload in WORKLOADS:
        for name, doc in documents(workload, 0):
            with open(os.path.join(ROOT, "configs", f"{name}.yaml"), encoding="utf-8") as fh:
                expected = yaml.safe_load(fh)
            del expected["outputs"]
            if name == "spectrum_vs_t":
                expected["experiment"]["t_switch_fractions"] = SPECTRUM_FRACTIONS
            assert doc == expected, name
            shipped[name] = doc
    assert set(shipped) == {n for names in WORKLOADS.values() for n in names}


def test_seeded_draws_stay_in_the_box():
    for seed in range(1, 30):
        ((_, doc),) = documents("decay", seed)
        final = doc["physics"]["final"]
        assert 95.0 <= final["v_well"] <= 105.0 and 190.0 <= final["v_barrier"] <= 210.0
        fracs = doc["experiment"]["t_switch_fractions"]
        assert fracs[0] == 0.0
        for f, f0 in zip(fracs[1:], (0.058, 0.13, 1.0)):
            assert 0.9 * f0 <= f <= 1.1 * f0
    for workload in WORKLOADS:
        assert problem_size(workload, 0, TAU_RES_0) > 0


def test_deterministic_counters_repeat_across_traced_analytic_runs(tmp_path):
    keys = (
        "poles.omega_points",
        "poles.newton.calls",
        "propagate.node_steps",
        "spectra.projection.pairs",
    )
    seen = []
    for i in range(2):
        rec = tracer.Recorder()
        with tracer.attached(rec):
            done = run.run_pass(trapswitch, "analytic", 0, str(tmp_path / str(i)), rec)
        assert not any(op.error for op in done.ops)
        metrics = tracer.layer_metrics(rec, 1.0)
        seen.append({k: metrics[k][0] for k in keys})
    assert seen[0] == seen[1]
    assert seen[0]["poles.omega_points"] > 0 and seen[0]["poles.newton.calls"] > 0


def test_verifier_flags_failed_checks_and_byte_differences(tmp_path):
    for name, check in (("a", "PASS"), ("b", "FAIL")):
        d = tmp_path / name
        d.mkdir()
        (d / "report.txt").write_text(
            f"# code_version: x\nexperiment: poles\ncheck[c]: {check} (detail) [f.csv:x:all]\n"
            f"checks_failed: {int(check == 'FAIL')}\n"
        )
        (d / "t.csv").write_text(f"x [-]\n{name}\n")
    assert verify.read_report(str(tmp_path / "a"))[1] == []
    assert len(verify.read_report(str(tmp_path / "b"))[1]) == 2
    assert verify.identity_problems([str(tmp_path / "a"), str(tmp_path / "a")]) == []
    assert len(verify.identity_problems([str(tmp_path / "a"), str(tmp_path / "b")])) == 2


def test_speed_sampler_restores_the_alarm_and_scales_times():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler("decay", interval=0.01) as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 3
    assert sampler.busy_s == pytest.approx(sum(sampler.samples))
    # kernel twice as fast as nominal: 2 s measured are 4 s at the nominal speed
    nominal = speed.KERNELS["decay"][1]
    assert speed.scaled("decay", 2.0, [nominal / 2] * 3) == pytest.approx(4.0)
