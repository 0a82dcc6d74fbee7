"""Run one benchmark workload at one seed and print its metrics.

    python3 perfbench/run.py --workload {analytic,decay,spectrum} --seed N \
        --seconds S --trace {0,1}

The program is driven only through its public API in this one process:
generated spec files go through `load_spec` and `run_experiment`, and the
emitted report.txt and CSVs are read back.  With --trace 0 the workload runs
untraced as often as fits in S seconds (at least once) and the end-to-end
metrics are printed; set-up is timed in separate short-lived interpreters.
Both times are scaled to a reference host speed by the workload's kernel,
which `speed` runs inside the timed passes.
With --trace 1 one untraced pass is followed by one traced pass, and the
per-layer metrics plus the tracing overhead are printed.  The last stdout
line is one JSON object {correct, attempted, failed, metrics}.

Exit codes: 0 verified, 1 the verifier found a wrong output (the result line
is still printed), 2 the package sources are missing, other on a crash.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import env
import speed
import tracer
import verify
from workloads import TAU_RES_0, WORKLOADS, problem_size, write_specs

SETUP_PROBES = 5
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")

KNOWN_DEFECT = (
    "known defect: decay-curves fits on its default window t_end = max(t_min) + 1.45 s, "
    "which spans fewer than 3 lifetimes once tau > ~0.483 s (corner of the seed box)"
)


@dataclass
class Op:
    """One experiment run: the benchmark's unit of attempted work."""

    experiment: str
    seconds: float
    path: str | None
    error: str | None = None
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


@dataclass
class Pass:
    specs: list
    ops: list
    wall: float


def run_pass(trapswitch, workload, seed, directory, rec=None) -> Pass:
    """Write, parse and run the workload's specs once; time each experiment."""
    specs = []
    for path in write_specs(workload, seed, directory):
        if rec is None:
            specs.append(trapswitch.load_spec(path))
        else:
            with rec.span("io.parse"):
                specs.append(trapswitch.load_spec(path))
    ops = []
    first = time.perf_counter()
    for spec in specs:
        t0 = time.perf_counter()
        path, error = None, None
        try:
            if rec is None:
                path, _ = trapswitch.run_experiment(spec)
            else:
                with rec.span("experiments"):
                    path, _ = trapswitch.run_experiment(spec)
        except Exception as exc:  # the program failed this operation; record and go on
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        ops.append(Op(spec.name, time.perf_counter() - t0, path, error))
    return Pass(specs, ops, time.perf_counter() - first)


def measure_setup(workload, seed, directory) -> list[float]:
    """Interpreter start to first experiment call, in fresh processes."""
    samples = []
    for i in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, PROBE, workload, str(seed), os.path.join(directory, f"probe{i}")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


def verify_passes(trapswitch, passes, seed) -> tuple[list, dict]:
    """Mark failed operations in place; returns (problems, reference pole)."""
    reference = verify.reference_pole(trapswitch, passes[0].specs[0])
    problems = []
    for p in passes:
        for op in p.ops:
            if op.error is not None:
                continue
            scalars, failed_checks = verify.read_report(op.path)
            op.problems += failed_checks
            op.problems += verify.pole_problems(op.experiment, scalars, reference, seed)
            problems += op.problems
    for i in range(len(passes[0].ops)):
        done = [p.ops[i] for p in passes if p.ops[i].error is None]
        if len(done) >= 2:
            diff = verify.identity_problems([op.path for op in done])
            done[-1].problems += diff
            problems += diff
    return problems, reference


def bench(trapswitch, args, work) -> tuple[dict, dict]:
    info = {}
    if not args.trace:
        samples = measure_setup(args.workload, args.seed, work)
        info["setup_samples_s"] = samples
    passes = []
    if args.trace:
        passes.append(run_pass(trapswitch, args.workload, args.seed, os.path.join(work, "pass0")))
        rec = tracer.Recorder()
        with tracer.attached(rec):
            passes.append(
                run_pass(trapswitch, args.workload, args.seed, os.path.join(work, "pass1"), rec)
            )
    else:
        scaled_walls = []
        start = time.perf_counter()
        with speed.Sampler(args.workload) as sampler:
            while True:
                n0, busy0 = sampler.mark()
                passes.append(run_pass(
                    trapswitch, args.workload, args.seed, os.path.join(work, f"pass{len(passes)}")
                ))
                n1, busy1 = sampler.mark()
                scaled_walls.append(speed.scaled(
                    args.workload, passes[-1].wall - (busy1 - busy0), sampler.samples[n0:n1]
                ))
                typical = statistics.median(p.wall for p in passes)
                if time.perf_counter() - start + typical > args.seconds:
                    break
        info["kernel_median_s"] = statistics.median(sampler.samples)
        info["kernel_samples"] = len(sampler.samples)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, reference = verify_passes(trapswitch, passes, args.seed)
    ops = [op for p in passes for op in p.ops]
    info["passes"] = len(passes)
    info["pass_wall_s"] = [p.wall for p in passes]
    info["experiment_s"] = {
        op.experiment: statistics.median(o.seconds for o in ops if o.experiment == op.experiment)
        for op in passes[0].ops
    }
    info["errors"] = sorted({op.error for op in ops if op.error})
    if any(e.startswith("InsufficientDataError: stage decay-") for e in info["errors"]):
        info["note"] = KNOWN_DEFECT
    info["problems"] = problems

    if args.trace:
        overhead = passes[1].wall / passes[0].wall
        metrics = tracer.layer_metrics(rec, overhead)
        with open(os.path.join(env.OUT, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump({"spans": rec.spans, "counts": rec.counts}, fh)
    else:
        scale = problem_size(args.workload, 0, TAU_RES_0) / problem_size(
            args.workload, args.seed, reference["tau"]
        )
        info["wall_s"] = statistics.median(p.wall for p in passes)
        info["size_scale_to_seed0"] = scale
        metrics = {
            "ref_wall_s": (statistics.median(scaled_walls) * scale, "s"),
            "setup_s": (
                speed.scaled(args.workload, statistics.median(samples), sampler.samples), "s"
            ),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cap = env.cap_threads()
    trapswitch = env.import_package()
    import numpy
    import scipy

    os.makedirs(env.OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=env.OUT)
    try:
        result, info = bench(trapswitch, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info.update(
        workload=args.workload, seed=args.seed, trace=args.trace, nproc=env.cpu_count(),
        thread_cap=cap, python=platform.python_version(), numpy=numpy.__version__,
        scipy=scipy.__version__,
    )
    print("info " + json.dumps(info, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if not result["correct"]:
        sys.stderr.write("perfbench: verification FAILED\n  " + "\n  ".join(info["problems"]) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
