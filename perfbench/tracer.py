"""Span recorder for the traced run, attached from outside the package.

Each layer is timed where another module calls into it: the wrapper replaces
the name in the *calling* module's namespace (`trapswitch.spectra.propagate`,
`trapswitch.experiments.energy_distribution`, `trapswitch.poles.delay_time`,
...), reached through `sys.modules` because `trapswitch/__init__.py`
re-exports functions under their module names.  Leaf calls made by the
hundred thousand (Omega and S-matrix evaluations, scattering states) are
counted, not timed: timing each one would inflate the run by half.

Spans live in memory as (name, parent index, start, end) and are written
out once the run ends.  Every original is restored on exit.
"""

import contextlib
import functools
import os
import sys
import time
from collections import Counter, defaultdict


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans = []  # [name, parent, start, end]
        self.counts = Counter()
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][3] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        self.open(name)
        try:
            yield
        finally:
            self.close()


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for i, (_, parent, start, end) in enumerate(spans):
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (_, _, start, end) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children[i]):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


# -- what each wrapper adds to the counters ---------------------------------


def _node_steps(rec, args, kwargs, result):
    setup = kwargs["setup"] if "setup" in kwargs else args[1]
    n = setup.n_steps()
    probe = kwargs.get("accuracy_check", args[4] if len(args) > 4 else True)
    rec.counts["propagate.node_steps"] += setup.n_nodes() * (n + (3 * min(n, 64) if probe else 0))


def _pairs(rec, args, kwargs, result):
    state = kwargs["state"] if "state" in kwargs else args[0]
    rec.counts["spectra.projection.pairs"] += result.energies.size * state.values.size


def _newton(rec, args, kwargs, result):
    rec.counts["poles.newton.converged"] += result is not None


def _iso_points(rec, args, kwargs, result):
    rec.counts["poles.iso.points"] += len(result.v_well)


def _lorentzian(rec, args, kwargs, result):
    rec.counts["spectra.fit_lorentzian.iterations"] += result.n_iterations


def _emitted(rec, args, kwargs, result):
    for entry in os.scandir(result):
        rec.counts["io.emit.bytes"] += entry.stat().st_size


def _points(arg_index):
    # numpy arrays and scalars carry .size; a Python number is one point
    def count(args, kwargs):
        k = args[arg_index] if len(args) > arg_index else kwargs["k"]
        return getattr(k, "size", 1)

    return count


def _one(args, kwargs):
    return 1


#: (calling module, name there, span name, counter hook) for timed calls.
SPANS = [
    ("trapswitch.experiments", "find_poles", "poles.find_poles", None),
    ("trapswitch.experiments", "newton_pole", "poles.newton", _newton),
    ("trapswitch.experiments", "trace_iso_resonance", "poles.iso", _iso_points),
    ("trapswitch.experiments", "delay_time", "scattering.delay_time", None),
    ("trapswitch.experiments", "phase_shift_curve", "scattering.phase_curve", None),
    ("trapswitch.experiments", "ground_state", "groundstate", None),
    ("trapswitch.experiments", "energy_distribution", "spectra.projection", _pairs),
    ("trapswitch.experiments", "fit_lorentzian", "spectra.fit", _lorentzian),
    ("trapswitch.experiments", "fit_exponential_decay", "spectra.fit", None),
    ("trapswitch.experiments", "lowest_resonance", "spectra.recipe", None),
    ("trapswitch.experiments", "switch_and_project", "spectra.recipe", None),
    ("trapswitch.experiments", "switch_and_record", "spectra.recipe", None),
    ("trapswitch.experiments", "emit_experiment", "io.emit", _emitted),
    ("trapswitch.spectra", "find_poles", "poles.find_poles", None),
    ("trapswitch.spectra", "find_bound_states", "poles.find_bound_states", None),
    ("trapswitch.spectra", "ground_state", "groundstate", None),
    ("trapswitch.spectra", "propagate", "propagate", _node_steps),
    ("trapswitch.spectra", "energy_distribution", "spectra.projection", _pairs),
    ("trapswitch.groundstate", "find_bound_states", "poles.find_bound_states", None),
    ("trapswitch.poles", "find_poles", "poles.find_poles", None),
    ("trapswitch.poles", "newton_pole", "poles.newton", _newton),
    ("trapswitch.poles", "winding_number", "poles.winding", None),
    ("trapswitch.poles", "find_bound_states", "poles.find_bound_states", None),
    ("trapswitch.poles", "delay_time", "scattering.delay_time", None),
]

#: (calling module, name there, counter, amount per call) for leaf calls.
COUNTS = [
    ("trapswitch.poles", "pole_function_terms", "poles.omega_points", _points(2)),
    ("trapswitch.scattering", "s_matrix", "scattering.smatrix_points", _points(2)),
    ("trapswitch.spectra", "evaluate_scattering_state", "scattering.state_evals", _one),
]


def _span_wrapper(rec, name, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close()
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    return wrapper


def _count_wrapper(rec, name, fn, amount):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[name] += amount(args, kwargs)
        return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def attached(rec: Recorder):
    """Wrap every traced name for the duration of the block, then restore."""
    saved = []
    try:
        for module, attr, name, hook in SPANS:
            mod = sys.modules[module]
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, _span_wrapper(rec, name, original, hook))
        for module, attr, name, amount in COUNTS:
            mod = sys.modules[module]
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, _count_wrapper(rec, name, original, amount))
        yield rec
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def layer_metrics(rec: Recorder, overhead_ratio: float) -> dict:
    """The per-layer metrics (name -> (value, unit)) of one traced run."""
    calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
    for (name, _, start, end), own in zip(rec.spans, self_times(rec.spans)):
        calls[name] += 1
        self_s[name] += own
        total_s[name] += end - start
    c = rec.counts

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    return {
        "propagate.calls": (calls["propagate"], "count"),
        "propagate.self_s": (self_s["propagate"], "s"),
        "propagate.node_steps": (c["propagate.node_steps"], "count"),
        "propagate.us_per_node_step": (
            ratio(self_s["propagate"], c["propagate.node_steps"], 1e6), "us"),
        "spectra.projection.calls": (calls["spectra.projection"], "count"),
        "spectra.projection.self_s": (self_s["spectra.projection"], "s"),
        "spectra.projection.pairs": (c["spectra.projection.pairs"], "count"),
        "spectra.projection.us_per_pair": (
            ratio(self_s["spectra.projection"], c["spectra.projection.pairs"], 1e6), "us"),
        "scattering.delay_time.calls": (calls["scattering.delay_time"], "count"),
        "scattering.delay_time.self_s": (self_s["scattering.delay_time"], "s"),
        "scattering.phase_curve.self_s": (self_s["scattering.phase_curve"], "s"),
        "scattering.smatrix_points": (c["scattering.smatrix_points"], "count"),
        "scattering.state_evals": (c["scattering.state_evals"], "count"),
        "poles.find_poles.calls": (calls["poles.find_poles"], "count"),
        "poles.find_poles.self_s": (self_s["poles.find_poles"], "s"),
        "poles.winding.calls": (calls["poles.winding"], "count"),
        "poles.winding.self_s": (self_s["poles.winding"], "s"),
        "poles.newton.calls": (calls["poles.newton"], "count"),
        "poles.newton.self_s": (self_s["poles.newton"], "s"),
        "poles.newton.converged_ratio": (
            ratio(c["poles.newton.converged"], calls["poles.newton"]), "ratio"),
        "poles.omega_points": (c["poles.omega_points"], "count"),
        "poles.iso.s_per_point": (ratio(total_s["poles.iso"], c["poles.iso.points"]), "s"),
        "poles.find_bound_states.calls": (calls["poles.find_bound_states"], "count"),
        "poles.find_bound_states.self_s": (self_s["poles.find_bound_states"], "s"),
        "groundstate.calls": (calls["groundstate"], "count"),
        "groundstate.self_s": (self_s["groundstate"], "s"),
        "spectra.fit.calls": (calls["spectra.fit"], "count"),
        "spectra.fit.self_s": (self_s["spectra.fit"], "s"),
        "spectra.fit_lorentzian.iterations": (c["spectra.fit_lorentzian.iterations"], "count"),
        "spectra.recipe.self_s": (self_s["spectra.recipe"], "s"),
        "io.parse.self_s": (self_s["io.parse"], "s"),
        "io.emit.self_s": (self_s["io.emit"], "s"),
        "io.emit.bytes": (c["io.emit.bytes"], "bytes"),
        "experiments.self_s": (self_s["experiments"], "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
