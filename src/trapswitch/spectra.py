"""Energy-domain analysis: released-energy distributions, fits, T scans.

The released packet is projected onto the analytic scattering states of the
final trap, giving the energy density P(E) = |<psi_k|psi>|^2 / (kappa k);
with the delta-in-k normalization of the states this is exactly the kinetic
energy distribution of the outgoing atom.  The overlaps are array sums, a
chunk of energies at a time: inside the trap each scattering state is a
complex amplitude times a real standing wave, so the sums of any number of
states on one node grid are one real matrix product per chunk; past it
they are blocked matrix products of plane-wave phases on the uniform grid.
`energy_distributions` projects several states at once (the columns of
spectrum-vs-T, the coarse points of a scan), `energy_distribution` one.
Lorentzian and exponential fits quantify how close
a given switching time T comes to releasing the bare resonance, and the
scan over T locates the best one under two explicit metrics
(shape-and-magnitude match of P(E) to the pole Lorentzian, and
whole-history closeness of the decay curve to a single exponential).
"""

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    CompletenessViolationError,
    FitFailureError,
    InsufficientDataError,
    InvalidArgumentError,
    WindowError,
)
from .groundstate import WavefunctionGrid, ground_state
from .model import PotentialConfig, SwitchingSchedule, UnitSystem
from .poles import RESONANCE, Resonance, find_bound_states, find_poles, resonances
from .propagate import (
    DecayRecord,
    EdgeHistory,
    PropagationResult,
    PropagationSetup,
    _lapack,
    edge_rows,
    propagate,
)
# evaluate_scattering_state is not called here: perfbench/tracer.py counts
# calls of this module's name and stops on a missing one
from .scattering import _TWO_PI_SQRT, evaluate_scattering_state, trap_waves

# ---------------------------------------------------------------------------
# energy distributions


@dataclass
class EnergyDistribution:
    """P(E) samples on an ascending grid, with its integral."""

    energies: np.ndarray
    p: np.ndarray
    total: float

    def __post_init__(self):
        self.energies = np.asarray(self.energies, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.energies.size != self.p.size:
            raise InvalidArgumentError("energy and density arrays differ in length")
        if np.any(np.diff(self.energies) <= 0.0):
            raise InvalidArgumentError("energy grid must be strictly ascending")


#: Lowest energy (ħ/s) of every released-energy grid.
E_MIN = 0.5


def energy_grid(e_r: float, gamma: float, e_cut: float, n_points: int) -> np.ndarray:
    """Grid dense near the resonance (spacing gamma/50 within e_r +- 5 gamma),
    linear elsewhere from E_MIN up to e_cut; refused when the dense part
    and one energy on each side of it take more than n_points."""
    if e_cut <= E_MIN:
        raise InvalidArgumentError(f"e_cut must exceed E_MIN = {E_MIN}")
    if gamma <= 0.0 or e_r <= 0.0:
        raise InvalidArgumentError("resonance parameters must be positive")
    w_lo = max(E_MIN, e_r - 5.0 * gamma)
    w_hi = min(e_cut, e_r + 5.0 * gamma)
    if w_hi <= w_lo:
        return np.linspace(E_MIN, e_cut, n_points)
    spacing = gamma / 50
    n_dense = int(math.ceil((w_hi - w_lo) / spacing)) + 2
    dense = np.linspace(w_lo, w_hi, n_dense)
    n_rest = max(n_points - n_dense, 2)
    len_lo = w_lo - E_MIN
    len_hi = e_cut - w_hi
    n_lo = int(round(n_rest * len_lo / (len_lo + len_hi))) if len_lo > 0 else 0
    n_hi = n_rest - n_lo
    parts = []
    if n_lo > 0 and len_lo > 0:
        parts.append(np.linspace(E_MIN, w_lo, n_lo + 1)[:-1])
    parts.append(dense)
    if n_hi > 0 and len_hi > 0:
        parts.append(np.linspace(w_hi, e_cut, n_hi + 1)[1:])
    grid = np.unique(np.concatenate(parts))
    if grid.size > n_points:
        raise InvalidArgumentError(
            f"energy grid needs n_energy >= {grid.size} for spacing gamma/50 "
            f"within e_r +- 5 gamma, got {n_points}"
        )
    return grid


#: Energies per block of the projection.  A block's temporaries (standing
#: waves, energies x in-trap nodes, and phase tables, energies x sqrt(nodes
#: or steps)) stay near 1 MB at 128: the shipped spectrum-vs-T columns,
#: whose T = tau edge history has 20k steps, project with a 2 MB peak, and
#: with a 20 MB one in a single block.
_ENERGY_CHUNK = 128


def _blocked(series: np.ndarray) -> tuple[np.ndarray, int]:
    """Rows of equal length n laid out for `_phase_sums`: blocks of width
    B = isqrt(n), zero-padded, one column per (row, block)."""
    rows, n = series.shape
    width = max(1, math.isqrt(n))
    n_blocks = max(1, -(-n // width))
    padded = np.zeros((rows, n_blocks * width), dtype=complex)
    padded[:, :n] = series
    return padded.reshape(rows * n_blocks, width).T, n_blocks


def _phase_sums(blocked: np.ndarray, n_blocks: int, theta: np.ndarray) -> np.ndarray:
    """sum_m e^{i theta m} v_m for each laid-out row v and each theta, as
    (theta, row).  With m = b B + c it is a (theta x B) @ (B x blocks)
    product of in-block phases, weighted by the block phases: ~2 sqrt(n)
    exponentials per theta instead of n, exact in arithmetic."""
    width = blocked.shape[0]
    phase = np.exp(1j * theta[:, None] * np.arange(width))
    at_block = np.exp(1j * theta[:, None] * (width * np.arange(n_blocks)))
    sums = (phase @ blocked).reshape(theta.size, -1, n_blocks)
    return np.einsum("trb,tb->tr", sums, at_block)


def _exterior(edge: EdgeHistory, x_edge: float, dx: float, kappa: float, k: np.ndarray):
    """F_+ and F_- at the run's last step: sum_{j>J} e^{+-ikx_j} psi_j,
    from the edge history alone.

    The potential-free rows past J make F obey q F^{n+1} + a C^{n+1} =
    q' F^n + a' C^n, with q = b + 2a cos(k dx) and the boundary term
    C^n = e^{ikx_{J+1}} psi_J^n - e^{ikx_J} psi_{J+1}^n (k -> -k for F_-).
    lambda = q'/q is unimodular, so F^N = lambda^N F^0 + ((a'/lambda - a) G
    - (a'/lambda) C^N + a lambda^N C^0) / q, where G = sum_n lambda^(N-n) C^n
    takes two phase sums over the reversed histories.  F^0 is the geometric
    sum of the prepared tail.  This is an exact discrete form of t-SURFF
    (Tao & Scrinzi, New J. Phys. 14, 013021 (2012)).
    """
    a, b = edge_rows(dx, edge.dt, kappa)
    history, n_blocks = _blocked(np.stack([edge.psi_edge[::-1], edge.psi_out[::-1]]))
    q = b + 2.0 * a * np.cos(k * dx)
    theta = np.angle(np.conj(q) / q)
    h_edge, h_out = np.concatenate(
        [_phase_sums(history, n_blocks, theta[lo : lo + _ENERGY_CHUNK])
         for lo in range(0, k.size, _ENERGY_CHUNK)]
    ).T
    lam_n = np.exp(1j * theta * (edge.psi_edge.size - 1))
    ac_lam = a.conjugate() * q / np.conj(q)
    sums = []
    for sign in (1.0, -1.0):
        at_edge = np.exp(sign * 1j * k * x_edge)
        at_out = np.exp(sign * 1j * k * (x_edge + dx))
        f0 = edge.tail * at_out / (1.0 - edge.rho * np.exp(sign * 1j * k * dx))
        g = at_out * h_edge - at_edge * h_out
        c_last = at_out * edge.psi_edge[-1] - at_edge * edge.psi_out[-1]
        c_first = at_out * edge.psi_edge[0] - at_edge * edge.psi_out[0]
        sums.append(lam_n * f0 + ((ac_lam - a) * g - ac_lam * c_last + a * lam_n * c_first) / q)
    return sums


def energy_distributions(
    released: list[tuple[WavefunctionGrid, EdgeHistory | None]],
    final_config: PotentialConfig,
    unit: UnitSystem,
    e_grid: np.ndarray,
) -> list[EnergyDistribution]:
    """Project several states onto the final trap's scattering states, one
    P(E) per (state, edge) pair of released, all on one energy grid.

    The states must share one node grid.  The final trap must hold no bound
    state, otherwise the scattering states are not complete and a density
    cannot integrate to one; this is checked once.  Without an edge the
    overlap <psi_k|psi> is the trapezoid sum over the state's grid.  With the
    edge history of an open run the state is that run's state on [0, x_J],
    the sum runs on past x_J, and its exterior part comes from `_exterior`:
    nothing is cut off and nothing reflects.

    The sums are taken for _ENERGY_CHUNK energies at a time.  Up to d + b,
    psi_k is a complex amplitude times a real standing wave (`trap_waves`),
    evaluated once per chunk for every state, so the in-trap sums of all
    states are one real matrix product.  Past d + b, conj psi_k =
    (e^{ikx} - conj(S) e^{-ikx})/sqrt(2 pi) on a uniform grid, whose sums
    sum_j f_j e^{+-ikx_j} are blocked phase sums (`_phase_sums`) over every
    state's tail at once: no FFT and no interpolation.
    """
    e_grid = np.asarray(e_grid, dtype=float)
    if np.any(e_grid <= 0.0) or np.any(np.diff(e_grid) <= 0.0):
        raise InvalidArgumentError("e_grid must be positive and strictly ascending")
    states = [state for state, _ in released]
    grid = states[0]
    if any((s.dx, s.values.size) != (grid.dx, grid.values.size) for s in states):
        raise InvalidArgumentError("the projected states must share one node grid")
    bound = find_bound_states(final_config, unit)
    if bound:
        raise CompletenessViolationError(
            f"final configuration holds {len(bound)} bound state(s); "
            "scattering states alone are not complete"
        )
    x, dx, n_states = grid.x, grid.dx, len(states)
    weighted = np.array([s.values for s in states], dtype=complex) * dx
    weighted[:, 0] *= 0.5
    for row, (_, edge) in zip(weighted, released):
        if edge is None:
            row[-1] *= 0.5
    n_in = int(np.searchsorted(x, final_config.outer_edge, side="right"))
    # (node, state) pairs of reals, so a real wave matrix takes them in one product
    in_trap = np.ascontiguousarray(weighted[:, :n_in].T).view(float)
    outer = weighted[:, n_in:]
    blocks, n_blocks = _blocked(np.concatenate([outer, outer.conj()]))
    x_out = dx * n_in

    k = np.sqrt(2.0 * e_grid / unit.kappa)
    s_conj = np.empty(k.size, dtype=complex)
    overlap = np.empty((k.size, n_states), dtype=complex)
    for lo in range(0, k.size, _ENERGY_CHUNK):
        chunk = slice(lo, lo + _ENERGY_CHUNK)
        kc = k[chunk]
        amp, wave, s = trap_waves(final_config, unit, kc, x[:n_in])
        s_conj[chunk] = s.conj()
        inner = (wave @ in_trap).view(complex)
        at_out = np.exp(1j * kc * x_out)[:, None]
        sums = _phase_sums(blocks, n_blocks, kc * dx)
        plus, minus = at_out * sums[:, :n_states], np.conj(at_out * sums[:, n_states:])
        beyond = (plus - s_conj[chunk, None] * minus) / _TWO_PI_SQRT
        overlap[chunk] = amp.conj()[:, None] * inner + beyond
    for column, (state, edge) in zip(overlap.T, released):
        if edge is not None:
            f_plus, f_minus = _exterior(edge, state.x_max, dx, unit.kappa, k)
            column += dx * (f_plus - s_conj * f_minus) / _TWO_PI_SQRT
    p = np.ascontiguousarray((np.abs(overlap) ** 2 / (unit.kappa * k)[:, None]).T)
    return [EnergyDistribution(e_grid, row, float(np.trapezoid(row, e_grid))) for row in p]


def energy_distribution(
    state: WavefunctionGrid,
    final_config: PotentialConfig,
    unit: UnitSystem,
    e_grid: np.ndarray,
    edge: EdgeHistory | None = None,
) -> EnergyDistribution:
    """P(E) of one state, with the edge history of its open run if it has
    one: `energy_distributions` of the single pair (state, edge)."""
    return energy_distributions([(state, edge)], final_config, unit, e_grid)[0]


# ---------------------------------------------------------------------------
# reference Lorentzian


def lorentzian_reference(resonance: Resonance, e_grid: np.ndarray) -> np.ndarray:
    """Unit-area pole Lorentzian (gamma/2pi)/((E - E_R)^2 + (gamma/2)^2)."""
    if resonance.kind != RESONANCE:
        raise InvalidArgumentError(f"need a resonance pole, got kind={resonance.kind}")
    e = np.asarray(e_grid, dtype=float)
    g2 = 0.5 * resonance.gamma
    return (resonance.gamma / (2.0 * math.pi)) / ((e - resonance.e_r) ** 2 + g2 * g2)


# ---------------------------------------------------------------------------
# fits


#: Fewest samples fit_lorentzian fits; the delay-spectrum schema refuses
#: an n_energy below it.
MIN_FIT_SAMPLES = 10


@dataclass(frozen=True)
class LorentzianFit:
    """Damped-least-squares Lorentzian fit A (g/2)^2 / ((E-E_R)^2 + (g/2)^2)."""

    e_r: float
    gamma: float
    amplitude: float
    offset: float
    n_iterations: int


def _lorentzian_model(theta, e, with_offset):
    a, e0, g = theta[0], theta[1], abs(theta[2])
    u = e - e0
    den = u * u + 0.25 * g * g
    model = a * 0.25 * g * g / den
    if with_offset:
        model = model + theta[3]
    return model


def _lorentzian_jacobian(theta, e, with_offset):
    a, e0, g = theta[0], theta[1], abs(theta[2])
    u = e - e0
    g2 = 0.5 * g
    den = u * u + g2 * g2
    cols = [
        g2 * g2 / den,
        a * g2 * g2 * 2.0 * u / den**2,
        a * g2 * u * u / den**2,
    ]
    if with_offset:
        cols.append(np.ones_like(e))
    return np.column_stack(cols)


def fit_lorentzian(
    energies: np.ndarray,
    values: np.ndarray,
    with_offset: bool,
) -> LorentzianFit:
    """Levenberg-Marquardt fit of a Lorentzian peak (optionally plus a constant).

    The fit window is the whole sample.  Needs MIN_FIT_SAMPLES samples and
    stops once no parameter moves by 1e-10 of itself.  Deterministic for
    identical inputs.  Raises a window error when the fitted peak sits at
    the window edge or the window spans fewer than four fitted widths, and a
    fit failure carrying the last iterate when damping cannot converge
    within 200 iterations.
    """
    e = np.asarray(energies, dtype=float)
    y = np.asarray(values, dtype=float)
    if e.size != y.size:
        raise InvalidArgumentError("energies and values differ in length")
    if e.size < MIN_FIT_SAMPLES:
        raise InvalidArgumentError(
            f"need at least {MIN_FIT_SAMPLES} samples in the window, got {e.size}"
        )
    win = (float(e.min()), float(e.max()))

    i_pk = int(np.argmax(y))
    a0 = float(y[i_pk])
    e0 = float(e[i_pk])
    above = y > 0.5 * a0
    g0 = max(float(e[above].max() - e[above].min()), 4.0 * float(np.median(np.diff(e))))
    theta = np.array([a0, e0, g0, 0.0] if with_offset else [a0, e0, g0])

    lam = 1e-3
    r = _lorentzian_model(theta, e, with_offset) - y
    cost = float(r @ r)
    n_done = 200
    for it in range(200):
        jac = _lorentzian_jacobian(theta, e, with_offset)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        step = None
        for _ in range(40):
            damped = jtj + lam * np.diag(np.diag(jtj))
            try:
                delta = np.linalg.solve(damped, -jtr)
            except np.linalg.LinAlgError:
                lam *= 5.0
                continue
            trial = theta + delta
            rt = _lorentzian_model(trial, e, with_offset) - y
            ct = float(rt @ rt)
            if ct <= cost:
                step = (trial, rt, ct)
                lam = max(lam / 3.0, 1e-14)
                break
            lam *= 5.0
        if step is None:
            raise FitFailureError(
                "damping exhausted without cost decrease", last_iterate=tuple(theta)
            )
        new_theta, r, cost = step
        rel = np.max(np.abs(new_theta - theta) / (np.abs(new_theta) + 1e-300))
        theta = new_theta
        if rel < 1e-10:
            n_done = it + 1
            break
    else:
        raise FitFailureError("no convergence in 200 iterations", last_iterate=tuple(theta))

    amp, e_r_fit, g_fit = float(theta[0]), float(theta[1]), abs(float(theta[2]))
    c_fit = float(theta[3]) if with_offset else 0.0
    span = win[1] - win[0]
    margin = float(np.median(np.diff(e)))
    if not (win[0] + margin <= e_r_fit <= win[1] - margin):
        raise WindowError(
            f"fitted peak {e_r_fit:.6g} sits at the edge of window {win}"
        )
    if span < 4.0 * g_fit:
        raise WindowError(
            f"window spans {span:.6g}, fewer than 4 fitted widths ({g_fit:.6g})"
        )
    return LorentzianFit(
        e_r=e_r_fit, gamma=g_fit, amplitude=amp, offset=c_fit, n_iterations=n_done
    )


def fit_exponential_decay(
    record: DecayRecord, t_min: float
) -> tuple[float, float, tuple[float, float]]:
    """Late-time exponential fit of the decay record.

    Linear least squares on log p_w over [t_min, end]; returns (tau,
    quality, (intercept, slope)) with quality the largest absolute log
    residual.  The used span must cover at least three fitted lifetimes.
    """
    mask = (record.times >= t_min) & (record.p_w > 0.0)
    t = record.times[mask]
    if t.size < 10:
        raise InsufficientDataError(
            f"only {t.size} usable samples beyond t_min={t_min:.6g}"
        )
    logp = np.log(record.p_w[mask])
    slope, intercept = np.polyfit(t, logp, 1)
    if slope >= 0.0:
        raise FitFailureError(
            f"non-decaying record beyond t_min (slope {slope:.3e})",
            last_iterate=(intercept, slope),
        )
    tau = -1.0 / slope
    span = float(t[-1] - t[0])
    if span < 3.0 * tau:
        raise InsufficientDataError(
            f"record spans {span:.4g} s beyond t_min, fewer than 3 lifetimes "
            f"({tau:.4g} s each)"
        )
    quality = float(np.max(np.abs(intercept + slope * t - logp)))
    return tau, quality, (float(intercept), float(slope))


# ---------------------------------------------------------------------------
# per-T run recipes

#: Fit span, in lifetimes, that a decay record must cover past its late-fit
#: start; fit_exponential_decay needs 3, the rest is margin.
FIT_SPAN_LIFETIMES = 3.3

#: A spectrum run projects once the switch is within RESIDUAL_V (ħ/s) of
#: the final trap, and not before MIN_PROJECTION_TIME (s).  Its box ends at
#: OPEN_BOX (µm), or at the trap's outer edge if that lies further out, and
#: is open there: what passes the edge leaves, and the projection reads it
#: back from the edge history.
RESIDUAL_V = 1e-3
MIN_PROJECTION_TIME = 0.05
OPEN_BOX = 20.0


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def map_runs(job, setups, *args) -> list:
    """One zero-argument callable per setup, in the order given, that returns
    job(setup, *args) or raises its error.

    The runs are independent.  With more than one usable CPU they go to a
    pool of forked processes, one per CPU and at most one per setup, largest
    grid work (n_nodes * n_steps) first and, of equal work, the longest ramp
    first, whose steps cost more.  All have finished on return, so what the
    caller does next (a fit, a projection) has the CPUs to itself.
    With one, each run happens in this process when its callable is called.
    job, its arguments and its result must pickle, job by its import path.

    Workers are forked, not spawned: a spawned one imports the package and
    numpy afresh, ~0.25 s on a 2-core host, and scipy on its first step,
    ~0.2 s more, which is more than the pool saves on short runs.  scipy's
    LAPACK is loaded here, once, before the fork, so the workers inherit it
    instead of each importing it on its first step.  The pool forks them
    all from this thread before it starts threads of its own.
    """
    workers = min(len(setups), _usable_cpus())
    if workers <= 1:
        return [functools.partial(job, setup, *args) for setup in setups]
    _lapack()
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    slowest_first = sorted(
        range(len(setups)),
        key=lambda i: (-setups[i].n_nodes() * setups[i].n_steps(), -setups[i].schedule.t_switch),
    )
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = {i: pool.submit(job, setups[i], *args) for i in slowest_first}
    return [futures[i].result for i in range(len(setups))]


@dataclass(frozen=True)
class SpectrumRunSpec:
    """Numerics for one spectrum-profile run (no absorber, open box)."""

    dx: float = 0.1
    dt: float = 2e-4
    e_cut: float = 400.0
    n_energy: int = 2000

    def setup(self, schedule: SwitchingSchedule) -> PropagationSetup:
        """Propagate to the settle time in the open box; a sudden switch
        projects the prepared state itself, whose P(E) the switch no longer
        changes."""
        t_star = 0.0
        if schedule.t_switch > 0.0:
            t_star = max(schedule.settle_time(RESIDUAL_V), MIN_PROJECTION_TIME)
        edge = max(OPEN_BOX, schedule.initial.outer_edge, schedule.final.outer_edge)
        return PropagationSetup(
            schedule=schedule,
            dx=self.dx,
            box_length=math.ceil(edge / self.dx) * self.dx,
            dt=self.dt,
            t_end=t_star,
            e_cut=self.e_cut,
        )

    def grid(self, resonance: Resonance) -> np.ndarray:
        """The energies P(E) is sampled at, dense around the resonance; refused
        when the dense part takes more than n_energy (`energy_grid`), or when
        they barely sample the window of lorentzian_deviation."""
        grid = energy_grid(resonance.e_r, resonance.gamma, self.e_cut, self.n_energy)
        _deviation_window(grid, resonance)
        return grid

    def release(self, setup: PropagationSetup, unit: UnitSystem) -> PropagationResult:
        """The run from the prepared state, whose exponential tail reaches
        past the box, to the setup's t_end: the released packet in the box
        and the edge history; the run is sampled 50 times on the way."""
        phi0, _ = ground_state(setup.schedule.initial, unit, dx=setup.dx)
        return propagate(phi0, setup, unit, record_every=max(1, setup.n_steps() // 50))


def switch_and_project(
    initial_config: PotentialConfig,
    final_config: PotentialConfig,
    t_switch: float,
    unit: UnitSystem,
    spec: SpectrumRunSpec,
    resonance: Resonance,
) -> EnergyDistribution:
    """Run the switch, then project the released packet at the settle time
    on a grid dense around the given resonance."""
    setup = spec.setup(SwitchingSchedule(initial_config, final_config, t_switch))
    released = spec.release(setup, unit)
    return energy_distribution(
        released.final, final_config, unit, spec.grid(resonance), edge=released.edge
    )


@dataclass(frozen=True, kw_only=True)
class DecayRunSpec:
    """Numerics for one decay-profile run (absorbing layer, 150 µm box by
    default); t_end comes from the caller's plan."""

    dx: float = 0.05
    dt: float = 2e-4
    t_end: float
    box_length: float = 150.0
    e_cut: float = 1000.0
    record_every: int = 5

    def setup(self, schedule: SwitchingSchedule) -> PropagationSetup:
        """The fixed absorbing box."""
        return PropagationSetup(
            schedule=schedule,
            dx=self.dx,
            box_length=self.box_length,
            dt=self.dt,
            t_end=self.t_end,
            e_cut=self.e_cut,
            absorber=True,
        )

    def release(self, setup: PropagationSetup, unit: UnitSystem) -> DecayRecord:
        """The decay record of the run from the prepared state."""
        phi0, _ = ground_state(setup.schedule.initial, unit, dx=setup.dx, x_max=setup.box_length)
        return propagate(phi0, setup, unit, record_every=self.record_every).record


def switch_and_record(
    initial_config: PotentialConfig,
    final_config: PotentialConfig,
    t_switch: float,
    unit: UnitSystem,
    spec: DecayRunSpec,
) -> DecayRecord:
    """Run the switch in the absorbing box and return the decay record."""
    setup = spec.setup(SwitchingSchedule(initial_config, final_config, t_switch))
    return spec.release(setup, unit)


#: Energy (ħ/s) below which lowest_resonance searches.
RESONANCE_E_CUT = 400.0


def lowest_resonance(config: PotentialConfig, unit: UnitSystem) -> Resonance:
    """Lowest positive-energy resonance below RESONANCE_E_CUT, via the
    certified search."""
    k_hi = 1.05 * math.sqrt(2.0 * RESONANCE_E_CUT / unit.kappa)
    res = resonances(find_poles(config, unit, (0.0, k_hi, -0.45 * k_hi, 0.0)))
    if not res:
        raise InvalidArgumentError(f"no resonance below {RESONANCE_E_CUT} for {config}")
    return res[0]


# ---------------------------------------------------------------------------
# switching-time optimization


LORENTZIAN_OBJECTIVE = "lorentzian-deviation"
EXPONENTIAL_OBJECTIVE = "exponential-deviation"
#: Every scan metric, in the order a t-scan runs them by default.
OBJECTIVES = (LORENTZIAN_OBJECTIVE, EXPONENTIAL_OBJECTIVE)

#: Start of the late-time window used to anchor the pure-exponential
#: extrapolation in the exponential-deviation metric.
LATE_FIT_T_MIN = 1.8


def _deviation_window(energies: np.ndarray, resonance: Resonance) -> np.ndarray:
    """Mask of the energies within e_r +- 10 gamma; refuses fewer than 20."""
    lo = resonance.e_r - 10.0 * resonance.gamma
    hi = resonance.e_r + 10.0 * resonance.gamma
    mask = (energies >= lo) & (energies <= hi)
    if np.count_nonzero(mask) < 20:
        raise InvalidArgumentError(
            f"distribution grid barely samples the window [{lo:.6g}, {hi:.6g}]: < 20 energies"
        )
    return mask


def lorentzian_deviation(dist: EnergyDistribution, resonance: Resonance) -> float:
    """Integral of |P(E) - pole Lorentzian| over e_r +- 10 gamma."""
    mask = _deviation_window(dist.energies, resonance)
    e = dist.energies[mask]
    ref = lorentzian_reference(resonance, e)
    return float(np.trapezoid(np.abs(dist.p[mask] - ref), e))


def exponential_deviation(record: DecayRecord, tau: float) -> float:
    """Largest |log p_w - log pure-exponential| over [0, 3 tau].

    The pure exponential is the late-time fit from LATE_FIT_T_MIN,
    extrapolated backwards.
    """
    _, _, (intercept, slope) = fit_exponential_decay(record, LATE_FIT_T_MIN)
    mask = (record.times <= 3.0 * tau) & (record.p_w > 0.0)
    t = record.times[mask]
    logp = np.log(record.p_w[mask])
    return float(np.max(np.abs(logp - (intercept + slope * t))))


@dataclass
class SwitchScanResult:
    t_star: float
    t_values: np.ndarray
    values: np.ndarray
    multimodal: bool


def _refine_bracket(batch, bracket, rtol):
    """Halve a bracket [(a, f_a), (c, f_c), (b, f_b)] whose middle point
    scores lowest until (b - a) <= rtol (a + b), at most 20 rounds; returns
    (t_min, the new points).  Each round scores the midpoints of [a, c] and
    [c, b] in one batch(list of t) call and keeps the lowest of the three
    inner points with its two neighbours, which score no lower."""
    extra = []
    for _ in range(20):
        (a, _), (c, _), (b, _) = bracket
        if (b - a) <= rtol * (a + b):
            break
        mids = [0.5 * (a + c), 0.5 * (c + b)]
        new = list(zip(mids, batch(mids)))
        extra += new
        five = [bracket[0], new[0], bracket[1], new[1], bracket[2]]
        best = min((1, 2, 3), key=lambda i: five[i][1])
        bracket = five[best - 1 : best + 2]
    return bracket[1][0], extra


def scan_plan(
    objective: str,
    initial_config: PotentialConfig,
    final_config: PotentialConfig,
    resonance: Resonance,
    t_range_fractions: tuple[float, float] = (0.01, 0.6),
    n_coarse: int = 15,
) -> tuple[SpectrumRunSpec | DecayRunSpec, list[PropagationSetup], np.ndarray | None]:
    """The run record, the setups at the coarse switching times and, for the
    Lorentzian objective, the energy grid (refused when it misses the
    deviation window) of one scan; the range is in lifetimes of the given
    resonance, 0 < low < high <= 2 (checked when a spec is parsed)."""
    tau = resonance.tau
    grid = None
    if objective == LORENTZIAN_OBJECTIVE:
        run = SpectrumRunSpec()
        grid = run.grid(resonance)
    elif objective == EXPONENTIAL_OBJECTIVE:
        run = DecayRunSpec(t_end=LATE_FIT_T_MIN + FIT_SPAN_LIFETIMES * tau)
    else:
        raise InvalidArgumentError(
            f"unknown objective {objective!r}; use "
            f"{LORENTZIAN_OBJECTIVE!r} or {EXPONENTIAL_OBJECTIVE!r}"
        )
    lo, hi = t_range_fractions
    ts = np.geomspace(lo * tau, hi * tau, n_coarse)
    setups = [run.setup(SwitchingSchedule(initial_config, final_config, t)) for t in ts]
    return run, setups, grid


def optimal_switch_time(
    objective: str,
    initial_config: PotentialConfig,
    final_config: PotentialConfig,
    unit: UnitSystem,
    resonance: Resonance,
    refine_rtol: float = 0.05,
    **plan,
) -> SwitchScanResult:
    """Scan the switching time for the best release into the given
    resonance of the final trap, under a declared metric; the caller finds
    it (`lowest_resonance`) once for every objective.

    A coarse log-spaced scan, `scan_plan(objective, initial_config,
    final_config, resonance, **plan)` (keywords t_range_fractions,
    n_coarse), brackets the minimum, and rounds that halve the bracket
    (`_refine_bracket`) refine it to +-refine_rtol.  Each batch of switching
    times, the coarse grid and then each round's two midpoints, runs through
    `map_runs` at once and is scored together, so which times run depends
    on the scan alone, never on the CPU count.  Several coarse local minima
    within 10% of each other flag the scan as multimodal; the global grid
    minimum is then returned unrefined rather than silently picking one
    basin.
    """
    run, coarse, grid = scan_plan(objective, initial_config, final_config, resonance, **plan)
    ts = np.array([setup.schedule.t_switch for setup in coarse])
    n_coarse = len(ts)

    if objective == LORENTZIAN_OBJECTIVE:
        def scores(runs):
            released = [(out.final, out.edge) for out in runs]
            dists = energy_distributions(released, final_config, unit, grid)
            return [lorentzian_deviation(dist, resonance) for dist in dists]
    else:
        def scores(records):
            return [exponential_deviation(record, resonance.tau) for record in records]

    def batch(times):
        setups = [run.setup(SwitchingSchedule(initial_config, final_config, t)) for t in times]
        return scores([pending() for pending in map_runs(run.release, setups, unit)])

    vs = np.array(batch(ts))

    minima = []
    for i in range(n_coarse):
        left_ok = i == 0 or vs[i] <= vs[i - 1]
        right_ok = i == n_coarse - 1 or vs[i] <= vs[i + 1]
        if left_ok and right_ok:
            minima.append(i)
    best = int(np.argmin(vs))
    multimodal = False
    if len(minima) > 1:
        sorted_vals = sorted(vs[i] for i in minima)
        if sorted_vals[1] - sorted_vals[0] < 0.10 * sorted_vals[0]:
            multimodal = True

    points = list(zip(ts.tolist(), vs.tolist()))
    if multimodal or best in (0, n_coarse - 1):
        t_star = float(ts[best])
    else:
        t_star, extra = _refine_bracket(batch, points[best - 1 : best + 2], refine_rtol)
        points.extend(extra)

    points.sort(key=lambda p: p[0])
    t_sorted = np.array([p[0] for p in points])
    v_sorted = np.array([p[1] for p in points])
    return SwitchScanResult(
        t_star=float(t_star),
        t_values=t_sorted,
        values=v_sorted,
        multimodal=multimodal,
    )
