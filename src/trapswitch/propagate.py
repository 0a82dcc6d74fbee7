"""Time propagation of the trapped packet through the potential switch.

Spatial discretization is a linear finite-element (hat-function) basis on a
uniform grid with a hard Dirichlet wall at x = 0.  The element
integrals of the piecewise-constant potential are done exactly, splitting
the two elements containing the region edges; this keeps the discrete
eigenpairs honest at the kinks, where a plain finite-difference Laplacian
loses two orders of accuracy.  Time stepping is the unconditionally stable
implicit midpoint (Crank-Nicolson) rule with the switching profile sampled
at t + dt/2; with no absorber it conserves the mass-matrix norm to
roundoff and is exactly reversible.  A run keeps only its state at t_end,
a sampled record of the in-well probability and the norm, and for an open
box the history of its edge.

The right end of the box is open unless the setup asks for the absorber.
Past the last node J (x_J >= d + b) the potential is zero at all times, so
the exterior rows of the scheme are constant and a Z-transform in time
solves them exactly (the discrete transparent boundary of Arnold, VLSI
Design 6, 313 (1998)): 2A(w) psi_{J+1} = -(B(w) + s(w)) psi_J in w = 1/zeta,
with A = a - a' w and B = b - b' w the exterior row coefficients and s the
square root of B^2 - 4A^2, whose coefficients s_m follow a three-term
recurrence (`edge_kernel`).  In time this is a convolution of the history
of psi_J with s_m plus a one-step recurrence in psi_{J+1}; row J's diagonal
gains a constant, and the rest goes onto the right-hand side.  A prepared
state that reaches past J as a sampled exponential c rho^j carries that
tail exactly: c rho^j zeta_p^n, zeta_p = D'/D, solves the exterior rows, so
the boundary acts on the difference.  Only the absorbing box keeps a
Dirichlet wall at its right end: a cubic absorbing ramp over its last
quarter.

All matrices are symmetric tridiagonal (the absorber adds a symmetric
negative-imaginary part, the open edge a constant on the last diagonal),
stored as (diagonal, off-diagonal) arrays.  The
switch changes the step matrix only in the trap rows, x <= d + b, so while
it changes each step is solved by block elimination: the constant far block
past the trap is LU-factored (LAPACK `zgttrf`, pivoted) once per run and
time step, and each step refactors only the few hundred trap rows, whose
last diagonal carries the far block's Schur complement.  The far block's
response to its first row, g, decays geometrically; it is cut where it falls
below 1e-17 of its first entry, because its tail changes nothing above
roundoff and would otherwise fill the per-step update with slow subnormal
arithmetic.  Once the switching weight is exactly 1 (all steps of a sudden
switch, and every step after w(t) = -expm1(-t/T) rounds to 1) the step
matrix is constant: it is factored whole on the first such step, and each
later one is a single `zgttrs` over all rows.  The recorded norm comes from
the step's own right-hand side 2M psi, and the in-well probability from one
dot of |psi|^2 with the trapezoid weights of `non_escape_probability`.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgtsv, zgttrf, zgttrs

from .errors import InvalidArgumentError, NumericalBlowupError
from .groundstate import WavefunctionGrid
from .model import SwitchingSchedule, UnitSystem

#: Strength (ħ s⁻¹) of the cubic absorbing ramp
#: W(x) = ABSORBER_STRENGTH * ((x - x_on)/width)^3; it passes the
#: transparency property for the decay-profile geometry (150 µm box, 25%
#: layer), found by scanning against a large-box reference run.
ABSORBER_STRENGTH = 800.0

#: Fraction of the box covered by the absorbing layer.
ABSORBER_FRACTION = 0.25

#: Fewest rows of a tridiagonal block that the LAPACK wrappers accept.
MIN_BLOCK = 3


@dataclass(frozen=True)
class PropagationSetup:
    """Grid, step, and boundary bookkeeping for one propagation run."""

    schedule: SwitchingSchedule
    dx: float
    box_length: float
    dt: float
    t_end: float
    e_cut: float = 1000.0
    absorber: bool = False

    def n_nodes(self) -> int:
        return int(round(self.box_length / self.dx)) + 1

    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


def validate_setup(setup: PropagationSetup, unit: UnitSystem) -> list[str]:
    """All violated numerics constraints, empty when the setup is runnable."""
    problems = []
    if setup.dx <= 0.0:
        problems.append(f"dx must be positive, got {setup.dx}")
    if setup.dt <= 0.0:
        problems.append(f"dt must be positive, got {setup.dt}")
    if setup.t_end < 0.0:
        problems.append(f"t_end must be non-negative, got {setup.t_end}")
    if setup.e_cut <= 0.0:
        problems.append(f"e_cut must be positive, got {setup.e_cut}")
    if setup.box_length <= 0.0:
        problems.append(f"box_length must be positive, got {setup.box_length}")
        return problems
    if setup.dx > 0.0 and setup.n_nodes() - 2 < MIN_BLOCK:
        problems.append(
            f"box_length={setup.box_length:.6g} holds {max(setup.n_nodes() - 2, 0)} "
            f"interior nodes at dx={setup.dx:.6g}; need >= {MIN_BLOCK}"
        )
    if setup.e_cut > 0.0:
        # both steps must carry components up to e_top = e_cut + v_top:
        # dx samples their wavelength 20 times, and dt keeps CN's group
        # velocity, 1/(1 + (E dt/2)^2) of the true one, within 20% of it
        e_top = setup.e_cut + max(setup.schedule.initial.v_well, setup.schedule.final.v_well)
        k_max = math.sqrt(2.0 * e_top / unit.kappa)
        dx_bound = 2.0 * math.pi / (20.0 * k_max)
        if setup.dx > dx_bound:
            problems.append(
                f"dx={setup.dx:.6g} does not resolve k_max={k_max:.6g}; need dx <= {dx_bound:.6g}"
            )
        if setup.dt * e_top > 1.0:
            problems.append(
                f"dt={setup.dt:.6g} carries energy e_cut + v_top = {e_top:.6g} over 20% "
                f"slow; need dt <= {1.0 / e_top:.6g}"
            )
    trap_edge = max(setup.schedule.initial.outer_edge, setup.schedule.final.outer_edge)
    if not setup.absorber and setup.box_length < trap_edge:
        problems.append(
            f"box_length={setup.box_length:.6g} ends inside the trap; the open edge "
            f"needs V = 0 past it, so box_length >= {trap_edge:.6g}"
        )
    return problems


@dataclass
class DecayRecord:
    """Time series of the in-well probability and the total norm."""

    times: np.ndarray
    p_w: np.ndarray
    norm: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.p_w = np.asarray(self.p_w, dtype=float)
        self.norm = np.asarray(self.norm, dtype=float)
        if not (self.times.size == self.p_w.size == self.norm.size):
            raise InvalidArgumentError("record columns must have equal length")
        if self.times.size and np.any(np.diff(self.times) <= 0.0):
            raise InvalidArgumentError("record times must be strictly ascending")


@dataclass
class EdgeHistory:
    """What an open run leaves past its last node J, for the projection.

    psi_edge and psi_out hold psi_J and psi_{J+1} at every step, from t = 0.
    At t = 0 the state past J is tail * rho^(j - J - 1) for j > J (tail 0:
    nothing).  dt is the run's step, which fixes the exterior rows.
    """

    dt: float
    psi_edge: np.ndarray
    psi_out: np.ndarray
    tail: complex
    rho: float


@dataclass
class PropagationResult:
    final: WavefunctionGrid
    record: DecayRecord
    edge: EdgeHistory | None


# ---------------------------------------------------------------------------
# assembly


def _hat_overlaps(s: float, t: float) -> tuple[float, float, float]:
    """Integrals of (1-u)^2, u^2, u(1-u) over [s, t] in element coordinates."""
    left = ((1.0 - s) ** 3 - (1.0 - t) ** 3) / 3.0
    right = (t**3 - s**3) / 3.0
    cross = (t * t - s * s) / 2.0 - (t**3 - s**3) / 3.0
    return left, right, cross


def _potential_mass(x: np.ndarray, dx: float, edges: list[float], values: list[float]):
    """Exact FEM mass integrals of a piecewise-constant potential.

    edges are the ascending region boundaries inside (x[0], x[-1]); values
    has one entry more than edges, value[i] applying between edge i-1 and
    edge i.  Returns (diag, off) over all nodes.
    """
    n = x.size
    diag = np.zeros(n)
    off = np.zeros(n - 1)
    n_el = n - 1
    # bulk fill assuming each element lies inside a single region
    centers = x[:-1] + 0.5 * dx
    region = np.searchsorted(edges, centers)
    vals = np.asarray(values, dtype=float)[region]
    diag[:-1] += vals * dx / 3.0
    diag[1:] += vals * dx / 3.0
    off += vals * dx / 6.0
    # correct the elements actually cut by an edge
    for e in edges:
        j = int(math.floor(e / dx - 1e-12))
        if j < 0 or j >= n_el:
            continue
        xa, xb = x[j], x[j + 1]
        if not (xa < e < xb):
            continue
        # remove the bulk guess, redo the two pieces exactly
        c = xa + 0.5 * dx
        v_bulk = float(np.asarray(values)[np.searchsorted(edges, c)])
        diag[j] -= v_bulk * dx / 3.0
        diag[j + 1] -= v_bulk * dx / 3.0
        off[j] -= v_bulk * dx / 6.0
        cuts = [xa] + sorted(ee for ee in edges if xa < ee < xb) + [xb]
        for a, bcut in zip(cuts[:-1], cuts[1:]):
            mid = 0.5 * (a + bcut)
            v = float(np.asarray(values)[np.searchsorted(edges, mid)])
            s, tt = (a - xa) / dx, (bcut - xa) / dx
            il, ir, ic = _hat_overlaps(s, tt)
            diag[j] += v * dx * il
            diag[j + 1] += v * dx * ir
            off[j] += v * dx * ic
    return diag, off


def _absorber_mass(x: np.ndarray, dx: float, box_length: float):
    """FEM mass integrals of the cubic absorber ramp over the last
    ABSORBER_FRACTION of the box, 3-point Gauss exact."""
    n = x.size
    diag = np.zeros(n)
    off = np.zeros(n - 1)
    width = ABSORBER_FRACTION * box_length
    x_on = box_length - width
    gauss_u = np.array([0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15)])
    gauss_w = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
    j0 = max(0, int(math.floor(x_on / dx)))
    for j in range(j0, n - 1):
        xa = x[j]
        for u, wgt in zip(gauss_u, gauss_w):
            xp = xa + u * dx
            r = (xp - x_on) / width
            if r <= 0.0:
                continue
            wv = ABSORBER_STRENGTH * r**3
            diag[j] += wgt * dx * wv * (1.0 - u) ** 2
            diag[j + 1] += wgt * dx * wv * u * u
            off[j] += wgt * dx * wv * u * (1.0 - u)
    return diag, off


@dataclass
class _Operators:
    """Interior-node tridiagonal pieces of the discrete problem."""

    m_diag: np.ndarray
    m_off: np.ndarray
    h0_diag: np.ndarray  # kinetic + initial-config potential
    h0_off: np.ndarray
    dv_diag: np.ndarray  # final minus initial potential mass
    dv_off: np.ndarray
    w_diag: np.ndarray  # absorber mass (real amplitudes; enters as -i W)
    w_off: np.ndarray


def _config_mass(config, x, dx):
    edges = [config.d, config.outer_edge]
    values = [-config.v_well, config.v_barrier, 0.0]
    return _potential_mass(x, dx, edges, values)


def assemble_operators(setup: PropagationSetup, unit: UnitSystem) -> _Operators:
    n = setup.n_nodes()
    x = setup.dx * np.arange(n)
    dx = setup.dx
    alpha = 0.5 * unit.kappa
    k_diag = np.full(n, 2.0 * alpha / dx)
    k_off = np.full(n - 1, -alpha / dx)
    m_diag = np.full(n, 4.0 * dx / 6.0)
    m_off = np.full(n - 1, dx / 6.0)
    vi_diag, vi_off = _config_mass(setup.schedule.initial, x, dx)
    vf_diag, vf_off = _config_mass(setup.schedule.final, x, dx)
    if setup.absorber:
        w_diag, w_off = _absorber_mass(x, dx, setup.box_length)
    else:
        w_diag, w_off = np.zeros(n), np.zeros(n - 1)
    # drop the Dirichlet node at x = 0, and at the box end under the absorber;
    # an open box keeps its last node J, whose diagonal already holds both
    # of its elements
    last = n - 1 if setup.absorber else n
    sl = slice(1, last)
    so = slice(1, last - 1)
    return _Operators(
        m_diag=m_diag[sl],
        m_off=m_off[so],
        h0_diag=(k_diag + vi_diag)[sl],
        h0_off=(k_off + vi_off)[so],
        dv_diag=(vf_diag - vi_diag)[sl],
        dv_off=(vf_off - vi_off)[so],
        w_diag=w_diag[sl],
        w_off=w_off[so],
    )


def _tri_mul(diag, off, v):
    out = diag * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


#: Relative size below which the tail of g = A22^-1 e1 is dropped.
SCHUR_TAIL_CUT = 1e-17


def _checked(info, routine):
    if info != 0:
        raise NumericalBlowupError(f"{routine} failed on a Crank-Nicolson block (info {info})")


class _Stepper:
    """Crank-Nicolson steps at one dt.

    With z = i dt/2 and L(w) = M + z(H0 + w dV - iW), one step is
    psi' = L^-1 (2M - L) psi = L^-1 (2M psi) - psi, so the right-hand side
    2M psi (`rhs`) does not depend on the switch; `step` solves into it.
    An open box adds the constant edge (a nu_0 of `_OpenEdge`) to L's last
    diagonal; the caller adds the edge's share to the last entry of rhs.
    At w == 1.0 exactly L is constant: it is factored whole (`zgttrf`) on
    the first such step, and each such step is one `zgttrs` over all rows.
    Otherwise L(w) depends on w only in its first m rows, the trap block
    that holds the support of dV.  The far block A22 below them is constant
    and is factored once here.  Such a step solves A22, then the trap block
    with the Schur term c^2 g0 on its last diagonal (c couples the blocks,
    g = A22^-1 e1), then corrects the far part by -c x1[-1] g.  Every
    factorization keeps partial pivoting.
    """

    def __init__(self, ops: _Operators, dt: float, edge: complex):
        z = 0.5j * dt
        n = ops.m_diag.size
        self.ops, self.z, self.edge = ops, z, edge
        # doubling is exact, so 2M psi carries the roundoff of M psi; numpy
        # multiplies complex by complex faster than real by complex
        self.m2_diag = 2.0 * ops.m_diag.astype(complex)
        self.m2_off = 2.0 * ops.m_off.astype(complex)
        lhs_diag, lhs_off = self._lhs(0.0)  # adding 0.0 z dV leaves L(0) exact
        # the trap block holds every row dV touches (an off entry touches
        # two) and at least MIN_BLOCK rows; a far block too small for the
        # LAPACK wrappers joins it
        rows = np.concatenate(
            [np.flatnonzero(ops.dv_diag) + 1, np.flatnonzero(ops.dv_off) + 2, [MIN_BLOCK]]
        )
        m = int(rows.max())
        if n - m < MIN_BLOCK:
            m = n
        self.m = m
        self.lhs_diag = lhs_diag[:m].copy()  # not a view: the rest is freed
        self.lhs_off = lhs_off[: m - 1].copy()
        self.zdv_diag = z * ops.dv_diag[:m]
        self.zdv_off = z * ops.dv_off[: m - 1]
        self.whole = None  # the factors of L(1), made on the first step at w == 1.0
        self.far = None
        if m < n:
            self.far = self._factor(lhs_off[m:], lhs_diag[m:])
            self.c = lhs_off[m - 1]
            e1 = np.zeros(n - m, dtype=complex)
            e1[0] = 1.0
            g = self._solve(self.far, e1)
            self.schur = self.c * self.c * g[0]
            # g decays geometrically into the far block.  Past the cut its
            # entries move x2 by less than roundoff, and once they turn
            # subnormal they make the per-step update several times slower.
            keep = np.flatnonzero(np.abs(g) >= SCHUR_TAIL_CUT * abs(g[0]))
            self.g = g[: keep[-1] + 1]

    def _lhs(self, weight):
        """Diagonal and off-diagonal of L(weight) over all interior rows,
        rounded as the block path forms its trap rows."""
        ops, z = self.ops, self.z
        diag = ops.m_diag + z * (ops.h0_diag - 1j * ops.w_diag) + weight * (z * ops.dv_diag)
        off = ops.m_off + z * (ops.h0_off - 1j * ops.w_off) + weight * (z * ops.dv_off)
        if self.edge:
            diag[-1] += self.edge
        return diag, off

    @staticmethod
    def _factor(off, diag):
        *factors, info = zgttrf(off, diag, off)
        _checked(info, "zgttrf")
        return factors

    @staticmethod
    def _solve(factors, rhs):
        x, info = zgttrs(*factors, rhs, overwrite_b=1)
        _checked(info, "zgttrs")
        return x

    @staticmethod
    def _trap_solve(off, diag, rhs):
        *_, x, info = zgtsv(off, diag, off, rhs, overwrite_d=1, overwrite_b=1)
        _checked(info, "zgtsv")
        return x

    def rhs(self, psi: np.ndarray) -> np.ndarray:
        """2M psi, the right-hand side of the step from psi."""
        return _tri_mul(self.m2_diag, self.m2_off, psi)

    def step(self, weight: float, psi: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """psi' from psi and rhs = self.rhs(psi); psi' is written over rhs."""
        x = self._settled_solve(rhs) if weight == 1.0 else self._block_solve(weight, rhs)
        return np.subtract(x, psi, out=x)

    def _settled_solve(self, rhs):
        if self.whole is None:
            diag, off = self._lhs(1.0)
            self.whole = self._factor(off, diag)
        return self._solve(self.whole, rhs)

    def _block_solve(self, weight, rhs):
        m = self.m
        d1 = self.lhs_diag + weight * self.zdv_diag
        o1 = self.lhs_off + weight * self.zdv_off
        if self.far is None:
            return self._trap_solve(o1, d1, rhs)
        d1[-1] -= self.schur
        x2 = self._solve(self.far, rhs[m:])
        rhs[m - 1] -= self.c * x2[0]
        x1 = self._trap_solve(o1, d1, rhs[:m])
        x2[: self.g.size] -= (self.c * x1[-1]) * self.g
        return rhs


def _well_weights(span: float, dx: float, n: int) -> np.ndarray:
    """Trapezoid weights that integrate a density sampled on n nodes, dx
    apart, from the first node over a length span; the last sub-interval
    is cut at span and its density interpolated linearly.  Nodes past the
    returned vector carry no weight."""
    j = min(int(math.floor(span / dx + 1e-12)), n - 1)
    wts = np.zeros(min(j + 2, n))
    if j > 0:
        wts[: j + 1] = dx
        wts[0] = wts[j] = 0.5 * dx
    rest = span - j * dx
    if rest > 1e-12 * dx and j + 1 < n:
        frac = rest / dx
        wts[j] += 0.5 * rest * (2.0 - frac)
        wts[j + 1] += 0.5 * rest * frac
    return wts


def non_escape_probability(snapshot: WavefunctionGrid, d: float) -> float:
    """Trapezoid integral of |psi|^2 over the well region [0, d]."""
    if d < 0.0:
        raise InvalidArgumentError(f"well edge must be non-negative, got {d}")
    if snapshot.x0 > 0.0 or snapshot.x_max < d:
        raise InvalidArgumentError(
            f"snapshot grid [{snapshot.x0}, {snapshot.x_max:.6g}] does not cover [0, {d}]"
        )
    wts = _well_weights(d - snapshot.x0, snapshot.dx, snapshot.values.size)
    return float(np.dot(wts, np.abs(snapshot.values[: wts.size]) ** 2))


# ---------------------------------------------------------------------------
# the open edge


def edge_rows(dx: float, dt: float, kappa: float) -> tuple[complex, complex]:
    """(a, b): off-diagonal and diagonal of L = M + (i dt/2) H on the
    potential-free rows past the trap.  The right-hand side 2M - L has
    their conjugates a' and b' there."""
    z = 0.5j * dt
    alpha = 0.5 * kappa
    return dx / 6.0 - z * alpha / dx, 2.0 * dx / 3.0 + 2.0 * z * alpha / dx


def edge_kernel(a: complex, b: complex, n: int) -> np.ndarray:
    """s_0 .. s_n, the power-series coefficients in w = 1/zeta of
    s(w) = sqrt(B^2 - 4A^2), A = a - a' w, B = b - b' w, on the branch that
    makes nu_0 = -(b + s_0)/(2a), the diagonal gain of row J per a, the
    decaying root (|nu_0| < 1).

    P = B^2 - 4A^2 = p0 + p1 w + p2 w^2 and P s' = P' s / 2 give the exact
    three-term recurrence p0 (m+1) s_{m+1} = -p1 (m - 1/2) s_m - p2 (m - 2) s_{m-1}.
    Both roots of P lie on |w| = 1, so every solution of the recurrence
    decays like m^(-3/2) and running it forward loses no digits.
    """
    # P = (r1 - r1' w)(r2 - r2' w) with r1 = b - 2a, r2 = b + 2a; the
    # factored coefficients avoid the cancellation of b b' against 4 a a'
    r1, r2 = b - 2.0 * a, b + 2.0 * a
    p0 = r1 * r2
    c1 = -(r1 * r2.conjugate() + r1.conjugate() * r2) / p0
    c2 = (r1 * r2).conjugate() / p0
    s0 = np.sqrt(p0)
    if abs(b + s0) > 2.0 * abs(a):
        s0 = -s0
    s = np.empty(n + 1, dtype=complex)
    s[0] = cur = complex(s0)
    prev = 0j
    for m in range(n):
        cur, prev = -(c1 * (m - 0.5) * cur + c2 * (m - 2) * prev) / (m + 1), cur
        s[m + 1] = cur
    return s


def tail_phase(a: complex, b: complex, rho: float) -> complex:
    """zeta_p = D'/D, D = a (rho + 1/rho) + b: c rho^j zeta_p^n solves the
    exterior rows for every j and n, and |zeta_p| = 1."""
    d = a * (rho + 1.0 / rho) + b
    return d.conjugate() / d


class _OpenEdge:
    """Row J's share of each step of an open run, and its history.

    u = psi - f at nodes J and J + 1, where f_j^n = c rho^j zeta_p^n carries
    the prepared state's tail (f = 0 without one), starts at zero; the
    boundary relation 2a u_{J+1}^n - 2a' u_{J+1}^{n-1} = -b u_J^n + b' u_J^{n-1}
    - sum_m s_m u_J^{n-m} then holds exactly.  With psi_{J+1}^{n+1} =
    nu_0 psi_J^{n+1} + (known) in row J, the step is L~ y = 2M psi + load e_J,
    L~ = L + a nu_0 e_J e_J^T, and `load` needs only the u_J history.
    """

    def __init__(self, a, b, n_steps, tail, rho):
        self.a, self.ac, self.bc = a, a.conjugate(), b.conjugate()
        s = edge_kernel(a, b, n_steps)
        self.nu0 = -(b + s[0]) / (2.0 * a)
        self.gain = self.a * self.nu0
        self.decay = 0.5 * (b + self.bc + s[0])
        self.s_rev = s[:0:-1].copy()  # s_n .. s_1, so each history dot is contiguous
        self.u_edge = np.zeros(n_steps + 1, dtype=complex)
        self.u_out = np.zeros(n_steps + 1, dtype=complex)
        self.f_edge = self.f_out = np.zeros(n_steps + 1, dtype=complex)
        self.forcing = np.zeros(n_steps, dtype=complex)
        self.tail, self.rho = tail, rho
        if tail:
            zeta = tail_phase(a, b, rho)
            phases = np.exp(1j * np.angle(zeta) * np.arange(n_steps + 1))
            self.f_out = tail * phases
            self.f_edge = (tail / rho) * phases
            f_edge, f_out = self.f_edge, self.f_out
            self.forcing = (
                self.ac * f_out[:-1] + self.gain * (f_edge[:-1] + f_edge[1:]) - a * f_out[1:]
            )
        self.hist = 0j

    def load(self, j):
        """Row J's right-hand side term of the step from j to j + 1."""
        n = self.s_rev.size
        self.hist = np.dot(self.s_rev[n - j - 1 :], self.u_edge[: j + 1])
        return 0.5 * self.hist - self.decay * self.u_edge[j] + self.forcing[j]

    def advance(self, j, psi_edge):
        """Record psi_J at step j + 1 and the psi_{J+1} it implies."""
        u = psi_edge - self.f_edge[j + 1]
        self.u_edge[j + 1] = u
        self.u_out[j + 1] = self.nu0 * u + (
            2.0 * self.ac * self.u_out[j] + self.bc * self.u_edge[j] - self.hist
        ) / (2.0 * self.a)

    def history(self, dt):
        return EdgeHistory(
            dt=dt,
            psi_edge=self.u_edge + self.f_edge,
            psi_out=self.u_out + self.f_out,
            tail=self.tail,
            rho=self.rho,
        )


#: Largest departure, relative to its peak, of an initial state past the box
#: from a geometric tail (open box) or from zero (absorbing box).
TAIL_RTOL = 1e-10


def _embed_initial(initial: WavefunctionGrid, setup: PropagationSetup):
    """The initial state on the box's nodes, and (tail, rho) of an open
    box: past the last node J the state is tail * rho^(j - J - 1).  A state
    that ends inside the box is padded with zeros and has no tail (0, 0)."""
    n = setup.n_nodes()
    if abs(initial.dx - setup.dx) > 1e-12 * setup.dx:
        raise InvalidArgumentError(
            f"initial state dx={initial.dx} does not match setup dx={setup.dx}"
        )
    if initial.x0 != 0.0:
        raise InvalidArgumentError("initial state must start at the hard wall x=0")
    out = np.zeros(n, dtype=complex)
    m = min(n, initial.values.size)
    out[:m] = initial.values[:m]
    out[0] = 0.0
    if initial.values.size > n:
        peak = np.max(np.abs(initial.values))
        past = initial.values[n - 1 :]  # node J and beyond
        if not setup.absorber and past[0] != 0.0:
            ratio = past[1] / past[0]
            rho = float(ratio.real)
            geometric = past[0] * rho ** np.arange(past.size)
            if (
                abs(ratio.imag) <= 1e-12 * abs(rho)
                and 0.0 < abs(rho) < 1.0
                and np.max(np.abs(past - geometric)) <= TAIL_RTOL * peak
            ):
                return out, complex(past[1]), rho
        if np.max(np.abs(initial.values[n:])) > TAIL_RTOL * peak:
            raise InvalidArgumentError(
                "initial state extends beyond the box with non-negligible amplitude"
                + ("" if setup.absorber else " and does not decay geometrically there")
            )
    out[-1] = 0.0
    return out, 0j, 0.0


def propagate(
    initial: WavefunctionGrid,
    setup: PropagationSetup,
    unit: UnitSystem,
    record_every: int = 1,
) -> PropagationResult:
    """Run the switch to t_end and return the final state and decay record,
    and for an open box the history of its edge.

    The record samples t = 0 and then every record_every-th step; the norm
    column is the mass-matrix norm inside the box, conserved in the
    absorber-free interior until flux leaves through the open edge.
    """
    problems = validate_setup(setup, unit)
    if problems:
        raise InvalidArgumentError("invalid setup: " + "; ".join(problems))
    if record_every < 1:
        raise InvalidArgumentError(f"record_every must be >= 1, got {record_every}")
    norm0 = initial.norm_squared()
    if abs(norm0 - 1.0) > 1e-6:
        raise InvalidArgumentError(f"initial state norm {norm0} is not 1")

    ops = assemble_operators(setup, unit)
    embedded, tail, rho = _embed_initial(initial, setup)
    n = setup.n_nodes()
    psi = embedded[1 : 1 + ops.m_diag.size]
    n_steps = setup.n_steps()
    schedule = setup.schedule
    dt = setup.dt

    if setup.absorber:
        edge = None
        stepper = _Stepper(ops, dt, 0.0)
    else:
        edge = _OpenEdge(*edge_rows(setup.dx, dt, unit.kappa), n_steps, tail, rho)
        stepper = _Stepper(ops, dt, edge.gain)

    # the well's trapezoid weights on the interior nodes; the wall node is 0
    well = _well_weights(schedule.initial.d, setup.dx, n)[1 : 1 + psi.size]
    times, p_ws, norms = [], [], []

    def sample(j, vec, rhs):
        p = float(np.dot(well, np.abs(vec[: well.size]) ** 2))
        nm = 0.5 * np.vdot(vec, rhs).real
        if not (math.isfinite(p) and math.isfinite(nm)):
            raise NumericalBlowupError(f"non-finite observables at step {j}", step=j)
        times.append(j * dt)
        p_ws.append(p)
        norms.append(nm)

    rhs = stepper.rhs(psi)
    sample(0, psi, rhs)
    for j in range(n_steps):
        if edge is not None:
            rhs[-1] += edge.load(j)
        psi = stepper.step(schedule.weight((j + 0.5) * dt), psi, rhs)
        if edge is not None:
            edge.advance(j, psi[-1])
        rhs = stepper.rhs(psi)
        step = j + 1
        if step % record_every == 0 or step == n_steps:
            sample(step, psi, rhs)

    record = DecayRecord(np.array(times), np.array(p_ws), np.array(norms))
    final = np.zeros(n, dtype=complex)
    final[1 : 1 + psi.size] = psi
    history = None if edge is None else edge.history(dt)
    return PropagationResult(WavefunctionGrid(0.0, setup.dx, final), record, history)
