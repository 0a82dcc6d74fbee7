"""Time propagation of the trapped packet through the potential switch.

Spatial discretization is a linear finite-element (hat-function) basis on a
uniform grid with a hard Dirichlet wall at x = 0.  The element
integrals of the piecewise-constant potential are exact: each region (well,
barrier) is clipped to every element and integrated against its two hats,
so an element cut by a region edge gets both pieces; this keeps the discrete
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
past the trap is factored once per run and time step, from its bottom row
up (LAPACK `zgttrf` on the reversed block), so it meets the trap rows only
through its top pivot p_0; each step refactors only the few hundred trap
rows, whose last diagonal carries the Schur term c^2/p_0, and nothing
corrects the far rows afterwards.  A far block with fewer rows than the
trap block is not worth its own solve and joins the trap block, so such a
box solves all its rows each step.  Once the switching weight is exactly 1
(all steps of a sudden switch, and every step after w(t) = -expm1(-t/T)
rounds to 1) the step matrix is constant: it is factored whole on the
first such step, and each later one is a single solve over all rows.  A
factorization kept across steps is solved by two unit-bidiagonal sweeps
(BLAS `ztbsv`) and one scaling by the reciprocal pivots, which divides on
no row, where `zgttrs` divides on every row; the sweeps need a
factorization that swapped no rows, and `zgttrf`'s partial pivoting swaps
none on these matrices (a block where it would is refused).  The steps
run in blocks (13 steps on the decay box's 300 trap rows, 30 on the
134-row spectrum box): the trap rows of a block's steps are built as
tables, one broadcast each from the scalar weights w(t), and only for a
block where some w < 1; each step then indexes its row.  M is
(dx/6)(4, 1, 1) on every row, so each step solves L/(dx/3) against the
stencil (4, 1, 1) psi.  The
LAPACK and BLAS routines are called positionally with their overwrite
flags, so f2py copies nothing and each step solves in place in the buffer
that holds the stencil.  The recorded norm is dx/6 times the dot of psi with
the step's own stencil, and the in-well probability one dot of |psi|^2 with
the trapezoid weights of `non_escape_probability`.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

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
    e_cut: float
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
    if setup.dx > 0.0:
        # the rows `assemble_operators` keeps: an open box keeps its last node
        rows = setup.n_nodes() - (2 if setup.absorber else 1)
        if rows < MIN_BLOCK:
            problems.append(
                f"box_length={setup.box_length:.6g} at dx={setup.dx:.6g} leaves the solver "
                f"{max(rows, 0)} of the {MIN_BLOCK} rows it needs"
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
    # the open edge, or the absorbing ramp over the box's last ABSORBER_FRACTION, needs V = 0
    trap_edge = max(setup.schedule.initial.outer_edge, setup.schedule.final.outer_edge)
    start = 1.0 - ABSORBER_FRACTION if setup.absorber else 1.0
    if setup.box_length * start < trap_edge:
        where = "starts its absorber" if setup.absorber else "ends"
        layer = "absorber" if setup.absorber else "open edge"
        problems.append(
            f"box_length={setup.box_length:.6g} {where} inside the trap; the {layer} "
            f"needs V = 0 past it, so box_length >= {trap_edge / start:.6g}"
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


def _hat_overlaps(s, t):
    """Integrals of (1-u)^2, u^2, u(1-u) over [s, t] in element coordinates."""
    left = ((1.0 - s) ** 3 - (1.0 - t) ** 3) / 3.0
    right = (t**3 - s**3) / 3.0
    cross = (t * t - s * s) / 2.0 - (t**3 - s**3) / 3.0
    return left, right, cross


def _config_mass(config, x, dx):
    """Exact FEM mass integrals of one trap's potential, -v_well on [0, d)
    and v_barrier on [d, d + b), as (diag, off) over all nodes.

    Each region is clipped to every element [x_j, x_j + dx] in element
    coordinates, so an element holding one edge, both edges or none is
    integrated the same way.  Elements past d + b add exactly nothing,
    which keeps the support of dV, and `_Stepper`'s trap block, to the trap.
    """
    diag = np.zeros(x.size)
    off = np.zeros(x.size - 1)
    regions = ((0.0, config.d, -config.v_well), (config.d, config.outer_edge, config.v_barrier))
    for lo, hi, v in regions:
        k = min(off.size, int(hi / dx) + 1)  # elements from x_k on add nothing
        xa = x[:k]
        s = np.clip((lo - xa) / dx, 0.0, 1.0)
        t = np.clip((hi - xa) / dx, 0.0, 1.0)
        left, right, cross = _hat_overlaps(s, t)
        diag[:k] += v * dx * left
        diag[1 : k + 1] += v * dx * right
        off[:k] += v * dx * cross
    return diag, off


def _absorber_mass(x: np.ndarray, dx: float, box_length: float):
    """FEM mass integrals of the cubic absorber ramp over the last
    ABSORBER_FRACTION of the box, 3-point Gauss exact, in one array pass
    over the elements from the one where the ramp starts."""
    width = ABSORBER_FRACTION * box_length
    x_on = box_length - width
    gauss_u = np.array([0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15)])
    gauss_w = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
    j0 = max(0, int(math.floor(x_on / dx)))
    r = np.maximum((x[j0:-1, None] + gauss_u * dx - x_on) / width, 0.0)
    # weight times the ramp at each (element, Gauss point)
    wv = gauss_w * dx * (ABSORBER_STRENGTH * r**3)
    diag = np.zeros(x.size)
    off = np.zeros(x.size - 1)
    diag[j0:-1] += wv @ (1.0 - gauss_u) ** 2
    diag[j0 + 1 :] += wv @ (gauss_u * gauss_u)
    off[j0:] = wv @ (gauss_u * (1.0 - gauss_u))
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


#: Largest size in bytes of one table of trap rows: a block of steps takes
#: as many steps as keep its tables this small, so they stay in cache.
TABLE_BYTES = 1 << 16


@functools.cache
def _lapack():
    """scipy.linalg.lapack, imported on first use: it is about half the
    package's import time, and only a Crank-Nicolson step needs it."""
    from scipy.linalg import lapack

    return lapack


@functools.cache
def _blas():
    """scipy.linalg.blas, imported on first use like `_lapack`."""
    from scipy.linalg import blas

    return blas


def _lapack_error(routine, info):
    return NumericalBlowupError(f"{routine} failed on a Crank-Nicolson block (info {info})")


class _Prefactored:
    """A tridiagonal block (off, diag) factored from its bottom row up,
    A = U L, and solved in place by two unit-bidiagonal sweeps (BLAS
    `ztbsv`) and one scaling.

    `zgttrf` factors the reversed block: U is unit upper, L lower with the
    pivots p on its diagonal, p_0 made last.  `up` solves U y = b; `down`
    sweeps with L's subdiagonal over p, then scales by r = 1/p, so no row
    divides, where `zgttrs` divides on every row.  Row 0 of L is p_0 alone,
    so rows joined to row 0 meet the block only through p_0.  The sweeps
    hold only while `zgttrf` swapped no rows; a factorization that did is
    refused, naming the row in the block's own order."""

    def __init__(self, off, diag):
        n = diag.size
        *factors, info = _lapack().zgttrf(off[::-1], diag[::-1], off[::-1])
        if info:
            raise _lapack_error("zgttrf", info)
        multipliers, pivots, sub, du2, ipiv = factors
        swapped = ipiv != np.arange(1, n + 1)
        swapped[: du2.size] |= du2 != 0.0
        if swapped.any():
            raise NumericalBlowupError(
                f"zgttrf swapped rows of a {n}-row Crank-Nicolson block, first at row "
                f"{n - 1 - int(np.argmax(swapped))}, where a pivot is smaller than the row "
                "above it"
            )
        self.r = 1.0 / pivots[::-1]
        # (2, n) Fortran-ordered bands, as ztbsv reads them without a copy
        self.upper = np.zeros((2, n), dtype=complex, order="F")
        self.upper[0, 1:] = multipliers[::-1]
        self.lower = np.zeros((2, n), dtype=complex, order="F")
        self.lower[1, :-1] = sub[::-1] * self.r[:-1]
        self.tbsv = _blas().ztbsv

    # positional ztbsv: k, band, x, incx, offx, lower, trans, unit diag, overwrite
    def up(self, b):
        """Overwrite b, contiguous complex, with U^-1 b."""
        self.tbsv(1, self.upper, b, 1, 0, 0, 0, 1, 1)

    def down(self, b):
        """Overwrite b, contiguous complex, with L^-1 b."""
        self.tbsv(1, self.lower, b, 1, 0, 1, 0, 1, 1)
        b *= self.r

    def solve(self, b):
        """Overwrite b, contiguous complex, with A^-1 b."""
        self.up(b)
        self.down(b)


class _Stepper:
    """The constant parts of the Crank-Nicolson steps at one dt.

    With z = i dt/2 and L(w) = M + z(H0 + w dV - iW), one step is
    psi' = L^-1 (2M psi) - psi = (L/scale)^-1 S psi - psi, with scale = dx/3
    and the stencil S = (4, 1, 1) (`_stencil`); S psi does not depend on the
    switch, and `propagate` solves into it.  Every matrix here is L/scale.
    An open box adds its edge (a nu_0 of `_OpenEdge`) over scale to the last
    diagonal; the caller adds the edge's share, over scale, to rhs[-1].
    At w == 1.0 exactly L is constant: it is factored whole
    (`factor_whole`) on the first such step, and each such step is one
    `_Prefactored` solve over all rows.
    Otherwise L(w) depends on w only in its first m rows, the trap block
    that holds the support of dV.  The far block A22 below them is constant
    and is factored once here, bottom-up: `lhs_diag[-1]` carries the Schur
    term c^2/p_0, c the entry that joins the blocks.  Such a step is
    `far.up`, x1[-1] -= (c/p_0) x2[0], the trap solve, x2[0] -= c x1[-1]
    and `far.down`.  A far block
    with fewer rows than the trap block joins it, and each such step is one
    `zgtsv` over all rows: the block path's extra solve costs more
    than the rows it spares (on one core of a 2-core host the 135-node
    spectrum box takes 14 us per step whole, 16 us in blocks; the
    3,000-row decay box keeps its blocks).
    The trap rows of `block` steps at a time come from `trap_rows` as
    tables, one broadcast each, so a step only indexes its row; a table
    stays under TABLE_BYTES.
    Every factorization keeps partial pivoting: `zgtsv` pivots each step,
    and `_Prefactored` refuses factors that `zgttrf` pivoted.
    """

    def __init__(self, ops: _Operators, dt: float, edge: complex):
        n = ops.m_diag.size
        self.scale = 2.0 * float(ops.m_off[0])  # dx/3 as rounded: halving is exact
        zs = 0.5j * dt / self.scale
        self.ops, self.zs, self.edge = ops, zs, edge / self.scale
        lhs_diag, lhs_off = self._lhs(0.0)  # adding 0.0 zs dV leaves L(0) exact
        # the trap block holds every row dV touches (an off entry touches
        # two) and at least MIN_BLOCK rows; a smaller far block joins it
        rows = np.concatenate(
            [np.flatnonzero(ops.dv_diag) + 1, np.flatnonzero(ops.dv_off) + 2, [MIN_BLOCK]]
        )
        m = int(rows.max())
        if n - m < m:
            m = n
        self.m = m
        self.block = max(1, TABLE_BYTES // (16 * m))
        self.lhs_diag = lhs_diag[:m].copy()  # not a view: the rest is freed
        self.lhs_off = lhs_off[: m - 1].copy()
        self.zdv_diag = zs * ops.dv_diag[:m]
        self.zdv_off = zs * ops.dv_off[: m - 1]
        self.whole = None  # the factors of L(1), made on the first step at w == 1.0
        self.far = None
        if m < n:
            self.far = _Prefactored(lhs_off[m:], lhs_diag[m:])
            self.c = complex(lhs_off[m - 1])
            self.c_p0 = self.c * complex(self.far.r[0])  # c/p_0
            self.lhs_diag[-1] -= self.c * self.c_p0

    def _lhs(self, weight):
        """Diagonal and off-diagonal of L(weight)/scale over all interior
        rows, rounded as the block path forms its trap rows.  The mass part
        is (2, 1/2) exactly: a rounded 3/dx would bias every step alike."""
        ops, zs = self.ops, self.zs
        diag = 2.0 + zs * (ops.h0_diag - 1j * ops.w_diag) + weight * (zs * ops.dv_diag)
        off = 0.5 + zs * (ops.h0_off - 1j * ops.w_off) + weight * (zs * ops.dv_off)
        if self.edge:
            diag[-1] += self.edge
        return diag, off

    def factor_whole(self):
        """L(1) over all rows, prefactored and kept as `whole`."""
        diag, off = self._lhs(1.0)
        self.whole = _Prefactored(off, diag)
        return self.whole

    def trap_rows(self, weights):
        """Diagonal, sub- and superdiagonal of the trap rows of L(w), one
        row per weight; the diagonal carries the Schur term.  The two
        off-diagonals are separate buffers, as `zgtsv` overwrites both."""
        w = np.array(weights)[:, None]
        diag = self.lhs_diag + w * self.zdv_diag
        lower = self.lhs_off + w * self.zdv_off
        return diag, lower, lower.copy()


def _stencil(src, dst):
    """dst = (4, 1, 1) src = (6/dx) M src, for views (v, v[1:], v[:-1], ...)."""
    np.multiply(src[0], 4.0, out=dst[0])
    np.add(dst[1], src[2], out=dst[1])
    np.add(dst[2], src[1], out=dst[2])


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
    if snapshot.x_max < d:
        raise InvalidArgumentError(
            f"snapshot grid [0, {snapshot.x_max:.6g}] does not cover [0, {d}]"
        )
    wts = _well_weights(d, snapshot.dx, snapshot.values.size)
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
    """The constants of row J's share of each step of an open run, and the
    history of u that `propagate` writes into u_edge and u_out.

    u = psi - f at nodes J and J + 1, where f_j^n = c rho^j zeta_p^n carries
    the prepared state's tail (f = 0 without one), starts at zero; the
    boundary relation 2a u_{J+1}^n - 2a' u_{J+1}^{n-1} = -b u_J^n + b' u_J^{n-1}
    - sum_m s_m u_J^{n-m} then holds exactly.  A state with no tail and
    psi_J^0 != 0 has a zero exterior, yet row J + 1 of the first step sees
    psi_J^0; the Z-transform carries that as f_J^n = psi_J^0 (a'/a)^n, so
    again u starts at zero.  With psi_{J+1}^{n+1} = nu_0 psi_J^{n+1} + (known)
    in row J, the step from n to n + 1 is L~ y = 2M psi + load e_J,
    L~ = L + a nu_0 e_J e_J^T, and load = hist/2 - decay u_J^n + forcing^n
    needs only the u_J history, through hist = sum_{m >= 1} s_m u_J^{n+1-m}.
    """

    def __init__(self, a, b, n_steps, tail, rho, psi_edge):
        self.a, self.ac, self.bc = a, a.conjugate(), b.conjugate()
        s = edge_kernel(a, b, n_steps)
        s0 = complex(s[0])
        self.nu0 = -(b + s0) / (2.0 * a)
        self.gain = self.a * self.nu0
        self.decay = 0.5 * (b + self.bc + s0)
        self.s_rev = s[:0:-1].copy()  # s_n .. s_1, so each history dot is contiguous
        self.u_edge = np.zeros(n_steps + 1, dtype=complex)
        self.u_out = np.zeros(n_steps + 1, dtype=complex)
        self.f_edge = self.f_out = np.zeros(n_steps + 1, dtype=complex)
        forcing = np.zeros(n_steps, dtype=complex)
        self.tail, self.rho = tail, rho
        if tail:
            zeta = tail_phase(a, b, rho)
            phases = np.exp(1j * np.angle(zeta) * np.arange(n_steps + 1))
            self.f_out = tail * phases
            self.f_edge = (tail / rho) * phases
        elif psi_edge:
            self.f_edge = psi_edge * np.exp(-2j * np.angle(a) * np.arange(n_steps + 1))
        if tail or psi_edge:
            f_edge, f_out = self.f_edge, self.f_out
            forcing = self.ac * f_out[:-1] + self.gain * (f_edge[:-1] + f_edge[1:]) - a * f_out[1:]
        # the per-step scalars are Python complex numbers, whose arithmetic
        # costs less than numpy scalars'
        self.forcing = forcing.tolist()
        self.f_next = self.f_edge[1:].tolist()

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
    that ends inside the box is padded with zeros and has no tail (0, 0).
    Node J is an unknown of an open run and keeps its value; in the
    absorbing box it is the Dirichlet wall and is set to zero."""
    n = setup.n_nodes()
    if abs(initial.dx - setup.dx) > 1e-12 * setup.dx:
        raise InvalidArgumentError(
            f"initial state dx={initial.dx} does not match setup dx={setup.dx}"
        )
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
    if setup.absorber:
        out[-1] = 0.0
    return out, 0j, 0.0


def propagate(
    initial: WavefunctionGrid,
    setup: PropagationSetup,
    unit: UnitSystem,
    record_every: int,
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

    edge = None
    if not setup.absorber:
        rows = edge_rows(setup.dx, dt, unit.kappa)
        edge = _OpenEdge(*rows, n_steps, tail, rho, complex(psi[-1]))
    stepper = _Stepper(ops, dt, 0.0 if edge is None else edge.gain)

    # the well's trapezoid weights on the interior nodes; the wall node is 0
    well = _well_weights(schedule.initial.d, setup.dx, n)[1 : 1 + psi.size]
    times, p_ws, norms = [], [], []

    def sample(j, vec, rhs):
        p = float(np.dot(well, np.abs(vec[: well.size]) ** 2))
        nm = 0.5 * stepper.scale * np.vdot(vec, rhs).real
        if not (math.isfinite(p) and math.isfinite(nm)):
            raise NumericalBlowupError(f"non-finite observables at step {j}", step=j)
        times.append(j * dt)
        p_ws.append(p)
        norms.append(nm)

    # Two buffers take turns: one holds psi, the other S psi, into which the
    # step solves in place; psi' = x - psi overwrites x, and the old psi's
    # buffer then takes S psi'.  Each carries the views a step uses.
    m, far, whole = stepper.m, stepper.far, stepper.whole

    def views(v):
        """v, its two shifts, its trap rows and its far rows."""
        return v, v[1:], v[:-1], v[:m], v[m:]

    cur, nxt = views(psi), views(np.empty_like(psi))
    _stencil(cur, nxt)
    sample(0, cur[0], nxt[0])
    zgtsv = _lapack().zgtsv
    if far is not None:
        c, c_p0 = stepper.c, stepper.c_p0
    if edge is not None:
        s_rev, u_edge, u_out, f_next = edge.s_rev, edge.u_edge, edge.u_out, edge.f_next
        nu0, ac, bc, a = edge.nu0, edge.ac, edge.bc, edge.a
        # row J's load, over scale like the rest of the step
        half, decay = 0.5 / stepper.scale, edge.decay / stepper.scale
        forcing = [f / stepper.scale for f in edge.forcing]
        hist = last_edge = last_out = 0j  # u_J, u_{J+1} at the current step
    weight = schedule.weight
    block = stepper.block
    for j0 in range(0, n_steps, block):
        weights = [weight((j + 0.5) * dt) for j in range(j0, min(j0 + block, n_steps))]
        if min(weights) < 1.0:
            diags, lowers, uppers = stepper.trap_rows(weights)
        for k, w in enumerate(weights):
            j = j0 + k
            psi, rhs = cur[0], nxt[0]
            if edge is not None:
                hist = complex(np.dot(s_rev[s_rev.size - j - 1 :], u_edge[: j + 1]))
                rhs[-1] += half * hist - decay * last_edge + forcing[j]
            if w == 1.0:
                if whole is None:
                    whole = stepper.factor_whole()
                whole.solve(rhs)
            elif far is None:
                info = zgtsv(lowers[k], diags[k], uppers[k], rhs, 1, 1, 1, 1)[-1]
                if info:
                    raise _lapack_error("zgtsv", info)
            else:
                _, _, _, x1, x2 = nxt
                far.up(x2)
                x1[-1] -= c_p0 * x2[0]
                info = zgtsv(lowers[k], diags[k], uppers[k], x1, 1, 1, 1, 1)[-1]
                if info:
                    raise _lapack_error("zgtsv", info)
                x2[0] -= c * x1[-1]
                far.down(x2)
            np.subtract(rhs, psi, out=rhs)
            if edge is not None:
                # psi_J at step j + 1 and the psi_{J+1} it implies
                u = rhs.item(-1) - f_next[j]
                out = nu0 * u + (2.0 * ac * last_out + bc * last_edge - hist) / (2.0 * a)
                u_edge[j + 1] = last_edge = u
                u_out[j + 1] = last_out = out
            _stencil(nxt, cur)
            cur, nxt = nxt, cur
            step = j + 1
            if step % record_every == 0 or step == n_steps:
                sample(step, cur[0], nxt[0])

    psi = cur[0]
    record = DecayRecord(np.array(times), np.array(p_ws), np.array(norms))
    final = np.zeros(n, dtype=complex)
    final[1 : 1 + psi.size] = psi
    history = None if edge is None else edge.history(dt)
    return PropagationResult(WavefunctionGrid(setup.dx, final), record, history)
