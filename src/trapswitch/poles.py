"""S-matrix poles: bound states, resonances, and iso-resonance curves.

The pole condition is Omega(k) = k J(k) + i R(k) = 0 with J, R as built in
scattering.py.  Omega is entire in k and even in both interior channel wave
numbers, so roots can be chased anywhere in the complex plane without branch
bookkeeping.  Roots on the positive imaginary axis are bound states (there
Omega/i is real) and roots in the fourth quadrant are resonances; the
search keeps Re k > 0, so their mirror images under k -> -conj(k) are
never returned.

Search strategy: the winding number of Omega around a rectangle counts the
enclosed roots (argument principle); Newton refinement runs from physical
seeds (Wigner delay peaks on the real axis) and, for anything the seeds
miss, from recursive rectangle subdivision.  The returned list is complete
exactly when its length matches the winding count, otherwise an
incomplete-search error reports both numbers.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IncompleteSearchError,
    InvalidArgumentError,
    RefinementError,
)
from .model import PotentialConfig, UnitSystem
from .scattering import delay_time, pole_function_derivatives, pole_function_terms

BOUND = "bound"
RESONANCE = "resonance"

#: Newton residual acceptance, relative to the larger of Omega's two terms.
RESIDUAL_RTOL = 1e-10

#: Most poles find_poles returns from one region.
MAX_POLES = 32

#: Allowance for the double-precision floor of Omega, relative to the
#: cancellation mass of its four internal products.  Needed for narrow
#: resonances, where both additive terms vanish together and their size
#: says nothing about the achievable residual.
RESIDUAL_FLOOR_RTOL = 1e-12


def pole_function(config: PotentialConfig, unit: UnitSystem, k):
    """Omega(k); zeros are the S-matrix poles."""
    t1, t2, _ = pole_function_terms(config, unit, k)
    return t1 + t2


@dataclass(frozen=True)
class Resonance:
    """A single S-matrix pole in wave number and energy form.

    k_res = k1 + i k2, and (kappa/2) k_res^2 = e_r - i gamma/2 for
    resonances.  gamma = |2 kappa k1 k2| is kept positive by convention;
    bound states carry gamma = 0 and an infinite lifetime.
    """

    k_res: complex
    e_r: float
    gamma: float
    tau: float
    kind: str


def _classify(unit: UnitSystem, k: complex) -> Resonance:
    """A bound state for k on the positive imaginary axis, else a resonance:
    every root handed in has Re k > 0 or lies on that axis."""
    k1, k2 = k.real, k.imag
    if abs(k1) <= 1e-9 * abs(k) and k2 > 0.0:
        kap = k2
        e0 = -0.5 * unit.kappa * kap * kap
        return Resonance(
            k_res=complex(0.0, kap),
            e_r=e0,
            gamma=0.0,
            tau=math.inf,
            kind=BOUND,
        )
    e = 0.5 * unit.kappa * k * k
    gamma = abs(2.0 * unit.kappa * k1 * k2)
    return Resonance(
        k_res=k,
        e_r=e.real,
        gamma=gamma,
        tau=(1.0 / gamma) if gamma > 0.0 else math.inf,
        kind=RESONANCE,
    )


def resonances(poles: list[Resonance]) -> list[Resonance]:
    """The positive-energy resonances among poles, lowest first."""
    return sorted((p for p in poles if p.kind == RESONANCE and p.e_r > 0.0), key=lambda p: p.e_r)


def _residual(t1, t2, mass) -> tuple[complex, bool]:
    """Omega at one point from its terms and cancellation mass, and whether
    it passes the Newton residual test: RESIDUAL_RTOL of the larger term
    plus RESIDUAL_FLOOR_RTOL of the cancellation mass."""
    f = complex(t1 + t2)
    tol = RESIDUAL_RTOL * max(abs(t1), abs(t2)) + RESIDUAL_FLOOR_RTOL * mass
    return f, bool(abs(f) <= tol + 1e-300)


def newton_pole(config: PotentialConfig, unit: UnitSystem, k0: complex) -> complex | None:
    """Newton iteration on Omega from seed k0; None if it fails to settle in 80 steps.

    Each iterate costs one closed-form call on the one point k, which gives
    the residual, its acceptance test and Omega' from one block build.
    Steps are clamped to half the current scale so a near-zero derivative
    cannot fling the iterate into overflow territory.
    """
    k = complex(k0)
    settled = False
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(81):
            t1, t2, mass, d_k, _ = pole_function_derivatives(config, unit, k)
            f, residual_ok = _residual(t1, t2, mass)
            if residual_ok and settled:
                return k
            if step == 80:
                return k if residual_ok else None
            fp = complex(d_k)
            if fp == 0.0 or not cmath.isfinite(fp):
                return None
            dk = -f / fp
            cap = 0.5 * (1.0 + abs(k))
            if abs(dk) > cap:
                dk *= cap / abs(dk)
            k = k + dk
            if not cmath.isfinite(k):
                return None
            settled = abs(dk) < 1e-13 * (1.0 + abs(k))


def find_bound_states(
    config: PotentialConfig,
    unit: UnitSystem,
    kappa_range: tuple[float, float] | None = None,
) -> list[Resonance]:
    """Bound-state poles k = i kappa0 on the positive imaginary axis.

    Omega(i kappa)/i is real, so a sign scan on 4000 points (one array
    call) plus bisection is exhaustive at the scan resolution;
    kappa < sqrt(2 v_well / kappa_unit) since a bound level cannot sit below
    the well floor.
    """
    kap_ceiling = math.sqrt(2.0 * config.v_well / unit.kappa) if config.v_well > 0 else 0.0
    if kap_ceiling == 0.0:
        return []
    lo, hi = kappa_range if kappa_range is not None else (0.0, kap_ceiling)
    lo = max(lo, 1e-9)
    hi = min(hi, kap_ceiling * (1.0 - 1e-12))
    if hi <= lo:
        return []

    def g(kap):
        return (pole_function(config, unit, 1j * kap) / 1j).real

    grid = np.linspace(lo, hi, 4000)
    vals = g(grid)
    roots = []
    sign = np.sign(vals)
    for i in np.nonzero(np.diff(sign) != 0)[0]:
        a, b = grid[i], grid[i + 1]
        ga = vals[i]
        for _ in range(200):
            m = 0.5 * (a + b)
            gm = g(m)
            if gm == 0.0:
                a = b = m
                break
            if (gm > 0) == (ga > 0):
                a, ga = m, gm
            else:
                b = m
            if b - a < 1e-15 * (1.0 + b):
                break
        roots.append(0.5 * (a + b))
    return [_classify(unit, complex(0.0, r)) for r in roots]


# ---------------------------------------------------------------------------
# argument principle on rectangles


def _arg_increment(config, unit, za, zb, fa, fb, depth):
    """Continuous change of arg Omega along the segment za -> zb, halved at
    most 48 times."""
    diff = cmath.phase(fb / fa) if fa != 0 and fb != 0 else math.pi
    if abs(diff) < 0.5 * math.pi:
        return diff
    if depth >= 48:
        raise RefinementError(
            f"winding refinement stalled near {za:.6g} .. {zb:.6g}",
            interval=(za, zb),
        )
    zm = 0.5 * (za + zb)
    fm = complex(pole_function(config, unit, zm))
    if fm == 0.0:  # sampled a root exactly; nudge off it
        zm += (zb - za) * 1e-7
        fm = complex(pole_function(config, unit, zm))
    return _arg_increment(config, unit, za, zm, fa, fm, depth + 1) + _arg_increment(
        config, unit, zm, zb, fm, fb, depth + 1
    )


def winding_number(
    config: PotentialConfig, unit: UnitSystem, rect: tuple[float, float, float, float]
) -> int:
    """Number of Omega roots strictly inside the rectangle (argument principle);
    each edge starts as 64 segments, split where the phase jumps.  The
    4 x 65 edge points go to one Omega call."""
    re_min, re_max, im_min, im_max = rect
    corners = np.array([
        complex(re_min, im_min),
        complex(re_max, im_min),
        complex(re_max, im_max),
        complex(re_min, im_max),
    ])
    a, b = corners[:, None], np.roll(corners, -1)[:, None]
    zs = a + (b - a) * np.linspace(0.0, 1.0, 65)
    fs = pole_function(config, unit, zs)
    total = 0.0
    for z_edge, f_edge in zip(zs.tolist(), fs.tolist()):
        for za, zb, fa, fb in zip(z_edge, z_edge[1:], f_edge, f_edge[1:]):
            total += _arg_increment(config, unit, za, zb, fa, fb, 0)
    w = total / (2.0 * math.pi)
    if abs(w - round(w)) > 0.05:
        raise RefinementError(f"winding number did not converge to an integer: {w}")
    return int(round(w))


def _delay_peak_seeds(config, unit, re_min, re_max):
    """Resonance seeds k1 - i gamma/(2 kappa k1) from Wigner delay maxima on
    300 points of [max(re_min, 1e-4), re_max], lowest k1 first.

    The 300 delays come from one delay_time call on the whole array.
    """
    ks = np.linspace(max(re_min, 1e-4), re_max, 300)
    dts = delay_time(config, unit, ks)
    mid = dts[1:-1]
    peak = 1 + np.flatnonzero((mid > dts[:-2]) & (mid >= dts[2:]) & (mid > 0.0))
    k1 = ks[peak]
    gamma = 4.0 / dts[peak]
    k2 = -gamma / (2.0 * unit.kappa * k1)
    return (k1 + 1j * k2).tolist()


def _rect_contains(rect, z):
    re_min, re_max, im_min, im_max = rect
    return re_min < z.real < re_max and im_min < z.imag < im_max


def _new_root(z, rect, found) -> bool:
    """Whether a Newton result is a root not yet found inside rect: it
    converged, lies inside, and is not within 1e-8 (1 + |z|) of a found root."""
    return (
        z is not None
        and _rect_contains(rect, z)
        and all(abs(z - y) > 1e-8 * (1 + abs(z)) for y in found)
    )


def _subdivide_search(config, unit, rect, found, depth=0):
    """Recursive bisection, at most 40 levels deep, until every root is
    pinned by Newton."""
    expected = winding_number(config, unit, rect)
    have = [z for z in found if _rect_contains(rect, z)]
    if expected == len(have):
        return
    if expected < len(have):
        raise IncompleteSearchError(
            f"winding count {expected} below roots already located in {rect}",
            found=len(have),
            expected=expected,
        )
    if depth >= 40:
        raise IncompleteSearchError(
            f"root isolation stalled in {rect}",
            found=len(have),
            expected=expected,
        )
    re_min, re_max, im_min, im_max = rect
    center = complex(0.5 * (re_min + re_max), 0.5 * (im_min + im_max))
    z = newton_pole(config, unit, center)
    if _new_root(z, rect, found):
        found.append(z)
        _subdivide_search(config, unit, rect, found, depth)
        return
    # split the longer side, slightly off middle so roots don't sit on the cut
    frac = 0.5000037
    if (re_max - re_min) >= (im_max - im_min):
        cut = re_min + frac * (re_max - re_min)
        halves = [(re_min, cut, im_min, im_max), (cut, re_max, im_min, im_max)]
    else:
        cut = im_min + frac * (im_max - im_min)
        halves = [(re_min, re_max, im_min, cut), (re_min, re_max, cut, im_max)]
    for h in halves:
        _subdivide_search(config, unit, h, found, depth + 1)


def find_poles(
    config: PotentialConfig,
    unit: UnitSystem,
    region: tuple[float, float, float, float],
) -> list[Resonance]:
    """All S-matrix poles inside a rectangle of the complex k plane.

    The rectangle is (re_min, re_max, im_min, im_max).  The part with
    Im k < 0, Re k > 0 is searched for resonances with an argument-principle
    certificate; if the rectangle covers a stretch of the positive imaginary
    axis, bound states on it are found by the 1-d real scan.  Output is
    deterministic and sorted by e_r; a region holding more than MAX_POLES
    poles is refused.
    """
    re_min, re_max, im_min, im_max = (float(v) for v in region)
    if not (re_min < re_max and im_min < im_max):
        raise InvalidArgumentError(f"degenerate region {region}")

    results: list[Resonance] = []

    if im_max > 0.0 and re_min <= 0.0 <= re_max:
        results.extend(find_bound_states(config, unit, kappa_range=(max(im_min, 0.0), im_max)))

    if im_min < 0.0 and re_max > 0.0:
        # virtual-state zeros sit exactly on the negative imaginary axis;
        # they are not resonances, so keep the contour clear of the axis
        left = max(re_min, 0.0)
        if left <= 0.0:
            left = 1e-4 * re_max
        rect = (left, re_max, im_min, min(im_max, 0.0))
        expected = winding_number(config, unit, rect)
        found: list[complex] = []
        if expected > 0:
            for seed in _delay_peak_seeds(config, unit, rect[0], rect[1]):
                if len(found) >= expected:
                    break
                z = newton_pole(config, unit, seed)
                if _new_root(z, rect, found):
                    found.append(z)
            if len(found) != expected:
                _subdivide_search(config, unit, rect, found)
            if len(found) != expected:
                raise IncompleteSearchError(
                    "resonance search incomplete",
                    found=len(found),
                    expected=expected,
                )
        results.extend(_classify(unit, z) for z in found)

    if len(results) > MAX_POLES:
        raise InvalidArgumentError(
            f"region holds {len(results)} poles, more than {MAX_POLES}"
        )
    return sorted(results, key=lambda r: (r.e_r, -r.gamma))


# ---------------------------------------------------------------------------
# iso-resonance curves


@dataclass(frozen=True)
class IsoResonanceCurve:
    """Barrier heights that hold Re(E_pole) fixed while the well depth varies;
    reason says why a truncated curve stopped."""

    v_well: np.ndarray
    v_barrier: np.ndarray
    gamma: np.ndarray
    k_res: np.ndarray
    e_r: np.ndarray
    truncated: bool
    reason: str | None


#: First-point search range of the barrier height.
ISO_BARRIER_BRACKET = (0.5, 4000.0)


def trace_iso_resonance(
    e_r_target: float,
    unit: UnitSystem,
    d: float,
    b: float,
    v_well_range: tuple[float, float] = (5.0, 350.0),
    n_points: int = 40,
) -> IsoResonanceCurve:
    """Continuation of one resonance along well depth at fixed Re(E_pole).

    Along the curve Re k^2 = a = 2 e_r_target / kappa is held exactly, and
    each point solves the real 2 x 2 system Re Omega = Im Omega = 0 for
    (s = Im k^2, v_barrier) by Newton, with dk/ds = i/(2k) and the
    closed-form Omega'.  The first point starts from the pole of a top-down
    barrier scan and is certified by one find_poles call as the lowest
    resonance.  Later points are predicted by a secant through the last two
    solved points and corrected; a corrector counts only if it converges in
    12 steps, each scaled step |(ds/a, dv/v)| at most half the one before,
    which keeps the iteration on the tracked family.  On failure the
    well-depth step is halved toward the last solved depth, and from a
    solved sub-depth (not emitted) the target is tried again; below a 1e-6
    relative step the curve is truncated and the reason recorded.  Nothing
    is extrapolated.
    """
    if e_r_target <= 0.0:
        raise InvalidArgumentError("e_r_target must be positive")
    if n_points < 2:
        raise InvalidArgumentError("n_points must be >= 2")
    v_wells = np.linspace(v_well_range[0], v_well_range[1], n_points)
    a = 2.0 * e_r_target / unit.kappa
    k_scale = math.sqrt(a)
    # any pole with e_r > 0 has |Im k| < Re k, so this depth misses nothing
    region = (0.25 * k_scale, 3.5 * k_scale, -3.5 * k_scale, 0.0)

    def config(v_well, v_barrier):
        return PotentialConfig(v_well=v_well, v_barrier=v_barrier, d=d, b=b)

    def lowest(v_well, v_barrier):
        found = resonances(find_poles(config(v_well, v_barrier), unit, region))
        return found[0] if found else None

    def correct(v_well, s, v_barrier):
        """Newton in (s, v_barrier); the converged (s, v_barrier, k) or None."""
        last = math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(13):
                k = cmath.sqrt(complex(a, s))
                t1, t2, mass, *derivatives = pole_function_derivatives(
                    config(v_well, v_barrier), unit, k
                )
                f, residual_ok = _residual(t1, t2, mass)
                if residual_ok and last < 1e-13:
                    return s, v_barrier, k
                if step == 12:
                    return None
                d_k, d_v = (complex(x) for x in derivatives)
                d_s = d_k * 1j / (2.0 * k)  # dk/ds = i/(2k)
                det = (d_s.conjugate() * d_v).imag
                if det == 0.0:
                    return None
                ds = -(f.conjugate() * d_v).imag / det
                dv = -(d_s.conjugate() * f).imag / det
                size = math.hypot(ds / a, dv / v_barrier)
                if not (size <= 0.5 * last and 0.0 < v_barrier + dv < math.inf):
                    return None
                s, v_barrier, last = s + ds, v_barrier + dv, size

    # first point: the scan walks the barrier DOWN from the top so the
    # bracket lands on the narrowest family that reaches the target, not on
    # a broad whole-cavity mode that happens to cross it at a near-zero
    # barrier; Newton starts from the bracket end nearer the target
    prev = start = None
    for vb in np.geomspace(ISO_BARRIER_BRACKET[1], ISO_BARRIER_BRACKET[0], 40).tolist():
        pole = lowest(v_wells[0], vb)
        if pole and prev and (pole.e_r > e_r_target) != (prev[1].e_r > e_r_target):
            start = min(prev, (vb, pole), key=lambda c: abs(c[1].e_r - e_r_target))
            break
        prev = (vb, pole) if pole else None
    if start is None:
        raise InvalidArgumentError(
            f"no barrier height in {ISO_BARRIER_BRACKET} puts the lowest resonance at {e_r_target}"
        )
    vb0, pole0 = start
    first = correct(v_wells[0], (pole0.k_res**2).imag, vb0)
    certified = lowest(v_wells[0], first[1]) if first is not None else None
    if certified is None or abs(certified.k_res - first[2]) > 1e-8 * (1.0 + abs(first[2])):
        raise InvalidArgumentError(
            f"Newton from the scan bracket at v_barrier={vb0:.6g} does not reach "
            f"the lowest resonance at {e_r_target}"
        )

    points = [_classify(unit, first[2])]
    out_vb = [first[1]]
    solved = [(v_wells[0], first[0], first[1])]  # (v_well, s, v_barrier)
    reason = None
    for target_vw in v_wells[1:]:
        step_vw = target_vw
        while True:
            # secant predictor, or the last point alone at the start
            (cur_vw, *cur), (old_vw, *old) = solved[-1], solved[max(len(solved) - 2, 0)]
            t = (step_vw - cur_vw) / (cur_vw - old_vw) if len(solved) > 1 else 0.0
            sol = correct(step_vw, *(c + t * (c - o) for c, o in zip(cur, old)))
            if sol is None:
                step_vw = cur_vw + 0.5 * (step_vw - cur_vw)
                if abs(step_vw - cur_vw) < 1e-6 * (1.0 + abs(cur_vw)):
                    reason = f"pole tracking lost between v_well={cur_vw:.6g} and {target_vw:.6g}"
                    break
                continue
            pole = _classify(unit, sol[2])
            if pole.gamma < 1e-10:
                reason = f"resonance width below the double-precision floor at v_well={step_vw:.6g}"
                break
            solved.append((step_vw, sol[0], sol[1]))
            if step_vw == target_vw:
                break
            step_vw = target_vw
        if reason is not None:
            break
        points.append(pole)
        out_vb.append(solved[-1][2])

    return IsoResonanceCurve(
        v_well=v_wells[: len(points)].copy(),
        v_barrier=np.array(out_vb),
        gamma=np.array([p.gamma for p in points]),
        k_res=np.array([p.k_res for p in points]),
        e_r=np.array([p.e_r for p in points]),
        truncated=reason is not None,
        reason=reason,
    )
