"""S-matrix poles: bound states, resonances, and iso-resonance curves.

The pole condition is Omega(k) = k J(k) + i R(k) = 0 with J, R as built in
scattering.py.  Omega is entire in k and even in both interior channel wave
numbers, so roots can be chased anywhere in the complex plane without branch
bookkeeping.  Roots on the positive imaginary axis are bound states (there
Omega/i is real), roots in the fourth quadrant are resonances, and their
mirror images under k -> -conj(k) are the anti-resonances.

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
from .scattering import delay_time, pole_function_terms

BOUND = "bound"
RESONANCE = "resonance"
ANTIRESONANCE = "antiresonance"

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

    k_res = k1 + i k2; e_complex = (kappa/2) k_res^2 = e_r - i gamma/2 for
    resonances.  gamma = |2 kappa k1 k2| is kept positive by convention;
    bound states carry gamma = 0 and an infinite lifetime.
    """

    k_res: complex
    e_complex: complex
    e_r: float
    gamma: float
    tau: float
    kind: str


def _classify(unit: UnitSystem, k: complex) -> Resonance:
    k1, k2 = k.real, k.imag
    if abs(k1) <= 1e-9 * abs(k) and k2 > 0.0:
        kap = k2
        e0 = -0.5 * unit.kappa * kap * kap
        return Resonance(
            k_res=complex(0.0, kap),
            e_complex=complex(e0, 0.0),
            e_r=e0,
            gamma=0.0,
            tau=math.inf,
            kind=BOUND,
        )
    e = 0.5 * unit.kappa * k * k
    gamma = abs(2.0 * unit.kappa * k1 * k2)
    kind = RESONANCE if k1 > 0.0 else ANTIRESONANCE
    return Resonance(
        k_res=k,
        e_complex=e,
        e_r=e.real,
        gamma=gamma,
        tau=(1.0 / gamma) if gamma > 0.0 else math.inf,
        kind=kind,
    )


def resonances(poles: list[Resonance]) -> list[Resonance]:
    """The positive-energy resonances among poles, lowest first."""
    return sorted((p for p in poles if p.kind == RESONANCE and p.e_r > 0.0), key=lambda p: p.e_r)


def newton_pole(config: PotentialConfig, unit: UnitSystem, k0: complex) -> complex | None:
    """Newton iteration on Omega from seed k0; None if it fails to settle in 80 steps.

    Each iterate costs one Omega call on k and k +- h, which gives the
    residual, its acceptance test and the central-difference derivative.
    Steps are clamped to half the current scale so a near-zero derivative
    cannot fling the iterate into overflow territory.
    """
    k = complex(k0)
    settled = False
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(81):
            h = 1e-7 * (1.0 + abs(k))
            t1, t2, mass = pole_function_terms(config, unit, np.array([k, k + h, k - h]))
            f, f_plus, f_minus = (t1 + t2).tolist()
            tol = RESIDUAL_RTOL * max(abs(t1[0]), abs(t2[0])) + RESIDUAL_FLOOR_RTOL * mass[0]
            residual_ok = abs(f) <= tol + 1e-300
            if residual_ok and settled:
                return k
            if step == 80:
                return k if residual_ok else None
            fp = (f_plus - f_minus) / (2.0 * h)
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


#: First-point search range of the barrier height, and the relative
#: tolerance on Re(E_pole) of every point of an iso-resonance curve.
ISO_BARRIER_BRACKET = (0.5, 4000.0)
ISO_RTOL = 1e-4


def trace_iso_resonance(
    e_r_target: float,
    unit: UnitSystem,
    d: float,
    b: float,
    v_well_range: tuple[float, float] = (5.0, 350.0),
    n_points: int = 40,
) -> IsoResonanceCurve:
    """Continuation of one resonance along well depth at fixed Re(E_pole).

    The first point comes from a bracketed 1-d solve in v_barrier on the
    lowest resonance; every later point reuses the previous pole as a Newton
    seed and adjusts v_barrier by secant steps.  If continuation fails the
    curve is truncated and the reason recorded; nothing is extrapolated.
    """
    if e_r_target <= 0.0:
        raise InvalidArgumentError("e_r_target must be positive")
    if n_points < 2:
        raise InvalidArgumentError("n_points must be >= 2")
    v_wells = np.linspace(v_well_range[0], v_well_range[1], n_points)
    k_scale = math.sqrt(2.0 * e_r_target / unit.kappa)
    # any pole with e_r > 0 has |Im k| < Re k, so this depth misses nothing
    region = (0.25 * k_scale, 3.5 * k_scale, -3.5 * k_scale, 0.0)

    def lowest_e_r(v_well, v_barrier):
        cfg = PotentialConfig(v_well=v_well, v_barrier=v_barrier, d=d, b=b)
        found = resonances(find_poles(cfg, unit, region))
        return (found[0].e_r, found[0]) if found else (None, None)

    # first point: geometric scan for a sign change, then bisection.  The
    # scan walks the barrier DOWN from the top so the bracket lands on the
    # narrowest family that reaches the target, not on a broad whole-cavity
    # mode that happens to cross it at a near-zero barrier.
    vb_lo, vb_hi = ISO_BARRIER_BRACKET
    scan = np.geomspace(vb_hi, max(vb_lo, 1e-3), 40)
    prev_v, prev_f = None, None
    bracket = None
    for vb in scan:
        er, _ = lowest_e_r(v_wells[0], vb)
        if er is None:
            prev_v, prev_f = None, None
            continue
        f = er - e_r_target
        if prev_f is not None and (f > 0) != (prev_f > 0):
            bracket = (prev_v, vb)
            break
        prev_v, prev_f = vb, f
    if bracket is None:
        raise InvalidArgumentError(
            f"no barrier height in {ISO_BARRIER_BRACKET} puts the lowest resonance at {e_r_target}"
        )
    a, bb = bracket
    fa = lowest_e_r(v_wells[0], a)[0] - e_r_target
    best = None
    for _ in range(80):
        m = 0.5 * (a + bb)
        fm_er, pole_m = lowest_e_r(v_wells[0], m)
        if fm_er is None:
            raise InvalidArgumentError(
                f"lowest resonance vanished inside the first-point bracket at v_barrier={m:.6g}"
            )
        fm = fm_er - e_r_target
        if best is None or abs(fm) < abs(best[0]):
            best = (fm, m, fm_er, pole_m)
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            bb = m
        # 3x inside the verification tolerance is enough; each probe is a
        # full certified pole search, so do not polish further
        if abs(fm) <= 0.3 * ISO_RTOL * e_r_target or abs(bb - a) < 1e-12 * (1 + bb):
            break
    _, vb0, er0, pole0 = best

    out_vb = [vb0]
    out_gamma = [pole0.gamma]
    out_k = [pole0.k_res]
    out_er = [er0]
    truncated, reason = False, None
    emitted = 1

    def track(v_well, v_barrier, seed):
        cfg = PotentialConfig(v_well=v_well, v_barrier=v_barrier, d=d, b=b)
        z = newton_pole(cfg, unit, seed)
        # very narrow poles can land a hair above the axis by roundoff
        if z is None or z.imag > 1e-9 or z.real <= 0.0:
            return None
        if abs(z - seed) > 0.5 * abs(seed) + 0.05:
            return None  # jumped to a different pole family
        if z.imag > 0.0:
            z = complex(z.real, 0.0)
        return _classify(unit, z)

    def solve_point(vw, vb_start, k_seed):
        """Secant in v_barrier holding the tracked pole at e_r_target."""
        vb_a, pole_a = vb_start, track(vw, vb_start, k_seed)
        if pole_a is None:
            return None
        f_a = pole_a.e_r - e_r_target
        if abs(f_a) <= ISO_RTOL * e_r_target:
            return vb_a, pole_a
        vb_b = vb_a * 1.02 + 0.5
        pole_b = track(vw, vb_b, pole_a.k_res)
        for _ in range(60):
            if pole_b is None:
                return None
            f_b = pole_b.e_r - e_r_target
            if abs(f_b) <= ISO_RTOL * e_r_target:
                return vb_b, pole_b
            if f_b == f_a:
                return None
            vb_next = vb_b - f_b * (vb_b - vb_a) / (f_b - f_a)
            if not math.isfinite(vb_next) or vb_next <= 0.0:
                return None
            vb_a, f_a = vb_b, f_b
            vb_b, pole_b = vb_next, track(vw, vb_next, pole_b.k_res)
        return None

    # continuation with adaptive sub-stepping in well depth: when a full
    # step loses the pole, solve intermediate depths first (not emitted)
    cur_vw, cur_vb, cur_k = v_wells[0], vb0, pole0.k_res
    for i in range(1, n_points):
        target_vw = v_wells[i]
        fail = None
        for _ in range(200):
            ok = solve_point(target_vw, cur_vb, cur_k)
            if ok is not None:
                break
            # halve toward the current depth until tracking reconnects
            step_vw = cur_vw + 0.5 * (target_vw - cur_vw)
            depth_ok = None
            for _ in range(24):
                depth_ok = solve_point(step_vw, cur_vb, cur_k)
                if depth_ok is not None:
                    break
                step_vw = cur_vw + 0.5 * (step_vw - cur_vw)
                if abs(step_vw - cur_vw) < 1e-6 * (1.0 + abs(cur_vw)):
                    break
            if depth_ok is None:
                fail = f"pole tracking lost between v_well={cur_vw:.6g} and {target_vw:.6g}"
                break
            vb_s, pole_s = depth_ok
            if pole_s.gamma < 1e-10:
                fail = (
                    f"resonance width below the double-precision floor near "
                    f"v_well={step_vw:.6g}"
                )
                break
            cur_vw, cur_vb, cur_k = step_vw, vb_s, pole_s.k_res
        else:
            fail = f"sub-step budget exhausted before v_well={target_vw:.6g}"
        if fail is not None:
            truncated, reason = True, fail
            break
        vb_i, pole_i = ok
        if pole_i.gamma < 1e-10:
            truncated, reason = (
                True,
                f"resonance width below the double-precision floor at v_well={target_vw:.6g}",
            )
            break
        out_vb.append(vb_i)
        out_gamma.append(pole_i.gamma)
        out_k.append(pole_i.k_res)
        out_er.append(pole_i.e_r)
        cur_vw, cur_vb, cur_k = target_vw, vb_i, pole_i.k_res
        emitted += 1

    return IsoResonanceCurve(
        v_well=v_wells[:emitted].copy(),
        v_barrier=np.array(out_vb),
        gamma=np.array(out_gamma),
        k_res=np.array(out_k),
        e_r=np.array(out_er),
        truncated=truncated,
        reason=reason,
    )
