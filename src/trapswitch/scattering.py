"""Stationary scattering states of the hard-wall well-barrier potential.

With the wall at x = 0, the scattering ansatz at wave number k > 0 is

    psi_k(x) = (1/sqrt(2 pi)) * [ C1 e^{iqx}  + C2 e^{-iqx}  ]   0 <= x <= d
             = (1/sqrt(2 pi)) * [ C3 e^{iq'x} + C4 e^{-iq'x} ]   d <= x <= d+b
             = (1/sqrt(2 pi)) * [ e^{-ikx} - S(k) e^{ikx} ]      x >= d+b

with q = sqrt(k^2 + 2 v_well/kappa) and q' = sqrt(k^2 - 2 v_barrier/kappa).
Matching the wall (C2 = -C1) and the two interior joints gives, in terms of

    J(k) = d sinc(qd) cos(q'b) + b cos(qd) sinc(q'b)        (sinc z = sin z / z)
    R(k) = cos(qd) cos(q'b) - q'^2 d b sinc(qd) sinc(q'b)

the closed forms

    S(k)    = -e^{-2ikL} (kJ - iR) / (kJ + iR),   L = d + b
    Omega(k) = kJ + iR                             (pole condition, see poles.py)

J and R depend on q and q' only through their squares, so no square-root
branch can affect any observable; both are entire in k, which also covers
k at a channel threshold (q or q' = 0) through the sinc limits.  For real k
both J and R are real and |S| = 1 identically, and so are q^2 and q'^2:
inside the trap psi_k is a complex amplitude times a real standing wave
(`trap_waves`), which the projection onto these states evaluates in real
arithmetic.
"""

import math

import numpy as np

from .errors import InvalidArgumentError, RefinementError
from .model import PotentialConfig, UnitSystem

_TWO_PI_SQRT = math.sqrt(2.0 * math.pi)


def cardinal_sine(z):
    """sin(z)/z for complex arrays, with the series used near z = 0; the
    series is evaluated only when some |z| needs it."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    if not small.any():
        return np.sin(z) / z
    zs = np.where(small, 1.0, z)
    return np.where(small, 1.0 - z * z / 6.0 + z**4 / 120.0, np.sin(zs) / zs)


#: Taylor coefficients of u(z) = (sinc z - cos z)/z^2 in z^2, highest first:
#: (-1)^m 2 (m + 1)/(2m + 3)!, m < 8, which leave < 1e-18 for |z| < 0.5.
_U_SERIES = [(-1) ** m * 2 * (m + 1) / math.factorial(2 * m + 3) for m in range(7, -1, -1)]


def _sinc_minus_cos_over_z2(z):
    """u(z) for complex arrays; the direct form loses ~3/|z|^2 ulps to
    cancellation, so the series is used for |z| < 0.5, and evaluated only
    when some |z| needs it."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 0.5
    if not small.any():
        return (np.sin(z) / z - np.cos(z)) / (z * z)
    zs = np.where(small, 1.0, z)
    z2, series = z * z, 0.0
    for c in _U_SERIES:  # Horner in z^2
        series = series * z2 + c
    return np.where(small, series, (np.sin(zs) / zs - np.cos(zs)) / (zs * zs))


def _interior_blocks(config: PotentialConfig, unit: UnitSystem, k):
    """Return (q, p, p2, cw, sw, cb, sb) with p = q', p2 = q'^2 and
    sw = sin(qd)/q, sb = sin(q'b)/q'."""
    k = np.asarray(k, dtype=complex)
    q2 = k * k + 2.0 * config.v_well / unit.kappa
    p2 = k * k - 2.0 * config.v_barrier / unit.kappa
    q = np.sqrt(q2)
    p = np.sqrt(p2)
    cw = np.cos(q * config.d)
    sw = config.d * cardinal_sine(q * config.d)
    cb = np.cos(p * config.b)
    sb = config.b * cardinal_sine(p * config.b)
    return q, p, p2, cw, sw, cb, sb


def _pole_terms(k, p2, cw, sw, cb, sb):
    """(k J, i R, cancellation mass) from the interior blocks at k."""
    j_well, j_barrier = sw * cb, cw * sb  # J = j_well + j_barrier
    r_cos, r_sin = cw * cb, p2 * sw * sb  # R = r_cos - r_sin
    mass = np.abs(k) * (np.abs(j_well) + np.abs(j_barrier)) + np.abs(r_cos) + np.abs(r_sin)
    return k * (j_well + j_barrier), 1j * (r_cos - r_sin), mass


def pole_function_terms(config: PotentialConfig, unit: UnitSystem, k):
    """The two additive terms (k J, i R) whose sum vanishes at an S-matrix
    pole, and their cancellation mass, the sum of |.| of the four products.

    Near narrow resonances both k J and R vanish together, so the terms
    themselves understate the rounding floor of their sum; the mass does not.
    """
    k = np.asarray(k, dtype=complex)
    return _pole_terms(k, *_interior_blocks(config, unit, k)[2:])


def pole_function_derivatives(config: PotentialConfig, unit: UnitSystem, k):
    """Omega's terms and derivatives at complex k, from one block build:
    (k J, i R, cancellation mass) as `pole_function_terms` gives them, then
    dOmega/dk and dOmega/dv_barrier.

    J and R are bilinear in the well blocks (cw, sw) and in the barrier
    blocks (cb, sb), which depend on k only through q^2 and q'^2, with
    d(sin(qd)/q)/dq^2 = -(d^3/2) u(qd) and d(cos qd)/dq^2 = -(d/2) sin(qd)/q
    (likewise q', b).  So dOmega/dq^2 is Omega on the differentiated well
    blocks, and dOmega/dq'^2 is Omega on the differentiated barrier blocks
    less i sw sb, from the explicit q'^2 in R.  Both are entire in k.
    """
    k = np.asarray(k, dtype=complex)
    q, p, p2, cw, sw, cb, sb = _interior_blocks(config, unit, k)
    d, b = config.d, config.b
    cw_q, sw_q = -0.5 * d * sw, -0.5 * d**3 * _sinc_minus_cos_over_z2(q * d)
    cb_p, sb_p = -0.5 * b * sb, -0.5 * b**3 * _sinc_minus_cos_over_z2(p * b)
    omega_q = sum(_pole_terms(k, p2, cw_q, sw_q, cb, sb)[:2])
    omega_p = sum(_pole_terms(k, p2, cw, sw, cb_p, sb_p)[:2]) - 1j * sw * sb
    # dq^2/dk = dq'^2/dk = 2k and dq'^2/dv_barrier = -2/kappa
    d_k = sw * cb + cw * sb + 2.0 * k * (omega_q + omega_p)
    return (*_pole_terms(k, p2, cw, sw, cb, sb), d_k, -2.0 / unit.kappa * omega_p)


def _checked_k(k) -> np.ndarray:
    """k as a float array, refused unless every element is finite and > 0;
    the error names the first bad value."""
    k = np.asarray(k, dtype=float)
    bad = ~(np.isfinite(k) & (k > 0.0))
    if np.any(bad):
        first = float(k[bad].flat[0])
        raise InvalidArgumentError(f"k must be finite and positive, got k = {first}")
    return k


def s_matrix(config: PotentialConfig, unit: UnitSystem, k):
    """S(k) for real finite k > 0, a scalar or an array of any shape;
    unitary by construction."""
    k = _checked_k(k)
    t1, t2, _ = pole_function_terms(config, unit, k)
    length = config.d + config.b
    return -np.exp(-2j * k * length) * (t1 - t2) / (t1 + t2)


def _standing_pair(z2: np.ndarray, u: np.ndarray):
    """cos(z u) and sin(z u)/z for real z2 = z^2 of either sign, one row per
    z2 and one column per u: cosh(|z| u) and sinh(|z| u)/|z| where z2 < 0,
    and 1 and u where z2 = 0.  Each row takes one branch, in real arithmetic."""
    cos_w = np.ones((z2.size, u.size))
    sin_w = np.broadcast_to(u, cos_w.shape).copy()
    for rows, cos, sin in ((z2 > 0.0, np.cos, np.sin), (z2 < 0.0, np.cosh, np.sinh)):
        if rows.any():
            z = np.sqrt(np.abs(z2[rows]))[:, None]
            arg = z * u
            cos_w[rows] = cos(arg)
            sin_w[rows] = sin(arg) / z
    return cos_w, sin_w


def trap_waves(config: PotentialConfig, unit: UnitSystem, k: np.ndarray, x: np.ndarray):
    """psi_k inside the trap as a complex amplitude times a real standing
    wave, and S(k): (amp, wave, s) with psi_k(x_j) = amp[i] wave[i, j].

    k is a 1-d array of finite wave numbers k > 0 and x a 1-d array of nodes
    x <= d + b; the wave vanishes at and behind the wall, x <= 0.  At real k
    both q^2 and q'^2 are real, so the wave is sin(qx)/q in the well and
    continues into the barrier as sw cos(q'u) + cw sin(q'u)/q', u = x - d,
    with sw = sin(qd)/q and cw = cos(qd) its value and slope at d (cosh and
    sinh where q'^2 < 0).  The same blocks at u = b give J and R, so
    Omega = kJ + iR, amp = 2k e^{-ikL}/(Omega sqrt(2 pi)) and
    S = -e^{-2ikL} conj(Omega)/Omega, L = d + b.
    """
    d, b = config.d, config.b
    length = d + b
    q = np.sqrt(k * k + 2.0 * config.v_well / unit.kappa)[:, None]
    p2 = k * k - 2.0 * config.v_barrier / unit.kappa
    well = x <= d
    u = np.append(x[~well] - d, b)  # the barrier's nodes, then its far end
    cb_u, sb_u = _standing_pair(p2, u)
    cw, sw = np.cos(q * d), np.sin(q * d) / q
    jj = sw[:, 0] * cb_u[:, -1] + cw[:, 0] * sb_u[:, -1]
    rr = cw[:, 0] * cb_u[:, -1] - p2 * sw[:, 0] * sb_u[:, -1]
    omega = k * jj + 1j * rr
    turn = np.exp(-1j * k * length)
    amp = 2.0 * k * turn / (omega * _TWO_PI_SQRT)
    s = -turn * turn * omega.conj() / omega
    wave = np.empty((k.size, x.size))
    wave[:, well] = np.sin(q * np.maximum(x[well], 0.0)) / q
    wave[:, ~well] = sw * cb_u[:, :-1] + cw * sb_u[:, :-1]
    return amp, wave, s


def evaluate_scattering_state(config: PotentialConfig, unit: UnitSystem, k, x) -> np.ndarray:
    """psi_k on an array of coordinates, delta-normalized in k.

    k is a scalar or a 1-d array of wave numbers, each finite and positive;
    the result has shape k.shape + x.shape, one row per k.  Inside the trap
    it is `trap_waves`' amplitude times its real standing wave, which stays
    finite at channel thresholds and references no square-root branch;
    past d + b it is (e^{-ikx} - S e^{ikx})/sqrt(2 pi).
    """
    k = _checked_k(k)
    if k.ndim > 1:
        raise InvalidArgumentError(f"k must be a scalar or a 1-d array, got shape {k.shape}")
    x = np.asarray(x, dtype=float)
    xs = x.ravel()
    inside = xs <= config.d + config.b
    amp, wave, s = trap_waves(config, unit, k.reshape(-1), xs[inside])
    kc = k.reshape(-1, 1)  # one row per k, one column per node
    out = np.empty((kc.shape[0], xs.size), dtype=complex)
    out[:, inside] = amp[:, None] * wave
    plane = np.exp(1j * kc * xs[~inside])
    out[:, ~inside] = (plane.conj() - s[:, None] * plane) / _TWO_PI_SQRT
    return out.reshape(k.shape + x.shape)


def _wrap_half_pi(diff):
    """Reduce phase-shift differences into (-pi/2, pi/2], elementwise."""
    return -(np.remainder(-diff + 0.5 * math.pi, math.pi) - 0.5 * math.pi)


def _raw_phase(config: PotentialConfig, unit: UnitSystem, k):
    """Principal-branch delta(k) = arg S(k) / 2."""
    return 0.5 * np.angle(s_matrix(config, unit, k))


def phase_shift_curve(config: PotentialConfig, unit: UnitSystem, k_grid: np.ndarray) -> np.ndarray:
    """Continuous phase shift delta(k) on an increasing grid of real finite
    k > 0.

    S = e^{2 i delta} defines delta modulo pi; the curve is anchored at the
    principal value of the first node and stitched with pi jumps removed.
    Each interval is checked by midpoint refinement: the two half-steps must
    agree with the direct step, otherwise the interval is subdivided, up to
    26 halvings, after which a refinement error names the offending
    interval.  The raw phases on the grid come from one S-matrix call, and
    the first midpoint of every interval from one more; only the intervals
    that fail that check are refined further, one scalar call per midpoint.
    """
    k_grid = _checked_k(k_grid)
    if k_grid.ndim != 1 or k_grid.size < 2:
        raise InvalidArgumentError("k_grid must be a 1-d array with >= 2 nodes")
    if np.any(np.diff(k_grid) <= 0.0):
        raise InvalidArgumentError("k_grid must be strictly increasing")

    def step(ka, da, kb, db, depth):
        """Continuous increment of delta from ka to kb (raw values da, db)."""
        direct = _wrap_half_pi(db - da)
        if depth >= 26:
            raise RefinementError(
                f"phase unwrap did not settle on [{ka:.9g}, {kb:.9g}]",
                interval=(ka, kb),
            )
        km = 0.5 * (ka + kb)
        dm = float(_raw_phase(config, unit, km))
        left = _wrap_half_pi(dm - da)
        right = _wrap_half_pi(db - dm)
        if abs((left + right) - direct) < 1e-9:
            return direct
        return step(ka, da, km, dm, depth + 1) + step(km, dm, kb, db, depth + 1)

    # depth 0 of step() for every interval at once
    raw = _raw_phase(config, unit, k_grid)
    k_mid = 0.5 * (k_grid[:-1] + k_grid[1:])
    raw_mid = _raw_phase(config, unit, k_mid)
    inc = _wrap_half_pi(np.diff(raw))
    halves = _wrap_half_pi(raw_mid - raw[:-1]) + _wrap_half_pi(raw[1:] - raw_mid)
    for i in np.flatnonzero(~(np.abs(halves - inc) < 1e-9)):
        inc[i] = step(k_grid[i], raw[i], k_mid[i], raw_mid[i], 1) + step(
            k_mid[i], raw_mid[i], k_grid[i + 1], raw[i + 1], 1
        )
    return np.cumsum(np.concatenate((raw[:1], inc)))


def delay_time(config: PotentialConfig, unit: UnitSystem, k):
    """Wigner delay 2 hbar d delta/dE = (2/(kappa k)) d delta/dk at real
    finite k > 0.

    k is a scalar or an array of any shape; a scalar gives a float, an array
    an array of its shape.  At real k, S = -e^{-2ikL} conj(Omega)/Omega, so
    d delta/dk = -L - Im(Omega'/Omega) exactly, from one block build of Omega
    and Omega' on the whole array; no phase is differenced or unwrapped.
    """
    k = _checked_k(k)
    t1, t2, _, d_k, _ = pole_function_derivatives(config, unit, k)
    dddk = -(config.d + config.b) - np.imag(d_k / (t1 + t2))
    out = 2.0 / (unit.kappa * k) * dddk
    return float(out) if out.ndim == 0 else out
