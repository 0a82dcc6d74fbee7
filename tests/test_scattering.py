"""Scattering-side checks against independent references.

The transfer-matrix result is compared with direct numerical integration of
the stationary equation, with the closed form for a bare well, with finite
differences of the stitched phase curve, and with 40-digit mpmath
evaluations of the pole function and of the Wigner delay.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from trapswitch import scattering
from trapswitch.errors import InvalidArgumentError
from trapswitch.model import PotentialConfig
from trapswitch.scattering import (
    _U_SERIES,
    _sinc_minus_cos_over_z2,
    cardinal_sine,
    delay_time,
    evaluate_scattering_state,
    phase_shift_curve,
    pole_function_derivatives,
    pole_function_terms,
    s_matrix,
    trap_waves,
)

from complex_state_oracle import scattering_state_complex
from frozen import E_RES, FINAL, GAMMA_RES, K_RES, KAPPA
from pointwise_oracle import delay_time_pointwise, phase_shift_curve_pointwise
from trapswitch.spectra import lowest_resonance


def _potential(cfg, x):
    """The trap's piecewise potential at one point x > 0, written out here
    so that the ODE oracle shares no code with the package."""
    if x <= cfg.d:
        return -cfg.v_well
    if x <= cfg.d + cfg.b:
        return cfg.v_barrier
    return 0.0


def _s_from_ode(cfg, unit, k):
    """S(k) from high-order integration of the radial equation."""
    length = cfg.d + cfg.b

    def rhs(x, y):
        v = _potential(cfg, x)
        return [y[1], (2.0 * (v - 0.5 * unit.kappa * k * k) / unit.kappa) * y[0]]

    sol = solve_ivp(rhs, (1e-9, length), [1e-9, 1.0], rtol=1e-12, atol=1e-14,
                    method="DOP853")
    f, fp = sol.y[0][-1], sol.y[1][-1]
    num = (fp + 1j * k * f) * cmath.exp(-1j * k * length)
    den = (fp - 1j * k * f) * cmath.exp(1j * k * length)
    return num / den


@pytest.mark.parametrize("k", [0.08, K_RES.real, 0.77])
def test_s_matrix_matches_ode_integration(unit, k):
    s_pkg = complex(s_matrix(FINAL, unit, np.array([k]))[0])
    s_ode = _s_from_ode(FINAL, unit, k)
    assert abs(s_pkg - s_ode) < 1e-8


@pytest.mark.parametrize("k", [0.05, 0.21, 0.9])
def test_s_matrix_bare_well_closed_form(unit, k):
    # zero barrier height reduces the system to wall + well
    cfg = PotentialConfig(v_well=100.0, v_barrier=0.0, d=5.0, b=10.0)
    q = math.sqrt(k * k + 2.0 * cfg.v_well / unit.kappa)
    u = q / math.tan(q * cfg.d)
    s_ref = cmath.exp(-2j * k * cfg.d) * (u + 1j * k) / (u - 1j * k)
    s_pkg = complex(s_matrix(cfg, unit, np.array([k]))[0])
    assert abs(s_pkg - s_ref) < 1e-12


def test_s_matrix_unitary_on_random_draws(unit):
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(100):
        cfg = PotentialConfig(
            v_well=rng.uniform(5.0, 400.0),
            v_barrier=rng.uniform(0.0, 500.0),
            d=rng.uniform(1.0, 8.0),
            b=rng.uniform(2.0, 15.0),
        )
        k = rng.uniform(0.02, 1.2)
        s = complex(s_matrix(cfg, unit, np.array([k]))[0])
        worst = max(worst, abs(abs(s) - 1.0))
    assert worst < 1e-10


def test_s_matrix_smooth_across_barrier_threshold(unit):
    # the barrier channel momentum changes branch at k*; S must not notice
    k_star = math.sqrt(2.0 * FINAL.v_barrier / unit.kappa)
    ks = np.array([k_star - 1e-6, k_star - 1e-9, k_star, k_star + 1e-9, k_star + 1e-6])
    s = s_matrix(FINAL, unit, ks)
    assert np.all(np.abs(np.diff(s)) < 1e-4)
    assert np.all(np.isfinite(s))


def test_s_matrix_rejects_nonpositive_k(unit):
    with pytest.raises(InvalidArgumentError):
        s_matrix(FINAL, unit, np.array([0.3, -0.1]))
    with pytest.raises(InvalidArgumentError):
        delay_time(FINAL, unit, 0.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_s_matrix_rejects_a_non_finite_k(unit, bad):
    # S(inf) used to come back as NaN without a word
    with pytest.raises(InvalidArgumentError, match=f"k = {bad}"):
        s_matrix(FINAL, unit, bad)
    with pytest.raises(InvalidArgumentError, match=f"k = {bad}"):
        s_matrix(FINAL, unit, np.array([0.3, bad, 0.0]))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_delay_time_rejects_a_non_finite_k(unit, bad):
    with pytest.raises(InvalidArgumentError, match=f"k = {bad}"):
        delay_time(FINAL, unit, bad)
    with pytest.raises(InvalidArgumentError, match=f"k = {bad}"):
        delay_time(FINAL, unit, np.array([[0.3, 0.4], [bad, 0.5]]))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_phase_curve_rejects_a_non_finite_node(unit, bad):
    # a NaN or inf node used to run 26 halvings and then report an unwrap
    # that did not settle
    with pytest.raises(InvalidArgumentError, match=f"k = {bad}"):
        phase_shift_curve(FINAL, unit, np.array([0.3, bad, 0.5]))
    with pytest.raises(InvalidArgumentError, match=f"k = {bad}"):
        phase_shift_curve(FINAL, unit, np.array([0.3, 0.5, bad]))


def test_scattering_state_matches_ode_profile(unit):
    k = 0.29
    x = np.linspace(0.0, 40.0, 801)
    psi = evaluate_scattering_state(FINAL, unit, k, x)
    assert psi[0] == 0.0  # hard wall

    def rhs(t, y):
        v = _potential(FINAL, t)
        return [y[1], (2.0 * (v - 0.5 * unit.kappa * k * k) / unit.kappa) * y[0]]

    sol = solve_ivp(rhs, (1e-9, 40.0), [0.0, 1.0], t_eval=np.clip(x, 1e-9, None),
                    rtol=1e-12, atol=1e-14, method="DOP853")
    ref = sol.y[0]
    scale = psi[200] / ref[200]
    err = np.max(np.abs(psi - scale * ref)) / np.max(np.abs(psi))
    assert err < 1e-7


@pytest.mark.parametrize("k", [0.11, K_RES.real, 0.64])
def test_scattering_state_continuous_at_region_joins(unit, k):
    for x0 in (FINAL.d, FINAL.outer_edge):
        lo = evaluate_scattering_state(FINAL, unit, k, np.array([x0 - 1e-9]))[0]
        hi = evaluate_scattering_state(FINAL, unit, k, np.array([x0 + 1e-9]))[0]
        assert abs(hi - lo) < 1e-6 * (1.0 + abs(lo))


def test_array_k_scattering_state_matches_the_scalar_calls(unit):
    # nodes in all three regions, on both sides of each join
    x = np.linspace(0.0, 60.0, 1201)
    k = np.array([0.03, 0.2, K_RES.real, math.sqrt(2.0 * FINAL.v_barrier / KAPPA), 0.9, 1.7])
    rows = evaluate_scattering_state(FINAL, unit, k, x)
    assert rows.shape == k.shape + x.shape
    for kk, row in zip(k, rows):
        scalar = evaluate_scattering_state(FINAL, unit, float(kk), x)
        assert scalar.shape == x.shape
        assert np.max(np.abs(row - scalar)) <= 1e-15 * np.max(np.abs(scalar))


@pytest.mark.parametrize("dx", [0.15, 0.1], ids=["spectrum-grid", "scan-grid"])
def test_standing_waves_match_the_complex_oracle(unit, dx):
    # the projection's two node grids, on into the free region; energies
    # below, at and above the barrier top, where q'^2 < 0, = 0 and > 0,
    # and next to it, where |q'| is tiny
    x = dx * np.arange(int(round(30.0 / dx)) + 1)
    c = 2.0 * FINAL.v_barrier / unit.kappa
    top = math.sqrt(c)
    assert top * top - c == 0.0  # k^2 = 2 v_b/kappa exactly
    near = [top * (1.0 + r) for r in (-1e-9, -1e-15, 1e-15, 1e-9)]
    k = np.concatenate([
        np.sqrt(2.0 * np.linspace(0.5, 3000.0, 1500) / unit.kappa),
        [top, np.nextafter(top, 0.0), np.nextafter(top, 1.0), *near, K_RES.real],
    ])
    new = evaluate_scattering_state(FINAL, unit, k, x)
    old = scattering_state_complex(FINAL, unit, k, x)
    err = np.max(np.abs(new - old), axis=1) / np.max(np.abs(old), axis=1)
    assert np.max(err) <= 1e-13, f"worst row {np.argmax(err)}: {np.max(err):.2e}"


def test_trap_waves_factor_the_state_into_a_real_wave(unit):
    # psi_k inside the trap is the amplitude times the real wave, and the
    # S-matrix that comes with them is s_matrix's
    x = np.linspace(-0.5, FINAL.outer_edge, 161)
    k = np.array([0.05, 0.3, math.sqrt(2.0 * FINAL.v_barrier / KAPPA), 0.9])
    amp, wave, s = trap_waves(FINAL, unit, k, x)
    assert wave.dtype == np.float64 and np.all(wave[:, x <= 0.0] == 0.0)
    np.testing.assert_array_equal(amp[:, None] * wave, evaluate_scattering_state(FINAL, unit, k, x))
    assert np.max(np.abs(s - s_matrix(FINAL, unit, k))) <= 1e-14


@pytest.mark.parametrize("bad", [0.0, -0.2, math.nan, math.inf])
def test_scattering_state_rejects_a_bad_k_in_the_array(unit, bad):
    x = np.linspace(0.0, 30.0, 11)
    with pytest.raises(InvalidArgumentError, match="k = "):
        evaluate_scattering_state(FINAL, unit, np.array([0.3, bad, 0.5]), x)
    with pytest.raises(InvalidArgumentError, match="k = "):
        evaluate_scattering_state(FINAL, unit, bad, x)


def test_scattering_state_free_form_outside(unit):
    k = 0.41
    s = complex(s_matrix(FINAL, unit, np.array([k]))[0])
    x = np.array([18.0, 31.7])
    psi = evaluate_scattering_state(FINAL, unit, k, x)
    pref = 1.0 / math.sqrt(2.0 * math.pi)
    ref = pref * (np.exp(-1j * k * x) - s * np.exp(1j * k * x))
    assert np.max(np.abs(psi - ref)) < 1e-12
    assert abs(abs(s) - 1.0) < 1e-12


def test_phase_curve_is_stitched_continuously(unit):
    k = np.linspace(0.05, 0.8, 900)
    delta = phase_shift_curve(FINAL, unit, k)
    assert np.all(np.abs(np.diff(delta)) < 0.5 * math.pi)
    # the narrow resonance flips the phase by about pi on top of a slowly
    # falling hard-sphere background
    kr = K_RES.real
    i_lo = np.searchsorted(k, kr - 0.02)
    i_hi = np.searchsorted(k, kr + 0.02)
    assert 2.3 < delta[i_hi] - delta[i_lo] < 3.3


def _shipped_delay_grid(unit):
    # the k grid of the shipped delay-spectrum experiment (10 widths, 800 points)
    res = lowest_resonance(FINAL, unit)
    e = np.linspace(res.e_r - 10.0 * res.gamma, res.e_r + 10.0 * res.gamma, 800)
    return np.sqrt(2.0 * e / unit.kappa)


@pytest.mark.parametrize("grid", ["shipped", "coarse"])
def test_phase_curve_equals_the_depth_first_oracle_bit_for_bit(monkeypatch, unit, grid):
    # the first midpoint round is one array call; on the coarse 40-point
    # grid the interval holding the resonance fails it and is refined two
    # levels further by the scalar recursion
    k = _shipped_delay_grid(unit) if grid == "shipped" else np.linspace(0.0675, 0.8, 40)
    sizes = []

    def counted(config, unit, kk):
        sizes.append(np.size(kk))
        return raw_phase(config, unit, kk)

    raw_phase = scattering._raw_phase
    monkeypatch.setattr(scattering, "_raw_phase", counted)
    delta = phase_shift_curve(FINAL, unit, k)
    monkeypatch.undo()
    assert delta.tobytes() == phase_shift_curve_pointwise(FINAL, unit, k).tobytes()
    assert sizes[:2] == [k.size, k.size - 1]
    if grid == "shipped":
        assert len(sizes) == 2  # no scalar S-matrix call
    else:
        assert len(sizes) >= 2 + 4 and set(sizes[2:]) == {1}


def test_delay_time_matches_phase_slope(unit):
    k0 = K_RES.real
    h = 2e-6
    kg = np.array([k0 - h, k0, k0 + h])
    delta = phase_shift_curve(FINAL, unit, kg)
    slope = (delta[2] - delta[0]) / (2.0 * h)
    ref = 2.0 * slope / (unit.kappa * k0)
    assert delay_time(FINAL, unit, k0) == pytest.approx(ref, rel=1e-3)


def test_delay_time_peaks_at_resonance(unit):
    kr = K_RES.real
    on = delay_time(FINAL, unit, kr)
    off = delay_time(FINAL, unit, 0.9 * kr)
    assert on > 10.0 * abs(off)
    assert on == pytest.approx(1.6185164051843632, rel=1e-6)


def _delay_mp(cfg, kappa, k):
    """2 hbar d delta/dE at 40 digits, from S = -e^{-2ikL} (kJ - iR)/(kJ + iR)
    differentiated numerically: d delta/dk = Im(S'/S)/2."""
    length = mpmath.mpf(cfg.d) + mpmath.mpf(cfg.b)
    vb = mpmath.mpf(cfg.v_barrier)

    def s_of(z):
        omega = _omega_mp(cfg, kappa, z, vb)
        return -mpmath.exp(-2j * z * length) * mpmath.conj(omega) / omega

    km = mpmath.mpf(k)
    return 2 / (kappa * km) * mpmath.im(mpmath.diff(s_of, km) / s_of(km)) / 2


@pytest.mark.parametrize(
    "k",
    [
        0.05,
        0.9 * K_RES.real,
        K_RES.real,
        math.sqrt(2.0 * (E_RES + 3.0 * GAMMA_RES) / KAPPA),
        math.sqrt(2.0 * FINAL.v_barrier / KAPPA),  # barrier top
        0.77,
        1.3,
    ],
)
def test_delay_time_matches_mpmath(unit, k):
    with mpmath.workdps(40):
        ref = float(_delay_mp(FINAL, mpmath.mpf(unit.kappa), k))
    assert abs(delay_time(FINAL, unit, k) - ref) <= 1e-12 * abs(ref)


def test_array_delay_time_matches_the_pointwise_oracle(unit):
    # the shipped delay-spectrum grid: 800 energies within 10 widths of the
    # pole; the oracle's Richardson difference is good to ~1e-12 of the peak
    e = np.linspace(E_RES - 10.0 * GAMMA_RES, E_RES + 10.0 * GAMMA_RES, 800)
    k = np.sqrt(2.0 * e / unit.kappa)
    delays = delay_time(FINAL, unit, k)
    oracle = np.array([delay_time_pointwise(FINAL, unit, float(kk)) for kk in k])
    assert delays.shape == k.shape
    assert np.max(np.abs(delays - oracle)) <= 1e-10 * np.max(np.abs(oracle))


def test_delay_time_keeps_the_shape_of_its_argument(unit):
    k0 = K_RES.real
    scalar = delay_time(FINAL, unit, k0)
    assert isinstance(scalar, float)
    grid = delay_time(FINAL, unit, np.full((2, 3), k0))
    assert grid.shape == (2, 3)
    assert np.all(np.abs(grid - scalar) <= 1e-10 * abs(scalar))
    with pytest.raises(InvalidArgumentError):
        delay_time(FINAL, unit, np.array([k0, 0.0]))


def _omega_mp(cfg, kappa, k, v_barrier):
    """Omega = k J + i R at 40 digits, written with mpmath's sinc."""
    d, b = mpmath.mpf(cfg.d), mpmath.mpf(cfg.b)
    q = mpmath.sqrt(k * k + 2 * mpmath.mpf(cfg.v_well) / kappa)
    p = mpmath.sqrt(k * k - 2 * v_barrier / kappa)
    j = d * mpmath.sinc(q * d) * mpmath.cos(p * b) + b * mpmath.cos(q * d) * mpmath.sinc(p * b)
    r = mpmath.cos(q * d) * mpmath.cos(p * b) - p * p * d * b * mpmath.sinc(q * d) * mpmath.sinc(p * b)
    return k * j + 1j * r


_BROAD = PotentialConfig(v_well=5.0, v_barrier=20.0, d=5.0, b=10.0)


@pytest.mark.parametrize(
    "cfg, k",
    [
        (FINAL, K_RES),
        (FINAL, complex(K_RES.real, -1e-9)),  # width near the tracer's floor
        (FINAL, complex(math.sqrt(2.0 * FINAL.v_barrier / KAPPA), 0.0)),  # p^2 ~ 0
        (FINAL, complex(math.sqrt(2.0 * FINAL.v_barrier / KAPPA + 0.04**2), 0.0)),  # p b = 0.4
        (_BROAD, 0.20844194102476793 - 0.0670774836468963j),  # broad lowest pole, v_well = 5
    ],
    ids=["release-pole", "near-floor", "barrier-top", "series-edge", "shallow-broad"],
)
def test_pole_function_derivatives_match_mpmath(unit, cfg, k):
    with mpmath.workdps(40):
        kappa = mpmath.mpf(unit.kappa)
        km, vb = mpmath.mpc(k.real, k.imag), mpmath.mpf(cfg.v_barrier)
        ref_k = complex(mpmath.diff(lambda z: _omega_mp(cfg, kappa, z, vb), km))
        ref_v = complex(mpmath.diff(lambda v: _omega_mp(cfg, kappa, km, v), vb))
    *_, d_k, d_barrier = pole_function_derivatives(cfg, unit, k)
    assert abs(complex(d_k) - ref_k) <= 1e-12 * abs(ref_k)
    assert abs(complex(d_barrier) - ref_v) <= 1e-12 * abs(ref_v)


def test_pole_function_derivatives_carry_the_exact_pole_function_terms(unit):
    # Newton and the delay take Omega's terms from the derivative call's
    # block build; they must be the very numbers pole_function_terms gives
    k = np.array([K_RES, 0.05 + 0.0j, 0.4 - 0.2j, 1.3 + 0.1j])
    for cfg in (FINAL, _BROAD):
        terms = pole_function_terms(cfg, unit, k)
        for got, want in zip(pole_function_derivatives(cfg, unit, k)[:3], terms):
            assert np.array_equal(got, want)


def _cardinal_sine_where(z):
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    return np.where(small, 1.0 - z * z / 6.0 + z**4 / 120.0, np.sin(zs) / zs)


def _sinc_minus_cos_over_z2_where(z):
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 0.5
    zs = np.where(small, 1.0, z)
    z2, series = z * z, 0.0
    for c in _U_SERIES:
        series = series * z2 + c
    return np.where(small, series, (np.sin(zs) / zs - np.cos(zs)) / (zs * zs))


@pytest.mark.parametrize(
    "z",
    [
        0.0,
        0.0j,
        3e-5 - 2e-5j,  # below both cuts
        0.2 + 0.1j,  # between the cuts
        1e-4,  # on the sinc cut
        0.5,  # on the u cut
        1.7 - 0.4j,  # above both cuts
        np.array([0.0, 3e-5, 1e-4, 0.2 + 0.1j, 0.5, 1.7 - 0.4j, 40.0j]),
        np.array([[2.0, 0.3j], [5e-5, 7.5 - 1.0j]]),
        np.array([0.6, 1.7 - 0.4j, 40.0j]),  # no element below either cut
        np.array([0.0, 1e-6j]),  # every element below both cuts
    ],
    ids=["zero", "zero-complex", "below", "between", "sinc-cut", "u-cut", "above",
         "mixed", "mixed-2d", "all-above", "all-below"],
)
def test_omega_helpers_equal_their_where_forms_bit_for_bit(z):
    # the helpers skip the small-|z| series when no element needs it; the
    # np.where forms above evaluate both branches everywhere
    for fast, where in (
        (cardinal_sine, _cardinal_sine_where),
        (_sinc_minus_cos_over_z2, _sinc_minus_cos_over_z2_where),
    ):
        got, want = np.asarray(fast(z)), np.asarray(where(z))
        assert got.shape == want.shape == np.shape(z)
        assert got.tobytes() == want.tobytes(), fast.__name__
