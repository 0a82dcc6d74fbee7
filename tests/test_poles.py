"""Pole search: frozen locations, independent matching residuals, and the
argument-principle completeness certificate on random traps."""

import math
from dataclasses import replace

import numpy as np
import pytest

from trapswitch import scattering
from trapswitch.errors import InvalidArgumentError
from trapswitch.model import PotentialConfig
from trapswitch.poles import (
    find_bound_states,
    find_poles,
    newton_pole,
    pole_function,
    resonances,
    trace_iso_resonance,
    winding_number,
)
from trapswitch.scattering import pole_function_derivatives, pole_function_terms

from frozen import (
    E_BOUND,
    E_RES,
    FINAL,
    GAMMA_RES,
    INITIAL,
    KAPPA_BOUND,
    K_RES,
)
from pointwise_oracle import bound_state_kappas_pointwise, winding_number_pointwise

#: Region of the shipped `poles` experiment (configs/poles.yaml).
SHIPPED_REGION = (0.0, 0.9, -0.4, 0.22)


def _random_traps(n):
    """The random traps of criterion 8h and of the completeness test below."""
    rng = np.random.default_rng(42)
    return [
        PotentialConfig(
            v_well=rng.uniform(30.0, 380.0),
            v_barrier=rng.uniform(60.0, 450.0),
            d=rng.uniform(3.0, 7.0),
            b=rng.uniform(4.0, 12.0),
        )
        for _ in range(n)
    ]


def test_release_trap_resonance_frozen_location(unit):
    k = newton_pole(FINAL, unit, complex(0.31, -0.001))
    assert k is not None
    assert k.real == pytest.approx(K_RES.real, rel=1e-10)
    assert k.imag == pytest.approx(K_RES.imag, rel=1e-8)
    e = 0.5 * unit.kappa * k * k
    assert e.real == pytest.approx(E_RES, rel=1e-12)
    assert -2.0 * e.imag == pytest.approx(GAMMA_RES, rel=1e-10)


def test_bound_state_matches_transcendental_matching(unit):
    states = find_bound_states(INITIAL, unit)
    assert len(states) == 1
    pole = states[0]
    assert pole.kind == "bound"
    kap = pole.k_res.imag
    assert kap == pytest.approx(KAPPA_BOUND, rel=1e-10)
    assert pole.e_r == pytest.approx(E_BOUND, rel=1e-12)
    assert pole.gamma == 0.0 and math.isinf(pole.tau)

    # independent check: carry the log-derivative from the wall through the
    # barrier and require the evanescent tail slope -kap outside
    q = math.sqrt(2.0 * INITIAL.v_well / unit.kappa - kap * kap)
    mu = math.sqrt(2.0 * INITIAL.v_barrier / unit.kappa + kap * kap)
    f, fp = math.sin(q * INITIAL.d), q * math.cos(q * INITIAL.d)
    ch, sh = math.cosh(mu * INITIAL.b), math.sinh(mu * INITIAL.b)
    g = f * ch + fp * sh / mu
    gp = f * mu * sh + fp * ch
    assert abs(gp / g + kap) < 1e-9


def test_release_trap_has_no_bound_state(unit):
    assert find_bound_states(FINAL, unit) == []


def test_classified_pole_fields_are_consistent(unit):
    poles = find_poles(FINAL, unit, (0.0, 0.9, -0.4, 0.0))
    for p in poles:
        e = 0.5 * unit.kappa * p.k_res * p.k_res
        assert p.e_r == pytest.approx(e.real, rel=1e-14)
        assert p.gamma == pytest.approx(-2.0 * e.imag, rel=1e-12)
        assert p.tau == pytest.approx(1.0 / p.gamma, rel=1e-12)


def test_newton_pole_residual_small(unit):
    k = newton_pole(FINAL, unit, complex(0.31, -0.001))
    # compare |Omega| with its additive terms, not with zero
    t1, t2, _ = pole_function_terms(FINAL, unit, k)
    scale = max(abs(complex(t1)), abs(complex(t2)))
    assert abs(complex(pole_function(FINAL, unit, k))) < 1e-9 * scale


def test_newton_pole_builds_the_interior_blocks_once_per_iterate(monkeypatch, unit):
    # the residual, its acceptance test and the step all come from one
    # closed-form call on the iterate alone, which builds the blocks once
    points = []

    def recorded(config, unit, k):
        points.append(np.asarray(k))
        return blocks(config, unit, k)

    blocks = scattering._interior_blocks
    monkeypatch.setattr(scattering, "_interior_blocks", recorded)
    k = newton_pole(FINAL, unit, 0.31 - 0.001j)
    assert abs(k - K_RES) <= 1e-13 * (1.0 + abs(k))
    assert all(c.size == 1 for c in points)
    iterates = [complex(c) for c in points]
    assert len(iterates) > 2
    assert len(set(iterates)) == len(iterates) and iterates[-1] == k


def test_find_poles_release_trap_region(unit):
    poles = find_poles(FINAL, unit, (0.0, 0.9, -0.4, 0.0))
    kinds = [p.kind for p in poles]
    assert kinds.count("resonance") == len(poles) >= 3
    lowest = min(poles, key=lambda p: p.e_r)
    assert lowest.e_r == pytest.approx(E_RES, rel=1e-12)
    assert lowest.gamma == pytest.approx(GAMMA_RES, rel=1e-10)
    # sorted unique: no duplicate roots
    ks = np.array([p.k_res for p in poles])
    assert np.min(np.abs(np.diff(ks))) > 1e-6


def test_find_poles_skips_virtual_state_on_axis(unit):
    # the preparation trap has a zero exactly on the negative imaginary axis;
    # the fourth-quadrant search must not stall on it or report it
    poles = find_poles(INITIAL, unit, (0.0, 0.9, -0.4, 0.0))
    assert all(p.k_res.real > 0.0 for p in poles)
    assert all(p.kind == "resonance" for p in poles)


def test_find_poles_counts_match_winding_on_random_traps(unit):
    rect = (0.02, 0.8, -0.3, 0.0)
    for cfg in _random_traps(20):
        poles = find_poles(cfg, unit, rect)
        assert len(poles) == winding_number(cfg, unit, rect)
        for p in poles:
            assert p.kind == "resonance"
            assert rect[0] <= p.k_res.real <= rect[1]
            assert rect[2] <= p.k_res.imag <= 0.0


def test_find_poles_rejects_malformed_region(unit):
    with pytest.raises(InvalidArgumentError):
        find_poles(FINAL, unit, (0.5, 0.1, -0.3, 0.0))


def test_iso_resonance_trace_stays_on_target(unit):
    target = 53.391
    curve = trace_iso_resonance(target, unit, d=5.0, b=10.0,
                                v_well_range=(50.0, 350.0), n_points=6)
    assert curve.v_well.size >= 4
    assert np.all(np.diff(curve.v_well) > 0.0)
    for vw, vb in zip(curve.v_well, curve.v_barrier):
        cfg = PotentialConfig(v_well=float(vw), v_barrier=float(vb), d=5.0, b=10.0)
        k = newton_pole(cfg, unit, complex(math.sqrt(2.0 * target / unit.kappa), -1e-4))
        assert k is not None
        e_r = 0.5 * unit.kappa * (k * k).real
        assert abs(e_r - target) <= 1e-3 * target
    # the width swings much harder than the compensating barrier depth
    assert curve.gamma.max() / curve.gamma.min() > 2.0


#: The shipped iso-curves targets (configs/iso_curves.yaml).
SHIPPED_ISO_TARGETS = (53.391, 7.422)


@pytest.fixture(scope="module")
def shipped_iso_curves(unit):
    """The two shipped curves, each with the find_poles calls it made."""
    out = {}
    for target in SHIPPED_ISO_TARGETS:
        calls = []

        def counted(config, unit, region):
            calls.append(config)
            return find_poles(config, unit, region)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("trapswitch.poles.find_poles", counted)
            curve = trace_iso_resonance(target, unit, FINAL.d, FINAL.b)
        out[target] = (curve, calls)
    return out


def _iso_region(unit, target):
    # the region trace_iso_resonance searches for a target
    k_scale = math.sqrt(2.0 * target / unit.kappa)
    return (0.25 * k_scale, 3.5 * k_scale, -3.5 * k_scale, 0.0)


@pytest.mark.parametrize("target", SHIPPED_ISO_TARGETS)
def test_shipped_iso_curves_hold_re_e_to_roundoff(shipped_iso_curves, target):
    curve, _ = shipped_iso_curves[target]
    assert curve.v_well.size == 40 and not curve.truncated
    assert np.max(np.abs(curve.e_r - target)) <= 1e-10 * target


@pytest.mark.parametrize("target", SHIPPED_ISO_TARGETS)
def test_every_shipped_iso_point_is_the_lowest_resonance(shipped_iso_curves, unit, target):
    curve, _ = shipped_iso_curves[target]
    region = _iso_region(unit, target)
    for vw, vb, k in zip(curve.v_well, curve.v_barrier, curve.k_res):
        cfg = PotentialConfig(v_well=float(vw), v_barrier=float(vb), d=FINAL.d, b=FINAL.b)
        lowest = resonances(find_poles(cfg, unit, region))[0]
        assert abs(lowest.k_res - k) <= 1e-8 * (1.0 + abs(k)), (vw, vb)


@pytest.mark.parametrize("target", SHIPPED_ISO_TARGETS)
def test_iso_curve_searches_poles_only_for_its_first_point(shipped_iso_curves, target):
    # the top-down barrier scan, then one certificate of the solved point;
    # continuation itself makes no certified search
    curve, calls = shipped_iso_curves[target]
    scan = np.geomspace(4000.0, 0.5, 40)
    probes = [c.v_barrier for c in calls[:-1]]
    assert probes == scan[: len(probes)].tolist()
    assert all(c.v_well == curve.v_well[0] for c in calls)
    assert calls[-1].v_barrier == curve.v_barrier[0]


def test_iso_continuation_keeps_the_narrow_family_over_a_long_step(unit):
    # from v_well = 5 to 177.5 in one step an uncontracted Newton lands on a
    # broad mode near v_barrier = 19, which is the lowest resonance there
    curve = trace_iso_resonance(134.511248728, unit, FINAL.d, FINAL.b, n_points=3)
    assert curve.v_well[1] == 177.5
    assert curve.v_barrier[1] == pytest.approx(472.8, rel=1e-3)


@pytest.mark.parametrize("cfg", [INITIAL, replace(INITIAL, d=15.0)], ids=["initial", "two-level"])
def test_bound_state_scan_matches_the_pointwise_oracle(unit, cfg):
    kappas = [p.k_res.imag for p in find_bound_states(cfg, unit)]
    assert kappas == bound_state_kappas_pointwise(cfg, unit)
    assert len(kappas) == (1 if cfg is INITIAL else 2)


def test_winding_number_matches_the_pointwise_oracle(unit):
    rect = (0.02, 0.8, -0.3, 0.0)
    traps = _random_traps(20)
    counts = [winding_number(cfg, unit, rect) for cfg in traps]
    assert counts == [winding_number_pointwise(cfg, unit, rect) for cfg in traps]
    assert sum(counts) > 0


@pytest.mark.parametrize("cfg", [INITIAL, FINAL], ids=["initial", "final"])
def test_pole_search_evaluates_each_fixed_grid_in_one_call(monkeypatch, unit, cfg):
    # one scalar call per grid point (a 300-point delay scan, 4 x 65 edge
    # points, a 4000-point bound-state scan) would cost thousands of calls;
    # the delay scan is one Omega' array call in `scattering`
    calls = {"omega": 0, "omega_prime": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr("trapswitch.poles.pole_function_terms", counted("omega", pole_function_terms))
    monkeypatch.setattr(
        "trapswitch.scattering.pole_function_derivatives",
        counted("omega_prime", pole_function_derivatives),
    )
    assert resonances(find_poles(cfg, unit, SHIPPED_REGION))
    assert calls["omega"] <= 150, calls
    assert 1 <= calls["omega_prime"] <= 2, calls
