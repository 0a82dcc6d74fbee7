"""The scattering state as `trapswitch.scattering` evaluated it before it
was factored into an amplitude and a real standing wave: complex q and q',
complex sin/cos, and sinc series near zero, region by region.

Kept only as a test oracle: `test_scattering.py` checks
`evaluate_scattering_state` against `scattering_state_complex`.  Not a test
module.
"""

import math

import numpy as np

_TWO_PI_SQRT = math.sqrt(2.0 * math.pi)


def _cardinal_sine(z):
    """sin(z)/z for complex arrays, with the series used near z = 0."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    return np.where(small, 1.0 - z * z / 6.0 + z**4 / 120.0, np.sin(zs) / zs)


def scattering_state_complex(config, unit, k, x) -> np.ndarray:
    """psi_k on the nodes x, one row per entry of the 1-d array k > 0."""
    x = np.asarray(x, dtype=float)
    kc = np.asarray(k, dtype=float).reshape(-1, 1).astype(complex)
    d, b = config.d, config.b
    length = d + b
    q = np.sqrt(kc * kc + 2.0 * config.v_well / unit.kappa)
    p2 = kc * kc - 2.0 * config.v_barrier / unit.kappa
    p = np.sqrt(p2)
    cw, sw = np.cos(q * d), d * _cardinal_sine(q * d)
    cb, sb = np.cos(p * b), b * _cardinal_sine(p * b)
    omega = kc * (sw * cb + cw * sb) + 1j * (cw * cb - p2 * sw * sb)
    amp_q = 2.0 * kc * np.exp(-1j * kc * length) / omega  # A*q
    s = -np.exp(-2j * kc * length) * (kc * (sw * cb + cw * sb) - 1j * (cw * cb - p2 * sw * sb)) / omega
    pref = 1.0 / _TWO_PI_SQRT
    out = np.zeros((kc.shape[0], x.size), dtype=complex)

    inner = (x > 0.0) & (x <= d)
    out[:, inner] = pref * amp_q * x[inner] * _cardinal_sine(q * x[inner])
    mid = (x > d) & (x <= length)
    u = x[mid] - d
    out[:, mid] = pref * amp_q * (sw * np.cos(p * u) + cw * u * _cardinal_sine(p * u))
    outer = x > length
    wave = np.exp(1j * kc * x[outer])
    out[:, outer] = pref * (wave.conj() - s * wave)
    return out
