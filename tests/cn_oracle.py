"""The Crank-Nicolson step as `trapswitch.propagate` took it before block
elimination: rebuild the whole matrix and run one banded LU per step; and
its prefactored solve as it took it before the bidiagonal sweeps, one
LAPACK `zgttrs` on `zgttrf`'s factors.

Kept only as test oracles: `test_propagate.py` checks whole `propagate`
runs against a loop of `_cn_step` (`cn_states`) and the sweeps of
`_Prefactored` against `zgttrs_solve`, the ground-state residual checks
(criterion 8g, `test_groundstate`) apply the inverse mass matrix with
`_tri_solve`, and the Schur-term check solves the far block with it.  Not
a test module.
"""

import numpy as np
from scipy.linalg import lapack, solve_banded


def _tri_mul(diag, off, v):
    """The symmetric tridiagonal (diag, off) times v."""
    out = diag * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


def _tri_solve(diag, off, rhs):
    n = diag.size
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = off
    ab[1, :] = diag
    ab[2, :-1] = off
    return solve_banded((1, 1), ab, rhs)


def zgttrs_solve(diag, off, rhs):
    """The symmetric tridiagonal (diag, off) solved for rhs by `zgttrf`
    (partial pivoting) and one `zgttrs`, whose back substitution divides
    on every row."""
    *factors, info = lapack.zgttrf(off, diag, off)
    assert info == 0, info
    x, info = lapack.zgttrs(*factors, rhs)
    assert info == 0, info
    return x


def _cn_step(ops, weight, dt, psi):
    """One step of L psi' = (2M - L) psi."""
    a_diag = ops.h0_diag + weight * ops.dv_diag - 1j * ops.w_diag
    a_off = ops.h0_off + weight * ops.dv_off - 1j * ops.w_off
    z = 0.5j * dt
    rhs = _tri_mul(ops.m_diag - z * a_diag, ops.m_off - z * a_off, psi)
    return _tri_solve(ops.m_diag + z * a_diag, ops.m_off + z * a_off, rhs)


def cn_states(ops, schedule, dt, psi, counts):
    """{n: the state after n steps of `_cn_step` from psi} for each n in
    counts, with the switching weight taken at each step's midpoint."""
    states = {}
    for j in range(max(counts)):
        psi = _cn_step(ops, schedule.weight((j + 0.5) * dt), dt, psi)
        if j + 1 in counts:
            states[j + 1] = psi
    return states
