"""The Crank-Nicolson step as `trapswitch.propagate` took it before block
elimination: rebuild the whole matrix and run one banded LU per step.

Kept only as a test oracle: `test_propagate.py` checks the block-eliminated
stepper against `_cn_step`, and the ground-state residual checks (criterion
8g, `test_groundstate`) apply the inverse mass matrix with `_tri_solve`.
Not a test module.
"""

import numpy as np
from scipy.linalg import solve_banded

from trapswitch.propagate import _tri_mul


def _tri_solve(diag, off, rhs):
    n = diag.size
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = off
    ab[1, :] = diag
    ab[2, :-1] = off
    return solve_banded((1, 1), ab, rhs)


def _cn_step(ops, weight, dt, psi, edge=0.0):
    """One step of L psi' = (2M - L) psi; edge is added to L's last diagonal,
    as the stepper adds an open box's edge term."""
    a_diag = ops.h0_diag + weight * ops.dv_diag - 1j * ops.w_diag
    a_off = ops.h0_off + weight * ops.dv_off - 1j * ops.w_off
    z = 0.5j * dt
    a_diag[-1] += edge / z
    rhs = _tri_mul(ops.m_diag - z * a_diag, ops.m_off - z * a_off, psi)
    return _tri_solve(ops.m_diag + z * a_diag, ops.m_off + z * a_off, rhs)
