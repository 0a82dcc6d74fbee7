"""Host-speed sampler: scale measured times to a reference host speed.

On a shared host the speed of one virtual CPU drifts by a quarter or more
over seconds to minutes, with no steal time: the same instructions simply
take longer while neighbours load the core.  A regression bound on raw wall
time then measures the neighbours.  The sampler interleaves a fixed kernel
with the workload in the same thread, so both see the same core at the same
moment, and a time is scaled by nominal / (median kernel time).

Code of different kinds slows by different amounts under the same load, so
each workload has its own kernel, chosen in place: measured in 2 s windows
inside the running workload, each candidate's log time was regressed on the
workload's own.  Six Crank-Nicolson steps on 3001 nodes track `decay` and
`spectrum` (slopes 0.95 and 0.63, residual log-spread 0.055 against a raw
0.08-0.14) but under-react on `analytic` (slope 1.29); a pure Python loop
tracks `analytic` (slope 1.1, residual 0.06 against a raw 0.15), where scalar
numpy calls over-react (slope 0.57).  The kernels are frozen
benchmark code, never the program's: a change to the program moves the
workload time and leaves the kernel alone.

`Sampler` fires on SIGALRM every `interval` seconds; Python runs the handler
in the main thread between bytecodes, so samples land inside the workload's
own loops.  The kernel's time is kept apart so it can be taken out of the
measured wall time.
"""

import signal
import statistics
import time

import numpy as np
from scipy.linalg import solve_banded


def _tridiagonal(n: int):
    rng = np.random.default_rng(n)
    m_diag = 1.0 + rng.random(n) + 0j
    m_off = 0.1 * rng.random(n - 1) + 0j
    h_diag = rng.random(n) + 0j
    h_off = rng.random(n - 1) + 0j
    psi = rng.random(n) + 1j * rng.random(n)
    return m_diag, m_off, h_diag, h_off, psi


_OPS = _tridiagonal(3001)


def _tri_mul(diag, off, v):
    out = diag * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


def _crank_nicolson(steps: int = 6) -> complex:
    """`steps` Crank-Nicolson steps (M + z H) psi' = (M - z H) psi."""
    m_diag, m_off, h_diag, h_off, psi = _OPS
    z = 1e-4j
    for _ in range(steps):
        rhs = _tri_mul(m_diag - z * h_diag, m_off - z * h_off, psi)
        ab = np.zeros((3, psi.size), dtype=complex)
        ab[0, 1:] = m_off + z * h_off
        ab[1, :] = m_diag + z * h_diag
        ab[2, :-1] = m_off + z * h_off
        psi = solve_banded((1, 1), ab, rhs)
    return psi[7]


def _python_loop() -> float:
    s = 0.0
    for i in range(8000):
        s += (i * 0.5) % 7.0
    return s


#: Workload -> (kernel, its median time on the reference host, a 2-core
#: 2 GHz Xeon VM).  Scaled times read as seconds on that host.
KERNELS = {
    "analytic": (_python_loop, 1.1e-3),
    "decay": (_crank_nicolson, 2.0e-3),
    "spectrum": (_crank_nicolson, 2.0e-3),
}


def scaled(workload: str, seconds: float, samples: list[float]) -> float:
    """`seconds` measured while the workload's kernel took `samples`, at nominal speed."""
    return seconds * KERNELS[workload][1] / statistics.median(samples)


class Sampler:
    """Times the workload's kernel every `interval` seconds while the block runs."""

    def __init__(self, workload: str, interval: float = 0.1):
        self.kernel = KERNELS[workload][0]
        self.interval = interval
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._running = False

    def _tick(self, signum, frame):
        if self._running:
            return
        self._running = True
        t0 = time.perf_counter()
        self.kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.busy_s += dt
        self._running = False

    def mark(self) -> tuple[int, float]:
        """(samples so far, kernel seconds so far), to slice out one interval."""
        return len(self.samples), self.busy_s

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False
