"""Locations and process settings shared by the benchmark entry points.

The benchmark runs from the root of a checkout and imports the package from
its `src/` tree, never from an installed copy, so it measures the code it
ships beside.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout; removed per run, kept out of git.
OUT = os.path.join(ROOT, "perfbench", ".out")

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable CPU count; call before numpy loads."""
    cap = cpu_count()
    for var in _THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def import_package():
    """Import trapswitch from this checkout's src/, or exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "trapswitch", "__init__.py")):
        sys.stderr.write(f"perfbench: no trapswitch sources under {SRC}\n")
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import trapswitch

    if not os.path.abspath(trapswitch.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: trapswitch resolved to {trapswitch.__file__}, not {SRC}\n")
        raise SystemExit(2)
    return trapswitch
