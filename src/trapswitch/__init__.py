"""Bound-to-resonance release of a trapped atom behind a tunable barrier.

The package models a 1-d trap made of a hard wall, a square well, and a
square barrier.  It locates the S-matrix poles of that trap, propagates the
initially bound atom through a timed reshaping of the well and barrier, and
measures how the reshaping time imprints itself on the energy distribution
of the released atom.  Everything else is imported from its module.
"""

__version__ = "0.1.0"

from .experiments import run_experiment
from .io import load_spec
from .poles import find_poles

__all__ = ["find_poles", "load_spec", "run_experiment"]
