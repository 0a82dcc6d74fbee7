"""Frozen reference values shared by the test modules.

The reference numbers below were computed with independent methods (direct
ODE integration, transcendental matching, closed-form limits) and are frozen
here so regressions show up as numeric drift rather than silent agreement.
Test modules import them from here, not from conftest: with two conftest.py
files on the test paths, `import conftest` finds whichever pytest loaded last.
"""

from trapswitch.model import PotentialConfig

# hbar/m for the default atom, um^2/s
KAPPA = 2762.4374339513397

# deep preparation trap and shallow release trap used throughout
INITIAL = PotentialConfig(v_well=350.0, v_barrier=400.0, d=5.0, b=10.0)
FINAL = PotentialConfig(v_well=100.0, v_barrier=200.0, d=5.0, b=10.0)

# lowest S-matrix pole of the release trap (fourth quadrant of the k plane)
K_RES = 0.3120703556546361 - 0.0014112980505672059j
E_RES = 134.51124872833176
GAMMA_RES = 2.4332890610635545
TAU_RES = 0.41096638126623347

# bound state of the preparation trap (positive imaginary k axis)
KAPPA_BOUND = 0.13576637446999634
E_BOUND = -25.459325653619654

# in-well weight of the prepared bound state
P_WELL_BOUND = 0.8853073717594373
