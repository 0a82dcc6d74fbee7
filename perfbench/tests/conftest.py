"""Make the benchmark modules and the checkout's package importable."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import env  # noqa: E402

env.import_package()
