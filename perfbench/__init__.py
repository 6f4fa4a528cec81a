"""End-to-end and per-layer benchmark of one fiberwalk conditional test.

Run from the root of a checkout::

    python3 -m perfbench.run --workload walk-4x4 --seed 1 --seconds 35 --trace 0

The benchmark always measures the ``fiberwalk`` package under ``src/``
of the checkout it sits in, never an installed copy, so importing this
package puts that directory first on ``sys.path`` and fails when it is
missing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

if not (SRC / "fiberwalk" / "__init__.py").is_file():
    raise ImportError(f"perfbench: no fiberwalk source under {SRC}")
if sys.path[:1] != [str(SRC)]:
    sys.path.insert(0, str(SRC))
