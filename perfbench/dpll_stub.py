"""Stand-in for an external CNF sampler, used by the sat-external workload.

    python3 perfbench/dpll_stub.py CNF COUNT SEED

Reads the DIMACS file, enumerates every model projected on its ``c ind``
sampling set with the package's DPLL solver and blocking clauses, and
prints COUNT draws, uniform with replacement from a numpy generator
seeded by SEED, as ``v ... 0`` lines.  Every 20th line (the 20th, 40th,
...) has one bit of one cell flipped, so that the sampler bridge's
validity filter and the walker's refill retry do real work; a caller
asking for ``count`` draws gets back exactly ``count - count // 20``
fiber elements.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import perfbench  # noqa: E402,F401  (puts the checkout's src/ on sys.path)

import numpy as np  # noqa: E402

from fiberwalk.dpll import Solver  # noqa: E402
from fiberwalk.encode import parse_dimacs  # noqa: E402

CORRUPT_EVERY = 20


def projected_models(path: str) -> list[list[int]]:
    with open(path) as f:
        num_vars, clauses, sampling = parse_dimacs(f)
    if not sampling:
        sampling = tuple(range(1, num_vars + 1))
    keep = set(sampling)
    solver = Solver(num_vars, [list(c) for c in clauses], decision_vars=sampling)
    models = []
    while True:
        model = solver.next_model()
        if model is None:
            return models
        projected = [lit for lit in model if abs(lit) in keep]
        models.append(projected)
        solver.add_clause([-lit for lit in projected])


def main(argv) -> int:
    if len(argv) != 3:
        print("usage: dpll_stub.py CNF COUNT SEED", file=sys.stderr)
        return 1
    path, count, seed = argv[0], int(argv[1]), int(argv[2])
    models = projected_models(path)
    if not models:
        print("c unsatisfiable")
        return 0
    picks = np.random.default_rng(seed).integers(len(models), size=count)
    lines = []
    for line_no, k in enumerate(picks, start=1):
        lits = list(models[int(k)])
        if line_no % CORRUPT_EVERY == 0:
            bit = (line_no // CORRUPT_EVERY) % len(lits)
            lits[bit] = -lits[bit]
        lines.append("v " + " ".join(map(str, lits)) + " 0")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
