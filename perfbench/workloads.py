"""The benchmark's workloads and the inputs it generates for them.

Each workload is one `fiberwalk test` configuration on a fixed fiber:
the margins are part of the workload's definition, given as a base
table.  The seed draws the observed tables from that fiber, with numpy
and without the package, so a change to the program cannot change the
inputs.  Each is an exact draw from the conditional null law
rho(v) proportional to 1 / prod(v_i!), so p-values spread over (0, 1).

Why a fixed fiber: fiber size sets most of the cost of a test
(enumeration is linear in it, and so is every external-sampler call)
and varies over two orders of magnitude between tables drawn with the
same n.  With the fiber fixed, runs with different seeds do the same
amount of work and differ only in the observed tables, their statistic,
the p-values and the walk's random stream.
"""

from __future__ import annotations

import hashlib
import json
import math
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ROOT

from fiberwalk import (
    Alternating,
    Independence,
    NoThreeWay,
    SamplerConfig,
    Table,
    basic_moves_n3f,
    basic_moves_two_way,
    fiber_spec_from_observation,
    load_basis,
    n3f_basis,
    save_basis,
    write_table,
)

EXACT_CAP = 100_000  # `fiberwalk test --exact-cap` default
STUB = Path(__file__).resolve().with_name("dpll_stub.py")
WORK = ROOT / ".perfbench_work"
TABLE_FILE = "table-{}.txt"  # observed table k, in a run's directory
BASIS_FILE = "basis.txt"


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # "independence" (two-way) or "n3f" (d x d x d)
    shape: tuple[int, ...]
    base: tuple[int, ...]  # a table with the workload's margins
    period: int  # Alternating(period)
    steps: int
    moves: str  # "basic" or "file" (the n3f Markov basis via save/load)
    sampler: str  # "internal-uniform" or "external"

    def model_spec(self):
        if self.model == "n3f":
            return NoThreeWay(self.shape[0])
        return Independence(self.shape)

    @property
    def schedule(self) -> Alternating:
        return Alternating(self.period)

    @property
    def schedule_name(self) -> str:
        return f"alternating({self.period})"

    def sampler_config(self) -> SamplerConfig:
        if self.sampler == "external":
            return SamplerConfig(kind="external", command_template=stub_command())
        return SamplerConfig()

    def build_moves(self, spec, basis_path: Path):
        """The move set `fiberwalk test` builds for this workload."""
        if self.moves == "file":
            return load_basis(basis_path, spec.matrix)
        if self.model == "n3f":
            return basic_moves_n3f(self.shape[0])
        return basic_moves_two_way(spec.shape, spec.zero_set())

    def cli_args(self, inputs: "Inputs", table: int, steps: int, seed: int) -> list[str]:
        """`fiberwalk test` arguments for the same test on observed table ``table``."""
        args = [
            "test",
            "--table", str(inputs.table_path(table)),
            "--model", self.model,
            "--steps", str(steps),
            "--exact-cap", str(EXACT_CAP),
            "--seed", str(seed),
            "--schedule", "alternating",
            "--period", str(self.period),
            "--moves", self.moves,
            "--sampler", self.sampler,
        ]
        if self.moves == "file":
            args += ["--moves-file", str(inputs.basis_path)]
        if self.sampler == "external":
            args += ["--sampler-command", stub_command()]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        # rows (9, 5, 4, 2), columns (8, 5, 4, 3): 8,860 tables of n = 20
        Workload("walk-4x4", "independence", (4, 4),
                 (8, 1, 0, 0, 0, 4, 1, 0, 0, 0, 3, 1, 0, 0, 0, 2),
                 10, 1_500_000, "basic", "internal-uniform"),
        # n = 55: 9,904 tables
        Workload("exact-n3f", "n3f", (3, 3, 3),
                 (2, 3, 1, 2, 5, 2, 2, 0, 2, 3, 1, 4, 2, 2, 2, 1, 2, 2, 2, 0, 1, 2, 3, 0, 2, 4, 3),
                 2, 200_000, "file", "internal-uniform"),
        # n = 30: 190 tables, and so 190 models of the CNF
        Workload("sat-external", "n3f", (3, 3, 3),
                 (3, 1, 1, 0, 1, 0, 0, 2, 1, 0, 1, 0, 0, 2, 2, 1, 1, 3, 1, 2, 1, 1, 2, 1, 1, 1, 1),
                 10, 100_000, "basic", "external"),
    )
}
TABLES = 8  # observed tables per run; test k uses table k mod TABLES
P_BAND = (0.2, 0.8)  # exact p-values of the observed tables


def stub_command() -> str:
    """External-sampler command template running the DPLL stub."""
    return f"{shlex.quote(sys.executable)} {shlex.quote(str(STUB))} {{cnf}} {{count}} {{seed}}"


# ---- fibers, enumerated without the package ----


def _compositions(total: int, caps):
    """All x with sum x = total and 0 <= x_j <= caps[j]."""
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    for v in range(min(total, caps[0]) + 1):
        for rest in _compositions(total - v, caps[1:]):
            yield (v,) + rest


def two_way_fiber(rows, cols) -> np.ndarray:
    """All nonnegative integer tables with the given row and column
    sums, one flattened table per row of the result."""
    out = []

    def fill(i, rem, prefix):
        if i == len(rows) - 1:
            out.append(prefix + tuple(rem))
            return
        for x in _compositions(rows[i], rem):
            fill(i + 1, [a - b for a, b in zip(rem, x)], prefix + x)

    fill(0, list(cols), ())
    return np.array(out, dtype=np.int64).reshape(-1, len(rows) * len(cols))


def n3f_fiber_3(cells) -> np.ndarray:
    """All 3x3x3 tables with the same 2-margins as ``cells``.

    Slice k is a 3x3 table over (i, j) with row sums u[i, +, k] and
    column sums u[+, j, k].  The (i, j) margins fix slice 2 once slices
    0 and 1 are chosen, and its row and column sums then match
    automatically, so the fiber is every pair of slices whose sum stays
    within the (i, j) margins.
    """
    u = np.asarray(cells, dtype=np.int64).reshape(3, 3, 3)
    ij = u.sum(axis=2).reshape(9)
    s0, s1 = (two_way_fiber(u[:, :, k].sum(axis=1).tolist(), u[:, :, k].sum(axis=0).tolist())
              for k in (0, 1))
    parts = []
    for a in s0:
        b = s1[np.all(s1 <= ij - a, axis=1)]
        parts.append(np.stack([np.broadcast_to(a, b.shape), b, ij - a - b], axis=2))
    return np.concatenate(parts).reshape(-1, 27)


def fiber(workload: Workload) -> np.ndarray:
    if workload.model == "n3f":
        return n3f_fiber_3(workload.base)
    a = np.asarray(workload.base, dtype=np.int64).reshape(workload.shape)
    return two_way_fiber(a.sum(axis=1).tolist(), a.sum(axis=0).tolist())


def fitted_probabilities(workload: Workload) -> np.ndarray:
    """Cell probabilities fitted to the fiber's margins: the closed form
    for two-way independence, iterative proportional fitting for n3f."""
    u = np.asarray(workload.base, dtype=np.float64).reshape(workload.shape)
    n = u.sum()
    if workload.model != "n3f":
        return np.outer(u.sum(axis=1), u.sum(axis=0)).ravel() / n**2
    m = np.full(u.shape, n / u.size)
    for _ in range(10_000):
        m *= (u.sum(axis=2) / m.sum(axis=2))[:, :, None]
        m *= (u.sum(axis=1) / m.sum(axis=1))[:, None, :]
        m *= (u.sum(axis=0) / m.sum(axis=0))[None, :, :]
        if np.abs(m.sum(axis=2) - u.sum(axis=2)).max() < 1e-12 * n:
            break
    return m.ravel() / n


def draw_tables(workload: Workload, seed: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``TABLES`` distinct observed tables drawn with ``seed``, and the
    fiber size.

    The draw is from rho restricted to tables whose exact chi-square
    p-value lies in ``P_BAND``: the effective sample size of the walk's
    hit indicator depends on p, and mid-range p-values keep it
    comparable between seeds.
    """
    elements = fiber(workload)
    n = int(elements[0].sum())
    log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    logw = -log_fact[elements].sum(axis=1)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    pi = fitted_probabilities(workload)
    stat = (((elements / n - pi) ** 2) / pi).sum(axis=1)
    order = np.argsort(-stat, kind="stable")
    tail = np.cumsum(w[order])  # rho mass of stat >= each sorted value
    first = np.searchsorted(-stat[order], -stat[order], side="right") - 1
    p = np.empty_like(stat)
    p[order] = tail[first]
    lo, hi = P_BAND
    eligible = np.flatnonzero((p >= lo) & (p <= hi))
    rng = np.random.default_rng(seed)
    picks = rng.choice(eligible, size=TABLES, replace=False, p=w[eligible] / w[eligible].sum())
    return tuple(tuple(int(c) for c in elements[i]) for i in picks), len(elements)


@dataclass(frozen=True)
class Inputs:
    """A workload's generated inputs on disk, and their fingerprint."""

    workload: str
    seed: int
    tables: tuple[tuple[int, ...], ...]
    fiber_size: int
    move_count: int
    steps: int
    schedule: str
    directory: Path

    def table_path(self, k: int) -> Path:
        """The file of the observed table test ``k`` reads."""
        return self.directory / TABLE_FILE.format(k % len(self.tables))

    @property
    def basis_path(self) -> Path:
        return self.directory / BASIS_FILE

    def fingerprint(self) -> str:
        """Hash of everything that defines the work of a run; two
        results are comparable only when their fingerprints agree."""
        key = {
            "workload": self.workload,
            "seed": self.seed,
            "tables": [list(t) for t in self.tables],
            "fiber_size": self.fiber_size,
            "moves": self.move_count,
            "N": self.steps,
            "schedule": self.schedule,
        }
        blob = json.dumps(key, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def make_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Draw the observed tables, and write them (and, for a file basis,
    the basis file) where the tests read them."""
    tables, size = draw_tables(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    for k, cells in enumerate(tables):
        with open(directory / TABLE_FILE.format(k), "w") as f:
            write_table(Table(cells=cells, shape=workload.shape), f)
    if workload.moves == "file":
        save_basis(n3f_basis(workload.shape[0]), directory / BASIS_FILE)
    spec = fiber_spec_from_observation(workload.model_spec(),
                                       Table(cells=tables[0], shape=workload.shape))
    moves = workload.build_moves(spec, directory / BASIS_FILE)
    inputs = Inputs(workload.name, seed, tables, size, len(moves), workload.steps,
                    workload.schedule_name, directory)
    with open(directory / "inputs.json", "w") as f:
        json.dump({"tables": tables, "fiber_size": size, "move_count": len(moves)}, f)
    return inputs


def load_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    """The inputs a set-up process wrote to ``directory``."""
    with open(directory / "inputs.json") as f:
        raw = json.load(f)
    return Inputs(workload.name, seed, tuple(tuple(t) for t in raw["tables"]),
                  raw["fiber_size"], raw["move_count"], workload.steps,
                  workload.schedule_name, directory)


def main(argv=None) -> int:
    """Set-up entry point: ``python3 -m perfbench.workloads NAME SEED DIR``."""
    name, seed, directory = (argv if argv is not None else sys.argv[1:])
    make_inputs(WORKLOADS[name], int(seed), Path(directory))
    return 0


if __name__ == "__main__":
    sys.exit(main())
