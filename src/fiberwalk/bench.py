"""The conditional test, and the evaluation driver that repeats it:
generate initial tables, test them, measure steps to convergence,
export results.

:func:`conditional_test` is the one path from an observed table to its
p-values, shared by ``fiberwalk test`` and ``fiberwalk bench``: it fits
the log-linear MLE to define the chi-square statistic, computes the
exact p-value when the fiber is small enough to enumerate, and runs
the configured walk for the running p-value.

Each evaluation run draws an initial table u-hat at a controlled
distance from independence (a lambda-blend of an independent
multinomial draw and a diagonal-concentrated one, rounded back to sum
n by largest remainder), picks structural zeros where the model calls
for them, and tests it; the exact p-value, when there is one, is the
convergence reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .enumeration import enumerate_fiber, exact_p_from_enumeration
from .mle import ChiSquare, FitResult, fit_loglinear
from .models import (
    FiberSpec,
    Hierarchical,
    NoThreeWay,
    QuasiIndependence,
    Table,
    fiber_spec_from_observation,
    unflatten_index,
)
from .moves import (
    MOVE_SOURCES,
    DegenerateZeroPattern,
    basic_moves_two_way,
    build_moves,
    repair_zero_pattern,
)
from .sampling import SEED_BOUND, SamplerConfig, build_sampler, make_rng
from .walk import MovesOnly, RunRecord, Schedule, make_schedule, run_walk, takes_move_steps

__all__ = [
    "ExperimentConfig",
    "BenchRun",
    "build_model",
    "ConditionalTest",
    "conditional_test",
    "generate_initial_two_way",
    "generate_initial_quasi",
    "generate_initial_n3f",
    "run_evaluation",
    "convergence_step",
    "export_results",
    "parse_config",
    "round_largest_remainder",
    "DEFAULT_LAMBDAS",
]

DEFAULT_LAMBDAS = (0.0, 0.25, 0.5, 0.75, 1.0)

MODELS = ("independence", "quasi", "n3f")

EXACT_CAP = 100_000  # fiber elements a test enumerates for its exact p-value

QUASI_TABLES = 50  # tables generate_initial_quasi draws before it gives up


def build_model(name: str, shape: Sequence[int], zeros: Sequence = ()) -> Hierarchical:
    """The model ``name``, one of ``MODELS``: independence and quasi are
    quasi-independence, which fixes the 1-margins of a two-way ``shape``
    with ``zeros`` (multi-indices) as structural zeros; n3f fixes the
    2-margins of a cubic ``shape`` and takes no zeros."""
    if name not in MODELS:
        raise ValueError(f"unknown model {name!r}; expected one of {MODELS}")
    if name != "n3f":
        return QuasiIndependence(shape, zeros)  # refuses a shape that is not two-way
    if zeros or len(shape) != 3 or len(set(shape)) != 1:
        raise ValueError("model 'n3f' needs a cubic shape (d, d, d) and no structural zeros")
    return NoThreeWay(shape[0])


def round_largest_remainder(weights: Sequence[float], total: int) -> list[int]:
    """Round nonnegative weights to integers summing to ``total``:
    floor everything, then hand the leftover units to the largest
    fractional parts (ties to the lower index)."""
    floors = [math.floor(w) for w in weights]
    leftover = total - sum(floors)
    if leftover < 0 or leftover > len(weights):
        raise ValueError(f"weights sum to {sum(weights)}, not {total}")
    order = sorted(range(len(weights)), key=lambda j: (floors[j] - weights[j], j))
    out = list(floors)
    for j in order[:leftover]:
        out[j] += 1
    return out


def _dependent_law(d1: int, d2: int) -> np.ndarray:
    # 0.8 mass spread along the wrapped diagonal, 0.2 uniform
    probs = np.full(d1 * d2, 0.2 / (d1 * d2))
    diag = max(d1, d2)
    for t in range(diag):
        probs[(t % d1) * d2 + (t % d2)] += 0.8 / diag
    return probs


def generate_initial_two_way(
    shape: Sequence[int], n: int, lam: float, seed: int
) -> Table:
    """Blend an independent draw with a diagonal-concentrated one.

    u_indep is multinomial from p (x) q with random positive marginal
    laws; u_dep is multinomial from the dependent law; the returned
    table is the largest-remainder rounding of
    lam*u_indep + (1-lam)*u_dep, redrawn until every 1-margin is
    positive.
    """
    d1, d2 = (int(s) for s in shape)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    if n < max(d1, d2):
        raise ValueError(f"n = {n} cannot give positive margins on shape {d1}x{d2}")
    rng = make_rng(seed)
    dep_law = _dependent_law(d1, d2)
    for _ in range(1000):
        p = rng.dirichlet(np.ones(d1))
        q = rng.dirichlet(np.ones(d2))
        u_indep = rng.multinomial(n, np.outer(p, q).ravel())
        u_dep = rng.multinomial(n, dep_law)
        blend = lam * u_indep + (1.0 - lam) * u_dep
        cells = round_largest_remainder(blend.tolist(), n)
        arr = np.asarray(cells).reshape(d1, d2)
        if (arr.sum(axis=1) > 0).all() and (arr.sum(axis=0) > 0).all():
            return Table(cells=tuple(cells), shape=(d1, d2))
    raise RuntimeError("no table with positive margins after 1000 draws")


def generate_initial_quasi(
    shape: Sequence[int], n: int, lam: float, seed: int
) -> tuple[Table, tuple[int, ...]]:
    """Two-way table plus a zero pattern under which the MLE exists.

    Starts from the table's own zero cells, grows the pattern until
    every long cycle of the free-cell graph is doubly chorded, zeroes
    any cell the repair claimed, and redistributes the removed counts
    over the free cells by largest remainder (preserving n).  A repair
    that strips a full row or column, or leaves a free-cell graph
    without cycles (a one-element fiber with no moves), triggers a
    fresh table, up to ``QUASI_TABLES`` tables.
    """
    d1, d2 = (int(s) for s in shape)
    rng = make_rng(seed, 17)
    for _ in range(QUASI_TABLES):
        table_seed = int(rng.integers(SEED_BOUND))
        table = generate_initial_two_way((d1, d2), n, lam, table_seed)
        initial_zeros = tuple(j for j, c in enumerate(table.cells) if c == 0)
        try:
            zeros = repair_zero_pattern((d1, d2), initial_zeros, rng)
        except DegenerateZeroPattern:
            continue
        # repaired, every long cycle has a chord, so a cycle means a rectangle
        if not len(basic_moves_two_way((d1, d2), zeros)):
            continue
        added = [j for j in zeros if table.cells[j] > 0]
        if not added:
            return table, zeros
        removed = sum(table.cells[j] for j in added)
        if removed >= n:
            continue
        zero_set = set(zeros)
        free = [j for j in range(d1 * d2) if j not in zero_set]
        scale = n / (n - removed)
        weights = [table.cells[j] * scale for j in free]
        rounded = round_largest_remainder(weights, n)
        cells = [0] * (d1 * d2)
        for j, c in zip(free, rounded):
            cells[j] = c
        return Table(cells=tuple(cells), shape=(d1, d2)), zeros
    raise RuntimeError(f"no usable zero pattern after {QUASI_TABLES} tables")


def generate_initial_n3f(
    d: int, n: int, sampler: SamplerConfig, seed: int
) -> Table:
    """Draw n uniform cells of a d^3 table, then pull one element from
    the fiber of its 2-margins via the configured sampler."""
    from .encode import encode_fiber

    rng = make_rng(seed)
    cells = [0] * (d * d * d)
    for i, j, k in rng.integers(0, d, size=(n, 3)):
        cells[(int(i) * d + int(j)) * d + int(k)] += 1
    v = Table(cells=tuple(cells), shape=(d, d, d))
    spec = fiber_spec_from_observation(NoThreeWay(d), v)
    batch_seed = int(rng.integers(SEED_BOUND))
    tables = build_sampler(sampler).sample(encode_fiber(spec), 1, batch_seed)
    return tables[0]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one evaluation needs, mirroring the config file."""

    model: str
    shape: tuple[int, ...]
    n: int
    runs: int = 10
    steps: int = 1000
    schedule: Schedule = field(default_factory=MovesOnly)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    move_source: str = "basic"
    move_path: str | None = None
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS
    seed: int = 0
    tol: float = 0.005
    exact_cap: int = EXACT_CAP

    def __post_init__(self) -> None:
        build_model(self.model, self.shape)
        if self.runs < 1 or self.steps < 1:
            raise ValueError("runs and steps must be >= 1")
        if not self.lambdas or not all(0.0 <= x <= 1.0 for x in self.lambdas):
            raise ValueError("lambda grid must be nonempty within [0, 1]")
        if self.move_source not in MOVE_SOURCES:
            raise ValueError(
                f"unknown move source {self.move_source!r}; expected one of {MOVE_SOURCES}"
            )
        if self.move_source == "file" and not self.move_path:
            raise ValueError("move source 'file' needs a path")
        if self.move_source == "cycle" and self.model == "n3f" and takes_move_steps(self.schedule):
            raise ValueError("cycle moves apply to two-way tables only")
        if not self.tol > 0:  # refuses NaN too
            raise ValueError("tolerance must be positive")
        if self.exact_cap < 0:
            raise ValueError("exact_cap must be >= 0")


@dataclass(frozen=True)
class BenchRun:
    """One run's outcome: the conditional test it ran, None when a stage
    before the test failed, and the step at which its p-sequence
    settled.  ``error`` is set when the run failed; a run whose walk
    aborted keeps its test."""

    run_id: int
    test: ConditionalTest | None
    convergence_step: int | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def convergence_step(
    p_sequence: Sequence[float], reference: float, tol: float = ExperimentConfig.tol
) -> int | None:
    """Smallest 1-based t with |p_s - reference| <= tol for all s >= t.

    With the final value as the reference this always exists; with an
    exact reference the sequence may never settle inside the band, in
    which case the answer is None.
    """
    seq = np.asarray(p_sequence, dtype=float)
    if seq.size == 0:
        raise ValueError("empty p-sequence")
    bad = np.flatnonzero(np.abs(seq - reference) > tol)
    if bad.size == 0:
        return 1
    if bad[-1] == seq.size - 1:
        return None
    return int(bad[-1]) + 2


@dataclass(frozen=True)
class ConditionalTest:
    """What one conditional test produced: the MLE fit, the exact
    p-value (None when the fiber exceeds the enumeration cap) and the
    walk's record, whose ``threshold`` is the observed statistic."""

    fit: FitResult
    exact_p: float | None
    rec: RunRecord


def conditional_test(
    spec: FiberSpec,
    u_obs: Table,
    schedule: Schedule,
    move_source: str,
    move_path,
    sampler: SamplerConfig,
    steps: int,
    seed: int,
    exact_cap: int,
) -> ConditionalTest:
    """Test ``u_obs`` against its fiber ``spec``: fit the MLE, fix the
    chi-square statistic at the observed table, enumerate up to
    ``exact_cap`` elements for the exact p-value, then walk ``steps``
    steps under ``schedule`` with the moves from ``move_source`` and
    the configured sampler."""
    fit = fit_loglinear(spec.matrix, u_obs, zeros=spec.structural_zeros)
    # a zero margin pins its cells to 0 in the fit and in every fiber
    # element, so they leave the statistic like structural zeros
    stat = ChiSquare(fit.pi, u_obs.n, spec.forced_zeros())
    enum = enumerate_fiber(spec, cap=exact_cap)
    exact = exact_p_from_enumeration(enum, stat(u_obs.cells), stat) if enum.complete else None
    moves = build_moves(move_source, spec, move_path) if takes_move_steps(schedule) else None
    rec = run_walk(spec, u_obs, schedule, moves, build_sampler(sampler), steps, stat, seed)
    return ConditionalTest(fit, exact, rec)


def _one_run(
    config: ExperimentConfig, run_id: int, lam: float, gen_seed: int, walk_seed: int
) -> BenchRun:
    zeros = ()
    if config.model == "n3f":
        initial = generate_initial_n3f(config.shape[0], config.n, config.sampler, gen_seed)
    elif config.model == "quasi":
        initial, flat = generate_initial_quasi(config.shape, config.n, lam, gen_seed)
        zeros = [unflatten_index(j, config.shape) for j in flat]
    else:
        initial = generate_initial_two_way(config.shape, config.n, lam, gen_seed)
    spec = fiber_spec_from_observation(build_model(config.model, config.shape, zeros), initial)
    test = conditional_test(
        spec, initial, config.schedule, config.move_source, config.move_path,
        config.sampler, config.steps, walk_seed, config.exact_cap,
    )
    rec = test.rec
    if rec.aborted:
        return BenchRun(run_id, test, error=f"walk aborted: {rec.abort_reason}")
    reference = test.exact_p if test.exact_p is not None else rec.p_final
    return BenchRun(run_id, test, convergence_step(rec.p_sequence, reference, config.tol))


def run_evaluation(config: ExperimentConfig) -> list[BenchRun]:
    """Run the full experiment; per-run failures become error records
    and the experiment continues."""
    master = make_rng(config.seed, 3)
    records: list[BenchRun] = []
    for i in range(config.runs):
        gen_seed = int(master.integers(SEED_BOUND))
        walk_seed = int(master.integers(SEED_BOUND))
        lam = config.lambdas[i % len(config.lambdas)]  # unused by n3f
        try:
            records.append(_one_run(config, i + 1, lam, gen_seed, walk_seed))
        except Exception as exc:  # record, skip, keep going
            records.append(BenchRun(i + 1, None, error=f"{type(exc).__name__}: {exc}"))
    return records


def _fmt(x) -> str:
    return "" if x is None else str(x)


def _svg_plot(tests: list[ConditionalTest]) -> str:
    width, height = 720, 420
    left, right, top, bottom = 52, 16, 16, 36
    pw, ph = width - left - right, height - top - bottom
    steps = max((len(test.rec.p_sequence) for test in tests), default=1)

    def x(t: int) -> float:  # 1-based step
        return left + (pw * (t - 1) / max(steps - 1, 1))

    def y(p: float) -> float:
        return top + ph * (1.0 - p)

    palette = (
        "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
        "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
    )
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        yy = y(frac)
        parts.append(
            f'<line x1="{left}" y1="{yy:.2f}" x2="{left + pw}" y2="{yy:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{yy + 4:.2f}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{frac}</text>'
        )
    for k, test in enumerate(tests):
        seq = test.rec.p_sequence
        stride = max(1, len(seq) // 1200)
        pts = [f"{x(t + 1):.2f},{y(float(seq[t])):.2f}" for t in range(0, len(seq), stride)]
        last = f"{x(len(seq)):.2f},{y(float(seq[-1])):.2f}"
        if pts[-1] != last:
            pts.append(last)
        color = palette[k % len(palette)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
            f'points="{" ".join(pts)}"/>'
        )
    for exact in dict.fromkeys(test.exact_p for test in tests if test.exact_p is not None):
        yy = y(exact)
        parts.append(
            f'<line x1="{left}" y1="{yy:.2f}" x2="{left + pw}" y2="{yy:.2f}" '
            'stroke="black" stroke-width="1.2" stroke-dasharray="5 4"/>'
        )
    parts.append(
        f'<line x1="{left}" y1="{top + ph}" x2="{left + pw}" y2="{top + ph}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + ph}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{left + pw / 2:.0f}" y="{height - 10}" font-size="12" '
        'text-anchor="middle" font-family="sans-serif">step</text>'
    )
    parts.append(
        f'<text x="{left + pw:.0f}" y="{top + ph + 14}" font-size="11" '
        f'text-anchor="end" font-family="sans-serif">{steps}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def export_results(records: list[BenchRun], out_dir) -> list[Path]:
    """Write per-run CSVs, summary.csv, plot.svg (and failures.csv when
    any run failed); returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    done = [run for run in records if run.ok]

    summary = out / "summary.csv"
    with open(summary, "w", newline="\n") as f:
        f.write("run,convergence_step,final_p,exact_p,sat_steps,move_steps\n")
        for run in done:
            rec = run.test.rec
            f.write(
                ",".join(
                    [
                        str(run.run_id),
                        _fmt(run.convergence_step),
                        _fmt(rec.p_final),
                        _fmt(run.test.exact_p),
                        str(rec.sat_steps),
                        str(rec.move_steps),
                    ]
                )
                + "\n"
            )
    written.append(summary)

    for run in done:
        path = out / f"run_{run.run_id:03d}.csv"
        with open(path, "w", newline="\n") as f:
            f.write("step,p\n")
            for t, p in enumerate(run.test.rec.p_sequence, start=1):
                f.write(f"{t},{float(p)!r}\n")
        written.append(path)

    failures = [run for run in records if not run.ok]
    if failures:
        path = out / "failures.csv"
        with open(path, "w", newline="\n") as f:
            f.write("run,error\n")
            for run in failures:
                err = run.error.replace('"', "'")
                f.write(f'{run.run_id},"{err}"\n')
        written.append(path)

    plot = out / "plot.svg"
    with open(plot, "w", newline="\n") as f:
        f.write(_svg_plot([run.test for run in done]))
    written.append(plot)
    return written


def _numbers(kind):
    """A parser of comma- or space-separated numbers of ``kind``."""
    return lambda text: tuple(kind(t) for t in text.replace(",", " ").split())


def _or_none(text: str) -> str | None:
    return text or None


def parse_config(path) -> ExperimentConfig:
    """Experiment configuration from an INI file with sections
    [experiment], [schedule], [sampler], [moves].  A key the file does
    not set keeps the default of the field it fills; an empty command
    or path means none.  Values arrive stripped, so names need only
    lowering."""
    import configparser

    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ValueError(f"cannot read config file {path}")

    def given(section: str, keys: dict) -> dict:
        # each key the section sets, parsed, under the name of its field
        s = parser[section] if parser.has_section(section) else {}
        return {name: parse(s[key]) for key, (name, parse) in keys.items() if key in s}

    exp = given("experiment", {
        "model": ("model", str.lower), "shape": ("shape", _numbers(int)), "n": ("n", int),
        "runs": ("runs", int), "steps": ("steps", int), "seed": ("seed", int),
        "lambdas": ("lambdas", _numbers(float)), "tolerance": ("tol", float),
        "exact_cap": ("exact_cap", int),
    })
    if not {"model", "shape", "n"} <= exp.keys():
        raise ValueError("config needs [experiment] with model, shape and n")
    schedule = given("schedule", {
        "kind": ("kind", str.lower), "period": ("period", int), "walks": ("walks", int),
    })
    if "kind" in schedule:  # period and walks, which only the INI format has, default to 1
        exp["schedule"] = make_schedule(**{"period": 1, "walks": 1, **schedule})
    sampler = given("sampler", {
        "kind": ("kind", str.lower), "command": ("command_template", _or_none),
        "timeout": ("timeout", float), "bias_strength": ("bias_strength", float),
    })
    moves = given("moves", {"source": ("move_source", str.lower), "path": ("move_path", _or_none)})
    return ExperimentConfig(**exp, **moves, sampler=SamplerConfig(**sampler))
