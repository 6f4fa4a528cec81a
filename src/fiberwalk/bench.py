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
    Independence,
    NoThreeWay,
    QuasiIndependence,
    Table,
    fiber_spec_from_observation,
    unflatten_index,
)
from .moves import (
    MOVE_SOURCES,
    DegenerateZeroPattern,
    build_moves,
    cycle_moves,
    repair_zero_pattern,
)
from .sampling import SamplerConfig, build_sampler, make_rng
from .walk import MovesOnly, RunRecord, Schedule, make_schedule, run_walk

__all__ = [
    "ExperimentConfig",
    "BenchRun",
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
    shape: Sequence[int], n: int, lam: float, seed: int, max_retries: int = 50
) -> tuple[Table, tuple[int, ...]]:
    """Two-way table plus a zero pattern under which the MLE exists.

    Starts from the table's own zero cells, grows the pattern until
    every long cycle of the free-cell graph is doubly chorded, zeroes
    any cell the repair claimed, and redistributes the removed counts
    over the free cells by largest remainder (preserving n).  A repair
    that strips a full row or column, or leaves a free-cell graph
    without cycles (a one-element fiber with no moves), triggers a
    fresh table.
    """
    d1, d2 = (int(s) for s in shape)
    rng = make_rng(seed, 17)
    for _ in range(max_retries):
        table_seed = int(rng.integers(1 << 62))
        table = generate_initial_two_way((d1, d2), n, lam, table_seed)
        initial_zeros = tuple(j for j, c in enumerate(table.cells) if c == 0)
        try:
            zeros = repair_zero_pattern((d1, d2), initial_zeros, rng)
        except DegenerateZeroPattern:
            continue
        if not len(cycle_moves((d1, d2), zeros)):
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
    raise RuntimeError(f"no usable zero pattern after {max_retries} tables")


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
    batch_seed = int(rng.integers(1 << 62))
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
    exact_cap: int = 100_000

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.model in ("independence", "quasi") and len(self.shape) != 2:
            raise ValueError(f"model {self.model!r} needs a two-way shape")
        if self.model == "n3f" and (
            len(self.shape) != 3 or len(set(self.shape)) != 1
        ):
            raise ValueError("model 'n3f' needs a cubic shape (d, d, d)")
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
        if self.move_source == "cycle" and self.model == "n3f":
            raise ValueError("cycle moves apply to two-way tables only")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class BenchRun:
    """One run's outcome; ``error`` is set (and the rest mostly empty)
    when a stage failed and the run was skipped."""

    run_id: int
    initial: Table | None
    lam: float | None
    zeros: tuple[int, ...]
    exact_p: float | None
    p_sequence: np.ndarray | None
    convergence_step: int | None
    sat_steps: int
    move_steps: int
    final_p: float | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def convergence_step(
    p_sequence: Sequence[float], reference: float, tol: float = 0.005
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
    moves = build_moves(move_source, spec, move_path)
    rec = run_walk(spec, u_obs, schedule, moves, build_sampler(sampler), steps, stat, seed)
    return ConditionalTest(fit, exact, rec)


def _one_run(
    config: ExperimentConfig, run_id: int, lam: float | None, gen_seed: int, walk_seed: int
) -> BenchRun:
    if config.model == "independence":
        initial = generate_initial_two_way(config.shape, config.n, lam, gen_seed)
        model = Independence(config.shape)
    elif config.model == "quasi":
        initial, zeros = generate_initial_quasi(config.shape, config.n, lam, gen_seed)
        model = QuasiIndependence(config.shape, [unflatten_index(j, config.shape) for j in zeros])
    else:
        initial = generate_initial_n3f(config.shape[0], config.n, config.sampler, gen_seed)
        model = NoThreeWay(config.shape[0])
    spec = fiber_spec_from_observation(model, initial)
    test = conditional_test(
        spec, initial, config.schedule, config.move_source, config.move_path,
        config.sampler, config.steps, walk_seed, config.exact_cap,
    )
    exact, rec = test.exact_p, test.rec
    zeros = spec.structural_zeros
    if rec.aborted:
        return BenchRun(
            run_id, initial, lam, zeros, exact, None, None,
            rec.sat_steps, rec.move_steps, None,
            error=f"walk aborted: {rec.abort_reason}",
        )
    reference = exact if exact is not None else rec.p_final
    step = convergence_step(rec.p_sequence, reference, config.tol)
    return BenchRun(
        run_id, initial, lam, zeros, exact, rec.p_sequence, step,
        rec.sat_steps, rec.move_steps, rec.p_final,
    )


def run_evaluation(config: ExperimentConfig) -> list[BenchRun]:
    """Run the full experiment; per-run failures become error records
    and the experiment continues."""
    master = make_rng(config.seed, 3)
    records: list[BenchRun] = []
    for i in range(config.runs):
        gen_seed = int(master.integers(1 << 62))
        walk_seed = int(master.integers(1 << 62))
        lam = (
            None
            if config.model == "n3f"
            else config.lambdas[i % len(config.lambdas)]
        )
        try:
            records.append(_one_run(config, i + 1, lam, gen_seed, walk_seed))
        except Exception as exc:  # record, skip, keep going
            records.append(
                BenchRun(
                    i + 1, None, lam, (), None, None, None, 0, 0, None,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return records


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _svg_plot(records: list[BenchRun], width: int = 720, height: int = 420) -> str:
    left, right, top, bottom = 52, 16, 16, 36
    pw, ph = width - left - right, height - top - bottom
    runs = [r for r in records if r.ok and r.p_sequence is not None]
    steps = max((len(r.p_sequence) for r in runs), default=1)

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
    for k, rec in enumerate(runs):
        seq = rec.p_sequence
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
    seen: set[float] = set()
    for rec in runs:
        if rec.exact_p is None or rec.exact_p in seen:
            continue
        seen.add(rec.exact_p)
        yy = y(rec.exact_p)
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

    summary = out / "summary.csv"
    with open(summary, "w", newline="\n") as f:
        f.write("run,convergence_step,final_p,exact_p,sat_steps,move_steps\n")
        for rec in records:
            if not rec.ok:
                continue
            f.write(
                ",".join(
                    [
                        str(rec.run_id),
                        _fmt(rec.convergence_step),
                        _fmt(rec.final_p),
                        _fmt(rec.exact_p),
                        str(rec.sat_steps),
                        str(rec.move_steps),
                    ]
                )
                + "\n"
            )
    written.append(summary)

    for rec in records:
        if not rec.ok or rec.p_sequence is None:
            continue
        path = out / f"run_{rec.run_id:03d}.csv"
        with open(path, "w", newline="\n") as f:
            f.write("step,p\n")
            for t, p in enumerate(rec.p_sequence, start=1):
                f.write(f"{t},{float(p)!r}\n")
        written.append(path)

    failures = [rec for rec in records if not rec.ok]
    if failures:
        path = out / "failures.csv"
        with open(path, "w", newline="\n") as f:
            f.write("run,error\n")
            for rec in failures:
                err = rec.error.replace('"', "'")
                f.write(f'{rec.run_id},"{err}"\n')
        written.append(path)

    plot = out / "plot.svg"
    with open(plot, "w", newline="\n") as f:
        f.write(_svg_plot(records))
    written.append(plot)
    return written


def _parse_shape(text: str) -> tuple[int, ...]:
    toks = text.replace(",", " ").split()
    if not toks:
        raise ValueError("empty shape")
    return tuple(int(t) for t in toks)


def _parse_lambdas(text: str) -> tuple[float, ...]:
    toks = text.replace(",", " ").split()
    return tuple(float(t) for t in toks)


def parse_config(path) -> ExperimentConfig:
    """Experiment configuration from an INI file with sections
    [experiment], [schedule], [sampler], [moves]."""
    import configparser

    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read config file {path}")
    exp = parser["experiment"] if parser.has_section("experiment") else {}
    if "model" not in exp or "shape" not in exp or "n" not in exp:
        raise ValueError("config needs [experiment] with model, shape and n")

    sched_kind = "moves-only"
    period, walks = 1, 1
    if parser.has_section("schedule"):
        s = parser["schedule"]
        sched_kind = s.get("kind", sched_kind).strip().lower()
        period = s.getint("period", fallback=1)
        walks = s.getint("walks", fallback=1)
    schedule = make_schedule(sched_kind, period, walks)

    sampler = SamplerConfig()
    if parser.has_section("sampler"):
        s = parser["sampler"]
        kind = s.get("kind", "internal-uniform").strip().lower()
        timeout = s.getfloat("timeout", fallback=None)
        sampler = SamplerConfig(
            kind=kind,
            command_template=s.get("command", fallback=None) or None,
            timeout=timeout,
            bias_strength=s.getfloat("bias_strength", fallback=0.0),
        )

    move_source, move_path = "basic", None
    if parser.has_section("moves"):
        s = parser["moves"]
        move_source = s.get("source", "basic").strip().lower()
        move_path = s.get("path", fallback=None) or None

    return ExperimentConfig(
        model=exp["model"].strip().lower(),
        shape=_parse_shape(exp["shape"]),
        n=int(exp["n"]),
        runs=int(exp.get("runs", 10)),
        steps=int(exp.get("steps", 1000)),
        schedule=schedule,
        sampler=sampler,
        move_source=move_source,
        move_path=move_path,
        lambdas=_parse_lambdas(exp["lambdas"]) if "lambdas" in exp else DEFAULT_LAMBDAS,
        seed=int(exp.get("seed", 0)),
        tol=float(exp.get("tolerance", 0.005)),
        exact_cap=int(exp.get("exact_cap", 100_000)),
    )
