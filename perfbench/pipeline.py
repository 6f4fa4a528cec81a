"""One conditional test, as `fiberwalk test` runs it, through the
package's public functions, plus the checks on its answer.

``conditional_test`` follows ``fiberwalk.cli.cmd_test`` step by step;
``parity`` runs the CLI itself on the same input and compares the
printed p-values byte for byte, which shows that the timed path is the
one that ships.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass

from fiberwalk import (
    ChiSquare,
    FiberTooLarge,
    build_sampler,
    encode_fiber,
    enumerate_cnf_tables,
    enumerate_fiber,
    exact_p_from_enumeration,
    fiber_spec_from_observation,
    fit_loglinear,
    read_table,
    run_walk,
)
from fiberwalk.cli import main as cli_main

from .mcse import batch_means, hits_from_p_sequence
from .tracing import NullTracer
from .workloads import EXACT_CAP, Inputs, Workload

NULL_TRACER = NullTracer()


@dataclass
class Outcome:
    """What one test produced, with everything the checks need."""

    seconds: float
    spec: object
    fit: object
    enum_size: int
    move_count: int
    exact: float | None
    rec: object


def conditional_test(workload: Workload, inputs: Inputs, table: int, seed: int,
                     steps: int | None = None, tracer=NULL_TRACER) -> Outcome:
    """Run one conditional test on observed table ``table`` and time it
    from reading the table to holding both p-values."""
    steps = workload.steps if steps is None else steps
    t0 = time.perf_counter()
    with tracer.span("test"):
        with tracer.span("models"):
            with open(inputs.table_path(table)) as f:
                u, _ = read_table(f)
            spec = fiber_spec_from_observation(workload.model_spec(), u)
        with tracer.span("mle"):
            fit = fit_loglinear(spec.matrix, u, zeros=spec.structural_zeros)
            stat = ChiSquare(fit.pi, u.n, spec.structural_zeros)
            threshold = stat(u.cells)
        with tracer.span("enumeration"):
            enum = enumerate_fiber(spec, cap=EXACT_CAP)
        with tracer.span("enumeration.exact_p"):
            exact = exact_p_from_enumeration(enum, threshold, stat) if enum.complete else None
        with tracer.span("moves"):
            moves = workload.build_moves(spec, inputs.basis_path)
        with tracer.span("sampling.build"):
            sampler = tracer.wrap_sampler(build_sampler(workload.sampler_config()))
        with tracer.span("walk"), tracer.patch_encoder():
            rec = run_walk(spec, u, workload.schedule, moves, sampler, steps,
                           tracer.wrap_stat(stat), seed)
    seconds = time.perf_counter() - t0
    return Outcome(seconds, spec, fit, len(enum), len(moves), exact, rec)


def check(workload: Workload, inputs: Inputs, run: Outcome) -> list[str]:
    """Reasons the test's answer is wrong; empty when it is right."""
    steps = workload.steps
    rec = run.rec
    problems = []
    if rec.aborted:
        problems.append(f"walk aborted: {rec.abort_reason}")
    if run.enum_size != inputs.fiber_size:
        problems.append(f"enumeration found {run.enum_size} elements, expected {inputs.fiber_size}")
    if run.move_count != inputs.move_count:
        problems.append(f"{run.move_count} moves, expected {inputs.move_count}")
    if not all(run.spec.contains(t) for t in rec.finals):
        problems.append("a final state is outside the fiber")
    want_sat = steps // workload.period
    if (rec.sat_steps, rec.move_steps) != (want_sat, steps - want_sat):
        problems.append(f"sat/move steps {rec.sat_steps}/{rec.move_steps}, "
                        f"schedule implies {want_sat}/{steps - want_sat}")
    hits = hits_from_p_sequence(rec.p_sequence)
    if int(hits.sum()) != rec.hits:
        problems.append("hits recovered from the p sequence disagree with the walk")
    if run.exact is None:
        problems.append("exact p unavailable")
    elif not rec.aborted:
        bm = batch_means(hits)
        gap = abs(rec.p_final - run.exact)
        if not gap <= max(0.01, 4 * bm.mcse):
            problems.append(f"|p_mcmc - p_exact| = {gap:.4g} exceeds max(0.01, 4 * MCSE {bm.mcse:.3g})")
    return problems


def dpll_probe(workload: Workload, inputs: Inputs, tracer, cap: int = 200) -> dict:
    """Time in-process CNF model enumeration on this workload's fiber.

    On sat-external this is the full bijection check against direct
    enumeration.  The other fibers hold thousands of elements at a few
    milliseconds each, so there the solver stops after ``cap`` models.
    """
    with open(inputs.table_path(0)) as f:
        u, _ = read_table(f)
    spec = fiber_spec_from_observation(workload.model_spec(), u)
    encoding = encode_fiber(spec)
    full = workload.sampler == "external"
    t0 = time.perf_counter()
    with tracer.span("dpll"):
        try:
            tables = enumerate_cnf_tables(encoding, cap=EXACT_CAP if full else cap)
            models = len(tables)
        except FiberTooLarge:
            tables, models = None, cap + 1  # raised on model cap + 1
    seconds = time.perf_counter() - t0
    ok = True
    if full:
        direct = {v.cells for v in enumerate_fiber(spec, cap=EXACT_CAP)}
        ok = tables is not None and {v.cells for v in tables} == direct and models == inputs.fiber_size
    return {"seconds": seconds, "models": models, "ok": ok, "encoding": encoding}


def parity(workload: Workload, inputs: Inputs, table: int, seed: int, steps: int) -> list[str]:
    """Run `fiberwalk test` and this module's pipeline on the same
    input and compare the printed p-values byte for byte."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(workload.cli_args(inputs, table, steps, seed))
    lines = dict(line.split(": ", 1) for line in out.getvalue().splitlines() if ": " in line)
    run = conditional_test(workload, inputs, table, seed, steps=steps)
    ours = {"mcmc p": repr(run.rec.p_final),
            "exact p": repr(run.exact) if run.exact is not None else None}
    problems = []
    if code != 0:
        problems.append(f"fiberwalk test exited {code}")
    for key, value in ours.items():
        if lines.get(key) != value:
            problems.append(f"{key}: cli {lines.get(key)!r}, benchmark {value!r}")
    return problems


def ess(run: Outcome) -> float:
    return batch_means(hits_from_p_sequence(run.rec.p_sequence)).ess
