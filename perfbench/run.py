"""Benchmark one fiberwalk conditional test, end to end or per layer.

    python3 -m perfbench.run --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then repeats the test
that `fiberwalk test` runs on them, each time with a fresh walk seed,
until S seconds have passed, checking every answer.  With ``--trace 0``
the tests run untraced and the end-to-end metrics are reported; with
``--trace 1`` tests alternate untraced and traced, and the per-layer
metrics are reported (medians over the traced tests).  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import ROOT
from .dpll_stub import CORRUPT_EVERY
from .pipeline import NULL_TRACER, check, conditional_test, dpll_probe, ess, parity
from .tracing import Tracer
from .workloads import WORK, WORKLOADS, load_inputs, make_inputs

BASELINE = Path(__file__).resolve().with_name("baseline.json")
SETUPS = 5  # set-up repetitions; setup_s is their median
SETUP_TIMEOUT = 120  # seconds
PARITY_STEPS = 2_000

END_TO_END = {
    "setup_s": "s",
    "test_s": "s",
    "ess_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "models.s": "s",
    "mle.fit_s": "s",
    "mle.iterations": "count",
    "mle.converged": "bool",
    "enumeration.s": "s",
    "enumeration.elements": "count",
    "enumeration.us_per_element": "us",
    "enumeration.exact_p_s": "s",
    "encode.s": "s",
    "encode.vars": "count",
    "encode.clauses": "count",
    "encode.dimacs_bytes": "B",
    "dpll.s": "s",
    "dpll.models": "count",
    "dpll.ms_per_model": "ms",
    "moves.s": "s",
    "moves.count": "count",
    "sampling.self_s": "s",
    "sampling.calls": "count",
    "sampling.first_call_s": "s",
    "sampling.call_s": "s",
    "sampling.draws": "count",
    "sampling.valid_ratio": "ratio",
    "sampling.child_rss_mb": "MB",
    "walk.self_s": "s",
    "walk.steps_per_s": "1/s",
    "walk.accept_rate.move": "ratio",
    "walk.accept_rate.sat": "ratio",
    "walk.sat_steps": "count",
    "walk.move_steps": "count",
    "walk.distinct_states": "count",
    "trace.test_s": "s",
    "trace.overhead_s": "s",
}


def walk_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1, dtype=np.uint64)[0] >> 2)


def recorded_fingerprint(workload: str, seed: int) -> str | None:
    if not BASELINE.is_file():
        return None
    with open(BASELINE) as f:
        return json.load(f).get("fingerprints", {}).get(workload, {}).get(str(seed))


def timed_setup(workload: str, seed: int, directory: Path) -> float:
    """Wall time of one set-up in a fresh interpreter: package import,
    table generation and writing the files the test reads."""
    t0 = time.perf_counter()
    # A wait with a timeout polls every 50 ms and so rounds the time up to
    # the next poll; wait without one, and bound the child by an alarm,
    # which it keeps across exec and which ends it by default.
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.workloads", workload, str(seed), str(directory)],
        cwd=ROOT, preexec_fn=lambda: signal.alarm(SETUP_TIMEOUT),
    )
    code = proc.wait()
    seconds = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return seconds


def layer_metrics(out, tracer: Tracer, run_id: int, dimacs_bytes: int) -> dict:
    own = tracer.self_times(run_id)
    calls = tracer.sampler.calls
    durations = tracer.durations(run_id, "sampling")
    rec = out.rec
    kinds = rec.proposal_kind
    enum_s = own["enumeration"]
    return {
        "models.s": own["models"],
        "mle.fit_s": own["mle"],
        "mle.iterations": out.fit.iterations,
        "mle.converged": int(out.fit.converged),
        "enumeration.s": enum_s,
        "enumeration.elements": out.enum_size,
        "enumeration.us_per_element": 1e6 * enum_s / out.enum_size,
        "enumeration.exact_p_s": own["enumeration.exact_p"],
        "encode.s": own.get("encode", 0.0) + own.get("encode.dimacs", 0.0),
        "encode.vars": tracer.sampler.encoding.num_vars,
        "encode.clauses": len(tracer.sampler.encoding.clauses),
        "encode.dimacs_bytes": dimacs_bytes,
        "moves.s": own["moves"],
        "moves.count": out.move_count,
        "sampling.self_s": own["sampling"] + own["sampling.build"],
        "sampling.calls": len(calls),
        "sampling.first_call_s": durations[0],
        "sampling.call_s": statistics.median(durations[1:]),
        "sampling.draws": sum(got for _, got in calls),
        "sampling.valid_ratio": sum(got for _, got in calls) / sum(want for want, _ in calls),
        "walk.self_s": own["walk"],
        "walk.steps_per_s": rec.steps / own["walk"],
        "walk.accept_rate.move": float(rec.accepted[kinds == 0].mean()),
        "walk.accept_rate.sat": float(rec.accepted[kinds == 1].mean()),
        "walk.sat_steps": rec.sat_steps,
        "walk.move_steps": rec.move_steps,
        "walk.distinct_states": tracer.stat.calls - 1,  # less the threshold
        "trace.test_s": out.seconds,
    }


def sampler_problems(workload, tracer: Tracer) -> list[str]:
    """Every call must return what the sampler injected: all draws from
    the internal sampler, all but the stub's corrupted lines from it."""
    def expected(want):
        return want - want // CORRUPT_EVERY if workload.sampler == "external" else want

    return [f"sampler returned {got} of {want} draws, expected {expected(want)}"
            for want, got in tracer.sampler.calls if got != expected(want)]


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    directory = WORK / f"{wl.name}-{args.seed}"
    setup_times = []
    if args.trace:
        inputs = make_inputs(wl, args.seed, directory)
    else:
        setup_times = [timed_setup(wl.name, args.seed, directory) for _ in range(SETUPS)]
        inputs = load_inputs(wl, args.seed, directory)
    fingerprint = inputs.fingerprint()
    print(f"workload: {wl.name}  seed: {args.seed}  fingerprint: {fingerprint}")
    print(f"fiber size: {inputs.fiber_size}  moves: {inputs.move_count}  "
          f"N: {inputs.steps}  schedule: {inputs.schedule}")
    for k, cells in enumerate(inputs.tables):
        print(f"table {k}: {' '.join(map(str, cells))}")
    recorded = recorded_fingerprint(wl.name, args.seed)
    if recorded is not None and recorded != fingerprint:
        raise SystemExit(f"perfbench: fingerprint {fingerprint} differs from the recorded "
                         f"{recorded} for {wl.name} seed {args.seed}; refusing to compare")
    # the external-sampler bridge writes its DIMACS files with tempfile;
    # keep them inside the checkout
    tempfile.tempdir = str(directory)

    tracer = Tracer() if args.trace else NULL_TRACER
    checks: list[list[str]] = []  # run-level checks, one entry each
    probe = None
    if args.trace or wl.sampler == "external":
        probe = dpll_probe(wl, inputs, tracer)
        checks.append([] if probe["ok"] else ["DPLL model set differs from the enumerated fiber"])
    if args.trace:
        checks.append(parity(wl, inputs, 0, walk_seed(args.seed, 0), PARITY_STEPS))
        dimacs = dimacs_bytes(probe["encoding"])

    tests = []  # (seconds, ess, problems, layer metrics or None)
    deadline = time.perf_counter() + args.seconds
    k = 0
    last = 0.0
    raised = 0
    # traced runs alternate untraced and traced tests; the difference of
    # their medians is the tracing overhead.  A test starts only while
    # half of the previous one still fits, so a run ends within about
    # half a test of its deadline.
    while raised < 3 and (k < 1 + args.trace or time.perf_counter() + last / 2 < deadline):
        started = time.perf_counter()
        traced = args.trace and k % 2 == 1
        if traced:
            tracer.new_run()
        try:
            out = conditional_test(wl, inputs, k, walk_seed(args.seed, k),
                                   tracer=tracer if traced else NULL_TRACER)
            problems = check(wl, inputs, out)
            layers = None
            if traced:
                problems += sampler_problems(wl, tracer)
                layers = layer_metrics(out, tracer, tracer.run_id, dimacs)
            tests.append((out.seconds, ess(out), problems, layers))
            print(f"test {k} (table {k % len(inputs.tables)}): {out.seconds:.3f} s  "
                  f"ess {tests[-1][1]:.0f}  p_mcmc {out.rec.p_final!r}  p_exact {out.exact!r}"
                  + (f"  FAILED: {problems}" if problems else ""))
        except Exception as exc:  # a test that raises counts as failed
            tests.append((float("nan"), float("nan"), [repr(exc)], None))
            print(f"test {k}: FAILED: {exc!r}")
            raised += 1
        last = time.perf_counter() - started
        k += 1

    failed = sum(1 for t in tests if t[2]) + sum(1 for c in checks if c)
    attempted = len(tests) + len(checks)
    for c in checks:
        for problem in c:
            print(f"check FAILED: {problem}")
    ok = [t for t in tests if not t[2]]
    if args.trace:
        units = PER_LAYER
        layers = [t[3] for t in ok if t[3] is not None]
        untraced = [t[0] for t in ok if t[3] is None]
        metrics = {}
        if layers and untraced:
            metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
            metrics["dpll.s"] = probe["seconds"]
            metrics["dpll.models"] = probe["models"]
            metrics["dpll.ms_per_model"] = 1e3 * probe["seconds"] / probe["models"]
            metrics["sampling.child_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
            metrics["trace.overhead_s"] = metrics["trace.test_s"] - statistics.median(untraced)
        tracer.write(directory / "spans.json")
    else:
        units = END_TO_END
        metrics = {}
        if ok:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "test_s": statistics.median(t[0] for t in ok),
                "ess_per_s": statistics.median(t[1] / t[0] for t in ok),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    print(f"tests: {len(tests)}  checks: {len(checks)}  failed: {failed}  "
          f"failed_ratio: {failed / attempted:.4g}")
    for name, value in metrics.items():
        print(f"{name}: {value!r} {units[name]}")
    return {
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def dimacs_bytes(encoding) -> int:
    buf = io.StringIO()
    encoding.to_dimacs(buf)
    return len(buf.getvalue().encode())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.run", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
