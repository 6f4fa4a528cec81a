"""Command-line front end.

Subcommands cover the pipeline end to end: ``encode`` writes the CNF
and layout files for a fiber, ``enumerate`` lists/counts fiber
elements (directly or by CNF model enumeration), ``test`` runs the
conditional goodness-of-fit test on an observed table, ``bench`` runs
a config-driven evaluation, and ``diagnose`` measures how uniform a
sampler actually is.

Exit codes: 0 success, 1 usage error, 2 runtime failure.  All
randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
from collections import Counter
from pathlib import Path

from .bench import (
    EXACT_CAP, build_model, conditional_test, export_results, parse_config, run_evaluation,
)
from .dpll import projected_models
from .encode import encode_fiber, parse_dimacs, write_layout
from .enumeration import DEFAULT_CAP, FULL_FIBER_CAP, enumerate_fiber, iter_fiber
from .mle import FitResult
from .models import (
    FiberSpec,
    Table,
    fiber_spec_from_observation,
    read_table,
    unflatten_index,
    write_table,
)
from .moves import MOVE_SOURCES
from .sampling import KINDS, SamplerConfig, build_sampler
from .walk import SCHEDULE_KINDS, empirical_tv, make_schedule

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; runtime failures exit 2 (see main)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least(low: int):
    """argparse type: an int no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _positive(text: str) -> float:
    """argparse type: a float above 0."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value:g}")
    return value


_positive.__name__ = "float"  # argparse names it in "invalid float value"


def _mle_warning(fit: FitResult) -> str:
    """The warning for an unconverged MLE fit."""
    return (f"warning: MLE stopped at discrepancy {fit.discrepancy:.3g} "
            f"after {fit.iterations} iterations")


def _add_spec_args(p: argparse.ArgumentParser, with_margins: bool = True) -> None:
    """Fiber flags; without ``with_margins`` the fiber always comes from
    a required --table."""
    g = p.add_argument_group("fiber specification")
    g.add_argument(
        "--model",
        choices=["independence", "n3f"],
        default="independence",
        help="log-linear model (zeros turn independence into quasi-independence)",
    )
    g.add_argument(
        "--shape", type=int, nargs="+", help="table dimensions, e.g. --shape 3 3"
    )
    if with_margins:
        g.add_argument(
            "--margins",
            type=int,
            nargs="+",
            help="margin vector in constraint-row order (axis by axis for "
            "independence; (i,j),(i,k),(j,k) blocks for n3f); not with --table",
        )
    g.add_argument(
        "--zeros",
        nargs="*",
        default=[],
        help="structural-zero cells, as comma-separated multi-indices "
        "(e.g. 0,1) or flat indices",
    )
    g.add_argument(
        "--table",
        required=not with_margins,
        help="observation file; its margins define the fiber",
    )


def _add_walk_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("walk")
    g.add_argument("--schedule", choices=SCHEDULE_KINDS, default="moves-only")
    g.add_argument(
        "--period", type=_at_least(1), default=10, help="n for alternating/parallel-starts"
    )
    g.add_argument("--walks", type=_at_least(1), default=1, help="k for parallel-starts")
    g.add_argument("--moves", choices=MOVE_SOURCES, default="basic")
    g.add_argument("--moves-file", help="move basis file (with --moves file)")


def _add_sampler_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("sampler")
    g.add_argument(
        "--sampler",
        choices=KINDS,
        default=SamplerConfig.kind,
    )
    g.add_argument(
        "--sampler-command",
        help="external command template with {cnf} {count} {seed} placeholders",
    )
    g.add_argument("--bias-strength", type=float, default=SamplerConfig.bias_strength)
    g.add_argument("--timeout", type=_positive, default=None, help="seconds per external sampler call, from its launch")


def _parse_zeros(tokens, shape) -> tuple[tuple[int, ...], ...]:
    out = []
    for tok in tokens:
        if "," in tok:
            out.append(tuple(int(t) for t in tok.split(",")))
        else:
            out.append(unflatten_index(int(tok), shape))
    return tuple(out)


def _build_spec(args) -> tuple[FiberSpec, Table | None]:
    """Fiber from either an observation file or explicit margins."""
    if args.table:
        if getattr(args, "margins", None) is not None:
            raise ValueError("--margins cannot be combined with --table, which sets the margins")
        with open(args.table) as f:
            u, file_zeros = read_table(f)
        if args.shape and tuple(args.shape) != u.shape:
            raise ValueError(
                f"--shape {tuple(args.shape)} contradicts table shape {u.shape}"
            )
        zeros_multi = file_zeros + _parse_zeros(args.zeros, u.shape)
        model = build_model(args.model, u.shape, zeros_multi)
        return fiber_spec_from_observation(model, u), u
    if not args.shape or args.margins is None:
        raise ValueError("need either --table or both --shape and --margins")
    model = build_model(args.model, args.shape, _parse_zeros(args.zeros, args.shape))
    spec = FiberSpec(model.matrix, tuple(args.margins), model.structural_zeros, model.shape)
    return spec, None


def cmd_encode(args) -> int:
    spec, _ = _build_spec(args)
    enc = encode_fiber(spec)
    cnf_path = Path(str(args.out) + ".cnf")
    layout_path = Path(str(args.out) + ".layout")
    with open(cnf_path, "w") as f:
        enc.to_dimacs(f)
    with open(layout_path, "w") as f:
        write_layout(enc, f)
    print(f"cnf: {cnf_path}")
    print(f"layout: {layout_path}")
    print(f"variables: {enc.num_vars}")
    print(f"clauses: {len(enc.clauses)}")
    print(f"bits per cell: {enc.bits_per_cell}")
    if enc.trivially_unsat:
        print("note: trivially unsatisfiable (a margin exceeds its row capacity)")
    return 0


def cmd_enumerate(args) -> int:
    if args.cnf:
        given = [f"--{name}" for name in ("table", "shape", "margins", "zeros")
                 if getattr(args, name)]
        if given:
            raise ValueError(
                f"{', '.join(given)} cannot be combined with --cnf: "
                "the fiber comes from the DIMACS file"
            )
        with open(args.cnf) as f:
            num_vars, clauses, sampling = parse_dimacs(f)
        elements = projected_models(num_vars, clauses, sampling or range(1, num_vars + 1))
    else:
        spec, _ = _build_spec(args)
        elements = iter_fiber(spec)
    # stream: nothing is held beyond the element being printed
    listing = not (args.cnf or args.count_only)
    found = 0
    for element in itertools.islice(elements, args.cap + 1):
        found += 1
        if listing and found <= args.cap:
            write_table(element, sys.stdout)
            print()
    count, complete = min(found, args.cap), found <= args.cap
    marker = "" if complete else " (incomplete: cap reached)"
    print(f"count: {count}{marker}")
    return 0


def cmd_test(args) -> int:
    spec, u = _build_spec(args)
    if args.moves == "file" and not args.moves_file:
        raise ValueError("--moves file needs --moves-file PATH")
    sampler = SamplerConfig(args.sampler, args.sampler_command, args.timeout, args.bias_strength)
    schedule = make_schedule(args.schedule, args.period, args.walks)
    test = conditional_test(
        spec, u, schedule, args.moves, args.moves_file, sampler,
        args.steps, args.seed, args.exact_cap,
    )
    fit, exact, rec = test.fit, test.exact_p, test.rec
    if not fit.converged:
        print(_mle_warning(fit), file=sys.stderr)
    print(f"statistic: {rec.threshold!r}")
    print(f"steps: {rec.steps} (sat {rec.sat_steps}, move {rec.move_steps})")
    if rec.aborted:
        print(f"error: walk aborted: {rec.abort_reason}", file=sys.stderr)
        return 2
    print(f"mcmc p: {rec.p_final!r}")
    if exact is not None:
        print(f"exact p: {exact!r}")
        print(f"difference: {abs(rec.p_final - exact)!r}")
    else:
        print(f"exact p: unavailable (fiber exceeds {args.exact_cap} elements)")
    return 0


def cmd_bench(args) -> int:
    config = parse_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    records = run_evaluation(config)
    paths = export_results(records, args.out)
    ok = sum(1 for r in records if r.ok)
    print(f"runs: {len(records)} ({ok} ok, {len(records) - ok} failed)")
    for run in records:
        if run.test is not None and not run.test.fit.converged:
            print(f"run {run.run_id}: {_mle_warning(run.test.fit)}", file=sys.stderr)
        if not run.ok:
            print(f"run {run.run_id} failed: {run.error}", file=sys.stderr)
    print(f"wrote {len(paths)} files to {args.out}")
    return 0


def cmd_diagnose(args) -> int:
    spec, _ = _build_spec(args)
    config = SamplerConfig(args.sampler, args.sampler_command, args.timeout, args.bias_strength)
    draws = build_sampler(config).sample(encode_fiber(spec), args.draws, args.seed)
    fiber = enumerate_fiber(spec, cap=FULL_FIBER_CAP).require_complete()
    uniform = {v.cells: 1.0 / len(fiber) for v in fiber}
    tv = empirical_tv(Counter(u.cells for u in draws), uniform)
    print(f"source: {config.summary()}")
    print(f"fiber size: {len(fiber)}")
    print(f"draws: {len(draws)}")
    print(f"tv distance to uniform: {tv!r}")
    print(f"l1 deviation (2*tv): {2 * tv!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fiberwalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("encode", help="write DIMACS CNF + layout for a fiber")
    _add_spec_args(p)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("enumerate", help="list/count fiber elements")
    _add_spec_args(p)
    p.add_argument("--cnf", help="count projected models of a DIMACS file instead")
    p.add_argument("--cap", type=_at_least(0), default=DEFAULT_CAP)
    p.add_argument("--count-only", action="store_true", help="suppress the listing")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("test", help="conditional goodness-of-fit test")
    _add_spec_args(p, with_margins=False)
    p.add_argument("--steps", type=_at_least(1), default=10_000)
    p.add_argument("--exact-cap", type=_at_least(0), default=EXACT_CAP)
    p.add_argument("--seed", type=int, default=0)
    _add_walk_args(p)
    _add_sampler_args(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("bench", help="run a config-driven evaluation")
    p.add_argument("--config", required=True, help="INI experiment config")
    p.add_argument("--out", required=True, help="results directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("diagnose", help="sampler uniformity report")
    _add_spec_args(p)
    p.add_argument("--draws", type=_at_least(1), default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_sampler_args(p)
    p.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
