"""The command-line interface.

Exit code contract: 0 on success, 1 on usage errors (argparse), 2 on
runtime failures (missing files, solver errors).  Usage errors arrive
as SystemExit from argparse, so the tests route everything through a
small wrapper.
"""

import io
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

import fiberwalk.cli
from fiberwalk.bench import parse_config
from fiberwalk.cli import main
from fiberwalk.enumeration import enumerate_fiber
from fiberwalk.models import Independence, fiber_spec_from_observation, read_table, write_table


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)


TABLE_2X2 = "2 2\n1 1\n1 1\n"


@pytest.fixture
def table_file(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("2 2\n1 1 1 1\n")
    return str(path)


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_cli("frobnicate") == 1
    assert "error" in capsys.readouterr().err


def test_missing_required_option_is_usage_error(capsys):
    assert run_cli("bench", "--config", "x.ini") == 1  # --out missing
    capsys.readouterr()


def test_missing_input_file_is_runtime_error(capsys):
    assert run_cli("test", "--table", "/nonexistent/table.txt") == 2
    assert "error" in capsys.readouterr().err


def test_encode_writes_cnf_and_layout(tmp_path, table_file, capsys):
    out = tmp_path / "fiber"
    assert run_cli("encode", "--table", table_file, "--out", str(out)) == 0
    msg = capsys.readouterr().out
    assert "variables:" in msg and "clauses:" in msg
    cnf = (tmp_path / "fiber.cnf").read_text()
    assert cnf.startswith("p cnf ")
    assert "c ind" in cnf
    layout = (tmp_path / "fiber.layout").read_text()
    assert layout.strip()


def test_encode_from_shape_and_margins(tmp_path, capsys):
    out = tmp_path / "spec"
    code = run_cli(
        "encode",
        "--shape", "2", "2",
        "--margins", "2", "2", "2", "2",
        "--out", str(out),
    )
    assert code == 0
    assert (tmp_path / "spec.cnf").exists()
    capsys.readouterr()


def test_encode_routes_agree(tmp_path, table_file, capsys):
    """Same fiber through --table and through --shape/--margins."""
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_cli("encode", "--table", table_file, "--out", str(a))
    run_cli(
        "encode",
        "--shape", "2", "2",
        "--margins", "2", "2", "2", "2",
        "--out", str(b),
    )
    capsys.readouterr()
    assert (tmp_path / "a.cnf").read_text() == (tmp_path / "b.cnf").read_text()


def test_enumerate_counts(table_file, capsys):
    assert run_cli("enumerate", "--table", table_file, "--count-only") == 0
    out = capsys.readouterr().out
    assert "count: 3" in out


def test_enumerate_lists_elements(table_file, capsys):
    assert run_cli("enumerate", "--table", table_file) == 0
    out = capsys.readouterr().out
    shape_lines = [l for l in out.splitlines() if l == "2 2"]
    assert len(shape_lines) == 3  # one block per element
    assert "count: 3" in out


def test_enumerate_cnf_route_matches(tmp_path, table_file, capsys):
    out = tmp_path / "fiber"
    run_cli("encode", "--table", table_file, "--out", str(out))
    capsys.readouterr()
    assert run_cli("enumerate", "--cnf", str(tmp_path / "fiber.cnf")) == 0
    assert "count: 3" in capsys.readouterr().out


def test_enumerate_with_zeros(tmp_path, capsys):
    path = tmp_path / "qi.txt"
    path.write_text("3 3\n0 1 0 0 0 1 1 0 0\n")
    code = run_cli(
        "enumerate", "--table", str(path), "--zeros", "0,0", "1,1", "2,2",
        "--count-only",
    )
    assert code == 0
    assert "count: 2" in capsys.readouterr().out


def test_test_subcommand_reports_exact_and_mcmc(tmp_path, capsys):
    path = tmp_path / "obs.txt"
    path.write_text("2 2\n3 1 1 3\n")
    code = run_cli(
        "test", "--table", str(path),
        "--schedule", "alternating", "--period", "5",
        "--steps", "4000", "--seed", "7",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "statistic:" in out
    assert "mcmc p:" in out
    assert "exact p:" in out
    assert "difference:" in out
    mcmc = float(next(l for l in out.splitlines() if l.startswith("mcmc p:")).split(":")[1])
    exact = float(next(l for l in out.splitlines() if l.startswith("exact p:")).split(":")[1])
    print(f"mcmc {mcmc:.4f} vs exact {exact:.4f}")
    assert abs(mcmc - exact) < 0.05


def test_test_subcommand_deterministic(tmp_path, capsys):
    path = tmp_path / "obs.txt"
    path.write_text("2 2\n2 1 1 2\n")
    args = ("test", "--table", str(path), "--steps", "500", "--seed", "3")
    assert run_cli(*args) == 0
    first = capsys.readouterr().out
    assert run_cli(*args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_bench_subcommand(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[experiment]\n"
        "model = independence\n"
        "shape = 2, 2\n"
        "n = 8\n"
        "runs = 2\n"
        "steps = 100\n"
        "seed = 5\n"
        "[schedule]\n"
        "kind = alternating\n"
        "period = 5\n"
    )
    out_dir = tmp_path / "results"
    assert run_cli("bench", "--config", str(cfg), "--out", str(out_dir)) == 0
    msg = capsys.readouterr().out
    assert "runs: 2" in msg
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "plot.svg").exists()


def test_bench_warns_about_unconverged_fits(tmp_path, capsys):
    """Runs 3, 4, 5, 6 and 9 of this config draw n3f tables without an
    MLE; the bench says so for each of them, as ``fiberwalk test``
    does, and still exports their p-values."""
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[experiment]\nmodel = n3f\nshape = 3, 3, 3\nn = 20\n"
        "runs = 10\nsteps = 400\nseed = 6\n[schedule]\nkind = sat-only\n"
    )
    assert run_cli("bench", "--config", str(cfg), "--out", str(tmp_path / "out")) == 0
    warned = [
        line.split(":")[0]
        for line in capsys.readouterr().err.splitlines()
        if "warning: MLE stopped at discrepancy" in line and "after 1000 iterations" in line
    ]
    assert warned == ["run 3", "run 4", "run 5", "run 6", "run 9"]
    assert len((tmp_path / "out" / "summary.csv").read_text().splitlines()) == 11


@pytest.mark.parametrize(
    "argv, message",
    [
        (("enumerate", "--cap", "-1", "--count-only"), "argument --cap: must be >= 0, got -1"),
        (("test", "--exact-cap", "-3"), "argument --exact-cap: must be >= 0, got -3"),
        (("diagnose", "--draws", "-5"), "argument --draws: must be >= 1, got -5"),
        (("diagnose", "--draws", "0"), "argument --draws: must be >= 1, got 0"),
        (("test", "--steps", "-5"), "argument --steps: must be >= 1, got -5"),
        (("test", "--schedule", "alternating", "--period", "0"),
         "argument --period: must be >= 1, got 0"),
        (("test", "--schedule", "parallel-starts", "--walks", "0"),
         "argument --walks: must be >= 1, got 0"),
        (("test", "--sampler", "external", "--sampler-command", "true", "--timeout", "-1"),
         "argument --timeout: must be > 0, got -1"),
        (("diagnose", "--timeout", "0"), "argument --timeout: must be > 0, got 0"),
    ],
    ids=["cap", "exact-cap", "draws-negative", "draws-zero", "steps", "period", "walks",
         "test-timeout", "diagnose-timeout"],
)
def test_out_of_range_counts_are_usage_errors(argv, message, readme_table, capsys):
    command, *rest = argv
    assert run_cli(command, "--table", readme_table, *rest) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_bench_seed_override_changes_results(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[experiment]\nmodel = independence\nshape = 2, 2\nn = 8\n"
        "runs = 2\nsteps = 100\nseed = 5\n"
    )
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_cli("bench", "--config", str(cfg), "--out", str(a))
    run_cli("bench", "--config", str(cfg), "--out", str(b), "--seed", "6")
    capsys.readouterr()
    assert (a / "summary.csv").read_text() != (b / "summary.csv").read_text()


def test_a_sampler_command_with_a_stray_placeholder_fails_before_the_run(readme_table,
                                                                       capsys):
    code = run_cli("test", "--table", readme_table, "--sampler", "external",
                   "--sampler-command", "awk '{print}' {cnf}")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "placeholder {print}" in captured.err
    assert "literal braces are written {{ and }}" in captured.err


def test_diagnose_reports_uniformity(capsys):
    code = run_cli(
        "diagnose",
        "--shape", "2", "2",
        "--margins", "2", "2", "2", "2",
        "--draws", "500", "--seed", "1",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fiber size: 3" in out
    assert "tv distance to uniform:" in out
    tv = float(next(l for l in out.splitlines() if l.startswith("tv")).split(":")[1])
    assert tv < 0.1


def test_diagnose_biased_sampler_is_far_from_uniform(capsys):
    code = run_cli(
        "diagnose",
        "--shape", "2", "2",
        "--margins", "3", "3", "3", "3",
        "--sampler", "internal-biased", "--bias-strength", "3.0",
        "--draws", "1000", "--seed", "1",
    )
    assert code == 0
    out = capsys.readouterr().out
    tv = float(next(l for l in out.splitlines() if l.startswith("tv")).split(":")[1])
    print(f"biased sampler TV: {tv:.3f}")
    assert tv > 0.2


README_TABLE = "3 3\n2 1 0 1 1 1 0 1 2\n"


@pytest.fixture
def readme_table(tmp_path):
    path = tmp_path / "obs.tbl"
    path.write_text(README_TABLE)
    return str(path)


def test_readme_test_example_output(readme_table, capsys):
    code = run_cli(
        "test", "--table", readme_table, "--model", "independence",
        "--steps", "20000", "--schedule", "alternating", "--period", "10",
        "--seed", "7",
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "statistic: 0.4444444444444444\n"
        "steps: 20000 (sat 2000, move 18000)\n"
        "mcmc p: 0.8769\n"
        "exact p: 0.8714285714285716\n"
        "difference: 0.0054714285714284605\n"
    )


def test_readme_library_quick_start_output(capsys):
    """The README's library quick start prints what the CLI example
    shows: the same walk and the same exact p-value."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.split() == ["0.8769", "0.8714285714285716"]


def test_diagnose_internal_uniform_output(readme_table, capsys):
    code = run_cli(
        "diagnose", "--table", readme_table, "--model", "independence",
        "--draws", "5000", "--seed", "3",
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "source: internal-uniform\n"
        "fiber size: 55\n"
        "draws: 5000\n"
        "tv distance to uniform: 0.034709090909090905\n"
        "l1 deviation (2*tv): 0.06941818181818181\n"
    )


def test_diagnose_internal_biased_output(readme_table, capsys):
    code = run_cli(
        "diagnose", "--table", readme_table, "--model", "independence",
        "--draws", "5000", "--seed", "3",
        "--sampler", "internal-biased", "--bias-strength", "1.5",
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "source: internal-biased(strength=1.5)\n"
        "fiber size: 55\n"
        "draws: 5000\n"
        "tv distance to uniform: 0.5582909090909091\n"
        "l1 deviation (2*tv): 1.1165818181818181\n"
    )


def test_enumerate_cnf_stops_at_cap(tmp_path, table_file, capsys):
    out = tmp_path / "fiber"
    run_cli("encode", "--table", table_file, "--out", str(out))
    capsys.readouterr()
    assert run_cli("enumerate", "--cnf", str(tmp_path / "fiber.cnf"), "--cap", "2") == 0
    assert capsys.readouterr().out == "count: 2 (incomplete: cap reached)\n"


def test_a_sampler_command_with_a_format_spec_its_value_cannot_take_fails_before_the_walk(
        readme_table, capsys):
    """The default moves-only walk never calls the sampler, so only a
    check when the sampler is configured can refuse {cnf:d}."""
    code = run_cli("test", "--table", readme_table, "--sampler", "external",
                   "--sampler-command", "true {cnf:d}")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sampler command 'true {cnf:d}': argument '{cnf:d}'" in captured.err


def test_cycle_moves_on_three_way_table_is_an_error(tmp_path, capsys):
    path = tmp_path / "cube.tbl"
    path.write_text("2 2 2\n1 0 0 1 0 1 1 0\n")
    code = run_cli(
        "test", "--table", str(path), "--model", "n3f", "--moves", "cycle",
        "--steps", "50",
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "cycle moves apply to two-way tables only" in captured.err
    assert "mcmc p:" not in captured.out


def test_sat_only_test_builds_no_moves(tmp_path, capsys):
    """A sat-only walk makes no move steps, so a move source that does
    not apply to the fiber is not built."""
    path = tmp_path / "cube.tbl"
    path.write_text("2 2 2\n1 0 0 1 0 1 1 0\n")
    code = run_cli(
        "test", "--table", str(path), "--model", "n3f", "--moves", "cycle",
        "--schedule", "sat-only", "--steps", "50",
    )
    assert code == 0
    assert "steps: 50 (sat 50, move 0)" in capsys.readouterr().out


@pytest.mark.parametrize("source", ["basic", "cycle", "file"])
@pytest.mark.parametrize("kind, period", [
    ("moves-only", 1), ("sat-only", 1), ("alternating", 1), ("alternating", 3),
    ("parallel-starts", 3),
])
@pytest.mark.parametrize("model, shape, cells", [
    ("independence", "2 2", "1 1 1 1"), ("n3f", "2 2 2", "1 0 0 1 0 1 1 0"),
], ids=["independence", "n3f"])
def test_test_and_bench_accept_the_same_settings(tmp_path, capsys, model, shape, cells, kind,
                                                  period, source):
    """``fiberwalk test`` runs exactly the (model, schedule, move source)
    combinations a bench config accepts: cycle moves on n3f only under a
    schedule without move steps, and the file source, given no path,
    under none."""
    table = tmp_path / "obs.txt"
    table.write_text(f"{shape}\n{cells}\n")
    code = run_cli("test", "--table", str(table), "--model", model, "--schedule", kind,
                   "--period", str(period), "--walks", "2", "--moves", source, "--steps", "20")
    capsys.readouterr()
    config = tmp_path / "exp.ini"
    config.write_text(f"[experiment]\nmodel = {model}\nshape = {shape}\nn = 4\n"
                      f"[schedule]\nkind = {kind}\nperiod = {period}\nwalks = 2\n"
                      f"[moves]\nsource = {source}\n")
    try:
        parse_config(config)
        accepted = True
    except ValueError:
        accepted = False
    assert (code == 0) == accepted
    no_move_steps = period == 1 and kind in ("sat-only", "alternating")
    assert accepted == (source != "file" and (model != "n3f" or source != "cycle"
                                              or no_move_steps))


@pytest.mark.parametrize("strength", ["nan", "inf", "-inf"])
def test_non_finite_bias_strength_fails_before_the_walk(readme_table, strength, capsys):
    code = run_cli(
        "test", "--table", readme_table, "--sampler", "internal-biased",
        f"--bias-strength={strength}",
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: bias_strength must be finite, got {strength}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 2 0\n", "missing DIMACS header"),
        ("p dnf 2 1\n1 2 0\n", "bad DIMACS header: 'p dnf 2 1'"),
        ("p cnf 2 2\n1 2 0\n", "header declares 2 clauses, found 1"),
        ("p cnf 2 1\n1 2\n", "trailing literals without clause terminator"),
    ],
    ids=["no-header", "dnf-header", "clause-count", "unterminated"],
)
def test_enumerate_cnf_refuses_a_malformed_file(tmp_path, text, message, capsys):
    path = tmp_path / "bad.cnf"
    path.write_text(text)
    assert run_cli("enumerate", "--cnf", str(path), "--count-only") == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_diagnose_enumerates_once(readme_table, block_searches, capsys):
    """The report and the internal sampler read one enumeration."""
    code = run_cli("diagnose", "--table", readme_table, "--draws", "100")
    assert code == 0
    assert "fiber size: 55" in capsys.readouterr().out
    assert len(block_searches) == 1


def test_diagnose_refuses_a_large_fiber_before_any_sampler_call(readme_table, tmp_path,
                                                                  monkeypatch, capsys):
    marker = tmp_path / "called"
    monkeypatch.setattr(fiberwalk.cli, "FULL_FIBER_CAP", 54)  # the fiber holds 55 tables
    code = run_cli("diagnose", "--table", readme_table, "--sampler", "external",
                   "--sampler-command", f"touch {marker}")
    assert code == 2
    assert capsys.readouterr().err == "error: enumeration incomplete: more than 54 elements\n"
    assert not marker.exists()


@pytest.mark.parametrize("sampler", ["internal-uniform", "internal-biased"])
def test_test_enumerates_once(readme_table, block_searches, sampler, capsys):
    """The exact p and the internal sampler read one enumeration."""
    code = run_cli("test", "--table", readme_table, "--steps", "300", "--schedule",
                   "alternating", "--period", "3", "--sampler", sampler)
    assert code == 0
    assert "exact p: 0." in capsys.readouterr().out
    assert len(block_searches) == 1


def test_bench_enumerates_once_per_run(tmp_path, block_searches, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[experiment]\nmodel = independence\nshape = 3, 3\nn = 12\nruns = 3\n"
                   "steps = 300\nseed = 5\n[schedule]\nkind = alternating\nperiod = 3\n")
    assert run_cli("bench", "--config", str(cfg), "--out", str(tmp_path / "out")) == 0
    assert "runs: 3 (3 ok, 0 failed)" in capsys.readouterr().out
    assert len(block_searches) == 3


def test_test_rejects_a_shape_that_contradicts_the_table(readme_table, capsys):
    code = run_cli("test", "--table", readme_table, "--shape", "9", "9", "--steps", "50")
    assert code == 2
    captured = capsys.readouterr()
    assert "contradicts table shape (3, 3)" in captured.err
    assert "mcmc p:" not in captured.out


def test_test_has_no_margins_flag(readme_table, capsys):
    code = run_cli("test", "--table", readme_table, "--margins", "1", "2", "3")
    assert code == 1
    assert "unrecognized arguments: --margins" in capsys.readouterr().err


@pytest.mark.parametrize(
    "margins, message",
    [
        (["1", "1", "1"], "error: margin vector has length 3, matrix has 4 rows"),
        (["1", "-1", "1", "-1"], "error: negative margin: the fiber would be empty, refusing"),
    ],
    ids=["short", "negative"],
)
def test_enumerate_rejects_margins_the_fiber_cannot_have(margins, message, capsys):
    code = run_cli("enumerate", "--shape", "2", "2", "--margins", *margins)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, extra",
    [("encode", ["--out"]), ("enumerate", ["--count-only"]), ("diagnose", [])],
)
def test_margins_with_table_is_an_error(command, extra, readme_table, tmp_path, capsys):
    if command == "encode":
        extra = extra + [str(tmp_path / "fiber")]
    code = run_cli(command, "--table", readme_table, "--margins", "1", "1", "1", "1", "1", "1",
                   *extra)
    assert code == 2
    assert list(tmp_path.iterdir()) == [tmp_path / "obs.tbl"]
    captured = capsys.readouterr()
    assert "--margins cannot be combined with --table" in captured.err
    assert "count:" not in captured.out


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--table", "obs.tbl"], "--table"),
        (["--shape", "7", "7"], "--shape"),
        (["--margins", "1", "2"], "--margins"),
        (["--zeros", "0,0"], "--zeros"),
        (
            ["--table", "obs.tbl", "--margins", "1", "2", "--shape", "7", "7", "--zeros", "0,0"],
            "--table, --shape, --margins, --zeros",
        ),
    ],
)
def test_enumerate_cnf_rejects_fiber_flags(flags, named, tmp_path, table_file, capsys):
    run_cli("encode", "--table", table_file, "--out", str(tmp_path / "fiber"))
    capsys.readouterr()
    code = run_cli("enumerate", "--cnf", str(tmp_path / "fiber.cnf"), *flags, "--count-only")
    assert code == 2
    captured = capsys.readouterr()
    assert f"{named} cannot be combined with --cnf" in captured.err
    assert "the fiber comes from the DIMACS file" in captured.err
    assert "count:" not in captured.out
    # an empty --zeros names no cell and is allowed
    assert run_cli("enumerate", "--cnf", str(tmp_path / "fiber.cnf"), "--zeros") == 0
    assert capsys.readouterr().out == "count: 3\n"


@pytest.mark.parametrize(
    "dimacs, want",
    [
        # variable 3 lies outside the sampling set and is left free,
        # so decided, under projections (1, 2) and (-1, 2); each
        # projection counts once
        ("p cnf 3 2\nc ind 1 2 0\n1 2 0\n2 3 -1 0\n", "count: 3\n"),
        # a one-variable sampling set blocks with one-literal clauses
        ("p cnf 2 1\nc ind 1 0\n1 2 0\n", "count: 2\n"),
    ],
    ids=["decided-auxiliary", "one-literal-projection"],
)
def test_enumerate_cnf_counts_distinct_projections(dimacs, want, tmp_path, capsys):
    path = tmp_path / "f.cnf"
    path.write_text(dimacs)
    assert run_cli("enumerate", "--cnf", str(path), "--count-only") == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize(
    "cap, want",
    [
        ([], "count: 55\n"),
        (["--cap", "55"], "count: 55\n"),
        (["--cap", "54"], "count: 54 (incomplete: cap reached)\n"),
        (["--cap", "0"], "count: 0 (incomplete: cap reached)\n"),
    ],
)
def test_enumerate_count_only_streams(cap, want, readme_table, monkeypatch, capsys):
    """--count-only prints the listing's count line without holding the
    fiber: it never calls enumerate_fiber."""
    assert run_cli("enumerate", "--table", readme_table, *cap) == 0
    assert capsys.readouterr().out.splitlines(keepends=True)[-1] == want

    def held(*args, **kwargs):
        raise AssertionError("--count-only built the whole enumeration")

    monkeypatch.setattr(fiberwalk.cli, "enumerate_fiber", held)
    assert run_cli("enumerate", "--table", readme_table, "--count-only", *cap) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("cap", [[], ["--cap", "55"], ["--cap", "54"], ["--cap", "0"]])
def test_enumerate_listing_streams(cap, readme_table, monkeypatch, capsys):
    """The listing prints each table as it is generated: it never
    calls enumerate_fiber, and its bytes are the enumeration's."""
    with open(readme_table) as f:
        u, _ = read_table(f)
    enum = enumerate_fiber(fiber_spec_from_observation(Independence((3, 3)), u),
                           cap=int(cap[1]) if cap else 10_000_000)
    want = io.StringIO()
    for v in enum:
        write_table(v, want)
        want.write("\n")
    marker = "" if enum.complete else " (incomplete: cap reached)"
    want.write(f"count: {len(enum)}{marker}\n")

    def held(*args, **kwargs):
        raise AssertionError("the listing built the whole enumeration")

    monkeypatch.setattr(fiberwalk.cli, "enumerate_fiber", held)
    assert run_cli("enumerate", "--table", readme_table, *cap) == 0
    assert capsys.readouterr().out == want.getvalue()


class _Tail:
    """A stdout that keeps only its line count and last line."""

    def __init__(self):
        self.lines, self.last = 0, ""

    def write(self, text):
        self.lines += text.count("\n")
        if text.strip():
            self.last = text

    def flush(self):
        pass


def test_enumerate_listing_peak_memory_is_flat(monkeypatch):
    """The listing streams the search's blocks: a 94,468-table fiber
    peaks at under 1.5 times the traced memory of a 10,147-table one
    (holding its tables would take tens of MB).  The tables go to a
    counter instead of being formatted, which tracing makes slow."""
    written = [0]

    def count(u, sink):
        written[0] += 1

    monkeypatch.setattr(fiberwalk.cli, "write_table", count)

    def listing_peak(margins, size):
        written[0] = 0
        sink = _Tail()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = run_cli("enumerate", "--shape", "4", "4", "--margins", *map(str, margins))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, sink.lines, sink.last, written) == (0, size + 1, f"count: {size}", [size])
        return peak

    listing_peak((1,) * 8, 24)  # first-call allocations out of the way
    small = listing_peak((4,) * 8, 10_147)
    large = listing_peak((6, 6, 6, 5) * 2, 94_468)
    assert large < 1.5 * small


def test_test_and_enumerate_run_on_margins_past_int64(tmp_path, capsys):
    """Bounds past int64 run the search on Python ints: the test reports
    exact p as unavailable past the cap and the listing stops at it."""
    path = tmp_path / "huge.txt"
    path.write_text("2 2\n" + " ".join([str(2**61)] * 4) + "\n")
    assert run_cli("test", "--table", str(path), "--steps", "200", "--seed", "3") == 0
    assert "exact p: unavailable (fiber exceeds 100000 elements)" in capsys.readouterr().out
    m = str(2**62)
    assert run_cli("enumerate", "--shape", "2", "2", "--margins", m, m, m, m, "--cap", "2") == 0
    assert capsys.readouterr().out == (
        f"2 2\n0 {m} {m} 0\n\n2 2\n1 {2**62 - 1} {2**62 - 1} 1\n\n"
        "count: 2 (incomplete: cap reached)\n"
    )


def test_python_m_fiberwalk(readme_table):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "fiberwalk", "enumerate", "--table", readme_table, "--count-only"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "count: 55\n", "")
    done = subprocess.run(
        [sys.executable, "-m", "fiberwalk", "frobnicate"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
