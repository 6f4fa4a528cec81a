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

import pytest

import fiberwalk.cli
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
        "mcmc p: 0.8872\n"
        "exact p: 0.8714285714285716\n"
        "difference: 0.015771428571428436\n"
    )


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


def test_diagnose_enumerates_once_besides_the_sampler(
    readme_table, monkeypatch, capsys
):
    """One enumeration for the report, one inside the internal sampler."""
    import fiberwalk.enumeration as enumeration

    calls = []
    original = enumeration.iter_fiber

    def counting(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(enumeration, "iter_fiber", counting)
    code = run_cli("diagnose", "--table", readme_table, "--draws", "100")
    assert code == 0
    assert "fiber size: 55" in capsys.readouterr().out
    assert len(calls) == 2


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
