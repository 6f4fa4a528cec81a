"""The evaluation harness: initial-table generation, the convergence
metric, config parsing, and deterministic exports.

Initial tables blend an independent law with a dependent one
(lambda = 1 is pure independence) and are rounded to integer counts
by largest remainder, so the generated table always sums to n.
"""

import hashlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fiberwalk.bench import (
    BenchRun,
    ExperimentConfig,
    convergence_step,
    export_results,
    generate_initial_n3f,
    generate_initial_quasi,
    generate_initial_two_way,
    parse_config,
    round_largest_remainder,
    run_evaluation,
)
from fiberwalk.sampling import SamplerConfig
from fiberwalk.walk import Alternating, ParallelStarts


# -- rounding


def test_round_largest_remainder_hand_case():
    # weights arrive pre-scaled to the target total
    got = round_largest_remainder([5.0, 2.5, 2.5], 10)
    assert sum(got) == 10
    assert got[0] == 5 and sorted(got[1:]) == [2, 3]
    # ties go to the lower index
    assert got == [5, 3, 2]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=50),
)
def test_round_largest_remainder_preserves_total(weights, total):
    s = sum(weights)
    scaled = [w * total / s for w in weights]
    got = round_largest_remainder(scaled, total)
    assert sum(got) == total
    assert all(c >= 0 for c in got)
    # each count is within one unit of its scaled weight
    assert all(abs(c - w) < 1.0 for c, w in zip(got, scaled))


# -- generators


def test_generate_two_way_margins_positive():
    for seed in range(5):
        u = generate_initial_two_way((3, 4), 30, 0.5, seed)
        arr = u.to_array()
        assert arr.sum() == 30
        assert (arr.sum(axis=0) > 0).all()
        assert (arr.sum(axis=1) > 0).all()


def test_generate_two_way_deterministic():
    a = generate_initial_two_way((3, 3), 24, 0.25, 7)
    b = generate_initial_two_way((3, 3), 24, 0.25, 7)
    assert a == b


def test_generate_two_way_lambda_one_is_flatter():
    # lambda = 1 is the independent blend; lambda = 0 concentrates on
    # the wrapped diagonal
    indep = generate_initial_two_way((4, 4), 64, 1.0, 3).to_array()
    dep = generate_initial_two_way((4, 4), 64, 0.0, 3).to_array()
    assert dep.max() > indep.max()


def test_generate_quasi_avoids_zeros():
    u, zeros = generate_initial_quasi((4, 4), 20, 0.5, 11)
    assert u.n == 20
    assert zeros
    for j in zeros:
        assert u.cells[j] == 0


def test_generate_n3f_sums_to_n():
    u = generate_initial_n3f(2, 16, SamplerConfig(), 5)
    assert u.shape == (2, 2, 2)
    assert u.n == 16


# -- the convergence metric


def test_convergence_step_constant_sequence():
    assert convergence_step([0.3, 0.3, 0.3], 0.3) == 1


def test_convergence_step_documented_example():
    seq = [0.5, 0.2, 0.101, 0.1, 0.1004, 0.0996]
    assert convergence_step(seq, 0.1, tol=0.005) == 3


def test_convergence_step_none_when_last_violates():
    assert convergence_step([0.1, 0.1, 0.5], 0.1, tol=0.005) is None


def test_convergence_step_empty_raises():
    with pytest.raises(ValueError):
        convergence_step([], 0.1)


def test_convergence_step_single_element():
    assert convergence_step([0.1], 0.1) == 1
    assert convergence_step([0.9], 0.1) is None


# -- config files


def test_parse_config_round_trip(tmp_path):
    cfg_text = """
[experiment]
model = independence
shape = 3, 3
n = 18
runs = 4
steps = 250
seed = 42
lambdas = 0.0, 0.5, 1.0
tolerance = 0.01

[schedule]
kind = alternating
period = 10

[sampler]
kind = internal-uniform

[moves]
source = cycle
"""
    path = tmp_path / "exp.ini"
    path.write_text(cfg_text)
    cfg = parse_config(path)
    assert cfg.model == "independence"
    assert cfg.shape == (3, 3)
    assert cfg.n == 18
    assert cfg.runs == 4
    assert cfg.steps == 250
    assert cfg.seed == 42
    assert cfg.lambdas == (0.0, 0.5, 1.0)
    assert cfg.tol == 0.01
    assert isinstance(cfg.schedule, Alternating) and cfg.schedule.n == 10
    assert cfg.sampler.kind == "internal-uniform"
    assert cfg.move_source == "cycle"


def test_parse_config_requires_experiment_core(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\nmodel = independence\n")
    with pytest.raises(ValueError, match="shape"):
        parse_config(path)


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ValueError, match="cannot read"):
        parse_config(tmp_path / "nope.ini")


# -- running and exporting


def small_config(**kw):
    base = dict(
        model="independence",
        shape=(2, 2),
        n=8,
        runs=3,
        steps=200,
        schedule=Alternating(5),
        sampler=SamplerConfig(kind="internal-uniform"),
        lambdas=(0.5, 1.0),
        seed=17,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_evaluation_produces_complete_records():
    records = run_evaluation(small_config())
    assert len(records) == 3
    for rec in records:
        assert rec.error is None
        assert rec.exact_p is not None  # tiny fiber, exact reference
        assert len(rec.p_sequence) == 200
        assert rec.final_p == pytest.approx(rec.p_sequence[-1])
        assert rec.sat_steps + rec.move_steps == 200


def test_run_evaluation_deterministic():
    a = run_evaluation(small_config())
    b = run_evaluation(small_config())
    assert [r.final_p for r in a] == [r.final_p for r in b]
    assert [r.convergence_step for r in a] == [r.convergence_step for r in b]


def test_export_files_and_determinism(tmp_path):
    records = run_evaluation(small_config())
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    export_results(records, out1)
    export_results(run_evaluation(small_config()), out2)
    names = sorted(p.name for p in out1.iterdir())
    assert "summary.csv" in names
    assert "plot.svg" in names
    assert "run_001.csv" in names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    header = (out1 / "summary.csv").read_text().splitlines()[0]
    assert header == "run,convergence_step,final_p,exact_p,sat_steps,move_steps"
    run_header = (out1 / "run_001.csv").read_text().splitlines()[0]
    assert run_header == "step,p"


def test_export_failures_file(tmp_path):
    records = [
        BenchRun(0, None, 0.5, (), None, None, None, 0, 0, None,
                 error="generator exploded"),
    ]
    export_results(records, tmp_path)
    text = (tmp_path / "failures.csv").read_text()
    assert text.splitlines()[0] == "run,error"
    assert "generator exploded" in text
    # summary still written, with no data rows
    assert (tmp_path / "summary.csv").read_text().count("\n") == 1


def test_quasi_redraws_one_element_fibers(tmp_path):
    """Run 2 of this config first drew a zero pattern whose free-cell
    graph has no cycle: a one-element fiber with no moves, on which the
    walk cannot start.  The generator now redraws such tables."""
    config = ExperimentConfig(
        model="quasi", shape=(4, 4), n=14, runs=3, steps=500,
        schedule=ParallelStarts(5, 4), move_source="cycle", seed=11,
    )
    export_results(run_evaluation(config), tmp_path)
    assert not (tmp_path / "failures.csv").exists()
    rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["1", "2", "3"]


# sha256 of every file `export_results` writes, for three small INI
# configs; a change that keeps the pipeline keeps these bytes
GOLDEN_EXPORTS = {
    "independence-alternating": (
        "[experiment]\nmodel = independence\nshape = 3, 3\nn = 15\n"
        "runs = 3\nsteps = 400\nseed = 4\n"
        "[schedule]\nkind = alternating\nperiod = 5\n",
        {
            "plot.svg": "8115c2395bc43e3f2e57c6f929ff7a1bdbe61ac314747d7732f8019edb9ad846",
            "run_001.csv": "c2d60d707bbe47629fb2a802463b9edeadf296d8c07578d57f9d92a8d53dd3cf",
            "run_002.csv": "ecf72ac79985ee7e0899456372bf83988c247636cdd4a433d67ffda5b6f41561",
            "run_003.csv": "c3b67c723a84e9c6c0dc67e9e4ede42a5379a687f0f470ce9dd80ba3aba88b8c",
            "summary.csv": "5495a750575c624c0184527496943ef807d4c8585025c25dd737dbe1a4bdcbd5",
        },
    ),
    "quasi-cycle-parallel-biased": (
        "[experiment]\nmodel = quasi\nshape = 4, 4\nn = 20\n"
        "runs = 3\nsteps = 400\nseed = 2\n"
        "[schedule]\nkind = parallel-starts\nperiod = 5\nwalks = 3\n"
        "[sampler]\nkind = internal-biased\nbias_strength = 0.5\n"
        "[moves]\nsource = cycle\n",
        {
            "plot.svg": "a9a353ae50fa2a9afa66f0450e348c048f44a44d4f2ffef6b3093706f4c2bf7e",
            "run_001.csv": "379a84b9ae5683a127ee7c4db86002001e1cdf75876a2ba47004d5bbac3dda68",
            "run_002.csv": "868bd3e51f471c1809fd4b236011a5941afc02d48b3ff48194064cb9da126fea",
            "run_003.csv": "8116cca06607104e9e604b13eed96da11426709558e3d886ee128b4465e6b938",
            "summary.csv": "28fca2084b6539122fd53d42010091bf9ca7d854928c705607a4e8679dd9a133",
        },
    ),
    "n3f-sat-only": (
        "[experiment]\nmodel = n3f\nshape = 3, 3, 3\nn = 20\n"
        "runs = 2\nsteps = 400\nseed = 6\n"
        "[schedule]\nkind = sat-only\n",
        {
            "plot.svg": "211e8348ad4a0cf6851e2e3984b756a9d358d1c68a2a9e8abad99861f6aee68a",
            "run_001.csv": "88b8fff227ec15b3489abb577d250c1a2558b617aab025a795dbb37a19836341",
            "run_002.csv": "fb5d8b92bb3586d473f32c58e00a42b9606806d3d544d2c59f3568b2230c7265",
            "summary.csv": "3ae297be2dfcd7967c37b60919fa5fe695c71aa41a23239e29d4b04c8c9b9c3a",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EXPORTS))
def test_export_golden_bytes(name, tmp_path):
    text, want = GOLDEN_EXPORTS[name]
    config = tmp_path / "exp.ini"
    config.write_text(text)
    out = tmp_path / "out"
    export_results(run_evaluation(parse_config(config)), out)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == want


def test_plot_is_valid_svg(tmp_path):
    records = run_evaluation(small_config())
    export_results(records, tmp_path)
    root = ET.parse(tmp_path / "plot.svg").getroot()
    assert root.tag.endswith("svg")
