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
    EXACT_CAP,
    BenchRun,
    ExperimentConfig,
    build_model,
    conditional_test,
    convergence_step,
    export_results,
    generate_initial_n3f,
    generate_initial_quasi,
    generate_initial_two_way,
    parse_config,
    round_largest_remainder,
    run_evaluation,
)
from fiberwalk.cli import build_parser
from fiberwalk.models import Independence, NoThreeWay, Table, fiber_spec_from_observation
from fiberwalk.sampling import InternalBiasedSampler, SamplerConfig
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


def test_config_refuses_an_axis_of_size_1_when_built():
    """Every run of such a config would fail in the model; the config
    is refused before any run."""
    with pytest.raises(ValueError, match="every axis size must be >= 2"):
        ExperimentConfig(model="independence", shape=(1, 3), n=4)


# -- the model builder


def test_build_model_independence_and_quasi():
    assert build_model("independence", (3, 4)) == Independence((3, 4))
    assert build_model("quasi", (3, 3), [(0, 1)]).structural_zeros == (1,)
    assert build_model("n3f", (2, 2, 2)) == NoThreeWay(2)


@pytest.mark.parametrize(
    "name, shape, zeros, message",
    [
        ("loglinear", (2, 2), (), "unknown model 'loglinear'"),
        ("independence", (2, 2, 2), (), "only defined for 2-way shapes"),
        ("quasi", (2,), (), "only defined for 2-way shapes"),
        ("n3f", (2, 2), (), "model 'n3f' needs a cubic shape"),
        ("n3f", (2, 2, 3), (), "model 'n3f' needs a cubic shape"),
        ("n3f", (2, 2, 2), [(0, 0, 0)], "model 'n3f' needs a cubic shape .* no structural zeros"),
    ],
)
def test_build_model_refusals(name, shape, zeros, message):
    with pytest.raises(ValueError, match=message):
        build_model(name, shape, zeros)


def test_a_walk_without_move_steps_builds_no_moves():
    """Alternating(1), the sat-only chain, takes no move steps, so a
    move source that does not apply to the fiber (cycle moves on a
    three-way table) is not built for it."""
    u = Table((1, 0, 0, 1, 0, 1, 1, 0), (2, 2, 2))
    spec = fiber_spec_from_observation(NoThreeWay(2), u)
    test = conditional_test(spec, u, Alternating(1), "cycle", None, SamplerConfig(), 50, 0,
                            EXACT_CAP)
    assert (test.rec.steps, test.rec.sat_steps, test.rec.move_steps) == (50, 50, 0)


def test_config_refuses_a_negative_exact_cap():
    with pytest.raises(ValueError, match="exact_cap must be >= 0"):
        ExperimentConfig(model="independence", shape=(2, 2), n=4, exact_cap=-1)


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


@pytest.mark.parametrize("timeout", ["0", "-1", "nan"])
def test_parse_config_refuses_a_timeout_not_above_zero(tmp_path, timeout):
    path = tmp_path / "exp.ini"
    path.write_text("[experiment]\nmodel = independence\nshape = 2, 2\nn = 4\n\n"
                    f"[sampler]\nkind = external\ncommand = cat {{cnf}}\ntimeout = {timeout}\n")
    with pytest.raises(ValueError, match="timeout must be > 0"):
        parse_config(path)


@pytest.mark.parametrize("tolerance", ["0", "-0.01", "nan"])
def test_parse_config_refuses_a_tolerance_not_above_zero(tmp_path, tolerance):
    path = tmp_path / "exp.ini"
    path.write_text("[experiment]\nmodel = independence\nshape = 2, 2\nn = 4\n"
                    f"tolerance = {tolerance}\n")
    with pytest.raises(ValueError, match="tolerance must be positive"):
        parse_config(path)


@pytest.mark.parametrize("strength", ["nan", "inf", "-inf"])
def test_parse_config_refuses_a_non_finite_bias_strength(tmp_path, strength):
    path = tmp_path / "exp.ini"
    path.write_text("[experiment]\nmodel = independence\nshape = 2, 2\nn = 4\n\n"
                    f"[sampler]\nkind = internal-biased\nbias_strength = {strength}\n")
    with pytest.raises(ValueError, match="bias_strength must be finite"):
        parse_config(path)


def test_parse_config_biased_sampler_without_a_strength_is_biased(tmp_path):
    """An internal-biased sampler with no bias_strength gets the one
    default strength, which --bias-strength and the sampler share."""
    path = tmp_path / "exp.ini"
    path.write_text("[experiment]\nmodel = independence\nshape = 2, 2\nn = 4\n\n"
                    "[sampler]\nkind = internal-biased\n")
    sampler = parse_config(path).sampler
    assert sampler.bias_strength == 1.0
    assert sampler.summary() == "internal-biased(strength=1.0)"
    args = build_parser().parse_args(["diagnose", "--table", "t.tbl"])
    assert args.bias_strength == InternalBiasedSampler().strength == sampler.bias_strength


def test_parse_config_refuses_a_command_with_a_stray_placeholder(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[experiment]\nmodel = independence\nshape = 2, 2\nn = 4\n\n"
                    "[sampler]\nkind = external\ncommand = awk '{print}' {cnf}\n")
    with pytest.raises(ValueError, match=r"placeholder \{print\}"):
        parse_config(path)


def test_parse_config_defaults_are_the_dataclass_defaults(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[experiment]\nmodel = independence\nshape = 3, 3\nn = 9\n")
    assert parse_config(path) == ExperimentConfig("independence", (3, 3), 9)


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
    for run in records:
        assert run.error is None
        assert run.test.exact_p is not None  # tiny fiber, exact reference
        rec = run.test.rec
        assert len(rec.p_sequence) == 200
        assert rec.p_final == pytest.approx(rec.p_sequence[-1])
        assert rec.sat_steps + rec.move_steps == 200


def test_run_evaluation_deterministic():
    a = run_evaluation(small_config())
    b = run_evaluation(small_config())
    assert [r.test.rec.p_final for r in a] == [r.test.rec.p_final for r in b]
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
        BenchRun(0, None, error="generator exploded"),
    ]
    export_results(records, tmp_path)
    text = (tmp_path / "failures.csv").read_text()
    assert text.splitlines()[0] == "run,error"
    assert "generator exploded" in text
    # summary still written, with no data rows
    assert (tmp_path / "summary.csv").read_text().count("\n") == 1


def test_an_aborted_walk_keeps_its_test_and_is_only_a_failure(tmp_path):
    """A sampler command that always fails aborts each walk at its first
    SAT step; the run keeps the fit, the exact p and the steps taken
    before the abort, and is written to failures.csv alone."""
    records = run_evaluation(small_config(
        runs=2, schedule=Alternating(5),
        sampler=SamplerConfig(kind="external", command_template="false"),
    ))
    for run in records:
        assert not run.ok and run.error.startswith("walk aborted: sampler exited with status 1")
        assert run.convergence_step is None
        assert run.test.fit.converged and run.test.exact_p is not None
        rec = run.test.rec
        assert rec.aborted
        assert (rec.steps, rec.sat_steps, rec.move_steps) == (4, 0, 4)
    export_results(records, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["failures.csv", "plot.svg",
                                                          "summary.csv"]
    assert (tmp_path / "summary.csv").read_text().count("\n") == 1
    assert (tmp_path / "failures.csv").read_text().count("walk aborted") == 2


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
        # final p 0.0, 0.015, 0.0025 against exact p 2.78e-06, 0.001454, 0.005750
        {
            "plot.svg": "87cc12fe72e2eccc214c2b23f6f453a42fa127d191690020a61db325c87d4f5e",
            "run_001.csv": "c2d60d707bbe47629fb2a802463b9edeadf296d8c07578d57f9d92a8d53dd3cf",
            "run_002.csv": "b1c0807d865404f6ee0926b9cfdf0099a219843ad9b7e341871689aea4e7515d",
            "run_003.csv": "ab2dc8cb949b726ba541ce5699702c0d0b8e945e2b7f2ad740e9fd983fc8c170",
            "summary.csv": "66758261bf6c480e84700e1466080e0b6a213a8a970a326ea59903e10d09dc4c",
        },
    ),
    "quasi-cycle-parallel-biased": (
        "[experiment]\nmodel = quasi\nshape = 4, 4\nn = 20\n"
        "runs = 3\nsteps = 400\nseed = 2\n"
        "[schedule]\nkind = parallel-starts\nperiod = 5\nwalks = 3\n"
        "[sampler]\nkind = internal-biased\nbias_strength = 0.5\n"
        "[moves]\nsource = cycle\n",
        # final p 0.1325, 0.2675, 1.0 against exact p 0.1833, 0.3240, 1.0
        {
            "plot.svg": "e6cf5aa24921cdee8608cf76d3c83ad37a26ab30c9095b1c8a11b0ec7831a8f2",
            "run_001.csv": "1ba8a2e6a13c4f9de4599dfa4d389892f53e039271d018eb59841c35fe7925b1",
            "run_002.csv": "edc9883825e3fcf7773fbdf98394b37e66c9ea9661259dbaad10291cd6371c8f",
            "run_003.csv": "8116cca06607104e9e604b13eed96da11426709558e3d886ee128b4465e6b938",
            "summary.csv": "54b1de3123d95a77d526db89d0a6d7944f925025319f744167bdcfb234999c6c",
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


def _export_digests(text, tmp_path):
    config = tmp_path / "exp.ini"
    config.write_text(text)
    out = tmp_path / "out"
    export_results(run_evaluation(parse_config(config)), out)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


@pytest.mark.parametrize("name", sorted(GOLDEN_EXPORTS))
def test_export_golden_bytes(name, tmp_path):
    text, want = GOLDEN_EXPORTS[name]
    assert _export_digests(text, tmp_path) == want


@pytest.mark.parametrize("schedule", ["kind = sat-only\n", "kind = alternating\nperiod = 1\n"])
def test_n3f_config_without_move_steps_takes_cycle_moves(schedule, tmp_path):
    """A schedule without move steps builds no moves, so an n3f config
    with cycle moves runs and exports the bytes of its basic-moves
    config; with move steps it is refused before any run."""
    text, want = GOLDEN_EXPORTS["n3f-sat-only"]
    text = text.replace("kind = sat-only\n", schedule) + "[moves]\nsource = cycle\n"
    assert _export_digests(text, tmp_path) == want
    config = tmp_path / "moving.ini"
    config.write_text(text.replace(schedule, "kind = alternating\nperiod = 3\n"))
    with pytest.raises(ValueError, match="cycle moves apply to two-way tables only"):
        parse_config(config)


def test_plot_is_valid_svg(tmp_path):
    records = run_evaluation(small_config())
    export_results(records, tmp_path)
    root = ET.parse(tmp_path / "plot.svg").getroot()
    assert root.tag.endswith("svg")
