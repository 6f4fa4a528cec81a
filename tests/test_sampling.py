"""Fiber samplers: internal reference samplers and the external
command-line bridge.

The external bridge writes the CNF to a file, substitutes {cnf},
{count}, and {seed} into a command template, and parses solution
lines from stdout.  Every failure mode gets its own exception type so
callers can tell a crashed sampler from one that emits garbage.
"""

from collections import Counter

import numpy as np
import pytest

from fiberwalk.encode import CNFEncoding, encode_fiber
from fiberwalk.enumeration import enumerate_fiber
from fiberwalk.models import Independence, Table, fiber_spec_from_observation
from fiberwalk.sampling import (
    ExternalSampler,
    InternalBiasedSampler,
    InternalUniformSampler,
    SamplerConfig,
    SamplerExitError,
    SamplerLaunchError,
    SamplerOutputError,
    SamplerTimeoutError,
    SamplerValidityError,
    build_sampler,
    make_rng,
)
from fiberwalk.walk import empirical_tv

SPEC = fiber_spec_from_observation(Independence((2, 2)), Table((1, 1, 1, 1), (2, 2)))
FIBER = list(enumerate_fiber(SPEC))  # 3 elements


def tv_to_uniform(samples, fiber):
    counts = Counter(u.cells for u in samples)
    return empirical_tv(counts, {v.cells: 1.0 / len(fiber) for v in fiber})


def solution_script(tmp_path, name, lines):
    """A stub sampler that ignores its arguments and prints canned
    solution lines."""
    sol = tmp_path / f"{name}.sol"
    sol.write_text("\n".join(lines) + "\n")
    script = tmp_path / f"{name}.sh"
    script.write_text(f"#!/bin/sh\ncat {sol}\n")
    script.chmod(0o755)
    return str(script) + " {cnf} {count} {seed}"


def lits_line(enc, table):
    return "v " + " ".join(str(v) for v in enc.encode_table(table)) + " 0"


def test_make_rng_deterministic():
    a = make_rng(1, 2).integers(1 << 30, size=5)
    b = make_rng(1, 2).integers(1 << 30, size=5)
    c = make_rng(1, 3).integers(1 << 30, size=5)
    assert (a == b).all()
    assert (a != c).any()


def test_sampler_config_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown sampler kind"):
        SamplerConfig(kind="bogus")


def test_internal_uniform_samples_lie_in_fiber():
    enc = encode_fiber(SPEC)
    sam = InternalUniformSampler()
    out = sam.sample(enc, 200, seed=7)
    assert len(out) == 200
    cells = {t.cells for t in out}
    assert cells <= {t.cells for t in FIBER}
    # same seed, same draw
    again = sam.sample(enc, 200, seed=7)
    assert [t.cells for t in again] == [t.cells for t in out]


def test_internal_uniform_is_roughly_uniform():
    enc = encode_fiber(SPEC)
    out = InternalUniformSampler().sample(enc, 6000, seed=11)
    tv = tv_to_uniform(out, FIBER)
    print(f"TV to uniform over {len(FIBER)} elements at 6000 draws: {tv:.4f}")
    assert tv < 0.03


def test_internal_biased_strength_zero_is_uniform():
    enc = encode_fiber(SPEC)
    sam = InternalBiasedSampler(strength=0.0)
    _, probs = sam._dist(SPEC)
    assert np.allclose(probs, 1.0 / len(FIBER))


def test_internal_biased_tilts_first_free_cell():
    enc = encode_fiber(SPEC)
    sam = InternalBiasedSampler(strength=2.0)
    elements, probs = sam._dist(SPEC)
    firsts = np.array([t.cells[0] for t in elements], dtype=float)
    # exponential tilt: probabilities ordered with the first cell
    order = np.argsort(firsts)
    assert (np.diff(probs[order]) > 0).all()
    out = sam.sample(enc, 4000, seed=3)
    mean_first = np.mean([t.cells[0] for t in out])
    assert mean_first > np.mean(firsts)


def test_build_sampler_internal_batches_and_labels():
    enc = encode_fiber(SPEC)
    for config in (
        SamplerConfig(),
        SamplerConfig(kind="internal-biased", bias_strength=1.5),
    ):
        out = build_sampler(config).sample(enc, 50, seed=5)
        assert len(out) == 50
        assert {t.cells for t in out} <= {t.cells for t in FIBER}
        assert config.summary().startswith(config.kind)
    assert 0.0 <= tv_to_uniform(out, FIBER) <= 1.0


def test_tv_distance_uniform_hand_value():
    # all mass on one of two elements: TV = 1/2
    fiber = FIBER[:2]
    samples = [fiber[0]] * 10
    assert tv_to_uniform(samples, fiber) == pytest.approx(0.5)


def test_l1_deviation_is_twice_tv():
    # the diagnose report's L1 line is 2 * TV: 1, 0 and 0.4 here
    fiber = FIBER[:2]
    assert 2 * tv_to_uniform([fiber[0]] * 10, fiber) == pytest.approx(1.0)
    assert 2 * tv_to_uniform([fiber[0], fiber[1]] * 5, fiber) == pytest.approx(0.0)
    mixed = [fiber[0]] * 7 + [fiber[1]] * 3
    assert 2 * tv_to_uniform(mixed, fiber) == pytest.approx(0.4)


# -- external bridge


def test_external_sampler_good_run(tmp_path):
    enc = encode_fiber(SPEC)
    cmd = solution_script(
        tmp_path, "good", [lits_line(enc, FIBER[0]), lits_line(enc, FIBER[1])]
    )
    out = ExternalSampler(cmd).sample(enc, 2, seed=1)
    assert [t.cells for t in out] == [FIBER[0].cells, FIBER[1].cells]


def test_external_sampler_accepts_bare_literal_lines(tmp_path):
    enc = encode_fiber(SPEC)
    bare = lits_line(enc, FIBER[2])[2:]  # strip the "v "
    cmd = solution_script(tmp_path, "bare", [bare])
    out = ExternalSampler(cmd).sample(enc, 1, seed=1)
    assert out[0].cells == FIBER[2].cells


def test_external_sampler_launch_error():
    enc = encode_fiber(SPEC)
    with pytest.raises(SamplerLaunchError):
        ExternalSampler("/nonexistent/sampler {cnf} {count} {seed}").sample(enc, 1, 1)


def test_external_sampler_exit_error(tmp_path):
    enc = encode_fiber(SPEC)
    script = tmp_path / "fail.sh"
    script.write_text("#!/bin/sh\nexit 3\n")
    script.chmod(0o755)
    with pytest.raises(SamplerExitError, match="status 3"):
        ExternalSampler(str(script) + " {cnf} {count} {seed}").sample(enc, 1, 1)


def test_external_sampler_timeout(tmp_path):
    enc = encode_fiber(SPEC)
    script = tmp_path / "slow.sh"
    script.write_text("#!/bin/sh\nsleep 5\n")
    script.chmod(0o755)
    with pytest.raises(SamplerTimeoutError):
        ExternalSampler(str(script) + " {cnf} {count} {seed}", timeout=0.3).sample(
            enc, 1, 1
        )


def test_external_sampler_empty_output(tmp_path):
    enc = encode_fiber(SPEC)
    script = tmp_path / "mute.sh"
    script.write_text("#!/bin/sh\ntrue\n")
    script.chmod(0o755)
    with pytest.raises(SamplerOutputError, match="no valid samples"):
        ExternalSampler(str(script) + " {cnf} {count} {seed}").sample(enc, 1, 1)


def test_external_sampler_all_invalid(tmp_path):
    enc = encode_fiber(SPEC)
    wrong = Table((2, 2, 2, 2), (2, 2))  # right bit layout, wrong margins
    cmd = solution_script(tmp_path, "allbad", [lits_line(enc, wrong)])
    with pytest.raises(SamplerValidityError, match="failed fiber validation"):
        ExternalSampler(cmd).sample(enc, 1, 1)


def test_external_sampler_majority_invalid(tmp_path):
    enc = encode_fiber(SPEC)
    wrong = Table((2, 2, 2, 2), (2, 2))
    lines = [lits_line(enc, FIBER[0])] + [lits_line(enc, wrong)] * 3
    cmd = solution_script(tmp_path, "mostlybad", lines)
    with pytest.raises(SamplerValidityError, match="3 of 4"):
        ExternalSampler(cmd).sample(enc, 4, 1)


def repeats_script(tmp_path, enc, valid, invalid):
    """Prints ``valid`` copies of one fiber element's line, then
    ``invalid`` copies of one non-member's line."""
    wrong = Table((2, 2, 2, 2), (2, 2))
    lines = [lits_line(enc, FIBER[0])] * valid + [lits_line(enc, wrong)] * invalid
    return solution_script(tmp_path, f"repeats{valid}_{invalid}", lines)


def test_external_sampler_decodes_each_distinct_solution_once(tmp_path, monkeypatch):
    enc = encode_fiber(SPEC)
    decoded = []
    original = CNFEncoding.decode

    def counting_decode(self, model):
        decoded.append(tuple(model))
        return original(self, model)

    monkeypatch.setattr(CNFEncoding, "decode", counting_decode)
    out = ExternalSampler(repeats_script(tmp_path, enc, 6, 2)).sample(enc, 8, 1)
    assert [t.cells for t in out] == [FIBER[0].cells] * 6
    assert len(decoded) == 2


def test_external_sampler_counts_repeated_invalid_lines(tmp_path):
    enc = encode_fiber(SPEC)
    cmd = repeats_script(tmp_path, enc, 2, 3)
    with pytest.raises(SamplerValidityError, match="3 of 5"):
        ExternalSampler(cmd).sample(enc, 5, 1)


def test_external_sampler_counters(tmp_path):
    enc = encode_fiber(SPEC)
    sam = ExternalSampler(repeats_script(tmp_path, enc, 6, 2))
    assert (sam.calls, sam.solutions, sam.invalid) == (0, 0, 0)
    sam.sample(enc, 8, 1)
    assert (sam.calls, sam.solutions, sam.invalid) == (1, 8, 2)


def test_external_sampler_seed_env_fallback(tmp_path):
    """A template without {seed} still gets the seed, via the
    environment."""
    enc = encode_fiber(SPEC)
    sol = tmp_path / "echo.sol"
    out_file = tmp_path / "seen_seed"
    sol.write_text(lits_line(enc, FIBER[0]) + "\n")
    script = tmp_path / "echo.sh"
    script.write_text(
        f'#!/bin/sh\necho "$FIBERWALK_SEED" > {out_file}\ncat {sol}\n'
    )
    script.chmod(0o755)
    ExternalSampler(str(script) + " {cnf} {count}").sample(enc, 1, seed=424242)
    assert out_file.read_text().strip() == "424242"


def test_sample_file_uses_existing_cnf(tmp_path):
    enc = encode_fiber(SPEC)
    cnf_path = tmp_path / "fiber.cnf"
    with open(cnf_path, "w") as fh:
        enc.to_dimacs(fh)
    cmd = solution_script(tmp_path, "fromfile", [lits_line(enc, FIBER[1])])
    out = ExternalSampler(cmd).sample_file(enc, str(cnf_path), 1, seed=2)
    assert out[0].cells == FIBER[1].cells


def test_build_sampler_external_batch_and_label(tmp_path):
    enc = encode_fiber(SPEC)
    cmd = solution_script(tmp_path, "wrapped", [lits_line(enc, FIBER[0])])
    config = SamplerConfig(kind="external", command_template=cmd)
    out = build_sampler(config).sample(enc, 1, seed=9)
    assert config.summary() == f"external({cmd})"
    assert out[0].cells == FIBER[0].cells



def test_build_sampler_dispatch():
    assert isinstance(
        build_sampler(SamplerConfig(kind="internal-uniform")), InternalUniformSampler
    )
    biased = build_sampler(SamplerConfig(kind="internal-biased", bias_strength=2.0))
    assert isinstance(biased, InternalBiasedSampler)
    assert biased.strength == 2.0
    ext = build_sampler(
        SamplerConfig(kind="external", command_template="x {cnf} {count} {seed}")
    )
    assert isinstance(ext, ExternalSampler)
