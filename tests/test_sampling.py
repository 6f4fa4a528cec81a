"""Fiber samplers: internal reference samplers and the external
command-line bridge.

The external bridge writes the CNF to a file, substitutes {cnf},
{count}, and {seed} into a command template, and parses solution
lines from stdout.  Every failure mode gets its own exception type so
callers can tell a crashed sampler from one that emits garbage.
"""

import gc
import io
import os
import signal
import tempfile
import time
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    _parse_solutions,
    build_sampler,
    make_rng,
)
from fiberwalk.walk import Alternating, empirical_tv, run_walk

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


# -- the output parser


def reference_parse(text):
    """The line-at-a-time parser that ``_parse_solutions`` must agree
    with: every line converted on its own."""
    solutions, pending = [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line[0] in "vV" and (len(line) == 1 or line[1].isspace()):
            line = line[1:]
        elif not (line[0].isdigit() or line[0] == "-"):
            continue
        try:
            lits = [int(t) for t in line.split()]
        except ValueError:
            continue
        for lit in lits:
            if lit == 0:
                if pending:
                    solutions.append(pending)
                    pending = []
            else:
                pending.append(lit)
    if pending:
        solutions.append(pending)
    return solutions


TOKENS = st.one_of(
    st.just("0"),
    st.integers(min_value=-400, max_value=400).map(str),
    st.sampled_from(["x", "1a", "+3", "--2", "v", "c", "0x1", "\t7"]),
)
LINES = st.one_of(
    st.lists(TOKENS, max_size=8).map(" ".join),
    st.lists(TOKENS, max_size=8).map(lambda ts: "v " + " ".join(ts)),
    st.lists(TOKENS, max_size=8).map(lambda ts: "V\t" + " ".join(ts)),
    st.sampled_from(["c banner", "s SATISFIABLE", "", "   ", "v", "c ind 1 2 0", "vv 1 0"]),
)


@st.composite
def sampler_outputs(draw):
    distinct = draw(st.lists(LINES, min_size=1, max_size=8))
    picks = draw(st.lists(st.sampled_from(distinct), max_size=40))
    ends = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\n\n", "\x0c"])
    text = "".join(line + draw(ends) for line in picks)
    if draw(st.booleans()):
        text += draw(LINES)  # an unterminated tail
    return text


@settings(max_examples=200, deadline=None)
@given(sampler_outputs())
def test_parse_solutions_matches_the_line_at_a_time_parser(text):
    got = _parse_solutions(io.StringIO(text))  # its lines end at "\n" only
    assert got == reference_parse(text)
    assert len({id(solution) for solution in got}) == len(got)


def test_parse_memory_grows_with_distinct_lines_only():
    """Repeats of one line share its converted literals: only the
    returned lists are new."""
    def line(k):
        # literals past the small-int cache, so each conversion allocates
        return "v " + " ".join(
            str(-(1000 + i) if (k >> i) & 1 else 1000 + i) for i in range(81)
        ) + " 0\n"

    def peak(text):
        lines = io.StringIO(text)
        tracemalloc.start()
        try:
            solutions = _parse_solutions(lines)
            return tracemalloc.get_traced_memory()[1], len(solutions)
        finally:
            tracemalloc.stop()

    repeated, count = peak(line(0) * 8192)
    assert count == 8192
    distinct, count = peak("".join(line(k) for k in range(8192)))
    assert count == 8192
    assert repeated * 4 < distinct


def test_make_rng_deterministic():
    a = make_rng(1, 2).integers(1 << 30, size=5)
    b = make_rng(1, 2).integers(1 << 30, size=5)
    c = make_rng(1, 3).integers(1 << 30, size=5)
    assert (a == b).all()
    assert (a != c).any()


def test_sampler_config_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown sampler kind"):
        SamplerConfig(kind="bogus")


@pytest.mark.parametrize("strength", [float("nan"), float("inf"), float("-inf")])
def test_sampler_config_refuses_a_non_finite_bias_strength(strength):
    with pytest.raises(ValueError, match="bias_strength must be finite"):
        SamplerConfig(kind="internal-biased", bias_strength=strength)


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


def tilted_draws(strength, count, seed):
    """What the biased sampler must draw: numpy's choice from the law
    exp(strength * u_first) / Z over the fiber in enumeration order."""
    firsts = np.array([t.cells[0] for t in FIBER], dtype=float)
    w = np.exp(strength * firsts - (strength * firsts).max())
    idx = make_rng(seed).choice(len(FIBER), size=count, p=w / w.sum())
    return [FIBER[i].cells for i in idx]


def test_internal_biased_strength_zero_is_uniform():
    enc = encode_fiber(SPEC)
    out = InternalBiasedSampler(strength=0.0).sample(enc, 6000, seed=11)
    assert [t.cells for t in out] == tilted_draws(0.0, 6000, seed=11)
    assert tv_to_uniform(out, FIBER) < 0.03


def test_internal_biased_tilts_first_free_cell():
    enc = encode_fiber(SPEC)
    sam = InternalBiasedSampler(strength=2.0)
    out = sam.sample(enc, 4000, seed=3)
    assert [t.cells for t in out] == tilted_draws(2.0, 4000, seed=3)
    # exponential tilt: draws ordered with the first cell
    counts = Counter(t.cells[0] for t in out)
    assert counts[0] < counts[1] < counts[2]
    mean_first = np.mean([t.cells[0] for t in out])
    assert mean_first > np.mean([t.cells[0] for t in FIBER])


def test_the_sampler_draws_from_the_held_enumeration(block_searches):
    """The sampler reads the enumeration its caller holds and keeps its
    tables, not the enumeration: once the caller lets go, later draws
    search nothing, while the next enumeration of the fiber searches
    again."""
    spec = fiber_spec_from_observation(Independence((3, 3)), Table((2, 1, 0) * 3, (3, 3)))
    enc = encode_fiber(spec)
    enum = enumerate_fiber(spec, cap=100_000)
    sam = InternalUniformSampler()
    out = sam.sample(enc, 50, seed=1)
    assert all(any(t is v for v in enum.elements) for t in out)
    held = weakref.ref(enum)
    del enum
    gc.collect()
    assert held() is None
    assert all(a is b for a, b in zip(sam.sample(enc, 50, seed=1), out, strict=True))
    assert len(block_searches) == 1
    assert enumerate_fiber(spec).complete
    assert len(block_searches) == 2


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


def test_output_that_is_not_text_is_an_output_error(tmp_path):
    """A byte invalid in the locale's encoding (0xff in UTF-8) is a typed
    sampler error, so a walk on the sampler aborts with a record."""
    enc = encode_fiber(SPEC)
    script = tmp_path / "badbytes.sh"
    script.write_text("#!/bin/sh\nprintf 'v 1 2 \\377 0\\n'\n")
    script.chmod(0o755)
    sampler = ExternalSampler(str(script) + " {cnf}")
    with pytest.raises(SamplerOutputError):
        sampler.sample(enc, 1, 1)
    rec = run_walk(SPEC, FIBER[0], Alternating(1), None, sampler, 10, lambda c: float(c[0]),
                   seed=1)
    assert rec.aborted and rec.steps == 0


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


def test_dimacs_is_rendered_once_per_encoding(tmp_path, monkeypatch):
    """Two calls on one encoding render its DIMACS text once; each call
    still writes it to its own temporary file and removes that file."""
    render = CNFEncoding.__dict__["_dimacs"]
    renders = []
    inner = render.func
    monkeypatch.setattr(render, "func", lambda enc: renders.append(enc) or inner(enc))
    enc = encode_fiber(SPEC)
    sol = tmp_path / "copy.sol"
    sol.write_text(lits_line(enc, FIBER[1]) + "\n")
    script = tmp_path / "copy.sh"
    script.write_text(f'#!/bin/sh\necho "$1" >> {tmp_path}/paths\ncp "$1" {tmp_path}/seen_$3\ncat {sol}\n')
    script.chmod(0o755)
    sam = ExternalSampler(str(script) + " {cnf} {count} {seed}")
    for seed in (1, 2):
        assert sam.sample(enc, 1, seed)[0].cells == FIBER[1].cells
    assert len(renders) == 1 and renders[0] is enc
    buf = io.StringIO()
    enc.to_dimacs(buf)
    for seed in (1, 2):
        assert (tmp_path / f"seen_{seed}").read_text() == buf.getvalue()
    paths = (tmp_path / "paths").read_text().split()
    assert len(set(paths)) == 2
    assert not any(os.path.exists(p) for p in paths)


def test_cnf_path_with_a_space_stays_one_argument(tmp_path, monkeypatch):
    """The temporary CNF file's path fills {cnf} as one argument, even
    when the temporary directory's name holds a space."""
    spaced = tmp_path / "tmp dir"
    spaced.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spaced))
    enc = encode_fiber(SPEC)
    sol = tmp_path / "spaced.sol"
    sol.write_text(lits_line(enc, FIBER[2]) + "\n")
    script = tmp_path / "spaced.sh"
    script.write_text(f'#!/bin/sh\ncp "$1" {tmp_path}/seen || exit 3\ncat {sol}\n')
    script.chmod(0o755)
    out = ExternalSampler(str(script) + " {cnf} {count} {seed}").sample(enc, 1, seed=1)
    assert out[0].cells == FIBER[2].cells
    buf = io.StringIO()
    enc.to_dimacs(buf)
    assert (tmp_path / "seen").read_text() == buf.getvalue()


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


@pytest.mark.parametrize(
    "command, message",
    [
        ("awk '{print}' {cnf}", "placeholder {print}"),
        ("sampler {} {cnf}", "placeholder {}"),
        ("sampler {cnf.name}", "placeholder {cnf.name}"),
        ("sampler {seed:{width}}", "placeholder {width}"),
        ("sampler {cnf", "sampler command 'sampler {cnf'"),
        ("sampler '{cnf}", "No closing quotation"),
        ("true {cnf:d}", "argument '{cnf:d}': Unknown format code 'd'"),
        ("true {seed:c}", "argument '{seed:c}'"),
    ],
    ids=["word", "bare", "attribute", "nested", "single-brace", "unclosed-quote",
         "format-spec", "seed-as-char"],
)
@pytest.mark.parametrize(
    "build",
    [ExternalSampler, lambda cmd: SamplerConfig(kind="external", command_template=cmd)],
    ids=["external-sampler", "sampler-config"],
)
def test_a_command_placeholder_other_than_cnf_count_seed_is_refused_when_built(
        build, command, message):
    """str.format would fail only at the first call, with an untyped
    message such as 'print' or "Unknown format code 'd' for object of
    type 'str'"."""
    with pytest.raises(ValueError) as err:
        build(command)
    assert message in str(err.value)
    assert "literal braces are written {{ and }}" in str(err.value)


def test_doubled_braces_reach_the_command_as_literal_braces(tmp_path):
    """``{{seed}}`` is the literal text {seed}, not a placeholder, so the
    seed still comes through the environment."""
    enc = encode_fiber(SPEC)
    script = tmp_path / "braces.sh"
    script.write_text(f'#!/bin/sh\n[ "$1" = "{{seed}}" ] && [ "$FIBERWALK_SEED" = 7 ] '
                      f'&& echo "{lits_line(enc, FIBER[0])}"\n')
    script.chmod(0o755)
    out = ExternalSampler(f"{script} {{{{seed}}}} {{cnf}}").sample(enc, 1, seed=7)
    assert out[0].cells == FIBER[0].cells


# -- a launched call: output to files, a deadline from launch, a kill


def gone(pid, wait=5.0):
    """Whether ``pid`` stops naming a running process within ``wait``
    seconds: it is gone, or a zombie left for its reaper."""
    deadline = time.monotonic() + wait
    while True:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        try:
            with open(f"/proc/{pid}/stat") as f:
                if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return True
        except FileNotFoundError:
            pass
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)


def test_a_call_nobody_waits_on_yet_runs_to_its_end(tmp_path):
    """Output goes to a file, not a pipe, so a call that prints far more
    than a pipe holds finishes before anyone reads it."""
    enc = encode_fiber(SPEC)
    cmd = solution_script(tmp_path, "big", [lits_line(enc, FIBER[0])] * 50_000)
    call = ExternalSampler(cmd).start(enc, 50_000, 1)
    deadline = time.monotonic() + 20
    while call.proc.poll() is None and time.monotonic() < deadline:
        time.sleep(0.01)
    assert call.proc.returncode == 0
    assert len(call.result()) == 50_000


def test_a_timed_out_call_is_killed_with_its_deadline_counted_from_launch(tmp_path,
                                                                         monkeypatch):
    """A call taken after its deadline fails at once; the command, and
    the process it started, are killed, and the call's files removed."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    enc = encode_fiber(SPEC)
    script = tmp_path / "slow.sh"
    script.write_text(f"#!/bin/sh\nsleep 30 &\necho $! > {tmp_path}/grandchild\nwait\n")
    script.chmod(0o755)
    call = ExternalSampler(f"{script} {{cnf}}", timeout=0.5).start(enc, 1, 1)
    time.sleep(0.7)
    start = time.monotonic()
    with pytest.raises(SamplerTimeoutError, match="after 0.5s"):
        call.result()
    assert time.monotonic() - start < 0.3
    assert call.proc.returncode == -signal.SIGKILL
    assert gone(int((tmp_path / "grandchild").read_text()))
    assert list(tmp.iterdir()) == []


def test_closing_a_running_call_kills_it_and_removes_its_files(tmp_path, monkeypatch):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    enc = encode_fiber(SPEC)
    script = tmp_path / "hang.sh"
    script.write_text("#!/bin/sh\nsleep 30\n")
    script.chmod(0o755)
    sam = ExternalSampler(f"{script} {{cnf}}")
    call = sam.start(enc, 1, 1)
    assert len(list(tmp.iterdir())) == 1  # the DIMACS file
    call.close()
    call.close()
    assert call.proc.returncode == -signal.SIGKILL
    assert list(tmp.iterdir()) == []
    assert sam.calls == 1


def pidfds_work():
    try:
        os.close(os.pidfd_open(os.getpid()))
    except (AttributeError, OSError):
        return False
    return True


@pytest.mark.skipif(not pidfds_work(), reason="no process file descriptors here")
def test_a_wait_with_a_timeout_is_woken_by_the_exit(tmp_path, monkeypatch):
    """Where the platform has process file descriptors, a call with a
    timeout waits on its command's exit rather than polling with naps."""
    enc = encode_fiber(SPEC)
    script = tmp_path / "late.sh"
    script.write_text(f"#!/bin/sh\nsleep 0.2\necho '{lits_line(enc, FIBER[0])}'\n")
    script.chmod(0o755)
    call = ExternalSampler(f"{script} {{cnf}}", timeout=30).start(enc, 1, 1)
    naps = []
    monkeypatch.setattr(time, "sleep", naps.append)
    assert call.result()[0].cells == FIBER[0].cells
    assert naps == []
