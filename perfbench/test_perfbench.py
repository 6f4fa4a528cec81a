"""Tests of the benchmark's own parts: the batch-means helper, the input
generator, the DPLL stub, and parity of the timed pipeline with
`fiberwalk test`."""

import argparse
import dataclasses
import json
import tempfile

import numpy as np
import pytest

from fiberwalk import (
    ExternalSampler,
    Independence,
    MovesOnly,
    Table,
    basic_moves_two_way,
    encode_fiber,
    enumerate_fiber,
    fiber_spec_from_observation,
    run_walk,
)

from perfbench import ROOT
from perfbench import run as bench_run
from perfbench.mcse import batch_means, hits_from_p_sequence
from perfbench.pipeline import parity
from perfbench.run import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS, draw_tables, fiber, make_inputs, stub_command


def test_ess_of_iid_bernoulli_is_close_to_n():
    x = np.random.default_rng(1).random(250_000) < 0.3
    bm = batch_means(x)
    assert 0.85 * x.size < bm.ess < 1.15 * x.size
    assert bm.mcse == pytest.approx(np.sqrt(0.3 * 0.7 / x.size), rel=0.1)


def test_ess_of_repeated_blocks_is_close_to_n_over_block_length():
    block = 10
    x = np.repeat(np.random.default_rng(2).random(25_000) < 0.5, block)
    bm = batch_means(x)
    assert 0.8 * x.size / block < bm.ess < 1.2 * x.size / block


def test_constant_series_has_zero_mcse():
    bm = batch_means(np.ones(100))
    assert (bm.mcse, bm.ess, bm.mean) == (0.0, 100.0, 1.0)


def test_hits_are_recovered_exactly_from_p_sequence():
    x = (np.random.default_rng(3).random(2_000_000) < 0.4).astype(np.int64)
    # the walker's recorder: p_i = hits_i / i in Python floats
    p = np.empty(x.size)
    hits = 0
    for i, h in enumerate(x.tolist()):
        hits += h
        p[i] = hits / (i + 1)
    assert np.array_equal(hits_from_p_sequence(p), x)


def test_hits_from_a_walk_sum_to_its_hit_count():
    u = Table(cells=(3, 1, 0, 2, 2, 1, 1, 0, 2), shape=(3, 3))
    spec = fiber_spec_from_observation(Independence((3, 3)), u)
    rec = run_walk(spec, u, MovesOnly(), basic_moves_two_way((3, 3)), None, 20_000,
                   lambda c: c[0] * 1.0, seed=4)
    assert int(hits_from_p_sequence(rec.p_sequence).sum()) == rec.hits


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_fiber_is_the_package_enumeration(name):
    wl = WORKLOADS[name]
    ours = {tuple(int(c) for c in row) for row in fiber(wl)}
    base = Table(cells=wl.base, shape=wl.shape)
    spec = fiber_spec_from_observation(wl.model_spec(), base)
    assert ours == {v.cells for v in enumerate_fiber(spec)}


def test_tables_and_fingerprint_follow_the_seed(tmp_path):
    wl = WORKLOADS["sat-external"]
    assert draw_tables(wl, 5) == draw_tables(wl, 5)
    assert draw_tables(wl, 5) != draw_tables(wl, 6)
    a = make_inputs(wl, 5, tmp_path / "a")
    b = make_inputs(wl, 5, tmp_path / "b")
    c = make_inputs(wl, 6, tmp_path / "c")
    assert a.fingerprint() == b.fingerprint() != c.fingerprint()


def test_stub_drops_one_draw_in_twenty():
    wl = WORKLOADS["sat-external"]
    spec = fiber_spec_from_observation(wl.model_spec(), Table(cells=wl.base, shape=wl.shape))
    out = ExternalSampler(stub_command()).sample(encode_fiber(spec), 45, seed=7)
    assert len(out) == 45 - 2
    assert all(spec.contains(t) for t in out)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_recorded_fingerprints_match_the_generator(name, tmp_path):
    with open(bench_run.BASELINE) as f:
        recorded = json.load(f)["fingerprints"][name]["1"]
    assert make_inputs(WORKLOADS[name], 1, tmp_path).fingerprint() == recorded


def test_run_refuses_a_changed_fingerprint(tmp_path, monkeypatch, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"fingerprints": {"sat-external": {"3": "0" * 16}}}))
    monkeypatch.setattr(bench_run, "BASELINE", baseline)
    monkeypatch.setattr(bench_run, "WORK", tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", None)
    args = argparse.Namespace(workload="sat-external", seed=3, seconds=1.0, trace=1)
    with pytest.raises(SystemExit, match="refusing to compare"):
        bench_run.run(args)
    assert '"correct"' not in capsys.readouterr().out


# Each workload's configuration on a fiber of a few hundred tables and a
# walk short enough for one sampler call per test; every traced benchmark
# run checks parity on the full workload.
SMALL_FIBERS = {
    "walk-4x4": (4, 0, 0, 0, 0, 3, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1),  # 261 tables
    "exact-n3f": WORKLOADS["sat-external"].base,  # 190 tables
    "sat-external": WORKLOADS["sat-external"].base,
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pipeline_matches_fiberwalk_test(name, tmp_path):
    wl = dataclasses.replace(WORKLOADS[name], base=SMALL_FIBERS[name])
    inputs = make_inputs(wl, 11, tmp_path)
    assert parity(wl, inputs, 1, seed=12, steps=190) == []


def test_benchmark_json_lists_the_reported_metrics():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
