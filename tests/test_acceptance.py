"""End-to-end acceptance suite.

Ten scenarios, each printing one PASS/FAIL line with its tolerance.
The statistical scenarios run with pinned seeds and were sized so a
correct implementation passes with margin; tolerances are stated
inline and in the printed verdicts.

Covered: the CNF/enumeration bijection, stationarity of all walk
schedules, agreement of the hybrid walk with exactly enumerated
p-values, the structural-bias failure mode of raw SAT sampling and
its mitigation, SAT-step accounting, MLE closed-form agreement,
Markov-basis file ingestion, the doubly-chordal zero-pattern
machinery, fiber disconnection under basic moves, and byte-level
reproducibility of the evaluation harness.
"""

import math

import numpy as np
import pytest

from conftest import record_acceptance
from fiberwalk.bench import (
    ExperimentConfig,
    convergence_step,
    export_results,
    run_evaluation,
)
from fiberwalk.encode import encode_fiber
from fiberwalk.enumeration import enumerate_fiber, exact_p_value, fiber_size
from fiberwalk.mle import ChiSquare, fit_loglinear, independence_fitted, log_likelihood, score
from fiberwalk.models import (
    Independence,
    NoThreeWay,
    QuasiIndependence,
    Table,
    build_n3f_matrix,
    fiber_spec_from_observation,
    model_matrix,
)
from fiberwalk.moves import (
    BasisFileError,
    DegenerateZeroPattern,
    basic_moves_two_way,
    cycle_moves,
    is_doubly_chordal,
    chordality_violations,
    load_basis,
    repair_zero_pattern,
)
from fiberwalk.sampling import (
    InternalBiasedSampler,
    InternalUniformSampler,
    enumerate_cnf_tables,
    make_rng,
)
from fiberwalk.walk import (
    Alternating,
    MovesOnly,
    ParallelStarts,
    SatOnly,
    connected_components_under_moves,
    empirical_tv,
    rho_distribution,
    run_walk,
)


def verdict(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    record_acceptance(line)
    print(line)
    assert ok, line


def spec_of(model, cells, shape):
    return fiber_spec_from_observation(model, Table(tuple(cells), shape))


# ---------------------------------------------------------------- 1


def test_criterion_01_cnf_enumeration_bijection():
    """Projected CNF models match direct fiber enumeration exactly on
    12 specs across all three model families (tolerance: equality)."""
    diag3 = ((0, 0), (1, 1), (2, 2))
    cases = [
        ("I 2x2 a", Independence((2, 2)), (1, 1, 1, 1), (2, 2)),
        ("I 2x2 b", Independence((2, 2)), (2, 1, 1, 2), (2, 2)),
        ("I 2x2 c", Independence((2, 2)), (2, 1, 0, 1), (2, 2)),
        ("I 2x2 d", Independence((2, 2)), (3, 1, 1, 2), (2, 2)),
        ("I 3x3 perm", Independence((3, 3)), (1, 0, 0, 0, 1, 0, 0, 0, 1), (3, 3)),
        ("I 3x3 ones", Independence((3, 3)), (1, 1, 1, 1, 1, 1, 1, 1, 1), (3, 3)),
        ("I 3x3 ragged", Independence((3, 3)), (2, 1, 0, 0, 1, 1, 1, 0, 1), (3, 3)),
        ("QI 1 zero", QuasiIndependence((3, 3), ((0, 0),)),
         (0, 1, 1, 1, 1, 0, 1, 0, 1), (3, 3)),
        ("QI 2 zeros", QuasiIndependence((3, 3), ((0, 0), (1, 1))),
         (0, 1, 1, 1, 0, 1, 1, 1, 0), (3, 3)),
        ("QI 3 zeros", QuasiIndependence((3, 3), diag3),
         (0, 1, 0, 0, 0, 1, 1, 0, 0), (3, 3)),
        ("N3F ones", NoThreeWay(2), (1,) * 8, (2, 2, 2)),
        ("N3F mixed", NoThreeWay(2), (2, 1, 1, 0, 0, 1, 1, 2), (2, 2, 2)),
    ]
    sizes = []
    for label, model, cells, shape in cases:
        spec = spec_of(model, cells, shape)
        fiber = sorted(t.cells for t in enumerate_fiber(spec))
        assert len(fiber) <= 10_000
        via_cnf = sorted(t.cells for t in enumerate_cnf_tables(encode_fiber(spec)))
        assert via_cnf == fiber, f"{label}: CNF route disagrees"
        sizes.append(len(fiber))
    verdict(
        1, True,
        f"CNF models = fiber on {len(cases)} specs, sizes {sizes} (exact equality)",
    )


# ---------------------------------------------------------------- 2


def test_criterion_02_stationary_distribution():
    """Every schedule reaches TV < 0.02 from the enumerated target on
    three fibers of at most 10 elements (200k steps, pinned seeds)."""
    fibers = [
        spec_of(Independence((2, 2)), (1, 1, 1, 1), (2, 2)),      # 3 elements
        spec_of(Independence((2, 2)), (2, 1, 0, 1), (2, 2)),      # 2 elements
        spec_of(Independence((3, 3)), (1, 0, 0, 0, 1, 0, 0, 0, 1), (3, 3)),  # 6
    ]
    starts = [
        Table((1, 1, 1, 1), (2, 2)),
        Table((2, 1, 0, 1), (2, 2)),
        Table((1, 0, 0, 0, 1, 0, 0, 0, 1), (3, 3)),
    ]
    sampler = InternalUniformSampler()
    schedules = [("moves-only", MovesOnly()), ("sat-only", SatOnly()),
                 ("alternating(10)", Alternating(10))]
    worst = 0.0
    for ci, (spec, start) in enumerate(zip(fibers, starts)):
        size = fiber_size(spec)
        assert size <= 10
        rho = rho_distribution(list(enumerate_fiber(spec)))
        moves = basic_moves_two_way(start.shape)
        for name, schedule in schedules:
            rec = run_walk(
                spec, start, schedule, moves, sampler, 200_000,
                lambda c: float(c[0]), seed=31_000 + ci, count_states=True,
            )
            tv = empirical_tv(rec.state_counts, rho)
            print(f"  fiber {ci} ({size} elements) {name}: TV {tv:.5f}")
            worst = max(worst, tv)
            assert tv < 0.02, f"fiber {ci} {name}: TV {tv:.4f} >= 0.02"
    verdict(2, worst < 0.02,
            f"9 schedule/fiber pairs, worst TV {worst:.4f} < 0.02 at 2e5 steps")


# ---------------------------------------------------------------- 3


def test_criterion_03_exact_p_agreement():
    """Alternating(10) with cycle moves lands within 0.01 of the
    enumerated p-value at N = 1e5 in at least 18 of 20 pinned runs on
    a quasi-independence 5x5 instance (fiber 1809)."""
    zeros = ((0, 0), (1, 1), (2, 2))
    model = QuasiIndependence((5, 5), zeros)
    u = Table(
        (0, 0, 0, 0, 2,
         1, 0, 1, 0, 0,
         0, 1, 0, 1, 0,
         0, 0, 1, 1, 0,
         1, 1, 0, 0, 0),
        (5, 5),
    )
    spec = fiber_spec_from_observation(model, u)
    assert fiber_size(spec) == 1809
    fit = fit_loglinear(model_matrix(model), u, zeros=spec.zero_set())
    assert fit.converged
    stat = ChiSquare(fit.pi, u.n, spec.structural_zeros)
    exact = exact_p_value(spec, stat(u.cells), stat)
    # frozen reference, computed once from the full enumeration
    assert exact == pytest.approx(0.28476114224713117, abs=1e-9)

    moves = cycle_moves((5, 5), spec.zero_set())
    sampler = InternalUniformSampler()
    errors = []
    for i in range(20):
        rec = run_walk(spec, u, Alternating(10), moves, sampler, 100_000,
                       stat, seed=9000 + i)
        errors.append(abs(rec.p_final - exact))
    good = sum(e <= 0.01 for e in errors)
    print(f"  exact p {exact:.4f}; errors: " +
          " ".join(f"{e:.4f}" for e in errors))
    verdict(3, good >= 18,
            f"{good}/20 pinned runs within 0.01 of exact p at N=1e5 "
            f"(max error {max(errors):.4f}, need >= 18)")


# ---------------------------------------------------------------- 4


def test_criterion_04_bias_phenomenon():
    """A tilted sampler (strength 2) pulls SatOnly more than 0.02 away
    from the exact p-value, Alternating(50) stays within 0.01, and the
    alternating error is non-increasing in the period across
    {2, 10, 50} (pinned seed, N = 2e5)."""
    u = Table((0, 3, 3, 0), (2, 2))
    spec = fiber_spec_from_observation(Independence((2, 2)), u)
    stat = ChiSquare(independence_fitted(u), u.n)
    exact = exact_p_value(spec, stat(u.cells), stat)
    # fiber is [[a,3-a],[3-a,a]] for a in 0..3 with rho = (1,9,9,1)/20;
    # the extremes are the hits
    assert exact == pytest.approx(0.1, abs=1e-12)

    moves = basic_moves_two_way((2, 2))
    sampler = InternalBiasedSampler(strength=2.0)
    N = 200_000
    sat_rec = run_walk(spec, u, SatOnly(), moves, sampler, N, stat, seed=777)
    sat_err = abs(sat_rec.p_final - exact)
    alt_errs = {}
    for n in (2, 10, 50):
        rec = run_walk(spec, u, Alternating(n), moves, sampler, N, stat, seed=777)
        alt_errs[n] = abs(rec.p_final - exact)
    print(f"  exact p {exact:.3f}; sat-only error {sat_err:.4f}; "
          f"alternating errors {[(n, round(e, 4)) for n, e in alt_errs.items()]}")
    assert sat_err > 0.02, f"sat-only error {sat_err:.4f} not > 0.02"
    assert alt_errs[50] <= 0.01, f"alternating(50) error {alt_errs[50]:.4f} > 0.01"
    assert alt_errs[2] >= alt_errs[10] >= alt_errs[50], "errors not non-increasing"
    verdict(4, True,
            f"sat-only off by {sat_err:.3f} (> 0.02), alternating(50) within "
            f"{alt_errs[50]:.4f} (<= 0.01), errors non-increasing over n=2,10,50")


# ---------------------------------------------------------------- 5


def test_criterion_05_sat_step_accounting():
    """Both hybrid schedules consume exactly k SAT samples over
    T = n*k steps, for (n,k) = (10,10) and (25,4) (exact counters)."""
    spec = spec_of(Independence((2, 2)), (1, 1, 1, 1), (2, 2))
    u = Table((1, 1, 1, 1), (2, 2))
    moves = basic_moves_two_way((2, 2))
    sampler = InternalUniformSampler()
    results = []
    for n, k in ((10, 10), (25, 4)):
        T = n * k
        alt = run_walk(spec, u, Alternating(n), moves, sampler, T,
                       lambda c: float(c[0]), seed=55)
        par = run_walk(spec, u, ParallelStarts(n, k), moves, sampler, T,
                       lambda c: float(c[0]), seed=55)
        results.append((n, k, alt.sat_steps, par.sat_steps))
        assert alt.steps == T and par.steps == T
        assert alt.sat_steps == k, f"alternating({n}) used {alt.sat_steps} != {k}"
        assert alt.move_steps == T - k
        assert par.sat_steps == k, f"parallel-starts({n},{k}) used {par.sat_steps}"
        assert par.move_steps == T
    verdict(5, True,
            f"exact SAT budgets for (n,k) in {{(10,10),(25,4)}}: "
            f"{[(r[2], r[3]) for r in results]} == k for both schedules")


# ---------------------------------------------------------------- 6


def test_criterion_06_mle_matches_closed_form():
    """On 50 random positive-margin two-way tables the fitted cell
    probabilities match r_i c_j / n^2 within 1e-6 per cell, the margin
    discrepancy is at most 1e-6 * n, and the analytic gradient matches
    central finite differences within 1e-5."""
    rng = make_rng(606)
    shapes = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]
    worst_pi = worst_disc = worst_grad = 0.0
    for trial in range(50):
        shape = shapes[trial % len(shapes)]
        d = shape[0] * shape[1]
        cells = tuple(int(c) for c in rng.integers(1, 10, size=d))
        u = Table(cells, shape)
        A = model_matrix(Independence(shape))
        fit = fit_loglinear(A, u)
        assert fit.converged, f"trial {trial}: no convergence on {cells}"
        dev = float(np.max(np.abs(fit.pi - independence_fitted(u))))
        worst_pi = max(worst_pi, dev)
        assert dev < 1e-6, f"trial {trial}: cell deviation {dev:.2e}"
        assert fit.discrepancy <= 1e-6 * u.n
        worst_disc = max(worst_disc, fit.discrepancy / u.n)

        theta = rng.normal(scale=0.2, size=A.entries.shape[0])
        g = score(theta, A, u)
        eps = 1e-6
        for kk in range(len(theta)):
            e = np.zeros_like(theta)
            e[kk] = eps
            fd = (log_likelihood(theta + e, A, u)
                  - log_likelihood(theta - e, A, u)) / (2 * eps)
            worst_grad = max(worst_grad, abs(g[kk] - fd))
            assert abs(g[kk] - fd) < 1e-5
    verdict(6, True,
            f"50 tables: max |pi - closed form| {worst_pi:.1e} (< 1e-6), "
            f"max discrepancy/n {worst_disc:.1e} (<= 1e-6), "
            f"max gradient-FD gap {worst_grad:.1e} (< 1e-5)")


# ---------------------------------------------------------------- 7


def test_criterion_07_basis_file_ingestion(tmp_path, data_dir):
    """The bundled 81-move basis for the no-three-factor model on
    3x3x3 loads with full kernel validation; a corrupted line is
    rejected with its line number."""
    A = build_n3f_matrix(3)
    basis = load_basis(data_dir / "n3f_3_basis.txt", A)
    assert len(basis.moves) == 81
    for mv in basis.moves:
        delta = np.zeros(27, dtype=int)
        for j, d in zip(mv.support, mv.deltas):
            delta[j] = d
        assert (A.entries @ delta == 0).all()

    lines = (data_dir / "n3f_3_basis.txt").read_text().splitlines(True)
    lines[4] = "2 " + lines[4].split(" ", 1)[1]  # breaks the kernel property
    bad = tmp_path / "corrupted.txt"
    bad.write_text("".join(lines))
    with pytest.raises(BasisFileError, match="line 5"):
        load_basis(bad, A)
    verdict(7, True,
            "81 moves load kernel-valid; corrupted line rejected as 'line 5'")


# ---------------------------------------------------------------- 8


def test_criterion_08_doubly_chordal_machinery():
    """K_{3,3} passes the doubly-chordal check, the bare 6-cycle fails
    with a concrete witness, and zero-pattern repair on 100 random
    (5,5) patterns always returns a passing superset."""
    assert is_doubly_chordal((3, 3))
    diag = (0, 4, 8)
    assert not is_doubly_chordal((3, 3), diag)
    witness = chordality_violations((3, 3), diag)
    assert witness and len(witness[0]) >= 6

    rng = make_rng(808)
    repaired = 0
    attempts = 0
    grown = 0
    while repaired < 100:
        attempts += 1
        assert attempts < 400, "too many degenerate patterns"
        size = int(rng.integers(0, 9))
        zeros = tuple(sorted(rng.choice(25, size=size, replace=False).tolist()))
        try:
            out = repair_zero_pattern((5, 5), zeros, rng)
        except DegenerateZeroPattern:
            continue
        assert set(out) >= set(zeros), "repair dropped a required zero"
        assert is_doubly_chordal((5, 5), out), "repair output fails the check"
        grown += len(out) > len(zeros)
        repaired += 1
    verdict(8, True,
            f"K33 passes, 6-cycle fails with witness of length "
            f"{len(witness[0])}, 100 repairs pass with S' containing S "
            f"({grown} strictly grew, {attempts - 100} degenerate patterns skipped)")


# ---------------------------------------------------------------- 9


def test_criterion_09_disconnected_fiber_still_converges():
    """A quasi-independence instance whose fiber splits in two under
    basic moves: a 3x3 six-cycle core (two matchings, no free
    rectangle) plus an independent 2x2 block.  The component finder
    reports both parts, and Alternating(10) with those same basic
    moves still lands within 0.01 of the exact p-value."""
    zeros = [(0, 2), (1, 0), (2, 1)]
    zeros += [(i, j) for i in range(3) for j in (3, 4)]
    zeros += [(i, j) for i in (3, 4) for j in range(3)]
    model = QuasiIndependence((5, 5), tuple(zeros))
    cells = np.zeros((5, 5), dtype=int)
    cells[0, 0] = cells[1, 1] = cells[2, 2] = 1
    cells[3, 3] = cells[4, 4] = 2
    u = Table.from_array(cells)
    spec = fiber_spec_from_observation(model, u)

    moves = basic_moves_two_way((5, 5), spec.zero_set())
    assert len(moves.moves) == 1
    comps = connected_components_under_moves(spec, moves)
    assert sorted(len(c) for c in comps) == [3, 3]

    # a weight ramp over free cells separates the two core matchings
    free = [j for j in range(25) if j not in spec.zero_set()]
    w = np.zeros(25)
    for rank, j in enumerate(free):
        w[j] = 1.0 + 0.35 * rank
    pi = w / w.sum()
    stat = ChiSquare(pi, u.n, spec.structural_zeros)
    exact = exact_p_value(spec, stat(u.cells), stat)
    assert exact == pytest.approx(1 / 12, abs=1e-12)

    sampler = InternalUniformSampler()
    moves_rec = run_walk(spec, u, MovesOnly(), moves, None, 40_000, stat, seed=4242)
    rec = run_walk(spec, u, Alternating(10), moves, sampler, 40_000, stat, seed=4242)
    err = abs(rec.p_final - exact)
    print(f"  components [3, 3]; exact p {exact:.4f}; moves-only stuck at "
          f"{moves_rec.p_final:.4f}; alternating(10) error {err:.4f}")
    verdict(9, err <= 0.01,
            f"2 components detected; alternating(10) error {err:.4f} <= 0.01 "
            f"(moves-only alone was off by {abs(moves_rec.p_final - exact):.3f})")


# ---------------------------------------------------------------- 10


def test_criterion_10_determinism_and_metric(tmp_path):
    """Identical config and seed reproduce byte-identical CSV exports,
    and convergence_step returns the documented values on its three
    reference sequences."""
    from fiberwalk.sampling import SamplerConfig

    cfg = dict(
        model="independence", shape=(2, 2), n=8, runs=3, steps=150,
        schedule=Alternating(5), sampler=SamplerConfig(), lambdas=(0.5, 1.0),
        seed=99,
    )
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    export_results(run_evaluation(ExperimentConfig(**cfg)), out1)
    export_results(run_evaluation(ExperimentConfig(**cfg)), out2)
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2 and "summary.csv" in names1
    for name in names1:
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"

    assert convergence_step([0.3, 0.3, 0.3], 0.3) == 1
    assert convergence_step([0.5, 0.2, 0.101, 0.1, 0.1004, 0.0996], 0.1,
                            tol=0.005) == 3
    assert convergence_step([0.1, 0.1, 0.5], 0.1, tol=0.005) is None
    verdict(10, True,
            f"{len(names1)} export files byte-identical across reruns; "
            f"convergence_step returns 1, 3, None on the documented sequences")
