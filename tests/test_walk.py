"""The Metropolis-Hastings fiber walk.

The target distribution is rho(u) proportional to 1/prod(u_ij!).
Move proposals pick a move and a sign uniformly; SAT proposals come
from a sampler.  Both use the same acceptance rule
r(u, v) = exp(min(0, sum(lgamma(u_i + 1) - lgamma(v_i + 1)))), and a
proposal that leaves the nonnegative orthant is a self-loop that
still counts as a step.  A state is a hit when its statistic is at
least the observed one less a relative 1e-7, so ties survive rounding.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fiberwalk.models import Independence, Table, fiber_spec_from_observation
from fiberwalk.moves import basic_moves_two_way
from fiberwalk.sampling import InternalUniformSampler, make_rng
from fiberwalk.walk import (
    Alternating,
    MovesOnly,
    ParallelStarts,
    SatOnly,
    acceptance_ratio,
    empirical_tv,
    make_schedule,
    rho_distribution,
    run_walk,
)

SPEC = fiber_spec_from_observation(Independence((2, 2)), Table((1, 1, 1, 1), (2, 2)))
U0 = Table((1, 1, 1, 1), (2, 2))
MOVES = basic_moves_two_way((2, 2))


def count_stat(cells):
    return float(cells[0])


def test_acceptance_ratio_hand_values():
    # rho((2,0)) = 1/2, rho((1,1)) = 1: uphill is certain, downhill is 1/2
    assert acceptance_ratio((2, 0), (1, 1)) == pytest.approx(1.0)
    assert acceptance_ratio((1, 1), (2, 0)) == pytest.approx(0.5)
    assert acceptance_ratio((3, 3), (3, 3)) == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=6),
    st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=6),
)
def test_acceptance_ratio_detailed_balance_shape(u, v):
    if len(u) != len(v):
        v = (v + u)[: len(u)]
    r_uv = acceptance_ratio(u, v)
    r_vu = acceptance_ratio(v, u)
    s = sum(math.lgamma(a + 1) - math.lgamma(b + 1) for a, b in zip(u, v))
    assert 0.0 < r_uv <= 1.0
    # one direction is always certain, and the product is exp(-|s|)
    assert max(r_uv, r_vu) == pytest.approx(1.0)
    assert r_uv * r_vu == pytest.approx(math.exp(-abs(s)))


def test_run_walk_is_deterministic():
    sam = InternalUniformSampler()
    a = run_walk(SPEC, U0, Alternating(5), MOVES, sam, 500, count_stat, seed=12)
    b = run_walk(SPEC, U0, Alternating(5), MOVES, sam, 500, count_stat, seed=12)
    assert (a.p_sequence == b.p_sequence).all()
    assert (a.accepted == b.accepted).all()
    c = run_walk(SPEC, U0, Alternating(5), MOVES, sam, 500, count_stat, seed=13)
    assert (a.p_sequence != c.p_sequence).any()


def test_p_sequence_is_running_hit_share():
    rec = run_walk(SPEC, U0, MovesOnly(), MOVES, None, 300, count_stat, seed=3)
    assert rec.steps == 300
    assert len(rec.p_sequence) == 300
    assert rec.p_final == rec.p_sequence[-1]
    assert rec.p_final == pytest.approx(rec.hits / rec.steps)
    # threshold is the observed statistic
    assert rec.threshold == count_stat(U0.cells)


def test_schedule_accounting_small():
    sam = InternalUniformSampler()
    rec = run_walk(SPEC, U0, Alternating(2), MOVES, sam, 10, count_stat, seed=5)
    assert rec.sat_steps == 5 and rec.move_steps == 5
    rec = run_walk(SPEC, U0, SatOnly(), None, sam, 10, count_stat, seed=5)
    assert rec.sat_steps == 10 and rec.move_steps == 0
    rec = run_walk(SPEC, U0, MovesOnly(), MOVES, None, 10, count_stat, seed=5)
    assert rec.sat_steps == 0 and rec.move_steps == 10


def test_parallel_starts_accounting():
    """k sub-walk initializations are the only SAT draws and are not
    recorded as steps; every recorded step is a move step."""
    sam = InternalUniformSampler()
    rec = run_walk(SPEC, U0, ParallelStarts(3, 2), MOVES, sam, 6, count_stat, seed=8)
    assert rec.steps == 6
    assert rec.sat_steps == 2
    assert rec.move_steps == 6
    assert len(rec.finals) == 2


class ShortSampler:
    """Returns ``count - short`` fiber elements per call after ``empty``
    empty calls, and logs every requested count."""

    def __init__(self, empty=0, short=1):
        self.empty = empty
        self.short = short
        self.requests = []

    def sample(self, encoding, count, seed):
        self.requests.append(count)
        if len(self.requests) <= self.empty:
            return []
        fiber = [Table(c, (2, 2)) for c in ((1, 1, 1, 1), (2, 0, 0, 2), (0, 2, 2, 0))]
        idx = make_rng(seed).integers(len(fiber), size=count - self.short)
        return [fiber[int(i)] for i in idx]


def test_short_batches_make_one_call_per_refill():
    """Alternating(2) at N=40 refills 20 draws at a time; a sampler
    giving 19 per call serves the 20 SAT steps in two calls, and the
    short batch is used as returned rather than topped up."""
    sam = ShortSampler()
    rec = run_walk(SPEC, U0, Alternating(2), MOVES, sam, 40, count_stat, seed=4)
    assert not rec.aborted
    assert sam.requests == [20, 20]
    assert rec.sat_steps == 20 and rec.move_steps == 20


def test_empty_batches_are_retried():
    sam = ShortSampler(empty=3, short=0)
    rec = run_walk(SPEC, U0, Alternating(2), MOVES, sam, 40, count_stat, seed=4)
    assert not rec.aborted
    assert sam.requests == [20, 20, 20, 20]  # 3 empty, then all 20 draws
    assert rec.sat_steps == 20 and rec.move_steps == 20


def test_sampler_returning_nothing_aborts_after_16_calls():
    sam = ShortSampler(empty=10**9)
    rec = run_walk(SPEC, U0, Alternating(2), MOVES, sam, 40, count_stat, seed=4)
    assert rec.aborted
    assert rec.abort_reason == "sampler repeatedly returned no valid elements"
    assert len(sam.requests) == 16
    assert rec.steps == 1  # the move step before the first SAT step


def test_make_schedule_by_name():
    assert make_schedule("moves-only", 3, 2) == MovesOnly()
    assert make_schedule("sat-only", 3, 2) == SatOnly()
    assert make_schedule("alternating", 3, 2) == Alternating(3)
    assert make_schedule("parallel-starts", 3, 2) == ParallelStarts(3, 2)
    with pytest.raises(ValueError, match="unknown schedule kind"):
        make_schedule("round-robin", 3, 2)


def test_moves_only_requires_moves():
    with pytest.raises(ValueError):
        run_walk(SPEC, U0, MovesOnly(), None, None, 10, count_stat, seed=1)


def test_sat_schedules_require_sampler():
    with pytest.raises(ValueError):
        run_walk(SPEC, U0, SatOnly(), MOVES, None, 10, count_stat, seed=1)


def test_out_of_bounds_proposal_is_self_loop():
    # single-element fiber: every move proposal exits the orthant
    u = Table((1, 0, 0, 0), (2, 2))
    spec = fiber_spec_from_observation(Independence((2, 2)), u)
    rec = run_walk(spec, u, MovesOnly(), MOVES, None, 50, count_stat, seed=2, count_states=True)
    assert rec.steps == 50
    assert rec.move_steps == 50
    assert rec.state_counts == {u.cells: 50}
    assert not rec.accepted.any()


def test_state_counts_total_is_step_count():
    sam = InternalUniformSampler()
    rec = run_walk(
        SPEC, U0, Alternating(3), MOVES, sam, 400, count_stat, seed=21, count_states=True
    )
    assert sum(rec.state_counts.values()) == 400


@pytest.mark.parametrize(
    "schedule", [MovesOnly(), SatOnly(), Alternating(4), ParallelStarts(5, 3)], ids=repr
)
def test_every_visited_state_is_in_the_fiber(schedule):
    u0 = Table((2, 1, 0, 1, 1, 1, 0, 1, 2), (3, 3))  # a 55-element fiber
    spec = fiber_spec_from_observation(Independence((3, 3)), u0)
    rec = run_walk(
        spec, u0, schedule, basic_moves_two_way((3, 3)), InternalUniformSampler(),
        2000, count_stat, seed=4, count_states=True,
    )
    assert len(rec.state_counts) > 1
    assert all(spec.contains(Table(cells, (3, 3))) for cells in rec.state_counts)
    assert all(spec.contains(t) for t in rec.finals)


def test_rho_distribution_hand_values():
    fiber = [Table((2, 0, 0, 2), (2, 2)), Table((1, 1, 1, 1), (2, 2))]
    rho = rho_distribution(fiber)
    # weights 1/4 and 1 normalize to 1/5 and 4/5
    assert rho[(2, 0, 0, 2)] == pytest.approx(0.2)
    assert rho[(1, 1, 1, 1)] == pytest.approx(0.8)


def test_empirical_tv_hand_values():
    probs = {(0,): 0.5, (1,): 0.5}
    assert empirical_tv({(0,): 10, (1,): 10}, probs) == pytest.approx(0.0)
    assert empirical_tv({(0,): 20}, probs) == pytest.approx(0.5)


def test_walk_reaches_rho_on_tiny_fiber():
    """Long MovesOnly walk matches the enumerated target within a
    loose TV budget."""
    from fiberwalk.enumeration import enumerate_fiber

    rec = run_walk(SPEC, U0, MovesOnly(), MOVES, None, 40_000, count_stat, seed=9, count_states=True)
    rho = rho_distribution(list(enumerate_fiber(SPEC)))
    tv = empirical_tv(rec.state_counts, rho)
    print(f"TV after 40k move steps: {tv:.4f}")
    assert tv < 0.02


def test_run_record_csv_layout():
    sam = InternalUniformSampler()
    rec = run_walk(SPEC, U0, Alternating(2), MOVES, sam, 6, count_stat, seed=1)
    buf = io.StringIO()
    rec.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "step,p_value,accepted,proposal_kind"
    assert len(lines) == 7
    kinds = [line.split(",")[3] for line in lines[1:]]
    assert kinds == ["move", "sat", "move", "sat", "move", "sat"]


def test_states_within_the_tie_tolerance_are_hits():
    """Every state but the observed one sits 1e-9 relative below the
    observed statistic: all of them count as hits."""
    observed = 0.7

    def stat(cells):
        return observed if tuple(cells) == U0.cells else observed * (1 - 1e-9)

    rec = run_walk(SPEC, U0, SatOnly(), None, InternalUniformSampler(), 2000, stat,
                   seed=3, count_states=True)
    assert rec.threshold == observed
    assert len(rec.state_counts) == 3  # the whole fiber was visited
    assert rec.p_final == 1.0
