"""The Metropolis-Hastings fiber walk.

The target distribution is rho(u) proportional to 1/prod(u_ij!).
Move proposals pick a move and a sign uniformly; SAT proposals come
from a sampler.  Moves, and the SAT draws of schedules without moves,
use the acceptance rule
r(u, v) = exp(min(0, sum(lgamma(u_i + 1) - lgamma(v_i + 1)))), and a
proposal that leaves the nonnegative orthant is a self-loop that
still counts as a step.  Alternating(n) with n >= 2 takes the pooled
SAT step: from a table in D, the distinct tables of the sampler's
latest batches, it moves to a table drawn from rho on D.  A state is
a hit when its statistic is at
least the observed one less a relative 1e-7, so ties survive rounding.
"""

import hashlib
import itertools
import math
import os
import sys
import tempfile
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import reference_rho
from fiberwalk.encode import cell_value_bound, encode_fiber
from fiberwalk.enumeration import enumerate_fiber, hit_cut
from fiberwalk.mle import ChiSquare, fit_loglinear
from fiberwalk.models import (
    Independence,
    NoThreeWay,
    QuasiIndependence,
    Table,
    fiber_spec_from_observation,
    unflatten_index,
)
from fiberwalk.moves import (
    basic_moves_n3f, basic_moves_two_way, cycle_moves, load_basis, n3f_basis,
)
from fiberwalk.sampling import (
    SEED_BOUND,
    ExternalSampler,
    InternalBiasedSampler,
    InternalUniformSampler,
    SamplerError,
    SamplerExitError,
    make_rng,
)
import fiberwalk.walk as walk_module
from fiberwalk.walk import (
    Alternating,
    MovesOnly,
    ParallelStarts,
    empirical_tv,
    make_schedule,
    run_walk,
)

SPEC = fiber_spec_from_observation(Independence((2, 2)), Table((1, 1, 1, 1), (2, 2)))
U0 = Table((1, 1, 1, 1), (2, 2))
MOVES = basic_moves_two_way((2, 2))


def count_stat(cells):
    return float(cells[0])


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
    rec = run_walk(SPEC, U0, Alternating(1), None, sam, 10, count_stat, seed=5)
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
    assert make_schedule("sat-only", 3, 2) == Alternating(1)
    assert make_schedule("alternating", 3, 2) == Alternating(3)
    assert make_schedule("parallel-starts", 3, 2) == ParallelStarts(3, 2)
    with pytest.raises(ValueError, match="unknown schedule kind"):
        make_schedule("round-robin", 3, 2)


def test_moves_only_requires_moves():
    with pytest.raises(ValueError):
        run_walk(SPEC, U0, MovesOnly(), None, None, 10, count_stat, seed=1)


def test_alternating_1_without_moves_is_the_sat_only_chain():
    """Alternating(1), the sat-only chain, takes no move steps, so it
    needs no move set and runs the same bytes without one."""
    def alternating_1(spec, u, schedule, moves, *rest, **kw):
        return run_walk(spec, u, Alternating(1), None, *rest, **kw)

    assert_same_record(_golden_run("sat-only/uniform", alternating_1),
                       _golden_run("sat-only/uniform"))


def test_sat_schedules_require_sampler():
    with pytest.raises(ValueError):
        run_walk(SPEC, U0, Alternating(1), MOVES, None, 10, count_stat, seed=1)


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
    "schedule", [MovesOnly(), Alternating(1), Alternating(4), ParallelStarts(5, 3)], ids=repr
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


def test_rho_hand_values():
    enum = enumerate_fiber(fiber_spec_from_observation(Independence((2, 2)),
                                                       Table((2, 0, 0, 2), (2, 2))))
    rho = enum.rho()
    # weights 1/4, 1 and 1/4 normalize to 1/6, 2/3 and 1/6
    assert rho == pytest.approx({(0, 2, 2, 0): 1 / 6, (1, 1, 1, 1): 2 / 3, (2, 0, 0, 2): 1 / 6})
    assert rho == reference_rho(list(enum))


def test_empirical_tv_hand_values():
    probs = {(0,): 0.5, (1,): 0.5}
    assert empirical_tv({(0,): 10, (1,): 10}, probs) == pytest.approx(0.0)
    assert empirical_tv({(0,): 20}, probs) == pytest.approx(0.5)


def test_walk_reaches_rho_on_tiny_fiber():
    """Long MovesOnly walk matches the enumerated target within a
    loose TV budget."""
    rec = run_walk(SPEC, U0, MovesOnly(), MOVES, None, 40_000, count_stat, seed=9, count_states=True)
    enum = enumerate_fiber(SPEC)
    rho = enum.rho()
    assert rho == reference_rho(list(enum))
    tv = empirical_tv(rec.state_counts, rho)
    print(f"TV after 40k move steps: {tv:.4f}")
    assert tv < 0.02


def test_alternating_kinds_follow_the_period():
    sam = InternalUniformSampler()
    rec = run_walk(SPEC, U0, Alternating(2), MOVES, sam, 6, count_stat, seed=1)
    assert rec.proposal_kind.dtype == np.uint8
    assert rec.proposal_kind.tolist() == [0, 1, 0, 1, 0, 1]


def test_states_within_the_tie_tolerance_are_hits():
    """Every state but the observed one sits 1e-9 relative below the
    observed statistic: all of them count as hits."""
    observed = 0.7

    def stat(cells):
        return observed if tuple(cells) == U0.cells else observed * (1 - 1e-9)

    rec = run_walk(SPEC, U0, Alternating(1), None, InternalUniformSampler(), 2000, stat,
                   seed=3, count_states=True)
    assert rec.threshold == observed
    assert len(rec.state_counts) == 3  # the whole fiber was visited
    assert rec.p_final == 1.0


# -- golden records: a change that keeps the walk keeps these bytes


class FailingSampler:
    """The uniform sampler's first ``per_call`` draws per call; the call
    after ``calls`` successful ones raises ``SamplerExitError``."""

    def __init__(self, per_call, calls):
        self.inner = InternalUniformSampler()
        self.per_call = per_call
        self.calls = calls

    def sample(self, encoding, count, seed):
        if self.calls == 0:
            raise SamplerExitError("sampler exited with status 1: gone")
        self.calls -= 1
        return self.inner.sample(encoding, count, seed)[: self.per_call]


def record_digest(rec) -> str:
    """sha256 over every field of a run record but the state counts."""
    h = hashlib.sha256()
    for arr in (rec.p_sequence, rec.accepted, rec.proposal_kind):
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    h.update(repr((rec.hits, rec.steps, rec.sat_steps, rec.move_steps, rec.threshold,
                   rec.aborted, rec.abort_reason)).encode())
    h.update(repr([(t.cells, t.shape) for t in rec.finals]).encode())
    return h.hexdigest()


def _golden_run(case, walker=run_walk):
    if case.startswith("n3f"):
        u = Table((1, 0, 2, 1, 1, 0, 0, 1, 1, 2, 0, 1, 0, 1, 1, 1, 0, 0,
                   0, 2, 0, 1, 0, 1, 1, 0, 1), (3, 3, 3))
        model, moves = NoThreeWay(3), basic_moves_n3f(3)
    else:
        u = Table((2, 1, 0, 1, 1, 1, 0, 1, 2), (3, 3))
        model, moves = Independence((3, 3)), basic_moves_two_way((3, 3))
    spec = fiber_spec_from_observation(model, u)
    stat = ChiSquare(fit_loglinear(spec.matrix, u).pi, u.n)
    name, sampler_name = case.split("/")
    schedule = {
        "moves-only": MovesOnly(), "sat-only": Alternating(1), "alternating-3": Alternating(3),
        "alternating-10": Alternating(10), "parallel-7-5": ParallelStarts(7, 5),
        "n3f-alternating-2": Alternating(2), "abort-alternating-3": Alternating(3),
        "abort-parallel-7-5": ParallelStarts(7, 5),
    }[name]
    sampler = {
        "uniform": InternalUniformSampler(),
        "biased": InternalBiasedSampler(strength=2.0),
        "fail-after-3": FailingSampler(per_call=7, calls=3),
        "fail-at-once": FailingSampler(per_call=7, calls=0),
    }[sampler_name]
    return walker(spec, u, schedule, moves, sampler, 3000, stat, seed=19)


GOLDEN_RECORDS = {
    # aborts at SAT step 66, on the sampler's fourth call: 65 steps, p 65/65
    # (the alternating runs' p is after 3,000 steps; exact p by enumeration)
    "abort-alternating-3/fail-after-3": "27774c5e9033870394b25e1e9e9a2802094b3845685c302db4f1f794573b4707",
    "abort-parallel-7-5/fail-at-once": "16e19c80b2b6d5e96f414a12560c8b5e787fd6c01c45d1af5e62707146e1de7c",
    "alternating-10/biased": "1e778a044527fd38c99f887e6920af76f58eae2a88eea59caa6100532b09e2b1",  # p 0.8803, exact 0.8714
    "alternating-10/uniform": "a08a770492c9d1fec14513f580bf923c7ba07ea78d61be185eb0c6d05aa46ccb",  # p 0.8900, exact 0.8714
    "alternating-3/biased": "8ea3285927c05c8081a9889345b94344caf7ec8396abf18c318775a6b5651f02",  # p 0.8853, exact 0.8714
    "alternating-3/uniform": "16ba7e31067b5e209551aa860a7d130f57a65e21d7344341bf62b112debbf10d",  # p 0.8727, exact 0.8714
    "moves-only/uniform": "156187cd522d6555d2cf1d75e908274c2a46805ab766a6650bcc6906cbb995f6",
    "n3f-alternating-2/uniform": "d19d144000b72b939f051e37371f72cf2129867aa7b84218f3fdd270970ecfad",  # p 0.3050, exact 0.3184
    "parallel-7-5/biased": "a513ed653e6a02d59d747ef807b2206929e1f136536509875025701434d5d0c1",
    "parallel-7-5/uniform": "6b71d0bbeafb7d96f950bf1c9b4fa33f6424705ee9309aa072d04f85d62e0b07",
    "sat-only/biased": "34427a2374c131129eb5d35546e72f8737b4e56e7f048d9adc72faf7578e79b1",
    "sat-only/uniform": "5f11daaa3f5b9e154c1f9f5bb591c519a2a3bbf0590bd24b8b340cf4846d38d9",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_RECORDS))
def test_run_record_golden(case):
    assert record_digest(_golden_run(case)) == GOLDEN_RECORDS[case]


def test_sat_proposal_past_the_exp_range_is_accepted():
    """On the 2x2 table 1000 0 0 1000 a SAT proposal such as
    500 500 500 500 has log acceptance ratio about 1,379, beyond what
    ``math.exp`` can take (709); the step accepts it without calling
    ``exp``."""
    u = Table((1000, 0, 0, 1000), (2, 2))
    spec = fiber_spec_from_observation(Independence((2, 2)), u)
    rec = run_walk(spec, u, Alternating(1), None, InternalUniformSampler(), 50, count_stat, seed=1)
    assert rec.steps == 50 and not rec.aborted
    assert rec.accepted[0]


# -- a per-step reference walker: run_walk must match it field by field


def reference_walk(spec, u_obs, schedule, moves, sampler, N, stat, seed, count_states=False):
    """Plain Metropolis-Hastings, one proposal per step, on the streams
    run_walk documents: ``math.lgamma`` per cell, the statistic for
    every recorded step, and p_i = hits / i as a Python division.  The
    record's fields come back in a namespace, with each step's kind and
    the step counts taken from the kinds as the steps ran."""
    threshold = float(stat(u_obs.cells))
    cut = hit_cut(threshold)
    lg = math.lgamma
    period = schedule.n if isinstance(schedule, Alternating) else 0
    sched_rng = make_rng(seed, 0)
    encoding = encode_fiber(spec)
    chunk = min(max(1, N // period), 8192) if period else getattr(schedule, "k", 1)

    def batches():
        """Each batch takes a seed and, for the pooled step, the next
        ``chunk`` uniforms of the scheduler stream, whatever its length;
        an empty batch moves on to the next seed."""
        while True:
            for _ in range(16):
                batch_seed = int(sched_rng.integers(1 << 62))
                uniforms = sched_rng.random(chunk) if period > 1 else None
                batch = sampler.sample(encoding, chunk, batch_seed)[:chunk]
                if batch:
                    break
            else:
                raise SamplerError("sampler repeatedly returned no valid elements")
            yield batch, uniforms

    def proposals():
        for batch, _ in batches():
            yield from batch

    pool = {}  # D: cells -> log rho, oldest first

    def pool_picks():
        """Each batch's new tables join D in order of first appearance,
        the oldest leave D past the cap, and the batch's SAT steps pick
        their tables from rho on that D, by its inverse CDF on the
        batch's first len(batch) uniforms."""
        for batch, uniforms in batches():
            for t in batch:
                if t.cells not in pool:
                    pool[t.cells] = -sum(lg(c + 1) for c in t.cells)
            while len(pool) > walk_module._POOL_CAP:
                del pool[next(iter(pool))]
            cells = list(pool)
            logw = np.array([pool[c] for c in cells])
            w = np.exp(logw - logw.max())
            cdf = np.cumsum(w / w.sum())
            cdf /= cdf[-1]
            for k in np.searchsorted(cdf, uniforms[:len(batch)], side="right").tolist():
                yield cells[k]

    def move_stream(rng):
        """Blocks of 8,192 move steps, each drawing its picks, its signs
        and its uniforms in that order: one uniform per move step."""
        while True:
            picks = rng.integers(0, len(moves), size=8192).tolist()
            signs = rng.integers(0, 2, size=8192).tolist()
            unif = rng.random(8192).tolist()
            for k, b, u in zip(picks, signs, unif):
                mv = moves[k]
                yield mv.support, tuple(dl if b else -dl for dl in mv.deltas), u

    def uniform_stream(rng):
        while True:
            yield from rng.random(8192).tolist()

    class Walker:
        """The current state and its log-weight, which a move shifts by
        the support terms and a SAT step replaces."""

        def __init__(self, start, rng):
            self.cur = list(start.cells)
            self.logw = -sum(lg(c + 1) for c in self.cur)
            self.moves = move_stream(rng)
            self.unif = uniform_stream(rng)

        def move_step(self):
            support, deltas, u = next(self.moves)
            new = list(self.cur)
            for j, dl in zip(support, deltas):
                new[j] += dl
                if new[j] < 0:
                    return False  # a self-loop, its uniform unused
            s = sum(lg(self.cur[j] + 1) - lg(new[j] + 1) for j in support)
            return self.accept(s, u, new, self.logw + s)

        def sat_step(self, proposal):
            lw = -sum(lg(c + 1) for c in proposal.cells)
            return self.accept(lw - self.logw, next(self.unif), list(proposal.cells), lw)

        def pool_step(self, cells):
            if tuple(self.cur) not in pool:
                return False
            self.cur = list(cells)
            self.logw = pool[cells]
            return True

        def accept(self, s, u, new, logw):
            if s >= 0 or u < math.exp(s):
                self.cur, self.logw = new, logw
                return True
            return False

    p_seq, accepted, kinds, counts = [], [], [], {}
    hits = 0

    def record(acc, cells, kind):
        nonlocal hits
        hits += stat(cells) >= cut
        p_seq.append(hits / (len(p_seq) + 1))
        accepted.append(acc)
        kinds.append(kind)
        counts[cells] = counts.get(cells, 0) + 1

    feed = None if isinstance(schedule, MovesOnly) else proposals()
    if period > 1:
        feed = pool_picks()
    reason, walkers, initial = None, [], 0
    try:
        if isinstance(schedule, ParallelStarts):
            picks = sched_rng.integers(0, schedule.k, size=-(-N // schedule.n)).tolist()
            starts = [next(feed) for _ in range(schedule.k)]
            initial = schedule.k
            walkers = [Walker(s, make_rng(seed, 1 + w)) for w, s in enumerate(starts)]
            for pick in picks:
                for _ in range(min(schedule.n, N - len(p_seq))):
                    w = walkers[pick]
                    record(w.move_step(), tuple(w.cur), 0)
        else:
            walkers = [Walker(u_obs, make_rng(seed, 1))]
            w = walkers[0]
            for t in range(1, N + 1):
                if period > 1 and t % period == 0:
                    record(w.pool_step(next(feed)), tuple(w.cur), 1)
                elif period and t % period == 0:
                    record(w.sat_step(next(feed)), tuple(w.cur), 1)
                else:
                    record(w.move_step(), tuple(w.cur), 0)
    except SamplerError as exc:
        reason = str(exc)
    sat = sum(kinds)
    return SimpleNamespace(
        p_sequence=np.array(p_seq, dtype=np.float64),
        accepted=np.array(accepted, dtype=np.bool_),
        proposal_kind=np.array(kinds, dtype=np.uint8),
        hits=int(hits),
        steps=len(p_seq),
        sat_steps=initial + sat,
        move_steps=len(p_seq) - sat,
        threshold=threshold,
        finals=tuple(Table(tuple(w.cur), spec.shape) for w in walkers) or (u_obs,),
        state_counts=counts if count_states else None,
        aborted=reason is not None,
        abort_reason=reason,
        pool_size=len(pool),
    )


def assert_same_record(got, want):
    for name in ("p_sequence", "accepted", "proposal_kind"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for name in ("hits", "steps", "sat_steps", "move_steps", "threshold", "finals",
                 "state_counts", "aborted", "abort_reason", "pool_size"):
        assert getattr(got, name) == getattr(want, name), name
    assert type(got.hits) is int


def weighted_squares(cells):
    """A statistic with many ties, so hits and misses both occur."""
    return float(sum((j % 3 + 1) * c * c for j, c in enumerate(cells)))


@st.composite
def two_way_fibers(draw):
    """A small two-way observation, possibly with structural zeros, and
    a move set that avoids them."""
    shape = (draw(st.integers(2, 3)), draw(st.integers(2, 3)))
    d = shape[0] * shape[1]
    zeros = draw(st.sets(st.integers(0, d - 1), max_size=2))
    cells = [0 if j in zeros else draw(st.integers(0, 3)) for j in range(d)]
    u = Table(tuple(cells), shape)
    if zeros:
        model = QuasiIndependence(shape, [unflatten_index(j, shape) for j in zeros])
        moves = cycle_moves(shape, zeros)
    else:
        model, moves = Independence(shape), basic_moves_two_way(shape)
    assume(len(moves))
    return fiber_spec_from_observation(model, u), u, moves


@settings(max_examples=60, deadline=None)
@given(
    two_way_fibers(),
    st.sampled_from(["moves-only", "sat-only", "alternating", "parallel-starts"]),
    st.integers(1, 5),
    st.integers(1, 3),
    st.integers(1, 120),
    st.booleans(),
    st.one_of(st.none(), st.integers(0, 3)),
    st.integers(0, 10**6),
)
def test_run_walk_matches_the_reference_walker(fiber, kind, period, walks, N, count_states,
                                               fail_at, seed):
    """Every field of the record equals the per-step walker's, across
    schedules, step counts off the period, state counting on and off,
    and a sampler that fails on its (fail_at + 1)-th call."""
    spec, u, moves = fiber
    schedule = make_schedule(kind, period, walks)

    def sampler():
        if fail_at is None:
            return InternalUniformSampler()
        return FailingSampler(per_call=3, calls=fail_at)

    got = run_walk(spec, u, schedule, moves, sampler(), N, weighted_squares, seed,
                   count_states=count_states)
    want = reference_walk(spec, u, schedule, moves, sampler(), N, weighted_squares, seed,
                          count_states=count_states)
    assert_same_record(got, want)


@pytest.mark.parametrize("case", sorted(GOLDEN_RECORDS))
def test_golden_runs_match_the_reference_walker(case):
    """The pinned runs, on the chi-square statistic, equal the per-step
    walker's."""
    assert_same_record(_golden_run(case), _golden_run(case, reference_walk))


def test_move_past_the_cell_bound_before_an_orthant_exit_is_a_self_loop(tmp_path):
    """A +-2 move from 2 0 0 2 first raises cell 0 to 4, past
    ``cell_value_bound`` (2), and only then takes cell 1 below zero: the
    proposal is a self-loop, not an index past the log-factorial table."""
    u = Table((2, 0, 0, 2), (2, 2))
    spec = fiber_spec_from_observation(Independence((2, 2)), u)
    assert cell_value_bound(spec) == 2
    path = tmp_path / "twos.txt"
    path.write_text("2 -2 -2 2\n")
    moves = load_basis(path, spec.matrix)
    rec = run_walk(spec, u, MovesOnly(), moves, None, 200, count_stat, seed=6, count_states=True)
    assert set(rec.state_counts) == {(2, 0, 0, 2), (0, 2, 2, 0)}
    assert not rec.accepted.all()
    assert_same_record(rec, reference_walk(spec, u, MovesOnly(), moves, None, 200, count_stat,
                                           seed=6, count_states=True))


def test_recording_memory_is_two_buffers_per_step():
    """Between N = 200k and N = 400k the run's peak grows by the float64
    p-sequence and the accepted flags (8 + 1 bytes a step), with under
    half a byte a step of slack: no per-step Python objects, growing
    buffers, stored step kinds or full-length temporaries."""
    sam = InternalUniformSampler()
    run_walk(SPEC, U0, Alternating(10), MOVES, sam, 100, count_stat, seed=1)  # fill the cache

    def peak(n):
        tracemalloc.start()
        try:
            rec = run_walk(SPEC, U0, Alternating(10), MOVES, sam, n, count_stat, seed=1)
            return tracemalloc.get_traced_memory()[1], rec
        finally:
            tracemalloc.stop()

    small, _ = peak(200_000)
    large, rec = peak(400_000)
    assert rec.steps == 400_000
    assert (large - small) / 200_000 <= 9.5


def test_short_walk_on_a_large_table_costs_what_its_steps_cost():
    """On a table of total 10^7 the cell bound is 5 * 10^6; a 1,000-step
    walk must not tabulate log-factorials that far (160 MB and over a
    second), so it stays within a few MB and well under a second."""
    u = Table((5_000_000, 0, 0, 5_000_000), (2, 2))
    spec = fiber_spec_from_observation(Independence((2, 2)), u)
    walk = (spec, u, MovesOnly(), MOVES, None, 1000, count_stat)
    start = time.perf_counter()
    rec = run_walk(*walk, seed=3)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        run_walk(*walk, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 2_000_000
    assert_same_record(rec, reference_walk(*walk, seed=3))


# -- the lane kernel: pooled batches stepped side by side, byte for byte


class OneTableSampler:
    """Every draw is one table, so D holds it alone and a pooled step
    fires only when the walk stands on it."""

    def __init__(self, table):
        self.table = table

    def sample(self, encoding, count, seed):
        return [self.table] * count


@settings(max_examples=80, deadline=None)
@given(
    two_way_fibers(),
    st.integers(2, 6),
    st.integers(1, 300),
    st.booleans(),
    st.sampled_from(["uniform", "one-table", "short", "fail"]),
    st.sampled_from([1, 3, 65_536]),
    st.sampled_from([1, 8, 30, 8192]),
    st.sampled_from([weighted_squares, "chi-square"]),
    st.integers(0, 10**6),
)
def test_lanes_match_the_reference_walker(fiber, period, N, count_states, source, cap, cells,
                                          stat, seed):
    """With every batch on lanes (groups of ``cells`` support cells a
    step, so from 1 unit up to the whole batch), the record
    equals the per-step walker's: when most pooled steps do not fire (D
    of 1 or 3 tables, or a sampler of one table), on short batches and
    on aborts, with state counts, and with hits from the hit cache or
    from ``ChiSquare.rows``."""
    spec, u, moves = fiber
    if stat == "chi-square":  # on fixed positive probabilities: small tables may have no MLE
        w = np.array([0.0 if j in spec.zero_set() else 1.0 + 0.35 * j for j in range(spec.d)])
        stat = ChiSquare(w / w.sum(), max(u.n, 1), spec.structural_zeros)

    def sampler():
        return {"uniform": InternalUniformSampler, "one-table": lambda: OneTableSampler(u),
                "short": lambda: FailingSampler(per_call=5, calls=10**9),
                "fail": lambda: FailingSampler(per_call=4, calls=2)}[source]()

    run = (spec, u, Alternating(period), moves)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walk_module, "_MIN_LANES", 1)
        mp.setattr(walk_module, "_LANE_CELLS", cells)
        mp.setattr(walk_module, "_POOL_CAP", cap)
        got = run_walk(*run, sampler(), N, stat, seed, count_states=count_states)
        want = reference_walk(*run, sampler(), N, stat, seed, count_states=count_states)
    assert_same_record(got, want)


@pytest.mark.parametrize("basis", ["basic", "markov"])
@pytest.mark.parametrize("period", [2, 5])
def test_lanes_on_n3f_supports_of_8_and_12_cells(basis, period):
    """The n3f basic moves touch 8 cells and the Markov basis 8 or 12, so
    lanes pad supports to a zero column; the records and state counts
    still equal the per-step walker's."""
    u = Table((1, 0, 2, 1, 1, 0, 0, 1, 1, 2, 0, 1, 0, 1, 1, 1, 0, 0,
               0, 2, 0, 1, 0, 1, 1, 0, 1), (3, 3, 3))
    spec = fiber_spec_from_observation(NoThreeWay(3), u)
    moves = basic_moves_n3f(3) if basis == "basic" else n3f_basis(3)
    assert {len(mv.support) for mv in moves} == ({8} if basis == "basic" else {8, 12})
    stat = ChiSquare(fit_loglinear(spec.matrix, u).pi, u.n)
    run = (spec, u, Alternating(period), moves, InternalUniformSampler(), 4000, stat)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walk_module, "_MIN_LANES", 1)
        got = run_walk(*run, seed=8, count_states=True)
        want = reference_walk(*run, seed=8, count_states=True)
    assert_same_record(got, want)


def test_long_pooled_runs_take_the_lanes_and_keep_the_scalar_record(monkeypatch):
    """At the default sizes a 20,000-step Alternating(10) run steps its
    batches on lanes, and its record equals the scalar loop's."""
    u = Table((8, 1, 0, 0, 0, 4, 1, 0, 0, 0, 3, 1, 0, 0, 0, 2), (4, 4))
    spec = fiber_spec_from_observation(Independence((4, 4)), u)
    stat = ChiSquare(fit_loglinear(spec.matrix, u).pi, u.n)
    run = (spec, u, Alternating(10), basic_moves_two_way((4, 4)), InternalUniformSampler(),
           20_000, stat, 3)
    groups = []
    lane_run = walk_module._Lanes.run
    monkeypatch.setattr(walk_module._Lanes, "run",
                        lambda self, *a: groups.append(len(a[2])) or lane_run(self, *a))
    got = run_walk(*run, count_states=True)
    assert sum(groups) == 2000 and min(groups) >= walk_module._MIN_LANES
    monkeypatch.setattr(walk_module, "_MIN_LANES", 10**9)
    assert_same_record(got, run_walk(*run, count_states=True))


def _exp_neighbours(s):
    """u = exp(s) by ``math.exp`` and ``np.exp`` and their two nearest
    floats on each side, within [0, 1)."""
    us = set()
    for e in (math.exp(min(s, 0.0)), float(np.exp(min(s, 0.0)))):
        for u in (e, math.nextafter(e, 0), math.nextafter(math.nextafter(e, 0), 0),
                  math.nextafter(e, 2), math.nextafter(math.nextafter(e, 2), 2), 0.0):
            if 0.0 <= u < 1.0:
                us.add(u)
    return sorted(us)


@pytest.mark.parametrize("s", [-745.2, -745.0, -744.0, -720.0, -708.4, -30.0, -3.7, -1.0,
                               -0.5, -1e-12, -1e-300, 0.0, 3.0, 800.0])
def test_lane_acceptance_at_exp_s_and_its_neighbours(s):
    """``_accepts`` decides ``s >= 0 or u < math.exp(s)`` bit for bit at
    u = exp(s) and its neighbours, down to the subnormal range."""
    us = _exp_neighbours(s)
    got = walk_module._accepts(np.full(len(us), s), np.array(us))
    assert got.tolist() == [s >= 0 or u < math.exp(s) for u in us]


def test_lane_acceptance_where_numpy_and_math_exp_differ():
    """Where ``np.exp`` and ``math.exp`` differ in the last bit, a
    uniform between them is decided by ``math.exp``."""
    s = -30 * np.random.default_rng(0).random(4000)
    # about 6% of these with numpy's own exp; none where both use one libm
    differ = [v for v in s.tolist() if float(np.exp(v)) != math.exp(v)]
    for v in differ[:200]:
        us = _exp_neighbours(v)
        got = walk_module._accepts(np.full(len(us), v), np.array(us))
        assert got.tolist() == [u < math.exp(v) for u in us]


# -- the pooled SAT step: exact kernels, the cap on D, and |D| on the record


def _criterion_04_fiber():
    """[[a, 3 - a], [3 - a, a]] for a = 0..3, its rho and its hits."""
    u = Table((0, 3, 3, 0), (2, 2))
    spec = fiber_spec_from_observation(Independence((2, 2)), u)
    enum = enumerate_fiber(spec)
    fiber, rho = list(enum), enum.rho()
    assert rho == reference_rho(fiber)
    stat = ChiSquare(fit_loglinear(spec.matrix, u).pi, u.n)
    cut = hit_cut(stat(u.cells))
    hits = np.array([stat(t.cells) >= cut for t in fiber])
    return fiber, np.array([rho[t.cells] for t in fiber]), hits


def move_kernel(fiber, rho, moves):
    """Basic-move Metropolis-Hastings: a uniform move and sign, a
    self-loop off the orthant, acceptance min(1, rho(v) / rho(u))."""
    index = {t.cells: i for i, t in enumerate(fiber)}
    P = np.zeros((len(fiber), len(fiber)))
    for i, t in enumerate(fiber):
        for mv in moves:
            for sign in (-1, 1):
                cells = list(t.cells)
                for j, dl in zip(mv.support, mv.deltas):
                    cells[j] += sign * dl
                if min(cells) >= 0:
                    k = index[tuple(cells)]
                    P[i, k] += min(1.0, rho[k] / rho[i]) / (2 * len(moves))
        P[i, i] += 1.0 - P[i].sum()
    return P


def pooled_kernel(rho, D):
    """K_D: from a state in D, a draw from rho on D; elsewhere, stay."""
    K = np.eye(len(rho))
    for i in D:
        K[i] = 0.0
        K[i, D] = rho[D] / rho[D].sum()
    return K


@pytest.mark.parametrize("n", [2, 10, 50])
def test_pooled_step_after_moves_keeps_rho_for_every_pool(n):
    """rho P^(n-1) K_D = rho for every nonempty D on criterion 04's
    fiber: each period of Alternating(n) keeps rho whatever D the
    sampler's draws made."""
    fiber, rho, _ = _criterion_04_fiber()
    assert rho * 20 == pytest.approx([1, 9, 9, 1], abs=1e-12)
    period = rho @ np.linalg.matrix_power(move_kernel(fiber, rho, MOVES), n - 1)
    for size in range(1, len(fiber) + 1):
        for D in itertools.combinations(range(len(fiber)), size):
            got = period @ pooled_kernel(rho, list(D))
            assert np.abs(got - rho).max() < 1e-12, D


def test_rho_only_independence_step_with_a_tilted_sampler_is_biased():
    """The sat-only kernel with the strength-2 tilted law q(v) ~ exp(2 v_0)
    and acceptance min(1, rho(v) / rho(u)) has a stationary p-value more
    than 0.02 from the exact 0.1: the bias criterion 04 simulates."""
    fiber, rho, hits = _criterion_04_fiber()
    assert rho[hits].sum() == pytest.approx(0.1, abs=1e-12)
    q = np.exp(2.0 * np.array([t.cells[0] for t in fiber]))
    q /= q.sum()
    K = q[None, :] * np.minimum(1.0, rho[None, :] / rho[:, None])
    np.fill_diagonal(K, 0.0)
    np.fill_diagonal(K, 1.0 - K.sum(axis=1))
    # the stationary law solves pi (K - I) = 0 with sum(pi) = 1
    A = np.vstack([(K - np.eye(len(fiber))).T, np.ones(len(fiber))])
    pi = np.linalg.lstsq(A, np.r_[np.zeros(len(fiber)), 1.0], rcond=None)[0]
    assert np.abs(pi @ K - pi).max() < 1e-12
    assert abs(pi[hits].sum() - 0.1) > 0.02


class RecordingSampler:
    """The uniform sampler's first ``per_call`` draws per call; keeps
    every batch it returns."""

    def __init__(self, per_call):
        self.inner = InternalUniformSampler()
        self.per_call = per_call
        self.batches = []

    def sample(self, encoding, count, seed):
        batch = self.inner.sample(encoding, count, seed)[: self.per_call]
        self.batches.append(batch)
        return batch


def test_pool_keeps_the_newest_tables_past_its_cap(monkeypatch):
    """With D capped at 40 tables of a 282-element fiber, the oldest
    tables leave D as new ones join, the sampler is still called once
    per batch of SAT steps, and the run equals the reference walker's."""
    monkeypatch.setattr(walk_module, "_POOL_CAP", 40)
    u = Table((1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 1), (4, 4))
    spec = fiber_spec_from_observation(Independence((4, 4)), u)
    moves = basic_moves_two_way((4, 4))
    run = (spec, u, Alternating(3), moves)
    sam = RecordingSampler(per_call=10)
    rec = run_walk(*run, sam, 3000, weighted_squares, seed=5)
    assert rec.pool_size == 40
    assert len({t.cells for batch in sam.batches for t in batch}) > 40
    assert rec.sat_steps == 1000 == 10 * len(sam.batches)
    assert_same_record(rec, reference_walk(*run, RecordingSampler(per_call=10), 3000,
                                           weighted_squares, seed=5))


def test_pool_below_a_component_still_crosses_a_disconnected_fiber(monkeypatch):
    """Criterion 09's fiber: two components of three tables that basic
    moves cannot join.  With D capped at two tables it never holds a
    whole component, yet D changes with every batch, so the walk visits
    all six tables and its p lands within 0.01 of the exact 1/12.  A D
    frozen at its first two tables strands this seed in one component
    (three tables visited, p off by 0.08)."""
    monkeypatch.setattr(walk_module, "_POOL_CAP", 2)
    zeros = [(0, 2), (1, 0), (2, 1)]
    zeros += [(i, j) for i in range(3) for j in (3, 4)]
    zeros += [(i, j) for i in (3, 4) for j in range(3)]
    cells = np.zeros((5, 5), dtype=int)
    cells[0, 0] = cells[1, 1] = cells[2, 2] = 1
    cells[3, 3] = cells[4, 4] = 2
    u = Table.from_array(cells)
    spec = fiber_spec_from_observation(QuasiIndependence((5, 5), tuple(zeros)), u)
    moves = basic_moves_two_way((5, 5), spec.zero_set())
    free = [j for j in range(25) if j not in spec.zero_set()]
    w = np.zeros(25)
    w[free] = 1.0 + 0.35 * np.arange(len(free))
    stat = ChiSquare(w / w.sum(), u.n, spec.structural_zeros)
    enum = enumerate_fiber(spec)
    exact = enum.rho()
    assert exact == reference_rho(list(enum))
    cut = hit_cut(stat(u.cells))
    p_exact = sum(p for c, p in exact.items() if stat(c) >= cut)
    assert p_exact == pytest.approx(1 / 12, abs=1e-12)
    rec = run_walk(spec, u, Alternating(10), moves, RecordingSampler(per_call=5), 40_000,
                   stat, seed=4244, count_states=True)
    assert rec.pool_size == 2
    assert set(rec.state_counts) == set(exact)
    assert abs(rec.p_final - p_exact) <= 0.01


def test_pool_size_is_the_distinct_draws_of_a_pooled_run():
    """``pool_size`` is |D| for the pooled step of Alternating(n >= 2)
    and 0 for every schedule without it."""
    u0 = Table((2, 1, 0, 1, 1, 1, 0, 1, 2), (3, 3))
    spec = fiber_spec_from_observation(Independence((3, 3)), u0)
    moves = basic_moves_two_way((3, 3))
    sam = RecordingSampler(per_call=7)
    rec = run_walk(spec, u0, Alternating(4), moves, sam, 400, count_stat, seed=2)
    assert rec.pool_size == len({t.cells for batch in sam.batches for t in batch})
    assert 0 < rec.pool_size < 55
    for schedule in (MovesOnly(), Alternating(1), ParallelStarts(4, 3)):
        rec = run_walk(spec, u0, schedule, moves, InternalUniformSampler(), 400, count_stat,
                       seed=2)
        assert rec.pool_size == 0, schedule


# -- the sampler feed: calls kept in flight, each one used


class StartingSampler:
    """``per_call`` uniform draws per call, however many were asked for,
    through ``start`` (when ``starts``) or ``sample``; counts the calls
    launched, taken and at most in flight at once."""

    def __init__(self, per_call, starts=True):
        self.inner = InternalUniformSampler()
        self.per_call = per_call
        self.launched = self.taken = self.in_flight = self.peak = 0
        if not starts:
            self.start = None

    def sample(self, encoding, count, seed):
        self.launched += 1
        self.taken += 1
        return self.inner.sample(encoding, self.per_call, seed)

    def start(self, encoding, count, seed):
        self.launched += 1
        self.in_flight += 1
        self.peak = max(self.peak, self.in_flight)

        def result():
            self.in_flight -= 1
            self.taken += 1
            return self.inner.sample(encoding, self.per_call, seed)

        return SimpleNamespace(result=result, close=lambda: None)


def sample_only(sampler):
    """A view of ``sampler`` without ``start``, as tracing wrappers are."""
    return SimpleNamespace(sample=sampler.sample)


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("per_call", [10_000, 8192, 6000, 700])
@pytest.mark.parametrize("period, N", [(1, 50_000), (2, 40_000), (10, 100_000)])
def test_calls_in_flight_stay_within_the_cpus_and_the_draws_needed(monkeypatch, cpus, per_call,
                                                                   period, N):
    """The run makes the sequential feed's calls, takes every call it
    launches, keeps no more in flight than the CPUs or the full batches
    the run needs, and records the same bytes; a call returning more
    than it was asked for serves as many SAT steps as it was asked for."""
    monkeypatch.setattr(walk_module, "_usable_cpus", lambda: cpus)
    u0 = Table((2, 1, 0, 1, 1, 1, 0, 1, 2), (3, 3))
    spec = fiber_spec_from_observation(Independence((3, 3)), u0)
    run = (spec, u0, Alternating(period), basic_moves_two_way((3, 3)))
    sequential = StartingSampler(per_call, starts=False)
    want = run_walk(*run, sequential, N, count_stat, seed=6)
    concurrent = StartingSampler(per_call)
    got = run_walk(*run, concurrent, N, count_stat, seed=6)
    need = N // period
    chunk = min(need, walk_module._CHUNK)
    calls = -(-need // min(per_call, chunk))
    assert sequential.launched == concurrent.launched == concurrent.taken == calls
    assert concurrent.in_flight == 0
    assert concurrent.peak == min(cpus, -(-need // chunk))  # as many as full batches need
    assert record_digest(got) == record_digest(want)


def test_parallel_starts_launches_one_batch_of_k(monkeypatch):
    monkeypatch.setattr(walk_module, "_usable_cpus", lambda: 4)
    sam = StartingSampler(per_call=8192)
    rec = run_walk(SPEC, U0, ParallelStarts(3, 5), MOVES, sam, 300, count_stat, seed=2)
    assert (sam.launched, sam.taken, sam.peak) == (1, 1, 1)
    assert rec.sat_steps == 5
    assert record_digest(rec) == record_digest(
        run_walk(SPEC, U0, ParallelStarts(3, 5), MOVES, sample_only(sam), 300, count_stat,
                 seed=2))


STUB = '''#!{python}
"""Prints COUNT - 1 uniform draws, by SEED, from the fiber's lines."""
import random, sys
cnf, count, seed = sys.argv[1:]
print("\\n".join(random.Random(int(seed)).choices({lines!r}, k=int(count) - 1)))
'''


def fiber_lines(spec):
    enc = encode_fiber(spec)
    return ["v " + " ".join(map(str, enc.encode_table(t))) + " 0" for t in enumerate_fiber(spec)]


def script(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    path.chmod(0o755)
    return path


@pytest.mark.parametrize("schedule", [Alternating(1), Alternating(2)], ids=repr)
def test_external_sampler_runs_as_its_sample_only_view_does(tmp_path, monkeypatch, schedule):
    """A run through ``ExternalSampler``, with its calls in flight side
    by side, records what the same run through ``sample`` alone does:
    three calls of 8,191 draws serve the 20,000 SAT steps either way."""
    monkeypatch.setattr(walk_module, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    stub = script(tmp_path, "stub.py", STUB.format(python=sys.executable, lines=fiber_lines(SPEC)))
    run = (SPEC, U0, schedule, MOVES)
    N = 20_000 * schedule.n
    direct = ExternalSampler(f"{stub} {{cnf}} {{count}} {{seed}}")
    got = run_walk(*run, direct, N, count_stat, seed=8)
    inner = ExternalSampler(f"{stub} {{cnf}} {{count}} {{seed}}")
    want = run_walk(*run, sample_only(inner), N, count_stat, seed=8)
    assert not got.aborted
    assert direct.calls == inner.calls == 3
    assert record_digest(got) == record_digest(want)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stub.py"]


HANGER = '''#!{python}
"""The first batch's call {first} once another call has written its
pid; every other call writes its pid and sleeps."""
import os, sys, time
cnf, count, seed = sys.argv[1:]
if int(seed) == {seed}:
    deadline = time.monotonic() + 20
    while not os.listdir({pids!r}) and time.monotonic() < deadline:
        time.sleep(0.01)
    if {fail}:
        sys.exit("first call fails")
    print("\\n".join([{line!r}] * int(count)))
    sys.exit()
with open(os.path.join({pids!r}, str(os.getpid())), "w") as f:
    f.write(cnf)
time.sleep(60)
'''


def stat_failing_at(cells):
    def stat(c):
        if c == cells:
            raise RuntimeError("statistic failed")
        return count_stat(c)
    return stat


@pytest.mark.parametrize("fail", [True, False], ids=["sampler-error", "walk-error"])
def test_an_abort_kills_the_calls_in_flight_and_removes_their_files(tmp_path, monkeypatch,
                                                                    fail):
    """The first batch's call fails, or its draws make the walk raise,
    while the second call still runs: the run returns or raises only
    after that call's process is gone and its files are removed."""
    monkeypatch.setattr(walk_module, "_usable_cpus", lambda: 2)
    tmp, pids = tmp_path / "tmp", tmp_path / "pids"
    tmp.mkdir()
    pids.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    other, line = next((t, line) for t, line in zip(enumerate_fiber(SPEC), fiber_lines(SPEC))
                       if t.cells != U0.cells)
    first = int(make_rng(3, 0).integers(SEED_BOUND))
    hanger = script(tmp_path, "hanger.py", HANGER.format(
        python=sys.executable, first="fails" if fail else "succeeds", seed=first, fail=fail,
        line=line, pids=str(pids)))
    sam = ExternalSampler(f"{hanger} {{cnf}} {{count}} {{seed}}")
    run = (SPEC, U0, Alternating(1), None, sam, 20_000)
    start = time.monotonic()
    if fail:
        rec = run_walk(*run, count_stat, seed=3)
        assert rec.aborted and "first call fails" in rec.abort_reason
    else:
        with pytest.raises(RuntimeError, match="statistic failed"):
            run_walk(*run, stat_failing_at(other.cells), seed=3)
    assert time.monotonic() - start < 30
    assert sam.calls == 2
    [pid] = pids.iterdir()  # the second call's process, running when the first ended
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid.name), 0)
    assert not os.path.exists(pid.read_text())  # its DIMACS file
    assert list(tmp.iterdir()) == []
