"""Metropolis-Hastings on a fiber with move proposals, SAT proposals,
and the hybrid schedules combining them.

The target is rho(v) proportional to 1/(v_1! ... v_d!), the conditional
law of the table given its margins.  Markov-move proposals are
symmetric and accepted with

    r(u, v) = min{1, prod_i u_i! / v_i!}

evaluated from log-factorials tabulated once per run, or filled on
first use when the cell bound exceeds max(N, 2^16).

SAT steps take one of two forms.  A schedule with move steps between
its SAT steps (Alternating(n), n >= 2) takes the pooled step: D holds
the distinct tables of the latest sampler batches (the newest
``_POOL_CAP`` of them), and a SAT step moves to a table drawn from rho
on D when the current table is in D, and stays otherwise.  For each D,
rho(u) K(u, v) = rho(u) rho(v) / rho(D) is symmetric, so the step keeps
rho; D and the draws depend on sampler output alone, never on the
chain, so every step keeps rho whatever the sampler's law.  That is
invariance, not convergence: the walk reaches all of the fiber only if
moves and pooled steps together connect it, which a Markov basis
ensures.  With an incomplete move set the walk crosses between
components only through a D that holds its current table and a table
of the other component; D changes with each batch, so a sampler that
keeps drawing every component keeps the walk moving, but slowly where
D is small against the fiber.  The step fires only when the current
table is in D, about |D| / |fiber| of the time for a uniform sampler,
so on a fiber far larger than D it seldom does.  Alternating(1), the
pure-SAT chain (``sat-only``), has no move steps, so it would not be
irreducible under the pooled step and keeps the independence step: the
draw is accepted with r(u, v) above, which is exact only for a uniform
sampler.

Each step records whether its state is a hit: its statistic is at
least ``hit_cut(observed)``, the observed value less a relative 1e-7
(the rule exact enumeration uses, so ties up to rounding are hits).
The hit flag travels with the state, so the hit cache is read only on
acceptance; the finished record turns hits into p_i = hits/i.  The cut
is computed once per run; ``RunRecord.threshold`` keeps the observed
value.

Schedules: MovesOnly, Alternating(n) (step t is a SAT-step iff
t mod n = 0; ``sat-only`` is Alternating(1)) and ParallelStarts(n, k)
(k sub-walks started from k SAT draws; one sub-walk is chosen
uniformly and advanced n move-steps at a time; only move-steps count
toward N, and the k initial draws are the scheme's k SAT-steps).
ParallelStarts never redraws its starts, so its sub-walks are weighted
by the sampler's law, not by rho.  The schedule alone fixes each
step's kind, so the record's kinds and step counts are derived from
it, not counted.  Every schedule with SAT steps after the start runs
one loop per sampler batch, whose draws feed the SAT step it takes
(see above), then the tail; MovesOnly runs all N steps in one loop,
ParallelStarts one run per pick.

The walk draws from streams (iterators).  Sampler batches are each
seeded from the scheduler stream ``make_rng(seed, 0)``, which also
draws the pooled steps' picks (one call per batch, after the batch
joins D) and picks the ParallelStarts sub-walks.  A batch of ``chunk``
draws serves ``chunk`` SAT steps.  Sub-walk w (1 for a single walk) draws moves, signs and
acceptance uniforms 8,192 at a time from ``make_rng(seed, w)``: a
uniform for each proposal in the orthant and each independence step.
"""

from __future__ import annotations

import math
from itertools import chain
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .encode import CNFEncoding, cell_value_bound, encode_fiber
from .enumeration import (
    FULL_FIBER_CAP, enumerate_fiber, hit_cut, log_rho_rows, normalized_exp, rho_weights,
)
from .models import FiberSpec, Table
from .moves import MoveSet
from .sampling import SEED_BOUND, FiberSampler, SamplerError, make_rng

__all__ = [
    "MovesOnly",
    "Alternating",
    "ParallelStarts",
    "Schedule",
    "SCHEDULE_KINDS",
    "make_schedule",
    "takes_move_steps",
    "RunRecord",
    "run_walk",
    "connected_components_under_moves",
    "rho_distribution",
    "empirical_tv",
]

_CHUNK = 8192
_POOL_CAP = 65_536  # distinct tables the pooled SAT step keeps in D


@dataclass(frozen=True)
class MovesOnly:
    pass


@dataclass(frozen=True)
class Alternating:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("period n must be >= 1")


@dataclass(frozen=True)
class ParallelStarts:
    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("n and k must be >= 1")


Schedule = Union[MovesOnly, Alternating, ParallelStarts]

SCHEDULE_KINDS = ("moves-only", "sat-only", "alternating", "parallel-starts")


def make_schedule(kind: str, period: int, walks: int) -> Schedule:
    """The schedule named ``kind``; ``period`` is n for alternating and
    parallel-starts, ``walks`` is k for parallel-starts.  ``sat-only``
    is Alternating(1), a SAT step at every step."""
    if kind == "moves-only":
        return MovesOnly()
    if kind == "sat-only":
        return Alternating(1)
    if kind == "alternating":
        return Alternating(period)
    if kind == "parallel-starts":
        return ParallelStarts(period, walks)
    raise ValueError(f"unknown schedule kind {kind!r}")


def takes_move_steps(schedule: Schedule) -> bool:
    """False for Alternating(1) (``sat-only``) alone, which proposes no moves."""
    return schedule != Alternating(1)


@dataclass
class RunRecord:
    """Everything a finished (or aborted) run produced.

    ``p_sequence[i]`` is the estimate after step i+1; ``accepted`` and
    ``proposal_kind`` (0 for move, 1 for SAT) are per recorded step;
    a pooled SAT step is accepted when it fired, that is, when the
    current table was in D.
    The schedule sets the kinds, so ``proposal_kind`` is built on read
    from ``_period``: with a period, step t was a SAT step iff the
    period divides t.  ``sat_steps`` counts consumed SAT proposals
    including the initial draws of ParallelStarts; ``move_steps``
    counts move proposals.  ``state_counts`` maps visited cell tuples
    to visit counts when requested.  ``pool_size`` is |D| at the end of
    the run, 0 for a schedule without the pooled step.
    """

    p_sequence: np.ndarray
    accepted: np.ndarray
    hits: int
    steps: int
    sat_steps: int
    move_steps: int
    threshold: float
    finals: tuple[Table, ...]
    state_counts: dict[tuple[int, ...], int] | None = None
    aborted: bool = False
    abort_reason: str | None = None
    pool_size: int = 0
    _period: int = field(default=0, repr=False)  # 0: no SAT steps after the start

    @property
    def p_final(self) -> float:
        if self.steps == 0:
            return math.nan
        return float(self.p_sequence[self.steps - 1])

    @property
    def proposal_kind(self) -> np.ndarray:
        """uint8 per step: 0 move, 1 SAT."""
        kind = np.zeros(self.steps, dtype=np.uint8)
        if self._period:
            kind[self._period - 1::self._period] = 1
        return kind


class _Recorder:
    """The run's two N-length buffers and their memoryviews: ``p_seq``
    holds each step's hit (0.0 or 1.0) until ``_finish`` makes it p_i,
    ``acc`` the accepted flags."""

    __slots__ = ("p_seq", "acc", "p", "flags", "i", "stat", "threshold", "cut", "hit_cache",
                 "counts")

    def __init__(self, n: int, stat, threshold: float, count_states: bool):
        self.p_seq = np.empty(n, dtype=np.float64)
        self.acc = np.zeros(n, dtype=np.bool_)
        self.p = memoryview(self.p_seq)
        self.flags = memoryview(self.acc)
        self.i = 0
        self.stat = stat
        self.threshold = threshold
        self.cut = hit_cut(threshold)
        self.hit_cache: dict[tuple[int, ...], float] = {}
        self.counts: dict[tuple[int, ...], int] | None = {} if count_states else None

    def hit(self, cells: tuple[int, ...]) -> float:
        hit = self.hit_cache.get(cells)
        if hit is None:
            hit = self.hit_cache[cells] = 1.0 if self.stat(cells) >= self.cut else 0.0
        return hit


class _LogFactorials(dict):
    """lgamma(c + 1) by cell value c, computed on first use."""

    def __missing__(self, c: int) -> float:
        v = self[c] = math.lgamma(c + 1)
        return v


def _batches(
    sampler: FiberSampler, encoding: CNFEncoding, sched_rng, chunk: int
) -> Iterator[list[Table]]:
    """Sampler batches, one call each, each with a fresh seed from the
    scheduler stream.  A short batch is used as returned; only an empty
    one is retried, at most 16 times."""
    while True:
        for _ in range(16):
            batch = sampler.sample(encoding, chunk, int(sched_rng.integers(SEED_BOUND)))
            if batch:
                break
        else:
            raise SamplerError("sampler repeatedly returned no valid elements")
        yield batch


class _Pool:
    """D, the distinct tables of the latest sampler batches, oldest
    first: ``index`` for membership (a dict with no values, half the
    size of a set), their cells in order of arrival, their log-weights
    in one float64 array and rho restricted to D.  Past ``_POOL_CAP``
    tables the oldest leave D as new ones join."""

    __slots__ = ("index", "cells", "logw", "probs")

    def __init__(self):
        self.index: dict[tuple[int, ...], None] = {}
        self.cells: list[tuple[int, ...]] = []
        self.logw = self.probs = np.empty(0)

    def add(self, batch: list[Table], rng: np.random.Generator) -> memoryview:
        """Add the batch's tables that D lacks, drop the oldest past the
        cap, renormalize rho on D, and draw the batch's picks, one pool
        index per table, from rho on the new D; the memoryview yields
        them as ints without a list of them."""
        index, cells, new = self.index, self.cells, []
        for t in batch:
            c = t.cells
            if c not in index:
                index[c] = None
                cells.append(c)
                new.append(c)
        if new:
            self.logw = np.concatenate((self.logw, log_rho_rows(np.array(new))))
            drop = len(cells) - _POOL_CAP
            if drop > 0:
                for c in cells[:drop]:
                    del index[c]
                del cells[:drop]
                self.logw = self.logw[drop:]
            self.probs = normalized_exp(self.logw)
        return memoryview(rng.choice(len(cells), size=len(batch), p=self.probs))


def _moves(rng: np.random.Generator, signed: list) -> Iterator[tuple]:
    """Uniform move proposals: ``signed[2k + b]`` is move k's (cell,
    delta) pairs with its deltas negated (b = 0) or as given (b = 1)."""

    def chunk():
        picks = rng.integers(0, len(signed) // 2, size=_CHUNK)
        return map(signed.__getitem__, (2 * picks + rng.integers(0, 2, size=_CHUNK)).tolist())

    return chain.from_iterable(iter(chunk, None))


def _uniforms(rng: np.random.Generator) -> Iterator[float]:
    return chain.from_iterable(iter(lambda: rng.random(_CHUNK).tolist(), None))


class _Walk:
    """One sub-walk: its cells as a mutable list and a tuple, hit flag,
    the run's log-factorial table ``lf``, and move and uniform streams
    drawn from the sub-walk's own generator."""

    __slots__ = ("cur", "cur_t", "hit", "lf", "moves", "unif")

    def __init__(self, start: Table, rng, signed: list | None, lf: list, rec: _Recorder):
        self.cur = list(start.cells)
        self.cur_t = start.cells
        self.hit = rec.hit(start.cells)
        self.lf = lf
        self.moves = _moves(rng, signed)
        self.unif = _uniforms(rng)

    def steps(self, count: int, rec: _Recorder, period: int = 0, draws: Sequence = (),
              pool: _Pool | None = None) -> None:
        """Advance by ``count`` steps in one frame: move proposals, and
        with a period, a SAT step at every period-th step on the next of
        ``draws``.  With a pool, a draw is a pool index, moved to when
        the current table is in D; without one, a sampler table accepted
        with r(u, v), at period 1 only, so no move step comes between."""
        cur, cur_t, hit, lf = self.cur, self.cur_t, self.hit, self.lf
        moves, unif, exp = self.moves, self.unif, math.exp
        p, flags, counts = rec.p, rec.flags, rec.counts
        i, end = rec.i, rec.i + count
        run = period - 1 if period else count  # move steps before each SAT step
        draws = iter(draws)
        if pool is not None:
            index, tables = pool.index, pool.cells
        elif period:
            logw = -sum(map(lf.__getitem__, cur_t))  # log rho(u), up to the constant
        while True:
            stop = i + run
            if stop > end:
                stop = end
            if run:
                for i, pairs in zip(range(i, stop), moves):
                    s = 0.0
                    for j, dl in pairs:
                        c = cur[j]
                        nv = c + dl
                        if nv < 0:
                            break  # off the orthant: a self-loop, no uniform drawn
                        s += lf[c] - lf[nv]
                    else:
                        # s >= 0 first: math.exp overflows above 709
                        u = next(unif)
                        if s >= 0 or u < exp(s):
                            for j, dl in pairs:
                                cur[j] += dl
                            cur_t = tuple(cur)
                            hit = rec.hit(cur_t)
                            flags[i] = True
                    p[i] = hit
                    if counts is not None:
                        counts[cur_t] = counts.get(cur_t, 0) + 1
            if stop == end:
                break
            # the SAT step at index stop
            if pool is not None:
                k = next(draws)
                if cur_t in index:
                    cur_t = tables[k]
                    cur = list(cur_t)
                    hit = rec.hit(cur_t)
                    flags[stop] = True
            else:
                v = next(draws).cells
                lw = -sum(map(lf.__getitem__, v))
                s = lw - logw  # log rho(v) - log rho(u)
                u = next(unif)
                if s >= 0 or u < exp(s):
                    cur_t, logw = v, lw
                    cur = list(v)
                    hit = rec.hit(v)
                    flags[stop] = True
            p[stop] = hit
            if counts is not None:
                counts[cur_t] = counts.get(cur_t, 0) + 1
            i = stop + 1
        rec.i = end
        self.cur, self.cur_t, self.hit = cur, cur_t, hit


def _signed_moves(moves: MoveSet, spec: FiberSpec) -> list:
    """The move set's proposals as (cell, delta) pairs, each move
    negated and as given, once the set is known to fit the fiber."""
    if moves.d != spec.d:
        raise ValueError(f"moves are on {moves.d} cells, fiber has {spec.d}")
    zeros = spec.zero_set()
    for k, mv in enumerate(moves):
        if any(j in zeros for j in mv.support):
            raise ValueError(f"move {k} touches a structural zero cell")
    return [tuple(zip(mv.support, [sign * dl for dl in mv.deltas]))
            for mv in moves for sign in (-1, 1)]


def run_walk(
    spec: FiberSpec,
    u_obs: Table,
    schedule: Schedule,
    moves: MoveSet | None,
    sampler: FiberSampler | None,
    N: int,
    stat: Callable[[tuple[int, ...]], float],
    seed: int,
    count_states: bool = False,
) -> RunRecord:
    """Run Metropolis-Hastings for N recorded steps under a schedule.

    The observed table is the starting state (except for
    ParallelStarts, whose sub-walks start at their SAT draws).  Returns
    the full running p-sequence; a SAT source failing mid-run aborts
    with a partial record flagged rather than raising.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not spec.contains(u_obs):
        raise ValueError("observed table is not in the fiber")
    threshold = float(stat(u_obs.cells))

    moving = takes_move_steps(schedule)
    if moving and not moves:  # None or empty
        raise ValueError("this schedule needs a non-empty move set")
    signed = _signed_moves(moves, spec) if moving else None
    # a support cell may pass the bound before a later one goes negative
    top = cell_value_bound(spec) + max((dl for mv in signed or () for _, dl in mv), default=0)
    # tabulate only when that costs no more than the walk's own steps
    lf = ([math.lgamma(c + 1) for c in range(top + 1)] if top <= max(N, 1 << 16)
          else _LogFactorials())
    # single walks: step t is a SAT step iff period divides t
    period = schedule.n if isinstance(schedule, Alternating) else 0
    sched_rng = make_rng(seed, 0)
    batches = None
    if not isinstance(schedule, MovesOnly):
        if sampler is None:
            raise ValueError("this schedule needs a sampler")
        chunk = min(max(1, N // period), _CHUNK) if period else schedule.k
        batches = _batches(sampler, encode_fiber(spec), sched_rng, chunk)
    rec = _Recorder(N, stat, threshold, count_states)

    if isinstance(schedule, ParallelStarts):
        k, n = schedule.k, schedule.n
        picks = sched_rng.integers(0, k, size=-(-N // n)).tolist()
        feed = chain.from_iterable(batches)
        try:
            starts = [next(feed) for _ in range(k)]
        except SamplerError as exc:
            return _finish(rec, spec, u_obs, [], 0, 0, str(exc))
        walks = [_Walk(s, make_rng(seed, 1 + w), signed, lf, rec) for w, s in enumerate(starts)]
        for pick, done in zip(picks, range(0, N, n)):
            walks[pick].steps(min(n, N - done), rec)
        return _finish(rec, spec, u_obs, [w.cur_t for w in walks], 0, k, None)

    walk = _Walk(u_obs, make_rng(seed, 1), signed, lf, rec)
    # move steps between SAT steps take the pooled step, none the independence step
    pool = _Pool() if period > 1 else None
    reason = None
    try:
        left = N // period if period else 0
        while left:  # one batch of SAT steps, and the move steps before each
            try:
                draws = next(batches)
            except SamplerError:
                walk.steps(period - 1, rec)  # the moves before the SAT step that failed
                raise
            if pool is not None:
                draws = pool.add(draws, sched_rng)
            draws = draws[:left]
            walk.steps(len(draws) * period, rec, period, draws, pool)
            left -= len(draws)
        walk.steps(N % period if period else N, rec)
    except SamplerError as exc:
        reason = str(exc)
    return _finish(rec, spec, u_obs, [walk.cur_t], period, 0, reason,
                   len(pool.cells) if pool else 0)


def _finish(rec, spec, u_obs, final_cells, period, initial_draws, reason,
            pool_size=0) -> RunRecord:
    """The record of ``rec.i`` steps; with a period, step t was a SAT
    step iff period divides t.  A run that aborted at SAT step t stopped
    after t - 1 steps, so the counts hold for aborted runs too.  The hits
    in ``p_seq`` become p_i = hits_i / i in place, by chunks; counts are
    exact in float64, so each quotient has the bits of int / int."""
    steps = rec.i
    hits = 0.0
    for a in range(0, steps, _CHUNK):
        part = rec.p_seq[a:min(a + _CHUNK, steps)]
        np.cumsum(part, out=part)
        part += hits
        hits = float(part[-1])
        part /= np.arange(a + 1, a + 1 + len(part), dtype=np.float64)
    sat = steps // period if period else 0
    finals = tuple(Table(cells=c, shape=spec.shape) for c in final_cells)
    return RunRecord(
        p_sequence=rec.p_seq[:steps],
        accepted=rec.acc[:steps],
        hits=int(hits),
        steps=steps,
        sat_steps=initial_draws + sat,
        move_steps=steps - sat,
        threshold=rec.threshold,
        finals=finals or (u_obs,),
        state_counts=rec.counts,
        aborted=reason is not None,
        abort_reason=reason,
        pool_size=pool_size,
        _period=period,
    )


def connected_components_under_moves(spec: FiberSpec, moves: MoveSet) -> list[list[Table]]:
    """Partition the enumerated fiber into components of the move
    graph (u ~ v iff v = u +/- m for some move m).  The moves must fit
    the fiber as ``run_walk`` requires; with none, each element is its
    own component."""
    # a union is symmetric, so each move as given finds every edge
    signed = _signed_moves(moves, spec)[1::2]
    fiber = list(enumerate_fiber(spec, cap=FULL_FIBER_CAP).require_complete())
    index = {u.cells: i for i, u in enumerate(fiber)}
    parent = list(range(len(fiber)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, u in enumerate(fiber):
        for pairs in signed:
            cells = list(u.cells)
            for j, dl in pairs:
                cells[j] += dl
            target = index.get(tuple(cells))  # None off the orthant too
            if target is not None:
                parent[find(target)] = find(i)
    groups: dict[int, list[Table]] = {}
    for i, u in enumerate(fiber):
        groups.setdefault(find(i), []).append(u)
    return sorted(groups.values(), key=len, reverse=True)


def rho_distribution(fiber: Sequence[Table]) -> dict[tuple[int, ...], float]:
    """Normalized target rho(v) = (1/prod v_i!) / Z over an enumerated
    fiber, via log-sum-exp."""
    if not fiber:
        raise ValueError("empty fiber")
    ws = rho_weights(np.array([u.cells for u in fiber]))
    z = sum(ws)
    return {u.cells: w / z for u, w in zip(fiber, ws)}


def empirical_tv(
    counts: dict[tuple[int, ...], int], probs: dict[tuple[int, ...], float]
) -> float:
    """Total variation between empirical visit counts and a reference
    distribution on the same (finite) space."""
    total = sum(counts.values())
    if total == 0:
        raise ValueError("no visits recorded")
    tv = 0.0
    for cells, p in probs.items():
        tv += abs(counts.get(cells, 0) / total - p)
    for cells, c in counts.items():
        if cells not in probs:
            tv += c / total
    return 0.5 * tv
