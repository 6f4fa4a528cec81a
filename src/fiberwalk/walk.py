"""Metropolis-Hastings on a fiber with move proposals, SAT proposals,
and the hybrid schedules combining them.

The target is rho(v) proportional to 1/(v_1! ... v_d!), the conditional
law of the table given its margins.  Markov-move proposals are
symmetric, and SAT draws are treated as independence proposals with
assumed-uniform law, so both step kinds share one acceptance ratio:

    r(u, v) = min{1, prod_i u_i! / v_i!}

evaluated from log-factorials tabulated once per run, or filled on
first use when the cell bound exceeds max(N, 2^16).  Each step records
whether its state is a hit: its statistic is at least
``hit_cut(observed)``, the observed value less a relative 1e-7 (the
rule exact enumeration uses, so ties up to rounding are hits).  The
hit flag travels with the state, so the hit cache is read only on
acceptance; the finished record turns hits into p_i = hits/i.  The
cut is computed once per run; ``RunRecord.threshold`` keeps the
observed value.

Schedules: MovesOnly, SatOnly, Alternating(n) (step t is a SAT-step
iff t mod n = 0) and ParallelStarts(n, k) (k sub-walks started from k
SAT draws; one sub-walk is chosen uniformly and advanced n move-steps
at a time; only move-steps count toward N, and the k initial draws are
the scheme's k SAT-steps).  The schedule alone fixes each step's kind,
so the record's kinds and step counts are derived from it, not counted.
Move steps run in one loop per run of them: n - 1 before each SAT step
of Alternating(n), then the tail; all N of MovesOnly; one run per pick
of ParallelStarts.

The walk draws from streams (iterators).  SAT proposals are sampler
batches, each seeded from the scheduler stream ``make_rng(seed, 0)``,
which also picks the ParallelStarts sub-walks.  Sub-walk w (1 for a
single walk) draws moves, signs and acceptance uniforms 8,192 at a time
from ``make_rng(seed, w)``: a uniform for each proposal in the orthant.
"""

from __future__ import annotations

import math
from itertools import chain
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .encode import CNFEncoding, cell_value_bound, encode_fiber
from .enumeration import (
    FULL_FIBER_CAP, enumerate_fiber, hit_cut, rho_weights,
)
from .models import FiberSpec, Table
from .moves import MoveSet
from .sampling import FiberSampler, SamplerError, make_rng

__all__ = [
    "MovesOnly",
    "SatOnly",
    "Alternating",
    "ParallelStarts",
    "Schedule",
    "SCHEDULE_KINDS",
    "make_schedule",
    "RunRecord",
    "run_walk",
    "connected_components_under_moves",
    "rho_distribution",
    "empirical_tv",
]

_CHUNK = 8192


@dataclass(frozen=True)
class MovesOnly:
    pass


@dataclass(frozen=True)
class SatOnly:
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


Schedule = Union[MovesOnly, SatOnly, Alternating, ParallelStarts]

SCHEDULE_KINDS = ("moves-only", "sat-only", "alternating", "parallel-starts")


def make_schedule(kind: str, period: int, walks: int) -> Schedule:
    """The schedule named ``kind``; ``period`` is n for alternating and
    parallel-starts, ``walks`` is k for parallel-starts."""
    if kind == "moves-only":
        return MovesOnly()
    if kind == "sat-only":
        return SatOnly()
    if kind == "alternating":
        return Alternating(period)
    if kind == "parallel-starts":
        return ParallelStarts(period, walks)
    raise ValueError(f"unknown schedule kind {kind!r}")


@dataclass
class RunRecord:
    """Everything a finished (or aborted) run produced.

    ``p_sequence[i]`` is the estimate after step i+1; ``accepted`` and
    ``proposal_kind`` (0 for move, 1 for SAT) are per recorded step.
    The schedule sets the kinds, so ``proposal_kind`` is built on read
    from ``_period``: with a period, step t was a SAT step iff the
    period divides t.  ``sat_steps`` counts consumed SAT proposals
    including the initial draws of ParallelStarts; ``move_steps``
    counts move proposals.  ``state_counts`` maps visited cell tuples
    to visit counts when requested.
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


def _proposals(
    sampler: FiberSampler, encoding: CNFEncoding, sched_rng, chunk: int
) -> Iterator[Table]:
    """SAT proposals, one sampler call per refill, each with a fresh
    seed from the scheduler stream.  A short batch is used as returned;
    only an empty one is retried, at most 16 times."""
    while True:
        for _ in range(16):
            batch = sampler.sample(encoding, chunk, int(sched_rng.integers(1 << 62)))
            if batch:
                break
        else:
            raise SamplerError("sampler repeatedly returned no valid elements")
        yield from batch


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
    log-weight, the run's log-factorial table ``lf``, and move and
    uniform streams drawn from the sub-walk's own generator."""

    __slots__ = ("cur", "cur_t", "hit", "logw", "lf", "moves", "unif")

    def __init__(self, start: Table, rng, signed: list | None, lf: list, rec: _Recorder):
        self.cur = list(start.cells)
        self.cur_t = start.cells
        self.hit = rec.hit(start.cells)
        self.logw = -sum(map(lf.__getitem__, start.cells))
        self.lf = lf
        self.moves = _moves(rng, signed)
        self.unif = _uniforms(rng)

    def move_steps(self, count: int, rec: _Recorder) -> None:
        """Advance by ``count`` move proposals in one frame."""
        cur, cur_t, hit, logw, lf = self.cur, self.cur_t, self.hit, self.logw, self.lf
        unif, exp = self.unif, math.exp
        p, flags, counts = rec.p, rec.flags, rec.counts
        first = rec.i
        for i, pairs in zip(range(first, first + count), self.moves):
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
                    logw += s  # log rho only shifts by the support terms
                    flags[i] = True
            p[i] = hit
            if counts is not None:
                counts[cur_t] = counts.get(cur_t, 0) + 1
        rec.i = first + count
        self.cur_t, self.hit, self.logw = cur_t, hit, logw

    def sat_step(self, proposal: Table, rec: _Recorder) -> None:
        p_cells = proposal.cells
        lw = -sum(map(self.lf.__getitem__, p_cells))
        s = lw - self.logw  # log rho(v) - log rho(u)
        u = next(self.unif)
        i = rec.i
        if s >= 0 or u < math.exp(s):
            self.cur, self.cur_t, self.logw = list(p_cells), p_cells, lw
            self.hit = rec.hit(p_cells)
            rec.flags[i] = True
        rec.p[i] = self.hit
        if rec.counts is not None:
            rec.counts[self.cur_t] = rec.counts.get(self.cur_t, 0) + 1
        rec.i = i + 1


def _check_moves(moves: MoveSet | None, spec: FiberSpec) -> list:
    """The move set's signed proposals, once it is known to fit the fiber."""
    if moves is None or not len(moves):
        raise ValueError("this schedule needs a non-empty move set")
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

    signed = None if isinstance(schedule, SatOnly) else _check_moves(moves, spec)
    # a support cell may pass the bound before a later one goes negative
    top = cell_value_bound(spec) + max((dl for mv in signed or () for _, dl in mv), default=0)
    # tabulate only when that costs no more than the walk's own steps
    lf = ([math.lgamma(c + 1) for c in range(top + 1)] if top <= max(N, 1 << 16)
          else _LogFactorials())
    # single walks: step t is a SAT step iff period divides t
    if isinstance(schedule, (MovesOnly, ParallelStarts)):
        period = 0
    else:
        period = 1 if isinstance(schedule, SatOnly) else schedule.n
    sched_rng = make_rng(seed, 0)
    feed = None
    if not isinstance(schedule, MovesOnly):
        if sampler is None:
            raise ValueError("this schedule needs a sampler")
        chunk = min(max(1, N // period), _CHUNK) if period else schedule.k
        feed = _proposals(sampler, encode_fiber(spec), sched_rng, chunk)
    rec = _Recorder(N, stat, threshold, count_states)

    if isinstance(schedule, ParallelStarts):
        k, n = schedule.k, schedule.n
        picks = sched_rng.integers(0, k, size=-(-N // n)).tolist()
        try:
            starts = [next(feed) for _ in range(k)]
        except SamplerError as exc:
            return _finish(rec, spec, u_obs, [], 0, 0, str(exc))
        walks = [_Walk(s, make_rng(seed, 1 + w), signed, lf, rec) for w, s in enumerate(starts)]
        for pick, done in zip(picks, range(0, N, n)):
            walks[pick].move_steps(min(n, N - done), rec)
        return _finish(rec, spec, u_obs, [w.cur_t for w in walks], 0, k, None)

    walk = _Walk(u_obs, make_rng(seed, 1), signed, lf, rec)
    reason = None
    try:
        # runs of period - 1 move steps, each followed by a SAT step
        for _ in range(N // period if period else 0):
            walk.move_steps(period - 1, rec)
            walk.sat_step(next(feed), rec)
        walk.move_steps(N % period if period else N, rec)
    except SamplerError as exc:
        reason = str(exc)
    return _finish(rec, spec, u_obs, [walk.cur_t], period, 0, reason)


def _finish(rec, spec, u_obs, final_cells, period, initial_draws, reason) -> RunRecord:
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
        _period=period,
    )


def connected_components_under_moves(spec: FiberSpec, moves: MoveSet) -> list[list[Table]]:
    """Partition the enumerated fiber into components of the move
    graph (u ~ v iff v = u +/- m for some move m)."""
    fiber = list(enumerate_fiber(spec, cap=FULL_FIBER_CAP).require_complete())
    index = {u.cells: i for i, u in enumerate(fiber)}
    parent = list(range(len(fiber)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for i, u in enumerate(fiber):
        for mv in moves:
            cells = list(u.cells)
            ok = True
            for j, dl in zip(mv.support, mv.deltas):
                nv = cells[j] + dl
                if nv < 0:
                    ok = False
                    break
                cells[j] = nv
            if not ok:
                continue
            target = index.get(tuple(cells))
            if target is not None:
                union(i, target)
    groups: dict[int, list[Table]] = {}
    for i, u in enumerate(fiber):
        groups.setdefault(find(i), []).append(u)
    return sorted(groups.values(), key=len, reverse=True)


def rho_distribution(fiber: Sequence[Table]) -> dict[tuple[int, ...], float]:
    """Normalized target rho(v) = (1/prod v_i!) / Z over an enumerated
    fiber, via log-sum-exp."""
    if not fiber:
        raise ValueError("empty fiber")
    ws = rho_weights(fiber)
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
