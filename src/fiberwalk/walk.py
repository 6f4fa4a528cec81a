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
pure-SAT chain (``sat-only``), keeps the independence step: the draw is
accepted with r(u, v) above, which is exact only for a uniform sampler.
A pooled step at period 1 would keep rho too, as D grows, but a chain
of pooled steps alone mixes only as fast as D covers the fiber: on a
9,904-table no-three-way fiber with a biased sampler (3 seeds, N = 2e5)
its p was off by 0.015-0.18 where the independence step's was off by
0.05-0.06.

Each step records whether its state is a hit: its statistic is at
least ``hit_cut(observed)``, the observed value less a relative 1e-7
(the rule exact enumeration uses, so ties up to rounding are hits).
The hit flag travels with the state, so the statistic is read only on
acceptance, through the hit cache (on lanes, through ``stat.rows``
where the statistic has it); the finished record turns hits into
p_i = hits/i.  The cut is computed once per run;
``RunRecord.threshold`` keeps the observed value.

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

The walk draws from streams.  The scheduler stream ``make_rng(seed,
0)`` gives each sampler batch its seed and, for the pooled step, the
``chunk`` uniforms drawn right after that seed, however short the
batch: its picks map its first len(batch) uniforms through the inverse
CDF of rho on D, as ``Generator.choice`` would.  ParallelStarts draws
its sub-walk picks from that stream before its first batch.  A batch
holds at most ``chunk`` draws and serves as many SAT steps; an empty one
moves on to the next batch's seed.  A batch's seed and uniforms are
fixed when it is launched, so a sampler with ``start`` runs the calls
the run will use side by side (see ``_batches``) and the record does not
depend on how many ran at once.  Sub-walk w (1 for a single walk) draws
from ``make_rng(seed, w)``: each block of 8,192 move steps draws its
move picks, its signs and its acceptance uniforms, in that order, and
move step t of the sub-walk uses entry t mod 8,192 of block t // 8,192,
whether or not its proposal leaves the orthant (``_MoveDraws``).  The
independence steps of Alternating(1) draw one uniform each, 8,192 at a
time.  So the randomness of every move step is fixed by its index
alone, whatever came before it.

That makes the pooled schedule a set of independent runs.  A pooled
step that fires moves to its pick whatever the current table, so it is
a regeneration point of the chain (Mykland, Tierney & Yu 1995): given
their start tables, the move runs between pooled steps do not depend on
each other.  ``_Lanes`` takes every pooled step.  With tabulated
log-factorials it steps the units of a batch (n - 1 move steps, then
the pooled step on pick j) side by side as the rows of one narrow int
array, unit 0 from the table the walk holds and unit j from pick j - 1,
in groups of at most 2,048 units of 4-cell moves, and checks which
pooled steps fired by exact keys of the end tables against D's.  Each
unit after one that did not fire runs again in the scalar loop, on the
same randomness, from the table the walk then holds, and takes its
pooled step inline; without tabulated log-factorials every unit runs
so.  Every lane step sums its log-weight terms in the scalar loop's
order and decides acceptance with ``math.exp`` wherever ``np.exp``
could differ, so the record equals the one-at-a-time walk's byte for
byte.  The scalar loop takes only move steps and the independence steps
of Alternating(1).
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .encode import CNFEncoding, cell_value_bound, encode_fiber
from .enumeration import FULL_FIBER_CAP, enumerate_fiber, hit_cut, log_rho_rows, normalized_exp
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
    "empirical_tv",
]

_CHUNK = 8192
_POOL_CAP = 65_536  # distinct tables the pooled SAT step keeps in D
# a lane group steps at most 8,192 support cells at once (2,048 units of
# 4-cell moves) and holds at most 65,536 move steps
_LANE_CELLS = 8192
_LANE_STEPS = 1 << 16


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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _batches(sampler: FiberSampler, encoding: CNFEncoding, sched_rng, chunk: int, need: int,
             reserve: bool) -> Iterator[tuple[list[Table], np.ndarray | None]]:
    """Sampler batches of at most ``chunk`` draws, one call each, each
    with a fresh seed from the scheduler stream, and with ``reserve``
    the ``chunk`` uniforms drawn right after that seed for its pooled
    picks.  A short batch is used as returned; an empty one moves on to
    the next batch, and 16 empty batches in a row are an error.

    A sampler with ``start`` keeps the next calls running while earlier
    ones are taken: at most one per usable CPU, and only while the draws
    received and those asked of untaken calls fall short of ``need``, the
    draws the run uses, so every launched call is used.  Other samplers
    are called in order as each batch is taken.  Closing the feed kills
    the calls still in flight."""
    start = getattr(sampler, "start", None)
    width = _usable_cpus() if start else 1
    pending: deque = deque()  # (call, uniforms), oldest first
    received = empty = 0
    try:
        while True:
            while len(pending) < width and (not pending or received + chunk * len(pending) < need):
                seed = int(sched_rng.integers(SEED_BOUND))
                uniforms = sched_rng.random(chunk) if reserve else None
                call = (start(encoding, chunk, seed) if start
                        else partial(sampler.sample, encoding, chunk, seed))
                pending.append((call, uniforms))
            call, uniforms = pending.popleft()
            batch = (call.result() if start else call())[:chunk]
            received += len(batch)
            if batch:
                empty = 0
                yield batch, uniforms
            else:
                empty += 1
                if empty == 16:
                    raise SamplerError("sampler repeatedly returned no valid elements")
    finally:
        if start:
            for call, _ in pending:
                call.close()


class _Pool:
    """D, the distinct tables of the latest sampler batches, oldest
    first: their cells as the rows of one array, in order of arrival,
    their log-weights in one float64 array and rho restricted to D.
    Past ``_POOL_CAP`` tables the oldest leave D as new ones join.

    D answers membership two ways: ``index``, a dict of cell tuples with
    no values (half the size of a set), for one table at a time, and
    ``keys``, the exact keys of the rows, sorted, for many at once
    (``contains``).  The rows are in the narrowest int dtype that holds
    every cell a move reaches, or Python ints past int64."""

    __slots__ = ("index", "logw", "cdf", "rows", "powers", "keys")

    def __init__(self, dtype, bound: int, d: int):
        self.index: dict[tuple[int, ...], None] = {}
        self.logw = self.cdf = np.empty(0)
        self.rows = np.empty((0, d), dtype)
        # a key is the cells as the digits of one int in base bound + 1:
        # an int64 when every table's fits, a Python int for Python-int
        # rows, and the row's bytes otherwise
        base = bound + 1
        if base ** d < 1 << 63:
            self.powers = base ** np.arange(d, dtype=np.int64)
        elif dtype is object:
            self.powers = np.array([base ** k for k in range(d)], dtype=object)
        else:
            self.powers = None
        self.keys = self._key(self.rows)

    def add(self, batch: list[Table], uniforms: np.ndarray) -> np.ndarray:
        """Add the batch's tables that D lacks, drop the oldest past the
        cap, renormalize rho on D, and map the batch's first len(batch)
        uniforms to its picks, one row of D per table, by the inverse
        CDF of rho on the new D, as ``Generator.choice`` would map them."""
        index, new = self.index, []
        for t in batch:
            c = t.cells
            if c not in index:
                index[c] = None
                new.append(c)
        if new:
            new = np.array(new, dtype=self.rows.dtype)
            self.logw = np.concatenate((self.logw, log_rho_rows(new)))
            self.rows = np.concatenate((self.rows, new))
            new = np.sort(self._key(new))
            self.keys = np.insert(self.keys, self.keys.searchsorted(new), new)
            drop = len(self.rows) - _POOL_CAP
            if drop > 0:
                gone = self.rows[:drop]
                for c in map(tuple, gone.tolist()):
                    del index[c]
                self.keys = np.delete(self.keys, self.keys.searchsorted(self._key(gone)))
                self.rows, self.logw = self.rows[drop:], self.logw[drop:]
            self.cdf = normalized_exp(self.logw).cumsum()
            self.cdf /= self.cdf[-1]
        return self.cdf.searchsorted(uniforms[:len(batch)], side="right")

    def _key(self, rows: np.ndarray) -> np.ndarray:
        if self.powers is not None:
            return rows @ self.powers
        rows = np.ascontiguousarray(rows)
        return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()

    def contains(self, rows: np.ndarray) -> np.ndarray:
        """Whether each row of a (k, d) cell array is a table of D, by a
        binary search of its exact key among D's."""
        keys = self._key(rows)
        at = np.minimum(self.keys.searchsorted(keys), len(self.keys) - 1)
        return self.keys[at] == keys


class _MoveDraws:
    """A sub-walk's move-step randomness.  Each block of ``_CHUNK`` move
    steps draws its move picks, its signs and its acceptance uniforms
    from the sub-walk's generator, in that order, and move step t of the
    sub-walk uses entry t mod ``_CHUNK`` of block t // ``_CHUNK``,
    whether or not its proposal leaves the orthant.  So the randomness
    of every move step is fixed before the walk reaches it.  Index
    2k + b of a block's moves is ``signed[2k + b]``, move k's (cell,
    delta) pairs with its deltas negated (b = 0) or as given (b = 1)."""

    __slots__ = ("rng", "signed", "idx", "u", "pos")

    def __init__(self, rng: np.random.Generator, signed: list | None):
        self.rng, self.signed = rng, signed
        self.pos = _CHUNK  # no block drawn yet

    def _piece(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The next at most ``count`` move steps, up to a block's end."""
        if self.pos == _CHUNK:
            rng = self.rng
            picks = rng.integers(0, len(self.signed) // 2, size=_CHUNK)
            self.idx = 2 * picks + rng.integers(0, 2, size=_CHUNK)
            self.u = rng.random(_CHUNK)
            self.pos = 0
        a = self.pos
        self.pos = b = min(a + count, _CHUNK)
        return self.idx[a:b], self.u[a:b]

    def take(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The signed-move indices and uniforms of the next ``count``
        move steps, as two arrays."""
        parts = []
        while count:
            parts.append(self._piece(count))
            count -= len(parts[-1][0])
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate(column) for column in zip(*parts))

    def proposals(self, idx: np.ndarray, u: np.ndarray) -> Iterator[tuple]:
        """(signed move, uniform) of each move step of two arrays."""
        return zip(map(self.signed.__getitem__, idx.tolist()), u.tolist())

    def pairs(self, count: int) -> Iterator[tuple]:
        """``proposals`` of the next ``count`` move steps, drawn a block
        at a time as they are consumed."""

        def pieces(count):
            while count:
                idx, u = self._piece(count)
                count -= len(idx)
                yield self.proposals(idx, u)

        return chain.from_iterable(pieces(count))


def _uniforms(rng: np.random.Generator) -> Iterator[float]:
    return chain.from_iterable(iter(lambda: rng.random(_CHUNK).tolist(), None))


def _accepts(s: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``s >= 0 or u < math.exp(s)`` lane by lane, for uniforms u in
    [0, 1), which np.exp(min(s, 0)) = 1 accepts for s >= 0.  ``np.exp``
    can differ from ``math.exp`` in the last bit, so a lane whose u lies
    within 4 ulps of ``np.exp`` is decided by ``math.exp``."""
    e = np.exp(np.minimum(s, 0.0))
    gap = u - e
    out = gap < 0
    for k in np.flatnonzero(np.abs(gap) <= 4 * np.spacing(e)).tolist():
        out[k] = s[k] >= 0 or u[k] < math.exp(s[k])
    return out


class _Walk:
    """One sub-walk: its cells as a mutable list and a tuple, hit flag,
    the run's log-factorial table ``lf``, its move steps' randomness
    (``_MoveDraws``) and the uniforms of its independence steps, both
    drawn from the sub-walk's own generator; a walk takes move steps or
    independence steps, never both."""

    __slots__ = ("cur", "cur_t", "hit", "lf", "draws", "unif")

    def __init__(self, start: Table, rng, signed: list | None, lf: list, rec: _Recorder):
        self.cur = list(start.cells)
        self.cur_t = start.cells
        self.hit = rec.hit(start.cells)
        self.lf = lf
        self.draws = _MoveDraws(rng, signed)
        self.unif = _uniforms(rng)

    def steps(self, count: int, rec: _Recorder, moves: Iterator[tuple] | None = None) -> None:
        """Take ``count`` move steps in one frame, on the moves and
        uniforms of ``moves``, by default the walk's own next ones."""
        cur, cur_t, hit, lf = self.cur, self.cur_t, self.hit, self.lf
        exp = math.exp
        if moves is None:
            moves = self.draws.pairs(count)
        p, flags, counts = rec.p, rec.flags, rec.counts
        for i, (pairs, u) in zip(range(rec.i, rec.i + count), moves):
            s = 0.0
            for j, dl in pairs:
                c = cur[j]
                nv = c + dl
                if nv < 0:
                    break  # off the orthant: a self-loop
                s += lf[c] - lf[nv]
            else:
                # s >= 0 first: math.exp overflows above 709
                if s >= 0 or u < exp(s):
                    for j, dl in pairs:
                        cur[j] += dl
                    cur_t = tuple(cur)
                    hit = rec.hit(cur_t)
                    flags[i] = True
            p[i] = hit
            if counts is not None:
                counts[cur_t] = counts.get(cur_t, 0) + 1
        rec.i += count
        self.cur, self.cur_t, self.hit = cur, cur_t, hit

    def independence(self, draws: Sequence[Table], rec: _Recorder) -> None:
        """An independence step on each sampler table of ``draws``,
        accepted with r(u, v): Alternating(1), with no move step between."""
        cur_t, hit, lf = self.cur_t, self.hit, self.lf
        exp = math.exp
        p, flags, counts = rec.p, rec.flags, rec.counts
        logw = -sum(map(lf.__getitem__, cur_t))  # log rho(u), up to the constant
        for i, v, u in zip(range(rec.i, rec.i + len(draws)), draws, self.unif):
            v = v.cells
            lw = -sum(map(lf.__getitem__, v))
            s = lw - logw  # log rho(v) - log rho(u)
            if s >= 0 or u < exp(s):
                cur_t, logw = v, lw
                hit = rec.hit(v)
                flags[i] = True
            p[i] = hit
            if counts is not None:
                counts[cur_t] = counts.get(cur_t, 0) + 1
        rec.i += len(draws)
        self.cur, self.cur_t, self.hit = list(cur_t), cur_t, hit


class _Lanes:
    """Every pooled step of a walk, and the move runs between them.

    With tabulated log-factorials ``run`` steps unit j of a group as
    lane j of one (units, d) array: unit 0 from the table the walk
    holds, unit j > 0 from pick j - 1, where the pooled step before it
    leaves the walk if it fires.  It then settles the units in order:
    a lane that started where the walk stands is kept, and each unit
    after a pooled step that did not fire runs again in the scalar loop,
    on the same randomness, from the table the walk then holds, and
    takes its pooled step inline.  Without them there are no lanes and
    every unit is settled that way.

    A lane step gathers each lane's move support, padded to a zero
    column d with delta 0, so that the log-weight difference sums its
    terms in the scalar loop's order and has its bits.  Hits come from
    ``stat.rows`` on lanes where the statistic has it, and from the hit
    cache otherwise (an int64 cell past 2^53 may divide otherwise in
    ``rows``)."""

    __slots__ = ("sup", "dl", "lf", "d", "dtype", "group", "stat_rows")

    def __init__(self, signed: list, lf: list, d: int, dtype, period: int, stat):
        self.d, self.dtype = d, dtype
        self.lf = self.stat_rows = None
        self.group = _CHUNK  # without lanes: the whole batch
        if isinstance(lf, list):
            width = max(map(len, signed))
            self.sup = np.full((width, len(signed)), d, dtype=np.intp)
            self.dl = np.zeros((width, len(signed)), dtype=dtype)
            for k, pairs in enumerate(signed):
                self.sup[:len(pairs), k], self.dl[:len(pairs), k] = zip(*pairs)
            self.lf = np.array(lf)
            self.group = max(1, min(_LANE_CELLS // width, _LANE_STEPS // (period - 1)))
            self.stat_rows = getattr(stat, "rows", None)

    def hits(self, rec: _Recorder, rows: np.ndarray) -> np.ndarray:
        """The hit flag (0.0 or 1.0) of each row of a cell array."""
        if self.stat_rows is not None:
            return (self.stat_rows(rows) >= rec.cut).astype(np.float64)
        return np.array([rec.hit(c) for c in map(tuple, rows.tolist())])

    def run(self, walk: _Walk, rec: _Recorder, picks: np.ndarray, period: int,
            pool: _Pool) -> None:
        """Units j of a group of a pooled batch: period - 1 move steps,
        then the pooled step on pick j."""
        units, moves = len(picks), period - 1
        start_rows = pool.rows[picks]
        start_hits = self.hits(rec, start_rows)  # pick j's, which unit j + 1 starts from
        base = rec.i
        p = rec.p_seq[base:base + units * period].reshape(units, period)
        acc = rec.acc[base:base + units * period].reshape(units, period)
        lanes, seen = self.lf is not None, None
        if lanes:
            idx, unif, after, seen = self._side_by_side(walk, rec, pool, start_rows, start_hits,
                                                        p, acc)
            misses = np.flatnonzero(~acc[:, moves])
        else:
            pairs = walk.draws.pairs(units * moves)  # each unit takes its moves in turn
        valid = np.zeros(units, dtype=np.bool_)  # the unit's lane was kept
        j, lane = 0, lanes  # whether unit j's lane started where the walk stands
        while j < units:
            if lane:  # keep the lanes up to the first pooled step that did not fire
                m = misses.searchsorted(j)
                k = int(misses[m]) if m < len(misses) else units - 1
                valid[j:k + 1] = True
                walk.cur = after[k].tolist()
                walk.cur_t, walk.hit = tuple(walk.cur), float(p[k, moves])
                j, lane = k + 1, False
                continue
            rec.i = base + j * period
            if lanes:
                acc[j] = False
                pairs = walk.draws.proposals(idx[j], unif[j])
            walk.steps(moves, rec, pairs)
            i = rec.i
            fired = walk.cur_t in pool.index
            if fired:
                walk.cur = start_rows[j].tolist()
                walk.cur_t, walk.hit = tuple(walk.cur), float(start_hits[j])
                rec.flags[i] = True
            rec.p[i] = walk.hit
            if rec.counts is not None:
                rec.counts[walk.cur_t] = rec.counts.get(walk.cur_t, 0) + 1
            j, lane = j + 1, fired and lanes  # unit j + 1's lane started from pick j
        rec.i = base + units * period
        if seen is not None:
            visits = np.concatenate((seen[valid].reshape(-1, self.d), after[valid]))
            tables, times = np.unique(visits, axis=0, return_counts=True)
            for c, n in zip(map(tuple, tables.tolist()), times.tolist()):
                rec.counts[c] = rec.counts.get(c, 0) + n

    def _side_by_side(self, walk: _Walk, rec: _Recorder, pool: _Pool, start_rows: np.ndarray,
                      start_hits: np.ndarray, p: np.ndarray, acc: np.ndarray) -> tuple:
        """Step every unit of the group as a lane and write each step's
        hit and accepted flag.  Returns the units' move picks and
        uniforms, (units, period - 1) each, their tables after their
        pooled steps, and with state counts their tables after each move
        step."""
        (units, period), d = p.shape, self.d
        moves = period - 1
        idx, unif = walk.draws.take(units * moves)
        idx, unif = idx.reshape(units, moves), unif.reshape(units, moves)
        x = np.zeros((units, d + 1), dtype=self.dtype)  # column d stays 0
        x[0, :d] = walk.cur
        x[1:, :d] = start_rows[:-1]
        hit = np.empty(units)
        hit[0] = walk.hit
        hit[1:] = start_hits[:-1]
        # by support column, move step and lane: the flat position in x of
        # each move step's support cell, and its delta
        where = self.sup[:, idx.T]
        where += np.arange(0, units * (d + 1), d + 1)
        deltas = self.dl[:, idx.T]
        by_step = unif.T.copy()
        xf = x.reshape(-1)
        seen = None if rec.counts is None else np.empty((units, moves, d), self.dtype)
        for t in range(moves):
            cells = where[:, t]
            old = xf[cells]
            new = old + deltas[:, t]
            # a lane off the orthant indexes lf from its end; its s is unused
            terms = np.take(self.lf, old)
            terms -= np.take(self.lf, new)
            s = np.zeros(units)
            for term in terms:
                s += term
            moved = np.flatnonzero(new.min(axis=0) >= 0)
            moved = moved[_accepts(s[moved], by_step[t, moved])]
            xf[cells[:, moved]] = new[:, moved]
            if len(moved):
                hit[moved] = self.hits(rec, x[moved, :d])
            p[:, t] = hit
            acc[moved, t] = True
            if seen is not None:
                seen[:, t] = x[:, :d]
        ends = x[:, :d]
        fired = pool.contains(ends)
        p[:, moves] = np.where(fired, start_hits, hit)
        acc[:, moves] = fired
        return idx, unif, np.where(fired[:, None], start_rows, ends), seen


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
    bound = cell_value_bound(spec)
    top = bound + max((dl for mv in signed or () for _, dl in mv), default=0)
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
        need = N // period if period else schedule.k  # the SAT draws the run takes
        # move steps between SAT steps take the pooled step, which reserves uniforms
        batches = _batches(sampler, encode_fiber(spec), sched_rng, chunk, need, period > 1)
    rec = _Recorder(N, stat, threshold, count_states)
    try:
        if isinstance(schedule, ParallelStarts):
            k, n = schedule.k, schedule.n
            picks = sched_rng.integers(0, k, size=-(-N // n)).tolist()
            feed = chain.from_iterable(batch for batch, _ in batches)
            try:
                starts = [next(feed) for _ in range(k)]
            except SamplerError as exc:
                return _finish(rec, spec, u_obs, [], 0, 0, str(exc))
            walks = [_Walk(s, make_rng(seed, 1 + w), signed, lf, rec)
                     for w, s in enumerate(starts)]
            for pick, done in zip(picks, range(0, N, n)):
                walks[pick].steps(min(n, N - done), rec)
            return _finish(rec, spec, u_obs, [w.cur_t for w in walks], 0, k, None)

        walk = _Walk(u_obs, make_rng(seed, 1), signed, lf, rec)
        pool = lanes = None
        if period > 1:
            dtype = next((t for t in (np.int8, np.int16, np.int32, np.int64)
                          if top <= np.iinfo(t).max), object)
            pool = _Pool(dtype, bound, spec.d)
            lanes = _Lanes(signed, lf, spec.d, dtype, period, stat)
        reason = None
        try:
            left = N // period if period else 0
            while left:  # one batch of SAT steps, and the move steps before each
                try:
                    draws, uniforms = next(batches)
                except SamplerError:
                    walk.steps(period - 1, rec)  # the moves before the SAT step that failed
                    raise
                if pool is None:  # Alternating(1): independence steps alone
                    draws = draws[:left]
                    walk.independence(draws, rec)
                else:
                    draws = pool.add(draws, uniforms)[:left]
                    for a in range(0, len(draws), lanes.group):
                        lanes.run(walk, rec, draws[a:a + lanes.group], period, pool)
                left -= len(draws)
            walk.steps(N % period if period else N, rec)
        except SamplerError as exc:
            reason = str(exc)
        return _finish(rec, spec, u_obs, [walk.cur_t], period, 0, reason,
                       len(pool.rows) if pool else 0)
    finally:
        if batches is not None:
            batches.close()  # kills the sampler calls still in flight


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
    fiber = enumerate_fiber(spec, cap=FULL_FIBER_CAP).require_complete().elements
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
