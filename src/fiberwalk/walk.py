"""Metropolis-Hastings on a fiber with move proposals, SAT proposals,
and the hybrid schedules combining them.

The target is rho(v) proportional to 1/(v_1! ... v_d!), the conditional
law of the table given its margins.  Markov-move proposals are
symmetric, and SAT draws are treated as independence proposals with
assumed-uniform law, so both step kinds share one acceptance ratio:

    r(u, v) = min{1, prod_i u_i! / v_i!}

evaluated in log-gamma space.  Every step appends the running p-value
estimate p_i = hits/i, where a hit is a state whose statistic is at
least ``hit_cut(observed)``: the observed value less a relative 1e-7,
the rule exact enumeration uses, so states tied with the observed
table up to rounding count as hits.  The cut is computed once per run;
``RunRecord.threshold`` keeps the observed value.

Schedules: MovesOnly, SatOnly, Alternating(n) (step t is a SAT-step
iff t mod n = 0) and ParallelStarts(n, k) (k sub-walks started from k
SAT draws; one sub-walk is chosen uniformly and advanced n move-steps
at a time; only move-steps count toward N, and the k initial draws are
the scheme's k SAT-steps).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .encode import CNFEncoding, encode_fiber
from .enumeration import enumerate_fiber, hit_cut, log_rho_unnormalized
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
    "acceptance_ratio",
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


def acceptance_ratio(u: Sequence[int] | Table, v: Sequence[int] | Table) -> float:
    """min{1, prod u_i!/v_i!}, computed as exp(min(0, sum of log-gamma
    differences)); exactly 1 when u = v."""
    uc = u.cells if isinstance(u, Table) else tuple(u)
    vc = v.cells if isinstance(v, Table) else tuple(v)
    if len(uc) != len(vc):
        raise ValueError("tables have different lengths")
    s = 0.0
    for a, b in zip(uc, vc):
        if a != b:
            s += math.lgamma(a + 1) - math.lgamma(b + 1)
    return math.exp(s) if s < 0 else 1.0


@dataclass
class RunRecord:
    """Everything a finished (or aborted) run produced.

    ``p_sequence[i]`` is the estimate after step i+1; ``accepted`` and
    ``proposal_kind`` ('m' for move, 's' for SAT) are per recorded
    step.  ``sat_steps`` counts consumed SAT proposals including the
    initial draws of ParallelStarts; ``move_steps`` counts move
    proposals.  ``state_counts`` maps visited cell tuples to visit
    counts when requested.
    """

    p_sequence: np.ndarray
    accepted: np.ndarray
    proposal_kind: np.ndarray  # uint8: 0 move, 1 sat
    hits: int
    steps: int
    sat_steps: int
    move_steps: int
    threshold: float
    finals: tuple[Table, ...]
    state_counts: dict[tuple[int, ...], int] | None = None
    aborted: bool = False
    abort_reason: str | None = None

    @property
    def p_final(self) -> float:
        if self.steps == 0:
            return math.nan
        return float(self.p_sequence[self.steps - 1])

    def to_csv(self, sink) -> None:
        """Per-step CSV: step, p_value, accepted, proposal_kind."""
        if hasattr(sink, "write"):
            self._write_csv(sink)
        else:
            with open(sink, "w", newline="") as f:
                self._write_csv(f)

    def _write_csv(self, f) -> None:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["step", "p_value", "accepted", "proposal_kind"])
        kinds = ("move", "sat")
        for i in range(self.steps):
            w.writerow(
                [
                    i + 1,
                    repr(float(self.p_sequence[i])),
                    int(self.accepted[i]),
                    kinds[self.proposal_kind[i]],
                ]
            )


class _Recorder:
    __slots__ = (
        "p_seq",
        "acc",
        "kind",
        "hits",
        "i",
        "stat",
        "threshold",
        "cut",
        "hit_cache",
        "counts",
    )

    def __init__(self, n: int, stat, threshold: float, count_states: bool):
        self.p_seq = np.empty(n, dtype=np.float64)
        self.acc = np.zeros(n, dtype=np.bool_)
        self.kind = np.zeros(n, dtype=np.uint8)
        self.hits = 0
        self.i = 0
        self.stat = stat
        self.threshold = threshold
        self.cut = hit_cut(threshold)
        self.hit_cache: dict[tuple[int, ...], int] = {}
        self.counts: dict[tuple[int, ...], int] | None = {} if count_states else None

    def record(self, accepted: bool, kind: int, cur_t: tuple[int, ...]) -> None:
        hit = self.hit_cache.get(cur_t)
        if hit is None:
            hit = 1 if self.stat(cur_t) >= self.cut else 0
            self.hit_cache[cur_t] = hit
        i = self.i
        self.hits += hit
        self.p_seq[i] = self.hits / (i + 1)
        if accepted:
            self.acc[i] = True
        if kind:
            self.kind[i] = 1
        counts = self.counts
        if counts is not None:
            counts[cur_t] = counts.get(cur_t, 0) + 1
        self.i = i + 1


class _ProposalFeed:
    """Batches sampler draws; each refill uses a fresh seed from the
    scheduler stream so runs are reproducible.

    A refill is one sampler call, and a short batch is used as
    returned: ``take`` refills again when it runs out.  Only an empty
    batch is retried, with a fresh seed, at most 16 times."""

    def __init__(self, sampler: FiberSampler, encoding: CNFEncoding, sched_rng, chunk: int):
        self.sampler = sampler
        self.encoding = encoding
        self.sched_rng = sched_rng
        self.chunk = chunk
        self.batch: list[Table] = []
        self.pos = 0
        self.consumed = 0

    def take(self) -> Table:
        if self.pos >= len(self.batch):
            self._refill(self.chunk)
        t = self.batch[self.pos]
        self.pos += 1
        self.consumed += 1
        return t

    def _refill(self, want: int) -> None:
        for _ in range(16):
            seed = int(self.sched_rng.integers(1 << 62))
            batch = self.sampler.sample(self.encoding, want, seed)
            if batch:
                self.batch = batch
                self.pos = 0
                return
        raise SamplerError("sampler repeatedly returned no valid elements")


class _Walk:
    """Hot-loop state of one sub-walk: current cells as a mutable list,
    cached log-weight, and pre-drawn randomness blocks."""

    __slots__ = ("cur", "cur_t", "logw", "rng", "midx", "msign", "unif", "mp", "up")

    def __init__(self, start: Table, rng: np.random.Generator):
        self.cur = list(start.cells)
        self.cur_t = start.cells
        self.logw = log_rho_unnormalized(start.cells)
        self.rng = rng
        self.midx = None
        self.msign = None
        self.unif = None
        self.mp = 0
        self.up = 0

    def _refill_moves(self, n_moves: int) -> None:
        self.midx = self.rng.integers(0, n_moves, size=_CHUNK)
        self.msign = self.rng.integers(0, 2, size=_CHUNK)
        self.mp = 0

    def _refill_unif(self) -> None:
        self.unif = self.rng.random(_CHUNK)
        self.up = 0

    def move_step(self, moves, rec: _Recorder) -> None:
        if self.midx is None or self.mp >= _CHUNK:
            self._refill_moves(len(moves))
        mv = moves[int(self.midx[self.mp])]
        sign = 1 if self.msign[self.mp] else -1
        self.mp += 1
        cur = self.cur
        s = 0.0
        valid = True
        lg = math.lgamma
        for j, dl in zip(mv.support, mv.deltas):
            c = cur[j]
            nv = c + (dl if sign > 0 else -dl)
            if nv < 0:
                valid = False
                break
            s += lg(c + 1) - lg(nv + 1)
        accepted = False
        if valid:
            if self.up >= _CHUNK or self.unif is None:
                self._refill_unif()
            u = self.unif[self.up]
            self.up += 1
            if s >= 0 or u < math.exp(s):
                for j, dl in zip(mv.support, mv.deltas):
                    cur[j] += dl if sign > 0 else -dl
                self.cur_t = tuple(cur)
                self.logw += s  # log rho only shifts by the support terms
                accepted = True
        rec.record(accepted, 0, self.cur_t)

    def sat_step(self, proposal: Table, logw_cache: dict, rec: _Recorder) -> None:
        p_cells = proposal.cells
        lw = logw_cache.get(p_cells)
        if lw is None:
            lw = log_rho_unnormalized(p_cells)
            logw_cache[p_cells] = lw
        s = lw - self.logw  # log rho(v) - log rho(u)
        accepted = False
        if self.up >= _CHUNK or self.unif is None:
            self._refill_unif()
        u = self.unif[self.up]
        self.up += 1
        if s >= 0 or u < math.exp(s):
            self.cur = list(p_cells)
            self.cur_t = p_cells
            self.logw = lw
            accepted = True
        rec.record(accepted, 1, self.cur_t)


def _check_moves(moves: MoveSet | None, spec: FiberSpec) -> MoveSet:
    if moves is None or not len(moves):
        raise ValueError("this schedule needs a non-empty move set")
    if moves.d != spec.d:
        raise ValueError(f"moves are on {moves.d} cells, fiber has {spec.d}")
    zeros = spec.zero_set()
    for k, mv in enumerate(moves):
        if any(j in zeros for j in mv.support):
            raise ValueError(f"move {k} touches a structural zero cell")
    return moves


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

    needs_moves = not isinstance(schedule, SatOnly)
    needs_sat = not isinstance(schedule, MovesOnly)
    if needs_moves:
        moves = _check_moves(moves, spec)
    if needs_sat and sampler is None:
        raise ValueError("this schedule needs a sampler")

    sched_rng = make_rng(seed, 0)
    rec = _Recorder(N, stat, threshold, count_states)
    feed = None
    if needs_sat:
        encoding = encode_fiber(spec)
        if isinstance(schedule, ParallelStarts):
            chunk = schedule.k
        elif isinstance(schedule, Alternating):
            chunk = min(max(1, N // schedule.n), _CHUNK)
        else:
            chunk = min(N, _CHUNK)
        feed = _ProposalFeed(sampler, encoding, sched_rng, chunk)

    logw_cache: dict[tuple[int, ...], float] = {}
    aborted = False
    reason = None

    if isinstance(schedule, ParallelStarts):
        k, n = schedule.k, schedule.n
        picks = sched_rng.integers(0, k, size=-(-N // n))
        try:
            starts = [feed.take() for _ in range(k)]
        except SamplerError as exc:
            return _finish(rec, spec, u_obs, [], 0, 0, True, str(exc))
        walks = [_Walk(s, make_rng(seed, 1 + w)) for w, s in enumerate(starts)]
        done = 0
        pick_i = 0
        while done < N:
            wk = walks[int(picks[pick_i])]
            pick_i += 1
            burst = min(n, N - done)
            for _ in range(burst):
                wk.move_step(moves, rec)
            done += burst
        return _finish(rec, spec, u_obs, [w.cur_t for w in walks], k, N, False, None)

    # single-walk schedules
    if isinstance(schedule, MovesOnly):
        period = 0
    elif isinstance(schedule, SatOnly):
        period = 1
    else:
        period = schedule.n
    walk = _Walk(u_obs, make_rng(seed, 1))
    sat_steps = 0
    move_steps = 0
    try:
        for t in range(1, N + 1):
            if period and t % period == 0:
                walk.sat_step(feed.take(), logw_cache, rec)
                sat_steps += 1
            else:
                walk.move_step(moves, rec)
                move_steps += 1
    except SamplerError as exc:
        aborted = True
        reason = str(exc)
    return _finish(rec, spec, u_obs, [walk.cur_t], sat_steps, move_steps, aborted, reason)


def _finish(rec, spec, u_obs, final_cells, sat_steps, move_steps, aborted, reason) -> RunRecord:
    steps = rec.i
    finals = tuple(Table(cells=c, shape=spec.shape) for c in final_cells)
    if not finals:
        finals = (u_obs,)
    return RunRecord(
        p_sequence=rec.p_seq[:steps],
        accepted=rec.acc[:steps],
        proposal_kind=rec.kind[:steps],
        hits=rec.hits,
        steps=steps,
        sat_steps=sat_steps,
        move_steps=move_steps,
        threshold=rec.threshold,
        finals=finals,
        state_counts=rec.counts,
        aborted=aborted,
        abort_reason=reason,
    )


def connected_components_under_moves(
    spec: FiberSpec, moves: MoveSet, cap: int = 1_000_000
) -> list[list[Table]]:
    """Partition the enumerated fiber into components of the move
    graph (u ~ v iff v = u +/- m for some move m)."""
    fiber = list(enumerate_fiber(spec, cap=cap).require_complete())
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
    logw = [log_rho_unnormalized(u.cells) for u in fiber]
    m = max(logw)
    ws = [math.exp(lw - m) for lw in logw]
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
