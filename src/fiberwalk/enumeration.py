"""Exhaustive fiber enumeration: the brute-force oracle.

Cells are assigned in flat (row-major) order, each over its values in
ascending order, so elements come in lexicographic order of their flat
cells.  At each cell the value range is clipped from above by every
constraint row covering the cell (value <= residual / coefficient) and
from below by how much the remaining cells can still contribute to
each residual.  The search steps a block of partial tables one cell at
a time in numpy.  A block whose children would pass ``_BLOCK_ROWS``
rows runs as two halves in order, and a single partial table as runs
of ``_BLOCK_ROWS`` values, so memory stays bounded.

Exceeding the element cap marks the enumeration incomplete instead of
aborting, keeping the first ``cap`` elements in that order; operations
that need the whole fiber (exact p-values, sizes) refuse incomplete
enumerations explicitly.

``enumerate_fiber`` answers from the last enumeration of an equal spec
when that one is complete or was cut at the cap or past it (its first
``cap`` elements, marked incomplete when it has more), and searches
otherwise, so each answer equals a fresh search.  The hold is weak, so
a finished test's fiber is freed before the next test runs rather than
raising the peak memory; held cells are read-only, as callers share them.

A fiber element is a hit when its statistic is at least
``hit_cut(observed)``, the observed value less a relative 1e-7 (the
tolerance R's ``fisher.test`` uses): tables whose statistic equals the
observed one in exact arithmetic, say by a row permutation, can differ
from it in the last bits of floating point and still count.  The walk
uses the same rule.

This module is the ground-truth side of the encoder bijection checks
and of every sampled-vs-exact comparison; it must stay independent of
the CNF encoder and the walker.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

from .models import FiberSpec, Table, write_table

__all__ = [
    "FiberEnumeration",
    "enumerate_fiber",
    "iter_fiber",
    "fiber_size",
    "FiberTooLarge",
    "log_rho_unnormalized",
    "rho_weights",
    "hit_cut",
    "exact_p_value",
    "exact_p_from_enumeration",
    "write_enumeration",
]

DEFAULT_CAP = 10_000_000

# the cap of the operations that hold a whole fiber in memory: the
# enumerating samplers, move-graph components and the sampler diagnosis
FULL_FIBER_CAP = 1_000_000

# rows of a block past which its children are split (8,192 raised exact-n3f peak RSS)
_BLOCK_ROWS = 2048

# relative tie tolerance of the hit rule, as in R's fisher.test
TIE_TOLERANCE = 1e-7


class FiberTooLarge(Exception):
    """An operation needed the complete fiber but the cap was hit."""


@dataclass(frozen=True, eq=False)
class FiberEnumeration:
    """Enumerated fiber elements plus a completeness marker.

    ``cells`` holds the elements as the rows of a (k, d) integer array
    in enumeration order; ``elements`` builds their Tables on first read.
    When ``complete`` is False the fiber holds more than ``cap``
    elements and only the first ``cap`` of them are kept.
    """

    cells: np.ndarray
    shape: tuple[int, ...]
    complete: bool
    cap: int

    @cached_property
    def elements(self) -> tuple[Table, ...]:
        return tuple(Table._trusted(c, self.shape) for c in _rows(self.cells))

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.elements)

    def require_complete(self) -> "FiberEnumeration":
        if not self.complete:
            raise FiberTooLarge(
                f"enumeration incomplete: more than {self.cap} elements"
            )
        return self

    def rho(self) -> dict[tuple[int, ...], float]:
        """rho(v) = (1/prod v_i!) / Z of each element of the complete fiber."""
        ws = rho_weights(self.require_complete().cells)
        z = sum(ws)
        return {c: w / z for c, w in zip(_rows(self.cells), ws)}


def fiber_blocks(spec: FiberSpec) -> Iterator[np.ndarray]:
    """Fiber elements as (k, d) blocks of rows, in lexicographic order of
    their flat cells: the one search every enumeration runs, in int64 (in
    Python ints past it).  A block has the smallest signed integer type
    that holds every margin, so every cell (int8 up to 127)."""
    dtype = np.int64 if max(spec.margins, default=0) * spec.d < 1 << 63 else object
    A = spec.matrix.entries.astype(dtype)
    b = np.asarray(spec.margins, dtype=dtype)
    order = [j for j in range(spec.d) if j not in spec.structural_zeros]
    rows = [np.asarray(spec.matrix.col_support[j]) for j in order]
    coef = [A[r, j] for r, j in zip(rows, order)]

    # per-cell cap from the original margins: min over covering rows of
    # b_i // A_ij (sound at every node since residuals only shrink)
    root_cap = [int((b[r] // a).min()) for r, a in zip(rows, coef)]
    # rest[i, t]: the most the cells after order[t] can add to row i
    most = A[:, order] * root_cap
    rest = most[:, ::-1].cumsum(axis=1)[:, ::-1] - most

    # depth, cells order[:depth], residuals and least value of cell
    # order[depth], one row per partial table; the first block on top
    stack = [(0, np.zeros((1, 0), dtype), b[None, :], 0)]
    while stack:
        t, vals, res, least = stack.pop()
        while t < len(order) and len(vals):
            r, a = rows[t], coef[t]
            sub = res[:, r]
            hi = np.minimum((sub // a).min(axis=1), root_cap[t])
            lo = np.maximum((-((rest[r, t] - sub) // a)).max(axis=1), least)  # ceil division
            count = np.maximum(hi - lo + 1, 0)
            if count.sum() > _BLOCK_ROWS:
                if len(vals) > 1:
                    half = len(vals) // 2
                    stack += [(t, vals[half:], res[half:], 0), (t, vals[:half], res[:half], 0)]
                    break
                stack.append((t, vals, res, lo[0] + _BLOCK_ROWS))  # one row: the rest later
                count[0] = _BLOCK_ROWS
            # each row's children, its values ascending, in row order
            parent = np.repeat(np.arange(len(vals)), count.astype(np.intp))
            v = lo[parent] + np.arange(len(parent)) - (np.cumsum(count) - count)[parent]
            vals = np.column_stack((vals[parent], v))
            res = res[parent]
            res[:, r] -= v[:, None] * a
            t, least = t + 1, 0
        else:
            done = vals[(res == 0).all(axis=1)]
            if len(done):
                block = np.zeros((len(done), spec.d), np.min_scalar_type(-1 - int(b.max())))
                block[:, order] = done
                yield block


def _rows(cells: np.ndarray) -> Iterator[tuple[int, ...]]:
    """The rows of a cell array as tuples of ints, a block at a time:
    one list of lists for all of them would raise the peak RSS."""
    for a in range(0, len(cells), _BLOCK_ROWS):
        yield from map(tuple, cells[a:a + _BLOCK_ROWS].tolist())


def iter_fiber(spec: FiberSpec) -> Iterator[Table]:
    """Yield fiber elements in lexicographic order of their flat cells."""
    return (Table._trusted(c, spec.shape) for block in fiber_blocks(spec) for c in _rows(block))


def _check_cap(cap: int) -> None:
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")


# the last enumeration of each spec, while a caller keeps it
_held: "weakref.WeakValueDictionary[FiberSpec, FiberEnumeration]" = weakref.WeakValueDictionary()


def enumerate_fiber(spec: FiberSpec, cap: int = DEFAULT_CAP) -> FiberEnumeration:
    """Enumerate up to ``cap`` fiber elements; marks the result
    incomplete (rather than raising) when more exist."""
    _check_cap(cap)
    held = _held.get(spec)
    if held is None or not (held.complete or held.cap >= cap):
        blocks, found = [np.zeros((0, spec.d), np.int8)], 0
        for block in fiber_blocks(spec):
            blocks.append(block)
            found += len(block)
            if found > cap:
                break
        cells = np.concatenate(blocks)[:cap]
        cells.flags.writeable = False
        held = _held[spec] = FiberEnumeration(cells, spec.shape, found <= cap, cap)
    # an incomplete enumeration holds exactly its cap of elements
    return held if len(held) <= cap else FiberEnumeration(held.cells[:cap], spec.shape, False, cap)


def fiber_size(spec: FiberSpec, cap: int = DEFAULT_CAP) -> int:
    """Exact number of fiber elements; raises :class:`FiberTooLarge`
    past the cap."""
    _check_cap(cap)
    count = 0
    for block in fiber_blocks(spec):
        count += len(block)
        if count > cap:
            raise FiberTooLarge(f"fiber exceeds cap of {cap} elements")
    return count


def log_rho_unnormalized(u: Table | Sequence[int]) -> float:
    """log of the target weight: -sum_i log(u_i!)."""
    cells = u.cells if isinstance(u, Table) else u
    return -sum(math.lgamma(c + 1) for c in cells)


def log_rho_rows(rows: np.ndarray) -> np.ndarray:
    """log rho of each row of a (k, d) cell array, summed cell by cell
    from the left as :func:`log_rho_unnormalized` sums, so the bits
    agree."""
    top = int(rows.max(initial=0))
    # lgamma of every value up to the largest, unless the distinct ones are fewer
    values, index = (range(top + 1), rows) if top < rows.size else np.unique(rows, return_inverse=True)
    lf = np.array([math.lgamma(int(v) + 1) for v in values])
    total = np.zeros(len(rows))
    for col in index.reshape(rows.shape).T:
        total += lf[col]
    return -total


def rho_weights(rows: np.ndarray) -> list[float]:
    """Target weights of the rows of a cell array, exp(log rho(u) - max
    log rho), the largest 1, so that no weight underflows before the
    sum; math.exp, as np.exp can differ in the last bit."""
    logw = log_rho_rows(rows)
    return list(map(math.exp, (logw - logw.max()).tolist()))


def normalized_exp(logw: np.ndarray) -> np.ndarray:
    """The law exp(logw - max) / sum of log-weights; empty for none."""
    w = np.exp(logw - logw.max(initial=-np.inf))
    return w / w.sum()


def hit_cut(observed: float) -> float:
    """The cut of the hit rule: a table is a hit when its statistic is
    at least ``observed - TIE_TOLERANCE * |observed|``, so tables tied
    with the observed one up to rounding count as hits."""
    return observed - TIE_TOLERANCE * abs(observed)


def exact_p_from_enumeration(
    enum: FiberEnumeration, stat_threshold: float, stat: Callable
) -> float:
    """Exact conditional p-value over an already-enumerated fiber.

    ``stat`` is evaluated on flat cell tuples, the convention shared
    with the walker, or on blocks of rows by its ``rows`` method where
    it has one, which must give the same bits.
    """
    enum.require_complete()
    if not len(enum):
        raise ValueError("empty fiber")
    cut = hit_cut(stat_threshold)
    weights = rho_weights(enum.cells)
    rows = getattr(stat, "rows", None)
    if rows is None:
        hit = (stat(c) >= cut for c in _rows(enum.cells))
    else:
        hit = chain.from_iterable((rows(enum.cells[a:a + _BLOCK_ROWS]) >= cut).tolist()
                                  for a in range(0, len(enum), _BLOCK_ROWS))
    return math.fsum(w for w, h in zip(weights, hit) if h) / math.fsum(weights)


def exact_p_value(
    spec: FiberSpec,
    stat_threshold: float,
    stat: Callable,
    cap: int = DEFAULT_CAP,
) -> float:
    """Exact conditional p-value: the rho-weighted share of fiber
    elements that are hits (stat >= ``hit_cut(threshold)``).  Refuses
    incomplete enumerations."""
    return exact_p_from_enumeration(enumerate_fiber(spec, cap=cap), stat_threshold, stat)


def write_enumeration(enum: FiberEnumeration, sink: TextIO) -> None:
    """Text export: one table block per element, blank-line separated,
    with a trailing completeness comment."""
    for u in enum.elements:
        write_table(u, sink)
        sink.write("\n")
    sink.write(f"# {len(enum)} elements, complete={enum.complete}\n")
