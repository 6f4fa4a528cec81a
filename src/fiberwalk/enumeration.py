"""Exhaustive fiber enumeration: the brute-force oracle.

Cells are assigned in flat (row-major) order by depth-first
backtracking, each over its values in ascending order, so elements come
in lexicographic order of their flat cells.  At each cell the value
range is clipped from above by every constraint row covering the cell
(value <= residual / coefficient) and from below by how much the
remaining cells can still contribute to each residual.  The search
does its arithmetic on plain Python ints in one generator frame.

Exceeding the element cap marks the enumeration incomplete instead of
aborting, keeping the first ``cap`` elements in that order; operations
that need the whole fiber (exact p-values, sizes) refuse incomplete
enumerations explicitly.

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

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, TextIO

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

# relative tie tolerance of the hit rule, as in R's fisher.test
TIE_TOLERANCE = 1e-7


class FiberTooLarge(Exception):
    """An operation needed the complete fiber but the cap was hit."""


@dataclass(frozen=True)
class FiberEnumeration:
    """Enumerated fiber elements plus a completeness marker.

    When ``complete`` is False the fiber holds more than ``cap``
    elements and ``elements`` is only the first ``cap`` of them in
    enumeration order.
    """

    elements: tuple[Table, ...]
    complete: bool
    cap: int

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def require_complete(self) -> "FiberEnumeration":
        if not self.complete:
            raise FiberTooLarge(
                f"enumeration incomplete: more than {self.cap} elements"
            )
        return self


def iter_fiber(spec: FiberSpec) -> Iterator[Table]:
    """Yield fiber elements in lexicographic order of their flat cells."""
    A = spec.matrix.entries
    b = spec.margins
    zeros = spec.zero_set()
    order = [j for j in range(spec.d) if j not in zeros]
    m = len(order)
    terms = [
        tuple((i, int(A[i, j])) for i in spec.matrix.col_support[j]) for j in order
    ]

    # per-cell cap from the original margins: min over covering rows of
    # b_i // A_ij (sound at every node since residuals only shrink)
    root_cap = [min((b[i] // a for i, a in ts), default=0) for ts in terms]

    # bounds[t] holds (i, A_ij, remaining_contrib) for each row i covering
    # cell order[t], where remaining_contrib is the max total the cells
    # order[t+1:] can add to constraint i; it gives the lower bound
    remaining_contrib = [0] * len(b)
    bounds: list[tuple[tuple[int, int, int], ...]] = [()] * m
    for t in range(m - 1, -1, -1):
        bounds[t] = tuple((i, a, remaining_contrib[i]) for i, a in terms[t])
        for i, a in terms[t]:
            remaining_contrib[i] += a * root_cap[t]

    residual = list(b)
    values = [0] * spec.d
    vmaxes = [0] * m
    t = 0
    while True:
        # descend from depth t, giving each cell its smallest feasible value
        while t < m:
            vmax = root_cap[t]
            vmin = 0
            for i, a, rem in bounds[t]:
                r = residual[i]
                q = r // a
                if q < vmax:
                    vmax = q
                need = r - rem
                if need > 0:
                    lo = -(-need // a)  # ceil division
                    if lo > vmin:
                        vmin = lo
            if vmin > vmax:
                break
            values[order[t]] = vmin
            if vmin:
                for i, a, _ in bounds[t]:
                    residual[i] -= a * vmin
            vmaxes[t] = vmax
            t += 1
        else:
            if not any(residual):
                yield Table(cells=tuple(values), shape=spec.shape)
        # back up to the deepest cell still below its upper bound, step it
        t -= 1
        while t >= 0:
            j = order[t]
            v = values[j]
            if v < vmaxes[t]:
                values[j] = v + 1
                for i, a, _ in bounds[t]:
                    residual[i] -= a
                break
            if v:
                for i, a, _ in bounds[t]:
                    residual[i] += a * v
                values[j] = 0
            t -= 1
        if t < 0:
            return
        t += 1


def _check_cap(cap: int) -> None:
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")


def enumerate_fiber(spec: FiberSpec, cap: int = DEFAULT_CAP) -> FiberEnumeration:
    """Enumerate up to ``cap`` fiber elements; marks the result
    incomplete (rather than raising) when more exist."""
    _check_cap(cap)
    elements = tuple(itertools.islice(iter_fiber(spec), cap + 1))
    return FiberEnumeration(elements=elements[:cap], complete=len(elements) <= cap, cap=cap)


def fiber_size(spec: FiberSpec, cap: int = DEFAULT_CAP) -> int:
    """Exact number of fiber elements; raises :class:`FiberTooLarge`
    past the cap."""
    _check_cap(cap)
    count = sum(1 for _ in itertools.islice(iter_fiber(spec), cap + 1))
    if count > cap:
        raise FiberTooLarge(f"fiber exceeds cap of {cap} elements")
    return count


def log_rho_unnormalized(u: Table | Sequence[int]) -> float:
    """log of the target weight: -sum_i log(u_i!)."""
    cells = u.cells if isinstance(u, Table) else u
    return -sum(math.lgamma(c + 1) for c in cells)


def rho_weights(tables: Sequence[Table]) -> list[float]:
    """Target weights exp(log rho(u) - max log rho), the largest 1, so
    that no weight underflows before the sum."""
    logw = [log_rho_unnormalized(u) for u in tables]
    m = max(logw)
    return [math.exp(lw - m) for lw in logw]


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
    with the walker.
    """
    enum.require_complete()
    if not enum.elements:
        raise ValueError("empty fiber")
    cut = hit_cut(stat_threshold)
    weights = rho_weights(enum.elements)
    hits = [w for u, w in zip(enum.elements, weights) if stat(u.cells) >= cut]
    return math.fsum(hits) / math.fsum(weights)


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
    sink.write(f"# {len(enum.elements)} elements, complete={enum.complete}\n")
