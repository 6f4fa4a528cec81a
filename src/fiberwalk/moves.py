"""Markov moves: generation, file I/O, and zero-pattern repair.

A move is an integer vector in the kernel of the constraint matrix,
stored sparsely as (support, deltas).  Proposing u +/- m for a move m
keeps the margins; the walker only has to check nonnegativity.

For two-way tables the basic moves are the +1/-1 rectangles avoiding
the structural zeros, and the full cycle moves come from the simple
cycles of the bipartite graph on rows and columns whose edges are the
free cells.  Whether those cycle moves connect the fiber is governed by
the zero pattern's chordality, checked and repaired here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .models import ConstraintMatrix, FiberSpec

# networkx is imported by the cycle functions on first use, so that
# importing the package (and every sampler child that does) skips it.
if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "Move",
    "MoveSet",
    "basic_moves_two_way",
    "cycle_moves",
    "basic_moves_n3f",
    "n3f_basis",
    "load_basis",
    "save_basis",
    "BasisFileError",
    "MOVE_SOURCES",
    "build_moves",
    "chordality_violations",
    "is_doubly_chordal",
    "repair_zero_pattern",
    "DegenerateZeroPattern",
]


@dataclass(frozen=True)
class Move:
    """Sparse kernel vector: parallel tuples of flat cell indices and
    nonzero integer deltas."""

    support: tuple[int, ...]
    deltas: tuple[int, ...]

    def __post_init__(self):
        if len(self.support) != len(self.deltas):
            raise ValueError("support and deltas must have equal length")
        if len(set(self.support)) != len(self.support):
            raise ValueError("duplicate cell in move support")
        if not self.support:
            raise ValueError("empty move")
        if any(d == 0 for d in self.deltas):
            raise ValueError("zero delta in move")
        pairs = sorted(zip(self.support, self.deltas))
        object.__setattr__(self, "support", tuple(p[0] for p in pairs))
        object.__setattr__(self, "deltas", tuple(p[1] for p in pairs))

    def normalized(self) -> "Move":
        """Canonical sign: first delta positive."""
        if self.deltas[0] < 0:
            return Move(self.support, tuple(-d for d in self.deltas))
        return self

    def vector(self, d: int) -> np.ndarray:
        v = np.zeros(d, dtype=np.int64)
        for j, dl in zip(self.support, self.deltas):
            v[j] = dl
        return v


@dataclass(frozen=True)
class MoveSet:
    moves: tuple[Move, ...]
    d: int

    def __len__(self):
        return len(self.moves)

    def __iter__(self):
        return iter(self.moves)

    def __getitem__(self, k) -> Move:
        return self.moves[k]

    def validate(self, matrix: ConstraintMatrix) -> None:
        """Every move must lie in the kernel of the matrix."""
        if matrix.cols != self.d:
            raise ValueError(f"moves are on {self.d} cells, matrix has {matrix.cols}")
        for k, mv in enumerate(self.moves):
            img = matrix.entries @ mv.vector(self.d)
            if img.any():
                raise ValueError(f"move {k} is not in the kernel: A m = {img.tolist()}")


def basic_moves_two_way(shape: Sequence[int], zeros: Iterable[int] = ()) -> MoveSet:
    """All +1/-1 rectangle moves on a two-way table whose four corners
    avoid the structural zeros."""
    d1, d2 = shape
    zero_set = set(zeros)
    moves = []
    for i1, i2 in itertools.combinations(range(d1), 2):
        for j1, j2 in itertools.combinations(range(d2), 2):
            corners = (i1 * d2 + j1, i1 * d2 + j2, i2 * d2 + j1, i2 * d2 + j2)
            if any(c in zero_set for c in corners):
                continue
            moves.append(Move(support=corners, deltas=(1, -1, -1, 1)))
    return MoveSet(moves=tuple(moves), d=d1 * d2)


def _free_graph(shape: Sequence[int], zeros: Iterable[int]) -> nx.Graph:
    """Bipartite graph on rows and columns; edge (i, j) iff cell (i, j)
    is free."""
    import networkx as nx

    d1, d2 = shape
    zero_set = set(zeros)
    G = nx.Graph()
    G.add_nodes_from(("r", i) for i in range(d1))
    G.add_nodes_from(("c", j) for j in range(d2))
    for i in range(d1):
        for j in range(d2):
            if i * d2 + j not in zero_set:
                G.add_edge(("r", i), ("c", j))
    return G


def _cycle_to_move(cycle: list, d2: int) -> Move:
    """Alternating +1/-1 around a closed row/column walk."""
    L = len(cycle)
    support = []
    deltas = []
    sign = 1
    for t in range(L):
        a, b = cycle[t], cycle[(t + 1) % L]
        if a[0] == "c":
            a, b = b, a
        support.append(a[1] * d2 + b[1])
        deltas.append(sign)
        sign = -sign
    return Move(support=tuple(support), deltas=tuple(deltas)).normalized()


def cycle_moves(shape: Sequence[int], zeros: Iterable[int] = ()) -> MoveSet:
    """One alternating move per simple cycle of the free-cell graph.

    On a full 3x3 table this yields 15 moves: 9 rectangles and 6
    six-cycles.
    """
    import networkx as nx

    d1, d2 = shape
    G = _free_graph(shape, zeros)
    seen = {}
    for cycle in nx.simple_cycles(G):
        mv = _cycle_to_move(cycle, d2)
        seen[(mv.support, mv.deltas)] = mv
    moves = tuple(seen[k] for k in sorted(seen))
    return MoveSet(moves=moves, d=d1 * d2)


def basic_moves_n3f(d: int) -> MoveSet:
    """The 2x2x2 alternating-sign moves on a d^3 table: these preserve
    all three 2-margins and generate the kernel lattice."""
    moves = []
    for i1, i2 in itertools.combinations(range(d), 2):
        for j1, j2 in itertools.combinations(range(d), 2):
            for k1, k2 in itertools.combinations(range(d), 2):
                support = []
                deltas = []
                for (ia, i) in ((0, i1), (1, i2)):
                    for (ja, j) in ((0, j1), (1, j2)):
                        for (ka, k) in ((0, k1), (1, k2)):
                            support.append((i * d + j) * d + k)
                            deltas.append(1 if (ia + ja + ka) % 2 == 0 else -1)
                moves.append(Move(support=tuple(support), deltas=tuple(deltas)))
    return MoveSet(moves=tuple(moves), d=d ** 3)


def n3f_basis(d: int = 3) -> MoveSet:
    """Markov basis for the no-3-factor-interaction model on d^3 tables.

    Only d = 3 is supported: the 27 basic 2x2x2 moves plus the 54
    degree-6 moves, built as the +/-1 combinations of overlapping basic
    moves whose overlap cancels exactly two cells.  81 moves total.
    """
    if d != 3:
        raise ValueError("a hand-built basis is only available for d = 3")
    basics = basic_moves_n3f(d)
    n_cells = d ** 3
    seen = {}
    for mv in basics:
        nm = mv.normalized()
        seen[(nm.support, nm.deltas)] = nm
    vecs = [mv.vector(n_cells) for mv in basics]
    for a in range(len(vecs)):
        for b in range(a + 1, len(vecs)):
            for sign in (1, -1):
                comb = vecs[a] + sign * vecs[b]
                support = np.flatnonzero(comb)
                # degree-6 moves: 12-cell support, entries +/-1
                if len(support) != 12 or np.abs(comb).max() != 1:
                    continue
                mv = Move(
                    support=tuple(int(j) for j in support),
                    deltas=tuple(int(comb[j]) for j in support),
                ).normalized()
                seen[(mv.support, mv.deltas)] = mv
    moves = tuple(seen[k] for k in sorted(seen))
    return MoveSet(moves=moves, d=n_cells)


class BasisFileError(ValueError):
    """Malformed or kernel-violating basis file; message names the line."""


def save_basis(moves: MoveSet, path) -> None:
    """One move per line as d space-separated integers; # comments."""
    with open(path, "w") as f:
        f.write(f"# {len(moves)} moves on {moves.d} cells\n")
        for mv in moves:
            f.write(" ".join(str(int(x)) for x in mv.vector(moves.d)) + "\n")


def load_basis(path, matrix: ConstraintMatrix) -> MoveSet:
    """Read a basis file and validate every move against the matrix.

    Each data line must hold exactly ``matrix.cols`` integers, be
    nonzero, and lie in the kernel; violations raise
    :class:`BasisFileError` naming the 1-based line number.
    """
    moves = []
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                entries = [int(t) for t in line.split()]
            except ValueError:
                raise BasisFileError(f"line {lineno}: non-integer entry") from None
            if len(entries) != matrix.cols:
                raise BasisFileError(
                    f"line {lineno}: expected {matrix.cols} entries, got {len(entries)}"
                )
            vec = np.asarray(entries, dtype=np.int64)
            support = np.flatnonzero(vec)
            if support.size == 0:
                raise BasisFileError(f"line {lineno}: zero move")
            img = matrix.entries @ vec
            if img.any():
                bad = int(np.flatnonzero(img)[0])
                raise BasisFileError(
                    f"line {lineno}: move is not in the kernel (margin row {bad} "
                    f"changes by {int(img[bad])})"
                )
            moves.append(
                Move(
                    support=tuple(int(j) for j in support),
                    deltas=tuple(int(vec[j]) for j in support),
                )
            )
    return MoveSet(moves=tuple(moves), d=matrix.cols)


MOVE_SOURCES = ("basic", "cycle", "file")


def build_moves(source: str, spec: FiberSpec, path=None) -> MoveSet:
    """The move set a walk on ``spec`` uses, by source: ``file`` loads
    and validates the basis at ``path``; ``basic`` gives the 2x2x2
    moves on a 3-way table and the rectangles on a two-way one;
    ``cycle`` gives the cycle moves of a two-way table."""
    if source == "file":
        return load_basis(path, spec.matrix)
    if source not in MOVE_SOURCES:
        raise ValueError(f"unknown move source {source!r}; expected one of {MOVE_SOURCES}")
    if len(spec.shape) == 3:
        if source == "cycle":
            raise ValueError("cycle moves apply to two-way tables only")
        return basic_moves_n3f(spec.shape[0])
    if source == "cycle":
        return cycle_moves(spec.shape, spec.zero_set())
    return basic_moves_two_way(spec.shape, spec.zero_set())


def chordality_violations(shape: Sequence[int], zeros: Iterable[int] = ()) -> list[list]:
    """Cycles of length >= 6 in the free-cell graph with fewer than two
    chords.  An empty list means every long cycle is doubly chorded,
    which is the pattern condition for the rectangle walk to connect
    the fiber."""
    import networkx as nx

    G = _free_graph(shape, zeros)
    bad = []
    for cycle in nx.simple_cycles(G):
        L = len(cycle)
        if L < 6:
            continue
        pos = {v: t for t, v in enumerate(cycle)}
        chords = 0
        for a, b in itertools.combinations(cycle, 2):
            gap = abs(pos[a] - pos[b])
            if gap == 1 or gap == L - 1:
                continue
            if G.has_edge(a, b):
                chords += 1
        if chords < 2:
            bad.append(cycle)
    return bad


def is_doubly_chordal(shape: Sequence[int], zeros: Iterable[int] = ()) -> bool:
    return not chordality_violations(shape, zeros)


class DegenerateZeroPattern(ValueError):
    """A row or column has no free cells left."""


def _check_degenerate(shape: Sequence[int], zero_set: set[int]) -> None:
    d1, d2 = shape
    for i in range(d1):
        if all(i * d2 + j in zero_set for j in range(d2)):
            raise DegenerateZeroPattern(f"row {i} has no free cells")
    for j in range(d2):
        if all(i * d2 + j in zero_set for i in range(d1)):
            raise DegenerateZeroPattern(f"column {j} has no free cells")


def repair_zero_pattern(
    shape: Sequence[int], zeros: Iterable[int], rng: np.random.Generator
) -> tuple[int, ...]:
    """Grow the zero pattern until every long cycle is doubly chorded.

    While a violating cycle exists, pick one uniformly at random, pick
    one of its edges uniformly, and turn that cell into a structural
    zero.  Raises :class:`DegenerateZeroPattern` if a row or column
    runs out of free cells (before or during repair).
    """
    d1, d2 = shape
    zero_set = set(int(z) for z in zeros)
    _check_degenerate(shape, zero_set)
    while True:
        bad = chordality_violations(shape, zero_set)
        if not bad:
            return tuple(sorted(zero_set))
        cycle = bad[int(rng.integers(len(bad)))]
        L = len(cycle)
        t = int(rng.integers(L))
        a, b = cycle[t], cycle[(t + 1) % L]
        if a[0] == "c":
            a, b = b, a
        zero_set.add(a[1] * d2 + b[1])
        _check_degenerate(shape, zero_set)
