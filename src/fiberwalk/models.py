"""Contingency tables, models, constraint matrices and fiber specifications.

A fiber is the set of nonnegative integer tables sharing the margins
``b = A @ u_obs`` under a constraint matrix ``A``, intersected with the
cells forced to zero by the model (structural zeros).  A model is a
:class:`Hierarchical`: the faces whose margins it fixes, which give
``A``, and its structural zeros.  :func:`Independence`,
:func:`QuasiIndependence` and :func:`NoThreeWay` build the common
ones.  Everything in this module is immutable after construction and
safe to share across threads.

Cell indexing is row-major with the last axis fastest, everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, TextIO

import numpy as np

__all__ = [
    "Table",
    "ConstraintMatrix",
    "FiberSpec",
    "Hierarchical",
    "Independence",
    "QuasiIndependence",
    "NoThreeWay",
    "margins",
    "fiber_spec_from_observation",
    "flatten_index",
    "unflatten_index",
    "read_table",
    "write_table",
]


def flatten_index(multi: Sequence[int], shape: Sequence[int]) -> int:
    """Row-major (last axis fastest) flat index of a multi-index."""
    if len(multi) != len(shape):
        raise ValueError(f"multi-index {multi} does not match shape {shape}")
    flat = 0
    for coord, size in zip(multi, shape):
        if not 0 <= coord < size:
            raise ValueError(f"coordinate {coord} out of range for axis size {size}")
        flat = flat * size + coord
    return flat


def unflatten_index(flat: int, shape: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`flatten_index`."""
    coords = []
    for size in reversed(shape):
        coords.append(flat % size)
        flat //= size
    if flat:
        raise ValueError("flat index out of range")
    return tuple(reversed(coords))


@dataclass(frozen=True)
class Table:
    """A nonnegative integer contingency table.

    ``cells`` holds the row-major flattening of the table; ``shape``
    the axis sizes.  ``n`` is the sample size (sum of all cells).
    """

    cells: tuple[int, ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(map(int, self.cells)))
        object.__setattr__(self, "shape", tuple(map(int, self.shape)))
        d = 1
        for s in self.shape:
            if s < 1:
                raise ValueError(f"axis size must be >= 1, got {s}")
            d *= s
        if d != len(self.cells):
            raise ValueError(
                f"shape {self.shape} implies {d} cells, got {len(self.cells)}"
            )
        if min(self.cells) < 0:
            raise ValueError("table cells must be nonnegative")

    @classmethod
    def _trusted(cls, cells: tuple[int, ...], shape: tuple[int, ...]) -> "Table":
        """Unchecked: for int tuples known to fit ``shape``, at a tenth of the cost."""
        t = object.__new__(cls)
        vars(t).update(cells=cells, shape=shape)
        return t

    @property
    def n(self) -> int:
        return sum(self.cells)

    @property
    def d(self) -> int:
        return len(self.cells)

    def __getitem__(self, multi) -> int:
        if isinstance(multi, int):
            return self.cells[multi]
        return self.cells[flatten_index(multi, self.shape)]

    def to_array(self) -> np.ndarray:
        return np.asarray(self.cells, dtype=np.int64).reshape(self.shape)

    @classmethod
    def from_array(cls, arr) -> "Table":
        a = np.asarray(arr)
        return cls(cells=tuple(int(x) for x in a.ravel()), shape=tuple(a.shape))


class ConstraintMatrix:
    """The sufficient-statistics matrix: nonnegative integers, dense.

    Keeps per-row and per-column support index lists because the
    encoder and the enumerator iterate rows/columns by support.
    Every column must have at least one positive entry (this is what
    keeps fibers finite in scope here).
    """

    __slots__ = ("entries", "rows", "cols", "row_support", "col_support", "_key")

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("constraint matrix must be 2-dimensional")
        if (arr < 0).any():
            raise ValueError("constraint matrix entries must be nonnegative")
        if arr.shape[1] == 0:
            raise ValueError("constraint matrix must have at least one column")
        if not (arr > 0).any(axis=0).all():
            bad = int(np.flatnonzero(~(arr > 0).any(axis=0))[0])
            raise ValueError(f"column {bad} has no positive entry (unbounded cell)")
        arr.flags.writeable = False
        self.entries = arr
        self.rows, self.cols = arr.shape
        self.row_support = tuple(
            tuple(int(j) for j in np.flatnonzero(arr[i])) for i in range(self.rows)
        )
        self.col_support = tuple(
            tuple(int(i) for i in np.flatnonzero(arr[:, j])) for j in range(self.cols)
        )
        self._key = (self.rows, self.cols, arr.tobytes())

    def __eq__(self, other):
        return isinstance(other, ConstraintMatrix) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"ConstraintMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class FiberSpec:
    """A fiber to walk on: matrix A, margins b, structural zeros S.

    ``structural_zeros`` holds sorted flat cell indices; those cells are
    fixed to 0 in every fiber element.  ``shape`` carries the table
    geometry so enumeration and decoding can rebuild shaped tables.
    """

    matrix: ConstraintMatrix
    margins: tuple[int, ...]
    structural_zeros: tuple[int, ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "margins", tuple(int(b) for b in self.margins))
        object.__setattr__(
            self, "structural_zeros", tuple(sorted(set(int(s) for s in self.structural_zeros)))
        )
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        if len(self.margins) != self.matrix.rows:
            raise ValueError(
                f"margin vector has length {len(self.margins)}, matrix has {self.matrix.rows} rows"
            )
        if any(b < 0 for b in self.margins):
            raise ValueError("negative margin: the fiber would be empty, refusing")
        d = 1
        for s in self.shape:
            d *= s
        if d != self.matrix.cols:
            raise ValueError(f"shape {self.shape} does not match {self.matrix.cols} columns")
        for s in self.structural_zeros:
            if not 0 <= s < self.matrix.cols:
                raise ValueError(f"structural zero index {s} out of range")

    @property
    def d(self) -> int:
        return self.matrix.cols

    def zero_set(self) -> frozenset[int]:
        return frozenset(self.structural_zeros)

    def forced_zeros(self) -> frozenset[int]:
        """Cells that are 0 in every fiber element: the structural zeros
        and every cell a zero margin covers."""
        pinned = (self.matrix.row_support[i] for i, b in enumerate(self.margins) if b == 0)
        return self.zero_set().union(*pinned)

    def contains(self, u: Table) -> bool:
        """Membership check: A u = b and u zero on S."""
        if u.shape != self.shape:
            return False
        if margins(self.matrix, u) != self.margins:
            return False
        return all(u.cells[s] == 0 for s in self.structural_zeros)


def _face_margins(shape: tuple[int, ...], faces) -> ConstraintMatrix:
    """0/1 matrix of the face margins of a table: for each face (a tuple
    of axes) one row per level combination of those axes, row-major,
    with a 1 at every cell that has those levels on those axes."""
    coords = np.indices(shape).reshape(len(shape), -1)
    blocks = []
    for face in faces:
        sizes = [shape[a] for a in face]
        level = np.ravel_multi_index(coords[list(face)], sizes)
        blocks.append(np.arange(int(np.prod(sizes)))[:, None] == level)
    return ConstraintMatrix(np.vstack(blocks))


@dataclass(frozen=True)
class Hierarchical:
    """A hierarchical log-linear model: the table shape, the faces
    (tuples of axes) whose margins are its sufficient statistics, and
    the structural zeros (multi-indices).

    ``matrix`` stacks the face margins in the order the faces are
    given; ``structural_zeros`` are the zeros' flat indices, sorted.
    """

    shape: tuple[int, ...]
    faces: tuple[tuple[int, ...], ...]
    zeros: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        faces = tuple(tuple(int(a) for a in face) for face in self.faces)
        zeros = tuple(sorted(set(tuple(int(c) for c in z) for z in self.zeros)))
        if len(shape) < 2:
            raise ValueError("need at least 2 axes")
        if any(s < 2 for s in shape):
            raise ValueError("every axis size must be >= 2")
        if not faces:
            raise ValueError("a model needs at least one face")
        for face in faces:
            if not face or len(set(face)) != len(face) or min(face) < 0 or max(face) >= len(shape):
                raise ValueError(f"face {face} is not a set of axes of shape {shape}")
        for z in zeros:
            flatten_index(z, shape)  # range check
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "zeros", zeros)

    @cached_property
    def matrix(self) -> ConstraintMatrix:
        return _face_margins(self.shape, self.faces)

    @property
    def structural_zeros(self) -> tuple[int, ...]:
        return tuple(flatten_index(z, self.shape) for z in self.zeros)


def Independence(shape: Sequence[int]) -> Hierarchical:
    """Complete independence on a multi-way table: every 1-marginal.
    For two-way shapes the matrix is the node-edge incidence matrix of
    the complete bipartite graph."""
    return Hierarchical(shape, [(axis,) for axis in range(len(shape))])


def QuasiIndependence(shape: Sequence[int], zeros: Iterable[Sequence[int]] = ()) -> Hierarchical:
    """Two-way independence with structural zeros (given as multi-indices)."""
    if len(shape) != 2:
        raise ValueError("quasi-independence is only defined for 2-way shapes here")
    return Hierarchical(shape, [(0,), (1,)], zeros)


def NoThreeWay(d: int) -> Hierarchical:
    """No-3-factor interaction on d x d x d tables: the (i,j)-, (i,k)-
    and (j,k)-margins in that order, 3*d^2 rows."""
    return Hierarchical((d, d, d), [(0, 1), (0, 2), (1, 2)])


def margins(A: ConstraintMatrix, u: Table) -> tuple[int, ...]:
    """Exact integer margin vector A u, on Python ints, so no cell or
    margin overflows."""
    if A.cols != u.d:
        raise ValueError(f"matrix has {A.cols} columns, table has {u.d} cells")
    return tuple((A.entries @ np.array(u.cells, dtype=object)).tolist())


def fiber_spec_from_observation(model: Hierarchical, u_obs: Table) -> FiberSpec:
    """Package b := A u_obs with the model's structural zeros.

    The observation must respect the structural zeros; the returned
    fiber always contains it.
    """
    if u_obs.shape != model.shape:
        raise ValueError(f"table shape {u_obs.shape} does not match model shape {model.shape}")
    A = model.matrix
    zeros = model.structural_zeros
    for s in zeros:
        if u_obs.cells[s] != 0:
            raise ValueError(
                f"observation has count {u_obs.cells[s]} at structural zero "
                f"{unflatten_index(s, u_obs.shape)}"
            )
    return FiberSpec(
        matrix=A,
        margins=margins(A, u_obs),
        structural_zeros=zeros,
        shape=u_obs.shape,
    )


def write_table(u: Table, sink: TextIO, zeros: Iterable[Sequence[int]] = ()) -> None:
    """Plain-text table format: shape line, cells line, then one line
    per structural-zero multi-index."""
    sink.write(" ".join(str(s) for s in u.shape) + "\n")
    sink.write(" ".join(str(c) for c in u.cells) + "\n")
    for z in zeros:
        sink.write(" ".join(str(c) for c in z) + "\n")


def read_table(source: TextIO) -> tuple[Table, tuple[tuple[int, ...], ...]]:
    """Parse the plain-text table format; returns (table, zero multi-indices)."""
    lines = [ln.strip() for ln in source.read().splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 2:
        raise ValueError("table file needs a shape line and a cells line")
    try:
        shape = tuple(int(t) for t in lines[0].split())
        cells = tuple(int(t) for t in lines[1].split())
    except ValueError as exc:
        raise ValueError(f"malformed table file: {exc}") from None
    table = Table(cells=cells, shape=shape)
    zeros = []
    for ln in lines[2:]:
        multi = tuple(int(t) for t in ln.split())
        flatten_index(multi, shape)  # range check
        zeros.append(multi)
    return table, tuple(zeros)
