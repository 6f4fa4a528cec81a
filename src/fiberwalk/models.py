"""Contingency tables, constraint matrices and fiber specifications.

A fiber is the set of nonnegative integer tables sharing the margins
``b = A @ u_obs`` under a constraint matrix ``A``, intersected with the
cells forced to zero by the model (structural zeros).  Everything in
this module is immutable after construction and safe to share across
threads.

Cell indexing is row-major with the last axis fastest, everywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO, Union

import numpy as np

__all__ = [
    "Table",
    "ConstraintMatrix",
    "FiberSpec",
    "Independence",
    "QuasiIndependence",
    "NoThreeWay",
    "ModelSpec",
    "build_independence_matrix",
    "build_n3f_matrix",
    "margins",
    "model_matrix",
    "model_structural_zeros",
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


@dataclass(frozen=True)
class Independence:
    """Complete independence model on a multi-way table."""

    shape: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))


@dataclass(frozen=True)
class QuasiIndependence:
    """Two-way independence with structural zeros (given as multi-indices)."""

    shape: tuple[int, int]
    zeros: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        object.__setattr__(
            self, "zeros", tuple(sorted(set(tuple(int(c) for c in z) for z in self.zeros)))
        )
        if len(self.shape) != 2:
            raise ValueError("quasi-independence is only defined for 2-way shapes here")


@dataclass(frozen=True)
class NoThreeWay:
    """No-3-factor interaction model on d x d x d tables."""

    d: int

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.d, self.d, self.d)


ModelSpec = Union[Independence, QuasiIndependence, NoThreeWay]


def build_independence_matrix(shape: Sequence[int]) -> ConstraintMatrix:
    """0/1 matrix of all 1-marginals of a k-way table.

    One row per (axis, level) pair; row (a, j) has a 1 exactly at the
    cells whose a-th coordinate is j.  For 2-way shapes this is the
    node-edge incidence matrix of the complete bipartite graph.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) < 2:
        raise ValueError("need at least 2 axes")
    if any(s < 2 for s in shape):
        raise ValueError("every axis size must be >= 2")
    d = int(np.prod(shape))
    k = sum(shape)
    A = np.zeros((k, d), dtype=np.int64)
    row = 0
    for axis, size in enumerate(shape):
        for level in range(size):
            for multi in itertools.product(*(range(s) for s in shape)):
                if multi[axis] == level:
                    A[row, flatten_index(multi, shape)] = 1
            row += 1
    return ConstraintMatrix(A)


def build_n3f_matrix(d: int) -> ConstraintMatrix:
    """0/1 matrix of all pairwise 2-margins of a d x d x d table.

    3*d^2 rows: the (i,j)-, (i,k)- and (j,k)-margins in that order;
    every column sums to 3.
    """
    d = int(d)
    if d < 2:
        raise ValueError("axis size must be >= 2")
    shape = (d, d, d)
    n_cells = d ** 3
    A = np.zeros((3 * d * d, n_cells), dtype=np.int64)
    row = 0
    for axes in ((0, 1), (0, 2), (1, 2)):
        for levels in itertools.product(range(d), range(d)):
            for multi in itertools.product(range(d), range(d), range(d)):
                if (multi[axes[0]], multi[axes[1]]) == levels:
                    A[row, flatten_index(multi, shape)] = 1
            row += 1
    return ConstraintMatrix(A)


def margins(A: ConstraintMatrix, u: Table) -> tuple[int, ...]:
    """Exact integer margin vector A u."""
    if A.cols != u.d:
        raise ValueError(f"matrix has {A.cols} columns, table has {u.d} cells")
    vec = np.asarray(u.cells, dtype=np.int64)
    return tuple(int(x) for x in A.entries @ vec)


def model_matrix(model: ModelSpec) -> ConstraintMatrix:
    """The sufficient-statistics matrix of a model family instance."""
    if isinstance(model, Independence):
        return build_independence_matrix(model.shape)
    if isinstance(model, QuasiIndependence):
        return build_independence_matrix(model.shape)
    if isinstance(model, NoThreeWay):
        return build_n3f_matrix(model.d)
    raise TypeError(f"unknown model spec {model!r}")


def model_structural_zeros(model: ModelSpec) -> tuple[int, ...]:
    """Flat structural-zero indices of a model family instance."""
    if isinstance(model, QuasiIndependence):
        return tuple(flatten_index(z, model.shape) for z in model.zeros)
    return ()


def fiber_spec_from_observation(model: ModelSpec, u_obs: Table) -> FiberSpec:
    """Package b := A u_obs with the model's structural zeros.

    The observation must respect the structural zeros; the returned
    fiber always contains it.
    """
    if u_obs.shape != model.shape:
        raise ValueError(f"table shape {u_obs.shape} does not match model shape {model.shape}")
    A = model_matrix(model)
    zeros = model_structural_zeros(model)
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
