"""Constraint matrices, tables, and fiber specs.

The fiber of an observed table is the set of nonnegative integer
tables with the same sufficient statistics (margins) and the same
structural zeros.  These tests pin the bookkeeping: index flattening,
margin computation, the table file format, and spec construction.
"""

import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fiberwalk.models import (
    ConstraintMatrix,
    FiberSpec,
    Independence,
    NoThreeWay,
    QuasiIndependence,
    Table,
    build_independence_matrix,
    build_n3f_matrix,
    fiber_spec_from_observation,
    flatten_index,
    margins,
    model_matrix,
    read_table,
    unflatten_index,
    write_table,
)


@given(
    st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=3).flatmap(
        lambda shape: st.tuples(
            st.just(tuple(shape)),
            st.tuples(*[st.integers(min_value=0, max_value=s - 1) for s in shape]),
        )
    )
)
def test_flatten_unflatten_round_trip(shape_multi):
    shape, multi = shape_multi
    flat = flatten_index(multi, shape)
    assert unflatten_index(flat, shape) == tuple(multi)
    assert 0 <= flat < int(np.prod(shape))


def test_flatten_is_row_major():
    # (i, j) -> i * ncols + j for two-way tables
    assert flatten_index((1, 2), (3, 4)) == 6
    assert unflatten_index(6, (3, 4)) == (1, 2)


def test_independence_matrix_rows_are_margins():
    A = build_independence_matrix((2, 3))
    u = Table((1, 2, 3, 4, 5, 6), (2, 3))
    got = margins(A, u)
    # row sums then column sums
    assert got == (6, 15, 5, 7, 9)


def test_independence_matrix_entries_are_indicator():
    A = build_independence_matrix((3, 3))
    arr = A.entries
    assert arr.shape == (6, 9)
    assert set(arr.ravel().tolist()) == {0, 1}
    # each cell belongs to exactly one row-margin and one column-margin
    assert (arr.sum(axis=0) == 2).all()


def test_n3f_matrix_shape():
    A = build_n3f_matrix(2)
    # three pairwise margins on a 2x2x2 table: 3 * 4 rows, 8 cells
    assert A.entries.shape == (12, 8)
    assert (A.entries.sum(axis=0) == 3).all()


def test_constraint_matrix_rejects_unsupported_column():
    with pytest.raises(ValueError):
        ConstraintMatrix(np.array([[1, 0], [1, 0]]))


def test_table_n_and_to_array():
    u = Table((1, 2, 3, 4), (2, 2))
    assert u.n == 10
    assert u.to_array().tolist() == [[1, 2], [3, 4]]
    assert Table.from_array(u.to_array()) == u


def test_spec_from_observation_independence():
    u = Table((2, 1, 0, 3), (2, 2))
    spec = fiber_spec_from_observation(Independence((2, 2)), u)
    assert spec.margins == (3, 3, 2, 4)
    assert spec.structural_zeros == ()
    assert spec.contains(u)
    assert not spec.contains(Table((3, 0, 0, 3), (2, 2)))


def test_spec_from_observation_quasi_independence_zeros():
    u = Table((0, 1, 1, 0), (2, 2))
    model = QuasiIndependence((2, 2), ((0, 0),))
    spec = fiber_spec_from_observation(model, u)
    assert spec.structural_zeros == (0,)
    assert spec.zero_set() == {0}


def test_forced_zeros_add_the_cells_of_zero_margins():
    # structural zero at (1, 2); row 0 and columns 1 and 2 have margin 0
    model = QuasiIndependence((2, 3), ((1, 2),))
    spec = fiber_spec_from_observation(model, Table((0, 0, 0, 3, 0, 0), (2, 3)))
    assert spec.forced_zeros() == {0, 1, 2, 4, 5}
    spec = fiber_spec_from_observation(Independence((2, 2)), Table((2, 1, 0, 3), (2, 2)))
    assert spec.forced_zeros() == set()


def test_spec_rejects_observation_violating_zero():
    u = Table((1, 1, 1, 1), (2, 2))
    model = QuasiIndependence((2, 2), ((0, 0),))
    with pytest.raises(ValueError):
        fiber_spec_from_observation(model, u)


def test_model_matrix_dispatch():
    assert model_matrix(Independence((2, 2))).entries.shape == (4, 4)
    assert model_matrix(QuasiIndependence((3, 3), ((0, 0),))).entries.shape == (6, 9)
    assert model_matrix(NoThreeWay(2)).entries.shape == (12, 8)


def test_write_read_table_round_trip():
    u = Table((1, 2, 3, 0), (2, 2))
    buf = io.StringIO()
    write_table(u, buf, zeros=((1, 1),))
    got, zeros = read_table(io.StringIO(buf.getvalue()))
    assert got == u
    assert zeros == ((1, 1),)


def test_read_table_formats():
    t, z = read_table(io.StringIO("2 3\n0 1 2 3 4 5\n"))
    assert t.shape == (2, 3) and t.cells == (0, 1, 2, 3, 4, 5)
    assert z == ()


def test_read_table_bad_input():
    with pytest.raises(ValueError):
        read_table(io.StringIO("2 2\n1 2 3\n"))  # too few cells
    with pytest.raises(ValueError):
        read_table(io.StringIO("2 2\n1 2 x 4\n"))


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_margins_match_numpy(i, j):
    cells = tuple(range(1, 17))
    u = Table(cells, (4, 4))
    A = build_independence_matrix((4, 4))
    arr = u.to_array()
    got = margins(A, u)
    assert got[i] == arr[i].sum()
    assert got[4 + j] == arr[:, j].sum()
