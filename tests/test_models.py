"""Constraint matrices, tables, and fiber specs.

The fiber of an observed table is the set of nonnegative integer
tables with the same sufficient statistics (margins) and the same
structural zeros.  These tests pin the bookkeeping: index flattening,
margin computation, the table file format, and spec construction.
"""

import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fiberwalk.models import (
    ConstraintMatrix,
    FiberSpec,
    Hierarchical,
    Independence,
    NoThreeWay,
    QuasiIndependence,
    Table,
    fiber_spec_from_observation,
    flatten_index,
    margins,
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
    A = Independence((2, 3)).matrix
    u = Table((1, 2, 3, 4, 5, 6), (2, 3))
    got = margins(A, u)
    # row sums then column sums
    assert got == (6, 15, 5, 7, 9)


def test_independence_matrix_entries_are_indicator():
    A = Independence((3, 3)).matrix
    arr = A.entries
    assert arr.shape == (6, 9)
    assert set(arr.ravel().tolist()) == {0, 1}
    # each cell belongs to exactly one row-margin and one column-margin
    assert (arr.sum(axis=0) == 2).all()


def test_n3f_matrix_shape():
    A = NoThreeWay(2).matrix
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
    """Every model is a Hierarchical; its matrix comes from its faces."""
    models = (Independence((2, 2)), QuasiIndependence((3, 3), ((0, 0),)), NoThreeWay(2))
    assert all(type(m) is Hierarchical for m in models)
    assert [m.matrix.entries.shape for m in models] == [(4, 4), (6, 9), (12, 8)]
    assert NoThreeWay(2).faces == ((0, 1), (0, 2), (1, 2))
    assert QuasiIndependence((3, 4), ()) == Independence((3, 4))
    assert QuasiIndependence((3, 4), [[1, 2], (0, 0), (1, 2)]).zeros == ((0, 0), (1, 2))
    assert QuasiIndependence((3, 4), ((1, 2), (0, 0))).structural_zeros == (0, 6)
    assert Independence((2, 3, 4)).matrix == Hierarchical((2, 3, 4), ((0,), (1,), (2,))).matrix


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: QuasiIndependence((2, 2, 2), ()), "only defined for 2-way shapes"),
        (lambda: Independence((3,)), "need at least 2 axes"),
        (lambda: Independence((3, 1)), "every axis size must be >= 2"),
        (lambda: NoThreeWay(1), "every axis size must be >= 2"),
        (lambda: Hierarchical((2, 2), ()), "at least one face"),
        (lambda: Hierarchical((2, 2), ((0, 2),)), "not a set of axes"),
        (lambda: Hierarchical((2, 2), ((1, 1),)), "not a set of axes"),
        (lambda: QuasiIndependence((2, 2), ((0, 2),)), "out of range"),
    ],
    ids=["quasi-3-way", "one-axis", "size-1", "n3f-1", "no-face", "bad-axis",
         "repeated-axis", "zero-out-of-range"],
)
def test_model_checks_its_shape_faces_and_zeros(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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
    A = Independence((4, 4)).matrix
    arr = u.to_array()
    got = margins(A, u)
    assert got[i] == arr[i].sum()
    assert got[4 + j] == arr[:, j].sum()


# sha256 of the entries (int64, row-major) of each face-margin matrix
GOLDEN_MATRICES = {
    "independence:2x2": "ab32e8caa2f67e60c3cfc60cd27d6af16fc7196ce0a920a8ad3e2d13687349a2",
    "independence:2x3": "f24975268b1f4db81315fba4c0ba4627df250f4d70e0f63291614ca8ed3f157c",
    "independence:3x2": "968058c7551957f8e4f045b14a57096f7e7d5485e3bd6c055ecc24cfec0f9d74",
    "independence:3x3": "bc9c371b555379671192bc56413116d32fe327c13ce0e0f57b53d4af23df1929",
    "independence:4x4": "d8491f43c24c8b970b9706c6c98bb9da5894433a95d87139b0ca4ccd9221a53d",
    "independence:4x5": "7f6aef306b3a94354bf5f4093d07e52f327a8d20d0cecfec7d9756f81bd4f0a0",
    "independence:5x5": "8b3743c0d6e4c4b9c32ecb91c1d85d95eb161dbdd48f0392bfd97cc89a9fa28d",
    "independence:2x3x4": "44a557c601e0e935920745ce9c374fff2ba21a66d17ceeffd8e7b0c358959161",
    "independence:3x3x3": "e14eab1583a50886e87417a9ee22bba2f20bd2138a598a9ed046dc9494692c47",
    "independence:2x2x2x2": "4581899bb3d070563aede0cd0ac8389bd52e114e1f794d0cdcb813029715634e",
    "n3f:2": "84870c31f65dac949ea220c3f4ea19b777c122823d3834cd2c03b3be21692b12",
    "n3f:3": "0b857e519cfc0277e1872a26d96890234169f1238171c25427415e895f4fc6e0",
    "n3f:4": "a105398476bb421c524e57433e3066ae8a32dcffc510db5b54756a98a2585079",
    "n3f:5": "2376c59fe772acbef9fe3cfe7df4b85ad7fe273d2658804f4c86296d7a3d5b22",
}


def _matrix_digest(A):
    return hashlib.sha256(repr(A.entries.shape).encode() + A.entries.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_MATRICES))
def test_matrix_golden(name):
    kind, dims = name.split(":")
    size = tuple(int(t) for t in dims.split("x"))
    A = NoThreeWay(size[0]).matrix if kind == "n3f" else Independence(size).matrix
    assert _matrix_digest(A) == GOLDEN_MATRICES[name]
