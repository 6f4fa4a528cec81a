"""Log-linear maximum likelihood and the chi-square statistic.

For complete independence the MLE has the closed form
pi_ij = r_i c_j / n^2, which makes a sharp oracle for the iterative
fitter: one sweep of iterative proportional fitting reaches it.  A zero
margin pins its cells to exactly 0, and a table with no MLE stops at
the sweep cap unconverged.  The statistic is the normalized chi-square
X(u) = sum (u_i/n - pi_i)^2 / pi_i over free cells.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fiberwalk.cli import main
from fiberwalk.mle import (
    MAX_SWEEPS,
    ChiSquare,
    fit_loglinear,
    independence_fitted,
)
from fiberwalk.models import (
    ConstraintMatrix,
    Independence,
    NoThreeWay,
    QuasiIndependence,
    Table,
    fiber_spec_from_observation,
)


def fit_independence(u):
    return fit_loglinear(Independence(u.shape).matrix, u)


def test_closed_form_two_by_two():
    u = Table((3, 1, 2, 2), (2, 2))
    fit = fit_independence(u)
    assert fit.converged
    want = independence_fitted(u)
    assert np.max(np.abs(fit.pi - want)) < 1e-6
    assert fit.discrepancy <= 1e-6 * u.n


def test_closed_form_three_by_four():
    u = Table(tuple(range(1, 13)), (3, 4))
    fit = fit_independence(u)
    assert fit.converged
    assert np.max(np.abs(fit.pi - independence_fitted(u))) < 1e-6


def test_fit_survives_saturating_table():
    # a table far from uniform, with a zero cell
    u = Table((12, 6, 2, 0, 9, 1, 1, 1, 8), (3, 3))
    fit = fit_independence(u)
    assert fit.converged
    assert np.max(np.abs(fit.pi - independence_fitted(u))) < 1e-6


def test_independence_fitted_zero_margin_raises():
    u = Table((0, 0, 1, 1), (2, 2))
    with pytest.raises(ValueError, match="zero margin"):
        independence_fitted(u)


def test_fit_with_structural_zeros():
    model = QuasiIndependence((3, 3), ((0, 0),))
    u = Table((0, 2, 1, 1, 1, 1, 2, 1, 1), (3, 3))
    spec = fiber_spec_from_observation(model, u)
    fit = fit_loglinear(model.matrix, u, zeros=spec.zero_set())
    assert fit.converged
    assert fit.pi[0] == 0.0
    assert fit.pi.sum() == pytest.approx(1.0)
    # fitted margins reproduce the observed ones
    got = model.matrix.entries @ (u.n * fit.pi)
    want = np.array(spec.margins, dtype=float)
    assert np.max(np.abs(got - want)) < 1e-4


def test_chi_square_hand_value():
    # u = [[1,0],[0,1]], uniform pi, n = 2: four terms of (0.25)^2/0.25
    u = Table((1, 0, 0, 1), (2, 2))
    pi = (0.25, 0.25, 0.25, 0.25)
    assert ChiSquare(pi, 2)(u.cells) == pytest.approx(1.0)


def test_chi_square_zero_prob_with_count_raises():
    u = Table((1, 1, 1, 1), (2, 2))
    with pytest.raises(ValueError, match="cell 0"):
        ChiSquare((0.0, 0.5, 0.25, 0.25), u.n)


def test_chi_square_skips_structural_zeros():
    u = Table((0, 2, 1, 1), (2, 2))
    pi = (0.0, 0.5, 0.25, 0.25)
    want = (2 / 4 - 0.5) ** 2 / 0.5 + (1 / 4 - 0.25) ** 2 / 0.25 * 2
    assert ChiSquare(pi, 4, zeros=(0,))(u.cells) == pytest.approx(want)


def test_chi_square_matches_array_formula():
    u = Table((3, 1, 2, 2), (2, 2))
    pi = independence_fitted(u)
    want = np.sum((np.asarray(u.cells) / u.n - pi) ** 2 / pi)
    assert ChiSquare(pi, u.n)(u.cells) == pytest.approx(want)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([np.int8, np.int16, np.int64]), st.data())
def test_chi_square_rows_have_the_bits_of_the_call(dtype, data):
    """Row by row, with and without structural zeros (whose cells the
    statistic skips, whatever they hold), in every cell dtype."""
    d = data.draw(st.integers(1, 12))
    zeros = data.draw(st.sets(st.integers(0, d - 1), max_size=d - 1))
    weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d))
    pi = np.array([0.0 if j in zeros else w for j, w in enumerate(weights)])
    pi /= pi.sum()
    n = data.draw(st.integers(1, 120))
    rows = data.draw(st.lists(st.lists(st.integers(0, 120), min_size=d, max_size=d),
                              min_size=1, max_size=6))
    stat = ChiSquare(pi, n, zeros=sorted(zeros))
    got = stat.rows(np.array(rows, dtype=dtype))
    assert got.dtype == np.float64
    assert got.tolist() == [stat(tuple(r)) for r in rows]


def test_chi_square_rows_past_int64_have_the_bits_of_the_call():
    """Cells past int64 arrive as an object array of Python ints, which
    ``rows`` divides as the call does."""
    n = 4 * 10**19
    rows = [(10**19, 2 * 10**19 + 1, 10**19 - 7, 0), (1, 2, 3, n - 6)]
    stat = ChiSquare(np.array([0.1, 0.2, 0.3, 0.4]), n)
    assert stat.rows(np.array(rows, dtype=object)).tolist() == [stat(r) for r in rows]


@settings(max_examples=15, deadline=None)
@given(
    st.tuples(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
    )
)
def test_fit_matches_closed_form_on_positive_tables(cells):
    u = Table(cells, (2, 2))
    fit = fit_independence(u)
    assert fit.converged
    assert np.max(np.abs(fit.pi - independence_fitted(u))) < 1e-6


@pytest.mark.parametrize(
    "cells, shape",
    [
        ((3, 1, 2, 2), (2, 2)),
        (tuple(range(1, 13)), (3, 4)),
        ((12, 6, 2, 0, 9, 1, 1, 1, 8), (3, 3)),
        ((0, 3, 1, 2, 0, 0, 5, 1, 0, 2, 2, 1), (2, 3, 2)),
    ],
)
def test_independence_converges_in_one_sweep(cells, shape):
    u = Table(cells, shape)
    fit = fit_loglinear(Independence(shape).matrix, u)
    assert fit.converged
    assert fit.iterations == 1
    assert np.max(np.abs(fit.pi - independence_fitted(u))) <= 1e-15


# a 3x3x3 table whose (i, j) margin at (1, 1) and (j, k) margin at
# (1, 2) are zero; the no-three-way MLE exists
PINNED_N3F = (2, 0, 2, 2, 0, 0, 0, 1, 0, 1, 1, 2, 0, 0, 0, 1, 1, 2, 1, 0, 1, 1, 1, 0, 1, 0, 0)


def test_zero_margin_pins_cells_to_exactly_zero(tmp_path, capsys):
    u = Table(PINNED_N3F, (3, 3, 3))
    spec = fiber_spec_from_observation(NoThreeWay(3), u)
    fit = fit_loglinear(spec.matrix, u)
    assert fit.converged
    pinned = spec.forced_zeros()
    assert pinned == {12, 13, 14, 5, 23}
    assert all(fit.pi[j] == 0.0 for j in pinned)
    assert all(fit.pi[j] > 0.0 for j in set(range(27)) - pinned)

    path = tmp_path / "pinned.tbl"
    path.write_text("3 3 3\n" + " ".join(map(str, PINNED_N3F)) + "\n")
    assert main(["test", "--table", str(path), "--model", "n3f", "--steps", "500"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "exact p: " in captured.out


def test_no_mle_stops_at_the_sweep_cap(tmp_path, capsys):
    # every 2-margin is 1 or 2, yet the MLE would need pi -> 0 at the
    # corners 0 and 7: IPF converges only sublinearly
    cells = (0, 1, 1, 1, 1, 1, 1, 0)
    u = Table(cells, (2, 2, 2))
    fit = fit_loglinear(NoThreeWay(2).matrix, u)
    assert not fit.converged
    assert fit.iterations == MAX_SWEEPS == 1000

    path = tmp_path / "nomle.tbl"
    path.write_text("2 2 2\n" + " ".join(map(str, cells)) + "\n")
    assert main(["test", "--table", str(path), "--model", "n3f", "--steps", "200"]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: MLE stopped at discrepancy ")
    assert "after 1000 iterations" in captured.err
    assert "mcmc p: " in captured.out


def test_fit_needs_a_zero_one_matrix():
    A = ConstraintMatrix([[1, 1, 0], [0, 2, 1]])
    with pytest.raises(ValueError, match="0/1"):
        fit_loglinear(A, Table((1, 1, 1), (3,)))
