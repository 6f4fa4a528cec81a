"""Log-linear maximum likelihood and the chi-square statistic.

For complete independence the MLE has the closed form
pi_ij = r_i c_j / n^2, which makes a sharp oracle for the iterative
fitter.  The statistic is the normalized chi-square
X(u) = sum (u_i/n - pi_i)^2 / pi_i over free cells.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fiberwalk.mle import (
    ChiSquare,
    fit_loglinear,
    independence_fitted,
    log_likelihood,
    score,
)
from fiberwalk.models import (
    Independence,
    QuasiIndependence,
    Table,
    fiber_spec_from_observation,
    model_matrix,
)


def fit_independence(u):
    return fit_loglinear(model_matrix(Independence(u.shape)), u)


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
    # a table that pushes the softmax toward a vertex early on
    u = Table((12, 6, 2, 0, 9, 1, 1, 1, 8), (3, 3))
    fit = fit_independence(u)
    assert fit.converged
    assert np.max(np.abs(fit.pi - independence_fitted(u))) < 1e-6


def test_independence_fitted_zero_margin_raises():
    u = Table((0, 0, 1, 1), (2, 2))
    with pytest.raises(ValueError, match="zero margin"):
        independence_fitted(u)


def test_gradient_matches_finite_differences():
    u = Table((3, 1, 2, 2, 0, 4), (2, 3))
    A = model_matrix(Independence((2, 3)))
    rng = np.random.default_rng(4)
    theta = rng.normal(scale=0.3, size=A.entries.shape[0])
    g = score(theta, A, u)
    eps = 1e-6
    for k in range(len(theta)):
        e = np.zeros_like(theta)
        e[k] = eps
        fd = (log_likelihood(theta + e, A, u) - log_likelihood(theta - e, A, u)) / (
            2 * eps
        )
        assert abs(g[k] - fd) < 1e-5


def test_fit_with_structural_zeros():
    model = QuasiIndependence((3, 3), ((0, 0),))
    u = Table((0, 2, 1, 1, 1, 1, 2, 1, 1), (3, 3))
    spec = fiber_spec_from_observation(model, u)
    fit = fit_loglinear(model_matrix(model), u, zeros=spec.zero_set())
    assert fit.converged
    assert fit.pi[0] == 0.0
    assert fit.pi.sum() == pytest.approx(1.0)
    # fitted margins reproduce the observed ones
    got = model_matrix(model).entries @ (u.n * fit.pi)
    want = np.array(spec.margins, dtype=float)
    assert np.max(np.abs(got - want)) < 1e-4


def test_fit_report_mentions_convergence():
    u = Table((3, 1, 2, 2), (2, 2))
    text = fit_independence(u).report()
    assert "converged" in text
    assert "discrepancy" in text


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
