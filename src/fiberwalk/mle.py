"""Maximum-likelihood fitting and the conditional test statistic.

The fitted cell probabilities pi are zero on structural zeros, and the
MLE, which maximizes sum_i u_i log pi_i over the model for a table u
with n = sum(u), is the pi whose fitted margins A(n pi) equal the
observed ones, b = A u.  :func:`fit_loglinear` finds it by iterative
proportional fitting (Deming & Stephan 1940): starting from a constant
on the free cells, each sweep rescales the cells of every constraint
row in turn so that the row's fitted margin equals b_i.  Every model
here has a 0/1 constraint matrix, which is what IPF needs.  The fit
stops once the margin discrepancy ||A(n pi) - b||_2 is at most
``TOLERANCE * n``, or after ``MAX_SWEEPS`` sweeps with
``converged=False``.

A row with b_i = 0 pins every cell it covers to exactly 0, and those
cells stay 0.  When the observed table has sampling zeros in the wrong
places (some n3f tables) the MLE does not exist: the fitted values
tend to 0 on cells the margins do not force to 0, IPF converges only
sublinearly and stops at the sweep cap, reporting ``converged=False``.
For the complete independence model the fitted cell probabilities also
have the closed form (product of marginal proportions), which one
sweep reproduces; it is kept here as the cross-check route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .models import ConstraintMatrix, Table

__all__ = [
    "FitResult",
    "fit_loglinear",
    "independence_fitted",
    "ChiSquare",
]

# the stopping rule of fit_loglinear
TOLERANCE = 1e-12
MAX_SWEEPS = 1000


def _free_cells(d: int, zeros: Iterable[int]) -> np.ndarray:
    mask = np.ones(d, dtype=bool)
    for s in zeros:
        mask[s] = False
    return np.flatnonzero(mask)


@dataclass(frozen=True)
class FitResult:
    """Fitted cell probabilities (zero on structural zeros and on cells
    pinned by a zero margin), the number of IPF sweeps, and the final
    margin discrepancy ||A(n pi) - b||_2."""

    pi: np.ndarray
    iterations: int
    discrepancy: float
    converged: bool


def fit_loglinear(matrix: ConstraintMatrix, u: Table, zeros: Sequence[int] = ()) -> FitResult:
    """Fit cell probabilities by iterative proportional fitting.

    Returns the fitted probabilities (zero on structural zeros) after
    the first sweep that brings the margin discrepancy to at most
    ``TOLERANCE * n``; ``converged`` is False when ``MAX_SWEEPS``
    sweeps did not.  Raises ValueError unless every matrix entry is 0
    or 1.
    """
    A = matrix.entries
    if ((A != 0) & (A != 1)).any():
        raise ValueError("iterative proportional fitting needs a 0/1 constraint matrix")
    free = _free_cells(matrix.cols, zeros)
    if free.size == 0:
        raise ValueError("every cell is a structural zero")
    zero_set = set(zeros)
    for s in zero_set:
        if u.cells[s] != 0:
            raise ValueError(f"table is nonzero at structural zero cell {s}")
    n = u.n
    if n == 0:
        raise ValueError("cannot fit an all-zero table")

    targets = A @ np.asarray(u.cells, dtype=float)
    rows = [
        (np.array([j for j in support if j not in zero_set], dtype=np.intp), target)
        for support, target in zip(matrix.row_support, targets)
    ]
    fitted = np.zeros(matrix.cols)
    fitted[free] = n / free.size
    for sweep in range(1, MAX_SWEEPS + 1):
        for cells, target in rows:
            current = fitted[cells].sum()
            fitted[cells] *= target / current if target else 0.0
        discrepancy = float(np.linalg.norm(A @ fitted - targets))
        converged = discrepancy <= TOLERANCE * n
        if converged:
            break
    return FitResult(fitted / n, sweep, discrepancy, converged)


def independence_fitted(u: Table) -> np.ndarray:
    """Closed-form fitted probabilities under complete independence:
    the outer product of the marginal proportions (r_i c_j / n^2 for
    two-way tables).  Requires every 1-margin strictly positive."""
    n = u.n
    if n == 0:
        raise ValueError("cannot fit an all-zero table")
    arr = u.to_array()
    pi = np.ones((), dtype=float)
    for axis in range(arr.ndim):
        axes = tuple(a for a in range(arr.ndim) if a != axis)
        marg = arr.sum(axis=axes)
        if (marg == 0).any():
            level = int(np.flatnonzero(marg == 0)[0])
            raise ValueError(f"zero margin at axis {axis}, level {level}")
        pi = np.multiply.outer(pi, marg / n)
    return pi.ravel()


class ChiSquare:
    """The statistic X(u) = sum over free cells of (u_i/n - pi_i)^2 / pi_i,
    with pi frozen at the fit to the observed table.

    Callable on flat cell tuples, in pure Python because the walker's
    scalar loop calls it on every newly visited table; ``rows`` takes
    many tables at once.
    """

    __slots__ = ("support", "pi", "inv_pi", "n")

    def __init__(self, pi: np.ndarray, n: int, zeros: Sequence[int] = ()):
        zero_set = set(zeros)
        support = [i for i in range(len(pi)) if i not in zero_set]
        for i in support:
            if pi[i] <= 0:
                raise ValueError(f"fitted probability is not positive at free cell {i}")
        self.support = tuple(support)
        self.pi = tuple(float(pi[i]) for i in support)
        self.inv_pi = tuple(1.0 / float(pi[i]) for i in support)
        self.n = int(n)

    def __call__(self, cells: Sequence[int]) -> float:
        n = self.n
        total = 0.0
        for idx, p, ip in zip(self.support, self.pi, self.inv_pi):
            diff = cells[idx] / n - p
            total += diff * diff * ip
        return total

    def rows(self, cells: np.ndarray) -> np.ndarray:
        """The statistic of each row of a (k, d) cell array.  Each term
        is computed as in ``__call__`` and the terms are summed column by
        column in its order, so each value has the bits of the call on
        that row."""
        # float64 also for Python ints past int64, divided as the call divides
        terms = (cells.T[list(self.support)] / self.n).astype(np.float64, copy=False)
        terms -= np.array(self.pi)[:, None]
        terms *= terms
        terms *= np.array(self.inv_pi)[:, None]
        total = np.zeros(len(cells))
        for term in terms:
            total += term
        return total
