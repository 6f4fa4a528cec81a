"""Maximum-likelihood fitting and the conditional test statistic.

The cell distribution is the softmax of A^T theta over the free cells,
so the log-likelihood of a table u with n = sum(u) is

    l(theta) = sum_i u_i log pi_theta(i),
    grad l   = A (u - n pi_theta).

Fitting runs a limited-memory quasi-Newton ascent and monitors the
margin discrepancy ||A(u - n pi)||_2: convergence is declared when it
drops below tol * n, and the step size is halved whenever the
discrepancy has not improved for a stretch of iterations.  For the
complete independence model the fitted cell probabilities also have the
closed form (product of marginal proportions), kept here as the
cross-check route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .models import ConstraintMatrix, Table

__all__ = [
    "FitResult",
    "log_likelihood",
    "score",
    "fit_loglinear",
    "independence_fitted",
    "ChiSquare",
]

PATIENCE = 20


def _free_cells(d: int, zeros: Iterable[int]) -> np.ndarray:
    mask = np.ones(d, dtype=bool)
    for s in zeros:
        mask[s] = False
    return np.flatnonzero(mask)


def _cell_probs(theta: np.ndarray, A: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Softmax of (A^T theta) restricted to the free cells; full-length
    vector, zero on structural zeros."""
    eta = A[:, free].T @ theta
    eta -= eta.max()
    w = np.exp(eta)
    pi = np.zeros(A.shape[1])
    pi[free] = w / w.sum()
    return pi


def log_likelihood(theta, matrix: ConstraintMatrix, u: Table, zeros: Sequence[int] = ()) -> float:
    free = _free_cells(matrix.cols, zeros)
    pi = _cell_probs(np.asarray(theta, dtype=float), matrix.entries, free)
    cells = np.asarray(u.cells, dtype=float)
    positive = cells > 0
    if (pi[positive] <= 0).any():
        return -math.inf
    return float(cells[positive] @ np.log(pi[positive]))


def score(theta, matrix: ConstraintMatrix, u: Table, zeros: Sequence[int] = ()) -> np.ndarray:
    """Gradient of the log-likelihood at theta."""
    free = _free_cells(matrix.cols, zeros)
    pi = _cell_probs(np.asarray(theta, dtype=float), matrix.entries, free)
    cells = np.asarray(u.cells, dtype=float)
    return matrix.entries @ (cells - u.n * pi)


@dataclass(frozen=True)
class FitResult:
    theta: np.ndarray
    pi: np.ndarray
    iterations: int
    discrepancy: float
    converged: bool
    discrepancy_history: tuple[float, ...]

    def report(self) -> str:
        """Small text report for benchmark logs."""
        status = "converged" if self.converged else "NOT CONVERGED"
        return (
            f"fit {status}: iterations={self.iterations} "
            f"margin_discrepancy={self.discrepancy:.3e}"
        )


def fit_loglinear(
    matrix: ConstraintMatrix,
    u: Table,
    zeros: Sequence[int] = (),
    tol: float = 1e-6,
    max_iter: int = 5000,
    memory: int = 10,
    step: float = 1.0,
) -> FitResult:
    """Fit cell probabilities by quasi-Newton ascent on the likelihood.

    Returns the fitted probabilities (zero on structural zeros) and the
    monitoring trace.  ``converged`` is False when the margin
    discrepancy never reached ``tol * n`` within ``max_iter`` steps.
    """
    A = matrix.entries.astype(float)
    free = _free_cells(matrix.cols, zeros)
    if free.size == 0:
        raise ValueError("every cell is a structural zero")
    for s in set(zeros):
        if u.cells[s] != 0:
            raise ValueError(f"table is nonzero at structural zero cell {s}")
    n = u.n
    if n == 0:
        raise ValueError("cannot fit an all-zero table")
    cells = np.asarray(u.cells, dtype=float)

    theta = np.zeros(matrix.rows)
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    history: list[float] = []

    positive = cells > 0

    def eval_at(th):
        pi = _cell_probs(th, A, free)
        g = A @ (cells - n * pi)
        ll = float(cells[positive] @ np.log(np.maximum(pi[positive], 1e-300)))
        return ll, g, pi

    ll, g, pi = eval_at(theta)
    best = math.inf
    stall = 0
    it = 0
    for it in range(1, max_iter + 1):
        disc = float(np.linalg.norm(g))
        history.append(disc)
        if disc <= tol * n:
            return FitResult(theta, pi, it - 1, disc, True, tuple(history))
        if disc < best - 1e-15:
            best = disc
            stall = 0
        else:
            stall += 1
            if stall >= PATIENCE:
                step *= 0.5
                stall = 0

        # two-loop recursion on the stored (s, y) pairs; direction is
        # an ascent direction because we negate twice (maximize)
        q = g.copy()
        alphas = []
        for si, yi in zip(reversed(s_hist), reversed(y_hist)):
            rho = 1.0 / (yi @ si)
            a = rho * (si @ q)
            alphas.append(a)
            q -= a * yi
        if y_hist:
            yy = y_hist[-1] @ y_hist[-1]
            if yy > 0:
                q *= (s_hist[-1] @ y_hist[-1]) / yy
        for (si, yi), a in zip(zip(s_hist, y_hist), reversed(alphas)):
            rho = 1.0 / (yi @ si)
            b = rho * (yi @ q)
            q += (a - b) * si
        direction = q
        dg = float(direction @ g)
        if not math.isfinite(dg) or dg <= 0:
            direction = g.copy()

        # halve the trial step until the likelihood stops decreasing
        trial = step
        accepted = False
        for _ in range(40):
            theta_new = theta + trial * direction
            ll_new, g_new, pi_new = eval_at(theta_new)
            if ll_new >= ll:
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            s_hist.clear()
            y_hist.clear()
            step *= 0.5
            continue

        s_vec = theta_new - theta
        y_vec = g - g_new  # gradient decrease along ascent keeps curvature positive
        if (s_vec @ y_vec) > 1e-12:
            s_hist.append(s_vec)
            y_hist.append(y_vec)
            if len(s_hist) > memory:
                s_hist.pop(0)
                y_hist.pop(0)
        theta, g, pi, ll = theta_new, g_new, pi_new, ll_new

    disc = float(np.linalg.norm(g))
    history.append(disc)
    return FitResult(theta, pi, it, disc, disc <= tol * n, tuple(history))


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

    Callable on flat cell tuples; pure-Python accumulation because the
    walker calls this on every newly visited table.
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
