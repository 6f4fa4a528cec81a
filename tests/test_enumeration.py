"""Exhaustive fiber enumeration and exact p-values.

Small fibers have closed-form sizes: a 2x2 independence fiber is an
interval in its free cell, unit-margin permutation fibers count n!,
and diagonal structural zeros on a 3x3 unit-margin table leave the
two 3-cycles.  The exact conditional p-value is the rho-weighted
share of the fiber at or above the observed statistic, with
rho(u) proportional to 1/prod(u_ij!); tables tied with the observed one
count, which a rational-arithmetic oracle checks.
"""

import hashlib
import io
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from fiberwalk.enumeration import (
    FiberTooLarge,
    enumerate_fiber,
    exact_p_from_enumeration,
    exact_p_value,
    fiber_size,
    hit_cut,
    log_rho_unnormalized,
    write_enumeration,
)
from fiberwalk.mle import ChiSquare, fit_loglinear
from fiberwalk.models import (
    ConstraintMatrix,
    FiberSpec,
    Independence,
    NoThreeWay,
    QuasiIndependence,
    Table,
    fiber_spec_from_observation,
    margins,
    model_matrix,
)


def spec_of(model, cells, shape):
    return fiber_spec_from_observation(model, Table(tuple(cells), shape))


def test_two_by_two_interval():
    # margins (2,2),(2,2): the free cell ranges over {0,1,2}
    spec = spec_of(Independence((2, 2)), (1, 1, 1, 1), (2, 2))
    enum = enumerate_fiber(spec)
    assert enum.complete
    assert len(enum) == 3
    assert fiber_size(spec) == 3


def test_unit_margin_three_by_three_is_permutations():
    spec = spec_of(Independence((3, 3)), (1, 0, 0, 0, 1, 0, 0, 0, 1), (3, 3))
    assert fiber_size(spec) == 6


def test_diagonal_zeros_leave_two_cycles():
    model = QuasiIndependence((3, 3), ((0, 0), (1, 1), (2, 2)))
    spec = spec_of(model, (0, 1, 0, 0, 0, 1, 1, 0, 0), (3, 3))
    enum = enumerate_fiber(spec)
    got = sorted(t.cells for t in enum)
    assert got == [
        (0, 0, 1, 1, 0, 0, 0, 1, 0),
        (0, 1, 0, 0, 0, 1, 1, 0, 0),
    ]


def test_elements_satisfy_spec():
    spec = spec_of(Independence((3, 3)), (2, 1, 0, 0, 1, 2, 1, 1, 1), (3, 3))
    enum = enumerate_fiber(spec)
    assert len(enum) > 1
    for t in enum:
        assert margins(spec.matrix, t) == spec.margins
        assert all(c >= 0 for c in t.cells)
    # no duplicates
    assert len({t.cells for t in enum}) == len(enum)


def test_empty_fiber_when_margins_clash():
    from fiberwalk.models import FiberSpec, model_matrix

    spec = FiberSpec(model_matrix(Independence((2, 2))), (1, 1, 3, 3), (), (2, 2))
    enum = enumerate_fiber(spec)
    assert enum.complete and len(enum) == 0


def test_cap_truncates_and_require_complete_raises():
    spec = spec_of(Independence((3, 3)), (2, 1, 0, 0, 1, 2, 1, 1, 1), (3, 3))
    full = fiber_size(spec)
    assert full > 2
    enum = enumerate_fiber(spec, cap=2)
    assert not enum.complete
    assert len(enum) == 2
    with pytest.raises(FiberTooLarge, match="more than 2 elements"):
        enum.require_complete()


def test_log_rho_matches_lgamma():
    u = Table((3, 0, 1, 2), (2, 2))
    want = -sum(math.lgamma(c + 1) for c in u.cells)
    assert log_rho_unnormalized(u) == pytest.approx(want)


def test_exact_p_by_hand_on_interval_fiber():
    """Fiber [[a,2-a],[2-a,a]] for a in 0..2, rho = (1/4, 1, 1/4)/1.5.

    With the statistic a itself and threshold a_obs = 1, hits are
    a in {1, 2} so p = (1 + 1/4) / 1.5.
    """
    spec = spec_of(Independence((2, 2)), (1, 1, 1, 1), (2, 2))
    stat = lambda cells: float(cells[0])
    p = exact_p_value(spec, 1.0, stat)
    assert p == pytest.approx((1 + 0.25) / 1.5)
    # threshold above the fiber maximum: no hits
    assert exact_p_value(spec, 3.0, stat) == 0.0
    # threshold at the minimum: whole fiber
    assert exact_p_value(spec, 0.0, stat) == pytest.approx(1.0)


def test_exact_p_from_enumeration_refuses_incomplete():
    spec = spec_of(Independence((3, 3)), (2, 1, 0, 0, 1, 2, 1, 1, 1), (3, 3))
    enum = enumerate_fiber(spec, cap=2)
    with pytest.raises(FiberTooLarge):
        exact_p_from_enumeration(enum, 0.0, lambda c: 0.0)


def test_write_enumeration_mentions_completeness():
    spec = spec_of(Independence((2, 2)), (1, 1, 1, 1), (2, 2))
    buf = io.StringIO()
    write_enumeration(enumerate_fiber(spec), buf)
    text = buf.getvalue()
    assert "3 elements" in text
    assert "complete=True" in text


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    )
)
def test_enumeration_complete_and_valid_on_random_two_by_two(cells):
    u = Table(cells, (2, 2))
    spec = fiber_spec_from_observation(Independence((2, 2)), u)
    enum = enumerate_fiber(spec)
    assert enum.complete
    assert u in enum.elements
    for t in enum:
        assert margins(spec.matrix, t) == spec.margins


# Three fibers whose full enumeration (order included) is pinned by the
# sha256 of its `write_enumeration` text.
ORDER_FIBERS = {
    "independence-3x4": (
        Independence((3, 4)),
        (2, 1, 0, 3, 1, 2, 3, 0, 0, 1, 2, 1),
        (3, 4),
    ),
    "quasi-4x4": (
        QuasiIndependence((4, 4), ((0, 0), (1, 1), (2, 3))),
        (0, 2, 1, 1, 1, 0, 2, 1, 2, 1, 1, 0, 1, 1, 0, 2),
        (4, 4),
    ),
    "n3f-3x3x3": (
        NoThreeWay(3),
        (3, 1, 2, 0, 3, 1, 2, 1, 1, 1, 2, 1, 1, 2, 1, 1, 1, 3, 2, 1, 0, 1, 1, 2, 1, 0, 1),
        (3, 3, 3),
    ),
}

ORDER_GOLDENS = {
    "independence-3x4": (1102, "e869f3a706e03076b4dc73627f8ece1888e6bd99ff4c9158bb482f5f68864688"),
    "quasi-4x4": (756, "eb8ef2a9cbd5e91d7f2fe1a77d5d15a76410128ee3f301fb72e5307de4df0d9d"),
    "n3f-3x3x3": (749, "d42db5ea461cd97b31136abc02b9d21c8397552c14e0890917728ac7a656b5c9"),
}


@pytest.mark.parametrize("name", sorted(ORDER_FIBERS))
def test_enumeration_golden(name):
    spec = spec_of(*ORDER_FIBERS[name])
    enum = enumerate_fiber(spec)
    buf = io.StringIO()
    write_enumeration(enum, buf)
    size, digest = ORDER_GOLDENS[name]
    assert len(enum) == size
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(ORDER_FIBERS))
def test_enumeration_order_is_lexicographic(name):
    cells = [u.cells for u in enumerate_fiber(spec_of(*ORDER_FIBERS[name]))]
    assert all(a < b for a, b in zip(cells, cells[1:]))


@pytest.mark.parametrize("cap", [0, 1, 7, 100, 755, 756, 757])
def test_cap_keeps_the_first_elements(cap):
    spec = spec_of(*ORDER_FIBERS["quasi-4x4"])
    full = enumerate_fiber(spec).elements
    enum = enumerate_fiber(spec, cap=cap)
    assert enum.elements == full[:cap]
    assert enum.complete == (cap >= len(full))


def brute_force_fiber(spec):
    """Every table with A u = b and zeros on S, by itertools.product
    over each free cell's range 0..min_i b_i // A_ij."""
    A = spec.matrix.entries
    ranges = []
    for j in range(spec.d):
        if j in spec.zero_set():
            ranges.append(range(1))
        else:
            cap = min(spec.margins[i] // int(A[i, j]) for i in spec.matrix.col_support[j])
            ranges.append(range(cap + 1))
    found = []
    for cells in itertools.product(*ranges):
        u = Table(cells, spec.shape)
        if margins(spec.matrix, u) == spec.margins:
            found.append(cells)
    return sorted(found)


# hand-built fibers; coefficients above 1 exercise the floor (upper)
# and ceiling (lower) divisions of the DFS bounds
ORACLE_SPECS = {
    "coefficient-2": FiberSpec(
        ConstraintMatrix([[1, 2, 1, 0], [0, 1, 2, 2]]),
        (6, 12),
        (),
        (2, 2),
    ),
    "coefficients-1-to-3": FiberSpec(
        ConstraintMatrix([[3, 1, 0, 2, 1, 0], [0, 2, 1, 1, 0, 3], [1, 1, 1, 1, 1, 1]]),
        (5, 10, 7),
        (),
        (2, 3),
    ),
    "coefficient-2-with-zeros": FiberSpec(
        ConstraintMatrix([[1, 2, 1, 0, 1, 0], [0, 1, 2, 1, 0, 2], [2, 0, 1, 1, 1, 1]]),
        (5, 8, 10),
        (1,),
        (2, 3),
    ),
    "quasi-3x3-zeros": spec_of(
        QuasiIndependence((3, 3), ((0, 1), (2, 2))),
        (2, 0, 1, 1, 2, 1, 3, 1, 0),
        (3, 3),
    ),
    "unreachable-margins": FiberSpec(
        ConstraintMatrix([[2, 2, 0, 0], [0, 0, 2, 2], [2, 0, 2, 0], [0, 2, 0, 2]]),
        (3, 3, 3, 3),
        (),
        (2, 2),
    ),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_enumeration_matches_brute_force(name):
    spec = ORACLE_SPECS[name]
    oracle = brute_force_fiber(spec)
    assert (name == "unreachable-margins") == (not oracle)
    assert [u.cells for u in enumerate_fiber(spec)] == oracle


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=12, max_size=12),
    st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
    st.sets(st.integers(min_value=0, max_value=3), max_size=2),
)
def test_enumeration_matches_brute_force_on_random_matrices(entries, cells, zeros):
    rows = [entries[0:4], entries[4:8], entries[8:12]]
    for j in range(4):
        if not any(r[j] for r in rows):
            rows[j % 3][j] = 1 + j % 2
    cells = [0 if j in zeros else c for j, c in enumerate(cells)]
    A = ConstraintMatrix(rows)
    spec = FiberSpec(A, margins(A, Table(tuple(cells), (2, 2))), tuple(zeros), (2, 2))
    assert [u.cells for u in enumerate_fiber(spec)] == brute_force_fiber(spec)


@pytest.mark.parametrize("b, size", [((0, 0, 0, 0), 1), ((0, 1, 0, 1), 0)])
def test_all_structural_zeros(b, size):
    spec = FiberSpec(
        ConstraintMatrix([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]]),
        b,
        (0, 1, 2, 3),
        (2, 2),
    )
    enum = enumerate_fiber(spec)
    assert enum.complete
    assert [u.cells for u in enum] == [(0, 0, 0, 0)] * size
    assert fiber_size(spec) == size


def rational_exact_p(spec, u):
    """Exact p-value of a two-way independence table in rational
    arithmetic, from the closed-form MLE pi_ij = r_i c_j / n^2.

    There X(v) = sum_ij v_ij^2 / (r_i c_j) - 1, so hits compare the
    integers sum_ij v_ij^2 * L / (r_i c_j) for L = lcm(r_i c_j), and
    rho(v) is proportional to the integer n! / prod v_ij!.
    """
    r, c = u.shape
    n = u.n
    rows = [sum(u.cells[i * c:(i + 1) * c]) for i in range(r)]
    cols = [sum(u.cells[j::c]) for j in range(c)]
    pi = [Fraction(rows[i] * cols[j], n * n) for i in range(r) for j in range(c)]
    lcm = math.lcm(*(rows[i] * cols[j] for i in range(r) for j in range(c)))
    scale = [lcm // (rows[i] * cols[j]) for i in range(r) for j in range(c)]

    def key(cells):
        return sum(k * v * v for k, v in zip(scale, cells))

    # the identity, checked on the observed table
    literal = sum((Fraction(v, n) - p) ** 2 / p for v, p in zip(u.cells, pi))
    assert literal == Fraction(key(u.cells), lcm) - 1
    observed = key(u.cells)
    hit = total = 0
    for v in enumerate_fiber(spec):
        w = math.factorial(n) // math.prod(math.factorial(x) for x in v.cells)
        total += w
        if key(v.cells) >= observed:
            hit += w
    return Fraction(hit, total)


def fitted_exact_p(u):
    """exact_p_value with the statistic of the fitted MLE."""
    spec = fiber_spec_from_observation(Independence(u.shape), u)
    fit = fit_loglinear(model_matrix(Independence(u.shape)), u)
    stat = ChiSquare(fit.pi, u.n)
    return spec, exact_p_value(spec, stat(u.cells), stat)


def test_hit_cut_is_relative():
    assert hit_cut(0.0) == 0.0
    assert hit_cut(2.0) == 2.0 - 2e-7
    assert hit_cut(2.0) < 2.0 * (1 - 1e-9)


def test_row_permutation_tie_counts_as_hit():
    """Rows 0 and 1 share the margin 4, so swapping them gives a second
    table whose statistic equals the observed one exactly."""
    u = Table((3, 0, 1, 0, 1, 3, 0, 1, 1), (3, 3))
    swapped = Table((0, 1, 3, 3, 0, 1, 0, 1, 1), (3, 3))
    spec, p = fitted_exact_p(u)
    assert spec.contains(swapped)
    assert abs(p - rational_exact_p(spec, u)) <= 1e-12
    assert rational_exact_p(spec, u) == Fraction(17, 105)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=2, max_value=4),
    st.data(),
)
def test_exact_p_matches_rational_oracle(r, c, data):
    cells = data.draw(st.lists(st.integers(0, 3), min_size=r * c, max_size=r * c))
    u = Table(tuple(cells), (r, c))
    arr = u.to_array()
    assume((arr.sum(axis=0) > 0).all() and (arr.sum(axis=1) > 0).all())
    spec, p = fitted_exact_p(u)
    assert abs(p - rational_exact_p(spec, u)) <= 1e-12
