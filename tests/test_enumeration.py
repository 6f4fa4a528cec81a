"""Exhaustive fiber enumeration and exact p-values.

Small fibers have closed-form sizes: a 2x2 independence fiber is an
interval in its free cell, unit-margin permutation fibers count n!,
and diagonal structural zeros on a 3x3 unit-margin table leave the
two 3-cycles.  The exact conditional p-value is the rho-weighted
share of the fiber at or above the observed statistic, with
rho(u) proportional to 1/prod(u_ij!); tables tied with the observed one
count, which a rational-arithmetic oracle checks.
"""

import gc
import hashlib
import io
import itertools
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import count_block_searches
import fiberwalk.enumeration as enumeration
from fiberwalk.enumeration import (
    FULL_FIBER_CAP,
    FiberTooLarge,
    enumerate_fiber,
    exact_p_from_enumeration,
    exact_p_value,
    fiber_size,
    hit_cut,
    iter_fiber,
    log_rho_rows,
    log_rho_unnormalized,
    write_enumeration,
)
from fiberwalk.mle import ChiSquare, fit_loglinear
from fiberwalk.models import (
    ConstraintMatrix,
    FiberSpec,
    Hierarchical,
    Independence,
    NoThreeWay,
    QuasiIndependence,
    Table,
    fiber_spec_from_observation,
    margins,
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
    from fiberwalk.models import FiberSpec

    spec = FiberSpec(Independence((2, 2)).matrix, (1, 1, 3, 3), (), (2, 2))
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


def test_negative_cap_is_refused():
    spec = spec_of(Independence((2, 2)), (1, 1, 1, 1), (2, 2))
    with pytest.raises(ValueError, match="cap must be >= 0, got -1"):
        enumerate_fiber(spec, cap=-1)
    with pytest.raises(ValueError, match="cap must be >= 0, got -1"):
        fiber_size(spec, cap=-1)


@pytest.mark.parametrize("m", [10**7, 2**62, 10**30])
def test_a_capped_search_of_a_huge_fiber_stops_early(m):
    """One partial table with more children than a block holds expands
    them a block of values at a time, so a cap stops the search after
    the first block, in little memory; bounds past int64 run on Python
    ints.  Each 2x2 fiber with all margins m is [[a, m-a], [m-a, a]]."""
    spec = FiberSpec(Independence((2, 2)).matrix, (m,) * 4, (), (2, 2))
    tracemalloc.start()
    try:
        enum = enumerate_fiber(spec, cap=5)
        with pytest.raises(FiberTooLarge):
            fiber_size(spec, cap=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not enum.complete
    assert enum.cells.tolist() == [[a, m - a, m - a, a] for a in range(5)]
    assert peak < 4 << 20


def test_a_fiber_past_int64_is_enumerated_whole():
    spec = FiberSpec(Independence((2, 2)).matrix, (2**62, 0, 2**62, 0), (), (2, 2))
    enum = enumerate_fiber(spec)
    assert enum.complete
    assert [u.cells for u in enum] == [(2**62, 0, 0, 0)]
    assert fiber_size(spec) == 1


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


def test_an_empty_fiber_has_no_rho_law_nor_exact_p():
    spec = FiberSpec(Independence((2, 2)).matrix, (1, 0, 0, 0), (), (2, 2))
    enum = enumerate_fiber(spec)
    assert enum.complete and len(enum) == 0
    with pytest.raises(ValueError, match="^empty fiber$"):
        enum.rho()
    with pytest.raises(ValueError, match="^empty fiber$"):
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


# -- a per-cell reference search: the block search must match it
# element by element, in order, at every cap


def reference_fiber(spec):
    """Fiber elements by depth-first backtracking, one cell at a time in
    flat order, each over its values ascending, between the bounds the
    block search uses: at most min_i residual_i // A_ij and at least
    what the later cells cannot add to any residual."""
    A = spec.matrix.entries
    zeros = spec.zero_set()
    order = [j for j in range(spec.d) if j not in zeros]
    terms = [[(i, int(A[i, j])) for i in spec.matrix.col_support[j]] for j in order]
    caps = [min(spec.margins[i] // a for i, a in ts) for ts in terms]
    rests = []  # per cell: the max the later cells add to each row
    for t in range(len(order)):
        rests.append({i: sum(a * caps[s] for s in range(t + 1, len(order))
                             for k, a in terms[s] if k == i) for i, _ in terms[t]})
    values = [0] * spec.d

    def descend(t, residual):
        if t == len(order):
            if not any(residual):
                yield tuple(values)
            return
        hi = min([caps[t]] + [residual[i] // a for i, a in terms[t]])
        lo = max([0] + [-(-(residual[i] - rests[t][i]) // a) for i, a in terms[t]])
        for v in range(lo, hi + 1):
            values[order[t]] = v
            rest = list(residual)
            for i, a in terms[t]:
                rest[i] -= a * v
            yield from descend(t + 1, rest)
        values[order[t]] = 0

    return descend(0, list(spec.margins))


@st.composite
def quasi_fibers(draw):
    r, c = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    zeros = draw(st.sets(st.tuples(st.integers(0, r - 1), st.integers(0, c - 1)), max_size=3))
    cells = draw(st.lists(st.integers(0, 3), min_size=r * c, max_size=r * c))
    cells = [0 if divmod(j, c) in zeros else v for j, v in enumerate(cells)]
    return spec_of(QuasiIndependence((r, c), zeros), cells, (r, c))


@st.composite
def n3f_fibers(draw):
    d = draw(st.integers(2, 3))
    cells = draw(st.lists(st.integers(0, 4 if d == 2 else 1), min_size=d ** 3, max_size=d ** 3))
    return spec_of(NoThreeWay(d), cells, (d, d, d))


@st.composite
def hierarchical_fibers(draw):
    shape = tuple(draw(st.lists(st.integers(2, 3), min_size=2, max_size=3)))
    axes = range(len(shape))
    subsets = [f for k in range(1, len(shape)) for f in itertools.combinations(axes, k)]
    faces = draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=3, unique=True))
    cells = draw(st.lists(st.integers(0, 2), min_size=math.prod(shape), max_size=math.prod(shape)))
    flat_zeros = draw(st.sets(st.integers(0, math.prod(shape) - 1), max_size=2))
    zeros = [tuple(int(x) for x in np.unravel_index(j, shape)) for j in flat_zeros]
    cells = [0 if j in flat_zeros else v for j, v in enumerate(cells)]
    return spec_of(Hierarchical(shape, faces, zeros), cells, shape)


ALL_ZERO_SPECS = [
    FiberSpec(ConstraintMatrix([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]]),
              b, (0, 1, 2, 3), (2, 2))
    for b in ((0, 0, 0, 0), (0, 1, 0, 1))
]


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(quasi_fibers(), n3f_fibers(), hierarchical_fibers(), st.sampled_from(ALL_ZERO_SPECS)),
    st.sampled_from([1, 2, 3, 16, enumeration._BLOCK_ROWS]),
)
def test_block_search_matches_the_reference_search(spec, rows):
    """Same elements in the same order, and the same ``complete`` flags
    at caps around the size, also with blocks split down to one row."""
    want = list(itertools.islice(reference_fiber(spec), 301))
    assume(len(want) <= 300)
    size = len(want)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_BLOCK_ROWS", rows)
        assert [u.cells for u in iter_fiber(spec)] == want
        for cap in {0, max(size - 1, 0), size, size + 1}:
            enum = enumerate_fiber(spec, cap=cap)
            assert enum.cells.shape == (min(size, cap), spec.d)
            assert [u.cells for u in enum.elements] == want[:cap]
            assert enum.complete == (size <= cap)
        assert fiber_size(spec) == size
        if size:
            with pytest.raises(FiberTooLarge):
                fiber_size(spec, cap=size - 1)


def fresh_search(spec, cap):
    """``enumerate_fiber`` with nothing held."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_held", weakref.WeakValueDictionary())
        return enumerate_fiber(spec, cap=cap)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(quasi_fibers(), n3f_fibers(), st.sampled_from(ALL_ZERO_SPECS)),
    st.sampled_from([1, 3, enumeration._BLOCK_ROWS]),
)
def test_a_held_enumeration_answers_as_a_fresh_search(spec, rows):
    """Every pair of caps around the size, asked in either order while
    the first answer is held, gives the cells (values and dtype),
    shape, ``complete`` and, when incomplete, ``cap`` of a fresh
    search; the second searches only when the first does not cover
    it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_BLOCK_ROWS", rows)
        size = len(fresh_search(spec, 301))
        assume(size <= 300)
        caps = sorted({0, max(size - 1, 0), size, size + 1})
        calls = count_block_searches(mp)
        for a, b in itertools.product(caps, repeat=2):
            mp.setattr(enumeration, "_held", weakref.WeakValueDictionary())
            calls.clear()
            first = enumerate_fiber(spec, cap=a)
            second = enumerate_fiber(spec, cap=b)
            assert len(calls) == (1 if first.complete or a >= b else 2)
            for got, cap in ((first, a), (second, b)):
                want = fresh_search(spec, cap)
                assert got.cells.dtype == want.cells.dtype
                assert got.cells.tolist() == want.cells.tolist()
                assert got.cells.shape == want.cells.shape and got.shape == want.shape
                assert got.complete == want.complete
                assert got.complete or got.cap == want.cap == cap


def test_an_enumeration_is_held_only_while_in_use(block_searches):
    """Once the last reference is gone, the next call searches again."""
    spec = spec_of(*ORDER_FIBERS["n3f-3x3x3"])
    enum = enumerate_fiber(spec)
    assert len(enum.elements) == 749
    assert not enum.cells.flags.writeable  # callers share the held cells
    assert enumerate_fiber(spec, cap=FULL_FIBER_CAP) is enum
    assert len(block_searches) == 1
    held = weakref.ref(enum)
    del enum
    gc.collect()
    assert held() is None
    assert len(enumerate_fiber(spec)) == 749
    assert len(block_searches) == 2


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([np.int8, np.int16, np.int64]), st.data())
def test_log_rho_rows_has_the_bits_of_log_rho_unnormalized(dtype, data):
    """Bit for bit on both routes: small values (an lgamma table up to
    the largest) and values past the number of cells (distinct ones)."""
    top = np.iinfo(dtype).max if dtype is not np.int64 else 10**7
    k, d = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.lists(st.integers(0, top), min_size=d, max_size=d),
                              min_size=k, max_size=k))
    got = log_rho_rows(np.array(rows, dtype=dtype))
    assert got.tolist() == [log_rho_unnormalized(r) for r in rows]


def test_exact_p_and_size_build_no_tables(monkeypatch):
    """Both read the search's arrays: Tables are built only when an
    enumeration's elements are read."""
    spec = spec_of(*ORDER_FIBERS["n3f-3x3x3"])
    enum = enumerate_fiber(spec)
    want = exact_p_value(spec, 10.0, lambda c: float(c[0]))
    monkeypatch.setattr(Table, "_trusted", None)
    assert exact_p_from_enumeration(enum, 10.0, lambda c: float(c[0])) == want
    assert fiber_size(spec) == len(enum) == 749
    assert "elements" not in vars(enum)


@pytest.mark.parametrize("name", sorted(ORDER_FIBERS) + ["independence-4x4-n20"])
def test_exact_p_with_the_array_statistic_keeps_its_bytes(name):
    """``ChiSquare.rows`` in blocks gives the p-value of the per-tuple
    calls bit for bit, structural zeros included; the 4x4 fiber (8,860
    elements) spans several blocks."""
    if name == "independence-4x4-n20":
        model, cells, shape = (Independence((4, 4)),
                               (8, 1, 0, 0, 0, 4, 1, 0, 0, 0, 3, 1, 0, 0, 0, 2), (4, 4))
    else:
        model, cells, shape = ORDER_FIBERS[name]
    spec = spec_of(model, cells, shape)
    u = Table(tuple(cells), shape)
    stat = ChiSquare(fit_loglinear(spec.matrix, u, zeros=spec.structural_zeros).pi, u.n,
                     spec.structural_zeros)
    enum = enumerate_fiber(spec)
    threshold = stat(u.cells)
    assert exact_p_from_enumeration(enum, threshold, stat) == \
        exact_p_from_enumeration(enum, threshold, lambda c: stat(c))


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
    fit = fit_loglinear(Independence(u.shape).matrix, u)
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
