"""The DPLL solver against exact oracles.

Projected enumeration must give every projection of the CNF's models
onto the sampling sequence exactly once, in true-first lexicographic
order of that sequence: the order a depth-first search meets them in
when it branches over the sampling variables first, true before false.
The oracle is brute force over all assignments of up to 7 variables.
The external-sampler stub draws by index into this order, so it is
also pinned on fiber encodings, against direct enumeration.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from fiberwalk.dpll import Solver, projected_models
from fiberwalk.encode import encode_fiber
from fiberwalk.enumeration import enumerate_fiber
from fiberwalk.models import (
    Independence,
    NoThreeWay,
    QuasiIndependence,
    Table,
    fiber_spec_from_observation,
)


def true_first(lits):
    return tuple(lit < 0 for lit in lits)


def satisfies(assignment, clause):
    return any((lit > 0) == assignment[abs(lit)] for lit in clause)


def all_models(num_vars, clauses):
    for bits in itertools.product((True, False), repeat=num_vars):
        assignment = dict(enumerate(bits, start=1))
        if all(satisfies(assignment, cl) for cl in clauses):
            yield assignment


def brute_force_projections(num_vars, clauses, sampling):
    """Each distinct projection once, in true-first lexicographic order
    of the sampling sequence."""
    found = {
        tuple(v if a[v] else -v for v in sampling) for a in all_models(num_vars, clauses)
    }
    return sorted(found, key=true_first)


@st.composite
def cnfs(draw):
    num_vars = draw(st.integers(min_value=1, max_value=7))
    lit = st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda v: st.sampled_from((v, -v))
    )
    clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=3), max_size=14))
    order = draw(st.permutations(range(1, num_vars + 1)))
    sampling = order[: draw(st.integers(min_value=0, max_value=num_vars))]
    return num_vars, clauses, sampling


@settings(max_examples=150, deadline=None)
@given(cnfs())
def test_projected_models_match_brute_force(cnf):
    num_vars, clauses, sampling = cnf
    got = [tuple(p) for p in projected_models(num_vars, clauses, sampling)]
    assert got == brute_force_projections(num_vars, clauses, sampling)


def stub_loop(num_vars, clauses, sampling):
    """The external-sampler stub's loop: projections in variable order,
    each blocked by its negation."""
    keep = set(sampling)
    solver = Solver(num_vars, clauses, decision_vars=sampling)
    while (model := solver.next_model()) is not None:
        projected = [lit for lit in model if abs(lit) in keep]
        yield projected
        solver.add_clause([-lit for lit in projected])


@settings(max_examples=150, deadline=None)
@given(cnfs())
def test_stub_loop_matches_brute_force(cnf):
    num_vars, clauses, sampling = cnf
    got = [
        tuple(sorted(p, key=lambda lit: sampling.index(abs(lit))))
        for p in stub_loop(num_vars, clauses, sampling)
    ]
    assert got == brute_force_projections(num_vars, clauses, sampling)


@settings(max_examples=80, deadline=None)
@given(cnfs(), st.data())
def test_added_clauses_hold_for_every_later_model(cnf, data):
    """Clauses that are not blocking projections (satisfied or falsified
    by the model, over any variables) are installed: every later model
    satisfies them, none repeats, and every model of the final formula
    is found, in true-first lexicographic order of the decision order."""
    num_vars, clauses, sampling = cnf
    order = list(sampling) + [v for v in range(1, num_vars + 1) if v not in sampling]
    lit = st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda v: st.sampled_from((v, -v))
    )
    solver = Solver(num_vars, clauses, decision_vars=sampling)
    added, found = [], []
    while (model := solver.next_model()) is not None:
        assignment = {abs(x): x > 0 for x in model}
        assert all(satisfies(assignment, cl) for cl in added)
        found.append(tuple(v if assignment[v] else -v for v in order))
        extra = data.draw(st.lists(lit, min_size=2, max_size=3, unique_by=abs))
        solver.add_clause(extra)
        added.append(extra)
    assert found == sorted(set(found), key=true_first)
    final = {
        tuple(v if a[v] else -v for v in order) for a in all_models(num_vars, clauses + added)
    }
    assert final <= set(found)


def test_projection_with_a_decided_auxiliary_comes_out_once():
    # variable 3 is outside the sampling set and free, so decided, under
    # projections (1, 2) and (-1, 2)
    clauses = [(1, 2), (2, 3, -1)]
    assert list(projected_models(3, clauses, [1, 2])) == [[1, 2], [1, -2], [-1, 2]]


def test_one_literal_projection():
    assert list(projected_models(2, [(1, 2)], [1])) == [[1], [-1]]


def test_add_clause_rejects_a_unit_clause_it_would_have_to_install():
    solver = Solver(3, [], decision_vars=[1, 2, 3])
    assert solver.next_model() == [1, 2, 3]
    with pytest.raises(ValueError, match="at least two literals"):
        solver.add_clause([-2])
    # the refused clause leaves the search as it was
    rest = list(iter(solver.next_model, None))
    assert rest == [[1, 2, -3], [1, -2, 3], [1, -2, -3],
                    [-1, 2, 3], [-1, 2, -3], [-1, -2, 3], [-1, -2, -3]]


def test_literals_outside_the_variables_are_refused():
    with pytest.raises(ValueError, match="outside variables 1..2"):
        Solver(2, [(1, 3)])
    solver = Solver(2, [])
    solver.next_model()
    with pytest.raises(ValueError, match="outside variables 1..2"):
        solver.add_clause([-1, -3])


FIBERS = {
    "readme-3x3": (Independence((3, 3)), (2, 1, 0, 1, 1, 1, 0, 1, 2), (3, 3), 55),
    "quasi-4x4-diagonal": (
        QuasiIndependence((4, 4), ((0, 0), (1, 1), (2, 2), (3, 3))),
        (0, 1, 1, 0, 1, 0, 1, 1, 1, 1, 0, 1, 0, 1, 1, 0),
        (4, 4),
        54,
    ),
    "n3f-190": (
        NoThreeWay(3),
        (3, 1, 1, 0, 1, 0, 0, 2, 1, 0, 1, 0, 0, 2, 2, 1, 1, 3, 1, 2, 1, 1, 2, 1, 1, 1, 1),
        (3, 3, 3),
        190,
    ),
}


@pytest.mark.parametrize("name", sorted(FIBERS))
def test_fiber_encodings_enumerate_in_true_first_order(name):
    model, cells, shape, size = FIBERS[name]
    spec = fiber_spec_from_observation(model, Table(cells, shape))
    enc = encode_fiber(spec)
    want = sorted((enc.encode_table(u) for u in enumerate_fiber(spec)), key=true_first)
    assert len(want) == size
    got = projected_models(enc.num_vars, enc.clauses, enc.sampling_vars)
    assert [tuple(p) for p in got] == want
    # the stub's loop: no blocking clause is ever stored
    solver = Solver(enc.num_vars, enc.clauses, decision_vars=enc.sampling_vars)
    installed = len(solver.clauses)
    keep = set(enc.sampling_vars)
    models = []
    while (m := solver.next_model()) is not None:
        models.append(tuple(lit for lit in m if abs(lit) in keep))
        solver.add_clause([-lit for lit in models[-1]])
        assert len(solver.clauses) == installed
    assert models == want
