"""CNF encoding of fibers and the resumable model enumerator.

Each cell gets a fixed-width block of boolean variables (LSB first);
margin constraints become adder circuits whose outputs are pinned to
the margin bits.  The encoding is only useful if satisfying
assignments projected to cell variables are exactly the fiber, which
is what most of these tests check, against the independent
lattice-walk enumerator.
"""

import io

import pytest
from hypothesis import given, settings, strategies as st

from conftest import read_literals
from fiberwalk.dpll import Solver
from fiberwalk.encode import (
    bit_width,
    cell_value_bound,
    encode_fiber,
    parse_dimacs,
    write_layout,
)
from fiberwalk.enumeration import enumerate_fiber
from fiberwalk.models import (
    FiberSpec,
    Independence,
    QuasiIndependence,
    Table,
    fiber_spec_from_observation,
)
from fiberwalk.sampling import enumerate_cnf_tables


def spec_of(model, cells, shape):
    return fiber_spec_from_observation(model, Table(tuple(cells), shape))


# -- bit layout


def test_cell_value_bound_is_max_margin_ratio():
    # indicator matrix: the bound is the largest margin a cell appears in
    spec = spec_of(Independence((2, 2)), (2, 1, 1, 0), (2, 2))
    assert cell_value_bound(spec) == 3  # margins (3,1),(3,1)
    assert bit_width(spec) == cell_value_bound(spec).bit_length()


def test_bit_width_minimum_is_one():
    spec = spec_of(Independence((2, 2)), (0, 1, 1, 0), (2, 2))
    assert bit_width(spec) >= 1


def test_cell_var_layout_lsb_first():
    spec = spec_of(Independence((2, 2)), (1, 1, 1, 1), (2, 2))
    enc = encode_fiber(spec)
    l = enc.bits_per_cell
    for j in range(4):
        for p in range(l):
            assert enc.cell_var(j, p) == j * l + p + 1
    assert enc.sampling_vars == tuple(range(1, 4 * l + 1))


def test_encode_decode_round_trip():
    spec = spec_of(Independence((2, 2)), (2, 1, 1, 2), (2, 2))
    enc = encode_fiber(spec)
    for t in enumerate_fiber(spec):
        lits = enc.encode_table(t)
        model = {abs(v): v > 0 for v in lits}
        back = enc.decode([v if model[v] else -v for v in sorted(model)])
        assert back == t


def test_decode_refuses_a_cell_variable_given_both_ways():
    """A model with both v and -v is malformed, even where its last
    literal for v would give a fiber element; repeats of one literal and
    auxiliary variables given both ways are not refused."""
    u = Table((2, 1, 0, 1, 1, 1, 0, 1, 2), (3, 3))
    enc = encode_fiber(spec_of(Independence((3, 3)), u.cells, u.shape))
    lits = list(enc.encode_table(u))
    with pytest.raises(ValueError, match=f"cell variable {abs(lits[0])} both ways"):
        enc.decode([-lits[0]] + lits)
    aux = enc.num_vars
    assert aux > len(lits)
    assert enc.decode(lits + lits + [aux, -aux]) == u


def test_encode_table_rejects_overflow():
    spec = spec_of(Independence((2, 2)), (1, 1, 1, 1), (2, 2))
    enc = encode_fiber(spec)
    big = 1 << enc.bits_per_cell
    with pytest.raises(ValueError):
        enc.encode_table(Table((big, 0, 0, 0), (2, 2)))


# -- solver


def test_dpll_unsat():
    s = Solver(1, [(1,), (-1,)])
    assert s.next_model() is None


def test_dpll_enumerates_all_assignments():
    # two free variables, no constraints beyond a tautology
    s = Solver(2, [(1, -1)], decision_vars=[1, 2])
    seen = set()
    while True:
        m = s.next_model()
        if m is None:
            break
        seen.add(tuple(sorted(m)))
        s.add_clause([-l for l in m])
    assert len(seen) == 4


def test_dpll_respects_unit_clauses():
    s = Solver(3, [(1,), (-2,), (3, 2)], decision_vars=[1, 2, 3])
    m = s.next_model()
    assert m is not None
    assigned = set(m)
    assert 1 in assigned and -2 in assigned and 3 in assigned


# -- the bijection, on a few small specs


ROUND_TRIP_SPECS = [
    spec_of(Independence((2, 2)), (1, 1, 1, 1), (2, 2)),
    spec_of(Independence((2, 2)), (2, 1, 0, 1), (2, 2)),
    spec_of(Independence((3, 3)), (1, 0, 0, 0, 1, 0, 0, 0, 1), (3, 3)),
    spec_of(
        QuasiIndependence((3, 3), ((0, 0),)),
        (0, 1, 1, 1, 1, 0, 1, 0, 1),
        (3, 3),
    ),
]


@pytest.mark.parametrize("spec", ROUND_TRIP_SPECS)
def test_cnf_models_match_fiber(spec):
    enc = encode_fiber(spec)
    got = sorted(t.cells for t in enumerate_cnf_tables(enc))
    want = sorted(t.cells for t in enumerate_fiber(spec))
    assert got == want


def test_structural_zero_pinned_in_cnf():
    spec = spec_of(
        QuasiIndependence((3, 3), ((0, 0),)),
        (0, 1, 1, 1, 1, 0, 1, 0, 1),
        (3, 3),
    )
    enc = encode_fiber(spec)
    for t in enumerate_cnf_tables(enc):
        assert t.cells[0] == 0


def test_trivially_unsat_flag():
    # a whole row is structurally zero but its margin is positive
    spec = FiberSpec(Independence((2, 2)).matrix, (2, 2, 2, 2), (0, 1), (2, 2))
    enc = encode_fiber(spec)
    assert enc.trivially_unsat
    assert enumerate_cnf_tables(enc) == []


# -- DIMACS text


def test_dimacs_header_and_comments():
    spec = spec_of(Independence((2, 2)), (1, 1, 1, 1), (2, 2))
    enc = encode_fiber(spec)
    buf = io.StringIO()
    enc.to_dimacs(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == f"p cnf {enc.num_vars} {len(enc.clauses)}"
    assert lines[1] == f"c {enc.bits_per_cell} bits per cell, LSB first"
    assert any(line.startswith("c cell 0 vars 1..") for line in lines)
    ind = [line for line in lines if line.startswith("c ind ")]
    assert ind, "projection comment missing"
    for line in ind:
        assert line.endswith(" 0")
        # at most 10 ids per line plus the terminator
        assert len(line.split()) <= 13


def test_dimacs_marks_structural_zeros():
    spec = spec_of(
        QuasiIndependence((2, 2), ((0, 0),)),
        (0, 1, 1, 0),
        (2, 2),
    )
    enc = encode_fiber(spec)
    buf = io.StringIO()
    enc.to_dimacs(buf)
    assert "(structural zero)" in buf.getvalue()


def test_parse_dimacs_round_trip():
    spec = spec_of(Independence((2, 2)), (2, 1, 1, 2), (2, 2))
    enc = encode_fiber(spec)
    buf = io.StringIO()
    enc.to_dimacs(buf)
    num_vars, clauses, sampling = parse_dimacs(io.StringIO(buf.getvalue()))
    assert num_vars == enc.num_vars
    assert sorted(clauses) == sorted(enc.clauses)
    assert sampling == enc.sampling_vars


def test_write_layout_one_line_per_cell():
    spec = spec_of(
        QuasiIndependence((2, 2), ((1, 1),)),
        (1, 1, 1, 0),
        (2, 2),
    )
    enc = encode_fiber(spec)
    buf = io.StringIO()
    write_layout(enc, buf)
    lines = [l for l in buf.getvalue().splitlines() if l and not l.startswith("#")]
    assert len(lines) == 4
    l = enc.bits_per_cell
    first = lines[0].split()
    assert first[0] == "0" and len(first) == 1 + l
    assert lines[3].split()[-1] == "zero"


def test_parse_solution_line():
    # the reader ExternalSampler applies to the lines of sampler output
    assert read_literals("v 1 -2 3 0")[0] == [(1, -2, 3)]
    assert read_literals("1 -2 0")[0] == [(1, -2)]
    # banners and comments are skipped; 0 splits solutions across lines
    text = "c banner\ns SATISFIABLE\nv 1 -2\nv 3 0 -1 2 0\n"
    assert read_literals(text)[0] == [(1, -2, 3), (-1, 2)]


@settings(max_examples=20, deadline=None)
@given(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
    )
)
def test_bijection_on_random_small_tables(cells):
    spec = fiber_spec_from_observation(Independence((2, 2)), Table(cells, (2, 2)))
    enc = encode_fiber(spec)
    got = sorted(t.cells for t in enumerate_cnf_tables(enc))
    want = sorted(t.cells for t in enumerate_fiber(spec))
    assert got == want
