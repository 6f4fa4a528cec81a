"""Markov moves: basic rectangle moves, cycle moves, basis files, and
the doubly-chordal machinery for structural zero patterns.

Basic moves on a two-way table are +1/-1 on the corners of a 2x2
rectangle of free cells; cycle moves generalize the rectangle to
longer alternating cycles.  For quasi-independence the basic moves
connect every fiber exactly when the free-cell bipartite graph is
doubly chordal, so the checker and the repair routine get their own
coverage here.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fiberwalk.models import (
    ConstraintMatrix,
    FiberSpec,
    Independence,
    NoThreeWay,
    QuasiIndependence,
    Table,
    fiber_spec_from_observation,
)
from fiberwalk.moves import (
    BasisFileError,
    DegenerateZeroPattern,
    MoveSet,
    basic_moves_n3f,
    basic_moves_two_way,
    build_moves,
    chordality_violations,
    cycle_moves,
    is_doubly_chordal,
    load_basis,
    n3f_basis,
    repair_zero_pattern,
    save_basis,
)
from fiberwalk.sampling import make_rng
from fiberwalk.walk import connected_components_under_moves


def test_basic_move_count_three_by_three():
    # one move per pair of rows times pair of columns: C(3,2)^2 = 9
    assert len(basic_moves_two_way((3, 3)).moves) == 9


def test_cycle_move_count_three_by_three():
    # 9 rectangles plus 6 alternating 6-cycles
    assert len(cycle_moves((3, 3)).moves) == 15


def test_basic_moves_avoid_structural_zeros():
    diag = (0, 4, 8)  # flat diagonal of a 3x3
    assert len(basic_moves_two_way((3, 3), diag).moves) == 0
    diag4 = (0, 5, 10, 15)
    surviving = basic_moves_two_way((4, 4), diag4).moves
    assert len(surviving) == 6
    for mv in surviving:
        assert not set(mv.support) & set(diag4)


def test_moves_are_in_the_kernel():
    A = Independence((3, 4)).matrix
    for mv in cycle_moves((3, 4)).moves:
        delta = np.zeros(12, dtype=int)
        for j, d in zip(mv.support, mv.deltas):
            delta[j] = d
        assert (A.entries @ delta == 0).all()


def test_n3f_basis_is_kernel_valid():
    A = NoThreeWay(3).matrix
    basis = n3f_basis(3)
    assert len(basis.moves) == 81
    for mv in basis.moves:
        delta = np.zeros(27, dtype=int)
        for j, d in zip(mv.support, mv.deltas):
            delta[j] = d
        assert (A.entries @ delta == 0).all()


def test_basic_n3f_d2_is_the_sign_cube():
    basis = basic_moves_n3f(2)
    assert len(basis.moves) == 1
    mv = basis.moves[0]
    assert sorted(mv.deltas) == [-1, -1, -1, -1, 1, 1, 1, 1]


def test_save_load_round_trip(tmp_path):
    basis = n3f_basis(3)
    path = tmp_path / "basis.txt"
    save_basis(basis, path)
    loaded = load_basis(path, NoThreeWay(3).matrix)
    assert len(loaded.moves) == len(basis.moves)
    got = sorted((m.support, m.deltas) for m in loaded.moves)
    want = sorted((m.support, m.deltas) for m in basis.moves)
    assert got == want


def test_load_basis_rejects_corrupted_line(tmp_path, data_dir):
    lines = (data_dir / "n3f_3_basis.txt").read_text().splitlines(True)
    # break the kernel property on the third line
    lines[2] = "9 " + lines[2].split(" ", 1)[1]
    bad = tmp_path / "bad.txt"
    bad.write_text("".join(lines))
    with pytest.raises(BasisFileError, match="line 3"):
        load_basis(bad, NoThreeWay(3).matrix)


def test_load_basis_rejects_bad_tokens(tmp_path):
    bad = tmp_path / "tokens.txt"
    bad.write_text("1 -1 x -1\n")
    with pytest.raises(BasisFileError, match="line 1"):
        load_basis(bad, Independence((2, 2)).matrix)


def test_load_basis_rejects_wrong_length(tmp_path):
    bad = tmp_path / "short.txt"
    bad.write_text("1 -1 -1\n")
    with pytest.raises(BasisFileError, match="line 1"):
        load_basis(bad, Independence((2, 2)).matrix)


def test_fixture_file_loads_with_81_moves(data_dir):
    basis = load_basis(data_dir / "n3f_3_basis.txt", NoThreeWay(3).matrix)
    assert len(basis.moves) == 81


def test_build_moves_by_source_and_shape(data_dir):
    u = Table((1, 0, 1, 0, 1, 0, 1, 0, 1), (3, 3))
    quasi = fiber_spec_from_observation(QuasiIndependence((3, 3), ((0, 1),)), u)
    assert build_moves("basic", quasi) == basic_moves_two_way((3, 3), (1,))
    assert build_moves("cycle", quasi) == cycle_moves((3, 3), (1,))
    cube = fiber_spec_from_observation(NoThreeWay(3), Table((1,) * 27, (3, 3, 3)))
    assert build_moves("basic", cube) == basic_moves_n3f(3)
    basis = build_moves("file", cube, data_dir / "n3f_3_basis.txt")
    assert len(basis.moves) == 81
    with pytest.raises(ValueError, match="cycle moves apply to two-way tables only"):
        build_moves("cycle", cube)
    with pytest.raises(ValueError, match="unknown move source"):
        build_moves("lattice", quasi)
    plain = fiber_spec_from_observation(Independence((3, 4)), Table(range(12), (3, 4)))
    assert build_moves("basic", plain) == basic_moves_two_way((3, 4))
    assert build_moves("cycle", plain) == cycle_moves((3, 4))


@pytest.mark.parametrize("source", ["basic", "cycle"])
@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 3, 3), (2, 3, 4), (2, 2, 2, 2)],
                         ids=lambda s: "x".join(map(str, s)))
def test_build_moves_refuses_a_matrix_it_has_no_moves_for(shape, source):
    """Multi-way independence has neither the rectangles nor the n3f
    moves as a basis, so no move set is guessed from the shape."""
    u = Table((1,) * int(np.prod(shape)), shape)
    spec = fiber_spec_from_observation(Independence(shape), u)
    name = "x".join(map(str, shape))
    with pytest.raises(ValueError, match=f"not to the constraint matrix of this {name} fiber"):
        build_moves(source, spec)


@pytest.mark.parametrize("source", ["basic", "cycle"])
def test_build_moves_refuses_a_hand_built_matrix(source):
    # only the grand total of a 2x2 table: a matrix of no model here
    spec = FiberSpec(ConstraintMatrix([[1, 1, 1, 1]]), (4,), (), (2, 2))
    with pytest.raises(ValueError, match="--moves file, or walk with --schedule sat-only"):
        build_moves(source, spec)


# -- chordality


def test_complete_bipartite_is_doubly_chordal():
    assert is_doubly_chordal((3, 3))
    assert chordality_violations((3, 3)) == []


def test_bare_six_cycle_fails_with_witness():
    diag = (0, 4, 8)
    assert not is_doubly_chordal((3, 3), diag)
    witness = chordality_violations((3, 3), diag)
    assert witness
    assert len(witness[0]) >= 6


def test_repair_produces_superset_that_passes():
    diag = (0, 4, 8)
    rng = make_rng(99)
    repaired = repair_zero_pattern((3, 3), diag, rng)
    assert set(repaired) >= set(diag)
    assert is_doubly_chordal((3, 3), repaired)


def test_repair_rejects_degenerate_pattern():
    rng = make_rng(1)
    with pytest.raises(DegenerateZeroPattern):
        repair_zero_pattern((2, 2), (0, 1), rng)  # row 0 fully zero


def test_repair_random_patterns_small():
    rng = make_rng(7)
    for trial in range(20):
        zeros = tuple(
            sorted(rng.choice(16, size=int(rng.integers(0, 5)), replace=False).tolist())
        )
        try:
            repaired = repair_zero_pattern((4, 4), zeros, rng)
        except DegenerateZeroPattern:
            continue
        assert set(repaired) >= set(zeros)
        assert is_doubly_chordal((4, 4), repaired)


zero_patterns = st.tuples(st.integers(2, 5), st.integers(2, 5)).flatmap(
    lambda shape: st.tuples(
        st.just(shape), st.sets(st.integers(0, shape[0] * shape[1] - 1),
                                max_size=shape[0] * shape[1] // 2)))


@settings(max_examples=80, deadline=None)
@given(zero_patterns, st.integers(0, 2**32))
# free-cell graphs that are a bare 6-cycle and a bare 8-cycle: cycle
# moves but no rectangle until repaired
@example(((3, 3), {0, 4, 8}), 0)
@example(((4, 4), {2, 3, 4, 7, 8, 9, 13, 14}), 0)
def test_a_repaired_pattern_has_cycle_moves_iff_it_has_rectangles(pattern, seed):
    """Once repaired, every long cycle of the free-cell graph has a
    chord, so a shortest cycle is a rectangle: the cycle moves are empty
    exactly when the basic moves are, the test generate_initial_quasi
    makes with the cheaper of the two."""
    shape, zeros = pattern
    try:
        repaired = repair_zero_pattern(shape, zeros, make_rng(seed))
    except DegenerateZeroPattern:
        assume(False)
    cycles, rectangles = cycle_moves(shape, repaired), basic_moves_two_way(shape, repaired)
    assert bool(len(cycles)) == bool(len(rectangles))


# -- connectivity probes


def test_components_single_when_doubly_chordal():
    u = Table((1, 1, 1, 1, 1, 1, 1, 1, 1), (3, 3))
    spec = fiber_spec_from_observation(Independence((3, 3)), u)
    comps = connected_components_under_moves(spec, basic_moves_two_way((3, 3)))
    assert len(comps) == 1


def test_components_split_on_block_instance():
    """Two blocks that share no moves: a 3x3 six-cycle core with unit
    margins (two matchings, no free rectangle) and a free 2x2 block.
    The single basic move lives in the block, so the fiber splits by
    core matching."""
    zeros = [(0, 2), (1, 0), (2, 1)]
    zeros += [(i, j) for i in range(3) for j in (3, 4)]
    zeros += [(i, j) for i in (3, 4) for j in range(3)]
    model = QuasiIndependence((5, 5), tuple(zeros))
    cells = np.zeros((5, 5), dtype=int)
    cells[0, 0] = cells[1, 1] = cells[2, 2] = 1
    cells[3, 3] = cells[4, 4] = 2
    u = Table.from_array(cells)
    spec = fiber_spec_from_observation(model, u)
    moves = basic_moves_two_way((5, 5), spec.zero_set())
    assert len(moves.moves) == 1
    comps = connected_components_under_moves(spec, moves)
    assert sorted(len(c) for c in comps) == [3, 3]


@pytest.mark.parametrize(
    "model, moves, message",
    [
        (Independence((3, 3)), basic_moves_two_way((2, 2)), "moves are on 4 cells, fiber has 9"),
        (Independence((3, 3)), basic_moves_two_way((4, 4)), "moves are on 16 cells, fiber has 9"),
        (QuasiIndependence((3, 3), ((0, 2),)), basic_moves_two_way((3, 3)),
         "touches a structural zero cell"),
    ],
    ids=["fewer-cells", "more-cells", "structural-zero"],
)
def test_components_refuse_moves_that_do_not_fit(model, moves, message):
    """A move set that does not fit the fiber is refused as the walk
    refuses it, not read as singleton components or an index error."""
    u = Table((1, 1, 0, 1, 1, 1, 1, 1, 1), (3, 3))
    spec = fiber_spec_from_observation(model, u)
    with pytest.raises(ValueError, match=message):
        connected_components_under_moves(spec, moves)


def test_components_without_moves_are_singletons():
    u = Table((1, 1, 1, 1, 1, 1, 1, 1, 1), (3, 3))
    spec = fiber_spec_from_observation(Independence((3, 3)), u)
    comps = connected_components_under_moves(spec, MoveSet(moves=(), d=9))
    assert len(comps) == 55 and all(len(c) == 1 for c in comps)


def test_package_import_skips_networkx():
    """networkx is loaded by the cycle code on first use, not by
    importing the package."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    # every public name, so every module, not the lazy package alone
    check = "from fiberwalk import *; import sys; assert 'networkx' not in sys.modules"
    subprocess.run([sys.executable, "-c", check], env=env, check=True)
    assert len(cycle_moves((3, 3)).moves) == 15
