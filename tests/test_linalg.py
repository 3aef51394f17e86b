"""Exact linear algebra: the fraction-free routines against Fraction
Gauss–Jordan elimination."""

from fractions import Fraction as F
from random import Random

import pytest

from gsvkit import linalg


def _fraction_rref(rows):
    """Reference: Gauss–Jordan elimination in Fraction arithmetic, pivots
    first-nonzero, each pivot row scaled to 1 as it is chosen."""
    mat = [[F(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def _fraction_nullspace(rows, ncols):
    mat, pivots = _fraction_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [F(0)] * ncols
        vec[fc] = F(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(tuple(vec))
    return basis


def _fraction_solve(rows, rhs):
    if not rows:
        return None
    ncols = len(rows[0])
    mat, pivots = _fraction_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    sol = [F(0)] * ncols
    for r, pc in enumerate(pivots):
        sol[pc] = mat[r][ncols]
    return tuple(sol)


def _entry(rng):
    if rng.random() < 0.3:
        return F(0)
    return F(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 5, 7, 12, 35]))


def _random_matrix(rng, nrows, ncols):
    rows = [[_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.2:
        rows[rng.randrange(nrows)] = [F(0)] * ncols
    if nrows > 2 and rng.random() < 0.4:  # a dependent row
        rows[-1] = [a - 3 * b / 2 for a, b in zip(rows[0], rows[1])]
    return rows


def _cases(seed, count):
    rng = Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)  # wide, tall and square
        yield rng, _random_matrix(rng, nrows, ncols)


def test_rref_rank_nullspace_match_fraction_elimination():
    for _rng, rows in _cases(101, 1500):
        mat, pivots = _fraction_rref(rows)
        assert linalg.rref(rows) == (mat, pivots)
        assert linalg.rank(rows) == len(pivots)
        assert linalg.nullspace(rows) == _fraction_nullspace(rows, len(rows[0]))


def test_solve_matches_fraction_elimination():
    inconsistent = consistent = 0
    for rng, rows in _cases(103, 1500):
        ncols = len(rows[0])
        x = [_entry(rng) for _ in range(ncols)]
        in_span = [sum(a * b for a, b in zip(row, x)) for row in rows]
        targets = [in_span] + [[_entry(rng) for _ in rows] for _ in range(2)]
        expected = [_fraction_solve(rows, b) for b in targets]
        assert linalg.solve(rows, targets) == expected
        assert [linalg.solve(rows, b) for b in targets] == expected
        assert expected[0] is not None
        inconsistent += expected.count(None)
        consistent += len(expected) - expected.count(None)
    assert inconsistent > 100 and consistent > 100


def test_empty_and_zero_inputs():
    assert linalg.rref([]) == ([], [])
    assert linalg.rank([]) == 0
    assert linalg.nullspace([], 2) == [(1, 0), (0, 1)]
    with pytest.raises(ValueError):
        linalg.nullspace([])
    assert linalg.solve([], [1]) is None
    assert linalg.solve([], [[1], [2]]) == [None, None]
    zero = [[0, 0, 0], [0, 0, 0]]
    assert linalg.rref(zero) == _fraction_rref(zero)
    assert linalg.nullspace(zero) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert linalg.solve(zero, [0, 0]) == (0, 0, 0)
    assert linalg.solve(zero, [[0, 0], [0, 1]]) == [(0, 0, 0), None]


def test_inputs_may_be_ints_and_strings():
    rows = [["1/2", 1, F(-1, 3)], [2, "-0.5", 0]]
    assert linalg.rref(rows) == _fraction_rref(rows)
    assert linalg.solve(rows, ["1", 2]) == _fraction_solve(rows, [1, 2])
