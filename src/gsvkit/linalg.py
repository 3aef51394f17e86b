"""Exact linear algebra over the rationals.

Small dense routines sized for face/dice matrices: reduced row echelon
form, rank, nullspace bases, and linear solves.  All four run on one
fraction-free Gauss–Jordan elimination: each row is scaled to integers
by the lcm of its denominators and kept divided by the gcd of its
entries, so the elimination loop does integer arithmetic only, and a
Fraction is formed only for a value that is returned.  No pivot-magnitude
games are needed because arithmetic is exact; pivots are chosen
first-nonzero.  The reduced row echelon form is unique, so the results
are the ones that Fraction elimination gives.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .model import _integer_rows

Matrix = list[list[Fraction]]
Vector = tuple[Fraction, ...]


def _integer_row(row) -> list[int]:
    """The row scaled by the lcm of its denominators, divided by the gcd
    of the result: integers proportional to the row, with gcd 1."""
    vals = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    _scale, (ints,) = _integer_rows((vals,))
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _eliminate(rows, width: int | None = None) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss–Jordan elimination of ``rows``.

    Pivots are taken in the first ``width`` columns only (all columns by
    default), first nonzero entry first.  Returns the integer rows and
    the pivot columns.  Row r divided by its entry in pivot column r is
    row r of the reduced form; the rows after the last pivot are zero in
    the first ``width`` columns.
    """
    mat = [_integer_row(row) for row in rows]
    nrows = len(mat)
    if width is None:
        width = len(mat[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pivot_row = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        prow = mat[r]
        p = prow[c]
        for i in range(nrows):
            a = mat[i][c]
            if i == r or not a:
                continue
            g = gcd(p, a)
            pg, ag = p // g, a // g
            row = [pg * x - ag * y for x, y in zip(mat[i], prow)]
            g = gcd(*row)
            mat[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def rref(rows: list[list]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    mat, pivots = _eliminate(rows)
    ncols = len(mat[0]) if mat else 0
    zero = Fraction(0)
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(mat, pivots)]
    out += [[zero] * ncols for _ in range(len(mat) - len(pivots))]
    return out, pivots


def rank(rows: list[list]) -> int:
    return len(_eliminate(rows)[1])


def nullspace(rows: list[list], ncols: int | None = None) -> list[Vector]:
    """Basis of the right kernel {x : A x = 0}, one vector per free column.

    For an empty row list the kernel is all of Q^ncols (standard basis).
    """
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
    else:
        ncols = len(rows[0])
    mat, pivots = _eliminate(rows)
    pivot_set = set(pivots)
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for row, pc in zip(mat, pivots):
            if row[fc]:
                vec[pc] = Fraction(-row[fc], row[pc])
        basis.append(tuple(vec))
    return basis


def solve(rows: list[list], rhs: list) -> Vector | None | list[Vector | None]:
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero, which makes the returned solution a
    deterministic canonical choice.  ``rhs`` is one right-hand side, or
    a list of right-hand sides (each a list or tuple); several are solved
    in one elimination, and the result is then the list of their
    solutions.  Pivots are taken in A's columns only.
    """
    several = bool(rhs) and isinstance(rhs[0], (list, tuple))
    columns = rhs if several else [rhs]
    if not rows:
        return [None] * len(columns) if several else None
    ncols = len(rows[0])
    aug = [list(row) + list(bs) for row, bs in zip(rows, zip(*columns))]
    mat, pivots = _eliminate(aug, ncols)
    below = mat[len(pivots):]
    zero = Fraction(0)
    solutions: list[Vector | None] = []
    for k in range(ncols, ncols + len(columns)):
        # a nonzero entry below the pivots means b is outside the column space
        if any(row[k] for row in below):
            solutions.append(None)
            continue
        sol = [zero] * ncols
        for row, pc in zip(mat, pivots):
            if row[k]:
                sol[pc] = Fraction(row[k], row[pc])
        solutions.append(tuple(sol))
    return solutions if several else solutions[0]
