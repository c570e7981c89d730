"""Exact linear algebra over the rationals and over prime fields.

Matrices are tuples/lists of rows.  One Gaussian elimination serves both
fields, selected by the field argument ``p``: ``p = 0`` is Q, where entries
may be int or Fraction and become Fractions, never rounded; a prime ``p`` is
F_p, where entries are ints reduced to 0..p-1 with plain ``% p`` arithmetic.
Sizes are desk scale (path-space and Hom-space dimensions), so plain
elimination with a deterministic leftmost-pivot rule is the right tool; the
rule also makes every computed basis reproducible.  The other ``mod_``
helpers work on ints over F_p: products and residuals against an echelon
basis run in the finite-field oracle's innermost loops, and the inverse,
read off the elimination, serves the path evaluation's base-change law.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

Matrix = Sequence[Sequence[int | Fraction]]


def _reduced(row: list, p: int) -> list:
    return [x % p for x in row] if p else row


def rref(m: Matrix, p: int = 0) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over Q (``p = 0``) or F_p, leftmost pivots.

    Returns (rows, pivot column indices); rows of zeros are kept at the
    bottom.  Over Q the rows hold Fractions, over F_p ints in 0..p-1.
    Deterministic: the first nonzero entry in scan order pivots.
    """
    rows = [[x % p for x in row] if p else [Fraction(x) for x in row] for row in m]
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        for pivot_row in range(r, len(rows)):
            if rows[pivot_row][c]:
                break
        else:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = pow(rows[r][c], -1, p) if p else 1 / rows[r][c]
        pivot = rows[r] = _reduced([x * inv for x in rows[r]], p)
        for k, row in enumerate(rows):
            factor = row[c]
            if factor and k != r:
                rows[k] = _reduced([x - factor * y for x, y in zip(row, pivot)], p)
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows, pivots


def rank(m: Matrix, p: int = 0) -> int:
    return len(rref(m, p)[1])


def nullspace_basis(m: Matrix) -> list[list[Fraction]]:
    """Basis of the right kernel over Q, one vector per free column.

    The basis vector for free column f has entry 1 at f and is zero at every
    other free column, which is the deterministic echelon pivot rule promised
    for Hom bases.
    """
    if not m:
        return []
    ncols = len(m[0])
    rows, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][f]
        basis.append(vec)
    return basis


def mod_mat_vec(m: Sequence[Sequence[int]], v: Sequence[int], p: int) -> list[int]:
    return [sum(map(mul, row, v)) % p for row in m]


def mod_residual(
    rows: Sequence[Sequence[int]], pivots: Sequence[int], v: Sequence[int], p: int
) -> list[int]:
    """v reduced over F_p against an echelon basis: ``rows`` in ascending
    ``pivots`` order, each zero left of its pivot and 1 at it.  The residual
    is zero exactly when v lies in the span of the rows."""
    residual = [x % p for x in v]
    for row, c in zip(rows, pivots):
        coeff = residual[c]
        if coeff:
            residual = [(x - coeff * y) % p for x, y in zip(residual, row)]
    return residual


def mod_invert(m: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """Inverse of a square matrix over F_p, the right half of the reduced
    echelon form of [m | I]; raises ValueError unless every pivot falls in
    the left half."""
    n = len(m)
    rows, pivots = rref([[*row, *(int(r == c) for c in range(n))] for r, row in enumerate(m)], p)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular mod p")
    return [row[n:] for row in rows]
