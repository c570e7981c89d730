"""Exact linear algebra over the rationals and over prime fields.

Matrices are tuples/lists of rows.  One Gaussian elimination serves both
fields, selected by the field argument ``p``: ``p = 0`` is Q, where entries
may be int or Fraction and become Fractions, never rounded; a prime ``p`` is
F_p, where entries are ints reduced to 0..p-1 with plain ``% p`` arithmetic.
Sizes here are desk scale (path-space and Hom-space dimensions, per-vertex
spaces of the finite-field oracle), so plain elimination with a
deterministic leftmost-pivot rule is the right tool; the pivot rule also
makes every computed basis reproducible.  The per-vector F_p helpers
(``mod_`` prefix) run in the oracle's innermost loops.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

Matrix = Sequence[Sequence[int | Fraction]]


def rref(m: Matrix, p: int = 0) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over Q (``p = 0``) or F_p, leftmost pivots.

    Returns (rows, pivot column indices); rows of zeros are kept at the
    bottom.  Over Q the rows hold Fractions, over F_p ints in 0..p-1.
    Deterministic: the first nonzero entry in scan order pivots.
    """
    rows = [[x % p for x in row] for row in m] if p else [[Fraction(x) for x in row] for row in m]
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        for pivot_row in range(r, len(rows)):
            if rows[pivot_row][c]:
                break
        else:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        if p:
            inv = pow(rows[r][c], -1, p)
            pivot = rows[r] = [x * inv % p for x in rows[r]]
        else:
            inv = 1 / rows[r][c]
            pivot = rows[r] = [x * inv for x in rows[r]]
        for k, row in enumerate(rows):
            factor = row[c]
            if factor and k != r:
                if p:
                    rows[k] = [(x - factor * y) % p for x, y in zip(row, pivot)]
                else:
                    rows[k] = [x - factor * y for x, y in zip(row, pivot)]
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


def mat_mul(a: Matrix, b: Matrix, p: int = 0) -> list[list]:
    """Exact matrix product over Q (Fractions) or F_p (ints in 0..p-1);
    shapes (m x k) (k x n) -> (m x n)."""
    assert all(len(row) == len(b) for row in a)
    cols = list(zip(*b))
    if p:
        return [[sum(map(mul, row, col)) % p for col in cols] for row in a]
    return [[sum(map(mul, row, col), Fraction(0)) for col in cols] for row in a]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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
    """Inverse of a square matrix over F_p by Gauss-Jordan elimination of
    [m | I]; raises ValueError at the first column with no pivot."""
    n = len(m)
    if n == 1:
        x = m[0][0] % p
        if not x:
            raise ValueError("matrix is singular mod p")
        return [[pow(x, -1, p)]]
    rows = [[x % p for x in row] + unit for row, unit in zip(m, identity(n))]
    for c in range(n):
        pivot_row = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot_row is None:
            raise ValueError("matrix is singular mod p")
        rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
        inv = pow(rows[c][c], -1, p)
        pivot = rows[c] = [x * inv % p for x in rows[c]]
        for k, row in enumerate(rows):
            factor = row[c]
            if factor and k != c:
                rows[k] = [(x - factor * y) % p for x, y in zip(row, pivot)]
    return [row[n:] for row in rows]
