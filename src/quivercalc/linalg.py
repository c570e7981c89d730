"""Exact linear algebra over the rationals, plus F_p helpers for the oracle.

Matrices are tuples/lists of rows.  One Gaussian elimination serves Q:
entries may be int or Fraction and become Fractions, never rounded.  Sizes
are desk scale (path-space and Hom-space dimensions), so plain elimination
with a deterministic leftmost-pivot rule is the right tool; the rule also
makes every computed basis reproducible.  The ``mod_`` helpers (products,
residuals against an echelon basis and inverses over F_p, on ints with plain
``% p`` arithmetic) run in the finite-field oracle's innermost loops.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

Matrix = Sequence[Sequence[int | Fraction]]


def rref(m: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q, leftmost pivots.

    Returns (rows of Fractions, pivot column indices); rows of zeros are kept
    at the bottom.  Deterministic: the first nonzero entry in scan order pivots.
    """
    rows = [[Fraction(x) for x in row] for row in m]
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        for pivot_row in range(r, len(rows)):
            if rows[pivot_row][c]:
                break
        else:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        pivot = rows[r] = [x * inv for x in rows[r]]
        for k, row in enumerate(rows):
            factor = row[c]
            if factor and k != r:
                rows[k] = [x - factor * y for x, y in zip(row, pivot)]
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows, pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


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
