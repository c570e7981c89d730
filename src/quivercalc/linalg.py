"""Exact linear algebra over the rationals and over prime fields.

Matrices are tuples/lists of rows.  Rational routines accept int or Fraction
entries and never round; mod-p routines work on int entries reduced mod p.
Sizes here are desk scale (path-space and Hom-space dimensions), so plain
Gaussian elimination with a deterministic leftmost-pivot rule is the right
tool; the pivot rule also makes every computed basis reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = Sequence[Sequence[int | Fraction]]


def _as_fraction_rows(m: Matrix) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in m]


def rref(m: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q with leftmost pivots.

    Returns (rows, pivot column indices); rows of zeros are kept at the
    bottom.  Deterministic: the first nonzero entry in scan order pivots.
    """
    rows = _as_fraction_rows(m)
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for k in range(r, len(rows)):
            if rows[k][c] != 0:
                pivot_row = k
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1, 1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c] != 0:
                factor = rows[k][c]
                rows[k] = [x - factor * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
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


def mat_mul(a: Matrix, b: Matrix) -> list[list[Fraction]]:
    """Exact matrix product; shapes (m x k) (k x n) -> (m x n)."""
    k = len(b)
    n = len(b[0]) if k else 0
    out = []
    for row in a:
        assert len(row) == k
        out.append([sum((Fraction(row[i]) * b[i][j] for i in range(k)), Fraction(0)) for j in range(n)])
    return out


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# --- prime field routines ---------------------------------------------------


def mod_rref(m: Sequence[Sequence[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p; returns (rows, pivot columns)."""
    rows = [[x % p for x in row] for row in m]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for k in range(r, len(rows)):
            if rows[k][c] % p != 0:
                pivot_row = k
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c] % p != 0:
                factor = rows[k][c]
                rows[k] = [(x - factor * y) % p for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def mod_rank(m: Sequence[Sequence[int]], p: int) -> int:
    return len(mod_rref(m, p)[1])


def mod_mat_vec(m: Sequence[Sequence[int]], v: Sequence[int], p: int) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) % p for row in m]


def mod_mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    k = len(b)
    n = len(b[0]) if k else 0
    return [[sum(row[i] * b[i][j] for i in range(k)) % p for j in range(n)] for row in a]


def mod_in_rowspan(rref_rows: Sequence[Sequence[int]], pivots: Sequence[int], v: Sequence[int], p: int) -> bool:
    """Membership of v in the row space given by a reduced echelon basis."""
    residual = [x % p for x in v]
    for row, c in zip(rref_rows, pivots):
        coeff = residual[c]
        if coeff:
            residual = [(x - coeff * y) % p for x, y in zip(residual, row)]
    return all(x == 0 for x in residual)


def mod_invert(m: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """Inverse of a square matrix over F_p; raises ValueError if singular."""
    n = len(m)
    aug = [[m[i][j] % p for j in range(n)] + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    rows, pivots = mod_rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular mod p")
    return [row[n:] for row in rows[:n]]


def mod_is_invertible(m: Sequence[Sequence[int]], p: int) -> bool:
    n = len(m)
    if n == 0:
        return True
    if any(len(row) != n for row in m):
        return False
    return mod_rank(m, p) == n
