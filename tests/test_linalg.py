"""Differential tests of the one exact elimination over Q and F_p and of the
F_p residual and inverse."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_row_span,
    sympy_inverse_mod,
    sympy_mat_mul_mod,
    sympy_rank,
    sympy_rref,
    sympy_rref_mod,
)
from quivercalc import linalg, subspaces_of


@st.composite
def int_matrices(draw, max_rows=4, max_cols=4, square=False):
    nrows = draw(st.integers(1, max_rows))
    ncols = nrows if square else draw(st.integers(1, max_cols))
    entries = st.integers(-4, 4)
    return [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]


@settings(max_examples=80)
@given(int_matrices())
def test_rref_over_q_equals_sympy(m):
    rows, pivots = linalg.rref(m)
    assert linalg.rank(m) == len(pivots) == sympy_rank(m)
    # The reduced echelon form is unique, so the whole matrix must agree.
    assert (rows, pivots) == sympy_rref(m)


@settings(max_examples=150)
@given(int_matrices(), st.sampled_from((2, 3, 5)))
@example([[0, 0], [0, 0]], 2)
@example([[2, 4, 1], [4, 3, 2], [1, 2, 3]], 5)
def test_rref_over_fp_equals_sympy(m, p):
    rows, pivots = linalg.rref(m, p)
    assert linalg.rank(m, p) == len(pivots)
    assert (rows, pivots) == sympy_rref_mod(m, p)


def test_rank_and_residual_over_fp_match_the_brute_force_span():
    # Every echelon basis of every subspace of F_p^n, p in {2, 3, 5}, n <= 3.
    for p, n in itertools.product((2, 3, 5), (1, 2, 3)):
        for space in subspaces_of(p, n):
            reduced, pivots = [list(row) for row in space.rows], space.pivots
            span = brute_force_row_span(reduced, p) if reduced else {(0,) * n}
            assert p ** len(reduced) == len(span)
            # An echelon basis need not be reduced: adding every later row to
            # each row keeps the pivots and the span but fills the pivot
            # columns above.
            unreduced = [
                [sum(col) % p for col in zip(*reduced[k:])] for k in range(len(reduced))
            ]
            if reduced:
                assert linalg.rref(unreduced, p) == (reduced, list(pivots))
                assert linalg.rank(unreduced, p) == len(reduced)
            for v in itertools.product(range(p), repeat=n):
                for basis in (reduced, unreduced):
                    residual = linalg.mod_residual(basis, pivots, v, p)
                    assert (not any(residual)) == (v in span)
                    assert linalg.mod_residual(basis, pivots, [x - p for x in v], p) == residual


@settings(max_examples=80)
@given(int_matrices(max_rows=3, square=True), st.sampled_from((2, 3, 5)))
def test_mod_invert_is_a_two_sided_inverse_exactly_at_full_rank(m, p):
    n = len(m)
    if sympy_inverse_mod(m, p) is None:
        with pytest.raises(ValueError):
            linalg.mod_invert(m, p)
        return
    inverse = linalg.mod_invert(m, p)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert sympy_mat_mul_mod(inverse, m, p) == identity
    assert sympy_mat_mul_mod(m, inverse, p) == identity


def _inverse_or_error(m, p):
    try:
        return linalg.mod_invert(m, p)
    except ValueError as error:
        return str(error)


@st.composite
def fp_square_matrices(draw):
    """(m, p): an n x n integer matrix, n = 1..4, entries in -p..2p-1 so
    that reduction mod p is exercised, singular mod p about half the time
    (a zero row or a row that is a combination of others)."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 4))
    m = [[draw(st.integers(-p, 2 * p - 1)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        coeffs = [draw(st.integers(0, p - 1)) if r != k else 0 for r in range(n)]
        m[k] = [sum(c * row[j] for c, row in zip(coeffs, m)) + p * draw(st.integers(-1, 1)) for j in range(n)]
    return m, p


@settings(max_examples=300)
@given(fp_square_matrices())
@example(([[0]], 2))
@example(([[5]], 5))
@example(([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], 3))
@example(([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [1, 0, 1, 0]], 5))
def test_mod_invert_matches_sympy_or_raises_the_same_error(case):
    m, p = case
    expected = sympy_inverse_mod(m, p)
    assert _inverse_or_error(m, p) == ("matrix is singular mod p" if expected is None else expected)


@pytest.mark.parametrize("n, p", [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (3, 2)])
def test_mod_invert_matches_sympy_on_every_small_matrix(n, p):
    for entries in itertools.product(range(p), repeat=n * n):
        m = [list(entries[r * n : (r + 1) * n]) for r in range(n)]
        expected = sympy_inverse_mod(m, p)
        assert _inverse_or_error(m, p) == ("matrix is singular mod p" if expected is None else expected)
