"""The path layer (path counts, path enumeration, the cokernel of psi)
against networkx and sympy, and at depths beyond the recursion limit."""

from __future__ import annotations

import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import networkx_paths, sympy_rank
from quivercalc import (
    DimensionVector,
    Quiver,
    StabilityParameter,
    enumerate_paths,
    hochschild1_dim,
    is_acyclic,
    path_count_matrix,
    tangent_presentation,
    vector_fields_dim,
)
from quivercalc.errors import QuiverCalcError


@st.composite
def shuffled_dags(draw, max_vertices=6, max_parallel=2, connected=False):
    """Acyclic quivers with parallel arrows whose vertex list is not in
    topological order and whose arrow list is shuffled; ``connected`` adds
    an arrow into every vertex but the first from an earlier one."""
    n = draw(st.integers(1, max_vertices))
    order = draw(st.permutations([f"v{k}" for k in range(n)]))  # a topological order
    arrows = []
    if connected:
        arrows += [(order[draw(st.integers(0, k - 1))], order[k]) for k in range(1, n)]
    for i in range(n):
        for j in range(i + 1, n):
            arrows += [(order[i], order[j])] * draw(st.integers(0, max_parallel))
    return Quiver(sorted(order), draw(st.permutations(arrows)))


def chain(n: int) -> Quiver:
    vertices = tuple(f"v{k}" for k in range(n))
    return Quiver(vertices, tuple(zip(vertices, vertices[1:])))


@settings(max_examples=60, deadline=None)
@given(shuffled_dags())
def test_path_count_matrix_matches_networkx(q):
    p = path_count_matrix(q)
    for i in q.vertices:
        for j in q.vertices:
            assert p.count(i, j) == len(networkx_paths(q, i, j))


@settings(max_examples=60, deadline=None)
@given(shuffled_dags())
def test_enumerate_paths_matches_networkx(q):
    p = path_count_matrix(q)
    for i in q.vertices:
        for j in q.vertices:
            paths = enumerate_paths(q, i, j)
            assert [path.arrows for path in paths] == networkx_paths(q, i, j)
            assert all(path.source == i and path.target(q) == j for path in paths)
            assert len(paths) == p.count(i, j)


@pytest.mark.filterwarnings("ignore::quivercalc.UnverifiedAssumptionWarning")
@settings(max_examples=40, deadline=None)
@given(st.one_of(shuffled_dags(max_vertices=5, connected=True), shuffled_dags(max_vertices=5)), st.data())
def test_presentation_cokernel_matches_full_presentation(q, data):
    # d is zero at most at one vertex, so that most draws are fully supported;
    # theta = 0 fails the hypotheses on most draws, so the formula value is
    # taken by override
    zero_at = data.draw(st.none() | st.sampled_from(q.vertices))
    d = DimensionVector({v: 0 if v == zero_at else data.draw(st.integers(1, 2)) for v in q.vertices})
    theta = StabilityParameter({v: 0 for v in q.vertices})
    try:
        pres = tangent_presentation(q, d, theta)
    except QuiverCalcError as exc:
        # disconnected or not fully supported: the cokernel refuses alike
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            vector_fields_dim(q, d, theta, override_assumptions=True)
        return
    rank = sympy_rank(pres.psi_matrix)
    assert vector_fields_dim(q, d, theta, override_assumptions=True) == pres.codomain_dim - rank


def test_enumerate_paths_beyond_recursion_limit():
    q = chain(1501)
    (path,) = enumerate_paths(q, "v0", "v1500")
    assert path.arrows == tuple(range(1500))


def test_is_acyclic_long_chain():
    q = chain(10**4)
    cert = is_acyclic(q)
    assert cert.topological_order == q.vertices


def test_hochschild1_long_chain_is_fast():
    q = chain(1200)
    start = time.perf_counter()
    assert hochschild1_dim(q) == 0
    assert time.perf_counter() - start < 5.0
