"""The path layer (path counts, path enumeration, the cokernel of psi)
against networkx and sympy, and at depths beyond the recursion limit."""

from __future__ import annotations

import random
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
    UnknownVertexError,
    is_acyclic,
    path_count,
    path_count_matrix,
    projective_representation,
    tangent_presentation,
    vector_fields_dim,
)
from quivercalc.cohomology import _require_vector_fields
from quivercalc.errors import AssumptionViolatedError, CyclicQuiverError, QuiverCalcError


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


def _dag_catalog(seed, size):
    """Random DAGs with parallel arrows, some disconnected, with vertex and
    arrow lists out of topological order."""
    rng = random.Random(seed)
    for _ in range(size):
        n = rng.randint(1, 9)
        order = rng.sample([f"v{k}" for k in range(n)], n)  # a topological order
        arrows = [
            (order[i], order[j])
            for i in range(n)
            for j in range(i + 1, n)
            for _ in range(rng.choice((0, 0, 0, 1, 2, 3)))
        ]
        yield Quiver(sorted(order), rng.sample(arrows, len(arrows)))


def test_path_count_equals_the_table_entry():
    pairs = set()
    for q in _dag_catalog(seed=16, size=60):
        table = path_count_matrix(q)
        for i in q.vertices:
            assert path_count(q, i, i) == 1
            for j in q.vertices:
                count = path_count(q, i, j)
                assert count == table.count(i, j), (q, i, j)
                pairs.add("trivial" if i == j else "reachable" if count else "unreachable")
    assert pairs == {"trivial", "reachable", "unreachable"}


def test_path_count_rejects_cycles_and_unknown_vertices():
    cyclic = Quiver(("a", "b"), (("a", "b"), ("b", "a")))
    with pytest.raises(CyclicQuiverError, match=re.escape("assumption violated: acyclicity (cycle arrows (0, 1))")):
        path_count(cyclic, "a", "b")
    with pytest.raises(UnknownVertexError, match=re.escape("unknown vertex in pair ('a', 'z')")):
        path_count(chain(3), "a", "z")
    with pytest.raises(UnknownVertexError):
        path_count(chain(3), "v9", "v0")


TWO_CYCLE = Quiver(("a", "b"), (("a", "b"), ("b", "a")))
TWO_CYCLE_THIN = DimensionVector({"a": 1, "b": 1})

# Every path count, path basis and presentation, and the vector-fields gate
# before it names the failed hypotheses, reaches one refusal of a cyclic
# quiver, and it names the cycle.
CYCLIC_CALLS = {
    "path_count": lambda q: path_count(q, "a", "b"),
    "path_count_matrix": path_count_matrix,
    "enumerate_paths": lambda q: enumerate_paths(q, "a", "b"),
    "hochschild1_dim": hochschild1_dim,
    "projective_representation": lambda q: projective_representation(q, "a"),
    "tangent_presentation": lambda q: tangent_presentation(q, TWO_CYCLE_THIN),
    "_require_vector_fields": lambda q: _require_vector_fields(q, TWO_CYCLE_THIN, []),
    "vector_fields_dim": lambda q: vector_fields_dim(q, TWO_CYCLE_THIN, StabilityParameter({"a": 1, "b": -1})),
}


@pytest.mark.parametrize("name", CYCLIC_CALLS)
def test_every_cyclic_refusal_names_the_cycle(name):
    with pytest.raises(AssumptionViolatedError) as excinfo:
        CYCLIC_CALLS[name](TWO_CYCLE)
    assert type(excinfo.value) is CyclicQuiverError and excinfo.value.cycle == (0, 1)
    assert excinfo.value.assumption == "acyclicity"
    assert str(excinfo.value) == "assumption violated: acyclicity (cycle arrows (0, 1))"


def test_projective_representation_refuses_an_unknown_vertex_before_a_cycle():
    with pytest.raises(UnknownVertexError, match=re.escape("unknown vertex 'z'")):
        projective_representation(TWO_CYCLE, "z")


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


@settings(max_examples=40, deadline=None)
@given(st.one_of(shuffled_dags(max_vertices=5, connected=True), shuffled_dags(max_vertices=5)), st.data())
def test_presentation_cokernel_matches_full_presentation(q, data):
    # d is zero at most at one vertex, so that most draws are fully supported;
    # no hypothesis is named as failed, so only the presentation's
    # preconditions gate the cokernel, HH^1 (as under analyze's override)
    zero_at = data.draw(st.none() | st.sampled_from(q.vertices))
    d = DimensionVector({v: 0 if v == zero_at else data.draw(st.integers(1, 2)) for v in q.vertices})
    try:
        pres = tangent_presentation(q, d)
    except QuiverCalcError as exc:
        # disconnected or not fully supported: the gate refuses alike
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            _require_vector_fields(q, d, [])
        return
    _require_vector_fields(q, d, [])
    rank = sympy_rank(pres.psi_matrix)
    assert hochschild1_dim(q) == pres.codomain_dim - rank


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
