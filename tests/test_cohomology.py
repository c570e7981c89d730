import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivercalc import (
    AssumptionViolatedError,
    DimensionVector,
    DisconnectedQuiverError,
    Quiver,
    QuiverMismatchError,
    RationalRepresentation,
    StabilityParameter,
    UnsupportedDimensionVectorError,
    canonical_stability,
    euler_form,
    hochschild1_dim,
    hom_ext,
    moduli_dimension,
    path_count_matrix,
    projective_representation,
    tangent_presentation,
    vector_fields_dim,
)
from quivercalc import QuiverSpec, linalg
from quivercalc.core import is_connected
from quivercalc.report import build_analyze_report

from conftest import (
    acyclic_quivers,
    random_acyclic_quiver,
    random_zero_pairing_parameter,
    strong_catalog_instance,
    thin,
)
from oracles import sympy_mat_mul, union_find_component_count


# The endomorphism dimension table is the path count table; the report's
# ledger states the hypotheses under which they agree.
def test_endomorphism_dimensions_three_vertex(three_vertex):
    table = path_count_matrix(three_vertex)
    assert table.total() == 9  # 1+1+1 trivial + 1 + 2 + 3
    assert table.count("2", "3") == 2


def test_endomorphism_dimensions_no_arrows():
    q = Quiver(("a", "b", "c"), ())
    table = path_count_matrix(q)
    assert table.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert table.total() == 3


def test_tangent_presentation_kronecker(kronecker):
    d = thin(kronecker)
    pres = tangent_presentation(kronecker, d)
    assert pres.domain_dim == 2
    assert pres.codomain_dim == 4  # two arrows, each with a 2-dim path space
    rows = sorted(pres.psi_matrix)
    assert rows == [(-1, 1), (-1, 1), (0, 0), (0, 0)]
    assert linalg.rank(pres.psi_matrix) == 1
    assert pres.phi_matrix == ((1,), (1,))


def test_tangent_presentation_single_vertex():
    q = Quiver(("x",), ())
    d = DimensionVector({"x": 1})
    pres = tangent_presentation(q, d)
    assert pres.phi_matrix == ((1,),)
    assert pres.psi_matrix == ()
    assert pres.codomain_dim - linalg.rank(pres.psi_matrix) == 0


def test_tangent_presentation_three_vertex(three_vertex):
    d = thin(three_vertex)
    pres = tangent_presentation(three_vertex, d)
    assert pres.codomain_dim == 8  # 1 + 2 + 2 + 3
    assert linalg.rank(pres.psi_matrix) == 2


def test_tangent_presentation_preconditions():
    disconnected = Quiver(("a", "b"), ())
    with pytest.raises(DisconnectedQuiverError):
        tangent_presentation(disconnected, thin(disconnected))
    a2 = Quiver(("a", "b"), (("a", "b"),))
    with pytest.raises(UnsupportedDimensionVectorError):
        tangent_presentation(a2, DimensionVector({"a": 1, "b": 0}))


def _signed_incidence_rows(q):
    # the nonzero rows of psi, built directly from the definition
    idx = {v: k for k, v in enumerate(q.vertices)}
    rows = []
    for s, t in q.arrows:
        row = [0] * len(q.vertices)
        row[idx[t]] += 1
        row[idx[s]] -= 1
        rows.append(tuple(row))
    return rows


@st.composite
def multigraph_quivers(draw, max_vertices=7, max_arrows=9):
    """Any quiver: loops, oriented cycles, parallel arrows, isolated vertices."""
    vertices = tuple(f"v{k}" for k in range(draw(st.integers(1, max_vertices))))
    ends = st.sampled_from(vertices)
    return Quiver(vertices, draw(st.lists(st.tuples(ends, ends), max_size=max_arrows)))


@settings(max_examples=40)
@given(acyclic_quivers(max_vertices=5))
def test_psi_rank_counts_components(q):
    # rank psi = #vertices - #components, for any acyclic quiver
    rows = _signed_incidence_rows(q)
    assert linalg.rank(rows) == len(q.vertices) - union_find_component_count(q)


@settings(max_examples=200)
@given(multigraph_quivers())
def test_incidence_rank_lemma_on_any_quiver(q):
    # the lemma vector_fields_dim applies instead of an elimination
    assert linalg.rank(_signed_incidence_rows(q)) == len(q.vertices) - union_find_component_count(q)


@settings(max_examples=40)
@given(acyclic_quivers(max_vertices=5))
def test_psi_phi_composite_zero_and_rank(q):
    from quivercalc.core import is_connected

    d = thin(q)
    if not is_connected(q):
        return
    pres = tangent_presentation(q, d)
    composite = sympy_mat_mul(pres.psi_matrix, pres.phi_matrix) if pres.psi_matrix else []
    assert all(x == 0 for row in composite for x in row)
    assert linalg.rank(pres.phi_matrix) == 1
    assert linalg.rank(pres.psi_matrix) == len(q.vertices) - union_find_component_count(q)


def test_vector_fields_dim_values(three_vertex, kronecker):
    d3 = thin(three_vertex)
    assert vector_fields_dim(three_vertex, d3, canonical_stability(three_vertex, d3)) == 6
    dk = thin(kronecker)
    assert vector_fields_dim(kronecker, dk, StabilityParameter({"1": 1, "2": -1})) == 3


def test_vector_fields_dim_refusal_and_override(three_vertex):
    d = thin(three_vertex)
    bad = StabilityParameter({"1": 2, "2": -1, "3": -1})
    with pytest.raises(AssumptionViolatedError) as info:
        vector_fields_dim(three_vertex, d, bad)
    assert "strong ample stability" in info.value.assumption
    # analyze --override-assumptions reports the formula value, HH^1; the
    # actual moduli space in this chamber has 8
    assert hochschild1_dim(three_vertex) == 6


def test_analyze_reports_what_vector_fields_dim_returns_or_raises():
    """On a seeded catalog of acyclic data, some disconnected, some without
    full support, some failing a hypothesis and some passing every one,
    analyze reports the value vector_fields_dim returns or, where it raises,
    the error's assumption as the refusal; under
    --override-assumptions only the presentation's preconditions refuse,
    and the value is HH^1."""
    rng = random.Random(26)
    outcomes = Counter()
    for k in range(160):
        instance = strong_catalog_instance(rng) if k % 4 else None
        if instance is None:
            q = random_acyclic_quiver(rng, max_vertices=4, connected=rng.random() < 0.6)
            d = DimensionVector({v: rng.choice((0, 1, 1, 2)) for v in q.vertices})
            if not d.total():
                continue
            theta = random_zero_pairing_parameter(rng, q, d)
        else:
            q, d, theta = instance
            if k % 4 > 1:
                # A vertex of dimension 0 keeps every hypothesis; isolated, it
                # disconnects the quiver, and attached, it breaks full support.
                arrows = q.arrows + ((rng.choice(q.vertices), "z"),) * (k % 4 - 2)
                q = Quiver(q.vertices + ("z",), arrows)
                d = DimensionVector({**d.as_dict(), "z": 0})
                theta = StabilityParameter({**theta.as_dict(), "z": rng.randint(-2, 2)})
        spec = QuiverSpec(q, d, theta)
        try:
            expected, outcome = {"value": vector_fields_dim(q, d, theta)}, "value"
        except AssumptionViolatedError as exc:
            expected, outcome = {"refused": exc.assumption}, type(exc).__name__
        outcomes[outcome] += 1
        assert build_analyze_report(spec)["dimensions"]["vector_fields"] == expected

        overridden = build_analyze_report(spec, override_assumptions=True)["dimensions"]["vector_fields"]
        applies = is_connected(q) and 0 not in d.aligned(q.vertices)
        assert ("value" in overridden) == applies
        if applies:
            assert overridden["value"] == hochschild1_dim(q)
        else:
            assert overridden["refused"] in (
                "the presentation requires a connected quiver",
                "full support required: every d_i >= 1",
            )
    assert min(outcomes.values()) >= 5 and len(outcomes) == 4, outcomes


def test_hochschild1_values(three_vertex, kronecker, a2):
    assert hochschild1_dim(three_vertex) == 6
    assert hochschild1_dim(kronecker) == 3  # 4 - 2 + 1
    assert hochschild1_dim(a2) == 0  # 1 - 2 + 1


def test_hochschild1_trees_vanish():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 7)
        vertices = tuple(f"v{k}" for k in range(n))
        arrows = []
        for k in range(1, n):
            other = vertices[rng.randrange(k)]
            # random orientation keeps the underlying graph a tree
            arrows.append((other, vertices[k]) if rng.random() < 0.5 else (vertices[k], other))
        q = Quiver(vertices, arrows)
        assert hochschild1_dim(q) == 0


@settings(max_examples=50)
@given(acyclic_quivers(max_vertices=6))
def test_hochschild1_nonnegative(q):
    assert hochschild1_dim(q) >= 0


def test_hom_ext_kronecker_projectives(kronecker):
    p1 = projective_representation(kronecker, "1")
    p2 = projective_representation(kronecker, "2")
    assert p1.dims.as_dict() == {"1": 1, "2": 2}
    assert p2.dims.as_dict() == {"1": 0, "2": 1}
    result = hom_ext(p2, p1)
    assert (result.hom_dim, result.ext_dim) == (2, 0)
    assert len(result.hom_basis) == 2


def test_hom_ext_simples(a2):
    sink_simple = RationalRepresentation(a2, DimensionVector({"1": 0, "2": 1}), (((),),))
    result = hom_ext(sink_simple, sink_simple)
    assert (result.hom_dim, result.ext_dim) == (1, 0)

    source_simple = RationalRepresentation(a2, DimensionVector({"1": 1, "2": 0}), ((),))
    result = hom_ext(source_simple, sink_simple)
    assert (result.hom_dim, result.ext_dim) == (0, 1)
    assert euler_form(a2, source_simple.dims, sink_simple.dims) == -1


def test_hom_ext_quiver_mismatch(a2, kronecker):
    d = DimensionVector({"1": 0, "2": 1})
    over_a2 = RationalRepresentation(a2, d, (((),),))
    over_kronecker = RationalRepresentation(kronecker, d, (((),), ((),)))
    for m, n in ((over_a2, over_kronecker), (over_kronecker, over_a2)):
        with pytest.raises(QuiverMismatchError):
            hom_ext(m, n)


def random_rational_representation(rng, q, max_dim=2, entry_range=3):
    d = DimensionVector({v: rng.randint(0, max_dim) for v in q.vertices})
    mats = []
    for s, t in q.arrows:
        mats.append(
            tuple(
                tuple(Fraction(rng.randint(-entry_range, entry_range)) for _ in range(d[s]))
                for _ in range(d[t])
            )
        )
    return RationalRepresentation(q, d, tuple(mats))


def test_hom_minus_ext_equals_euler_form_on_random_representations():
    rng = random.Random(42)
    for _ in range(20):
        q = random_acyclic_quiver(rng, max_vertices=4)
        for _ in range(5):
            m = random_rational_representation(rng, q)
            n = random_rational_representation(rng, q)
            result = hom_ext(m, n)
            assert result.hom_dim - result.ext_dim == euler_form(q, m.dims, n.dims)


def test_hom_basis_elements_intertwine(kronecker):
    p1 = projective_representation(kronecker, "1")
    p2 = projective_representation(kronecker, "2")
    result = hom_ext(p2, p1)
    for f in result.hom_basis:
        for a, (s, t) in enumerate(kronecker.arrows):
            left = sympy_mat_mul(f[t], p2.arrow_matrices[a]) if p2.arrow_matrices[a] else []
            right = sympy_mat_mul(p1.arrow_matrices[a], f[s]) if f[s] else []
            assert [[x for x in row] for row in left] == [[x for x in row] for row in right]


def test_projective_representations(three_vertex, kronecker):
    p = projective_representation(three_vertex, "1")
    assert p.dims.as_dict() == {"1": 1, "2": 1, "3": 3}
    sink = projective_representation(three_vertex, "3")
    assert sink.dims.as_dict() == {"1": 0, "2": 0, "3": 1}  # simple at the sink
    pk = projective_representation(kronecker, "1")
    assert pk.dims.as_dict() == {"1": 1, "2": 2}


def test_projectives_reproduce_path_counts():
    rng = random.Random(5)
    for _ in range(8):
        q = random_acyclic_quiver(rng, max_vertices=4)
        counts = path_count_matrix(q)
        projectives = {v: projective_representation(q, v) for v in q.vertices}
        for i in q.vertices:
            for j in q.vertices:
                result = hom_ext(projectives[j], projectives[i])
                assert result.hom_dim == counts.count(i, j)
                assert result.ext_dim == 0


def test_consistency_check_values(three_vertex, kronecker, a2):
    # HH^1 against the cokernel of the full presentation, by elimination;
    # the point moduli space of the thin A_2 datum has no vector fields
    for q, expected in ((three_vertex, 6), (kronecker, 3), (a2, 0)):
        pres = tangent_presentation(q, thin(q))
        assert pres.codomain_dim - linalg.rank(pres.psi_matrix) == expected
        assert hochschild1_dim(q) == expected


def test_moduli_dimension(three_vertex):
    assert moduli_dimension(three_vertex, thin(three_vertex)) == 2  # a surface
