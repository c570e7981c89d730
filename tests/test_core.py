import math
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from quivercalc import (
    DimensionVector,
    Path,
    Quiver,
    StabilityParameter,
    UnknownVertexError,
    VertexSetMismatchError,
    canonical_stability,
    connected_components,
    enumerate_paths,
    euler_form,
    is_acyclic,
    path_count_matrix,
    slope,
)
from quivercalc.core import PRIME_LIMIT, _is_prime
from quivercalc.errors import CyclicQuiverError

from conftest import acyclic_quivers, quiver_with_dimensions, thin
from oracles import dfs_path_count, union_find_component_count


def test_quiver_validates_arrow_endpoints():
    with pytest.raises(UnknownVertexError):
        Quiver(("a",), (("a", "b"),))
    with pytest.raises(ValueError):
        Quiver(("a", "a"), ())


def test_is_acyclic_three_vertex(three_vertex):
    cert = is_acyclic(three_vertex)
    assert cert.acyclic
    assert cert.topological_order == ("1", "2", "3")


def test_is_acyclic_single_vertex_no_arrows():
    assert is_acyclic(Quiver(("a",), ())).acyclic


def test_is_acyclic_loop_returns_cycle_witness():
    cert = is_acyclic(Quiver(("a",), (("a", "a"),)))
    assert not cert.acyclic
    assert cert.cycle == (0,)


def test_is_acyclic_two_cycle():
    q = Quiver(("a", "b"), (("a", "b"), ("b", "a")))
    cert = is_acyclic(q)
    assert not cert.acyclic
    # the witness composes to a closed walk
    path = Path(q.arrows[cert.cycle[0]][0], cert.cycle)
    assert path.target(q) == path.source


def test_is_acyclic_cycle_with_dead_end_spur():
    # "c" is fed from the cycle but has no outgoing arrows, and sorts first;
    # the witness must still be a genuine cycle
    q = Quiver(("c", "a", "b"), (("a", "b"), ("b", "a"), ("a", "c")))
    cert = is_acyclic(q)
    assert not cert.acyclic
    path = Path(q.arrows[cert.cycle[0]][0], cert.cycle)
    assert path.target(q) == path.source
    assert len(cert.cycle) >= 1


def test_euler_form_three_vertex_thin(three_vertex):
    d = thin(three_vertex)
    assert euler_form(three_vertex, d, d) == -1  # 3 vertex terms - 4 arrow terms


def test_euler_form_zero_argument(three_vertex):
    zero = DimensionVector({v: 0 for v in three_vertex.vertices})
    assert euler_form(three_vertex, zero, thin(three_vertex)) == 0


def test_euler_form_kronecker(kronecker):
    d = thin(kronecker)
    assert euler_form(kronecker, d, d) == 0  # 2 - 2


def test_euler_form_vertex_set_mismatch(three_vertex, kronecker):
    with pytest.raises(VertexSetMismatchError):
        euler_form(three_vertex, thin(kronecker), thin(three_vertex))


@settings(max_examples=60)
@given(quiver_with_dimensions(), st.data())
def test_euler_form_bilinear(qd, data):
    q, e = qd
    f = DimensionVector({v: data.draw(st.integers(0, 3)) for v in q.vertices})
    g = DimensionVector({v: data.draw(st.integers(0, 3)) for v in q.vertices})
    assert euler_form(q, e + f, g) == euler_form(q, e, g) + euler_form(q, f, g)
    assert euler_form(q, g, e + f) == euler_form(q, g, e) + euler_form(q, g, f)


def test_path_count_matrix_three_vertex(three_vertex):
    p = path_count_matrix(three_vertex)
    assert p.count("2", "3") == 2
    assert p.count("1", "3") == 3  # direct arrow + 1->2 composed with each 2->3
    assert all(p.count(v, v) == 1 for v in three_vertex.vertices)
    assert p.total() == 9


def test_path_count_matrix_count_refuses_an_unknown_vertex(three_vertex):
    with pytest.raises(UnknownVertexError, match=re.escape("unknown vertex in pair ('1', 'z')")):
        path_count_matrix(three_vertex).count("1", "z")


def test_path_count_matrix_rejects_cycles():
    with pytest.raises(CyclicQuiverError):
        path_count_matrix(Quiver(("a",), (("a", "a"),)))


@settings(max_examples=50)
@given(acyclic_quivers(max_vertices=6))
def test_path_count_matrix_matches_dfs_oracle(q):
    p = path_count_matrix(q)
    for i in q.vertices:
        for j in q.vertices:
            assert p.count(i, j) == dfs_path_count(q, i, j)


@settings(max_examples=50)
@given(acyclic_quivers(max_vertices=6))
def test_path_count_matrix_inverts_i_minus_a(q):
    n = len(q.vertices)
    a = [[0] * n for _ in range(n)]  # a[i][j] = number of arrows i -> j
    for s, t in q.arrow_indices:
        a[s][t] += 1
    p = path_count_matrix(q).entries
    for i in range(n):
        for j in range(n):
            entry = sum((1 if i == k else 0) * p[k][j] - a[i][k] * p[k][j] for k in range(n))
            assert entry == (1 if i == j else 0)


def test_canonical_stability_three_vertex(three_vertex):
    theta = canonical_stability(three_vertex, thin(three_vertex))
    assert theta.as_dict() == {"1": 2, "2": 1, "3": -3}


def test_canonical_stability_no_arrows():
    q = Quiver(("a", "b"), ())
    theta = canonical_stability(q, DimensionVector({"a": 2, "b": 5}))
    assert theta.as_dict() == {"a": 0, "b": 0}


def test_canonical_stability_kronecker(kronecker):
    theta = canonical_stability(kronecker, thin(kronecker))
    assert theta.as_dict() == {"1": 2, "2": -2}


@settings(max_examples=60)
@given(quiver_with_dimensions())
def test_canonical_stability_pairs_to_zero(qd):
    q, d = qd
    assert canonical_stability(q, d)(d) == 0


def test_slope_exact():
    theta = StabilityParameter({"a": 1, "b": -1})
    e = DimensionVector({"a": 1, "b": 2})
    assert slope(theta, e) == Fraction(-1, 3)
    with pytest.raises(ZeroDivisionError):
        slope(theta, DimensionVector({"a": 0, "b": 0}))


def test_enumerate_paths_three_vertex(three_vertex):
    paths = enumerate_paths(three_vertex, "1", "3")
    assert len(paths) == 3
    assert all(p.target(three_vertex) == "3" for p in paths)
    # deterministic order: direct arrow sequences sorted
    assert [p.arrows for p in paths] == [(0, 1), (0, 2), (3,)]
    assert enumerate_paths(three_vertex, "3", "3") == (Path("3"),)
    assert enumerate_paths(three_vertex, "3", "1") == ()


def test_path_target_refuses_arrows_that_do_not_compose(three_vertex):
    # arrow 0 is 1 -> 2 and arrow 3 is 1 -> 3
    with pytest.raises(ValueError, match=re.escape("path not composable at arrow #3: at '2', arrow starts '1'")):
        Path("1", (0, 3)).target(three_vertex)


def test_connected_components():
    q = Quiver(("a", "b", "c", "d"), (("a", "b"), ("c", "d")))
    assert len(connected_components(q)) == 2


@settings(max_examples=50)
@given(acyclic_quivers(max_vertices=6))
def test_connected_components_match_union_find(q):
    assert len(connected_components(q)) == union_find_component_count(q)


# Vertex names that sort differently from any order they are drawn in,
# including a non-ASCII one.
_vertex_names = st.text(alphabet="ab0Z_∞", min_size=1, max_size=3)


@st.composite
def _vectors_in_some_order(draw):
    """A name -> int map (nonnegative, so it is also a dimension vector),
    one random vertex order, and a vertex outside the map."""
    values = draw(st.dictionaries(_vertex_names, st.integers(0, 12), max_size=6))
    order = tuple(draw(st.permutations(sorted(values))))
    unknown = draw(_vertex_names.filter(lambda v: v not in values))
    return values, order, unknown


@settings(max_examples=150)
@given(_vectors_in_some_order(), st.data())
def test_vertex_vector_contract(case, data):
    values, order, unknown = case
    by_name = sorted(values.items())
    d = DimensionVector({v: values[v] for v in order})

    assert d.aligned(order) == tuple(values[v] for v in order)
    assert all(d[v] == values[v] for v in order)
    with pytest.raises(UnknownVertexError, match=re.escape(f"unknown vertex {unknown!r}")):
        d[unknown]
    assert d.entries == tuple(by_name)
    assert d.as_dict() == values and list(d.as_dict()) == [v for v, _ in by_name]
    assert repr(d) == "DimensionVector({" + ", ".join(f"{v}: {c}" for v, c in by_name) + "})"
    assert d.total() == sum(values.values())
    assert d.is_zero() == (not any(values.values()))
    assert d.is_indivisible() == (math.gcd(*values.values()) == 1)

    # Equality and hash depend on the values and the concrete type only.
    reordered = DimensionVector(list(reversed(list(values.items()))))
    assert reordered == d and hash(reordered) == hash(d)
    assert hash(d) == hash(("DimensionVector", tuple(by_name)))
    assert StabilityParameter(values) != d

    weights = data.draw(st.lists(st.integers(-9, 9), min_size=len(order), max_size=len(order)))
    theta = StabilityParameter(dict(zip(order, weights)))
    assert theta(d) == sum(w * values[v] for v, w in zip(order, weights))
    assert d + d == DimensionVector({v: 2 * c for v, c in values.items()})
    assert (d + d) - d == d and d <= d + d

    expected = f"vector defined on {[v for v, _ in by_name]} but expected vertex set {sorted(order + (unknown,))}"
    with pytest.raises(VertexSetMismatchError, match=re.escape(expected)):
        d.aligned(order + (unknown,))
    other = DimensionVector({**values, unknown: 1})
    with pytest.raises(VertexSetMismatchError, match="pairing of vectors on different vertex sets"):
        theta(other)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a <= b):
        with pytest.raises(VertexSetMismatchError, match="dimension vectors on different vertex sets"):
            op(d, other)
        with pytest.raises(VertexSetMismatchError, match="dimension vectors on different vertex sets"):
            op(other, d)


def _trial_division_is_prime(n):
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division_up_to_ten_thousand():
    assert [n for n in range(-5, 10**4 + 1) if _is_prime(n)] == [
        n for n in range(10**4 + 1) if _trial_division_is_prime(n)
    ]


@pytest.mark.parametrize(
    "n, expected",
    [
        (2**31 - 1, True),
        (10**9 + 7, True),
        (10**18 + 3, True),
        (2**61 - 1, True),
        (PRIME_LIMIT - 2, False),  # divisible by 3
        (561, False),  # Carmichael numbers
        (41041, False),
        (9_585_921_133_193_329, False),
        (3_215_031_751, False),  # strong pseudoprime to the bases 2, 3, 5, 7
        (3_825_123_056_546_413_051, False),  # ... to the prime bases 2..23
        (318_665_857_834_031_151_167_461, False),  # ... to the prime bases 2..37
        ((2**31 - 1) * (10**9 + 7), False),
    ],
)
def test_is_prime_on_large_primes_and_pseudoprimes(n, expected):
    assert _is_prime(n) is expected
    assert sympy.isprime(n) is expected


@settings(max_examples=300)
@given(st.integers(0, PRIME_LIMIT - 1))
def test_is_prime_matches_sympy_below_the_limit(n):
    assert _is_prime(n) is sympy.isprime(n)


def test_is_prime_refuses_field_sizes_at_or_beyond_the_limit():
    for n in (PRIME_LIMIT, 2**89 - 1, 10**100):
        with pytest.raises(ValueError, match=str(PRIME_LIMIT)):
            _is_prime(n)
