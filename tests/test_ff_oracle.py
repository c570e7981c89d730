import itertools
import math
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quivercalc import (
    AssumptionViolatedError,
    BudgetExceededError,
    DimensionVector,
    FiniteFieldRepresentation,
    NotThinAtEndpointsError,
    PairingNonzeroError,
    Path,
    Quiver,
    RationalRepresentation,
    StabilityParameter,
    VertexSetMismatchError,
    assumptions_report,
    canonical_stability,
    double_frame,
    enumerate_paths,
    gaussian_binomial,
    king_stability,
    path_semiinvariant,
    subspace_count,
    subspaces_of,
    verify_double_framing_equivalence,
    verify_semiinvariant_weight,
)
from quivercalc import ff_oracle, linalg
from quivercalc.ff_oracle import _span_masks, random_group_element, random_representation

from conftest import random_acyclic_quiver, random_zero_pairing_parameter, thin
from oracles import (
    brute_force_row_span,
    enumerate_subrepresentations,
    gaussian_binomial_formula,
    group_act,
    has_cyclic_destabilizer,
    naive_closed_tuples,
    naive_cyclic_destabilizer,
    naive_king_stability,
    rank_rejection_group_element,
    two_search_framing_equivalence,
)


def test_subspace_counts_match_gaussian_binomials():
    for p in (2, 3, 5):
        for n in range(0, 4):
            spaces = subspaces_of(p, n)
            assert len(spaces) == subspace_count(n, p)
            by_dim = {}
            for s in spaces:
                by_dim[s.dim] = by_dim.get(s.dim, 0) + 1
            for k in range(n + 1):
                assert by_dim.get(k, 0) == gaussian_binomial_formula(n, k, p)
                assert gaussian_binomial(n, k, p) == gaussian_binomial_formula(n, k, p)


def test_subspaces_of_f2_squared():
    spaces = subspaces_of(2, 2)
    assert len(spaces) == 5  # zero, three lines, full plane


def kron_rep(kronecker, a_entry, b_entry, p=2):
    d = thin(kronecker)
    return FiniteFieldRepresentation(
        kronecker, p, d, (((a_entry,),), ((b_entry,),))
    )


def test_enumerate_subrepresentations_kronecker(kronecker):
    m = kron_rep(kronecker, 1, 1)
    dims = [d.as_dict() for _, d in enumerate_subrepresentations(m)]
    assert dims == [
        {"1": 0, "2": 0},
        {"1": 0, "2": 1},
        {"1": 1, "2": 1},
    ]


def test_enumerate_subrepresentations_zero_rep(kronecker):
    m = kron_rep(kronecker, 0, 0)
    assert len(list(enumerate_subrepresentations(m))) == 4  # all subspace tuples


def test_enumerate_subrepresentations_single_vertex_counts():
    q = Quiver(("x",), ())
    m = FiniteFieldRepresentation(q, 2, DimensionVector({"x": 2}), ())
    assert len(list(enumerate_subrepresentations(m))) == 5


def test_enumerate_subrepresentations_budget(kronecker):
    m = kron_rep(kronecker, 1, 1)
    with pytest.raises(BudgetExceededError):
        list(enumerate_subrepresentations(m, budget=3))


def test_zero_representation_subrep_count_is_gaussian_product(a2):
    # with zero maps every subspace tuple is a subrepresentation
    d = DimensionVector({"1": 2, "2": 2})
    zero = ((0, 0), (0, 0))
    m = FiniteFieldRepresentation(a2, 3, d, (zero,))
    count = len(list(enumerate_subrepresentations(m)))
    assert count == subspace_count(2, 3) ** 2
    assert subspace_count(2, 3) == sum(gaussian_binomial_formula(2, k, 3) for k in range(3))


def test_king_stability_examples(kronecker):
    theta = StabilityParameter({"1": 1, "2": -1})
    verdict = king_stability(kron_rep(kronecker, 1, 0), theta)
    assert verdict.stable and verdict.semistable

    verdict = king_stability(kron_rep(kronecker, 0, 0), theta)
    assert not verdict.semistable and not verdict.stable
    assert verdict.destabilizing_subrep[1].as_dict() == {"1": 1, "2": 0}

    zero_theta = StabilityParameter({"1": 0, "2": 0})
    verdict = king_stability(kron_rep(kronecker, 1, 1), zero_theta)
    assert verdict.semistable and not verdict.stable  # proper subrep pairs to zero


def test_king_searches_refuse_a_nonzero_pairing(kronecker):
    m = kron_rep(kronecker, 1, 0)
    theta = StabilityParameter({"1": 2, "2": -1})
    for search in (king_stability, has_cyclic_destabilizer):
        with pytest.raises(PairingNonzeroError, match=re.escape("theta(d) = 1, expected 0")):
            search(m, theta)


def test_king_stability_monotone_on_f2_instances():
    rng = random.Random(99)
    for _ in range(30):
        q = random_acyclic_quiver(rng, max_vertices=3)
        d = DimensionVector({v: rng.randint(0, 2) for v in q.vertices})
        theta = random_zero_pairing_parameter(rng, q, d)
        m = random_representation(rng, q, d, 2)
        verdict = king_stability(m, theta)
        assert verdict.stable <= verdict.semistable


def test_cyclic_destabilizer_agrees_on_thin_representations():
    # every subrepresentation of a thin representation is generated by one
    # element, so the cyclic screening is exact there
    rng = random.Random(123)
    for _ in range(40):
        q = random_acyclic_quiver(rng, max_vertices=4)
        d = thin(q)
        theta = random_zero_pairing_parameter(rng, q, d)
        m = random_representation(rng, q, d, 2)
        verdict = king_stability(m, theta)
        found, _ = has_cyclic_destabilizer(m, theta)
        assert found == (not verdict.semistable)


def test_cyclic_destabilizer_is_only_a_screening_beyond_thin():
    # Unstable representation none of whose cyclic subrepresentations
    # destabilize: two arrows F_2^2 -> F_2^3 whose pencil has no rank-one
    # member (binary anisotropic form x^2 + xy + y^2), yet the common image
    # plane carries a destabilizing subrepresentation of dimension (2, 2).
    q = Quiver(("m", "s"), (("m", "s"), ("m", "s")))
    d = DimensionVector({"m": 2, "s": 3})
    theta = StabilityParameter({"m": 3, "s": -2})
    a = ((1, 0), (0, 1), (0, 0))
    b = ((0, 1), (1, 1), (0, 0))
    m = FiniteFieldRepresentation(q, 2, d, (a, b))
    verdict = king_stability(m, theta)
    assert not verdict.semistable
    assert verdict.destabilizing_subrep[1].as_dict() == {"m": 2, "s": 2}
    found, _ = has_cyclic_destabilizer(m, theta)
    assert not found


def test_verify_double_framing_equivalence_kronecker(kronecker):
    d = thin(kronecker)
    theta = StabilityParameter({"1": 1, "2": -1})
    report = verify_double_framing_equivalence(double_frame(kronecker, d, theta, "1", "2", 2), 2)
    assert report.passed
    assert report.instances_checked == 16
    assert not report.sampled

    report3 = verify_double_framing_equivalence(double_frame(kronecker, d, theta, "1", "2", 2), 3)
    assert report3.passed
    assert report3.instances_checked == 81


def test_verify_double_framing_below_minimal_scale_is_labeled(kronecker):
    d = thin(kronecker)
    theta = StabilityParameter({"1": 1, "2": -1})
    report = verify_double_framing_equivalence(double_frame(kronecker, d, theta, "1", "2", 1), 2)
    assert "below minimal framing scale" in report.notes
    assert report.instances_checked == 16


def test_verify_double_framing_requires_coprimality(kronecker):
    d = DimensionVector({"1": 2, "2": 2})
    theta = StabilityParameter({"1": 1, "2": -1})
    with pytest.raises(AssumptionViolatedError):
        verify_double_framing_equivalence(double_frame(kronecker, d, theta, "1", "2", 2), 2)


def test_verify_double_framing_sampling_fallback(three_vertex):
    d = thin(three_vertex)
    theta = canonical_stability(three_vertex, d)
    # 2^6 = 64 points but only 2^5 = 32 subspace tuples per point, so a
    # budget of 40 forces sampling while per-point verdicts stay feasible
    framing = double_frame(three_vertex, d, theta, "2", "3", 2)
    report = verify_double_framing_equivalence(framing, 2, budget=40, seed=1)
    assert report.sampled
    assert report.sample_size == 40
    assert report.instances_checked == 40
    assert report.passed


def test_verify_double_framing_infeasible_budget(a2):
    d = thin(a2)
    theta = StabilityParameter({"1": 1, "2": -1})
    # 2^4 = 16 subspace tuples per point exceed the budget: not even sampling helps
    with pytest.raises(BudgetExceededError):
        verify_double_framing_equivalence(double_frame(a2, d, theta, "1", "2", 2), 2, budget=5)


def test_verify_double_framing_rejects_non_prime(kronecker):
    d = thin(kronecker)
    theta = StabilityParameter({"1": 1, "2": -1})
    with pytest.raises(ValueError):
        verify_double_framing_equivalence(double_frame(kronecker, d, theta, "1", "2", 2), 4)


def test_path_semiinvariant_values(three_vertex):
    d = thin(three_vertex)
    m = FiniteFieldRepresentation(
        three_vertex, 5, d, (((2,),), ((3,),), ((4,),), ((1,),))
    )
    # arrows: 0: 1->2 (value 2), 1: 2->3 (3), 2: 2->3 (4), 3: 1->3 (1)
    assert path_semiinvariant(m, Path("1", (0, 1))) == (2 * 3) % 5
    assert path_semiinvariant(m, Path("1", (0, 2))) == (2 * 4) % 5
    assert path_semiinvariant(m, Path("1", (3,))) == 1
    assert path_semiinvariant(m, Path("2",)) == 1  # trivial path

    ones = FiniteFieldRepresentation(three_vertex, 5, d, (((1,),), ((1,),), ((1,),), ((1,),)))
    for path in enumerate_paths(three_vertex, "1", "3"):
        assert path_semiinvariant(ones, path) == 1


def test_path_semiinvariant_on_a_rational_representation(a3):
    # endpoints thin, middle vertex 2-dimensional: (2, -1/3) . (1/2, 1)^T
    d = DimensionVector({"1": 1, "2": 2, "3": 1})
    m = RationalRepresentation(a3, d, (((Fraction(1, 2),), (Fraction(1),)), ((Fraction(2), Fraction(-1, 3)),)))
    value = path_semiinvariant(m, Path("1", (0, 1)))
    assert type(value) is Fraction and value == Fraction(2, 3)
    assert path_semiinvariant(m, Path("3")) == 1


def test_finite_field_representation_refuses_a_composite_field_size(kronecker):
    with pytest.raises(ValueError, match="^4 is not prime$"):
        FiniteFieldRepresentation(kronecker, 4, thin(kronecker), (((1,),), ((1,),)))


def test_path_semiinvariant_multiplicative(three_vertex):
    rng = random.Random(3)
    d = thin(three_vertex)
    for _ in range(20):
        m = random_representation(rng, three_vertex, d, 5)
        left = Path("1", (0,))     # 1 -> 2
        right = Path("2", (1,))    # 2 -> 3
        joined = Path("1", (0, 1))
        value = (path_semiinvariant(m, left) * path_semiinvariant(m, right)) % 5
        assert path_semiinvariant(m, joined) == value


def test_path_semiinvariant_requires_thin_endpoints(a2):
    d = DimensionVector({"1": 2, "2": 1})
    m = FiniteFieldRepresentation(a2, 3, d, (((1, 0),),))
    with pytest.raises(NotThinAtEndpointsError):
        path_semiinvariant(m, Path("1", (0,)))


def test_weight_law_identity_and_scaling(three_vertex):
    d = thin(three_vertex)
    m = FiniteFieldRepresentation(three_vertex, 5, d, (((2,),), ((3,),), ((4,),), ((1,),)))
    identity = {v: ((1,),) for v in three_vertex.vertices}
    path = Path("1", (0, 1))
    assert verify_semiinvariant_weight(m, path, identity)
    assert path_semiinvariant(group_act(identity, m), path) == path_semiinvariant(m, path)

    scaled = dict(identity)
    scaled["3"] = ((3,),)  # scale the target by 3
    before = path_semiinvariant(m, path)
    after = path_semiinvariant(group_act(scaled, m), path)
    assert after == (3 * before) % 5
    assert verify_semiinvariant_weight(m, path, scaled)


def test_weight_law_random_trials_thin(three_vertex):
    rng = random.Random(2024)
    d = thin(three_vertex)
    paths = enumerate_paths(three_vertex, "1", "3")
    for _ in range(100):
        m = random_representation(rng, three_vertex, d, 5)
        g = random_group_element(rng, m)
        path = paths[rng.randrange(len(paths))]
        assert verify_semiinvariant_weight(m, path, g)


def test_weight_law_with_thick_middle(a3):
    # endpoints thin, middle vertex 2-dimensional
    rng = random.Random(17)
    d = DimensionVector({"1": 1, "2": 2, "3": 1})
    path = Path("1", (0, 1))
    for _ in range(50):
        m = random_representation(rng, a3, d, 5)
        g = random_group_element(rng, m)
        assert verify_semiinvariant_weight(m, path, g)


def test_weight_law_detects_a_wrong_inverse(kronecker, monkeypatch):
    """The law acts with the inverses from the elimination: off by a factor
    of 2 at every vertex, they break it on the framed length-3 paths."""
    theta = StabilityParameter({"1": 1, "2": -1})
    framing = double_frame(kronecker, thin(kronecker), theta, "1", "2", 2)
    fq, fd = framing.framed_quiver, framing.framed_dimension
    rng = random.Random(11)
    m = random_representation(rng, fq, fd, 5)
    g = random_group_element(rng, m)
    paths = enumerate_paths(fq, framing.source_vertex, framing.sink_vertex)
    assert [len(path.arrows) for path in paths] == [3, 3]
    assert all(verify_semiinvariant_weight(m, path, g) for path in paths)
    original = linalg.mod_invert

    def off_by_two(m, p):
        return [[2 * x % p for x in row] for row in original(m, p)]

    monkeypatch.setattr(linalg, "mod_invert", off_by_two)
    assert not any(verify_semiinvariant_weight(m, path, g) for path in paths)


@st.composite
def weight_law_cases(draw):
    """(m, path, g) over F_2, F_3 or F_5: a chain v0 -> ... -> vk with one or
    two parallel arrows per step and optional forward skips, thin at both
    ends and up to 3-dimensional in the middle; a v0 -> vk path; and a group
    element that may be singular at one vertex, on the path or off it."""
    p = draw(st.sampled_from((2, 3, 5)))
    k = draw(st.integers(1, 3))
    names = [f"v{i}" for i in range(k + 1)]
    arrows = [(names[i], names[i + 1]) for i in range(k) for _ in range(draw(st.integers(1, 2)))]
    arrows += [(names[i], names[j]) for i in range(k) for j in range(i + 2, k + 1) if draw(st.booleans())]
    q = Quiver(names, arrows)
    d = DimensionVector({v: 1 if v in (names[0], names[-1]) else draw(st.integers(0, 3)) for v in names})
    rng = random.Random(draw(st.integers(0, 2**32)))
    m = random_representation(rng, q, d, p)
    paths = enumerate_paths(q, names[0], names[-1])
    path = paths[draw(st.integers(0, len(paths) - 1))]
    g = random_group_element(rng, m)
    thick = [v for v in names if d[v]]
    if draw(st.booleans()):
        v = draw(st.sampled_from(thick))
        g[v] = ((0,) * d[v], *g[v][1:])
    return m, path, g


def _full_action_law(m, path, g):
    """The law through the whole acted representation, multiplied out."""
    before = path_semiinvariant(m, path)
    after = path_semiinvariant(group_act(g, m), path)
    g_src, g_dst = g[path.source][0][0], g[path.target(m.quiver)][0][0]
    return after == g_dst * pow(g_src, -1, m.prime) * before % m.prime


@settings(max_examples=200, deadline=None)
@given(weight_law_cases())
def test_weight_law_matches_the_full_group_action(case):
    m, path, g = case
    try:
        expected = _full_action_law(m, path, g)
    except ValueError:
        with pytest.raises(ValueError):
            verify_semiinvariant_weight(m, path, g)
    else:
        assert expected is True
        assert verify_semiinvariant_weight(m, path, g) is True


@pytest.mark.parametrize("middle", [1, 2])
def test_weight_law_refuses_a_singular_g_off_the_path(three_vertex, middle):
    d = DimensionVector({"1": 1, "2": middle, "3": 1})
    m = random_representation(random.Random(1), three_vertex, d, 5)
    g = random_group_element(random.Random(2), m)
    path = Path("1", (3,))  # 1 -> 3, avoiding vertex 2
    assert verify_semiinvariant_weight(m, path, g)
    g["2"] = ((0,),) if middle == 1 else ((1, 2), (2, 4))
    with pytest.raises(ValueError):
        verify_semiinvariant_weight(m, path, g)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_random_group_element_matches_the_rank_rejection_reference(a3, p):
    for seed in range(20):
        d = DimensionVector({"1": 1, "2": seed % 4, "3": 1 + seed % 2})
        m = random_representation(random.Random(seed), a3, d, p)
        rng, reference_rng = random.Random(seed), random.Random(seed)
        assert random_group_element(rng, m) == rank_rejection_group_element(reference_rng, m)
        assert rng.getstate() == reference_rng.getstate()


@pytest.mark.parametrize(
    "n, p, seed, g, inverse, next_bits",
    [
        (1, 2, 1, ((1,),), [[1]], 506456969),
        (2, 2, 3, ((1, 1), (1, 0)), [[0, 1], [1, 1]], 3883517040),
        (3, 3, 5, ((2, 1, 2), (1, 2, 2), (2, 2, 0)), [[2, 1, 1], [1, 2, 1], [1, 1, 0]], 3609267711),
        (2, 5, 7, ((2, 1), (3, 0)), [[0, 2], [1, 1]], 311111475),
    ],
)
def test_invertible_draws_are_pinned(n, p, seed, g, inverse, next_bits):
    """The accepted draw, its inverse and the generator state after it (read
    through the next 32 random bits) are fixed for a given seed."""
    rng = random.Random(seed)
    assert ff_oracle._invertible(rng, n, p) == (g, inverse)
    assert rng.getrandbits(32) == next_bits


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 2**31 - 1, 10**9 + 7])
def test_uniform_entries_are_successive_randrange_draws(p):
    """The sampler gives what successive ``randrange(p)`` calls give and
    leaves the generator where they leave it, for every count up to 60; an
    interpreter that draws ``randrange`` another way fails here."""
    for seed in range(50):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        for count in range(61):
            assert ff_oracle._uniform_entries(rng, count, p) == tuple(reference_rng.randrange(p) for _ in range(count))
            assert rng.getstate() == reference_rng.getstate()


def test_random_group_element_draws_are_pinned(a3):
    m = random_representation(random.Random(0), a3, DimensionVector({"1": 1, "2": 2, "3": 3}), 2)
    rng = random.Random(4)
    assert random_group_element(rng, m) == {
        "1": ((1,),),
        "2": ((0, 1), (1, 0)),
        "3": ((1, 1, 1), (1, 0, 0), (1, 1, 0)),
    }
    assert rng.getrandbits(32) == 348216465


def test_enumerate_representations_count(a2):
    d = DimensionVector({"1": 1, "2": 2})
    points = list(ff_oracle._all_matrices(ff_oracle._shapes(a2, d), 2))
    assert len(points) == 4  # one 2x1 matrix over F_2


def _random_rep_out_of_name_order(rng, p, max_total):
    """A random representation over F_p on a quiver whose vertex list is not
    in name order (arrows in both directions, parallel ones allowed), with a
    random zero-pairing theta."""
    names = rng.sample("abcd", rng.randint(2, 3))
    if names == sorted(names):
        names.reverse()
    q = Quiver(names, [tuple(rng.sample(names, 2)) for _ in range(rng.randint(1, 3))])
    while True:
        d = DimensionVector({v: rng.randint(0, 2) for v in names})
        if d.total() <= max_total:
            break
    return random_representation(rng, q, d, p), random_zero_pairing_parameter(rng, q, d)


@pytest.mark.parametrize("p, max_total", [(2, 5), (3, 4)])
def test_king_stability_and_cyclic_screening_match_naive_references(p, max_total):
    rng = random.Random(5 + p)
    outcomes = set()
    for _ in range(60):
        m, theta = _random_rep_out_of_name_order(rng, p, max_total)
        verdict = king_stability(m, theta)
        assert (verdict.semistable, verdict.stable, verdict.destabilizing_subrep) == naive_king_stability(m, theta)
        found = has_cyclic_destabilizer(m, theta)
        assert found == naive_cyclic_destabilizer(m, theta)
        outcomes.add((verdict.semistable, verdict.stable, found[0]))
    # Each kind of verdict occurs: unstable with a cyclic witness, strictly semistable, stable.
    assert {(False, False, True), (True, False, False), (True, True, False)} <= outcomes


@pytest.mark.parametrize(
    "dims, mats, error, message",
    [
        ({"1": 1, "2": 1}, (), ValueError, "expected 1 arrow matrices, got 0"),
        ({"1": 2, "2": 1}, (((1,),),), ValueError, "arrow #0 (1->2) matrix is not 1x2"),
        ({"1": 1, "2": 1, "3": 1}, (((1,),),), VertexSetMismatchError, "but expected vertex set ['1', '2']"),
    ],
)
def test_representation_classes_raise_the_same_shape_errors(a2, dims, mats, error, message):
    d = DimensionVector(dims)
    messages = []
    for build in (lambda: FiniteFieldRepresentation(a2, 2, d, mats), lambda: RationalRepresentation(a2, d, mats)):
        with pytest.raises(error, match=re.escape(message)) as caught:
            build()
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


def _rep(p, dims, arrows, entries):
    """A representation over F_p on vertices v0, v1, ... with the given
    dimensions; arrows are index pairs, matrices filled from ``entries``."""
    names = [f"v{k}" for k in range(len(dims))]
    fill = itertools.cycle(entries)
    mats = tuple(tuple(tuple(next(fill) % p for _ in range(dims[s])) for _ in range(dims[t])) for s, t in arrows)
    q = Quiver(names, [(names[s], names[t]) for s, t in arrows])
    return FiniteFieldRepresentation(q, p, DimensionVector(dict(zip(names, dims))), mats)


@st.composite
def small_ff_representations(draw):
    """Representations over F_2 or F_3 on up to four vertices, zero
    dimensions allowed.  With two or more vertices at least one arrow runs
    from a later vertex to an earlier one, so the vertex list is not in
    topological order; arrows may repeat (parallel) or be loops."""
    p = draw(st.sampled_from((2, 3)))
    dims = draw(
        st.lists(st.integers(0, 3 if p == 2 else 2), min_size=1, max_size=4).filter(
            lambda ds: math.prod(subspace_count(k, p) for k in ds) <= 1000
        )
    )
    n = len(dims)
    arrows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=5))
    if n > 1:
        high = draw(st.integers(1, n - 1))
        arrows.append((high, draw(st.integers(0, high - 1))))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=12))
    return _rep(p, dims, arrows, entries)


@settings(max_examples=150, deadline=None)
@given(small_ff_representations())
@example(_rep(2, [2], [], [1]))  # one vertex, no arrows
@example(_rep(3, [2], [(0, 0)], [1, 2, 0, 1]))  # one vertex with a loop
# a zero-dimensional vertex, parallel arrows, arrows both ways in index order
@example(_rep(2, [2, 0, 2], [(2, 0), (2, 0), (0, 1), (1, 2), (0, 2)], [1, 0, 1, 1, 0, 1, 1, 0]))
@example(_rep(3, [1, 2, 1], [(2, 1), (1, 0), (1, 0), (0, 2)], [1, 2, 2, 0, 1]))
def test_enumerate_subrepresentations_matches_the_filtered_product(m):
    """The backtracking enumerator yields exactly the closed tuples of the
    whole product, in product order, with their dimensions."""
    vertices = m.quiver.vertices
    got = [(tup, dims.as_dict()) for tup, dims in enumerate_subrepresentations(m)]
    want = [(tup, {v: len(space.rows) for v, space in zip(vertices, tup)}) for tup in naive_closed_tuples(m)]
    assert got == want


@pytest.mark.parametrize("p, n", [(2, n) for n in range(5)] + [(3, n) for n in range(4)])
def test_span_masks_are_the_brute_force_spans(p, n):
    # bit c stands for the vector whose base-p numeral, first coordinate
    # leading, is c
    codes = {v: sum(x * p ** (n - 1 - k) for k, x in enumerate(v)) for v in itertools.product(range(p), repeat=n)}
    masks = _span_masks(p, n)
    spaces = subspaces_of(p, n)
    assert len(masks) == len(spaces)
    for space, mask in zip(spaces, masks):
        span = brute_force_row_span(space.rows, p) if space.rows else {(0,) * n}
        assert mask == sum(1 << codes[v] for v in span)


def test_mask_tables_stop_at_their_bit_limit():
    # 1012 subspaces of F_1009^2 times 1009^2 bits is about 10^9 bits
    assert _span_masks(1009, 2) is None
    assert _span_masks(67, 2) is not None  # 70 masks of 4489 bits


@pytest.fixture
def no_mask_tables(monkeypatch):
    monkeypatch.setattr(ff_oracle, "_MASK_TABLE_BITS", 0)
    _span_masks.cache_clear()
    yield
    _span_masks.cache_clear()


def test_enumeration_without_mask_tables_filters_the_product(no_mask_tables):
    m = _rep(3, [2, 1, 1], [(0, 1), (2, 0), (1, 2)], [1, 2, 1, 0, 2])
    assert _span_masks(3, 2) is None
    got = [(tup, dims.as_dict()) for tup, dims in enumerate_subrepresentations(m)]
    want = [(tup, {v: len(s.rows) for v, s in zip(m.quiver.vertices, tup)}) for tup in naive_closed_tuples(m)]
    assert got == want and len(got) > 2


def test_a_vertex_no_arrow_touches_needs_no_mask_table(monkeypatch):
    built = []

    def recording(p, n):
        built.append((p, n))
        return _span_masks(p, n)

    monkeypatch.setattr(ff_oracle, "_span_masks", recording)
    m = _rep(5, [1, 3, 1], [(0, 2)], [1])  # v1 is isolated
    got = [(tup, dims.as_dict()) for tup, dims in enumerate_subrepresentations(m)]
    assert built == [(5, 1), (5, 1)]
    assert len(got) == 3 * subspace_count(3, 5)  # v0, v2: 0/0, 0/F_5, F_5/F_5


def test_enumeration_on_a_long_chain_needs_no_recursion():
    # 1500 vertices in a chain, ten of them thin (some adjacent, so some
    # arrows are nonzero maps), the rest zero-dimensional: 2^10 tuples.
    thin_at = {0, 1, 150, 151, 152, 700, 900, 1497, 1498, 1499}
    dims = [1 if k in thin_at else 0 for k in range(1500)]
    rng = random.Random(8)
    m = _rep(2, dims, [(k, k + 1) for k in range(1499)], [rng.randrange(2) for _ in range(40)])
    want = sum(1 for _ in naive_closed_tuples(m))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        got = sum(1 for _ in enumerate_subrepresentations(m))
        verdict = king_stability(m, StabilityParameter({v: 0 for v in m.quiver.vertices}))
    finally:
        sys.setrecursionlimit(limit)
    assert got == want
    assert 1 < got < 2**10  # the nonzero maps close off some tuples
    assert verdict.semistable and not verdict.stable


def test_cyclic_destabilizer_refuses_over_budget_at_once():
    # 2-Kronecker (8, 16) over F_2: 2^24 elements of the direct sum
    q = Quiver(("1", "2"), (("1", "2"), ("1", "2")))
    d = DimensionVector({"1": 8, "2": 16})
    rng = random.Random(1)
    m = random_representation(rng, q, d, 2)
    theta = StabilityParameter({"1": 2, "2": -1})
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as caught:
        has_cyclic_destabilizer(m, theta)
    assert time.perf_counter() - start < 1.0
    error = caught.value
    assert (error.counted, error.size, error.budget) == ("elements", 2**24, 10**6)


def test_exhaustive_verify_runs_one_base_king_test_per_base_point(kronecker, monkeypatch):
    # The framing arrows vary fastest, so 2^2 consecutive points share each
    # base point: 4 base points, 16 framed points, and no framed search.
    searched = []
    original = ff_oracle._SubrepSearch.closed

    def recording(search, mats):
        searched.append(search.quiver)
        return original(search, mats)

    monkeypatch.setattr(ff_oracle._SubrepSearch, "closed", recording)
    d = thin(kronecker)
    report = verify_double_framing_equivalence(double_frame(kronecker, d, StabilityParameter({"1": 1, "2": -1}), "1", "2", 2), 2)
    assert report.passed and report.instances_checked == 16
    assert searched == [kronecker] * 4


@pytest.mark.parametrize("prime, budget", [(2, 10**6), (3, 10**6), (3, 20), (3, 40)])
def test_verify_sets_up_two_searches_whatever_the_point_count(kronecker, monkeypatch, prime, budget):
    """One search set-up, for the base datum only (the framed verdicts come
    from the base enumeration), whether the points are enumerated (16 or 81)
    or sampled (20 or 40)."""
    built = []
    original = ff_oracle._SubrepSearch

    def recording(quiver, *args):
        built.append(quiver)
        return original(quiver, *args)

    monkeypatch.setattr(ff_oracle, "_SubrepSearch", recording)
    theta = StabilityParameter({"1": 1, "2": -1})
    report = verify_double_framing_equivalence(double_frame(kronecker, thin(kronecker), theta, "1", "2", 2), prime, budget=budget)
    assert report.passed and report.instances_checked == min(prime**4, budget)
    assert built == [kronecker]


def test_sampled_verify_checks_successive_random_representation_draws(three_vertex, monkeypatch):
    """A seeded sampled verify checks, in order, the points that successive
    random_representation calls draw from the same seed."""
    d = thin(three_vertex)
    theta = canonical_stability(three_vertex, d)
    framing = double_frame(three_vertex, d, theta, "2", "3", 2)
    checked = []
    original = ff_oracle._FramedKing.verdicts

    def recording(king, mats):
        checked.append(mats)
        return original(king, mats)

    monkeypatch.setattr(ff_oracle._FramedKing, "verdicts", recording)
    report = verify_double_framing_equivalence(framing, 2, budget=40, seed=9)
    assert report.sampled and report.instances_checked == 40
    rng = random.Random(9)
    want = [random_representation(rng, framing.framed_quiver, framing.framed_dimension, 2) for _ in range(40)]
    assert checked == [m.arrow_matrices for m in want]


def test_a_failing_point_is_reported_as_a_representation(kronecker, monkeypatch):
    """With every base verdict flipped, each point whose framing maps are
    both nonzero fails, and its failure entry holds that point's matrices."""
    original = ff_oracle._FramedKing._base

    def wrong_base(king, mats):
        stable, record = original(king, mats)
        return not stable, record

    monkeypatch.setattr(ff_oracle._FramedKing, "_base", wrong_base)
    theta = StabilityParameter({"1": 1, "2": -1})
    framing = double_frame(kronecker, thin(kronecker), theta, "1", "2", 2)
    report = verify_double_framing_equivalence(framing, 2)
    fq, fd = framing.framed_quiver, framing.framed_dimension
    points = [FiniteFieldRepresentation(fq, 2, fd, mats) for mats in ff_oracle._all_matrices(ff_oracle._shapes(fq, fd), 2)]
    # both framing maps nonzero: the last of each run of four points
    assert [rep for rep, _, _ in report.failures] == points[3::4]
    for rep, _, _ in report.failures:
        assert isinstance(rep, FiniteFieldRepresentation)
        assert rep.quiver == framing.framed_quiver and rep.dims == framing.framed_dimension
    assert not report.passed


def _random_coprime_datum(rng):
    """A 2- or 3-vertex datum with theta-coprime d (entries 0..2, 2 to 4 in
    all), arrows in either direction and loops allowed, and a framing
    pair; None when the draw is not coprime."""
    names = ["1", "2", "3"][: rng.randint(2, 3)]
    q = Quiver(names, [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(1, 3))])
    d = DimensionVector({v: rng.randint(0, 2) for v in names})
    if not 2 <= d.total() <= 4:
        return None
    theta = random_zero_pairing_parameter(rng, q, d, spread=2)
    if not assumptions_report(q, d, theta).coprime:
        return None
    return q, d, theta, rng.choice(names), rng.choice(names)


@pytest.mark.parametrize("masks", [True, False])
@pytest.mark.parametrize("p", [2, 3])
def test_framed_verdicts_match_the_two_search_reference(p, masks, monkeypatch):
    """On every point, enumerated or sampled, the verdicts read off the base
    enumeration equal those of a separate King search on the framed point,
    and so do the reports, at scales 1, 2 and 3 (half of the data at 1,
    where points fail), with and without mask tables."""
    if not masks:
        monkeypatch.setattr(ff_oracle, "_MASK_TABLE_BITS", 0)
    seen = []
    original = ff_oracle._FramedKing.verdicts

    def recording(king, mats):
        verdicts = original(king, mats)
        seen.append((mats, *verdicts))
        return verdicts

    monkeypatch.setattr(ff_oracle._FramedKing, "verdicts", recording)
    rng = random.Random(40 + p)
    kronecker = Quiver(("1", "2"), [("1", "2")] * 2)
    # Data that fail at scale 1, then random ones.
    fixed = [
        (kronecker, thin(kronecker), StabilityParameter({"1": 1, "2": -1}), "2", "1"),
        (Quiver(("1", "2"), [("2", "1")]), thin(kronecker), StabilityParameter({"1": -1, "2": 1}), "1", "2"),
    ]
    cases = failing = 0
    while cases < 60:
        datum = fixed.pop() if fixed else _random_coprime_datum(rng)
        if datum is None:
            continue
        q, d, theta, i, j = datum
        scale = 1 if cases < 2 else rng.choice((1, 1, 2, 3))
        budget = rng.choice((60, 400))
        seed = rng.randrange(1000)
        framing = double_frame(q, d, theta, i, j, scale)
        seen.clear()
        try:
            report = verify_double_framing_equivalence(framing, p, budget=budget, seed=seed)
        except BudgetExceededError:
            continue
        cases += 1
        checked, notes, failures, verdicts = two_search_framing_equivalence(framing, p, budget, seed)
        assert seen == verdicts
        assert (report.instances_checked, report.notes) == (checked, notes)
        assert [(rep.arrow_matrices, want, got) for rep, want, got in report.failures] == failures
        failing += bool(failures)
    assert failing >= 2


def test_kronecker_framed_the_other_way_fails_at_scale_one(kronecker):
    """Kronecker (1, 1) with theta = (1, -1), framed at i = 2, j = 1: at
    scale 1 four of the 16 points fail, exactly as the framed search says."""
    d, theta = thin(kronecker), StabilityParameter({"1": 1, "2": -1})
    framing = double_frame(kronecker, d, theta, "2", "1", 1)
    report = verify_double_framing_equivalence(framing, 2)
    assert (report.instances_checked, len(report.failures)) == (16, 4)
    checked, notes, failures, _ = two_search_framing_equivalence(framing, 2, 10**6, 0)
    assert (checked, notes) == (16, ("below minimal framing scale",))
    assert [(rep.arrow_matrices, want, got) for rep, want, got in report.failures] == failures
    assert verify_double_framing_equivalence(double_frame(kronecker, d, theta, "2", "1", 2), 2).passed


@pytest.mark.parametrize("prime, budget, most", [(3, 10**6, 3), (1000000007, 50, 1)])
def test_kernel_tables_do_not_grow_with_the_points(kronecker, monkeypatch, prime, budget, most):
    """The "E_j in ker w" tables live as long as their base point: at most
    p^(d_j) of them over 81 exhaustive points, and one per sampled point
    over F_p with p = 10^9 + 7, where every point has a new w."""
    sizes = []
    original = ff_oracle._FramedKing.verdicts

    def recording(king, mats):
        verdicts = original(king, mats)
        sizes.append(len(king.kernels))
        return verdicts

    monkeypatch.setattr(ff_oracle._FramedKing, "verdicts", recording)
    theta = StabilityParameter({"1": 1, "2": -1})
    report = verify_double_framing_equivalence(double_frame(kronecker, thin(kronecker), theta, "1", "2", 2), prime, budget=budget)
    assert report.instances_checked == min(prime**4, budget)
    assert max(sizes) == most
