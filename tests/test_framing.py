import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivercalc import (
    MINIMAL_FRAMING_SCALE,
    AssumptionViolatedError,
    DimensionVector,
    PairingNonzeroError,
    Quiver,
    ReductionCase,
    ReductionResult,
    StabilityParameter,
    UnknownVertexError,
    assumptions_report,
    canonical_stability,
    double_frame,
    enumerate_paths,
    framed_ample_stability,
    is_acyclic,
    path_count_matrix,
    reduce,
    verify_framed_sign_partition,
    verify_reduction_pairing,
)

from oracles import four_case_reduction, reduction_path_map
from conftest import (
    quiver_with_datum,
    random_acyclic_quiver,
    random_zero_pairing_parameter,
    thin,
)


def replace(result: ReductionResult, **changes) -> ReductionResult:
    """``result`` with the named fields changed and every other field kept."""
    return ReductionResult(**{name: changes.get(name, getattr(result, name)) for name in ReductionResult._fields})


def kronecker_datum(kronecker):
    return thin(kronecker), StabilityParameter({"1": 1, "2": -1})


def test_double_frame_kronecker(kronecker):
    d, theta = kronecker_datum(kronecker)
    f = double_frame(kronecker, d, theta, "1", "2", 2)
    assert len(f.framed_quiver.vertices) == 4
    assert len(f.framed_quiver.arrows) == 4
    assert f.framed_dimension.as_dict() == {"0": 1, "1": 1, "2": 1, "∞": 1}
    assert f.framed_stability.as_dict() == {"0": 1, "1": 2, "2": -2, "∞": -1}
    assert f.framed_stability(f.framed_dimension) == 0


def test_double_frame_single_vertex_same_ends():
    q = Quiver(("x",), ())
    d = DimensionVector({"x": 1})
    theta = StabilityParameter({"x": 0})
    f = double_frame(q, d, theta, "x", "x", 1)
    assert f.framed_quiver.arrows == (("0", "x"), ("x", "∞"))
    assert f.framed_stability.as_dict() == {"0": 1, "x": 0, "∞": -1}


def test_double_frame_three_vertex_scaled(three_vertex):
    d = thin(three_vertex)
    theta = canonical_stability(three_vertex, d)
    f = double_frame(three_vertex, d, theta, "2", "3", 2)
    assert f.framed_stability.as_dict() == {"0": 1, "1": 4, "2": 2, "3": -6, "∞": -1}


def test_double_frame_errors(kronecker):
    d, theta = kronecker_datum(kronecker)
    with pytest.raises(UnknownVertexError):
        double_frame(kronecker, d, theta, "1", "nope", 2)
    with pytest.raises(PairingNonzeroError):
        double_frame(kronecker, d, StabilityParameter({"1": 1, "2": 0}), "1", "2", 2)
    with pytest.raises(ValueError, match="framing scale must be a positive integer"):
        double_frame(kronecker, d, theta, "1", "2", 0)


def test_double_frame_avoids_vertex_name_collisions():
    q = Quiver(("0", "∞"), (("0", "∞"),))
    d = DimensionVector({"0": 1, "∞": 1})
    theta = StabilityParameter({"0": 1, "∞": -1})
    f = double_frame(q, d, theta, "0", "∞", 2)
    assert f.source_vertex == "0'"
    assert f.sink_vertex == "∞'"
    assert len(set(f.framed_quiver.vertices)) == 4


@settings(max_examples=40)
@given(quiver_with_datum(max_entry=2))
def test_double_frame_preserves_acyclicity_and_pairing(datum):
    q, d, theta = datum
    f = double_frame(q, d, theta, q.vertices[0], q.vertices[-1], 2)
    assert is_acyclic(f.framed_quiver).acyclic
    assert f.framed_stability(f.framed_dimension) == 0


def test_framing_scale_constant_is_two():
    assert MINIMAL_FRAMING_SCALE == 2


def _sign(x):
    return (x > 0) - (x < 0)


@given(st.integers().filter(lambda v: v != 0), st.sampled_from((0, 1)), st.sampled_from((0, 1)))
def test_scale_two_keeps_the_sign_of_every_nonzero_theta_value(v, a, b):
    # The lemma behind MINIMAL_FRAMING_SCALE: a framed value a + 2*theta(e) - b
    # has the sign of theta(e) whenever theta(e) != 0, for a, b in {0, 1}.
    assert _sign(a + 2 * v - b) == _sign(v)


@pytest.mark.parametrize("v", [1, -1])
def test_scale_one_breaks_the_sign_property_at_unit_theta_values(v):
    assert any(_sign(a + v - b) != _sign(v) for a in (0, 1) for b in (0, 1))


def test_framed_sign_partition_passes_at_scale_two(kronecker, three_vertex):
    d, theta = kronecker_datum(kronecker)
    check = verify_framed_sign_partition(double_frame(kronecker, d, theta, "1", "2", 2))
    assert check.passed
    assert check.checked == 16

    d3 = thin(three_vertex)
    theta3 = canonical_stability(three_vertex, d3)
    check3 = verify_framed_sign_partition(double_frame(three_vertex, d3, theta3, "2", "3", 2))
    assert check3.passed
    assert check3.checked == 32


def test_framed_sign_partition_fails_at_scale_one(kronecker):
    d, theta = kronecker_datum(kronecker)
    check = verify_framed_sign_partition(double_frame(kronecker, d, theta, "1", "2", 1))
    assert not check.passed
    # the documented counterexample: (1, (0, 1), 0) pairs to 1 - 1 - 0 = 0
    # although (0, 1) has negative base sign
    witness = DimensionVector({"0": 1, "1": 0, "2": 1, "∞": 0})
    assert (witness, "minus", "zero") in check.discrepancies


def test_framed_sign_partition_random_catalog():
    rng = random.Random(1914)
    for _ in range(50):
        q = random_acyclic_quiver(rng, max_vertices=4)
        d = DimensionVector({v: rng.randint(0, 3) for v in q.vertices})
        theta = random_zero_pairing_parameter(rng, q, d)
        framed = double_frame(q, d, theta, q.vertices[0], q.vertices[-1], 2)
        assert verify_framed_sign_partition(framed).passed


def test_framed_ample_stability_cases():
    assert framed_ample_stability(DimensionVector({"1": 2, "2": 3}), "1", "2")
    assert not framed_ample_stability(DimensionVector({"1": 1, "2": 3}), "1", "2")
    assert not framed_ample_stability(DimensionVector({"1": 2, "2": 1}), "1", "2")


def case_fixtures(kronecker, three_kronecker, three_vertex):
    """Data hitting all four reduction cases; each passes the decidable
    hypotheses (acyclic, indivisible, coprime)."""
    d3 = thin(three_vertex)
    return [
        (three_kronecker, {"1": 2, "2": 3}, {"1": 3, "2": -2}, "1", "2", ReductionCase.BOTH_BIG),
        (kronecker, {"1": 2, "2": 1}, {"1": 1, "2": -2}, "1", "2", ReductionCase.SOURCE_THIN),
        (kronecker, {"1": 1, "2": 2}, {"1": 2, "2": -1}, "1", "2", ReductionCase.TARGET_THIN),
        (three_vertex, d3.as_dict(), canonical_stability(three_vertex, d3).as_dict(), "2", "3", ReductionCase.BOTH_THIN),
    ]


def test_reduce_hits_all_four_cases(kronecker, three_kronecker, three_vertex):
    for q, dd, tt, i, j, expected in case_fixtures(kronecker, three_kronecker, three_vertex):
        d = DimensionVector(dd)
        theta = StabilityParameter(tt)
        framed = double_frame(q, d, theta, i, j, 2)
        result = reduce(framed)
        assert result.case_tag is expected
        check = verify_reduction_pairing(result)
        assert check.passed
        assert result.reduced_stability(result.reduced_dimension) == 0


def test_reduce_case_b_arithmetic(kronecker):
    d = DimensionVector({"1": 2, "2": 1})
    theta = StabilityParameter({"1": 1, "2": -2})
    framed = double_frame(kronecker, d, theta, "1", "2", 2)
    result = reduce(framed)
    assert result.case_tag is ReductionCase.SOURCE_THIN
    # |d| = 3, so theta' = (3, 8*theta - 1) = (3, 7, -17), pairing 3+14-17 = 0
    assert result.reduced_stability.as_dict() == {"0": 3, "1": 7, "2": -17}
    assert result.reduced_stability(result.reduced_dimension) == 0


def test_reduce_case_d_keeps_base_datum(three_vertex):
    d = thin(three_vertex)
    theta = canonical_stability(three_vertex, d)
    result = reduce(double_frame(three_vertex, d, theta, "2", "3", 2))
    assert result.case_tag is ReductionCase.BOTH_THIN
    assert result.reduced_quiver == three_vertex
    assert result.reduced_stability == theta
    assert verify_reduction_pairing(result).reduced_path_count == 2


def test_reduce_refuses_on_failed_assumptions(kronecker):
    # d = (2, 2) is divisible and theta = (1, -1) is not coprime for it
    d = DimensionVector({"1": 2, "2": 2})
    theta = StabilityParameter({"1": 1, "2": -1})
    framed = double_frame(kronecker, d, theta, "1", "2", 2)
    with pytest.raises(AssumptionViolatedError) as info:
        reduce(framed)
    assert "indivisibility" in str(info.value)


def test_reduce_refuses_on_coprimality(a3):
    # canonical parameter of the thin A_3 datum vanishes on (0, 1, 0)
    d = thin(a3)
    theta = canonical_stability(a3, d)
    framed = double_frame(a3, d, theta, "1", "3", 2)
    with pytest.raises(AssumptionViolatedError) as info:
        reduce(framed)
    assert "coprimality" in str(info.value)


def test_verify_reduction_pairing_detects_perturbation(kronecker):
    d = DimensionVector({"1": 2, "2": 1})
    theta = StabilityParameter({"1": 1, "2": -2})
    result = reduce(double_frame(kronecker, d, theta, "1", "2", 2))
    broken = StabilityParameter(
        {v: c + (1 if v == result.marked_vertices[0] else 0) for v, c in result.reduced_stability.entries}
    )
    perturbed = replace(result, reduced_stability=broken)
    check = verify_reduction_pairing(perturbed)
    assert not check.passed
    assert any("pairing" in f or "theta" in f for f in check.failures)


def test_verify_reduction_pairing_names_thinness_and_path_count_failures(kronecker):
    d = DimensionVector({"1": 2, "2": 1})
    theta = StabilityParameter({"1": 1, "2": -2})
    result = reduce(double_frame(kronecker, d, theta, "1", "2", 2))
    marks = result.marked_vertices
    assert marks == ("0", "2")
    for mark, other in (marks, marks[::-1]):
        thick = DimensionVector({v: 2 if v == mark else c for v, c in result.reduced_dimension.entries})
        failures = verify_reduction_pairing(replace(result, reduced_dimension=thick)).failures
        assert f"d' is not thin at {mark!r}" in failures
        assert f"d' is not thin at {other!r}" not in failures

    rq = result.reduced_quiver
    parallel = Quiver(rq.vertices, (*rq.arrows, marks))
    check = verify_reduction_pairing(replace(result, reduced_quiver=parallel))
    assert not check.passed
    assert check.failures == ("path count 3 != base path count 2",)
    assert (check.reduced_path_count, check.base_path_count) == (3, 2)


def test_reduction_path_bijection(kronecker, three_kronecker, three_vertex):
    for q, dd, tt, i, j, _ in case_fixtures(kronecker, three_kronecker, three_vertex):
        d = DimensionVector(dd)
        theta = StabilityParameter(tt)
        framed = double_frame(q, d, theta, i, j, 2)
        result = reduce(framed)
        mapping = reduction_path_map(result)
        fq = framed.framed_quiver
        framed_paths = set(enumerate_paths(fq, framed.source_vertex, framed.sink_vertex))
        images = list(mapping.values())
        assert len(set(images)) == len(images)  # injective
        assert set(images) == framed_paths      # onto
        for image in images:
            assert image.target(fq) == framed.sink_vertex


def reduction_catalog(rng: random.Random, size: int):
    """Framings of random data passing the decidable hypotheses, with d_i and
    d_j in 1..3 (so thin and non-thin at either end), i = j about one time in
    four, and base vertices often renamed "0" and "∞", which primes the
    framing vertices' names."""
    catalog = []
    while len(catalog) < size:
        drawn = random_acyclic_quiver(rng, max_vertices=4)
        names = list(drawn.vertices)
        for special in ("0", "∞"):
            if rng.random() < 0.5:
                names[rng.randrange(len(names))] = special
        if len(set(names)) < len(names):
            continue
        rename = dict(zip(drawn.vertices, names))
        q = Quiver(names, ((rename[s], rename[t]) for s, t in drawn.arrows))
        d = DimensionVector({v: rng.randint(1, 3) for v in q.vertices})
        theta = random_zero_pairing_parameter(rng, q, d)
        report = assumptions_report(q, d, theta)
        if not (report.indivisible and report.coprime):
            continue
        i = rng.choice(q.vertices)
        j = i if rng.random() < 0.25 else rng.choice(q.vertices)
        catalog.append((double_frame(q, d, theta, i, j, rng.randint(1, 3)), d))
    return catalog


def test_reduce_matches_four_case_reference():
    seen_cases, seen_same_ends, seen_primed = set(), False, False
    for framed, d in reduction_catalog(random.Random(14), 120):
        result = reduce(framed)
        expected = four_case_reduction(framed, d)
        for built in (framed.framed_quiver, result.reduced_quiver):
            checked = Quiver(built.vertices, built.arrows)
            assert (built, hash(built), built.arrow_indices) == (checked, hash(checked), checked.arrow_indices)
        assert len(ReductionResult._fields) == 8
        for name in ReductionResult._fields:
            assert getattr(result, name) == getattr(expected, name), name
        mapping = reduction_path_map(result)
        framed_paths = enumerate_paths(framed.framed_quiver, framed.source_vertex, framed.sink_vertex)
        assert len(set(mapping.values())) == len(mapping) == len(framed_paths)
        assert set(mapping.values()) == set(framed_paths)
        seen_cases.add(result.case_tag)
        seen_same_ends |= framed.framed_at[0] == framed.framed_at[1]
        seen_primed |= framed.source_vertex != "0" and framed.sink_vertex != "∞"
    assert seen_cases == set(ReductionCase)
    assert seen_same_ends and seen_primed


def test_framed_path_space_matches_base(kronecker, three_vertex):
    # the framed source-to-sink path space has the base path space dimension
    for q, i, j in ((kronecker, "1", "2"), (three_vertex, "2", "3"), (three_vertex, "1", "3")):
        d = thin(q)
        theta = canonical_stability(q, d)
        framed = double_frame(q, d, theta, i, j, 2)
        framed_counts = path_count_matrix(framed.framed_quiver)
        base_counts = path_count_matrix(q)
        assert framed_counts.count(framed.source_vertex, framed.sink_vertex) == base_counts.count(i, j)


@settings(max_examples=40)
@given(quiver_with_datum(max_entry=2), st.data())
def test_framed_path_space_matches_base_generally(datum, data):
    q, d, theta = datum
    i = data.draw(st.sampled_from(q.vertices))
    j = data.draw(st.sampled_from(q.vertices))
    framed = double_frame(q, d, theta, i, j, 2)
    framed_counts = path_count_matrix(framed.framed_quiver)
    assert framed_counts.count(framed.source_vertex, framed.sink_vertex) == path_count_matrix(q).count(i, j)
