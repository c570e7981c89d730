"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value here is exact (integer equality); the stated runtime
bounds are asserted with a monotonic clock.  Random catalogs are seeded, so
failures are reproducible.
"""

import random
import sys
import time

import pytest

from quivercalc import (
    AssumptionViolatedError,
    DimensionVector,
    Path,
    Quiver,
    ReductionCase,
    StabilityParameter,
    ThreeValued,
    assumptions_report,
    canonical_stability,
    double_frame,
    euler_form,
    hochschild1_dim,
    hom_ext,
    path_count,
    path_count_matrix,
    projective_representation,
    reduce,
    tangent_presentation,
    vector_fields_dim,
    verify_double_framing_equivalence,
    verify_framed_sign_partition,
    verify_semiinvariant_weight,
)
from quivercalc import linalg
from quivercalc.core import enumerate_paths
from quivercalc.ff_oracle import random_group_element, random_representation

from conftest import (
    random_acyclic_quiver,
    random_zero_pairing_parameter,
    strong_catalog_instance,
    thin,
)
from oracles import naive_framed_discrepancies
from test_cohomology import random_rational_representation


def record(name: str, started: float, bound: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    line = f"[PASS] {name} ({elapsed:.2f}s)"
    print(line)
    print(line, file=sys.__stdout__, flush=True)
    if bound is not None:
        assert elapsed < bound, f"{name}: {elapsed:.2f}s exceeds the {bound:.0f}s bound"


THREE_VERTEX = Quiver(("1", "2", "3"), (("1", "2"), ("2", "3"), ("2", "3"), ("1", "3")))
KRONECKER = Quiver(("1", "2"), (("1", "2"), ("1", "2")))
THREE_KRONECKER = Quiver(("1", "2"), (("1", "2"), ("1", "2"), ("1", "2")))
A2 = Quiver(("1", "2"), (("1", "2"),))
A3 = Quiver(("1", "2", "3"), (("1", "2"), ("2", "3")))


def test_criterion_1_three_vertex_example_end_to_end():
    started = time.perf_counter()
    d = thin(THREE_VERTEX)
    theta = canonical_stability(THREE_VERTEX, d)
    assert theta.as_dict() == {"1": 2, "2": 1, "3": -3}
    assert hochschild1_dim(THREE_VERTEX) == 6
    assert path_count_matrix(THREE_VERTEX).count("2", "3") == 2

    report = assumptions_report(THREE_VERTEX, d, theta)
    assert report.acyclic and report.indivisible and report.coprime
    assert report.strongly_amply_stable and report.amply_stable is ThreeValued.YES
    assert vector_fields_dim(THREE_VERTEX, d, theta) == 6

    alt = StabilityParameter({"1": 2, "2": -1, "3": -1})
    report_alt = assumptions_report(THREE_VERTEX, d, alt)
    assert not report_alt.strongly_amply_stable
    assert report_alt.failing_witnesses["strongly_amply_stable"] == (
        DimensionVector({"1": 1, "2": 0, "3": 1}),
    )
    with pytest.raises(AssumptionViolatedError):
        vector_fields_dim(THREE_VERTEX, d, alt)
    record("three-vertex example end to end", started, bound=1.0)


def test_criterion_2_vector_fields_match_hochschild_on_random_catalog():
    started = time.perf_counter()
    rng = random.Random(20260810)
    accepted = 0
    attempts = 0
    while accepted < 200:
        attempts += 1
        assert attempts < 20000, "catalog generation stalled"
        instance = strong_catalog_instance(rng)
        if instance is None:
            continue
        q, d, theta = instance
        # the presentation's cokernel by elimination, independent of the lemma
        pres = tangent_presentation(q, d)
        cokernel = pres.codomain_dim - linalg.rank(pres.psi_matrix)
        assert vector_fields_dim(q, d, theta) == hochschild1_dim(q) == cokernel
        accepted += 1
    record(
        f"vector fields equal first Hochschild cohomology on {accepted} instances",
        started,
        bound=10.0,
    )


def test_criterion_3_framed_sign_partition_catalog_and_counterexample():
    started = time.perf_counter()
    rng = random.Random(1789)
    instances = 0
    while instances < 50:
        q = random_acyclic_quiver(rng, max_vertices=5)
        d = DimensionVector({v: rng.randint(0, 3) for v in q.vertices})
        size = 1
        for v in q.vertices:
            size *= d[v] + 1
        if size > 1024:
            continue
        theta = random_zero_pairing_parameter(rng, q, d)
        framing = double_frame(q, d, theta, q.vertices[0], q.vertices[-1], 2)
        check = verify_framed_sign_partition(framing)
        assert check.passed, (q, d.as_dict(), theta.as_dict(), check.discrepancies[:1])
        # the check derives its verdict; the framed lattice, point by point, agrees
        assert naive_framed_discrepancies(framing) == []
        instances += 1

    # the documented scale-1 counterexample on the 2-Kronecker datum
    d = thin(KRONECKER)
    theta = StabilityParameter({"1": 1, "2": -1})
    framing = double_frame(KRONECKER, d, theta, "1", "2", 1)
    check = verify_framed_sign_partition(framing)
    assert not check.passed
    witness = DimensionVector({"0": 1, "1": 0, "2": 1, "∞": 0})
    assert (witness, "minus", "zero") in check.discrepancies
    record("framed sign partition on 50 instances plus scale-1 counterexample", started, bound=10.0)


def test_criterion_4_framed_stability_description_over_f2_and_f3():
    started = time.perf_counter()
    catalog = [
        (KRONECKER, {"1": 1, "2": 1}, {"1": 1, "2": -1}, "1", "2"),
        (A2, {"1": 1, "2": 1}, {"1": 1, "2": -1}, "1", "2"),
        (A3, {"1": 1, "2": 1, "3": 1}, {"1": 2, "2": -1, "3": -1}, "1", "3"),
        (THREE_VERTEX, {"1": 1, "2": 1, "3": 1}, {"1": 2, "2": 1, "3": -3}, "2", "3"),
    ]
    total_points = 0
    for q, dd, tt, i, j in catalog:
        d = DimensionVector(dd)
        theta = StabilityParameter(tt)
        for prime in (2, 3):
            report = verify_double_framing_equivalence(double_frame(q, d, theta, i, j, 2), prime)
            assert report.passed, (q.vertices, prime, report.failures[:1])
            assert not report.sampled
            assert report.instances_checked <= 10**5
            total_points += report.instances_checked
    record(
        f"framed stability description exhaustive over F_2 and F_3 ({total_points} points)",
        started,
        bound=60.0,
    )


def test_criterion_5_projective_hom_ext_and_euler_form():
    started = time.perf_counter()
    rng = random.Random(55)
    for _ in range(20):
        q = random_acyclic_quiver(rng, max_vertices=4)
        counts = path_count_matrix(q)
        projectives = {v: projective_representation(q, v) for v in q.vertices}
        for i in q.vertices:
            for j in q.vertices:
                result = hom_ext(projectives[j], projectives[i])
                assert (result.hom_dim, result.ext_dim) == (counts.count(i, j), 0)

    checked = 0
    while checked < 100:
        q = random_acyclic_quiver(rng, max_vertices=4)
        for _ in range(5):
            m = random_rational_representation(rng, q)
            n = random_rational_representation(rng, q)
            result = hom_ext(m, n)
            assert result.hom_dim - result.ext_dim == euler_form(q, m.dims, n.dims)
            checked += 1
    record("projective Hom/Ext dimensions and Euler form on random representations", started, bound=10.0)


def test_criterion_6_reduction_cases_and_arithmetic():
    started = time.perf_counter()
    fixtures = [
        (THREE_KRONECKER, {"1": 2, "2": 3}, {"1": 3, "2": -2}, "1", "2", ReductionCase.BOTH_BIG),
        (KRONECKER, {"1": 2, "2": 1}, {"1": 1, "2": -2}, "1", "2", ReductionCase.SOURCE_THIN),
        (KRONECKER, {"1": 1, "2": 2}, {"1": 2, "2": -1}, "1", "2", ReductionCase.TARGET_THIN),
        (THREE_VERTEX, {"1": 1, "2": 1, "3": 1}, {"1": 2, "2": 1, "3": -3}, "2", "3", ReductionCase.BOTH_THIN),
    ]
    for q, dd, tt, i, j, expected_case in fixtures:
        d = DimensionVector(dd)
        theta = StabilityParameter(tt)
        result = reduce(double_frame(q, d, theta, i, j, 2))
        assert result.case_tag is expected_case
        assert result.reduced_stability(result.reduced_dimension) == 0
        i_mark, j_mark = result.marked_vertices
        assert result.reduced_dimension[i_mark] == 1
        assert result.reduced_dimension[j_mark] == 1
        assert path_count(result.reduced_quiver, i_mark, j_mark) == path_count(q, i, j)

    d = DimensionVector({"1": 2, "2": 1})
    theta = StabilityParameter({"1": 1, "2": -2})
    result = reduce(double_frame(KRONECKER, d, theta, "1", "2", 2))
    assert result.reduced_stability.as_dict() == {"0": 3, "1": 7, "2": -17}
    record("reduction hits all four cases with exact arithmetic", started, bound=1.0)


def test_criterion_7_weight_law_over_f5():
    started = time.perf_counter()
    rng = random.Random(77)
    thin_d = thin(THREE_VERTEX)
    paths = enumerate_paths(THREE_VERTEX, "1", "3")
    for _ in range(100):
        m = random_representation(rng, THREE_VERTEX, thin_d, 5)
        g = random_group_element(rng, m)
        path = paths[rng.randrange(len(paths))]
        assert verify_semiinvariant_weight(m, path, g)

    # endpoints thin, middle vertex 2-dimensional
    thick = DimensionVector({"1": 1, "2": 2, "3": 1})
    a3_path = Path("1", (0, 1))
    for _ in range(100):
        m = random_representation(rng, A3, thick, 5)
        g = random_group_element(rng, m)
        assert verify_semiinvariant_weight(m, a3_path, g)
    record("path evaluation weight law over F_5 on thin fixtures", started)
