import collections
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivercalc import (
    BudgetExceededError,
    DimensionVector,
    PairingNonzeroError,
    Quiver,
    StabilityParameter,
    ThreeValued,
    assumptions_report,
    canonical_stability,
    double_frame,
    slope,
    verify_framed_sign_partition,
)
from quivercalc.stability import LATTICE_BUDGET, MAX_WITNESSES, _lattice_point, _lattice_values, _strong_violations

from conftest import quiver_with_datum, random_zero_pairing_parameter, thin
from oracles import (
    naive_coprime_witness,
    naive_framed_discrepancies,
    naive_sign_partition,
    naive_strong_violations,
    naive_subdimension_vectors,
)


def _unpacked(sweep, packed):
    """The fields of ``packed``, ``sweep.theta`` or ``sweep.form``, as a list
    of ints in lattice order: ``width`` bytes each, little-endian, biased by
    2^(8 width - 1)."""
    w, bias = sweep.width, 1 << (8 * sweep.width - 1)
    raw = packed.to_bytes(sweep.size * w, "little")
    return [int.from_bytes(raw[k : k + w], "little") - bias for k in range(0, len(raw), w)]


def _values(q, d, theta):
    """theta(e) at every lattice point, in lattice order, read off the sweep."""
    sweep = _lattice_values(q, d.aligned(q.vertices), theta.aligned(q.vertices))
    return _unpacked(sweep, sweep.theta)


def _signs(q, d, theta):
    """The sign of theta(e) at every lattice point, in lattice order."""
    return [(v > 0) - (v < 0) for v in _values(q, d, theta)]


def test_sign_partition_kronecker(kronecker):
    # e = (0, 0), (0, 1), (1, 0), (1, 1)
    assert _signs(kronecker, thin(kronecker), StabilityParameter({"1": 1, "2": -1})) == [0, -1, 1, 0]


def test_sign_partition_zero_parameter(three_vertex):
    theta = StabilityParameter({v: 0 for v in three_vertex.vertices})
    assert _signs(three_vertex, thin(three_vertex), theta) == [0] * 8


def test_sign_partition_three_vertex_membership(three_vertex):
    theta = StabilityParameter({"1": 2, "2": 1, "3": -3})
    assert _signs(three_vertex, thin(three_vertex), theta)[0b110] == 1  # e = (1, 1, 0), theta = 3


def test_sign_partition_requires_zero_pairing(kronecker):
    with pytest.raises(PairingNonzeroError):
        assumptions_report(kronecker, thin(kronecker), StabilityParameter({"1": 1, "2": 0}))


@settings(max_examples=60)
@given(quiver_with_datum())
def test_sign_partition_cardinality_and_symmetry(datum):
    q, d, theta = datum
    values = _values(q, d, theta)
    assert len(values) == math.prod(d[v] + 1 for v in q.vertices)
    # theta(d) = 0 makes e <-> d - e, which reverses the lattice order, swap
    # plus and minus
    assert values[::-1] == [-v for v in values]


def test_theta_coprime_examples(kronecker, three_vertex):
    theta = StabilityParameter({"1": 1, "2": -1})
    report = assumptions_report(kronecker, thin(kronecker), theta)
    assert report.coprime and "coprime" not in report.failing_witnesses

    report = assumptions_report(kronecker, DimensionVector({"1": 2, "2": 2}), theta)
    assert not report.coprime
    assert report.failing_witnesses["coprime"] == (DimensionVector({"1": 1, "2": 1}),)

    theta_can = StabilityParameter({"1": 2, "2": 1, "3": -3})
    assert assumptions_report(three_vertex, thin(three_vertex), theta_can).coprime


def test_strongly_amply_stable_three_vertex(three_vertex):
    d = thin(three_vertex)
    report = assumptions_report(three_vertex, d, StabilityParameter({"1": 2, "2": 1, "3": -3}))
    assert report.strongly_amply_stable and "strongly_amply_stable" not in report.failing_witnesses

    report = assumptions_report(three_vertex, d, StabilityParameter({"1": 2, "2": -1, "3": -1}))
    assert not report.strongly_amply_stable
    assert [v.as_dict() for v in report.failing_witnesses["strongly_amply_stable"]] == [{"1": 1, "2": 0, "3": 1}]


def test_strongly_amply_stable_kronecker(kronecker):
    report = assumptions_report(kronecker, thin(kronecker), StabilityParameter({"1": 1, "2": -1}))
    assert report.strongly_amply_stable  # single candidate (1,0), form -2


@settings(max_examples=40)
@given(quiver_with_datum(max_entry=2), st.integers(1, 4))
def test_strong_ample_stability_invariant_under_rescaling(datum, factor):
    q, d, theta = datum
    scaled = StabilityParameter({v: factor * theta[v] for v in q.vertices})
    assert (
        assumptions_report(q, d, theta).strongly_amply_stable
        == assumptions_report(q, d, scaled).strongly_amply_stable
    )


@settings(max_examples=40)
@given(quiver_with_datum(max_entry=2))
def test_slope_comparison_equivalent_to_sign(datum):
    q, d, theta = datum
    for e in naive_subdimension_vectors(q, d):
        if e.total() == 0 or e == d:
            continue
        complement = DimensionVector({v: d[v] - e[v] for v in q.vertices})
        assert (theta(e) >= 0) == (slope(theta, e) >= slope(theta, complement))


def test_assumptions_report_three_vertex(three_vertex):
    d = thin(three_vertex)
    report = assumptions_report(three_vertex, d, canonical_stability(three_vertex, d))
    assert report.acyclic and report.indivisible and report.coprime
    assert report.strongly_amply_stable
    assert report.amply_stable is ThreeValued.YES
    assert report.all_verified()

    report2 = assumptions_report(three_vertex, d, StabilityParameter({"1": 2, "2": -1, "3": -1}))
    assert report2.acyclic and report2.indivisible and report2.coprime
    assert not report2.strongly_amply_stable
    assert report2.amply_stable is ThreeValued.UNKNOWN
    assert report2.failing_witnesses["strongly_amply_stable"] == (
        DimensionVector({"1": 1, "2": 0, "3": 1}),
    )


def test_assumptions_report_cyclic_quiver():
    q = Quiver(("a",), (("a", "a"),))
    d = DimensionVector({"a": 1})
    report = assumptions_report(q, d, StabilityParameter({"a": 0}))
    assert not report.acyclic
    assert not report.strongly_amply_stable


def test_require_refuses_the_acyclicity_name():
    # Only the path layer's topological order refuses acyclicity: it names
    # the cycle, which the report does not keep.
    q = Quiver(("a", "b"), (("a", "b"), ("b", "a")))
    report = assumptions_report(q, DimensionVector({"a": 1, "b": 1}), StabilityParameter({"a": 1, "b": -1}))
    with pytest.raises(ValueError, match="^acyclicity is refused by the quiver's topological order, which names the cycle$"):
        report.require("acyclic")


@settings(max_examples=40)
@given(quiver_with_datum(max_entry=2))
def test_report_strong_forces_amply_yes(datum):
    q, d, theta = datum
    report = assumptions_report(q, d, theta)
    if report.strongly_amply_stable:
        assert report.amply_stable is ThreeValued.YES
    for name in ("coprime", "strongly_amply_stable"):
        if not getattr(report, name) and report.acyclic:
            assert report.failing_witnesses.get(name)


@settings(max_examples=60, deadline=None)
@given(quiver_with_datum(), st.data())
def test_lattice_sweep_matches_per_point_reference(datum, data):
    q, d, theta = datum
    lattice = naive_subdimension_vectors(q, d)
    reference = naive_sign_partition(q, d, theta)
    for name, sign in (("plus", 1), ("minus", -1), ("zero", 0)):
        assert [e for e, s in zip(lattice, _signs(q, d, theta)) if s == sign] == reference[name]

    witness = naive_coprime_witness(q, d, theta)
    violations = naive_strong_violations(q, d, theta)
    report = assumptions_report(q, d, theta)
    assert report.coprime == (witness is None)
    assert report.strongly_amply_stable == (not violations)
    assert report.failing_witnesses.get("coprime") == ((witness,) if witness else None)
    assert report.failing_witnesses.get("strongly_amply_stable") == (tuple(violations[:MAX_WITNESSES]) or None)
    cut = len(violations) > MAX_WITNESSES
    assert report.failing_witness_counts.get("strongly_amply_stable") == (len(violations) if cut else None)

    i = data.draw(st.sampled_from(q.vertices))
    j = data.draw(st.sampled_from(q.vertices))
    for scale in (1, 2):
        framing = double_frame(q, d, theta, i, j, scale)
        check = verify_framed_sign_partition(framing)
        expected = naive_framed_discrepancies(framing)
        assert list(check.discrepancies) == expected[:MAX_WITNESSES]
        assert check.discrepancy_count == len(expected)
        assert check.passed == (not expected)
        assert check.checked == 4 * len(lattice)


def test_lattice_budget_refuses_before_enumerating():
    # an A6 chain with d = 40 everywhere: 41^6 (about 4.75e9) lattice points
    q = Quiver([str(k) for k in range(1, 7)], [(str(k), str(k + 1)) for k in range(1, 6)])
    d = DimensionVector({v: 40 for v in q.vertices})
    theta = canonical_stability(q, d)
    with pytest.raises(BudgetExceededError) as excinfo:
        assumptions_report(q, d, theta)
    assert (excinfo.value.size, excinfo.value.budget) == (41**6, LATTICE_BUDGET)


def test_lattice_values_peak_memory_at_the_budget_edge():
    """One sweep of an A6 chain with every d_i = 9 (exactly LATTICE_BUDGET
    points, 2-byte fields) allocates at most 6 sweeps' worth at its peak:
    the mask of top bits is built first, from bytes, then theta, the form
    and ``ones`` stay, the pending rows of the form's cross terms die with
    their vertex, and a block build holds its blocks, their join and the
    new int."""
    q = Quiver([str(k) for k in range(1, 7)], [(str(k), str(k + 1)) for k in range(1, 6)])
    d = DimensionVector({v: 9 for v in q.vertices})
    dv, tv = d.aligned(q.vertices), canonical_stability(q, d).aligned(q.vertices)
    tracemalloc.start()
    try:
        sweep = _lattice_values(q, dv, tv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (sweep.size, sweep.width) == (LATTICE_BUDGET, 2)
    assert peak <= 6 * sweep.size * sweep.width, peak / (sweep.size * sweep.width)


def _shuffled_dag(rng, n, max_parallel=3):
    """An acyclic quiver whose vertex list is not in topological order, so
    its arrows run both with and against the vertex order; pairs get up to
    ``max_parallel`` parallel arrows."""
    order = [f"v{k}" for k in range(n)]
    arrows = [
        (order[i], order[j])
        for i in range(n)
        for j in range(i + 1, n)
        for _ in range(rng.choice((0, 0, 1, 2, max_parallel)))
    ]
    rng.shuffle(arrows)
    vertices = order[:]
    rng.shuffle(vertices)
    return Quiver(vertices, arrows)


def _sweep_catalog(seed, count, max_vertices, max_entry):
    """Seeded (q, d, theta) with theta(d) = 0: fixed corner cases first (a
    one-vertex quiver, all-zero d, zero entries of d between nonzero ones
    with arrows through them), then random shuffled DAGs whose d has zeros
    about a quarter of the time."""
    rng = random.Random(seed)
    point = Quiver(("x",), ())
    through = Quiver(("a", "b", "c", "d"), (("c", "a"), ("a", "b"), ("a", "b"), ("b", "d"), ("c", "d")))
    data = [
        (point, DimensionVector({"x": 3})),
        (point, DimensionVector({"x": 0})),
        (through, DimensionVector({v: 0 for v in through.vertices})),
        (through, DimensionVector({"a": 2, "b": 0, "c": 3, "d": 1})),
        (through, DimensionVector({"a": 0, "b": 2, "c": 0, "d": 2})),
    ]
    for _ in range(count):
        q = _shuffled_dag(rng, rng.randint(1, max_vertices))
        data.append((q, DimensionVector({v: rng.choice((0, *range(1, max_entry + 1))) for v in q.vertices})))
    for q, d in data:
        yield q, d, random_zero_pairing_parameter(rng, q, d, spread=2)


def _wide_catalog(seed, count):
    """Seeded (q, d, theta) with theta(d) = 0 whose fields are wide or take
    their width from the Euler form: the one-point lattice d = 0 under
    entries of 10^30; two vertices with 8 parallel arrows, d = (4, 5) and a
    small theta, whose Euler form reaches -160 where theta needs 1 byte; then
    shuffled DAGs with up to 8 parallel arrows and zero entries of d, with
    theta entries up to about 10^30 on every other one."""
    rng = random.Random(seed)
    eight = Quiver(("1", "2"), (("1", "2"),) * 8)
    point = Quiver(("x", "y"), (("x", "y"),))
    yield point, DimensionVector({"x": 0, "y": 0}), StabilityParameter({"x": 10**30, "y": -1})
    yield eight, DimensionVector({"1": 4, "2": 5}), StabilityParameter({"1": 5, "2": -4})
    for n in range(count):
        q = _shuffled_dag(rng, rng.randint(1, 4), max_parallel=8)
        d = DimensionVector({v: rng.choice((0, 1, 2)) for v in q.vertices})
        yield q, d, random_zero_pairing_parameter(rng, q, d, spread=10**29 if n % 2 else 2)


def _dense_catalog(seed, count):
    """Seeded (q, d, theta) with theta(d) = 0 on shuffled DAGs of 4 to 6
    vertices with an arrow, or two, between most pairs, so that the sweep
    keeps several rows pending at once, and d = 0 on a vertex strictly
    between the first and the last, which arrows pass through."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 6)
        order = [f"v{k}" for k in range(n)]
        arrows = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) for _ in range(rng.choice((0, 1, 1, 1, 2)))]
        vertices = order[:]
        rng.shuffle(vertices)
        q = Quiver(vertices, arrows)
        zero = rng.randrange(1, n - 1)
        d = DimensionVector({v: 0 if k == zero else rng.randint(1, 3) for k, v in enumerate(vertices)})
        yield q, d, random_zero_pairing_parameter(rng, q, d, spread=2)


def _edge_data():
    """Data where |theta(e)| equals its bound sum_k |theta_k| d_k at a proper
    e, so theta(d) != 0: the bound plus 2 is the field bias 2^95 of 12-byte
    fields, with either sign, and then the bound plus 1 is 2^95, so a
    comparison with -1 needs 13 bytes."""
    q = Quiver(("1", "2", "3"), (("1", "2"), ("1", "2"), ("2", "3")))
    d = DimensionVector({"1": 2, "2": 1, "3": 1})
    for t1, t3 in ((2**94 - 2, 2), (2 - 2**94, -2), (2**94 - 1, 1)):
        yield q, d, StabilityParameter({"1": t1, "2": 0, "3": t3})


def _euler_to_complement(q, dv, e):
    """<e, d - e> on aligned tuples, straight from the arrows."""
    return sum(x * (c - x) for x, c in zip(e, dv)) - sum(e[s] * (dv[t] - e[t]) for s, t in q.arrow_indices)


def test_lattice_values_pair_theta_with_each_lattice_point():
    """theta(e) and the form's fields equal their per-point values on every
    datum of the catalogs, all of them DAGs."""
    at_edge = 0
    catalog = itertools.chain(_sweep_catalog(31, 60, 5, 3), _dense_catalog(29, 30), _wide_catalog(47, 60), _edge_data())
    for q, d, theta in catalog:
        dv, tv = d.aligned(q.vertices), theta.aligned(q.vertices)
        sweep = _lattice_values(q, dv, tv)
        values = _unpacked(sweep, sweep.theta)
        points = [_lattice_point(dv, k) for k in range(len(values))]
        assert points == list(itertools.product(*(range(c + 1) for c in dv)))
        assert values == [sum(x * t for x, t in zip(e, tv)) for e in points]
        assert _unpacked(sweep, sweep.form) == [_euler_to_complement(q, dv, e) + 1 for e in points]
        proper = list(enumerate(values))[1:-1]
        for c in (-1, 0, 1):
            assert sweep.indices(sweep.at_least(c)) == [k for k, v in proper if v >= c]
            assert sweep.indices(sweep.equal(c)) == [k for k, v in proper if v == c]
        at_edge += max(map(abs, values)) + 2 == 1 << (8 * sweep.width - 1)
    assert at_edge == 2


def test_strong_violations_equal_the_per_point_reference():
    seen = set()
    catalog = itertools.chain(_sweep_catalog(37, 300, 5, 3), _wide_catalog(53, 200), _edge_data())
    for q, d, theta in catalog:
        dv = d.aligned(q.vertices)
        violations = _strong_violations(dv, _lattice_values(q, dv, theta.aligned(q.vertices)))
        expected = [e.aligned(q.vertices) for e in naive_strong_violations(q, d, theta)]
        assert violations == (expected[:MAX_WITNESSES], len(expected))
        seen.add(min(len(expected), MAX_WITNESSES + 1))
    assert {0, 1, MAX_WITNESSES + 1} <= seen


def test_framed_check_equals_the_per_point_reference_at_scales_one_to_three():
    """The closed form against the framed lattice walked point by point, on
    shuffled DAGs with zero entries of d, framed at a random (i, j) and at
    (i, i), at N = 1, 2 and 3: only scale 1 ever departs from the
    prediction, and it often does.  The wide catalog adds theta entries up
    to about 10^30 and fields whose width the Euler form sets, and an
    8-vertex thin chain with theta alternating +-1 has 112 discrepancies at
    scale 1, more than the check lists."""
    rng = random.Random(41)
    failing = collections.Counter()
    chain = Quiver([str(k) for k in range(8)], [(str(k), str(k + 1)) for k in range(7)])
    alternating = (chain, thin(chain), StabilityParameter({v: (-1) ** int(v) for v in chain.vertices}))
    longest = 0
    for q, d, theta in itertools.chain(_sweep_catalog(43, 150, 4, 2), _wide_catalog(59, 60), [alternating]):
        lattice = math.prod(d[v] + 1 for v in q.vertices)
        i, j = rng.choice(q.vertices), rng.choice(q.vertices)
        for at in ((i, j), (i, i)):
            for scale in (1, 2, 3):
                framing = double_frame(q, d, theta, *at, scale)
                check = verify_framed_sign_partition(framing)
                expected = naive_framed_discrepancies(framing)
                assert list(check.discrepancies) == expected[:MAX_WITNESSES]
                assert check.discrepancy_count == len(expected)
                assert check.checked == 4 * lattice
                assert check.passed == (not expected)
                failing[scale] += not check.passed
                longest = max(longest, check.discrepancy_count)
    assert failing[1] >= 50 and failing[2] == failing[3] == 0, failing
    assert longest == 112 > MAX_WITNESSES
