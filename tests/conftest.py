import random

import pytest
from hypothesis import strategies as st

from quivercalc import DimensionVector, Quiver, StabilityParameter, canonical_stability

# --- fixed fixtures: the examples every module keeps coming back to ----------


@pytest.fixture
def three_vertex() -> Quiver:
    """Vertices 1, 2, 3 with arrows 1->2, two parallel 2->3, and 1->3."""
    return Quiver(("1", "2", "3"), (("1", "2"), ("2", "3"), ("2", "3"), ("1", "3")))


@pytest.fixture
def kronecker() -> Quiver:
    return Quiver(("1", "2"), (("1", "2"), ("1", "2")))


@pytest.fixture
def three_kronecker() -> Quiver:
    return Quiver(("1", "2"), (("1", "2"), ("1", "2"), ("1", "2")))


@pytest.fixture
def a2() -> Quiver:
    return Quiver(("1", "2"), (("1", "2"),))


@pytest.fixture
def a3() -> Quiver:
    return Quiver(("1", "2", "3"), (("1", "2"), ("2", "3")))


def thin(q: Quiver) -> DimensionVector:
    return DimensionVector({v: 1 for v in q.vertices})


# --- random generation helpers (seeded, used by catalogs) --------------------


def random_acyclic_quiver(rng: random.Random, max_vertices=6, max_parallel=2, connected=False) -> Quiver:
    n = rng.randint(2 if connected else 1, max_vertices)
    vertices = tuple(f"v{k}" for k in range(n))
    arrows: list[tuple[str, str]] = []
    counts: dict[tuple[str, str], int] = {}
    if connected:
        for k in range(1, n):
            pair = (vertices[rng.randrange(k)], vertices[k])
            arrows.append(pair)
            counts[pair] = counts.get(pair, 0) + 1
    for i in range(n):
        for j in range(i + 1, n):
            pair = (vertices[i], vertices[j])
            room = max_parallel - counts.get(pair, 0)
            for _ in range(min(room, rng.randint(0, 2))):
                arrows.append(pair)
                counts[pair] = counts.get(pair, 0) + 1
    return Quiver(vertices, arrows)


def random_zero_pairing_parameter(rng: random.Random, q: Quiver, d: DimensionVector, spread=3) -> StabilityParameter:
    """A random integer parameter with theta(d) = 0, from kernel generators."""
    support = [v for v in q.vertices if d[v] > 0]
    coeffs = {v: 0 for v in q.vertices}
    for v in q.vertices:
        if v not in support:
            coeffs[v] = rng.randint(-spread, spread)
    for u, v in zip(support, support[1:]):
        c = rng.randint(-spread, spread)
        coeffs[u] += c * d[v]
        coeffs[v] -= c * d[u]
    return StabilityParameter(coeffs)


def strong_catalog_instance(rng: random.Random):
    """One connected acyclic instance passing coprimality and the strong
    ample stability criterion, by rejection sampling; None when the draw
    fails (caller retries)."""
    from quivercalc import assumptions_report

    q = random_acyclic_quiver(rng, connected=True)
    d = DimensionVector({v: rng.randint(1, 2) for v in q.vertices})
    if not d.is_indivisible():
        return None
    candidates = [canonical_stability(q, d)] + [
        random_zero_pairing_parameter(rng, q, d) for _ in range(3)
    ]
    for theta in candidates:
        if theta(d) != 0:
            continue
        report = assumptions_report(q, d, theta)
        if report.coprime and report.strongly_amply_stable:
            return q, d, theta
    return None


# --- hypothesis strategies ----------------------------------------------------


@st.composite
def acyclic_quivers(draw, max_vertices=5, max_parallel=2):
    n = draw(st.integers(1, max_vertices))
    vertices = tuple(f"v{k}" for k in range(n))
    arrows = []
    for i in range(n):
        for j in range(i + 1, n):
            for _ in range(draw(st.integers(0, max_parallel))):
                arrows.append((vertices[i], vertices[j]))
    return Quiver(vertices, arrows)


@st.composite
def quiver_with_dimensions(draw, max_entry=3, min_entry=0):
    q = draw(acyclic_quivers())
    d = DimensionVector({v: draw(st.integers(min_entry, max_entry)) for v in q.vertices})
    return q, d


@st.composite
def quiver_with_datum(draw, max_entry=3, min_entry=0, spread=3):
    q, d = draw(quiver_with_dimensions(max_entry=max_entry, min_entry=min_entry))
    support = [v for v in q.vertices if d[v] > 0]
    coeffs = {v: 0 for v in q.vertices}
    for v in q.vertices:
        if v not in support:
            coeffs[v] = draw(st.integers(-spread, spread))
    for u, v in zip(support, support[1:]):
        c = draw(st.integers(-spread, spread))
        coeffs[u] += c * d[v]
        coeffs[v] -= c * d[u]
    return q, d, StabilityParameter(coeffs)


# Unicode and colliding vertex names: "" and "0" next to "1", and "∞".
SPEC_NAMES = ("a", "b", "1", "0", "", "∞", "é")
HUGE_INTEGERS = st.sampled_from([10**30, -(10**30), 2**63, -(2**63) - 1, 10**100])


def _integer_field(draw, small):
    """Nine times in ten ``small``; otherwise its integral float, a huge
    integer, a bool or a numeric string."""
    if draw(st.integers(0, 9)) < 9:
        return draw(small)
    return draw(st.one_of(small.map(float), HUGE_INTEGERS, st.booleans(), st.just("1")))


@st.composite
def spec_documents(draw, max_vertices=5):
    """Spec documents for fuzzing: at most ``max_vertices`` vertices, d_i <= 3,
    arrows between any two vertices (cycles, loops and disconnected quivers
    included), zero entries, and odd values in every integer field.  The
    stability parameter usually pairs to zero, so most documents get past
    parsing."""
    vertices = draw(st.lists(st.sampled_from(SPEC_NAMES), min_size=1, max_size=max_vertices, unique=True))
    names = st.sampled_from(vertices)
    arrows = draw(st.lists(st.tuples(names, names), max_size=6))
    dimension = {v: _integer_field(draw, st.integers(0, 3)) for v in vertices}
    stability = {v: draw(st.integers(-3, 3)) for v in vertices}
    if all(type(x) is int for x in dimension.values()) and draw(st.integers(0, 4)):
        # theta(d) = 0: a sum of c * (d_w e_u - d_u e_w) over consecutive support vertices
        support = [v for v in vertices if dimension[v]]
        stability.update(dict.fromkeys(support, 0))
        for u, w in zip(support, support[1:]):
            c = draw(st.integers(-2, 2))
            stability[u] += c * dimension[w]
            stability[w] -= c * dimension[u]
    odd = draw(names)
    stability[odd] = _integer_field(draw, st.just(stability[odd]))
    document = {
        "vertices": vertices,
        "arrows": [{"from": s, "to": t} for s, t in arrows],
        "dimension": dimension,
        "stability": stability,
    }
    if draw(st.booleans()):
        document["framing"] = {"i": draw(names), "j": draw(names)}
        if draw(st.booleans()):
            document["framing"][draw(st.sampled_from(["scale", "N"]))] = _integer_field(draw, st.integers(1, 3))
    if draw(st.booleans()):
        document["oracle"] = {
            "prime": _integer_field(draw, st.sampled_from([2, 3, 4])),
            "budget": _integer_field(draw, st.integers(1, 64)),
            "seed": _integer_field(draw, st.integers(0, 5)),
        }
    return document
