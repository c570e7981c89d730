"""Independent oracles used to cross-check library results.

These deliberately avoid the library's own algorithms: path counting is a
plain recursive walk on the arrow list, or networkx's simple edge paths on a
multigraph, ranks, reduced echelon forms and products over Q and inverses
and products over F_p come from sympy, row spans over F_p are enumerated
coefficient by coefficient, connectivity is
union-find, subspace counts come from the closed-form product formula, and
the subdimension-lattice decisions build one DimensionVector per point and
pair theta with it directly, as the library did before its index-space
sweep, and the finite-field King test does the same per arrow-closed
subspace tuple, found by filtering the whole product of per-vertex subspace
lists, testing closure and cyclic closures by brute-force spans.  The
group action on a whole representation inverts with sympy and multiplies
every arrow matrix out, and group elements are accepted by the size of
their brute-force row span.  The framed description check runs a second,
separate King search on the whole framed point instead of reading the
framed verdicts off the base point's closed tuples.  The reduction of a
framed datum is built case by case, each of its four cases spelled out
field by field, instead of as one restriction of the framed datum to its
kept vertices, and its path map is built by enumerating the reduced paths.

Two entries are not references but library routines with no caller left in
the package, kept here with their tests: ``enumerate_subrepresentations``,
the closed-tuple search of ``ff_oracle._SubrepSearch`` as an iterator, which
the search-order tests read and check against ``naive_closed_tuples``; and
``has_cyclic_destabilizer``, the single-generator screening of the King
test, checked against ``naive_cyclic_destabilizer``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import random
from fractions import Fraction

import networkx
import sympy

from quivercalc import (
    BudgetExceededError,
    DimensionVector,
    FiniteFieldRepresentation,
    Path,
    Quiver,
    ReductionCase,
    ReductionResult,
    StabilityParameter,
    enumerate_paths,
)
from quivercalc import ff_oracle, linalg


def dfs_path_count(q: Quiver, src: str, dst: str) -> int:
    """Count directed paths src -> dst by exhaustive walk (acyclic input)."""

    def walk(at: str) -> int:
        total = 1 if at == dst else 0
        for s, t in q.arrows:
            if s == at:
                total += walk(t)
        return total

    return walk(src)


def networkx_paths(q: Quiver, src: str, dst: str) -> list[tuple[int, ...]]:
    """Arrow-index sequences of all paths src -> dst (acyclic input), sorted,
    from networkx on a multigraph keyed by arrow index."""
    g = networkx.MultiDiGraph()
    g.add_nodes_from(q.vertices)
    for k, (s, t) in enumerate(q.arrows):
        g.add_edge(s, t, key=k)
    return sorted(tuple(k for _, _, k in path) for path in networkx.all_simple_edge_paths(g, src, dst))


def sympy_rank(rows) -> int:
    return sympy.Matrix(rows).rank() if rows else 0


def sympy_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q from sympy, entries as Fractions."""
    reduced, pivots = sympy.Matrix(rows).rref()
    entries = [[Fraction(int(x.p), int(x.q)) for x in reduced.row(r)] for r in range(reduced.rows)]
    return entries, list(pivots)


def sympy_inverse_mod(rows, p: int) -> list[list[int]] | None:
    """The inverse over F_p from sympy, entries in 0..p-1, or None when the
    determinant vanishes mod p."""
    m = sympy.Matrix(rows)
    if m.det() % p == 0:
        return None
    return [[int(x) % p for x in m.inv_mod(p).row(r)] for r in range(m.rows)]


def sympy_mat_mul(a, b) -> list[list[Fraction]]:
    """The matrix product over Q from sympy."""
    product = sympy.Matrix(a) * sympy.Matrix(b)
    return [[Fraction(int(x.p), int(x.q)) for x in product.row(r)] for r in range(product.rows)]


def sympy_mat_mul_mod(a, b, p: int) -> list[list[int]]:
    """The matrix product over F_p from sympy, entries in 0..p-1."""
    product = sympy.Matrix(a) * sympy.Matrix(b)
    return [[int(x) % p for x in product.row(r)] for r in range(product.rows)]


def brute_force_row_span(rows, p: int) -> set[tuple[int, ...]]:
    """Every F_p-linear combination of the rows, by enumerating coefficients."""
    ncols = len(rows[0])
    return {
        tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(ncols))
        for coeffs in itertools.product(range(p), repeat=len(rows))
    }


def union_find_component_count(q: Quiver) -> int:
    parent = {v: v for v in q.vertices}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s, t in q.arrows:
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[rs] = rt
    return len({find(v) for v in q.vertices})


def gaussian_binomial_formula(n: int, k: int, q: int) -> int:
    """[n choose k]_q as a quotient of q-factorials (always integral)."""
    if k < 0 or k > n:
        return 0

    def q_factorial(m: int) -> int:
        out = 1
        for t in range(1, m + 1):
            out *= (q**t - 1) // (q - 1)
        return out

    num = q_factorial(n)
    den = q_factorial(k) * q_factorial(n - k)
    assert num % den == 0
    return num // den


# --- per-point subdimension-lattice references ---------------------------


def naive_subdimension_vectors(q: Quiver, d: DimensionVector) -> list[DimensionVector]:
    """Every e with 0 <= e <= d, lexicographic in q's vertex order."""
    ranges = [range(d[v] + 1) for v in q.vertices]
    return [DimensionVector(dict(zip(q.vertices, e))) for e in itertools.product(*ranges)]


def _sign_name(value: int) -> str:
    return "plus" if value > 0 else "minus" if value < 0 else "zero"


def naive_sign_partition(q: Quiver, d: DimensionVector, theta: StabilityParameter) -> dict[str, list]:
    buckets: dict[str, list] = {"plus": [], "minus": [], "zero": []}
    for e in naive_subdimension_vectors(q, d):
        buckets[_sign_name(theta(e))].append(e)
    return buckets


def naive_coprime_witness(q: Quiver, d: DimensionVector, theta: StabilityParameter):
    """The first proper nonzero e with theta(e) = 0, or None."""
    for e in naive_subdimension_vectors(q, d):
        if not e.is_zero() and e != d and theta(e) == 0:
            return e
    return None


def naive_strong_violations(q: Quiver, d: DimensionVector, theta: StabilityParameter) -> list:
    """Proper nonzero e with theta(e) >= 0 and <e, d - e> > -2, in order."""
    violations = []
    for e in naive_subdimension_vectors(q, d):
        if e.is_zero() or e == d or theta(e) < 0:
            continue
        f = d - e
        form = sum(e[v] * f[v] for v in q.vertices) - sum(e[s] * f[t] for s, t in q.arrows)
        if form > -2:
            violations.append(e)
    return violations


def naive_framed_discrepancies(framing) -> list:
    """(framed vector, expected bucket, actual bucket) for every framed
    subdimension vector whose sign breaks the predicted description."""
    base = framing.base_quiver
    signs = {
        e: _sign_name(framing.base_stability(e))
        for e in naive_subdimension_vectors(base, framing.base_dimension)
    }
    source, sink = framing.source_vertex, framing.sink_vertex
    out = []
    for f in naive_subdimension_vectors(framing.framed_quiver, framing.framed_dimension):
        a, b = f[source], f[sink]
        expected = signs[DimensionVector({v: f[v] for v in base.vertices})]
        if expected == "zero":
            expected = _sign_name(a - b)
        actual = _sign_name(framing.framed_stability(f))
        if actual != expected:
            out.append((f, expected, actual))
    return out


# --- finite-field stability references -----------------------------------


def _span(rows, n: int, p: int) -> set[tuple[int, ...]]:
    return brute_force_row_span(rows, p) if rows else {(0,) * n}


def _apply(mat, u, p: int) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, u)) % p for row in mat)


def naive_closed_tuples(m):
    """Every tuple of per-vertex subspaces that the arrows map into itself,
    the way a subrepresentation reads: itertools.product over the
    ``subspaces_of`` lists in quiver vertex order, closure by brute-force
    spans."""
    from quivercalc import subspaces_of

    q, p = m.quiver, m.prime
    n = {v: m.dims[v] for v in q.vertices}
    for tup in itertools.product(*(subspaces_of(p, n[v]) for v in q.vertices)):
        spaces = dict(zip(q.vertices, tup))
        if all(
            _apply(mat, u, p) in _span(spaces[t].rows, n[t], p)
            for (s, t), mat in zip(q.arrows, m.arrow_matrices)
            for u in spaces[s].rows
        ):
            yield tup


def naive_king_stability(m, theta: StabilityParameter):
    """(semistable, stable, first violating (subspaces, dims) or None), the
    way the King test reads: every closed tuple of ``naive_closed_tuples``
    paired with theta as a DimensionVector."""
    first_zero_proper = None
    for tup in naive_closed_tuples(m):
        dims = DimensionVector({v: len(space.rows) for v, space in zip(m.quiver.vertices, tup)})
        value = theta(dims)
        if value > 0:
            return False, False, (tup, dims)
        if value == 0 and not dims.is_zero() and dims != m.dims and first_zero_proper is None:
            first_zero_proper = (tup, dims)
    return True, first_zero_proper is None, first_zero_proper


def enumerate_subrepresentations(m: FiniteFieldRepresentation, budget: int = ff_oracle.DEFAULT_BUDGET):
    """Every arrow-closed tuple of subspaces of ``m`` with its dimension
    vector, 0 and the whole space included, in the order of the product of
    the per-vertex subspace lists in vertex order.  Refuses with
    BudgetExceededError when that product exceeds ``budget``."""
    search = ff_oracle._SubrepSearch(m.quiver, m.prime, m.dims.aligned(m.quiver.vertices), budget)
    for chosen in search.closed(m.arrow_matrices):
        yield search.subspaces(chosen), search.dimension(chosen)


def has_cyclic_destabilizer(
    m: FiniteFieldRepresentation, theta: StabilityParameter
) -> tuple[bool, DimensionVector | None]:
    """Search for a destabilizing subrepresentation generated by one element.

    Runs over every element of the direct sum of the vertex spaces, closes it
    under all arrows, and tests the pairing.  For thin representations every
    subrepresentation arises this way, so this agrees with the exhaustive
    search; for higher dimension vectors it is only a screening (there are
    unstable representations none of whose cyclic subrepresentations
    destabilize).  The p^(sum of dims) elements must not exceed
    ``ff_oracle.DEFAULT_BUDGET``.

    No command needs this screening; it lives here so that its tests, the
    beyond-thin counterexample among them, keep running.  Each element is
    closed with the library's F_p echelon residuals, and
    ``naive_cyclic_destabilizer`` below is its brute-force reference.
    """
    p = m.prime
    vertices = m.quiver.vertices
    weights = ff_oracle._king_weights(theta, m.dims, vertices)
    dims = m.dims.aligned(vertices)
    elements = p ** sum(dims)
    if elements > ff_oracle.DEFAULT_BUDGET:
        raise BudgetExceededError("elements", elements, ff_oracle.DEFAULT_BUDGET)
    out_arrows: list[list[tuple[int, tuple]]] = [[] for _ in vertices]  # (target, matrix)
    for (s, t), mat in zip(m.quiver.arrow_indices, m.arrow_matrices):
        out_arrows[s].append((t, mat))

    for element in itertools.product(*(itertools.product(range(p), repeat=n) for n in dims)):
        # Grow per-vertex echelon bases until closed under all arrows.  Each
        # basis is kept sorted by pivot column, as the residual requires.
        bases: list[tuple[list[list[int]], list[int]]] = [([], []) for _ in vertices]
        queue: list[tuple[int, list[int]]] = [
            (k, list(comp)) for k, comp in enumerate(element) if any(comp)
        ]
        while queue:
            k, vec = queue.pop()
            rows, pivots = bases[k]
            residual = linalg.mod_residual(rows, pivots, vec, p)
            if not any(residual):
                continue
            pivot = next(c for c, x in enumerate(residual) if x)
            inv = pow(residual[pivot], -1, p)
            at = bisect.bisect(pivots, pivot)
            pivots.insert(at, pivot)
            rows.insert(at, [x * inv % p for x in residual])
            for t, mat in out_arrows[k]:
                queue.append((t, linalg.mod_mat_vec(mat, residual, p)))
        closure = [len(pivots) for _, pivots in bases]
        if sum(map(operator.mul, weights, closure)) > 0:
            return True, DimensionVector(zip(vertices, closure))
    return False, None


def naive_cyclic_destabilizer(m, theta: StabilityParameter):
    """(found, dims of the first destabilizing cyclic subrepresentation):
    elements of the direct sum in vertex order, each closed under the
    arrows by growing whole spans until nothing changes."""
    q, p = m.quiver, m.prime
    n = {v: m.dims[v] for v in q.vertices}
    for element in itertools.product(*(itertools.product(range(p), repeat=n[v]) for v in q.vertices)):
        gens = {v: [list(x)] if any(x) else [] for v, x in zip(q.vertices, element)}
        while True:
            spans = {v: _span(gens[v], n[v], p) for v in q.vertices}
            new = [
                (t, image)
                for (s, t), mat in zip(q.arrows, m.arrow_matrices)
                for u in spans[s]
                if (image := _apply(mat, u, p)) not in spans[t]
            ]
            if not new:
                break
            for t, image in new:
                gens[t].append(list(image))
        dims = DimensionVector({v: round(math.log(len(spans[v]), p)) for v in q.vertices})
        if theta(dims) > 0:
            return True, dims
    return False, None


# --- group action references ------------------------------------------------


def _inverse_mod(mat, p: int) -> list[list[int]]:
    """Inverse over F_p from sympy; raises ValueError when singular."""
    n = len(mat)
    inv = sympy.Matrix(n, n, [x for row in mat for x in row]).inv_mod(p)
    return [[int(x) for x in row] for row in inv.tolist()]


def _mat_mul(a, b, p: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)) for row in a)


def group_act(g, m):
    """Base change of the whole representation: every arrow matrix M_a
    becomes g_t(a) . M_a . g_s(a)^{-1}, multiplied out over F_p."""
    p = m.prime
    inverses = {v: _inverse_mod(g[v], p) for v in m.quiver.vertices}
    mats = tuple(
        _mat_mul(_mat_mul(g[t], mat, p), inverses[s], p)
        for (s, t), mat in zip(m.quiver.arrows, m.arrow_matrices)
    )
    return FiniteFieldRepresentation(m.quiver, p, m.dims, mats)


def rank_rejection_group_element(rng, m):
    """prod_i GL_{d_i}(F_p) by rejection, vertex by vertex in quiver order,
    accepting a draw of full rank: its rows span all p^n vectors."""
    p = m.prime
    out = {}
    for v in m.quiver.vertices:
        n = m.dims[v]
        while True:
            candidate = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
            if len(_span(candidate, n, p)) == p**n:
                out[v] = candidate
                break
    return out


# --- framed verify references -------------------------------------------------


def _king(search, weighed, mats) -> tuple[bool, bool]:
    """(semistable, stable) of one point by King's test over every closed
    tuple that ``search`` yields, theta read off ``weighed`` per vertex."""
    stable = True
    for chosen in search.closed(mats):
        value = sum(weights[c] for weights, c in zip(weighed, chosen))
        if value > 0:
            return False, False
        if value == 0 and 0 < sum(dims[c] for dims, c in zip(search.sub_dims, chosen)) < search.total:
            stable = False
    return True, stable


def two_search_framing_equivalence(framing, prime: int, budget: int, seed: int):
    """(points checked, notes, failures, verdicts) of the framed description
    check the way it reads: per point, King's test on the base point for the
    base verdict and a second, separate King search on the whole framed
    point for the framed verdicts.  ``verdicts`` lists (matrices, base
    condition, framed semistable, framed stable) for every point.  Points
    are enumerated, or sampled with the seed when more than ``budget``,
    exactly as ``verify`` draws them."""
    from quivercalc import ff_oracle

    fq, fd = framing.framed_quiver, framing.framed_dimension
    base_q, base_d = framing.base_quiver, framing.base_dimension
    base_search = ff_oracle._SubrepSearch(base_q, prime, base_d.aligned(base_q.vertices), budget)
    framed_search = ff_oracle._SubrepSearch(fq, prime, fd.aligned(fq.vertices), budget)
    base_weighed = base_search.weigh(framing.base_stability.aligned(base_q.vertices))
    framed_weighed = framed_search.weigh(framing.framed_stability.aligned(fq.vertices))
    shapes = ff_oracle._shapes(fq, fd)
    total_points = prime ** sum(r * c for r, c in shapes)
    notes = ["below minimal framing scale"] if framing.framing_scale < 2 else []
    if total_points <= budget:
        points = ff_oracle._all_matrices(shapes, prime)
    else:
        rng = random.Random(seed)
        points = (ff_oracle._random_matrices(rng, shapes, prime) for _ in range(budget))
        notes.append(f"sampled {budget} of {total_points} points with seed {seed}")
    n_base = len(base_q.arrows)
    failures, verdicts = [], []
    checked = 0
    for mats in points:
        checked += 1
        base_stable = _king(base_search, base_weighed, mats[:n_base])[1]
        framing_in, framing_out = mats[n_base:]
        condition = base_stable and any(map(any, framing_in)) and any(map(any, framing_out))
        semistable, stable = _king(framed_search, framed_weighed, mats)
        verdicts.append((mats, condition, semistable, stable))
        if not (stable == semistable == condition):
            failures.append(
                (
                    mats,
                    f"all three conditions equal to {condition}",
                    f"stable={stable} semistable={semistable} base-condition={condition}",
                )
            )
    return checked, tuple(notes), failures, verdicts


def four_case_reduction(framing, d: DimensionVector) -> ReductionResult:
    """The reduced datum built separately in each case (d_i > 1, d_j > 1):
    quiver, dimension vector, parameter, marks, connecting paths and arrow
    map written out per case.  No hypothesis is gated on."""
    base_q = framing.base_quiver
    theta = framing.base_stability
    i, j = framing.framed_at
    scale = framing.framing_scale
    total = d.total()
    fq = framing.framed_quiver
    source, sink = framing.source_vertex, framing.sink_vertex
    n_base_arrows = len(base_q.arrows)
    source_arrow = n_base_arrows       # source -> i in the framed quiver
    sink_arrow = n_base_arrows + 1     # j -> sink in the framed quiver

    big_i, big_j = d[i] > 1, d[j] > 1
    if big_i and big_j:
        case = ReductionCase.BOTH_BIG
        reduced_q = fq
        reduced_d = framing.framed_dimension
        reduced_theta = framing.framed_stability
        marked = (source, sink)
        q0 = Path(source)
        qinf = Path(sink)
        arrow_map = tuple(range(len(fq.arrows)))
    elif big_i:
        case = ReductionCase.SOURCE_THIN
        reduced_q = Quiver((source, *base_q.vertices), (*base_q.arrows, (source, i)))
        reduced_d = DimensionVector({**d.as_dict(), source: 1})
        reduced_theta = StabilityParameter(
            {**{v: (total + 1) * scale * c - 1 for v, c in theta.entries}, source: total}
        )
        marked = (source, j)
        q0 = Path(source)
        qinf = Path(j, (sink_arrow,))
        arrow_map = tuple(range(n_base_arrows)) + (source_arrow,)
    elif big_j:
        case = ReductionCase.TARGET_THIN
        reduced_q = Quiver((*base_q.vertices, sink), (*base_q.arrows, (j, sink)))
        reduced_d = DimensionVector({**d.as_dict(), sink: 1})
        reduced_theta = StabilityParameter(
            {**{v: (total + 1) * scale * c + 1 for v, c in theta.entries}, sink: -total}
        )
        marked = (i, sink)
        q0 = Path(source, (source_arrow,))
        qinf = Path(sink)
        arrow_map = tuple(range(n_base_arrows)) + (sink_arrow,)
    else:
        case = ReductionCase.BOTH_THIN
        reduced_q = base_q
        reduced_d = d
        reduced_theta = theta
        marked = (i, j)
        q0 = Path(source, (source_arrow,))
        qinf = Path(j, (sink_arrow,))
        arrow_map = tuple(range(n_base_arrows))

    return ReductionResult(
        reduced_quiver=reduced_q,
        reduced_dimension=reduced_d,
        reduced_stability=reduced_theta,
        marked_vertices=marked,
        connecting_paths=(q0, qinf),
        case_tag=case,
        arrow_map=arrow_map,
        framing=framing,
    )


def reduction_path_map(result: ReductionResult) -> dict[Path, Path]:
    """The map p -> qinf . p . q0 from marked paths in the reduced quiver to
    source-to-sink paths in the framed quiver, by explicit enumeration.

    Used to certify that the map is a bijection onto the framed path space.
    """
    framing = result.framing
    i_mark, j_mark = result.marked_vertices
    q0, qinf = result.connecting_paths
    mapping: dict[Path, Path] = {}
    for p in enumerate_paths(result.reduced_quiver, i_mark, j_mark):
        translated = tuple(result.arrow_map[k] for k in p.arrows)
        mapping[p] = Path(framing.source_vertex, q0.arrows + translated + qinf.arrows)
    return mapping
