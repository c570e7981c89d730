"""Brute-force stability verification over small prime fields.

A representation point is a tuple of matrices over F_p.  Semistability and
stability are decided by enumerating every subrepresentation: per vertex, all
subspaces in row-echelon canonical form (dimension first, then pivot columns,
then free entries, all lexicographic), combined by backtracking over the
vertices in vertex order.  Each arrow is checked as soon as both of its
endpoints hold a subspace, so a partial choice that is not closed under the
arrows is never extended.  Every prefix of a closed tuple is closed, and each
vertex tries its subspaces in the fixed order, so the closed tuples come out
exactly in the order of the product of the per-vertex lists: witnesses are
deterministic and reproducible.  Containment is a bitmask test against a
cached mask, per subspace, of the vectors it contains, or a residual per
image vector at a vertex whose masks would be too large.  That search,
``_SubrepSearch.closed``, is the package's one iteration over closed tuples,
and ``_FramedKing`` over it the package's one King test, which the framed
description check runs; the test suite's oracles wrap the search as the
iterator its order tests read and as ``king_stability``, the King test of
one point.

``_require_tuples`` refuses an over-budget datum from the closed-form count
of its subspace tuples, before any subspace is listed.  Everything in the
search that depends only on the quiver, the prime and the dimensions (the
subspace lists, their dimensions as plain ints and the mask tables) is then
set up once per datum; a point reaches the search as its plain tuple of arrow
matrices.  An arrow's images depend on the point only through its matrix, so
the search keeps one image table per matrix it meets, for one ``verify``
call, where a bound allows; and it hands over each prefix of the closed
tuples once, with its last-vertex choices.  The framed description check,
``verify_double_framing_equivalence``, takes a ``FramingResult`` alone, as
every function downstream of the double framing does; it sets up the base
search only, since one enumeration of a base point decides its verdict and
every framing of it (``_FramedKing``); its loop runs over base points, as
matrix tuples, and inside over their framings, as the entries of v and w; a
``FiniteFieldRepresentation`` is built only for the first failing ones.

Every uniform value over F_p comes from ``_uniform_entries``, which draws
exactly what successive ``randrange(p)`` calls draw.

These finite-field verdicts are evidence at desk scale, not proofs over the
geometric ground field; reports are always worded "verified over F_p".  For
stability (as opposed to semistability) the verdict is only meaningful when
semistable = stable is forced, which is asserted via theta-coprimality (the
framing's cached ``base_assumptions``) before any stable-only conclusion is
drawn.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import sys
from functools import lru_cache
from time import monotonic
from typing import Callable, Iterator, NamedTuple, Sequence

from . import linalg
from .core import DimensionVector, Path, Quiver, _check_representation_shapes, _Frozen, _is_prime
from .errors import BudgetExceededError, NotThinAtEndpointsError
from .framing import MINIMAL_FRAMING_SCALE, FramingResult
from .stability import MAX_WITNESSES

__all__ = [
    "FiniteFieldRepresentation",
    "Subspace",
    "EquivalenceReport",
    "DEFAULT_BUDGET",
    "gaussian_binomial",
    "subspace_count",
    "subspaces_of",
    "random_representation",
    "verify_double_framing_equivalence",
    "path_semiinvariant",
    "random_group_element",
    "verify_semiinvariant_weight",
]

DEFAULT_BUDGET = 10**6

IntMatrix = tuple[tuple[int, ...], ...]


class FiniteFieldRepresentation(_Frozen):
    """A representation with matrices over F_p, entries reduced to 0..p-1."""

    _fields = ("quiver", "prime", "dims", "arrow_matrices")

    def __init__(self, quiver: Quiver, prime: int, dims: DimensionVector, arrow_matrices: tuple[IntMatrix, ...]):
        if not _is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        _check_representation_shapes(quiver, dims, arrow_matrices)
        normalized = tuple(tuple(tuple(x % prime for x in row) for row in m) for m in arrow_matrices)
        super().__init__(quiver, prime, dims, normalized)


class Subspace(NamedTuple):
    """A subspace of F_p^n in reduced row echelon form."""

    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    def contains(self, v: Sequence[int], p: int) -> bool:
        return not any(linalg.mod_residual(self.rows, self.pivots, v, p))


class EquivalenceReport(NamedTuple):
    """Outcome of a point-by-point check of the framed stability description:
    ``failures`` holds the first ``MAX_WITNESSES`` failing points in point
    order, ``failure_count`` counts them all."""

    instances_checked: int
    failures: tuple[tuple[FiniteFieldRepresentation, str, str], ...]
    failure_count: int
    sampled: bool = False
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failure_count


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n, exactly."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for t in range(k):
        num *= q ** (n - t) - 1
        den *= q ** (t + 1) - 1
    assert num % den == 0
    return num // den


def subspace_count(n: int, q: int) -> int:
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def _require_tuples(prime: int, dims: Sequence[int], budget: int, counted: str) -> None:
    """Refuse, before any subspace is listed, when the tuples of one subspace
    of F_p^n per entry n of ``dims`` number more than ``budget``."""
    count = math.prod(subspace_count(n, prime) for n in dims)
    if count > budget:
        raise BudgetExceededError(counted, count, budget)


@lru_cache(maxsize=None)
def subspaces_of(p: int, n: int) -> tuple[Subspace, ...]:
    """All subspaces of F_p^n via reduced echelon canonical forms.

    Ordered by dimension, then pivot columns, then free entries, each
    lexicographically; the zero space comes first and the full space last.
    The enumerated count is cross-checked against the Gaussian binomials.
    """
    out: list[Subspace] = []
    for k in range(n + 1):
        count_k = 0
        for pivots in itertools.combinations(range(n), k):
            free_positions = [
                (r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, n)
                if c not in pivots
            ]
            for values in itertools.product(range(p), repeat=len(free_positions)):
                rows = [[0] * n for _ in range(k)]
                for r in range(k):
                    rows[r][pivots[r]] = 1
                for (r, c), val in zip(free_positions, values):
                    rows[r][c] = val
                out.append(Subspace(tuple(tuple(r) for r in rows), pivots))
                count_k += 1
        assert count_k == gaussian_binomial(n, k, p)
    return tuple(out)


# A containment mask has one bit per vector of F_p^n: bit c is set when the
# vector whose base-p numeral (first coordinate leading) is c lies in the
# subspace.  A table of them, one per subspace of F_p^n, takes
# subspace_count(n, p) * p^n bits, more than the one helper integer of p^n
# bits per coordinate that its build keeps; beyond this many bits, a vertex
# tests containment by residuals instead.  On a King test of dims
# (1, n, n, 1) the masks win 4-9x at (257, 2) (1.7e7 bits), break even at
# (509, 2) (1.3e8 bits) and lose 2-4x at (1009, 2) (1.0e9 bits), where each
# test moves a 127 KB integer.
_MASK_TABLE_BITS = 1 << 27
# One mask is bounded too, since the table bound alone admits a thin vertex
# up to p of about 6.7e7, and each mask test moves p^n bits where a residual
# per image moves n entries.  In verify runs (shared 2-core machine, Python
# 3.11) the masks tied with residuals on the thin Kronecker at p = 65537 and
# 262147 and lost 3-4x at 1000003; on Kronecker (1, 2) they tied at p = 331
# (1.1e5 bits) and lost 2.4x at p = 509 (2.6e5 bits).
_MASK_BITS = 1 << 17


def _code(v: Sequence[int], p: int) -> int:
    code = 0
    for x in v:
        code = code * p + x
    return code


@lru_cache(maxsize=None)
def _steps(p: int, n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Per subspace of ``subspaces_of(p, n)`` after the zero space, the index
    of the span of its echelon rows but the last (an echelon form of lower
    dimension, so listed earlier) and that last row."""
    spaces = subspaces_of(p, n)
    index = {space.rows: c for c, space in enumerate(spaces)}
    return tuple((index[space.rows[:-1]], space.rows[-1]) for space in spaces[1:])


@lru_cache(maxsize=None)
def _span_masks(p: int, n: int) -> tuple[int, ...] | None:
    """Containment masks of ``subspaces_of(p, n)``, index for index, or None
    when one mask would exceed ``_MASK_BITS`` or the table
    ``_MASK_TABLE_BITS``.

    Built by ``_steps``, one echelon row at a time: a subspace's mask is the
    mask of the span of all its rows but the last, already built, translated
    by every multiple of the last row.  Adding a * e_j moves whole digit
    classes of coordinate j, so a translation is two shifts per coordinate,
    and doubling the multiplier reaches every multiple in log2(p) of them.
    """
    size = p**n
    if size > _MASK_BITS or subspace_count(n, p) * size > _MASK_TABLE_BITS:
        return None
    weights = [p ** (n - 1 - j) for j in range(n)]
    # ones[j]: the codes whose digits from j on are all 0.
    ones = [sum(1 << start for start in range(0, size, p * w)) for w in weights]

    def translate(mask: int, v: Sequence[int]) -> int:
        for j, a in enumerate(v):
            if a:
                w = weights[j]
                stay = ((1 << (p - a) * w) - 1) * ones[j]  # digit j below p - a
                mask = (mask & stay) << (a * w) | (mask & ~stay) >> ((p - a) * w)
        return mask

    masks = [1]
    for parent, row in _steps(p, n):
        mask = masks[parent]
        multiple = 1
        while multiple < p:
            mask |= translate(mask, [x * multiple % p for x in row])
            multiple *= 2
        masks.append(mask)
    return tuple(masks)


def _image_table(mat: IntMatrix, steps: Sequence[tuple[int, tuple[int, ...]]], p: int, masked: bool) -> list:
    """The images under ``mat`` of the subspaces in the order of ``steps``,
    a ``_steps`` table: per subspace, the images of its echelon rows, joined
    by ``|`` as one containment mask when ``masked`` (the target vertex has
    masks), else as a frozenset of the nonzero ones."""
    table = [0 if masked else frozenset()]
    for prefix, row in steps:
        u = linalg.mod_mat_vec(mat, row, p)
        if masked:
            table.append(table[prefix] | 1 << _code(u, p))
        else:
            table.append(table[prefix] | {tuple(u)} if any(u) else table[prefix])
    return table


class _SubrepSearch:
    """The subrepresentation search of one (quiver, prime, dimensions), set
    up once and run on any number of points.

    The set-up lists every vertex's subspaces with their dimensions as plain
    ints, and fixes the arrows the search checks, which vertices they touch
    and, per touched vertex, its containment masks, or None when they are
    over either bound; its caller has passed ``_require_tuples`` first.  An
    arrow into or out of a vertex of dimension 0 maps everything to zero,
    constrains nothing and is left out: no image table, no check.
    ``closed`` runs the search on one point, given as its tuple of arrow
    matrices.

    Per source dimension it keeps the image table of each matrix it meets,
    on an arrow whose shape fits ``_MASK_BITS``: p^(rows * cols) matrices
    times the source's subspaces times p^rows bits, one mask's width.  So
    at most 2^17 entries and 2^17 mask bits per shape; other arrows build
    their tables per point, with None in ``arrows``.
    """

    def __init__(self, quiver: Quiver, prime: int, dims: Sequence[int]):
        self.quiver = quiver
        self.prime = prime
        self.total = sum(dims)
        self.spaces = [subspaces_of(prime, n) for n in dims]
        self.sub_dims = [tuple(len(space.rows) for space in spaces) for spaces in self.spaces]
        self.all_indices = [range(len(spaces)) for spaces in self.spaces]
        arrows = [(k, s, t) for k, (s, t) in enumerate(quiver.arrow_indices) if dims[s] and dims[t]]
        touched = {v for _, s, t in arrows for v in (s, t)}
        self.masks = [_span_masks(prime, n) if v in touched else None for v, n in enumerate(dims)]
        self.into: list[list[tuple[int, int]]] = [[] for _ in dims]  # (entry of arrows, earlier source)
        self.out_of: list[list[tuple[int, int]]] = [[] for _ in dims]  # (entry of arrows, earlier or same target)
        self.arrows = []  # (arrow, echelon steps of the source, target has masks, kept tables or None)
        kept = {}
        for n, (k, s, t) in enumerate(arrows):
            if s < t:
                self.into[t].append((n, s))
            else:
                self.out_of[s].append((n, t))
            fits = prime ** (dims[t] * dims[s] + dims[t]) * len(self.spaces[s]) <= _MASK_BITS
            # A matrix fixes its target's dimension, so whether that has masks.
            self.arrows.append((k, _steps(prime, dims[s]), self.masks[t] is not None, kept.setdefault(dims[s], {}) if fits else None))

    def weigh(self, weights: Sequence[int]) -> list[tuple[int, ...]]:
        """Per vertex, its weight times the dimension of each of its
        subspaces: theta of a closed tuple is then one sum of lookups."""
        return [tuple(w * n for n in dims) for w, dims in zip(weights, self.sub_dims)]

    def closed(self, mats: Sequence[IntMatrix]) -> Iterator[tuple[tuple[int, ...], Sequence[int]]]:
        """Every arrow-closed tuple of subspaces of the point with arrow
        matrices ``mats``, as indices into the per-vertex ``subspaces_of``
        lists, in the order of their product, grouped by prefix: each
        (prefix, ends) stands for the closed tuples (*prefix, c) for c in
        ends, the prefix choosing at every vertex but the last.  A quiver
        with no vertex yields nothing (its one tuple, (), weighs 0 and is
        not proper).

        Backtracks over the vertices in vertex order with an explicit stack.
        An arrow is checked at the later of its endpoints: an arrow from an
        earlier vertex asks the candidate to contain the images of the chosen
        subspace, an arrow to an earlier vertex or a loop asks the images of
        the candidate to lie in the chosen subspace or in itself.  A subspace
        of a vertex with masks contains images by one mask test, and one of a
        vertex without them by a residual per image.  A vertex that no checked
        arrow touches keeps every candidate.
        """
        p, spaces, masks, all_indices = self.prime, self.spaces, self.masks, self.all_indices
        if not spaces:
            return
        images = []
        for k, steps, masked, tables in self.arrows:
            mat = mats[k]
            image = None if tables is None else tables.get(mat)
            if image is None:
                image = _image_table(mat, steps, p, masked)
                if tables is not None:
                    tables[mat] = image
            images.append(image)

        def holds(v: int, c: int, image) -> bool:
            """Whether subspace c of vertex v contains ``image``."""
            own = masks[v]
            if own is None:
                return all(spaces[v][c].contains(u, p) for u in image)
            return own[c] & image == image

        def candidates(v: int):
            own = masks[v]
            found, required = all_indices[v], frozenset() if own is None else 0
            for k, s in self.into[v]:
                required |= images[k][chosen[s]]
            if own is None:
                if required:
                    found = [c for c in found if holds(v, c, required)]
            elif required > 1:  # bit 0 is the zero vector, in every subspace
                found = [c for c, mask in enumerate(own) if mask & required == required]
            for k, t in self.out_of[v]:
                image = images[k]
                found = [c for c in found if holds(t, c if t == v else chosen[t], image[c])]
            return found if v == last else iter(found)

        chosen = [0] * len(spaces)
        last = len(spaces) - 1
        stack = [candidates(0)]
        while stack:
            v = len(stack) - 1
            if v == last:
                ends = stack.pop()
                if ends:
                    yield tuple(chosen[:last]), ends
                continue
            c = next(stack[v], None)
            if c is None:
                stack.pop()
            else:
                chosen[v] = c
                stack.append(candidates(v + 1))


def _shapes(q: Quiver, d: DimensionVector) -> list[tuple[int, int]]:
    """(rows, columns) of each arrow's matrix, in arrow order."""
    return [(d[t], d[s]) for s, t in q.arrows]


def _as_matrices(values: tuple[int, ...], shapes: Sequence[tuple[int, int]]) -> tuple[IntMatrix, ...]:
    """Matrices of the given shapes filled from ``values`` in order, entries
    row by row."""
    mats = []
    pos = 0
    for rows, cols in shapes:
        mats.append(tuple(values[pos + r * cols : pos + (r + 1) * cols] for r in range(rows)))
        pos += rows * cols
    return tuple(mats)


def _all_matrices(shapes: Sequence[tuple[int, int]], prime: int) -> Iterator[tuple[IntMatrix, ...]]:
    """Every tuple of matrices of the given shapes over F_p, entry-lexicographic
    (matrices in order, entries row by row)."""
    entry_count = sum(r * c for r, c in shapes)
    for values in itertools.product(range(prime), repeat=entry_count):
        yield _as_matrices(values, shapes)


def _uniform_entries(rng: random.Random, count: int, p: int) -> tuple[int, ...]:
    """``count`` successive ``rng.randrange(p)`` values, drawn the way CPython
    3.10-3.12 draws them: ``getrandbits(p.bit_length())``, redrawn while the
    value is >= p.  The values and the final generator state are the same,
    without ``randrange``'s argument handling per value."""
    getrandbits, k = rng.getrandbits, p.bit_length()
    values = []
    for _ in range(count):
        x = getrandbits(k)
        while x >= p:
            x = getrandbits(k)
        values.append(x)
    return tuple(values)


def random_representation(
    rng: random.Random, q: Quiver, d: DimensionVector, prime: int
) -> FiniteFieldRepresentation:
    shapes = _shapes(q, d)
    return FiniteFieldRepresentation(q, prime, d, _as_matrices(_uniform_entries(rng, sum(r * c for r, c in shapes), prime), shapes))


def verify_double_framing_equivalence(
    framing: FramingResult, prime: int, budget: int = DEFAULT_BUDGET, seed: int = 0
) -> EquivalenceReport:
    """Check, point by point over F_p, that for a framed representation the
    three conditions agree: framed stable; framed semistable; base
    representation stable with both framing maps nonzero.

    The base datum must be theta-coprime so that base semistable = stable is
    forced and the stable verdict is sound over the finite field; the
    framing's ``base_assumptions`` decide it.  All points are enumerated when
    their number fits the budget; otherwise points are sampled uniformly with
    the fixed seed.  Runs at any scale: below ``MINIMAL_FRAMING_SCALE`` the
    report is labeled accordingly, since the description is only claimed
    from the minimal scale on.

    The clock is read once per base point.  From about 5 s on, at most once
    a second, a progress line on stderr gives the points checked, the points
    to check (the budget or the total) and an estimate of the time left.
    """
    if not _is_prime(prime):
        raise ValueError(f"{prime} is not prime")
    framing.base_assumptions.require("coprime")
    scale = framing.framing_scale
    notes = ["below minimal framing scale"] if scale < MINIMAL_FRAMING_SCALE else []

    fq, fd = framing.framed_quiver, framing.framed_dimension
    shapes = _shapes(fq, fd)
    base_shapes, framing_shapes = shapes[:-2], shapes[-2:]  # the framing maps v and w come last
    base_count, framing_count = (sum(r * c for r, c in part) for part in (base_shapes, framing_shapes))
    total_points = prime ** (base_count + framing_count)

    # Per-point subrepresentation enumeration must fit the budget regardless
    # of sampling, otherwise no verdicts can be computed at all.
    _require_tuples(prime, fd.aligned(fq.vertices), budget, "subspace tuples per point")

    # One search set-up per datum.  The points come in the order of
    # ``_all_matrices(shapes, prime)`` or of ``random_representation`` draws.
    king = _FramedKing(framing, prime)

    sampled = total_points > budget
    if sampled:
        rng = random.Random(seed)
        draws = (_uniform_entries(rng, base_count + framing_count, prime) for _ in range(budget))
        points = ((_as_matrices(entries[:base_count], base_shapes), (entries[base_count:],)) for entries in draws)
        notes.append(f"sampled {budget} of {total_points} points with seed {seed}")
    else:
        points = ((base, itertools.product(range(prime), repeat=framing_count)) for base in _all_matrices(base_shapes, prime))

    failures = []
    checked = failure_count = 0
    start = monotonic()
    due = start + 5  # seconds before the first progress line
    for base, framings in points:
        verdicts = king.verdicts(base)
        for entries in framings:
            checked += 1
            condition, semistable, stable = verdicts(entries)
            if stable == semistable == condition:
                continue
            failure_count += 1
            if failure_count <= MAX_WITNESSES:
                failures.append(
                    (
                        FiniteFieldRepresentation(fq, prime, fd, base + _as_matrices(entries, framing_shapes)),
                        f"all three conditions equal to {condition}",
                        f"stable={stable} semistable={semistable} base-condition={condition}",
                    )
                )
        now = monotonic()
        if now >= due:
            due, elapsed, planned = now + 1, now - start, min(budget, total_points)
            left = elapsed * (planned - checked) / checked
            message = f"{checked:,} of {planned:,} points checked in {elapsed:.0f} s, about {left:.0f} s left"
            print(f"quivercalc: verify: {message}", file=sys.stderr)
    return EquivalenceReport(
        instances_checked=checked,
        failures=tuple(failures),
        failure_count=failure_count,
        sampled=sampled,
        notes=tuple(notes),
    )


class _FramedKing:
    """King's test on the points of a double framing (1, d, 1), weights
    (1, N theta, -1), from one enumeration of each base point.  With v and w
    the framing maps (source -> i, j -> sink), a closed tuple of a framed
    point is (a, E, b): E closed in the base point, a in {0, 1 if v in E_i},
    b in {1, 0 if E_j in ker w}.  It weighs a + N theta(E) - b and is proper
    and nonzero iff 0 < a + |E| + b < |d| + 2.  Holds the base search (its
    set-up and image tables); ``verdicts`` enumerates one base point."""

    def __init__(self, framing: FramingResult, prime: int):
        q = framing.base_quiver
        self.prime = prime
        self.search = _SubrepSearch(q, prime, framing.base_dimension.aligned(q.vertices))
        self.weighed = self.search.weigh([framing.framing_scale * t for t in framing.base_stability.aligned(q.vertices)])
        self.i, self.j = map(q.vertex_index, framing.framed_at)
        self.d_i = framing.base_dimension[framing.framed_at[0]]

    def _base(self, mats: Sequence[IntMatrix]) -> tuple[bool, list[tuple[int, int, Subspace, Subspace]] | None]:
        """(base stable, record): (N theta(E), |E|, E_i, E_j) per closed E
        with a framed tuple that can weigh >= 0, or None when one weighs > 0
        whatever v and w are."""
        search, weighed, i, j = self.search, self.weighed, self.i, self.j
        total, sub_dims, at_i, at_j = search.total, search.sub_dims, search.spaces[i], search.spaces[j]
        stable, record = True, []
        for prefix, ends in search.closed(mats):
            head = sum(map(operator.getitem, weighed, prefix))
            head_dim = sum(map(operator.getitem, sub_dims, prefix))
            for c in ends:
                value = head + weighed[-1][c]
                if value < -1:
                    continue
                if value > 1:
                    return False, None
                dim = head_dim + sub_dims[-1][c]
                if value > 0 or value == 0 and 0 < dim < total:
                    stable = False
                chosen = (*prefix, c)
                record.append((value, dim, at_i[chosen[i]], at_j[chosen[j]]))
        return stable, record

    def verdicts(self, base: Sequence[IntMatrix]) -> Callable[[tuple[int, ...]], tuple[bool, bool, bool]]:
        """The verdicts of the framings of one base point, as a function of
        a framing's entries (v's, then w's): (base stable with both framing
        maps nonzero, framed semistable, framed stable)."""
        p, total, d_i = self.prime, self.search.total, self.d_i
        base_stable, record = self._base(base)

        def framed(entries: tuple[int, ...]) -> tuple[bool, bool, bool]:
            v, w = entries[:d_i], entries[d_i:]
            condition = base_stable and any(v) and any(w)
            if record is None:
                return condition, False, False
            stable = True
            for value, dim, e_i, e_j in record:
                v_in = e_i.contains(v, p)
                w_kills = not any(sum(map(operator.mul, w, row)) % p for row in e_j.rows)
                for a in range(v_in + 1):
                    for b in range(1 - w_kills, 2):
                        if a + value - b > 0:
                            return condition, False, False
                        if a + value == b and 0 < a + dim + b < total + 2:
                            stable = False
            return condition, True, stable

        return framed


def path_semiinvariant(m, path: Path):
    """Evaluate a representation on a path between thin vertices.

    The source and target of the path must carry dimension 1; the value is
    the single entry of the composite matrix along the path (1 for a trivial
    path).  Works for finite-field and rational representations alike; over
    F_p the value is reduced mod p.
    """
    q = m.quiver
    src = path.source
    dst = path.target(q)
    if m.dims[src] != 1 or m.dims[dst] != 1:
        raise NotThinAtEndpointsError(
            f"path endpoints {src!r}, {dst!r} must have dimension 1"
        )
    vec = [1]
    for a in path.arrows:
        mat = m.arrow_matrices[a]
        vec = [sum(row_x * v_x for row_x, v_x in zip(row, vec)) for row in mat]
    value = vec[0]
    if isinstance(m, FiniteFieldRepresentation):
        return value % m.prime
    return value


def _invertible(rng: random.Random, n: int, p: int) -> tuple[IntMatrix, list[list[int]]]:
    """A uniformly random element of GL_n(F_p) and its inverse, by rejection:
    the elimination that inverts a draw is the test that accepts it.  Each
    candidate is drawn as its n^2 entries, row by row."""
    while True:
        (g,) = _as_matrices(_uniform_entries(rng, n * n, p), ((n, n),))
        try:
            return g, linalg.mod_invert(g, p)
        except ValueError:
            continue


def random_group_element(
    rng: random.Random, m: FiniteFieldRepresentation
) -> dict[str, IntMatrix]:
    """A uniformly random element of prod_i GL_{d_i}(F_p), by rejection."""
    return {v: _invertible(rng, m.dims[v], m.prime)[0] for v in m.quiver.vertices}


def verify_semiinvariant_weight(
    m: FiniteFieldRepresentation, path: Path, g: dict[str, IntMatrix]
) -> bool:
    """Check the transformation law of a path evaluation under base change:
    the value on g . M equals g at the target times the inverse of g at the
    source times the value on M (all scalars, endpoints being thin).  Raises
    ValueError when g is singular at any vertex."""
    before = path_semiinvariant(m, path)  # raises unless both endpoints are thin
    q, p = m.quiver, m.prime
    inverses = {v: linalg.mod_invert(g[v], p) for v in q.vertices}
    # One vector passed along the acted arrows g_t(a) . M_a . g_s(a)^{-1}
    # gives the value on g . M.
    after, at = [1], path.source
    for a in path.arrows:
        s, at = q.arrows[a]
        acted = linalg.mod_mat_vec(m.arrow_matrices[a], linalg.mod_mat_vec(inverses[s], after, p), p)
        after = linalg.mod_mat_vec(g[at], acted, p)
    return after[0] == g[at][0][0] * inverses[path.source][0][0] * before % p
