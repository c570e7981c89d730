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
cached mask, per subspace, of the vectors it contains.  That search,
``_SubrepSearch.closed``, is the package's one iteration over closed tuples:
``king_stability`` and the framed description check both run it, and the
test suite's oracles wrap it as the iterator its order tests read.

Everything in that search that depends only on the quiver, the prime and the
dimensions (the subspace lists, their dimensions as plain ints, the budget
refusal and the mask tables) is set up once per datum; a point reaches the
search as its plain tuple of arrow matrices.  The framed description check,
``verify_double_framing_equivalence``, takes a ``FramingResult`` alone, as
every function downstream of the double framing does; it sets up the base
search only, since one enumeration of a base point
decides its verdict and every framing of it (``_FramedKing``), and checks
both pairings once; its enumerated or sampled points stay matrix tuples, and
a ``FiniteFieldRepresentation`` is built only for a point that fails.

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
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from . import linalg
from .core import DimensionVector, Path, Quiver, StabilityParameter, _check_representation_shapes, _is_prime
from .errors import BudgetExceededError, NotThinAtEndpointsError
from .framing import MINIMAL_FRAMING_SCALE, FramingResult
from .stability import _require_zero_pairing

__all__ = [
    "FiniteFieldRepresentation",
    "Subspace",
    "StabilityVerdict",
    "EquivalenceReport",
    "DEFAULT_BUDGET",
    "gaussian_binomial",
    "subspace_count",
    "subspaces_of",
    "king_stability",
    "random_representation",
    "verify_double_framing_equivalence",
    "path_semiinvariant",
    "random_group_element",
    "verify_semiinvariant_weight",
]

DEFAULT_BUDGET = 10**6

IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FiniteFieldRepresentation:
    """A representation with matrices over F_p, entries reduced to 0..p-1."""

    quiver: Quiver
    prime: int
    dims: DimensionVector
    arrow_matrices: tuple[IntMatrix, ...]

    def __post_init__(self):
        if not _is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        _check_representation_shapes(self.quiver, self.dims, self.arrow_matrices)
        p = self.prime
        normalized = tuple(tuple(tuple(x % p for x in row) for row in m) for m in self.arrow_matrices)
        object.__setattr__(self, "arrow_matrices", normalized)


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_p^n in reduced row echelon form."""

    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v: Sequence[int], p: int) -> bool:
        return not any(linalg.mod_residual(self.rows, self.pivots, v, p))


@dataclass(frozen=True)
class StabilityVerdict:
    """Verdict of the exhaustive King stability test.

    When a flag is false, ``destabilizing_subrep`` holds the first violating
    subrepresentation in enumeration order: pairing > 0 against semistability,
    pairing >= 0 on a proper nonzero subrepresentation against stability.
    """

    semistable: bool
    stable: bool
    destabilizing_subrep: tuple[tuple[Subspace, ...], DimensionVector] | None = None


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of a point-by-point check of the framed stability description."""

    instances_checked: int
    failures: tuple[tuple[FiniteFieldRepresentation, str, str], ...]
    prime: int
    scale: int
    sampled: bool = False
    sample_size: int | None = None
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures


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
# subspace_count(n, p) * p^n bits; beyond this many, enumeration falls back to
# testing whole product tuples.  On a King test of dims (1, n, n, 1) the masks
# win 4-9x at (257, 2) (1.7e7 bits), break even at (509, 2) (1.3e8 bits) and
# lose 2-4x at (1009, 2) (1.0e9 bits), where each test moves a 127 KB integer.
_MASK_TABLE_BITS = 1 << 27


def _code(v: Sequence[int], p: int) -> int:
    code = 0
    for x in v:
        code = code * p + x
    return code


@lru_cache(maxsize=None)
def _span_masks(p: int, n: int) -> tuple[int, ...] | None:
    """Containment masks of ``subspaces_of(p, n)``, index for index, or None
    when the table would exceed ``_MASK_TABLE_BITS``.

    Built one echelon row at a time: the span of rows[:k + 1] is the span of
    rows[:k] translated by every multiple of row k, and echelon forms sharing
    leading rows share that prefix mask.  Adding a * e_j moves whole digit
    classes of coordinate j, so a translation is two shifts per coordinate,
    and doubling the multiplier reaches every multiple in log2(p) of them.
    """
    size = p**n
    if subspace_count(n, p) * size > _MASK_TABLE_BITS:
        return None
    weights = [p ** (n - 1 - j) for j in range(n)]
    # below[j][b]: the codes whose digit j is less than b.
    below = [
        [((1 << (b * w)) - 1) * sum(1 << start for start in range(0, size, p * w)) for b in range(p)]
        for w in weights
    ]

    def translate(mask: int, v: Sequence[int]) -> int:
        for j, a in enumerate(v):
            if a:
                stay = below[j][p - a]
                mask = (mask & stay) << (a * weights[j]) | (mask & ~stay) >> ((p - a) * weights[j])
        return mask

    prefix = {(): 1}
    out = []
    for space in subspaces_of(p, n):
        rows = space.rows
        k = len(rows)
        while rows[:k] not in prefix:
            k -= 1
        mask = prefix[rows[:k]]
        for row in rows[k:]:
            multiple = 1
            while multiple < p:
                mask |= translate(mask, [x * multiple % p for x in row])
                multiple *= 2
            k += 1
            prefix[rows[:k]] = mask
        out.append(mask)
    return tuple(out)


def _image_masks(mat: IntMatrix, spaces: Sequence[Subspace], p: int):
    """image(c): the mask of the images under ``mat`` of the echelon rows of
    ``spaces[c]``; each mask and each row's image is computed on first use."""
    masks: list[int | None] = [None] * len(spaces)
    bits: dict[tuple[int, ...], int] = {}

    def image(c: int) -> int:
        mask = masks[c]
        if mask is None:
            mask = 0
            for row in spaces[c].rows:
                bit = bits.get(row)
                if bit is None:
                    bit = bits[row] = 1 << _code(linalg.mod_mat_vec(mat, row, p), p)
                mask |= bit
            masks[c] = mask
        return mask

    return image


class _SubrepSearch:
    """The subrepresentation search of one (quiver, prime, dimensions), set
    up once and run on any number of points.

    The set-up lists every vertex's subspaces with their dimensions as plain
    ints, refuses when their product exceeds ``budget``, and fixes which
    vertices an arrow touches, their containment masks and whether the
    search falls back to filtering the whole product.  ``closed`` runs the
    search on one point, given as its tuple of arrow matrices.
    """

    def __init__(self, quiver: Quiver, prime: int, dims: Sequence[int], budget: int):
        self.quiver = quiver
        self.prime = prime
        self.total = sum(dims)
        self.spaces = [subspaces_of(prime, n) for n in dims]
        count = math.prod(map(len, self.spaces))
        if count > budget:
            raise BudgetExceededError("subspace tuples", count, budget)
        self.sub_dims = [tuple(len(space.rows) for space in spaces) for spaces in self.spaces]
        self.all_indices = [range(len(spaces)) for spaces in self.spaces]
        arrows = quiver.arrow_indices
        touched = {v for arrow in arrows for v in arrow}
        masks = [_span_masks(prime, n) if v in touched else None for v, n in enumerate(dims)]
        self.masks = None if not dims or any(masks[v] is None for v in touched) else masks
        self.into: list[list[tuple[int, int]]] = [[] for _ in dims]  # (arrow, earlier source)
        self.out_of: list[list[tuple[int, int]]] = [[] for _ in dims]  # (arrow, earlier or same target)
        for k, (s, t) in enumerate(arrows):
            if s < t:
                self.into[t].append((k, s))
            else:
                self.out_of[s].append((k, t))

    def weigh(self, weights: Sequence[int]) -> list[tuple[int, ...]]:
        """Per vertex, its weight times the dimension of each of its
        subspaces: theta of a closed tuple is then one sum of lookups."""
        return [tuple(w * n for n in dims) for w, dims in zip(weights, self.sub_dims)]

    def subspaces(self, chosen: Sequence[int]) -> tuple[Subspace, ...]:
        return tuple(map(operator.getitem, self.spaces, chosen))

    def dimension(self, chosen: Sequence[int]) -> DimensionVector:
        return DimensionVector(zip(self.quiver.vertices, map(operator.getitem, self.sub_dims, chosen)))

    def closed(self, mats: Sequence[IntMatrix]) -> Iterator[tuple[int, ...]]:
        """Every arrow-closed tuple of subspaces of the point with arrow
        matrices ``mats``, as indices into the per-vertex ``subspaces_of``
        lists, in the order of their product.

        Backtracks over the vertices in vertex order with an explicit stack.
        An arrow is checked at the later of its endpoints: an arrow from an
        earlier vertex asks the candidate to contain the images of the chosen
        subspace (one mask per choice), an arrow to an earlier vertex or a
        loop asks the images of the candidate to lie in the chosen subspace or
        in itself.  A vertex that no arrow touches keeps every candidate.
        When a touched vertex space is too large for containment masks, every
        tuple of the product is tested instead.
        """
        p, spaces, masks = self.prime, self.spaces, self.masks
        if masks is None:
            arrows = self.quiver.arrow_indices
            for chosen in itertools.product(*self.all_indices):
                if _closed_under_arrows(arrows, mats, self.subspaces(chosen), p):
                    yield chosen
            return
        into = [[(s, _image_masks(mats[k], spaces[s], p)) for k, s in arrows] for arrows in self.into]
        out_of = [[(t, _image_masks(mats[k], spaces[v], p)) for k, t in arrows] for v, arrows in enumerate(self.out_of)]
        chosen = [0] * len(spaces)
        all_indices = self.all_indices

        def candidates(v: int) -> Iterator[int]:
            own = masks[v]
            if own is None:
                return iter(all_indices[v])
            required = 0
            for s, image in into[v]:
                required |= image(chosen[s])
            found = all_indices[v]
            if required > 1:  # bit 0 is the zero vector, in every subspace
                found = [c for c, mask in enumerate(own) if mask & required == required]
            for t, image in out_of[v]:
                if t == v:
                    found = [c for c in found if own[c] & image(c) == image(c)]
                else:
                    target = masks[t][chosen[t]]
                    found = [c for c in found if target & image(c) == image(c)]
            return iter(found)

        last = len(spaces) - 1
        stack = [candidates(0)]
        while stack:
            v = len(stack) - 1
            if v == last:
                prefix = tuple(chosen[:last])
                for c in stack.pop():
                    yield (*prefix, c)
                continue
            c = next(stack[v], None)
            if c is None:
                stack.pop()
            else:
                chosen[v] = c
                stack.append(candidates(v + 1))


def _closed_under_arrows(arrows, mats: Sequence[IntMatrix], spaces: Sequence[Subspace], p: int) -> bool:
    for (s, t), mat in zip(arrows, mats):
        target = spaces[t]
        for u in spaces[s].rows:
            if not target.contains(linalg.mod_mat_vec(mat, u, p), p):
                return False
    return True


def _king_weights(theta: StabilityParameter, d: DimensionVector, vertices: Sequence[str]) -> tuple[int, ...]:
    """theta aligned to ``vertices``, once theta(d) = 0 is checked."""
    _require_zero_pairing(theta, d)
    return theta.aligned(vertices)


def king_stability(
    m: FiniteFieldRepresentation, theta: StabilityParameter, budget: int = DEFAULT_BUDGET
) -> StabilityVerdict:
    """Decide semistability and stability by exhaustive subrepresentation search.

    Semistable iff theta on every subrepresentation's dimension vector is
    <= 0; stable iff additionally < 0 on every proper nonzero one.  The first
    violating subrepresentation in enumeration order is reported.
    """
    vertices = m.quiver.vertices
    weights = _king_weights(theta, m.dims, vertices)
    search = _SubrepSearch(m.quiver, m.prime, m.dims.aligned(vertices), budget)
    weighed, sub_dims, total = search.weigh(weights), search.sub_dims, search.total
    first_zero_proper = None
    for chosen in search.closed(m.arrow_matrices):
        value = sum(map(operator.getitem, weighed, chosen))
        if value > 0:
            return StabilityVerdict(False, False, (search.subspaces(chosen), search.dimension(chosen)))
        # Proper and nonzero iff 0 < total < total of dim M, as sub <= dim M.
        if value == 0 and first_zero_proper is None and 0 < sum(map(operator.getitem, sub_dims, chosen)) < total:
            first_zero_proper = (search.subspaces(chosen), search.dimension(chosen))
    return StabilityVerdict(True, first_zero_proper is None, first_zero_proper)


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


def _random_matrices(rng: random.Random, shapes: Sequence[tuple[int, int]], prime: int) -> tuple[IntMatrix, ...]:
    """Uniform matrices of the given shapes over F_p, drawn in order, entries
    row by row."""
    return _as_matrices(_uniform_entries(rng, sum(r * c for r, c in shapes), prime), shapes)


def random_representation(
    rng: random.Random, q: Quiver, d: DimensionVector, prime: int
) -> FiniteFieldRepresentation:
    return FiniteFieldRepresentation(q, prime, d, _random_matrices(rng, _shapes(q, d), prime))


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
    the fixed seed and the sample size is reported.  Runs at any scale: below
    ``MINIMAL_FRAMING_SCALE`` the report is labeled accordingly, since the
    description is only claimed from the minimal scale on.
    """
    if not _is_prime(prime):
        raise ValueError(f"{prime} is not prime")
    framing.base_assumptions.require("coprime")
    scale = framing.framing_scale
    notes = ["below minimal framing scale"] if scale < MINIMAL_FRAMING_SCALE else []

    fq, fd = framing.framed_quiver, framing.framed_dimension
    shapes = _shapes(fq, fd)
    total_points = prime ** sum(r * c for r, c in shapes)

    # Per-point subrepresentation enumeration must fit the budget regardless
    # of sampling, otherwise no verdicts can be computed at all.
    tuples = math.prod(subspace_count(n, prime) for n in fd.aligned(fq.vertices))
    if tuples > budget:
        raise BudgetExceededError("subspace tuples per point", tuples, budget)

    # One search set-up and one pairing check per datum; the points are plain
    # tuples of matrices, in range and shape by construction.
    _king_weights(framing.framed_stability, fd, fq.vertices)
    king = _FramedKing(framing, prime, budget)

    sampled = total_points > budget
    points: Iterator[tuple[IntMatrix, ...]] = _all_matrices(shapes, prime)
    if sampled:
        rng = random.Random(seed)
        points = (_random_matrices(rng, shapes, prime) for _ in range(budget))
        notes.append(f"sampled {budget} of {total_points} points with seed {seed}")

    failures = []
    checked = 0
    for mats in points:
        checked += 1
        condition, semistable, stable = king.verdicts(mats)
        if not (stable == semistable == condition):
            failures.append(
                (
                    FiniteFieldRepresentation(fq, prime, fd, mats),
                    f"all three conditions equal to {condition}",
                    f"stable={stable} semistable={semistable} base-condition={condition}",
                )
            )
    return EquivalenceReport(
        instances_checked=checked,
        failures=tuple(failures),
        prime=prime,
        scale=scale,
        sampled=sampled,
        sample_size=budget if sampled else None,
        notes=tuple(notes),
    )


class _FramedKing:
    """King's test on the points of a double framing (1, d, 1), weights
    (1, N theta, -1), from one enumeration of each base point.  With v and w
    the last two arrows (source -> i, j -> sink), a closed tuple of a framed
    point is (a, E, b): E closed in the base point, a in {0, 1 if v in E_i},
    b in {1, 0 if E_j in ker w}.  It weighs a + N theta(E) - b and is proper
    and nonzero iff 0 < a + |E| + b < |d| + 2.  Only the current base point's
    record is kept, with one "E_j in ker w" table per w."""

    def __init__(self, framing: FramingResult, prime: int, budget: int):
        q, d = framing.base_quiver, framing.base_dimension
        self.prime, self.scale = prime, framing.framing_scale
        self.search = _SubrepSearch(q, prime, d.aligned(q.vertices), budget)
        self.weighed = self.search.weigh(_king_weights(framing.base_stability, d, q.vertices))
        self.i, self.j = map(q.vertex_index, framing.framed_at)
        self.base_mats, self.kernels = None, {}

    def _base(self, mats: Sequence[IntMatrix]) -> tuple[bool, list[tuple[int, int, int, int]] | None]:
        """(base stable, record): (N theta(E), |E|, E_i's index, E_j's index)
        per closed E with a framed tuple that can weigh >= 0, or None when one
        weighs > 0 whatever v and w are."""
        search, total = self.search, self.search.total
        stable, record = True, []
        for chosen in search.closed(mats):
            value = self.scale * sum(map(operator.getitem, self.weighed, chosen))
            if value < -1:
                continue
            if value > 1:
                return False, None
            dim = sum(map(operator.getitem, search.sub_dims, chosen))
            if value > 0 or value == 0 and 0 < dim < total:
                stable = False
            record.append((value, dim, chosen[self.i], chosen[self.j]))
        return stable, record

    def verdicts(self, mats: Sequence[IntMatrix]) -> tuple[bool, bool, bool]:
        """(base stable with both framing maps nonzero, framed semistable,
        framed stable) of one point.  Exhaustive points vary the framing
        arrows fastest, so each base point is enumerated once."""
        p, total = self.prime, self.search.total
        base_mats, (framing_in, framing_out) = mats[:-2], mats[-2:]
        if base_mats != self.base_mats:
            self.base_mats = base_mats
            self.base_stable, self.record = self._base(base_mats)
            self.kernels.clear()
        condition = self.base_stable and any(map(any, framing_in)) and any(map(any, framing_out))
        if self.record is None:
            return condition, False, False
        v, w = [row[0] for row in framing_in], framing_out[0]
        kernel = self.kernels.setdefault(w, {})
        at_i, at_j = self.search.spaces[self.i], self.search.spaces[self.j]
        stable = True
        for value, dim, ci, cj in self.record:
            v_in = at_i[ci].contains(v, p)
            if cj not in kernel:
                kernel[cj] = not any(sum(map(operator.mul, w, row)) % p for row in at_j[cj].rows)
            for a in range(v_in + 1):
                for b in range(1 - kernel[cj], 2):
                    if a + value - b > 0:
                        return condition, False, False
                    if a + value == b and 0 < a + dim + b < total + 2:
                        stable = False
        return condition, True, stable


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
