"""Brute-force stability verification over small prime fields.

A representation point is a tuple of matrices over F_p.  Semistability and
stability are decided by enumerating every subrepresentation: per vertex, all
subspaces in row-echelon canonical form (dimension first, then pivot columns,
then free entries, all lexicographic), filtered by arrow closure.  Witnesses
are therefore deterministic and reproducible.

These finite-field verdicts are evidence at desk scale, not proofs over the
geometric ground field; reports are always worded "verified over F_p".  For
stability (as opposed to semistability) the verdict is only meaningful when
semistable = stable is forced, which is asserted via theta-coprimality before
any stable-only conclusion is drawn.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from . import linalg
from .core import DimensionVector, Path, Quiver, StabilityParameter, _check_representation_shapes, enumerate_paths
from .errors import BudgetExceededError, NotThinAtEndpointsError, PairingNonzeroError
from .framing import FramingResult, double_frame
from .stability import _not_coprime_error, is_theta_coprime

__all__ = [
    "FiniteFieldRepresentation",
    "StabilityVerdict",
    "EquivalenceReport",
    "WeightLawReport",
    "DEFAULT_BUDGET",
    "gaussian_binomial",
    "subspace_count",
    "subspaces_of",
    "enumerate_subrepresentations",
    "king_stability",
    "has_cyclic_destabilizer",
    "enumerate_representations",
    "random_representation",
    "verify_double_framing_equivalence",
    "path_semiinvariant",
    "random_group_element",
    "group_act",
    "verify_semiinvariant_weight",
    "weight_law_trials",
]

DEFAULT_BUDGET = 10**6

IntMatrix = tuple[tuple[int, ...], ...]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    k = 2
    while k * k <= p:
        if p % k == 0:
            return False
        k += 1
    return True


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

    ambient: int
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


@dataclass(frozen=True)
class WeightLawReport:
    trials: int
    failures: int
    paths_available: int

    @property
    def passed(self) -> bool:
        return self.failures == 0


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
                out.append(Subspace(n, tuple(tuple(r) for r in rows), pivots))
                count_k += 1
        assert count_k == gaussian_binomial(n, k, p)
    return tuple(out)


def _closed_under_arrows(m: FiniteFieldRepresentation, spaces: Sequence[Subspace]) -> bool:
    p = m.prime
    for (s, t), mat in zip(m.quiver.arrow_indices, m.arrow_matrices):
        target = spaces[t]
        for u in spaces[s].rows:
            if not target.contains(linalg.mod_mat_vec(mat, u, p), p):
                return False
    return True


def enumerate_subrepresentations(
    m: FiniteFieldRepresentation, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[tuple[Subspace, ...], DimensionVector]]:
    """Every arrow-closed tuple of subspaces, including 0 and the whole space.

    Candidates run over the product of per-vertex subspace lists in vertex
    order.  The product of subspace counts must not exceed ``budget``.
    """
    vertices = m.quiver.vertices
    per_vertex = [subspaces_of(m.prime, n) for n in m.dims.aligned(vertices)]
    count = math.prod(map(len, per_vertex))
    if count > budget:
        raise BudgetExceededError("subspace tuples", count, budget)
    for tup in itertools.product(*per_vertex):
        if _closed_under_arrows(m, tup):
            yield tup, DimensionVector(zip(vertices, (space.dim for space in tup)))


def king_stability(
    m: FiniteFieldRepresentation, theta: StabilityParameter, budget: int = DEFAULT_BUDGET
) -> StabilityVerdict:
    """Decide semistability and stability by exhaustive subrepresentation search.

    Semistable iff theta on every subrepresentation's dimension vector is
    <= 0; stable iff additionally < 0 on every proper nonzero one.  The first
    violating subrepresentation in enumeration order is reported.
    """
    if theta(m.dims) != 0:
        raise PairingNonzeroError(f"theta(dim M) = {theta(m.dims)}, expected 0")
    weights = theta.aligned(m.quiver.vertices)
    total = m.dims.total()
    first_zero_proper = None
    for tup, dims in enumerate_subrepresentations(m, budget):
        sub = [space.dim for space in tup]
        value = sum(map(operator.mul, weights, sub))
        if value > 0:
            return StabilityVerdict(False, False, (tup, dims))
        # Proper and nonzero iff 0 < total < total of dim M, as sub <= dim M.
        if value == 0 and first_zero_proper is None and 0 < sum(sub) < total:
            first_zero_proper = (tup, dims)
    if first_zero_proper is not None:
        return StabilityVerdict(True, False, first_zero_proper)
    return StabilityVerdict(True, True, None)


def has_cyclic_destabilizer(
    m: FiniteFieldRepresentation, theta: StabilityParameter
) -> tuple[bool, DimensionVector | None]:
    """Search for a destabilizing subrepresentation generated by one element.

    Runs over every element of the direct sum of the vertex spaces, closes it
    under all arrows, and tests the pairing.  For thin representations every
    subrepresentation arises this way, so this agrees with the exhaustive
    search; for higher dimension vectors it is only a screening (there are
    unstable representations none of whose cyclic subrepresentations
    destabilize).
    """
    if theta(m.dims) != 0:
        raise PairingNonzeroError(f"theta(dim M) = {theta(m.dims)}, expected 0")
    p = m.prime
    vertices = m.quiver.vertices
    weights = theta.aligned(vertices)
    dims = m.dims.aligned(vertices)
    out_arrows: list[list[tuple[int, IntMatrix]]] = [[] for _ in vertices]  # (target, matrix)
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


def enumerate_representations(
    q: Quiver, d: DimensionVector, prime: int
) -> Iterator[FiniteFieldRepresentation]:
    """All representation points of (q, d) over F_p, entry-lexicographic."""
    shapes = [(d[t], d[s]) for s, t in q.arrows]
    entry_count = sum(r * c for r, c in shapes)
    for values in itertools.product(range(prime), repeat=entry_count):
        mats = []
        pos = 0
        for rows, cols in shapes:
            mats.append(
                tuple(
                    tuple(values[pos + r * cols + c] for c in range(cols))
                    for r in range(rows)
                )
            )
            pos += rows * cols
        yield FiniteFieldRepresentation(q, prime, d, tuple(mats))


def random_representation(
    rng: random.Random, q: Quiver, d: DimensionVector, prime: int
) -> FiniteFieldRepresentation:
    mats = []
    for s, t in q.arrows:
        mats.append(
            tuple(
                tuple(rng.randrange(prime) for _ in range(d[s])) for _ in range(d[t])
            )
        )
    return FiniteFieldRepresentation(q, prime, d, tuple(mats))


def _framed_point_conditions(
    framing: FramingResult,
    rep: FiniteFieldRepresentation,
    base_theta: StabilityParameter,
    budget: int,
) -> tuple[bool, bool, bool]:
    """(framed stable, framed semistable, base stable with nonzero framing maps)."""
    base_q = framing.base_quiver
    n_base = len(base_q.arrows)
    base_rep = FiniteFieldRepresentation(
        base_q,
        rep.prime,
        framing.base_dimension,
        rep.arrow_matrices[:n_base],
    )
    framing_in = rep.arrow_matrices[n_base]       # source -> i, shape d_i x 1
    framing_out = rep.arrow_matrices[n_base + 1]  # j -> sink, shape 1 x d_j
    v_nonzero = any(x for row in framing_in for x in row)
    phi_nonzero = any(x for row in framing_out for x in row)
    framed_verdict = king_stability(rep, framing.framed_stability, budget)
    base_verdict = king_stability(base_rep, base_theta, budget)
    condition = base_verdict.stable and v_nonzero and phi_nonzero
    return framed_verdict.stable, framed_verdict.semistable, condition


def verify_double_framing_equivalence(
    q: Quiver,
    d: DimensionVector,
    theta: StabilityParameter,
    i: str,
    j: str,
    scale: int,
    prime: int,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> EquivalenceReport:
    """Check, point by point over F_p, that for a framed representation the
    three conditions agree: framed stable; framed semistable; base
    representation stable with both framing maps nonzero.

    The base datum must be theta-coprime so that base semistable = stable is
    forced and the stable verdict is sound over the finite field.  All points
    are enumerated when their number fits the budget; otherwise points are
    sampled uniformly with the fixed seed and the sample size is reported.
    Runs at any scale: below the minimal framing scale the report is labeled
    accordingly, since the description is only claimed from the minimal scale
    on.
    """
    if not _is_prime(prime):
        raise ValueError(f"{prime} is not prime")
    coprime, witness = is_theta_coprime(q, d, theta)
    if not coprime:
        raise _not_coprime_error(witness)
    framing = double_frame(q, d, theta, i, j, scale)
    notes = []
    if scale < 2:
        notes.append("below minimal framing scale")

    fq = framing.framed_quiver
    fd = framing.framed_dimension
    entry_count = sum(fd[s] * fd[t] for s, t in fq.arrows)
    total_points = prime**entry_count

    # Per-point subrepresentation enumeration must fit the budget regardless
    # of sampling, otherwise no verdicts can be computed at all.
    tuples = 1
    for v in fq.vertices:
        tuples *= subspace_count(fd[v], prime)
    if tuples > budget:
        raise BudgetExceededError("subspace tuples per point", tuples, budget)

    if total_points <= budget:
        points: Iterator[FiniteFieldRepresentation] = enumerate_representations(fq, fd, prime)
        sampled = False
        sample_size = None
    else:
        rng = random.Random(seed)
        sampled = True
        sample_size = budget

        def _sample() -> Iterator[FiniteFieldRepresentation]:
            for _ in range(budget):
                yield random_representation(rng, fq, fd, prime)

        points = _sample()
        notes.append(f"sampled {sample_size} of {total_points} points with seed {seed}")

    failures = []
    checked = 0
    for rep in points:
        checked += 1
        stable, semistable, condition = _framed_point_conditions(framing, rep, theta, budget)
        if not (stable == semistable == condition):
            failures.append(
                (
                    rep,
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
        sample_size=sample_size,
        notes=tuple(notes),
    )


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


def random_group_element(
    rng: random.Random, m: FiniteFieldRepresentation
) -> dict[str, IntMatrix]:
    """A uniformly random element of prod_i GL_{d_i}(F_p), by rejection."""
    out = {}
    for v in m.quiver.vertices:
        n = m.dims[v]
        while True:
            candidate = tuple(
                tuple(rng.randrange(m.prime) for _ in range(n)) for _ in range(n)
            )
            if linalg.rank(candidate, m.prime) == n:
                out[v] = candidate
                break
    return out


def group_act(g: dict[str, IntMatrix], m: FiniteFieldRepresentation) -> FiniteFieldRepresentation:
    """Base change: the arrow matrix for a becomes g_t(a) . M_a . g_s(a)^{-1}."""
    p = m.prime
    inverses = {v: linalg.mod_invert(g[v], p) for v in m.quiver.vertices}
    mats = []
    for a, (s, t) in enumerate(m.quiver.arrows):
        mats.append(
            tuple(
                tuple(row)
                for row in linalg.mat_mul(
                    linalg.mat_mul(g[t], m.arrow_matrices[a], p), inverses[s], p
                )
            )
        )
    return FiniteFieldRepresentation(m.quiver, p, m.dims, tuple(mats))


def weight_law_trials(
    framing: FramingResult, prime: int, trials: int = 100, seed: int = 0
) -> WeightLawReport:
    """Randomized check of the path-evaluation weight law on a framed datum.

    The framed dimension vector is thin at the framing source and sink, so
    every source-to-sink path qualifies.  Each trial draws a random framed
    representation, a random group element, and a random path, and checks the
    transformation law exactly over F_p.  With no source-to-sink paths the
    report records zero trials.
    """
    fq = framing.framed_quiver
    paths = enumerate_paths(fq, framing.source_vertex, framing.sink_vertex)
    if not paths:
        return WeightLawReport(trials=0, failures=0, paths_available=0)
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        rep = random_representation(rng, fq, framing.framed_dimension, prime)
        g = random_group_element(rng, rep)
        path = paths[rng.randrange(len(paths))]
        if not verify_semiinvariant_weight(rep, path, g):
            failures += 1
    return WeightLawReport(trials=trials, failures=failures, paths_available=len(paths))


def verify_semiinvariant_weight(
    m: FiniteFieldRepresentation, path: Path, g: dict[str, IntMatrix]
) -> bool:
    """Check the transformation law of a path evaluation under base change:
    the value on g . M equals g at the target times the inverse of g at the
    source times the value on M (all scalars, endpoints being thin)."""
    p = m.prime
    src = path.source
    dst = path.target(m.quiver)
    before = path_semiinvariant(m, path)
    after = path_semiinvariant(group_act(g, m), path)
    g_src = g[src][0][0] % p
    g_dst = g[dst][0][0] % p
    expected = (g_dst * pow(g_src, p - 2, p) * before) % p
    return after == expected
