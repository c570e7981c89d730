"""Core combinatorial types for quivers and vertex-indexed integer vectors.

Conventions (used consistently across the package and documented in the
README):

* Euler form: ``<e, f> = sum_i e_i f_i - sum_a e_{source(a)} f_{target(a)}``,
  the bilinear form of the path algebra of an acyclic quiver.
* Slope: ``mu(e) = theta(e) / sum_i e_i`` for a nonzero dimension vector,
  computed in exact rational arithmetic.
* Canonical stability: ``theta_can(e) = <d, e> - <e, d>``; it always pairs to
  zero with ``d``.

All types are immutable values; all operations are pure functions and safe to
share across threads. All arithmetic is exact (Python integers / fractions):
stability decisions are sign decisions and must never suffer rounding.

The package's value types are frozen classes, not dataclasses, so that
importing it generates no code: a record that may be a tuple is a
``typing.NamedTuple`` (``AcyclicityCertificate`` here), and one that must
not be, a dict key such as ``Quiver`` or ``Path`` or a holder of cached
properties, derives from ``_Frozen``.  Either way a value is equal to and
hashed as the tuple of its fields, shown as ``Name(field=value, ...)`` and
refuses assignment; ``dataclasses.replace`` does not apply to them
(``_replace`` does to the tuples).
"""

from __future__ import annotations

import math
import operator
from collections import deque
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .errors import CyclicQuiverError, UnknownVertexError, VertexSetMismatchError

if TYPE_CHECKING:
    from fractions import Fraction

Arrow = tuple[str, str]


class _Frozen:
    """Base of the value classes that are not tuples.  A subclass names its
    fields in ``_fields``; equality (within the class), hashing and ``repr``
    read them in that order, as a frozen dataclass's do, and assigning or
    deleting an attribute raises AttributeError.  ``__init__`` takes the
    fields by position or by name into the instance's ``__dict__``, which
    also holds cached properties; ``Path``, built by the thousand, has
    slots and its own."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        cls._key = operator.attrgetter(*cls._fields)  # not a descriptor: call as self._key(self)

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args), **kwargs)
        if len(args) + len(kwargs) != len(self._fields) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(self._fields)}")
        vars(self).update(values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):  # copy and pickle rebuild through __init__: restoring a slot would assign
        return type(self), self._key(self)


class Quiver(_Frozen):
    """A finite directed multigraph with ordered vertices.

    ``vertices`` fixes a total order used for every matrix indexing and for
    lexicographic enumerations, so all reports are deterministic.  Parallel
    arrows are distinct first-class objects, identified by their index in
    ``arrows``.
    """

    _fields = ("vertices", "arrows")
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __init__(self, vertices: Iterable[str], arrows: Iterable[tuple[str, str]]):
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "arrows", tuple((s, t) for s, t in arrows))
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex identifiers")
        declared = set(self.vertices)
        for k, (s, t) in enumerate(self.arrows):
            if s not in declared or t not in declared:
                raise UnknownVertexError(f"arrow #{k} ({s} -> {t}) uses an undeclared vertex")

    @classmethod
    def _checked(cls, vertices: tuple[str, ...], arrows: tuple[Arrow, ...]) -> Quiver:
        """The quiver of vertex names and arrows that the caller has checked
        as ``__init__`` would, built without checking them again.  Callers:
        ``specfile.parse_spec`` (it refuses repeats and undeclared ends),
        ``framing.double_frame`` (fresh names, new arrows at resolved i, j)
        and ``framing.reduce`` (framed vertices and the arrows among them)."""
        q = object.__new__(cls)
        q.__dict__.update(vertices=vertices, arrows=arrows)
        return q

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: k for k, v in enumerate(self.vertices)}

    @cached_property
    def arrow_indices(self) -> tuple[tuple[int, int], ...]:
        """Arrows as (source index, target index) pairs in vertex order."""
        idx = self._index
        return tuple((idx[s], idx[t]) for s, t in self.arrows)

    def vertex_index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    @cached_property
    def _acyclicity(self) -> AcyclicityCertificate:
        """``is_acyclic``'s certificate.

        Kahn's algorithm produces the order; on failure a directed cycle
        inside the leftover subgraph is extracted by walking arrows (smallest
        arrow index first) until a vertex repeats.
        """
        n = len(self.vertices)
        indeg = [0] * n
        out: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (target, arrow index)
        for k, (s, t) in enumerate(self.arrow_indices):
            indeg[t] += 1
            out[s].append((t, k))
        queue = deque(v for v in range(n) if indeg[v] == 0)
        order: list[int] = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for t, _ in out[v]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    queue.append(t)
        if len(order) == n:
            return AcyclicityCertificate(True, topological_order=tuple(self.vertices[v] for v in order))

        # Every leftover vertex keeps an incoming arrow from another leftover
        # vertex (its residual in-degree is positive), so walking those arrows
        # backwards must revisit a vertex; the revisited stretch is a cycle.
        remaining = {v for v in range(n) if indeg[v] > 0}
        incoming: dict[int, tuple[int, int]] = {}
        for k, (s, t) in enumerate(self.arrow_indices):
            if s in remaining and t in remaining and t not in incoming:
                incoming[t] = (s, k)
        seen: dict[int, int] = {}
        walk: list[int] = []  # arrow indices, traversed target-to-source
        at = min(remaining)
        while at not in seen:
            seen[at] = len(walk)
            s, k = incoming[at]
            walk.append(k)
            at = s
        cycle = tuple(reversed(walk[seen[at]:]))
        return AcyclicityCertificate(False, cycle=cycle)

    @cached_property
    def _path_counts(self) -> PathCountMatrix:
        """``path_count_matrix``'s table.  A cyclic quiver raises, so nothing
        is cached and every call raises again.

        Processing targets in topological order gives column j of p as e_j
        plus the columns of the sources of j's incoming arrows.
        """
        n = len(self.vertices)
        sources = _arrow_sources(self)
        columns: list[list[int]] = [[] for _ in range(n)]
        for j in _acyclic_order(self):
            column = [0] * n
            column[j] = 1
            for s in sources[j]:
                column = [x + y for x, y in zip(column, columns[s])]
            columns[j] = column
        return PathCountMatrix(self.vertices, tuple(zip(*columns)))


class VertexVector:
    """An integer-valued function on a vertex set, stored canonically.

    Base class of :class:`DimensionVector` and :class:`StabilityParameter`;
    equality requires matching values and matching concrete type.  The
    values are one dict in vertex-name order, built in one step; a name
    given twice, also as ``1`` and ``"1"``, is refused.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, int] | Iterable[tuple[str, int]]):
        items = values.items() if hasattr(values, "keys") else values  # dict()'s own rule
        pairs = sorted([(str(v), int(c)) for v, c in items], key=operator.itemgetter(0))
        object.__setattr__(self, "_values", dict(pairs))
        if len(self._values) != len(pairs):
            name = next(v for (v, _), (w, _) in zip(pairs, pairs[1:]) if v == w)
            raise ValueError(f"vertex {name!r} is given more than once")
        self._validate()

    def _validate(self) -> None:  # overridden by subclasses
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def entries(self) -> tuple[tuple[str, int], ...]:
        return tuple(self._values.items())

    def as_dict(self) -> dict[str, int]:
        return dict(self._values)

    def __getitem__(self, vertex: str) -> int:
        try:
            return self._values[vertex]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {vertex!r}") from None

    def aligned(self, vertices: tuple[str, ...]) -> tuple[int, ...]:
        """Values as a tuple in the given vertex order (must match the set)."""
        values = self._values
        if values.keys() != set(vertices):
            raise VertexSetMismatchError(
                f"vector defined on {list(values)} but expected vertex set {sorted(vertices)}"
            )
        return tuple(map(values.__getitem__, vertices))

    def total(self) -> int:
        return sum(self._values.values())

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._values == other._values

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.entries))

    def __repr__(self) -> str:
        body = ", ".join(f"{v}: {c}" for v, c in self._values.items())
        return f"{type(self).__name__}({{{body}}})"


class DimensionVector(VertexVector):
    """A nonnegative integer for every vertex."""

    __slots__ = ()

    def _validate(self) -> None:
        for v, c in self._values.items():
            if c < 0:
                raise ValueError(f"dimension vector entry at {v!r} is negative")

    def is_indivisible(self) -> bool:
        """True when the gcd of the entries is 1."""
        return math.gcd(*self._values.values()) == 1


class StabilityParameter(VertexVector):
    """An integer weight for every vertex; paired with a designated dimension
    vector ``d`` it must satisfy ``theta(d) = 0`` before any stability query.
    """

    __slots__ = ()

    def __call__(self, d: VertexVector) -> int:
        """Pair with a vector on the same vertex set: sum of products."""
        if self._values.keys() != d._values.keys():
            raise VertexSetMismatchError("pairing of vectors on different vertex sets")
        return sum(map(operator.mul, self._values.values(), d._values.values()))


class AcyclicityCertificate(NamedTuple):
    """Outcome of the acyclicity test, with evidence either way.

    Exactly one of ``topological_order`` (vertices, sources first) and
    ``cycle`` (arrow indices whose composition is a directed cycle) is set.
    """

    acyclic: bool
    topological_order: tuple[str, ...] | None = None
    cycle: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.acyclic


class PathCountMatrix(_Frozen):
    """The matrix p with p(i, j) = number of directed paths from i to j.

    For an acyclic quiver this is the dimension of the space of paths from i
    to j inside the path algebra; p(i, i) = 1 (the trivial path) and p
    satisfies p(i, j) = delta_ij + sum over arrows a with target j of
    p(i, source(a)).
    """

    _fields = ("vertices", "entries")
    vertices: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: k for k, v in enumerate(self.vertices)}

    def count(self, i: str, j: str) -> int:
        try:
            return self.entries[self._index[i]][self._index[j]]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex in pair ({i!r}, {j!r})") from None

    def total(self) -> int:
        return sum(sum(row) for row in self.entries)


class Path(_Frozen):
    """A directed path: a source vertex and a composable arrow-index sequence.

    The empty sequence is the trivial path at ``source``.  Arrows compose left
    to right: ``arrows[0]`` starts at ``source``.
    """

    __slots__ = _fields = ("source", "arrows")

    def __init__(self, source: str, arrows: tuple[int, ...] = ()):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "arrows", arrows)

    def target(self, q: Quiver) -> str:
        at = self.source
        for k in self.arrows:
            s, t = q.arrows[k]
            if s != at:
                raise ValueError(f"path not composable at arrow #{k}: at {at!r}, arrow starts {s!r}")
            at = t
        return at


def is_acyclic(q: Quiver) -> AcyclicityCertificate:
    """Decide acyclicity, returning a topological order or a cycle witness.

    Decided once per quiver: the certificate is cached on it.
    """
    return q._acyclicity


def connected_components(q: Quiver) -> tuple[frozenset[str], ...]:
    """Connected components of the underlying undirected graph."""
    n = len(q.vertices)
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for s, t in q.arrow_indices:
        neighbors[s].add(t)
        neighbors[t].add(s)
    unvisited = set(range(n))
    components = []
    while unvisited:
        root = min(unvisited)
        stack = [root]
        comp = set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(neighbors[v] - comp)
        unvisited -= comp
        components.append(frozenset(q.vertices[v] for v in comp))
    return tuple(components)


def is_connected(q: Quiver) -> bool:
    return len(connected_components(q)) <= 1


def euler_form(q: Quiver, e: VertexVector, f: VertexVector) -> int:
    """The Euler form <e, f> = sum_i e_i f_i - sum_a e_{s(a)} f_{t(a)}.

    Bilinear in each slot.  This is the adopted standard convention for the
    homological Euler form of an acyclic quiver; together with the slope
    ``mu(e) = theta(e)/|e|`` it is the convention under which strong ample
    stability implies ample stability.
    """
    ev = e.aligned(q.vertices)
    fv = f.aligned(q.vertices)
    value = sum(a * b for a, b in zip(ev, fv))
    for s, t in q.arrow_indices:
        value -= ev[s] * fv[t]
    return value


def slope(theta: StabilityParameter, e: VertexVector) -> Fraction:
    """mu(e) = theta(e) / sum_i e_i, exact; undefined (raises) for total 0."""
    from fractions import Fraction  # no command calls it: start-up skips fractions

    total = e.total()
    if total == 0:
        raise ZeroDivisionError("slope undefined for a vector of total dimension 0")
    return Fraction(theta(e), total)


# Miller-Rabin with the prime bases 2..41 decides primality exactly below
# this bound (Sorenson and Webster 2017, psi_13); larger fields are refused.
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p: int) -> bool:
    """Whether the field size p is prime, exactly and in bounded time; raises
    ValueError for p >= PRIME_LIMIT, where the test is no longer exact."""
    if p >= PRIME_LIMIT:
        raise ValueError(f"field sizes must be below {PRIME_LIMIT}, got {p}")
    if p <= _PRIME_BASES[-1]:
        return p in _PRIME_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    for b in _PRIME_BASES:
        x = pow(b, d, p)
        if x != 1 and all(pow(x, 1 << r, p) != p - 1 for r in range(s)):
            return False  # b witnesses that p is composite
    return True


def _check_representation_shapes(q: Quiver, dims: DimensionVector, mats: Sequence[Sequence[Sequence]]) -> None:
    """Raise ValueError unless ``mats`` holds one d_t(a) x d_s(a) matrix per
    arrow a of q, in arrow order (``dims`` must live on q's vertex set)."""
    dv = dims.aligned(q.vertices)
    if len(mats) != len(q.arrows):
        raise ValueError(f"expected {len(q.arrows)} arrow matrices, got {len(mats)}")
    for k, (s, t) in enumerate(q.arrow_indices):
        rows, cols = dv[t], dv[s]
        m = mats[k]
        if len(m) != rows or any(len(r) != cols for r in m):
            raise ValueError(f"arrow #{k} ({q.vertices[s]}->{q.vertices[t]}) matrix is not {rows}x{cols}")


def _arrow_sources(q: Quiver) -> list[list[int]]:
    """Per vertex index, the source index of each incoming arrow, in arrow order."""
    sources: list[list[int]] = [[] for _ in q.vertices]
    for s, t in q.arrow_indices:
        sources[t].append(s)
    return sources


def _acyclic_order(q: Quiver) -> list[int]:
    """Vertex indices in topological order; CyclicQuiverError, naming the
    cycle of q's ``is_acyclic`` certificate, on a cyclic quiver, where path
    counts are infinite.  The package's one refusal of a cyclic quiver: every
    path count, path basis and HH^1 formula reaches it, and so do the gates
    of the commands, of ``framing.reduce`` and of the vector fields."""
    cert = is_acyclic(q)
    if not cert:
        raise CyclicQuiverError(cert.cycle)
    return [q._index[v] for v in cert.topological_order or ()]


def path_count_matrix(q: Quiver) -> PathCountMatrix:
    """Count directed paths between all vertex pairs by exact integer recursion.

    p(i, j) = delta_ij + sum over arrows a with target j of p(i, source(a)),
    the entrywise statement that p = (I - A)^{-1} for the arrow-count
    adjacency matrix A.  Cost: O(#vertices * #arrows) integer additions,
    paid once per quiver: the table is cached on it.
    """
    return q._path_counts


def path_count(q: Quiver, i: str, j: str) -> int:
    """The one entry p(i, j) of ``path_count_matrix``, without the table.

    The number of paths from i to a vertex is the sum, over its incoming
    arrows, of that number at the arrow's source; one pass in topological
    order from i to j gives it.  Cost: O(#vertices + #arrows).
    """
    order = _acyclic_order(q)
    if i not in q._index or j not in q._index:
        raise UnknownVertexError(f"unknown vertex in pair ({i!r}, {j!r})")
    start, goal = q._index[i], q._index[j]
    sources = _arrow_sources(q)
    from_i = [0] * len(q.vertices)
    from_i[start] = 1
    for v in order[order.index(start) + 1 : order.index(goal) + 1]:
        from_i[v] = sum(map(from_i.__getitem__, sources[v]))
    return from_i[goal]


def enumerate_paths(q: Quiver, src: str, dst: str) -> tuple[Path, ...]:
    """All directed paths src -> dst, sorted by their arrow-index sequences.

    Requires an acyclic quiver (the path set is infinite otherwise).  The
    sort order makes path-indexed bases deterministic.  The walk is
    iterative and enters only vertices from which ``dst`` is reachable, so
    its cost is proportional to the total length of the paths it returns.
    """
    _acyclic_order(q)
    start = q.vertex_index(src)
    goal = q.vertex_index(dst)
    n = len(q.vertices)
    sources = _arrow_sources(q)
    reaches = {goal}
    frontier = [goal]
    while frontier:
        for s in sources[frontier.pop()]:
            if s not in reaches:
                reaches.add(s)
                frontier.append(s)
    if start not in reaches:
        return ()
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (arrow index, target)
    for k, (s, t) in enumerate(q.arrow_indices):
        if t in reaches:
            out[s].append((k, t))
    found: list[tuple[int, ...]] = [()] if start == goal else []
    prefix: list[int] = []
    stack = [iter(out[start])]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if prefix:
                prefix.pop()
            continue
        k, t = step
        prefix.append(k)
        if t == goal:
            found.append(tuple(prefix))
        stack.append(iter(out[t]))
    return tuple(Path(src, arrows) for arrows in sorted(found))


def canonical_stability(q: Quiver, d: DimensionVector) -> StabilityParameter:
    """The canonical stability parameter theta_can(e) = <d, e> - <e, d>.

    Always pairs to zero with ``d``.  The formula is the adopted standard
    convention; it reproduces (2, 1, -3) on the three-vertex running example.
    """
    dv = d.aligned(q.vertices)
    n = len(q.vertices)
    # The symmetric sums cancel; only the arrow terms survive.
    coeffs = [0] * n
    for s, t in q.arrow_indices:
        coeffs[t] -= dv[s]
        coeffs[s] += dv[t]
    return StabilityParameter({q.vertices[i]: coeffs[i] for i in range(n)})
