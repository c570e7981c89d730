"""Dimension-level bookkeeping for sections of universal bundles on quiver
moduli, vector fields, and first Hochschild cohomology of the path algebra,
plus exact Hom/Ext computation for concrete rational representations.

The central object is the two-map presentation

    0 -> k --phi--> (+)_i e_i kQ e_i --psi--> (+)_a e_t(a) kQ e_s(a) -> coker -> 0

with phi the all-ones inclusion on trivial paths and psi sending the trivial
path at vertex i to the signed sum of arrows at i.  For a connected acyclic
quiver with a fully supported dimension vector satisfying the strong ample
stability criterion, the cokernel dimension computes the space of vector
fields on the moduli space, and it always computes the first Hochschild
cohomology of the path algebra.  The only nonzero rows of psi are the signed
incidence rows of the arrows, whose rank is #vertices - #components (the
tests check this lemma against exact elimination), so both equal
sum_a p(s(a), t(a)) - #vertices + 1 and no elimination runs for them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .core import (
    DimensionVector,
    Path,
    Quiver,
    StabilityParameter,
    _acyclic_order,
    _check_representation_shapes,
    connected_components,
    enumerate_paths,
    euler_form,
    is_connected,
    path_count_matrix,
)
from .errors import (
    AssumptionViolatedError,
    DisconnectedQuiverError,
    QuiverMismatchError,
    UnsupportedDimensionVectorError,
)
from .stability import assumptions_report

__all__ = [
    "UnverifiedAssumptionWarning",
    "TangentPresentation",
    "RationalRepresentation",
    "HomExtResult",
    "tangent_presentation",
    "vector_fields_dim",
    "hochschild1_dim",
    "hom_ext",
    "projective_representation",
    "moduli_dimension",
]


class UnverifiedAssumptionWarning(UserWarning):
    """A result was produced without its geometric hypotheses being verified."""


Matrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class TangentPresentation:
    """The two integer matrices of the presentation, with path-basis labels.

    ``phi_matrix`` is the all-ones column over the trivial-path basis;
    ``psi_matrix`` has a row per basis path of each arrow's path space and a
    column per vertex, with +1 at (the arrow's own length-one path, target)
    and -1 at (the same row, source).  The composite psi . phi is zero, the
    rank of phi is 1, and the rank of psi is #vertices minus the number of
    connected components.
    """

    phi_matrix: tuple[tuple[int, ...], ...]
    psi_matrix: tuple[tuple[int, ...], ...]
    row_labels: tuple[tuple[int, Path], ...]
    column_labels: tuple[str, ...]

    @property
    def domain_dim(self) -> int:
        return len(self.column_labels)

    @property
    def codomain_dim(self) -> int:
        return len(self.row_labels)


@dataclass(frozen=True)
class RationalRepresentation:
    """A representation with exact rational matrices.

    ``arrow_matrices[a]`` has shape d_target(a) x d_source(a); a matrix with
    zero rows or columns is the empty tuple at the degenerate level.
    """

    quiver: Quiver
    dims: DimensionVector
    arrow_matrices: tuple[Matrix, ...]

    def __post_init__(self):
        _check_representation_shapes(self.quiver, self.dims, self.arrow_matrices)


@dataclass(frozen=True)
class HomExtResult:
    """Exact dimensions of Hom and Ext^1 between two representations.

    The difference hom_dim - ext_dim always equals the Euler form of the
    dimension vectors.  ``hom_basis`` lists a basis of the Hom space, each
    element a map from vertex to matrix, produced by the deterministic
    echelon pivot rule.
    """

    hom_dim: int
    ext_dim: int
    hom_basis: tuple[dict[str, Matrix], ...]


def _require_presentation_preconditions(q: Quiver, d: DimensionVector) -> None:
    _acyclic_order(q)
    if not is_connected(q):
        raise DisconnectedQuiverError("the presentation requires a connected quiver")
    if any(c < 1 for c in d.aligned(q.vertices)):
        raise UnsupportedDimensionVectorError("full support required: every d_i >= 1")


def tangent_presentation(q: Quiver, d: DimensionVector) -> TangentPresentation:
    """Build the matrices phi and psi over the path bases.

    Rows are indexed by (arrow index, basis path of that arrow's path space)
    with paths in their deterministic enumeration order; columns by vertices.
    Only the row belonging to an arrow's own length-one path is nonzero in
    psi, carrying +1 at the target column and -1 at the source column, so
    psi . phi = 0 on the nose.
    """
    d.aligned(q.vertices)
    _require_presentation_preconditions(q, d)
    n = len(q.vertices)
    idx = {v: k for k, v in enumerate(q.vertices)}
    phi = tuple((1,) for _ in range(n))
    row_labels: list[tuple[int, Path]] = []
    rows: list[tuple[int, ...]] = []
    for a, (s, t) in enumerate(q.arrows):
        own = Path(s, (a,))
        for p in enumerate_paths(q, s, t):
            row_labels.append((a, p))
            if p == own:
                row = [0] * n
                row[idx[t]] += 1
                row[idx[s]] -= 1
                rows.append(tuple(row))
            else:
                rows.append((0,) * n)
    return TangentPresentation(
        phi_matrix=phi,
        psi_matrix=tuple(rows),
        row_labels=tuple(row_labels),
        column_labels=q.vertices,
    )


def vector_fields_dim(
    q: Quiver,
    d: DimensionVector,
    theta: StabilityParameter,
    *,
    override_assumptions: bool = False,
) -> int:
    """Dimension of the space of vector fields on the moduli space, as the
    cokernel dimension of psi.  The rank of psi is #vertices - #components,
    so under the presentation's preconditions the cokernel is
    :func:`hochschild1_dim` and :func:`tangent_presentation` is not built.

    Requires the datum to pass the strong ample stability criterion alongside
    the other standing hypotheses; ``override_assumptions`` computes the
    formula value anyway, with a prominent warning, because the result is
    then only the formula and can differ from the true space of vector
    fields (the three-vertex example in the alternative chamber has 8 where
    the formula gives 6).
    """
    failed = assumptions_report(q, d, theta).refusals()
    if failed and not override_assumptions:
        raise AssumptionViolatedError(", ".join(failed))
    if failed:
        warnings.warn(
            "standing hypotheses not verified (%s): the returned value is the "
            "presentation formula and may differ from the actual space of "
            "vector fields" % ", ".join(failed),
            UnverifiedAssumptionWarning,
            stacklevel=2,
        )
    _require_presentation_preconditions(q, d)
    return hochschild1_dim(q)


def hochschild1_dim(q: Quiver) -> int:
    """Dimension of the first Hochschild cohomology of the path algebra.

    Computed as the Euler characteristic of the four-term presentation,
    applied per connected component and summed:
    sum_a p(s(a), t(a)) - #vertices + #components.  For a connected quiver
    this is sum_a p(s(a), t(a)) - #vertices + 1, matching the vector-fields
    formula; it is 0 exactly for trees.
    """
    p = path_count_matrix(q)
    arrow_paths = sum(p.count(s, t) for s, t in q.arrows)
    return arrow_paths - len(q.vertices) + len(connected_components(q))


def hom_ext(m: RationalRepresentation, n: RationalRepresentation) -> HomExtResult:
    """Hom and Ext^1 of representations, via the standard two-term complex.

    Hom is the kernel and Ext^1 the cokernel of

        (+)_i Hom(M_i, N_i) -> (+)_a Hom(M_s(a), N_t(a)),
        f |-> (f_t(a) . M_a - N_a . f_s(a))_a,

    with exact rational ranks.  hom_dim - ext_dim equals the Euler form of
    the dimension vectors by construction.
    """
    if m.quiver != n.quiver:
        raise QuiverMismatchError("representations must live over the same quiver")
    q = m.quiver
    vertices = q.vertices
    m_dims = m.dims.aligned(vertices)
    n_dims = n.dims.aligned(vertices)

    # Column layout: per vertex, the entries of f_i (n_i x m_i), row-major.
    col_offset = []
    offset = 0
    for n_k, m_k in zip(n_dims, m_dims):
        col_offset.append(offset)
        offset += n_k * m_k
    domain_dim = offset

    rows: list[list[Fraction]] = []
    for a, (s, t) in enumerate(q.arrow_indices):
        ms, nt = m_dims[s], n_dims[t]
        mt, ns = m_dims[t], n_dims[s]
        m_a = m.arrow_matrices[a]
        n_a = n.arrow_matrices[a]
        for r in range(nt):
            for c in range(ms):
                row = [Fraction(0)] * domain_dim
                # (f_t . M_a)[r][c] depends on f_t[r][k] with weight M_a[k][c]
                base_t = col_offset[t]
                for k in range(mt):
                    row[base_t + r * mt + k] += Fraction(m_a[k][c])
                # -(N_a . f_s)[r][c] depends on f_s[k][c] with weight -N_a[r][k]
                base_s = col_offset[s]
                for k in range(ns):
                    row[base_s + k * ms + c] -= Fraction(n_a[r][k])
                rows.append(row)
    codomain_dim = len(rows)

    kernel = linalg.nullspace_basis(rows) if rows else [
        [Fraction(1) if i == j else Fraction(0) for i in range(domain_dim)] for j in range(domain_dim)
    ]
    matrix_rank = domain_dim - len(kernel)
    hom_dim = len(kernel)
    ext_dim = codomain_dim - matrix_rank

    basis = []
    for vec in kernel:
        maps: dict[str, Matrix] = {}
        for k, v in enumerate(vertices):
            rows_v, cols_v = n_dims[k], m_dims[k]
            base = col_offset[k]
            maps[v] = tuple(
                tuple(vec[base + r * cols_v + c] for c in range(cols_v)) for r in range(rows_v)
            )
        basis.append(maps)
    return HomExtResult(hom_dim=hom_dim, ext_dim=ext_dim, hom_basis=tuple(basis))


def projective_representation(q: Quiver, i: str) -> RationalRepresentation:
    """The indecomposable projective at vertex i, realized on path spaces.

    The space at vertex j is spanned by the paths i -> j (so the dimension
    vector is row i of the path count matrix) and an arrow acts by
    post-composition, giving 0/1 matrices in the deterministic path bases.
    """
    q.vertex_index(i)
    bases = {v: enumerate_paths(q, i, v) for v in q.vertices}
    index = {v: {p: k for k, p in enumerate(bases[v])} for v in q.vertices}
    dims = DimensionVector({v: len(bases[v]) for v in q.vertices})
    mats = []
    for a, (s, t) in enumerate(q.arrows):
        rows = len(bases[t])
        cols = len(bases[s])
        m = [[Fraction(0)] * cols for _ in range(rows)]
        for c, p in enumerate(bases[s]):
            composed = Path(i, p.arrows + (a,))
            m[index[t][composed]][c] = Fraction(1)
        mats.append(tuple(tuple(row) for row in m))
    return RationalRepresentation(quiver=q, dims=dims, arrow_matrices=tuple(mats))


def moduli_dimension(q: Quiver, d: DimensionVector) -> int:
    """Expected dimension 1 - <d, d> of the moduli space (reporting plumbing)."""
    return 1 - euler_form(q, d, d)
