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

from fractions import Fraction
from typing import NamedTuple, Sequence

from . import linalg
from .core import (
    DimensionVector,
    Path,
    Quiver,
    StabilityParameter,
    _acyclic_order,
    _check_representation_shapes,
    _Frozen,
    connected_components,
    enumerate_paths,
    euler_form,
    is_connected,
)
from .errors import (
    AssumptionViolatedError,
    DisconnectedQuiverError,
    QuiverMismatchError,
    UnsupportedDimensionVectorError,
)
from .stability import assumptions_report

__all__ = [
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


Matrix = tuple[tuple[Fraction, ...], ...]


class TangentPresentation(NamedTuple):
    """The two integer matrices of the presentation.

    ``phi_matrix`` is the all-ones column over the trivial-path basis;
    ``psi_matrix`` has a row per basis path of each arrow's path space and a
    column per vertex, with +1 at (the arrow's own length-one path, target)
    and -1 at (the same row, source).  The composite psi . phi is zero, the
    rank of phi is 1, and the rank of psi is #vertices minus the number of
    connected components.
    """

    phi_matrix: tuple[tuple[int, ...], ...]
    psi_matrix: tuple[tuple[int, ...], ...]

    @property
    def domain_dim(self) -> int:
        return len(self.phi_matrix)

    @property
    def codomain_dim(self) -> int:
        return len(self.psi_matrix)


class RationalRepresentation(_Frozen):
    """A representation with exact rational matrices.

    ``arrow_matrices[a]`` has shape d_target(a) x d_source(a); a matrix with
    zero rows or columns is the empty tuple at the degenerate level.
    """

    _fields = ("quiver", "dims", "arrow_matrices")

    def __init__(self, quiver: Quiver, dims: DimensionVector, arrow_matrices: tuple[Matrix, ...]):
        _check_representation_shapes(quiver, dims, arrow_matrices)
        super().__init__(quiver, dims, arrow_matrices)


class HomExtResult(NamedTuple):
    """Exact dimensions of Hom and Ext^1 between two representations.

    The difference hom_dim - ext_dim always equals the Euler form of the
    dimension vectors.  ``hom_basis`` lists a basis of the Hom space, each
    element a map from vertex to matrix, produced by the deterministic
    echelon pivot rule.
    """

    hom_dim: int
    ext_dim: int
    hom_basis: tuple[dict[str, Matrix], ...]


def tangent_presentation(q: Quiver, d: DimensionVector) -> TangentPresentation:
    """Build the matrices phi and psi over the path bases.

    Rows are indexed by (arrow index, basis path of that arrow's path space)
    with paths in their deterministic enumeration order; columns by vertices.
    Only the row belonging to an arrow's own length-one path is nonzero in
    psi, carrying +1 at the target column and -1 at the source column, so
    psi . phi = 0 on the nose.
    """
    d.aligned(q.vertices)
    _require_vector_fields(q, d)
    n = len(q.vertices)
    idx = {v: k for k, v in enumerate(q.vertices)}
    phi = tuple((1,) for _ in range(n))
    rows: list[tuple[int, ...]] = []
    for a, (s, t) in enumerate(q.arrows):
        own = Path(s, (a,))
        for p in enumerate_paths(q, s, t):
            if p == own:
                row = [0] * n
                row[idx[t]] += 1
                row[idx[s]] -= 1
                rows.append(tuple(row))
            else:
                rows.append((0,) * n)
    return TangentPresentation(phi_matrix=phi, psi_matrix=tuple(rows))


def _require_vector_fields(q: Quiver, d: DimensionVector, failed: Sequence[str] = ()) -> None:
    """The vector-fields gate, one refusal per failed condition: a cycle
    first, named by ``core._acyclic_order``, then the failed standing
    hypotheses named in ``failed`` as one AssumptionViolatedError, then the
    presentation's preconditions, connectivity and full support.
    ``tangent_presentation`` and ``analyze --override-assumptions`` name no
    hypotheses, so only the cycle and the preconditions refuse them."""
    _acyclic_order(q)
    if failed:
        raise AssumptionViolatedError(", ".join(failed))
    if not is_connected(q):
        raise DisconnectedQuiverError("the presentation requires a connected quiver")
    if any(c < 1 for c in d.aligned(q.vertices)):
        raise UnsupportedDimensionVectorError("full support required: every d_i >= 1")


def vector_fields_dim(q: Quiver, d: DimensionVector, theta: StabilityParameter) -> int:
    """Dimension of the space of vector fields on the moduli space, as the
    cokernel dimension of psi.  The rank of psi is #vertices - #components,
    so under the presentation's preconditions the cokernel is
    :func:`hochschild1_dim` and :func:`tangent_presentation` is not built.

    Requires the datum to pass the strong ample stability criterion alongside
    the other standing hypotheses.  ``analyze --override-assumptions`` reports
    the bare formula value where they fail; it can differ from the true space
    of vector fields (the three-vertex example in the alternative chamber has
    8 where the formula gives 6).
    """
    _require_vector_fields(q, d, assumptions_report(q, d, theta).refusals())
    return hochschild1_dim(q)


def hochschild1_dim(q: Quiver) -> int:
    """Dimension of the first Hochschild cohomology of the path algebra.

    Computed as the Euler characteristic of the four-term presentation,
    applied per connected component and summed:
    sum_a p(s(a), t(a)) - #vertices + #components.  For a connected quiver
    this is sum_a p(s(a), t(a)) - #vertices + 1, matching the vector-fields
    formula; it is 0 exactly for trees.  Each p(s(a), t(a)) is field s(a)
    of the packed column t(a) of ``Quiver._path_columns``, so no
    #vertices x #vertices table is built.
    """
    width, columns = q._path_columns
    bits, mask = 8 * width, (1 << 8 * width) - 1
    arrow_paths = sum((columns[t] >> bits * s) & mask for s, t in q.arrow_indices)
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
