"""Double framing of a quiver datum and its reduction to a thin-marked datum.

``double_frame`` adjoins a fresh source vertex and a fresh sink vertex with
one arrow into the chosen vertex i and one arrow out of the chosen vertex j,
extends the dimension vector by 1 at both new vertices, and scales the
stability parameter into the middle block: (1, N*theta, -1).

``reduce`` removes whichever framing vertices are redundant because the base
dimension vector is already thin at i or j: the reduced datum is the framed
datum restricted to the vertices it keeps, the framing source exactly when
d_i > 1 and the framing sink exactly when d_j > 1.  Its marked vertices are
thin and the path space between them matches the base path space from i to
j.  Only the reduced stability parameter depends on the case, keyed by
(d_i > 1, d_j > 1).
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace

from .core import (
    DimensionVector,
    Path,
    Quiver,
    StabilityParameter,
    enumerate_paths,
    path_count_matrix,
)
from .errors import AssumptionViolatedError
from .stability import (
    AssumptionsReport,
    SignPartition,
    ThreeValued,
    _lattice_point,
    _lattice_values,
    _require_zero_pairing,
    assumptions_report,
)

__all__ = [
    "FramingResult",
    "ReductionCase",
    "ReductionResult",
    "FramedPartitionCheck",
    "ReductionPairingCheck",
    "double_frame",
    "minimal_framing_scale",
    "verify_framed_sign_partition",
    "framed_ample_stability",
    "framed_assumptions_report",
    "reduce",
    "verify_reduction_pairing",
    "reduction_path_map",
]


@dataclass(frozen=True)
class FramingResult:
    """A framed datum together with the base datum it was built from."""

    framed_quiver: Quiver
    framed_dimension: DimensionVector
    framed_stability: StabilityParameter
    framing_scale: int
    framed_at: tuple[str, str]
    source_vertex: str
    sink_vertex: str
    base_quiver: Quiver
    base_dimension: DimensionVector
    base_stability: StabilityParameter


class ReductionCase(enum.Enum):
    BOTH_BIG = "both_big"
    SOURCE_THIN = "source_thin"
    TARGET_THIN = "target_thin"
    BOTH_THIN = "both_thin"


@dataclass(frozen=True)
class ReductionResult:
    """A reduced datum with its marked vertices and connecting paths.

    ``connecting_paths`` are paths in the framed quiver: q0 from the framing
    source to i' and qinf from j' to the framing sink, each of length <= 1.
    ``arrow_map`` sends each arrow index of the reduced quiver to the
    corresponding arrow index of the framed quiver.
    """

    reduced_quiver: Quiver
    reduced_dimension: DimensionVector
    reduced_stability: StabilityParameter
    marked_vertices: tuple[str, str]
    connecting_paths: tuple[Path, Path]
    case_tag: ReductionCase
    arrow_map: tuple[int, ...]
    framing: FramingResult


@dataclass(frozen=True)
class FramedPartitionCheck:
    """Result of comparing the framed sign partition against its prediction."""

    passed: bool
    checked: int
    discrepancies: tuple[tuple[DimensionVector, str, str], ...]
    scale: int

    @property
    def first_discrepancy(self) -> tuple[DimensionVector, str, str] | None:
        return self.discrepancies[0] if self.discrepancies else None


@dataclass(frozen=True)
class ReductionPairingCheck:
    passed: bool
    failures: tuple[str, ...]
    reduced_path_count: int
    base_path_count: int


def _fresh_names(taken: tuple[str, ...]) -> tuple[str, str]:
    # The framing vertices are called 0 and infinity; prime them on collision.
    source, sink = "0", "∞"
    while source in taken:
        source += "'"
    while sink in taken:
        sink += "'"
    return source, sink


def double_frame(
    q: Quiver,
    d: DimensionVector,
    theta: StabilityParameter,
    i: str,
    j: str,
    scale: int,
) -> FramingResult:
    """Build the framed datum at vertices i and j (i = j is allowed).

    The framed quiver gains a source vertex with one arrow into i and a sink
    vertex with one arrow out of j; the framed dimension vector is (1, d, 1)
    and the framed stability parameter is (1, N*theta, -1) in the block order
    (source, base vertices, sink), which pairs to zero with (1, d, 1) exactly
    because theta(d) = 0.  Framing preserves acyclicity: the new vertices are
    a strict source and a strict sink.
    """
    _require_zero_pairing(theta, d)
    if scale < 1:
        raise ValueError("framing scale must be a positive integer")
    q.vertex_index(i)
    q.vertex_index(j)
    source, sink = _fresh_names(q.vertices)
    framed_q = Quiver(
        (source, *q.vertices, sink),
        (*q.arrows, (source, i), (j, sink)),
    )
    framed_d = DimensionVector({**d.as_dict(), source: 1, sink: 1})
    framed_theta = StabilityParameter(
        {**{v: scale * c for v, c in theta.entries}, source: 1, sink: -1}
    )
    return FramingResult(
        framed_quiver=framed_q,
        framed_dimension=framed_d,
        framed_stability=framed_theta,
        framing_scale=scale,
        framed_at=(i, j),
        source_vertex=source,
        sink_vertex=sink,
        base_quiver=q,
        base_dimension=d,
        base_stability=theta,
    )


def minimal_framing_scale(q: Quiver, d: DimensionVector, theta: StabilityParameter) -> int:
    """The framing scale used throughout: always 2 for integer parameters.

    The defining property is that a + N*theta(e) - b has the sign of theta(e)
    for every subdimension vector e with theta(e) != 0 and every
    a, b in {0, 1}.  Since |a - b| <= 1 and |theta(e)| >= 1, N = 2 always
    suffices; it is the least uniform choice (N = 1 breaks whenever some
    |theta(e)| = 1).  By convention 2 is also returned when the quantifier is
    vacuous (theta = 0 on every subdimension vector).
    """
    _require_zero_pairing(theta, d)
    d.aligned(q.vertices)
    theta.aligned(q.vertices)
    return 2


_SIGN_NAMES = {1: "plus", -1: "minus", 0: "zero"}


def _framed_partition_check(framing: FramingResult, base_values: list[int]) -> FramedPartitionCheck:
    """The framed sign-partition check, given the sign of each base
    subdimension vector as the sign of ``base_values[k]`` (index order of
    ``_lattice_values``).

    The framed quiver's vertices are (source, base vertices, sink), so its
    lattice is {0, 1} x base lattice x {0, 1} in that lexicographic order.
    Each actual framed value is computed from the framed parameter's own
    aligned entries: its middle block swept over the base lattice, plus a
    times the source entry and b times the sink entry.
    """
    fq = framing.framed_quiver
    ftv = framing.framed_stability.aligned(fq.vertices)
    at_source, middle_weights, at_sink = ftv[0], ftv[1:-1], ftv[-1]
    dv = framing.base_dimension.aligned(framing.base_quiver.vertices)
    middle = _lattice_values(dv, middle_weights)
    base_signs = [(v > 0) - (v < 0) for v in base_values]

    mismatches = []  # (a, k, b, expected sign, actual sign)
    for a in (0, 1):
        for b in (0, 1):
            cut = -(a * at_source + b * at_sink)
            actual = [(m > cut) - (m < cut) for m in middle]
            expected = [s or a - b for s in base_signs]
            mismatches += [(a, k, b, x, y) for k, (x, y) in enumerate(zip(expected, actual)) if x != y]
    mismatches.sort()
    discrepancies = tuple(
        (
            DimensionVector(dict(zip(fq.vertices, (a, *_lattice_point(dv, k), b)))),
            _SIGN_NAMES[expected],
            _SIGN_NAMES[actual],
        )
        for a, k, b, expected, actual in mismatches
    )
    return FramedPartitionCheck(
        passed=not discrepancies,
        checked=4 * len(middle),
        discrepancies=discrepancies,
        scale=framing.framing_scale,
    )


def verify_framed_sign_partition(framing: FramingResult, base: SignPartition) -> FramedPartitionCheck:
    """Check the framed sign partition against its predicted description.

    Prediction, writing (a, e, b) for a subdimension vector of (1, d, 1):
    vectors over e with a positive base sign are positive, vectors over a
    negative base sign are negative, and over a zero base sign the framed
    sign is that of a - b.  The check runs over every framed subdimension
    vector in index space: the base signs are read off ``base`` once, the
    actual framed values come from one sweep of the framed parameter, and a
    DimensionVector is built only for a mismatch.  All mismatches are
    recorded, in lexicographic order of the framed vertex order.  At scale
    >= 2 the prediction is exact; at scale 1 it fails whenever some
    |theta(e)| = 1.
    """
    base_vertices = framing.base_quiver.vertices
    dv = framing.base_dimension.aligned(base_vertices)
    signs = [0] * math.prod(c + 1 for c in dv)
    for sign, bucket in ((1, base.plus), (-1, base.minus), (0, base.zero)):
        for e in bucket:
            k = 0
            for c, x in zip(dv, e.aligned(base_vertices)):
                k = k * (c + 1) + x
            signs[k] = sign
    return _framed_partition_check(framing, signs)


def framed_ample_stability(d: DimensionVector, i: str, j: str) -> bool:
    """Ample stability of the framed datum: holds iff d_i > 1 and d_j > 1.

    Valid under the standing hypotheses on the base datum (the framing
    source/sink loci have codimension d_i and d_j).  This is the one place
    an ample-stability NO is decidable.
    """
    return d[i] > 1 and d[j] > 1


def framed_assumptions_report(framing: FramingResult) -> AssumptionsReport:
    """Assumptions report for the framed datum, with ample stability decided.

    The framed datum always keeps acyclicity and indivisibility, and its
    semistable and stable loci agree; theta-coprimality may nonetheless fail
    (it is only a sufficient condition, and (0, d, 0) always pairs to zero).
    Ample stability is decided exactly by the thin-framing criterion, so this
    report can say NO, unlike the base report.  A warning is emitted when the
    base datum does not verifiably satisfy its own hypotheses.
    """
    base_report = assumptions_report(
        framing.base_quiver, framing.base_dimension, framing.base_stability
    )
    if not base_report.all_verified():
        warnings.warn(
            "framed ample stability is only meaningful when the base datum "
            "satisfies the standing hypotheses; the base report does not "
            "verify them",
            stacklevel=2,
        )
    report = assumptions_report(
        framing.framed_quiver, framing.framed_dimension, framing.framed_stability
    )
    i, j = framing.framed_at
    ample = framed_ample_stability(framing.base_dimension, i, j)
    if report.strongly_amply_stable and not ample:
        raise AssertionError("strong ample stability cannot hold when ample stability fails")
    return replace(report, amply_stable=ThreeValued.YES if ample else ThreeValued.NO)


def reduce(framing: FramingResult, d: DimensionVector) -> ReductionResult:
    """Reduce the framed datum, dropping framing vertices made redundant by
    thinness of d at the framed vertices.

    The reduced datum is the framed datum restricted to the vertices it
    keeps: the framing source exactly when d_i > 1, the framing sink exactly
    when d_j > 1.  A kept framing vertex is its own mark; a dropped one hands
    its mark to i (or j) and its arrow to q0 (or qinf).  Only the reduced
    stability parameter depends on the case (d_i > 1, d_j > 1), with |d| the
    total dimension and N the framing scale:

    * both big: the framed parameter.
    * d_i > 1, d_j = 1: |d| at the framing source and
      (|d| + 1) * N * theta_k - 1 on base vertices.
    * d_i = 1, d_j > 1: (|d| + 1) * N * theta_k + 1 on base vertices and
      -|d| at the framing sink.
    * both thin: the base parameter.

    A framed vertex of dimension 0 has no reduction and is refused.

    In every case theta'(d') = 0, d' is thin at the marked vertices, and the
    reduced path space between the marked vertices matches the base path
    space from i to j.  The base datum must satisfy the decidable standing
    hypotheses (acyclicity, indivisibility, coprimality); ample stability is
    not decidable at the base level and is not gated on.
    """
    return _reduce_checked(framing, d)[0]


def _reduce_checked(
    framing: FramingResult, d: DimensionVector, assumptions: AssumptionsReport | None = None
) -> tuple[ReductionResult, ReductionPairingCheck]:
    """:func:`reduce`, also returning the pairing check it ran, so that a
    report can show the check without running it again.  Pass the base
    datum's ``assumptions`` report when it is already computed."""
    if d != framing.base_dimension:
        raise ValueError("dimension vector does not match the framed base datum")
    theta = framing.base_stability
    report = assumptions if assumptions is not None else assumptions_report(framing.base_quiver, d, theta)
    report.require("acyclic", "indivisible", "coprime")

    i, j = framing.framed_at
    if d[i] == 0 or d[j] == 0:
        raise AssumptionViolatedError("nonzero dimension at both framed vertices", f"d_{i} = {d[i]}, d_{j} = {d[j]}")
    fq = framing.framed_quiver
    source, sink = framing.source_vertex, framing.sink_vertex
    source_arrow, sink_arrow = len(fq.arrows) - 2, len(fq.arrows) - 1  # source -> i, j -> sink
    keep_source, keep_sink = d[i] > 1, d[j] > 1
    dropped = {v for v, kept in ((source, keep_source), (sink, keep_sink)) if not kept}
    arrow_map = tuple(k for k, (s, t) in enumerate(fq.arrows) if s not in dropped and t not in dropped)

    total = d.total()
    lift = (total + 1) * framing.framing_scale  # (|d| + 1) * N, on base vertices
    if keep_source and keep_sink:
        case, reduced_theta = ReductionCase.BOTH_BIG, framing.framed_stability
    elif keep_source:
        case = ReductionCase.SOURCE_THIN
        reduced_theta = StabilityParameter({**{v: lift * c - 1 for v, c in theta.entries}, source: total})
    elif keep_sink:
        case = ReductionCase.TARGET_THIN
        reduced_theta = StabilityParameter({**{v: lift * c + 1 for v, c in theta.entries}, sink: -total})
    else:
        case, reduced_theta = ReductionCase.BOTH_THIN, theta

    result = ReductionResult(
        reduced_quiver=Quiver((v for v in fq.vertices if v not in dropped), (fq.arrows[k] for k in arrow_map)),
        reduced_dimension=DimensionVector((v, c) for v, c in framing.framed_dimension.entries if v not in dropped),
        reduced_stability=reduced_theta,
        marked_vertices=(source if keep_source else i, sink if keep_sink else j),
        connecting_paths=(
            Path(source) if keep_source else Path(source, (source_arrow,)),
            Path(sink) if keep_sink else Path(j, (sink_arrow,)),
        ),
        case_tag=case,
        arrow_map=arrow_map,
        framing=framing,
    )
    check = verify_reduction_pairing(result)
    if not check.passed:
        raise AssertionError(f"reduction invariants failed: {check.failures}")
    return result, check


def verify_reduction_pairing(result: ReductionResult) -> ReductionPairingCheck:
    """Sanity layer over a reduction: zero pairing, thin marks, path counts."""
    failures = []
    theta = result.reduced_stability
    d = result.reduced_dimension
    i_mark, j_mark = result.marked_vertices
    if theta(d) != 0:
        failures.append(f"theta'(d') = {theta(d)} != 0")
    if d[i_mark] != 1:
        failures.append(f"d' is not thin at {i_mark!r}")
    if d[j_mark] != 1:
        failures.append(f"d' is not thin at {j_mark!r}")
    reduced_count = path_count_matrix(result.reduced_quiver).count(i_mark, j_mark)
    framing = result.framing
    base_count = path_count_matrix(framing.base_quiver).count(*framing.framed_at)
    if reduced_count != base_count:
        failures.append(f"path count {reduced_count} != base path count {base_count}")
    return ReductionPairingCheck(
        passed=not failures,
        failures=tuple(failures),
        reduced_path_count=reduced_count,
        base_path_count=base_count,
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
