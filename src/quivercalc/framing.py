"""Double framing of a quiver datum and its reduction to a thin-marked datum.

``double_frame`` adjoins a fresh source vertex and a fresh sink vertex with
one arrow into the chosen vertex i and one arrow out of the chosen vertex j,
extends the dimension vector by 1 at both new vertices, and scales the
stability parameter into the middle block: (1, N*theta, -1), where the CLI
takes N = ``MINIMAL_FRAMING_SCALE`` unless told otherwise.  A
``FramingResult`` carries its base datum (q, d, theta) and, as
``base_assumptions``, that datum's hypotheses report, computed at most once
per framing; so every function downstream of ``double_frame`` takes the
framing alone.  The framed quiver is built from checked parts without a
second check: its two new names are fresh and its two new arrows end at
resolved vertices.  ``verify_framed_sign_partition`` states where the
framed sign partition departs from its predicted description: derived by
the scale lemma of ``MINIMAL_FRAMING_SCALE``, it departs only at scale 1
and only over base points with theta(e) = +-1, read off one sweep of the
base theta, which gives the first ``MAX_WITNESSES`` of them and their count.

``reduce`` removes whichever framing vertices are redundant because the base
dimension vector is already thin at i or j: the reduced datum is the framed
datum restricted to the vertices it keeps, the framing source exactly when
d_i > 1 and the framing sink exactly when d_j > 1, and the arrows between
them, so it too is built without a second check.  Only the reduced
stability parameter depends on the case, keyed by (d_i > 1, d_j > 1).
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import NamedTuple

from .core import (
    DimensionVector,
    Path,
    Quiver,
    StabilityParameter,
    _acyclic_order,
    _Frozen,
)
from .errors import AssumptionViolatedError
from .stability import (
    MAX_WITNESSES,
    AssumptionsReport,
    _lattice_point,
    _lattice_size,
    _lattice_values,
    _require_zero_pairing,
    assumptions_report,
)

__all__ = [
    "FramingResult",
    "ReductionCase",
    "ReductionResult",
    "FramedPartitionCheck",
    "MINIMAL_FRAMING_SCALE",
    "double_frame",
    "verify_framed_sign_partition",
    "framed_ample_stability",
    "reduce",
]


class FramingResult(_Frozen):
    """A framed datum together with the base datum it was built from."""

    _fields = (
        "framed_quiver", "framed_dimension", "framed_stability", "framing_scale", "framed_at",
        "source_vertex", "sink_vertex", "base_quiver", "base_dimension", "base_stability",
    )
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

    @cached_property
    def base_assumptions(self) -> AssumptionsReport:
        """The base datum's hypotheses report, computed on first use."""
        return assumptions_report(self.base_quiver, self.base_dimension, self.base_stability)


class ReductionCase(enum.Enum):
    BOTH_BIG = "both_big"
    SOURCE_THIN = "source_thin"
    TARGET_THIN = "target_thin"
    BOTH_THIN = "both_thin"


class ReductionResult(_Frozen):
    """A reduced datum with its marked vertices and connecting paths.

    ``connecting_paths`` are paths in the framed quiver: q0 from the framing
    source to i' and qinf from j' to the framing sink, each of length <= 1.
    ``arrow_map`` sends each arrow index of the reduced quiver to the
    corresponding arrow index of the framed quiver.
    """

    _fields = (
        "reduced_quiver", "reduced_dimension", "reduced_stability", "marked_vertices",
        "connecting_paths", "case_tag", "arrow_map", "framing",
    )
    reduced_quiver: Quiver
    reduced_dimension: DimensionVector
    reduced_stability: StabilityParameter
    marked_vertices: tuple[str, str]
    connecting_paths: tuple[Path, Path]
    case_tag: ReductionCase
    arrow_map: tuple[int, ...]
    framing: FramingResult


class FramedPartitionCheck(NamedTuple):
    """The framed sign partition against its prediction: ``checked`` counts
    the framed lattice points the verdict covers, each discrepancy is
    (framed vector, predicted sign name, actual sign name), at most
    ``MAX_WITNESSES`` of them, and ``discrepancy_count`` counts them all."""

    passed: bool
    checked: int
    discrepancies: tuple[tuple[DimensionVector, str, str], ...]
    discrepancy_count: int


# The framing scale N used throughout.  A framed value a + N*theta(e) - b has
# the sign of theta(e) for every subdimension vector e with theta(e) != 0 and
# every a, b in {0, 1}: since |a - b| <= 1 and |theta(e)| >= 1 for an integer
# parameter, N = 2 always suffices, and it is the least uniform choice (N = 1
# breaks whenever some |theta(e)| = 1).
MINIMAL_FRAMING_SCALE = 2


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
    framed_q = Quiver._checked(
        (source, *q.vertices, sink),
        (*q.arrows, (source, i), (j, sink)),
    )
    framed_d = DimensionVector((*d.entries, (source, 1), (sink, 1)))
    framed_theta = StabilityParameter(
        [*((v, scale * c) for v, c in theta.entries), (source, 1), (sink, -1)]
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


def verify_framed_sign_partition(framing: FramingResult) -> FramedPartitionCheck:
    """Check the framed sign partition against its predicted description.

    Prediction, writing (a, e, b) for a subdimension vector of (1, d, 1):
    over a positive or negative base sign of e the framed vector has that
    sign, and over a zero base sign it has the sign of a - b.  The verdict
    is derived by the scale lemma of ``MINIMAL_FRAMING_SCALE``, not by
    testing framed points: the framed value is a + N*theta(e) - b with
    |a - b| <= 1, which is a - b where theta(e) = 0 and has the sign of
    theta(e) unless N = 1 and theta(e) = +-1.  There the points (0, e, 1)
    with theta(e) = 1 read zero where plus was predicted, and the points
    (1, e, 0) with theta(e) = -1 read zero where minus was.

    So the check reads only ``framing_scale``, the base datum and the
    framed vertex names.  ``checked`` counts the four framed points (a, e, b)
    over each base point e, after a sweep's budget refusal.  Only at scale 1
    does one sweep of the base theta give the discrepancies: the plus ones,
    then the minus ones, each in lattice order, the framed lexicographic one.
    The first ``MAX_WITNESSES`` are kept, and all are counted off the masks;
    a vector is built only for a kept one.
    """
    base_vertices = framing.base_quiver.vertices
    dv = framing.base_dimension.aligned(base_vertices)
    size = _lattice_size(dv)
    discrepancies, count = [], 0
    if framing.framing_scale < MINIMAL_FRAMING_SCALE:
        sweep = _lattice_values(framing.base_quiver, dv, framing.base_stability.aligned(base_vertices))
        names = framing.framed_quiver.vertices
        for a, sign, expected in ((0, 1, "plus"), (1, -1, "minus")):
            mask = sweep.equal(sign)
            count += mask.bit_count()
            discrepancies += [
                (DimensionVector(zip(names, (a, *_lattice_point(dv, k), 1 - a))), expected, "zero")
                for k in sweep.indices(mask, MAX_WITNESSES - len(discrepancies))
            ]
    return FramedPartitionCheck(
        passed=not count,
        checked=4 * size,
        discrepancies=tuple(discrepancies),
        discrepancy_count=count,
    )


def framed_ample_stability(d: DimensionVector, i: str, j: str) -> bool:
    """Ample stability of the framed datum: holds iff d_i > 1 and d_j > 1.

    Valid under the standing hypotheses on the base datum (the framing
    source/sink loci have codimension d_i and d_j).  This is the one place
    an ample-stability NO is decidable.
    """
    return d[i] > 1 and d[j] > 1


def reduce(framing: FramingResult) -> ReductionResult:
    """Reduce the framed datum, dropping framing vertices made redundant by
    thinness of the base dimension vector d at the framed vertices.

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
    space from i to j, by construction: theta(d) = 0, a dropped framing
    vertex hands its mark to a vertex with d = 1, and the framing source and
    sink have one arrow each.  The base datum must satisfy the decidable
    standing hypotheses (acyclicity, indivisibility, coprimality); ample
    stability is not decidable at the base level and is not gated on.  A
    cyclic base quiver is refused first, naming its cycle, as the commands
    refuse it.
    """
    _acyclic_order(framing.base_quiver)
    framing.base_assumptions.require("indivisible", "coprime")
    d, theta = framing.base_dimension, framing.base_stability

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
        reduced_theta = StabilityParameter([*((v, lift * c - 1) for v, c in theta.entries), (source, total)])
    elif keep_sink:
        case = ReductionCase.TARGET_THIN
        reduced_theta = StabilityParameter([*((v, lift * c + 1) for v, c in theta.entries), (sink, -total)])
    else:
        case, reduced_theta = ReductionCase.BOTH_THIN, theta

    return ReductionResult(
        reduced_quiver=Quiver._checked(
            tuple(v for v in fq.vertices if v not in dropped), tuple(fq.arrows[k] for k in arrow_map)
        ),
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
