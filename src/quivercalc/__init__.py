"""quivercalc: the standing hypotheses of a quiver datum (q, d, theta), the
double framing construction and its reduction, dimension formulas for the
endomorphism algebra, vector fields and first Hochschild cohomology of path
algebras, and finite-field verification of the framed stability description.

Each name exported here is called by a command, an acceptance criterion or
a planned roadmap item; the README's "Library layout" table names the
caller of each."""

from .core import (
    AcyclicityCertificate,
    DimensionVector,
    Path,
    PathCountMatrix,
    Quiver,
    StabilityParameter,
    canonical_stability,
    connected_components,
    enumerate_paths,
    euler_form,
    is_acyclic,
    is_connected,
    path_count,
    path_count_matrix,
    slope,
)
from .cohomology import (
    HomExtResult,
    RationalRepresentation,
    TangentPresentation,
    UnverifiedAssumptionWarning,
    hochschild1_dim,
    hom_ext,
    moduli_dimension,
    projective_representation,
    tangent_presentation,
    vector_fields_dim,
)
from .errors import (
    AssumptionViolatedError,
    BudgetExceededError,
    CyclicQuiverError,
    DisconnectedQuiverError,
    NotThinAtEndpointsError,
    PairingNonzeroError,
    QuiverCalcError,
    QuiverMismatchError,
    SpecFileError,
    UnknownVertexError,
    UnsupportedDimensionVectorError,
    VertexSetMismatchError,
)
from .framing import (
    MINIMAL_FRAMING_SCALE,
    FramingResult,
    ReductionCase,
    ReductionResult,
    double_frame,
    framed_ample_stability,
    reduce,
    verify_framed_sign_partition,
    verify_reduction_pairing,
)
from .specfile import QuiverSpec, load_spec, parse_spec
from .stability import AssumptionsReport, ThreeValued, assumptions_report

__version__ = "0.1.0"

# The finite-field oracle is served on first use (PEP 562): only ``verify``
# needs it, and importing it costs every other command start-up time.
_FF_ORACLE_NAMES = frozenset(
    {
        "EquivalenceReport",
        "FiniteFieldRepresentation",
        "StabilityVerdict",
        "Subspace",
        "gaussian_binomial",
        "king_stability",
        "path_semiinvariant",
        "random_group_element",
        "random_representation",
        "subspace_count",
        "subspaces_of",
        "verify_double_framing_equivalence",
        "verify_semiinvariant_weight",
    }
)


def __getattr__(name: str):
    if name in _FF_ORACLE_NAMES:
        from . import ff_oracle

        return getattr(ff_oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
