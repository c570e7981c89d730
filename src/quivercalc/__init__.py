"""quivercalc: stability analysis of quiver dimension vectors, the double
framing construction and its reduction, dimension formulas for endomorphism
algebras / vector fields / first Hochschild cohomology of path algebras, and
exhaustive finite-field verification of stability characterizations."""

from .core import (
    AcyclicityCertificate,
    Character,
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
    weight_one_character,
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
    DivisibleDimensionVectorError,
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
    framed_assumptions_report,
    reduce,
    reduction_path_map,
    verify_framed_sign_partition,
    verify_reduction_pairing,
)
from .specfile import QuiverSpec, load_spec, parse_spec, spec_to_dict
from .stability import (
    AssumptionsReport,
    SignPartition,
    ThreeValued,
    assumptions_report,
    is_strongly_amply_stable,
    is_theta_coprime,
    sign_partition,
    subdimension_vectors,
)

__version__ = "0.1.0"

# The finite-field oracle is served on first use (PEP 562): only ``verify``
# needs it, and importing it costs every other command start-up time.
_FF_ORACLE_NAMES = frozenset(
    {
        "EquivalenceReport",
        "FiniteFieldRepresentation",
        "StabilityVerdict",
        "enumerate_representations",
        "enumerate_subrepresentations",
        "gaussian_binomial",
        "king_stability",
        "path_semiinvariant",
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
