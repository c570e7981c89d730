"""quivercalc: the standing hypotheses of a quiver datum (q, d, theta), the
double framing construction and its reduction, dimension formulas for the
endomorphism algebra, vector fields and first Hochschild cohomology of path
algebras, and finite-field verification of the framed stability description.

Each name exported here is called by a command, an acceptance criterion or
a planned roadmap item; the README's "Library layout" table names the
caller of each.  Every name is served on first use (PEP 562), so that
``import quivercalc.cli`` loads only the modules a command needs: only
``analyze`` loads ``cohomology``, and only ``verify`` the finite-field
oracle."""

import importlib

__version__ = "0.1.0"

# Each module's exported names.
_EXPORTS = {
    "core": """AcyclicityCertificate DimensionVector Path PathCountMatrix Quiver StabilityParameter
        canonical_stability connected_components enumerate_paths euler_form is_acyclic is_connected
        path_count path_count_matrix slope""",
    "cohomology": """HomExtResult RationalRepresentation TangentPresentation hochschild1_dim hom_ext
        moduli_dimension projective_representation tangent_presentation vector_fields_dim""",
    "errors": """AssumptionViolatedError BudgetExceededError CyclicQuiverError DisconnectedQuiverError
        NotThinAtEndpointsError PairingNonzeroError QuiverCalcError QuiverMismatchError SpecFileError
        UnknownVertexError UnsupportedDimensionVectorError VertexSetMismatchError""",
    "framing": """MINIMAL_FRAMING_SCALE FramingResult ReductionCase ReductionResult double_frame
        framed_ample_stability reduce verify_framed_sign_partition verify_reduction_pairing""",
    "specfile": "QuiverSpec load_spec parse_spec",
    "stability": "AssumptionsReport ThreeValued assumptions_report",
    "ff_oracle": """EquivalenceReport FiniteFieldRepresentation Subspace gaussian_binomial
        path_semiinvariant random_group_element random_representation subspace_count subspaces_of
        verify_double_framing_equivalence verify_semiinvariant_weight""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

# The finite-field oracle's names, which only ``verify`` needs; ``from
# quivercalc import *`` gives every other name, as when the package imported
# the other modules eagerly.
_FF_ORACLE_NAMES = frozenset(_EXPORTS["ff_oracle"].split())
__all__ = sorted(_MODULE_OF.keys() - _FF_ORACLE_NAMES)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
