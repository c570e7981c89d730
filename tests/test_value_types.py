"""The contract of the package's value types: each is frozen, equal to and
hashed as the tuple of its fields within its own class, shown as
``Name(field=value, ...)`` and equal to its shallow copy.  ``Quiver`` and
``Path`` are dict keys and never equal a plain tuple.

Each case builds two equal values separately and one that differs in a
field; the field names are listed here, not read off the class, so the
contract does not depend on how a class is written."""

import copy
from fractions import Fraction
from pathlib import Path as FsPath

import pytest

from quivercalc.cohomology import (
    HomExtResult,
    RationalRepresentation,
    TangentPresentation,
    projective_representation,
    tangent_presentation,
)
from quivercalc.core import (
    AcyclicityCertificate,
    DimensionVector,
    Path,
    PathCountMatrix,
    Quiver,
    StabilityParameter,
    is_acyclic,
    path_count_matrix,
)
from quivercalc.ff_oracle import EquivalenceReport, FiniteFieldRepresentation, Subspace
from quivercalc.framing import (
    FramedPartitionCheck,
    FramingResult,
    ReductionResult,
    double_frame,
    reduce,
    verify_framed_sign_partition,
)
from quivercalc.specfile import FramingSpec, OracleSpec, QuiverSpec, load_spec
from quivercalc.stability import AssumptionsReport, assumptions_report

FIXTURES = FsPath(__file__).parent / "fixtures"


def kronecker() -> Quiver:
    return Quiver(("1", "2"), (("1", "2"), ("1", "2")))


def a2() -> Quiver:
    return Quiver(("1", "2"), (("1", "2"),))


def framing(scale: int = 2) -> FramingResult:
    """Kronecker (2, 1), theta = (1, -2), framed at (1, 2)."""
    d = DimensionVector({"1": 2, "2": 1})
    return double_frame(kronecker(), d, StabilityParameter({"1": 1, "2": -2}), "1", "2", scale)


def ff_rep(entry: int) -> FiniteFieldRepresentation:
    return FiniteFieldRepresentation(a2(), 2, DimensionVector({"1": 1, "2": 1}), (((entry,),),))


# class -> (build(k), fields, hashable): build(0) twice gives two equal
# values, built apart; build(1) differs from them in a field.
CASES = {
    Quiver: (lambda k: [kronecker(), a2()][k], ("vertices", "arrows"), True),
    Path: (lambda k: Path("1", (k,)), ("source", "arrows"), True),
    AcyclicityCertificate: (lambda k: is_acyclic([kronecker(), Quiver("ab", ("ab", "ba"))][k]), ("acyclic", "topological_order", "cycle"), True),
    PathCountMatrix: (lambda k: path_count_matrix([kronecker(), a2()][k]), ("vertices", "entries"), True),
    TangentPresentation: (
        lambda k: tangent_presentation([kronecker(), a2()][k], DimensionVector({"1": 1, "2": 1})),
        ("phi_matrix", "psi_matrix"),
        True,
    ),
    RationalRepresentation: (
        lambda k: projective_representation(kronecker(), "12"[k]),
        ("quiver", "dims", "arrow_matrices"),
        True,
    ),
    HomExtResult: (
        lambda k: HomExtResult(1, k, ({"1": ((Fraction(1),),)},)),
        ("hom_dim", "ext_dim", "hom_basis"),
        False,
    ),
    FramingResult: (
        lambda k: framing(2 + k),
        (
            "framed_quiver", "framed_dimension", "framed_stability", "framing_scale", "framed_at",
            "source_vertex", "sink_vertex", "base_quiver", "base_dimension", "base_stability",
        ),
        True,
    ),
    ReductionResult: (
        lambda k: reduce(framing(2 + k)),
        ("reduced_quiver", "reduced_dimension", "reduced_stability", "marked_vertices", "connecting_paths", "case_tag", "arrow_map", "framing"),
        True,
    ),
    FramedPartitionCheck: (
        lambda k: verify_framed_sign_partition(framing(2 - k)),
        ("passed", "checked", "discrepancies", "discrepancy_count"),
        True,
    ),
    FramingSpec: (lambda k: FramingSpec("1", "2", [None, 2][k]), ("i", "j", "scale"), True),
    OracleSpec: (lambda k: OracleSpec(seed=k), ("prime", "budget", "seed"), True),
    QuiverSpec: (
        lambda k: load_spec(FIXTURES / ["kronecker.json", "a2.json"][k]),
        ("quiver", "dimension", "stability", "framing", "oracle"),
        True,
    ),
    AssumptionsReport: (
        lambda k: assumptions_report(
            kronecker(), DimensionVector({"1": 2, "2": 2}), StabilityParameter({"1": 1 - k, "2": k - 1})
        ),
        ("acyclic", "indivisible", "coprime", "strongly_amply_stable", "amply_stable", "failing_witnesses", "failing_witness_counts"),
        False,
    ),
    FiniteFieldRepresentation: (lambda k: ff_rep([3, 0][k]), ("quiver", "prime", "dims", "arrow_matrices"), True),
    Subspace: (lambda k: Subspace(((1, k),), (0,)), ("rows", "pivots"), True),
    EquivalenceReport: (
        lambda k: EquivalenceReport(instances_checked=4, failures=(), failure_count=0, sampled=bool(k)),
        ("instances_checked", "failures", "failure_count", "sampled", "notes"),
        True,
    ),
}

NOT_TUPLES = {Quiver, Path}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_value_type_contract(cls):
    build, fields, hashable = CASES[cls]
    a, b, other = build(0), build(0), build(1)
    assert type(a) is type(b) is type(other) is cls and a is not b
    values = tuple(getattr(a, f) for f in fields)

    # Frozen: no field can be assigned or deleted.
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(other, f))
        with pytest.raises(AttributeError):
            delattr(a, f)
    assert tuple(getattr(a, f) for f in fields) == values

    # Equal by the fields, hashed as their tuple (or unhashable where a
    # field is), and shown as a frozen dataclass shows itself.
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != object() and a != None  # noqa: E711
    if hashable:
        assert hash(a) == hash(b) == hash(values)
        assert len({a, b, other}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)
    shown = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields)
    assert repr(a) == f"{cls.__name__}({shown})"
    duplicate = copy.copy(a)
    assert type(duplicate) is cls and duplicate == a

    if cls in NOT_TUPLES:
        assert a != values and values != a
        assert len({a: 0, values: 1}) == 2
