"""What each command imports: no jsonschema at run time, no dataclasses
(nor the inspect it pulls in) at all, cohomology with its exact rationals
(linalg, fractions, decimal) only for ``analyze``, the finite-field oracle
only for ``verify``, and no private name of a framed computation.
What the package exports: each ``__all__`` lists its module's public
functions and classes, and names deleted for want of a caller stay gone."""

import ast
import functools
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import quivercalc
from quivercalc import ff_oracle

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(quivercalc.__file__).resolve().parent.parent

# Each step runs in the same fresh interpreter, in this order, and prints the
# watched modules loaded so far: the import itself, then the commands that
# need neither cohomology nor the oracle.
_PROBE = """
import contextlib, io, json, sys
watched = (
    "jsonschema", "dataclasses", "inspect", "fractions", "decimal",
    "quivercalc.cohomology", "quivercalc.linalg", "quivercalc.ff_oracle",
)
loaded = lambda: [m for m in watched if m in sys.modules]
import quivercalc.cli
steps = {"import": loaded()}
for command in ("frame", "reduce", "analyze", "verify"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = quivercalc.cli.main([command, sys.argv[1], "--json"])
    steps[command] = [code, loaded()]
print(json.dumps(steps))
"""

FF_ORACLE_NAMES = [
    "EquivalenceReport",
    "FiniteFieldRepresentation",
    "Subspace",
    "gaussian_binomial",
    "path_semiinvariant",
    "random_group_element",
    "random_representation",
    "subspace_count",
    "subspaces_of",
    "verify_double_framing_equivalence",
    "verify_semiinvariant_weight",
]

# Library names no command, acceptance criterion or roadmap item calls, each
# with the module it left.  has_cyclic_destabilizer, enumerate_subrepresentations
# and reduction_path_map moved to tests/oracles.py; the weight-law trials went
# with verify's weight-law entry (schema version 2); the stability wrappers,
# the framed assumptions report, weight-one characters, mat_mul, spec
# serialization and enumerate_representations had only test callers;
# identity was folded into mod_invert, its one caller; the item and length
# methods of path count tables and paths had no caller; the zero test of
# vertex vectors, the dimension of F_p subspaces and the first discrepancy
# of a framed check were read only by tests; and the warning of overridden
# vector fields went with the library's override, which only
# ``analyze --override-assumptions`` keeps; the sum and difference of
# dimension vectors had only test callers (their order too, which
# ``test_vertex_vector_contract`` pins as a TypeError, since ``object``
# keeps a ``__le__``); King's test of one point, with its verdict and the
# search's two readers of chosen indices, had only test callers once the
# framed check read King's test off the base search.  A dotted name is an
# attribute of a class.
GONE_FROM_THE_PACKAGE = {
    "has_cyclic_destabilizer": "ff_oracle",
    "enumerate_subrepresentations": "ff_oracle",
    "WeightLawReport": "ff_oracle",
    "weight_law_trials": "ff_oracle",
    "enumerate_representations": "ff_oracle",
    "SignPartition": "stability",
    "sign_partition": "stability",
    "subdimension_vectors": "stability",
    "is_theta_coprime": "stability",
    "is_strongly_amply_stable": "stability",
    "framed_assumptions_report": "framing",
    "reduction_path_map": "framing",
    "Character": "core",
    "weight_one_character": "core",
    "Quiver.adjacency_matrix": "core",
    "VertexVector.vertex_set": "core",
    "PathCountMatrix.__getitem__": "core",
    "Path.__len__": "core",
    "VertexVector.is_zero": "core",
    "DimensionVector.__add__": "core",
    "DimensionVector.__sub__": "core",
    "Subspace.dim": "ff_oracle",
    "king_stability": "ff_oracle",
    "StabilityVerdict": "ff_oracle",
    "_SubrepSearch.subspaces": "ff_oracle",
    "_SubrepSearch.dimension": "ff_oracle",
    "FramedPartitionCheck.first_discrepancy": "framing",
    "UnverifiedAssumptionWarning": "cohomology",
    "DivisibleDimensionVectorError": "errors",
    "mat_mul": "linalg",
    "identity": "linalg",
    "dump_spec": "specfile",
    "spec_to_dict": "specfile",
}


def _public_functions_and_classes(module):
    """The functions and classes a module defines under a public name."""
    return {
        name
        for name, value in vars(module).items()
        if not name.startswith("_") and callable(value) and getattr(value, "__module__", None) == module.__name__
    }


def test_only_verify_loads_the_oracle_and_nothing_loads_jsonschema():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(FIXTURES / "kronecker.json")],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    rationals = ["fractions", "decimal", "quivercalc.cohomology", "quivercalc.linalg"]
    assert json.loads(done.stdout) == {
        "import": [],
        "frame": [0, []],
        "reduce": [0, []],
        "analyze": [0, rationals],
        "verify": [0, [*rationals, "quivercalc.ff_oracle"]],
    }


@pytest.mark.parametrize("name", FF_ORACLE_NAMES)
def test_oracle_names_resolve_from_the_package(name):
    assert getattr(quivercalc, name) is getattr(ff_oracle, name)


def test_the_oracle_names_are_one_list():
    listed = {name for name in ff_oracle.__all__ if callable(getattr(ff_oracle, name))}
    assert quivercalc._FF_ORACLE_NAMES == set(FF_ORACLE_NAMES) == listed


@pytest.mark.parametrize("name", GONE_FROM_THE_PACKAGE)
def test_moved_names_are_gone_from_the_package(name):
    module = importlib.import_module(f"quivercalc.{GONE_FROM_THE_PACKAGE[name]}")
    *owners, attr = name.split(".")
    assert not hasattr(functools.reduce(getattr, owners, module), attr)
    assert attr not in getattr(module, "__all__", ())
    assert owners or not hasattr(quivercalc, attr)


def test_every_all_lists_exactly_the_public_functions_and_classes():
    modules = [importlib.import_module(f"quivercalc.{m.name}") for m in pkgutil.iter_modules(quivercalc.__path__)]
    checked = [module for module in modules if hasattr(module, "__all__")]
    assert len(checked) >= 5
    for module in checked:
        assert all(hasattr(module, name) for name in module.__all__), module.__name__
        listed = {name for name in module.__all__ if callable(getattr(module, name))}
        assert listed == _public_functions_and_classes(module), module.__name__


def test_report_imports_only_public_names_of_the_framed_computations():
    tree = ast.parse((SRC / "quivercalc" / "report.py").read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in ("framing", "ff_oracle")
        for alias in node.names
    ]
    assert ("ff_oracle", "verify_double_framing_equivalence") in imported
    assert [name for name in imported if name[1].startswith("_")] == []


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        quivercalc.no_such_name
