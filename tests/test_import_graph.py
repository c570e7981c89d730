"""What each command imports: no jsonschema at run time, the finite-field
oracle only for ``verify``, and no private name of a framed computation."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quivercalc
from quivercalc import ff_oracle

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(quivercalc.__file__).resolve().parent.parent

# Each step runs in the same fresh interpreter, in this order, and prints the
# watched modules loaded so far.
_PROBE = """
import contextlib, io, json, sys
watched = ("jsonschema", "quivercalc.ff_oracle")
loaded = lambda: [m for m in watched if m in sys.modules]
import quivercalc.cli
steps = {"import": loaded()}
for command in ("analyze", "frame", "reduce", "verify"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = quivercalc.cli.main([command, sys.argv[1], "--json"])
    steps[command] = [code, loaded()]
print(json.dumps(steps))
"""

FF_ORACLE_NAMES = [
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
]

# Library names no command calls: has_cyclic_destabilizer moved to
# tests/oracles.py with its tests, and the weight-law trials went with
# verify's weight-law entry (schema version 2).
GONE_FROM_THE_PACKAGE = ["has_cyclic_destabilizer", "WeightLawReport", "weight_law_trials"]


def test_only_verify_loads_the_oracle_and_nothing_loads_jsonschema():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(FIXTURES / "kronecker.json")],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert json.loads(done.stdout) == {
        "import": [],
        "analyze": [0, []],
        "frame": [0, []],
        "reduce": [0, []],
        "verify": [0, ["quivercalc.ff_oracle"]],
    }


@pytest.mark.parametrize("name", FF_ORACLE_NAMES)
def test_oracle_names_resolve_from_the_package(name):
    assert getattr(quivercalc, name) is getattr(ff_oracle, name)


@pytest.mark.parametrize("name", GONE_FROM_THE_PACKAGE)
def test_moved_names_are_gone_from_the_package(name):
    assert name not in ff_oracle.__all__
    assert not hasattr(ff_oracle, name)
    assert not hasattr(quivercalc, name)


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
