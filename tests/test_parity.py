"""tools/parity.py: one child per tree runs every invocation, and the
comparison counts and shows a difference planted in one outcome."""

import importlib.util
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"

_spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def test_the_comparison_reports_a_planted_difference(tmp_path):
    spec = str(FIXTURES / "kronecker.json")
    argvs = [["analyze", spec], ["analyze", spec, "--json"], ["frame", str(tmp_path / "missing.json")]]
    ours = parity.run_tree(ROOT / "src", argvs, tmp_path)
    assert [outcome[0] for outcome in ours] == [0, 0, 2]
    assert '  "hh1": 3,\n' in ours[1][1]

    theirs = [list(outcome) for outcome in ours]
    out = io.StringIO()
    assert parity.compare(argvs, ours, theirs, out) == 0
    assert out.getvalue() == "3 invocations, 0 differences\nexit codes here: 0: 2, 2: 1\n"

    theirs[1][1] = theirs[1][1].replace('"hh1": 3,', '"hh1": 4,')
    out = io.StringIO()
    assert parity.compare(argvs, ours, theirs, out) == 1
    lines = out.getvalue().splitlines()
    assert lines[:3] == [
        "3 invocations, 1 differences",
        "exit codes here: 0: 2, 2: 1",
        f"first difference: quivercalc analyze {spec} --json",
    ]
    assert '-    "hh1": 4,' in lines and '+    "hh1": 3,' in lines
    assert not any(line.startswith(("--- exit code", "--- stderr")) for line in lines)
