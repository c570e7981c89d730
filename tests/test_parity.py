"""tools/parity.py: one child per tree runs every invocation, and the
comparison counts and shows a difference planted in one outcome, on stdout
or in the bytes written to ``--out``."""

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
    report = str(tmp_path / "report.json")
    argvs = [
        ["analyze", spec],
        ["analyze", spec, "--json"],
        ["frame", str(tmp_path / "missing.json")],
        ["analyze", spec, "--json", "--out", report],
    ]
    ours = parity.run_tree(ROOT / "src", argvs, tmp_path)
    assert [outcome[0] for outcome in ours] == [0, 0, 2, 0]
    assert '  "hh1": 3,\n' in ours[1][1]
    assert [outcome[3] for outcome in ours[:3]] == [None] * 3
    assert ours[3] == [0, "", "", ours[1][1]]
    assert not Path(report).exists()

    theirs = [list(outcome) for outcome in ours]
    out = io.StringIO()
    assert parity.compare(argvs, ours, theirs, out) == 0
    assert out.getvalue() == "4 invocations, 0 differences\nexit codes here: 0: 3, 2: 1\n"

    theirs[1][1] = theirs[1][1].replace('"hh1": 3,', '"hh1": 4,')
    out = io.StringIO()
    assert parity.compare(argvs, ours, theirs, out) == 1
    lines = out.getvalue().splitlines()
    assert lines[:3] == [
        "4 invocations, 1 differences",
        "exit codes here: 0: 3, 2: 1",
        f"first difference: quivercalc analyze {spec} --json",
    ]
    assert '-    "hh1": 4,' in lines and '+    "hh1": 3,' in lines
    assert not any(line.startswith(("--- exit code", "--- stderr", "--- --out file")) for line in lines)

    theirs = [list(outcome) for outcome in ours]
    theirs[3][3] = theirs[3][3].replace('"hh1": 3,', '"hh1": 4,')
    out = io.StringIO()
    assert parity.compare(argvs, ours, theirs, out) == 1
    lines = out.getvalue().splitlines()
    assert lines[2] == f"first difference: quivercalc analyze {spec} --json --out {report}"
    assert "--- --out file (against)" in lines and "+++ --out file (here)" in lines
    assert '-    "hh1": 4,' in lines and '+    "hh1": 3,' in lines
    assert not any(line.startswith(("--- exit code", "--- stdout", "--- stderr")) for line in lines)
