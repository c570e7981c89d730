"""tools/parity.py: one child per tree runs every invocation, and the
comparison counts and shows a difference planted in one outcome, on stdout
or in the bytes written to ``--out``; ``--allow`` passes a difference only
at its key paths."""

import importlib.util
import io
import json
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


def test_an_allowed_key_path_passes_only_its_own_difference():
    """``--allow`` hides a difference at its key paths of a JSON report, on
    stdout or in ``--out``, and nothing else."""
    document = {"schema_version": 2, "command": "analyze", "stats": {"ms": 1, "points": 4}, "hh1": 3}
    report = json.dumps(document, indent=2) + "\n"
    bumped = report.replace('"schema_version": 2', '"schema_version": 3').replace('"ms": 1', '"ms": 7')
    argvs = [["analyze", "a.json", "--json"], ["analyze", "a.json", "--json", "--out", "r.json"], ["analyze", "a.json"]]
    theirs = [[0, report, "", None], [0, "", "", report], [0, "hh1: 3\n", "", None]]
    ours = [[0, bumped, "", None], [0, "", "", bumped], [0, "hh1: 3\n", "", None]]

    assert parity.compare(argvs, ours, theirs, io.StringIO()) == 2
    for allow in (("schema_version", "stats"), ("stats.ms", "schema_version")):
        out = io.StringIO()
        assert parity.compare(argvs, ours, theirs, out, allow=allow) == 0
        assert out.getvalue() == (
            "3 invocations, 0 differences\n"
            f"2 more differ only at the allowed key paths {', '.join(allow)}\n"
            "exit codes here: 0: 3\n"
        )
    for allow in (("schema_version",), ("stats.points", "schema_version")):
        assert parity.compare(argvs, ours, theirs, io.StringIO(), allow=allow) == 2

    # Any other difference still fails: another key, the key order, the
    # exit code, stderr, and human output.
    reordered = json.dumps({"schema_version": 3, "hh1": 3, "command": "analyze"}, indent=2) + "\n"
    changes = [
        (0, 1, bumped.replace('"hh1": 3', '"hh1": 4')),
        (1, 3, reordered),
        (0, 0, 1),
        (1, 2, "quivercalc: warning\n"),
        (2, 1, "hh1: 4\n"),
    ]
    for k, field, value in changes:
        changed = [list(outcome) for outcome in ours]
        changed[k][field] = value
        out = io.StringIO()
        assert parity.compare(argvs, changed, theirs, out, allow=("schema_version", "stats")) == 1, (k, field)
        lines = out.getvalue().splitlines()
        allowed_only = 1 if k < 2 else 2
        assert lines[:2] == [
            "3 invocations, 1 differences",
            f"{allowed_only} more differ only at the allowed key paths schema_version, stats",
        ]
        assert lines[3] == "first difference: quivercalc " + " ".join(argvs[k])
