"""tools/parity.py: one child per tree runs every invocation, and the
comparison counts and shows a difference planted in one outcome, on stdout
or in the bytes written to ``--out``; ``--allow`` passes a difference only
at its key paths, in human output only where the rendered dicts differ there
and this tree's renderer gives the other side's text."""

import importlib.util
import io
import json
import shutil
from pathlib import Path

from quivercalc.report import render_human

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
    assert ours[3] == [0, "", "", ours[1][1], None]
    assert not Path(report).exists()
    # Only the human invocation records the dict it rendered, and the
    # renderer child gives back its text.
    assert ours[0][4] == json.loads(ours[1][1])
    assert [outcome[4] for outcome in ours[1:]] == [None] * 3
    assert parity.render_tree(ROOT / "src", [ours[0][4], None], tmp_path) == [ours[0][1], None]

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
    theirs = [[0, report, "", None, None], [0, "", "", report, None], [0, "hh1: 3\n", "", None, {"hh1": 3}]]
    ours = [[0, bumped, "", None, None], [0, "", "", bumped, None], [0, "hh1: 3\n", "", None, {"hh1": 3}]]

    assert parity.compare(argvs, ours, theirs, io.StringIO()) == 2
    for allow in (("schema_version", "stats"), ("stats.ms", "schema_version")):
        out = io.StringIO()
        assert parity.compare(argvs, ours, theirs, out, allow=allow) == 0
        assert out.getvalue() == (
            "3 invocations, 0 differences\n"
            f"2 more differ only at the allowed key paths {', '.join(allow)} (2 JSON, 0 human)\n"
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
            f"{allowed_only} more differ only at the allowed key paths schema_version, stats ({allowed_only} JSON, 0 human)",
        ]
        assert lines[3] == "first difference: quivercalc " + " ".join(argvs[k])


def test_a_human_difference_passes_only_as_an_allowed_change_of_the_rendered_dict(tmp_path):
    """A human pair passes when the dicts rendered differ only at allowed key
    paths and this tree's renderer gives the other side's text from its
    dict; a renderer edit elsewhere, or a dict difference at another key,
    still fails."""
    argvs = [["analyze", str(FIXTURES / "kronecker.json")]]
    ours = parity.run_tree(ROOT / "src", argvs, tmp_path)
    allow = ("dimensions.endomorphism_total",)

    def against(report, text=None):
        text = render_human(report) if text is None else text
        theirs = [[0, text, "", None, report]]
        out = io.StringIO()
        return parity.compare(argvs, ours, theirs, out, allow=allow, rerendered=[render_human(report)]), out.getvalue()

    report = json.loads(json.dumps(ours[0][4]))
    report["dimensions"]["endomorphism_total"] += 7
    assert against(report) == (0, (
        "1 invocations, 0 differences\n"
        "1 more differ only at the allowed key paths dimensions.endomorphism_total (0 JSON, 1 human)\n"
        "exit codes here: 0: 1\n"
    ))
    # Without the rendering of the other side's dict, the pair fails.
    assert parity.compare(argvs, ours, [[0, render_human(report), "", None, report]], io.StringIO(), allow=allow) == 1

    edited = render_human(report).replace("first Hochschild cohomology", "HH^1")
    assert against(report, edited)[0] == 1
    report["dimensions"]["hh1"] += 1
    assert against(report)[0] == 1


def test_a_human_text_the_renderer_did_not_make_records_no_dict(tmp_path):
    """A command that writes more than render_human's text records no dict,
    so its human output is compared as text."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "quivercalc", src / "quivercalc", ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "quivercalc" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert "else render_human(report)\n" in text
    cli.write_text(text.replace("else render_human(report)\n", "else render_human(report) + \"!\"\n"), encoding="utf-8")
    argvs = [["analyze", str(FIXTURES / "kronecker.json")]]
    edited = parity.run_tree(src, argvs, tmp_path)
    assert edited[0][1].endswith("!") and edited[0][4] is None
    ours = parity.run_tree(ROOT / "src", argvs, tmp_path)
    assert parity.compare(argvs, edited, ours, io.StringIO(), allow=("schema_version",), rerendered=[ours[0][1]]) == 1
