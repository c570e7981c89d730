import contextlib
import functools
import io
import json
import re
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quivercalc import MINIMAL_FRAMING_SCALE, AssumptionViolatedError, double_frame, load_spec, reduce
from quivercalc.cli import main
from quivercalc.core import PRIME_LIMIT
from quivercalc.report import REPORT_SCHEMA
from quivercalc.stability import LATTICE_BUDGET, MAX_WITNESSES

from conftest import spec_documents

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_analyze_three_vertex_passes(capsys):
    code, report, _ = run_json(capsys, "analyze", FIXTURES / "threevertex.json")
    assert code == 0
    assert report["exit_code"] == 0
    assert report["dimensions"]["hh1"] == 6
    assert report["dimensions"]["vector_fields"]["value"] == 6
    assert report["assumptions"]["amply_stable"] == "yes"
    jsonschema.validate(report, REPORT_SCHEMA)


def test_analyze_alt_chamber_fails_with_refusal(capsys):
    code, report, _ = run_json(capsys, "analyze", FIXTURES / "threevertex_alt.json")
    assert code == 1
    assert report["assumptions"]["strongly_amply_stable"] is False
    assert report["dimensions"]["vector_fields"] == {"refused": "strong ample stability"}
    witnesses = report["assumptions"]["failing_witnesses"]["strongly_amply_stable"]
    assert witnesses == [{"1": 1, "2": 0, "3": 1}]
    jsonschema.validate(report, REPORT_SCHEMA)


def test_analyze_alt_chamber_with_override(capsys):
    code, report, _ = run_json(
        capsys, "analyze", FIXTURES / "threevertex_alt.json", "--override-assumptions"
    )
    assert code == 1  # hypotheses still fail even though the value is shown
    assert report["dimensions"]["vector_fields"]["value"] == 6
    assert report["dimensions"]["vector_fields"]["override"] is True


def test_analyze_override_on_disconnected_quiver_refuses_the_formula(capsys, tmp_path):
    doc = {
        "vertices": ["1", "2", "3"],
        "arrows": [{"from": "1", "to": "2"}],
        "dimension": {"1": 1, "2": 1, "3": 1},
        "stability": {"1": 1, "2": -1, "3": 0},
    }
    spec = tmp_path / "disconnected.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    code, report, _ = run_json(capsys, "analyze", spec, "--override-assumptions")
    assert code == 1
    refused = {"refused": "the presentation requires a connected quiver"}
    assert report["dimensions"]["vector_fields"] == refused
    assert report["verifications"] == []


# The 3-Kronecker 1 => 2 with an arrow 2 -> 3 and d = (1, 1, 0).
KRONECKER3_ZERO = {
    "vertices": ["1", "2", "3"],
    "arrows": [{"from": "1", "to": "2"}] * 3 + [{"from": "2", "to": "3"}],
    "dimension": {"1": 1, "2": 1, "3": 0},
    "stability": {"1": 1, "2": -1, "3": 0},
}


def test_analyze_tables_the_endomorphisms_on_the_support_of_d(capsys, tmp_path):
    """The 3-Kronecker 1 => 2 with an arrow 2 -> 3 and d = (1, 1, 0): U_3 = 0,
    so paths through 3 act as zero on U and the table is the 3-Kronecker's,
    total 5, where Q has 10 paths; JSON and human say the same."""
    spec = tmp_path / "kronecker3_zero.json"
    spec.write_text(json.dumps(KRONECKER3_ZERO), encoding="utf-8")
    code, report, _ = run_json(capsys, "analyze", spec)
    assert code == 0
    dimensions = report["dimensions"]
    assert dimensions["endomorphism_table"] == {"vertices": ["1", "2"], "path_counts": [[1, 3], [0, 1]]}
    assert dimensions["endomorphism_total"] == 5
    jsonschema.validate(report, REPORT_SCHEMA)
    code, human, _ = run(capsys, "analyze", spec)
    assert code == 0
    assert (
        "  endomorphism algebra total: 5\n"
        "  path count table (rows = from, columns = to):\n"
        "    1 2\n"
        "    1: 1 3\n"
        "    2: 0 1\n"
        "  first Hochschild cohomology: "
    ) in human


def test_analyze_output_on_a_long_chain_is_bounded_by_the_support(capsys, tmp_path):
    """A 1,000-vertex chain with d on two vertices: the table has two rows,
    so the whole --json report stays under 256 KB."""
    vertices = [str(k) for k in range(1000)]
    doc = {
        "vertices": vertices,
        "arrows": [{"from": s, "to": t} for s, t in zip(vertices, vertices[1:])],
        "dimension": {v: int(v in ("500", "501")) for v in vertices},
        "stability": {v: {"500": 1, "501": -1}.get(v, 0) for v in vertices},
    }
    spec = tmp_path / "chain.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "analyze", spec, "--json")
    assert code == 1  # the thin A_2 datum on the support fails the strong criterion
    assert len(out.encode("utf-8")) <= 256 * 1024
    report = json.loads(out)
    assert report["dimensions"]["endomorphism_table"] == {"vertices": ["500", "501"], "path_counts": [[1, 1], [0, 1]]}
    jsonschema.validate(report, REPORT_SCHEMA)


def test_the_schema_bounds_the_endomorphism_table(capsys):
    """A supported vertex at least doubles the lattice, so a table under the
    lattice budget has at most LATTICE_BUDGET.bit_length() - 1 rows: a real
    report and a table of that many rows validate, one more row fails."""
    _, report, _ = run_json(capsys, "analyze", FIXTURES / "threevertex.json")
    jsonschema.validate(report, REPORT_SCHEMA)
    rows = LATTICE_BUDGET.bit_length() - 1
    assert 2**rows <= LATTICE_BUDGET < 2 ** (rows + 1)
    for n, valid in ((rows, True), (rows + 1, False)):
        report["dimensions"]["endomorphism_table"] = {
            "vertices": [str(k) for k in range(n)],
            "path_counts": [[int(i <= j) for j in range(n)] for i in range(n)],
        }
        if valid:
            jsonschema.validate(report, REPORT_SCHEMA)
        else:
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(report, REPORT_SCHEMA)


def test_analyze_malformed_file_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code, out, err = run(capsys, "analyze", bad)
    assert code == 2
    assert "input error" in err


def test_analyze_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent.json")
    assert code == 2


def test_frame_kronecker(capsys):
    code, report, _ = run_json(capsys, "frame", FIXTURES / "kronecker.json", "1", "2")
    assert code == 0
    framed = report["framing"]["framed_datum"]
    assert framed["stability"] == {"0": 1, "1": 2, "2": -2, "∞": -1}
    assert report["verifications"][0]["passed"] is True
    jsonschema.validate(report, REPORT_SCHEMA)


def test_frame_at_scale_one_fails(capsys):
    code, report, _ = run_json(capsys, "frame", FIXTURES / "kronecker.json", "--scale", "1")
    assert code == 1
    check = report["verifications"][0]
    assert check["passed"] is False
    assert check["discrepancies"] == [
        {"vector": {"0": 0, "1": 1, "2": 0, "∞": 1}, "expected": "plus", "actual": "zero"},
        {"vector": {"0": 1, "1": 0, "2": 1, "∞": 0}, "expected": "minus", "actual": "zero"},
    ]
    assert "discrepancy_count" not in check


def test_frame_at_scale_one_bounds_its_discrepancy_list(capsys, tmp_path):
    """A 16-vertex thin chain with theta alternating +1/-1, framed at its
    ends at scale 1, has 22,880 discrepancies; the report lists the first
    MAX_WITNESSES in order, plus ones first, and counts them all."""
    vertices = [str(k) for k in range(1, 17)]
    doc = {
        "vertices": vertices,
        "arrows": [{"from": s, "to": t} for s, t in zip(vertices, vertices[1:])],
        "dimension": dict.fromkeys(vertices, 1),
        "stability": {v: 1 if int(v) % 2 else -1 for v in vertices},
    }
    spec = tmp_path / "alternating_chain16.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "frame", spec, "1", "16", "--scale", "1", "--json")
    report = json.loads(out)
    check = report["verifications"][0]
    assert (code, report["exit_code"], check["passed"], check["checked"]) == (1, 1, False, 4 * 2**16)
    assert check["discrepancy_count"] == 22_880
    listed = check["discrepancies"]
    assert len(listed) == MAX_WITNESSES == 32
    assert listed[0] == {"vector": {"0": 0, **{v: int(v == "15") for v in vertices}, "∞": 1}, "expected": "plus", "actual": "zero"}
    assert listed[-1] == {"vector": {"0": 0, **{v: int(v in ("9", "11", "16")) for v in vertices}, "∞": 1}, "expected": "plus", "actual": "zero"}
    assert len(out.encode("utf-8")) <= 64 * 1024
    jsonschema.validate(report, REPORT_SCHEMA)


def test_frame_unknown_vertex_exits_two(capsys):
    code, _, err = run(capsys, "frame", FIXTURES / "kronecker.json", "1", "zzz")
    assert code == 2


def test_frame_uses_framing_block_when_vertices_omitted(capsys):
    code, report, _ = run_json(capsys, "frame", FIXTURES / "threevertex.json")
    assert code == 0
    assert report["framing"]["framed_at"] == {"i": "2", "j": "3"}


def test_frame_and_reduce_take_the_spec_framing_scale(capsys, tmp_path):
    doc = json.loads((FIXTURES / "kronecker.json").read_text())
    doc["framing"]["scale"] = 3
    spec = tmp_path / "kronecker_scale3.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("frame", "reduce", "verify"):
        _, report, _ = run_json(capsys, command, spec)
        assert report["framing"]["scale"] == 3
        _, report, _ = run_json(capsys, command, spec, "--scale", "4")
        assert report["framing"]["scale"] == 4
    for command in ("frame", "reduce"):
        # Explicit vertices take --scale or the minimal scale, not the block's.
        _, report, _ = run_json(capsys, command, spec, "1", "2")
        assert report["framing"]["scale"] == 2
        _, report, _ = run_json(capsys, command, spec, "1", "2", "--scale", "4")
        assert report["framing"]["scale"] == 4


@pytest.mark.parametrize("command", ["frame", "reduce"])
def test_framed_vertices_missing_exit_two(capsys, tmp_path, command):
    doc = json.loads((FIXTURES / "kronecker.json").read_text())
    del doc["framing"]
    spec = tmp_path / "noframing.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    cases = [
        ((spec,), "no framing vertices: pass i and j or add a framing block to the spec"),
        ((FIXTURES / "kronecker.json", "1"), "either give both vertices i and j or neither"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, command, *argv)
        assert (code, out, err) == (2, "", f"quivercalc: input error: {message}\n")


def _kronecker_framed_at(i, j):
    doc = json.loads((FIXTURES / "kronecker.json").read_text())
    doc["framing"].update(i=i, j=j)
    return json.dumps(doc)


def _kronecker_with_vertices(vertices):
    doc = json.loads((FIXTURES / "kronecker.json").read_text())
    doc["vertices"] = vertices
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text, message",
    [
        (_kronecker_framed_at("z", "2"), "$.framing.i: undeclared vertex 'z'"),
        (_kronecker_framed_at("1", "y"), "$.framing.j: undeclared vertex 'y'"),
        (_kronecker_with_vertices(["1", "2", "1"]), "$.vertices.2: duplicate vertex '1'"),
        ('[{"vertices": ["1"]}]', "{path}: top-level value must be an object"),
        ('{"vertices": [' + "[" * 100_000 + "]" * 100_000 + "]}", "{path}: values nested too deeply"),
    ],
    ids=[
        "framing-i-undeclared",
        "framing-j-undeclared",
        "duplicate-vertex",
        "top-level-not-an-object",
        "nested-too-deeply",
    ],
)
def test_spec_refusals_exit_two_with_one_input_error_line(capsys, tmp_path, text, message):
    path = tmp_path / "spec.json"
    path.write_text(text, encoding="utf-8")
    for command in ("analyze", "frame", "reduce", "verify"):
        for fmt in ([], ["--json"]):
            code, out, err = run(capsys, command, path, *fmt)
            assert (code, out, err) == (2, "", f"quivercalc: input error: {message.format(path=path)}\n")


def test_a_library_error_exits_one_with_one_error_line(capsys, monkeypatch):
    from quivercalc import cli
    from quivercalc.errors import QuiverMismatchError

    def failing(spec, override_assumptions):
        raise QuiverMismatchError("representations must live over the same quiver")

    monkeypatch.setattr(cli, "build_analyze_report", failing)
    code, out, err = run(capsys, "analyze", FIXTURES / "kronecker.json", "--json")
    assert (code, out, err) == (1, "", "quivercalc: error: representations must live over the same quiver\n")


def test_main_builds_the_parser_once(capsys, monkeypatch):
    import argparse

    from quivercalc import cli

    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counting(self, *args, **kwargs):
        # Called once per build of the whole parser tree.
        built.append(self)
        return add_subparsers(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            assert run(capsys, "analyze", FIXTURES / "kronecker.json")[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_reduce_both_thin(capsys):
    code, report, _ = run_json(capsys, "reduce", FIXTURES / "threevertex.json", "2", "3")
    assert (code, report["exit_code"], report["verifications"]) == (0, 0, [])
    assert report["reduction"]["case"] == "both_thin"
    assert report["reduction"]["reduced_path_space_dim"] == report["reduction"]["base_path_space_dim"] == 2
    assert report["reduction"]["reduced_datum"]["stability"] == {"1": 2, "2": 1, "3": -3}
    jsonschema.validate(report, REPORT_SCHEMA)


def test_reduce_source_thin_formula(capsys):
    code, report, _ = run_json(capsys, "reduce", FIXTURES / "kronecker_d21.json")
    assert code == 0
    assert report["reduction"]["case"] == "source_thin"
    assert report["reduction"]["reduced_datum"]["stability"] == {"0": 3, "1": 7, "2": -17}


def test_reduce_a3_runs_with_coprime_parameter(capsys):
    code, report, _ = run_json(capsys, "reduce", FIXTURES / "a3.json", "1", "3")
    assert code == 0
    assert report["reduction"]["case"] == "both_thin"


def test_reduce_coprimality_failure_exits_one(capsys, tmp_path):
    doc = json.loads((FIXTURES / "a3.json").read_text())
    doc["stability"] = {"1": 1, "2": 0, "3": -1}  # canonical, vanishes on (0,1,0)
    bad = tmp_path / "a3_canonical.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, report, _ = run_json(capsys, "reduce", bad, "1", "3")
    assert code == 1
    assert "coprimality" in report["error"]["assumption"]


def test_verify_kronecker(capsys):
    code, report, _ = run_json(capsys, "verify", FIXTURES / "kronecker.json")
    assert code == 0
    equivalence = report["verifications"][0]
    assert equivalence["passed"] is True
    assert equivalence["points_checked"] == 16
    assert len(report["verifications"]) == 1
    jsonschema.validate(report, REPORT_SCHEMA)


def _count_sweeps_and_framings(monkeypatch) -> dict[str, int]:
    """The number of calls of ``_lattice_values`` and of ``double_frame``
    from here on, counted in every module of the package that reads them."""
    import quivercalc.ff_oracle
    import quivercalc.framing
    import quivercalc.report
    import quivercalc.stability

    calls = {"_lattice_values": 0, "double_frame": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name, home in (("_lattice_values", quivercalc.stability), ("double_frame", quivercalc.framing)):
        wrapper = counting(name, getattr(home, name))
        for module in (quivercalc.stability, quivercalc.framing, quivercalc.report, quivercalc.ff_oracle):
            monkeypatch.setattr(module, name, wrapper, raising=False)
    return calls


def test_verify_sweeps_the_lattice_and_frames_once(capsys, monkeypatch):
    calls = _count_sweeps_and_framings(monkeypatch)
    code, report, _ = run_json(capsys, "verify", FIXTURES / "kronecker.json")
    assert code == 0
    assert [v["passed"] for v in report["verifications"]] == [True]
    assert calls == {"_lattice_values": 1, "double_frame": 1}


@pytest.mark.parametrize("scale, passed", [("1", False), ("2", True)])
def test_frame_sweeps_the_lattice_twice_and_frames_once(capsys, monkeypatch, scale, passed):
    """One sweep for the base hypotheses, and at scale 1 one more for the
    framed sign partition; at scale 2 the scale lemma needs none."""
    calls = _count_sweeps_and_framings(monkeypatch)
    code, report, _ = run_json(capsys, "frame", FIXTURES / "kronecker.json", "--scale", scale)
    assert code == (0 if passed else 1)
    assert [v["passed"] for v in report["verifications"]] == [passed]
    assert calls == {"_lattice_values": 2 if scale == "1" else 1, "double_frame": 1}


def test_verify_prime_flag(capsys):
    code, report, _ = run_json(capsys, "verify", FIXTURES / "kronecker.json", "--prime", "3")
    assert code == 0
    assert report["verifications"][0]["points_checked"] == 81


RECORDED_VERIFY_RUNS = {
    "threekronecker_d23_budget320_seed5": ["threekronecker_d23.json", "--budget", "320", "--seed", "5"],
    "kronecker_prime3": ["kronecker.json", "--prime", "3"],
    "threevertex": ["threevertex.json"],
}


@pytest.mark.parametrize("recorded", RECORDED_VERIFY_RUNS)
def test_verify_json_bytes_equal_the_recorded_reports(capsys, recorded):
    """A sampled run, an exhaustive run over F_3 and a default run print the
    --json bytes recorded in tests/fixtures/verify, which fix every sampled
    point."""
    spec, *flags = RECORDED_VERIFY_RUNS[recorded]
    code, out, err = run(capsys, "verify", FIXTURES / spec, *flags, "--json")
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (FIXTURES / "verify" / f"{recorded}.json").read_bytes()


@pytest.mark.parametrize(
    "argv, first, lines",
    [
        (["kronecker.json", "--prime", "3", "--budget", "50"], "10 of 50 points checked in 5 s, about 20 s left", 21),
        (["kronecker_d21.json", "--prime", "3"], "270 of 2,187 points checked in 5 s, about 36 s left", 36),
    ],
    ids=["sampled", "exhaustive"],
)
def test_a_long_verify_prints_its_progress_on_stderr(capsys, monkeypatch, argv, first, lines):
    """With a clock that reads 0.5 s more at each base point, verify prints
    nothing on stderr for 5 s, then at most one progress line a second,
    with the points checked, the budget or total and the time left; stdout
    is that of a run with no progress line."""
    from quivercalc import ff_oracle

    spec, *flags = argv
    code, quiet, err = run(capsys, "verify", FIXTURES / spec, *flags, "--json")
    assert (code, err) == (0, "")
    reads = []

    def clock():
        reads.append(None)
        return (len(reads) - 1) / 2

    monkeypatch.setattr(ff_oracle, "monotonic", clock)
    code, out, err = run(capsys, "verify", FIXTURES / spec, *flags, "--json")
    assert (code, out) == (0, quiet)
    base_points = 50 if "--budget" in flags else 81
    assert len(reads) == base_points + 1  # once before the loop, then once per base point
    printed = err.splitlines()
    assert printed[0] == f"quivercalc: verify: {first}"
    assert len(printed) == lines and all(line.startswith("quivercalc: verify: ") for line in printed)


def test_verify_non_prime_exits_two(capsys):
    code, _, err = run(capsys, "verify", FIXTURES / "kronecker.json", "--prime", "4")
    assert code == 2
    assert "prime" in err


def test_verify_requires_framing_block(capsys, tmp_path):
    doc = json.loads((FIXTURES / "kronecker.json").read_text())
    del doc["framing"]
    spec = tmp_path / "noframing.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    code, report, _ = run_json(capsys, "verify", spec)
    assert code == 1
    assert "framing" in report["error"]["assumption"]


def test_out_flag_writes_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "analyze", FIXTURES / "threevertex.json", "--json", "--out", out)
    assert code == 0
    assert stdout == ""
    report = json.loads(out.read_text())
    assert report["dimensions"]["hh1"] == 6


@pytest.mark.parametrize("command", ["analyze", "frame", "reduce", "verify"])
def test_json_output_is_json_dumps_indent_2(capsys, tmp_path, command):
    budget = ["--budget", "400"] if command == "verify" else []
    for path in sorted(FIXTURES.glob("*.json")):
        code, out, _ = run(capsys, command, path, *budget, "--json")
        if code == 2:
            continue  # an input error writes no report
        assert out == json.dumps(json.loads(out), indent=2) + "\n", path.name
        target = tmp_path / "report.json"
        assert run(capsys, command, path, *budget, "--json", "--out", target) == (code, "", "")
        assert target.read_text(encoding="utf-8") == out, path.name


@pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["no_such_directory", "a_directory"])
def test_out_flag_unwritable_exits_two(capsys, tmp_path, target):
    code, stdout, err = run(capsys, "analyze", FIXTURES / "threevertex.json", "--out", tmp_path / target)
    assert code == 2
    assert stdout == ""
    assert err.startswith("quivercalc: input error: ")
    assert err.count("\n") == 1


# (argv, a line of the human rendering that the case exercises)
HUMAN_CASES = [
    *((("analyze", f), "dimensions:") for f in ("threevertex.json", "threevertex_alt.json", "kronecker.json")),
    (("frame", "threevertex.json"), "path space source to sink: 2"),
    (("frame", "kronecker.json", "--scale", "1"), "FAIL (checked=16)"),
    *((("reduce", f), "path space at marks:") for f in (
        "threekronecker_d23.json", "kronecker_d21.json", "kronecker_d12.json", "threevertex.json"
    )),
    (("verify", "kronecker.json"), "points_checked=16"),
    (("verify", "threekronecker_d23.json", "--budget", "320"), "sampled=320, sampled 320 of"),
]


def test_human_output_numbers_subset_of_json(capsys):
    for (command, fixture, *flags), shown in HUMAN_CASES:
        argv = (command, FIXTURES / fixture, *flags)
        code_h, human, _ = run(capsys, *argv)
        code_j, report, _ = run_json(capsys, *argv)
        assert code_h == code_j
        assert shown in human, (command, fixture)

        numbers: set[int] = set()

        def collect(node):
            if isinstance(node, bool):
                return
            if isinstance(node, int):
                numbers.add(node)
                numbers.add(abs(node))
            elif isinstance(node, dict):
                for key, value in node.items():
                    collect(key) if isinstance(key, int) else None
                    collect(value)
            elif isinstance(node, list):
                for value in node:
                    collect(value)
            elif isinstance(node, str):
                for match in re.findall(r"-?\d+", node):
                    numbers.add(int(match))
                    numbers.add(abs(int(match)))

        collect(report)
        for match in re.findall(r"-?\d+", human):
            assert int(match) in numbers or abs(int(match)) in numbers, (match, command, fixture)


def test_exit_code_corpus(capsys, tmp_path):
    # 0: all hypotheses verified; 1: a hypothesis fails; 2: malformed input
    assert run(capsys, "analyze", FIXTURES / "threevertex.json")[0] == 0
    assert run(capsys, "analyze", FIXTURES / "threevertex_alt.json")[0] == 1
    bad = tmp_path / "broken.json"
    bad.write_text('{"vertices": []}', encoding="utf-8")
    assert run(capsys, "analyze", bad)[0] == 2


def _a6_oversize(tmp_path, framing=False):
    """A6 chain with d = 40 everywhere: 41^6 lattice points, over budget."""
    vertices = [str(k) for k in range(1, 7)]
    doc = {
        "vertices": vertices,
        "arrows": [{"from": s, "to": t} for s, t in zip(vertices, vertices[1:])],
        "dimension": {v: 40 for v in vertices},
        "stability": {"1": 40, "2": 0, "3": 0, "4": 0, "5": 0, "6": -40},
    }
    if framing:
        doc["framing"] = {"i": "2", "j": "5"}
    path = tmp_path / "a6_oversize.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["analyze", "frame", "reduce", "verify"])
def test_over_budget_lattice_refuses_with_report(capsys, tmp_path, command):
    from quivercalc.stability import LATTICE_BUDGET

    spec = _a6_oversize(tmp_path, framing=True)
    start = time.perf_counter()
    code, report, _ = run_json(capsys, command, spec)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert report["exit_code"] == 1
    assert report["command"] == command
    assert "hypotheses" in report
    assert report["error"]["counted"] == "lattice points"
    assert report["error"]["size"] == 41**6
    assert report["error"]["budget"] == LATTICE_BUDGET
    jsonschema.validate(report, REPORT_SCHEMA)

    code_h, human, _ = run(capsys, command, spec)
    assert code_h == 1
    assert f"refused: {41**6} lattice points exceed the budget of {LATTICE_BUDGET}" in human
    assert human.endswith("exit code: 1\n")


def test_verify_over_budget_refuses_with_report(capsys):
    code, report, _ = run_json(capsys, "verify", FIXTURES / "kronecker.json", "--budget", "5")
    assert code == 1
    assert report["exit_code"] == 1
    assert "hypotheses" in report
    assert report["error"]["counted"] == "subspace tuples per point"
    assert report["error"]["budget"] == 5
    assert report["error"]["size"] > 5
    jsonschema.validate(report, REPORT_SCHEMA)


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_verify_budget_below_one_exits_two(capsys, budget):
    code, out, err = run(capsys, "verify", FIXTURES / "kronecker.json", "--budget", budget)
    assert code == 2
    assert out == ""
    assert "--budget must be at least 1" in err


def _cyclic_spec(tmp_path):
    doc = {
        "vertices": ["a", "b", "c"],
        "arrows": [{"from": "a", "to": "b"}, {"from": "b", "to": "c"}, {"from": "c", "to": "a"}],
        "dimension": {"a": 1, "b": 1, "c": 1},
        "stability": {"a": 2, "b": -1, "c": -1},
        "framing": {"i": "a", "j": "c"},
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# frame, reduce and verify pass one acyclicity gate, which names the cycle.
CYCLIC_ERROR = {
    "assumption": "acyclicity",
    "message": "assumption violated: acyclicity (cycle arrows (0, 1, 2))",
}


@pytest.mark.parametrize("command", ["frame", "reduce", "verify"])
def test_cyclic_quiver_refuses_with_report(capsys, tmp_path, command):
    spec = _cyclic_spec(tmp_path)
    code, report, err = run_json(capsys, command, spec)
    assert code == 1
    assert err == ""
    assert report["exit_code"] == 1
    assert report["command"] == command
    assert report["hypotheses"]["failed"] == ["acyclicity"]
    assert report["error"] == CYCLIC_ERROR
    jsonschema.validate(report, REPORT_SCHEMA)

    code_h, human, err_h = run(capsys, command, spec)
    assert code_h == 1
    assert err_h == ""
    assert human == f"command: {command}\nrefused: {CYCLIC_ERROR['message']}\nexit code: 1\n"


def test_library_reduce_refuses_a_cyclic_quiver_as_the_commands_do(capsys, tmp_path):
    doc = {
        "vertices": ["a", "b"],
        "arrows": [{"from": "a", "to": "b"}, {"from": "b", "to": "a"}],
        "dimension": {"a": 1, "b": 1},
        "stability": {"a": 1, "b": -1},
        "framing": {"i": "a", "j": "b"},
    }
    path = tmp_path / "two_cycle.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, report, _ = run_json(capsys, "reduce", path)
    assert code == 1

    spec = load_spec(path)
    framing = double_frame(spec.quiver, spec.dimension, spec.stability, "a", "b", MINIMAL_FRAMING_SCALE)
    with pytest.raises(AssumptionViolatedError) as excinfo:
        reduce(framing)
    assert excinfo.value.assumption == report["error"]["assumption"] == "acyclicity"
    assert str(excinfo.value) == report["error"]["message"] == "assumption violated: acyclicity (cycle arrows (0, 1))"


def _non_coprime_framed_spec(tmp_path):
    doc = json.loads((FIXTURES / "a3.json").read_text())
    doc["stability"] = {"1": 1, "2": 0, "3": -1}  # canonical, vanishes on (0,1,0)
    doc["framing"] = {"i": "1", "j": "3"}
    path = tmp_path / "a3_canonical.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "command, spec",
    [
        ("reduce", _cyclic_spec),
        ("verify", _non_coprime_framed_spec),
        ("verify", lambda tmp_path: FIXTURES / "threevertex_alt.json"),
    ],
    ids=["reduce-cyclic", "verify-non-coprime", "verify-no-framing-block"],
)
def test_assumption_refusal_says_why_in_human_output(capsys, tmp_path, command, spec):
    path = spec(tmp_path)
    code, report, _ = run_json(capsys, command, path)
    assert code == 1
    assert "assumption" in report["error"]
    code_h, human, err_h = run(capsys, command, path)
    assert code_h == 1
    assert err_h == ""
    assert human == f"command: {command}\nrefused: {report['error']['message']}\nexit code: 1\n"


@pytest.mark.parametrize("fixture", ["threevertex.json", "threevertex_alt.json", "kronecker3_zero.json"])
def test_analyze_computes_the_cokernel_and_hh1_once(capsys, monkeypatch, tmp_path, fixture):
    import quivercalc.cohomology
    import quivercalc.linalg
    import quivercalc.report
    from quivercalc.core import Quiver

    calls = {"hochschild1_dim": 0, "rref": 0}
    built = {"_acyclicity": [], "_path_columns": [], "_path_counts": [], "_components": []}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def building(name):
        original = vars(Quiver)[name].func

        def wrapper(q):
            built[name].append(q)
            return original(q)

        prop = functools.cached_property(wrapper)
        prop.__set_name__(Quiver, name)
        return prop

    for name in built:
        monkeypatch.setattr(Quiver, name, building(name))
    hh1 = counting(quivercalc.cohomology, "hochschild1_dim")
    monkeypatch.setattr(quivercalc.cohomology, "hochschild1_dim", hh1)
    monkeypatch.setattr(quivercalc.report, "hochschild1_dim", hh1, raising=False)  # analyze imports it on call
    monkeypatch.setattr(quivercalc.linalg, "rref", counting(quivercalc.linalg, "rref"))
    spec = FIXTURES / fixture
    if fixture == "kronecker3_zero.json":
        spec = tmp_path / fixture
        spec.write_text(json.dumps(KRONECKER3_ZERO), encoding="utf-8")
    _, report, _ = run_json(capsys, "analyze", spec)
    # The hypotheses decide the acyclicity of q first, then the table needs
    # that of the support quiver where d has zeros. Only the support
    # quiver's table is built; HH^1 reads q's packed columns, so on full
    # support the table and HH^1 share one set of columns. q's components
    # are found once, for HH^1 and for the vector-fields gate; no
    # elimination runs.
    q, *support = built["_acyclicity"]
    assert len(support) == (fixture == "kronecker3_zero.json")
    assert built["_path_counts"] == (support or [q])
    assert built["_path_columns"] == [*support, q]
    assert built["_components"] == [q]
    assert calls == {"hochschild1_dim": 1, "rref": 0}
    assert report["verifications"] == []
    assert report["dimensions"]["hh1"] == {"kronecker3_zero.json": 8}.get(fixture, 6)


@pytest.mark.parametrize("command", ["frame", "reduce", "verify"])
def test_framed_commands_decide_the_base_hypotheses_once(capsys, monkeypatch, command):
    """One sweep of the base datum per framed command, read through the
    framing's cached base_assumptions."""
    import quivercalc.framing
    import quivercalc.report
    import quivercalc.stability

    calls = []
    original = quivercalc.stability.assumptions_report

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (quivercalc.stability, quivercalc.framing, quivercalc.report):
        monkeypatch.setattr(module, "assumptions_report", counting)
    code, _, _ = run_json(capsys, command, FIXTURES / "kronecker.json")
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["reduce", "verify"])
def test_coprimality_refusal_names_the_witness_in_name_order(capsys, tmp_path, command):
    spec = _non_coprime_framed_spec(tmp_path)
    message = (
        "assumption violated: semistable = stable (theta-coprimality) "
        "(theta vanishes on proper subdimension vector (1: 0, 2: 1, 3: 0))"
    )
    code, report, _ = run_json(capsys, command, spec)
    assert code == 1
    assert report["error"]["message"] == message
    code_h, human, _ = run(capsys, command, spec)
    assert code_h == 1
    assert human == f"command: {command}\nrefused: {message}\nexit code: 1\n"


def _a6_oversize_with_oracle_prime(tmp_path, prime):
    path = _a6_oversize(tmp_path, framing=True)
    doc = json.loads(path.read_text())
    doc["oracle"] = {"prime": prime}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "spec, argv, message",
    [
        (lambda p: _a6_oversize(p, framing=True), ["verify", "--prime", "1"], "1 is not prime"),
        (lambda p: _a6_oversize(p, framing=True), ["verify", "--prime", "4"], "4 is not prime"),
        (lambda p: _a6_oversize_with_oracle_prime(p, 9), ["verify"], "9 is not prime"),
        (lambda p: _a6_oversize(p, framing=True), ["frame", "--scale", "0"], "framing scale must be a positive integer"),
        (lambda p: _a6_oversize(p, framing=True), ["reduce", "--scale", "-1"], "framing scale must be a positive integer"),
        (_non_coprime_framed_spec, ["verify", "--scale", "0"], "framing scale must be a positive integer"),
    ],
    ids=["a6-verify-prime-1", "a6-verify-prime-4", "a6-oracle-block-prime-9", "a6-frame-scale-0",
         "a6-reduce-scale-minus-1", "non-coprime-verify-scale-0"],
)
def test_bad_prime_or_scale_exits_two_whatever_the_datum(capsys, tmp_path, spec, argv, message):
    path = spec(tmp_path)
    for fmt in ([], ["--json"]):
        code, out, err = run(capsys, argv[0], path, *argv[1:], *fmt)
        assert code == 2
        assert out == ""
        assert err == f"quivercalc: input error: {message}\n"


@pytest.mark.parametrize(
    "argv, code",
    [(["--prime", str(PRIME_LIMIT)], 2), (["--prime", "1000000000000000003", "--budget", "64"], 0)],
    ids=["beyond-the-limit", "below-the-limit"],
)
def test_verify_on_a_huge_prime_ends_quickly(capsys, argv, code):
    start = time.perf_counter()
    result, out, err = run(capsys, "verify", FIXTURES / "kronecker.json", *argv, "--json")
    assert time.perf_counter() - start < 0.5
    assert result == code
    if code == 2:
        assert out == ""
        assert err == f"quivercalc: input error: field sizes must be below {PRIME_LIMIT}, got {PRIME_LIMIT}\n"
    else:
        assert [v["passed"] for v in json.loads(out)["verifications"]] == [True]


def test_oracle_prime_beyond_the_limit_exits_two(capsys, tmp_path):
    doc = json.loads((FIXTURES / "kronecker.json").read_text())
    doc["oracle"]["prime"] = PRIME_LIMIT + 2
    spec = tmp_path / "huge_prime.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", spec, "--json")
    assert (code, out) == (2, "")
    assert str(PRIME_LIMIT) in err


def test_integral_floats_in_the_spec_act_as_integers(capsys, tmp_path):
    doc = json.loads((FIXTURES / "kronecker.json").read_text())
    doc["framing"]["scale"] = 2.0
    doc["oracle"] = {"prime": 2.0, "budget": 1e6, "seed": 0.0}
    spec = tmp_path / "floats.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("frame", "verify"):
        code, out, _ = run(capsys, command, FIXTURES / "kronecker.json", "--json")
        code_f, out_f, err_f = run(capsys, command, spec, "--json")
        assert (code_f, err_f) == (code, "")
        assert out_f == out
        assert '"scale": 2,' in out_f


@st.composite
def _spec_texts(draw):
    """Spec file contents: a fuzzed document, or malformed or non-UTF-8 text."""
    document = draw(spec_documents())
    text = json.dumps(document, ensure_ascii=draw(st.booleans()))
    kind = draw(st.sampled_from(["document"] * 5 + ["truncated", "junk", "bytes"]))
    if kind == "truncated":
        return text[: draw(st.integers(0, len(text) - 1))].encode()
    if kind == "junk":
        return draw(st.sampled_from(["", "NaN", "[]", "1e999", '{"vertices": ["a"]}', "{" * 5000])).encode()
    if kind == "bytes":
        return draw(st.binary(max_size=20))
    return text.encode()


_ARGS = st.sampled_from(["a", "b", "0", "1", "∞", ""])


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(["analyze", "frame", "reduce", "verify"]))
    argv = []
    if command in ("frame", "reduce") and draw(st.booleans()):
        argv += [draw(_ARGS), draw(_ARGS)]
    if command != "analyze" and draw(st.booleans()):
        argv += ["--scale", str(draw(st.sampled_from([0, 1, 2, 3, 10**30])))]
    if command == "verify":
        argv += ["--budget", str(draw(st.integers(1, 64)))]
        if draw(st.booleans()):
            argv += ["--prime", str(draw(st.sampled_from([2, 3, 4])))]
    if command == "analyze" and draw(st.booleans()):
        argv.append("--override-assumptions")
    return command, argv


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_spec_texts(), _invocations())
def test_fuzzed_inputs_give_a_report_or_a_clean_input_error(tmp_path_factory, content, invocation):
    spec = tmp_path_factory.mktemp("fuzz") / "spec.json"
    spec.write_bytes(content)
    command, argv = invocation
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([command, str(spec), *argv, "--json"])
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("quivercalc: input error: ")
    else:
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["exit_code"] == code


def test_reduce_refuses_a_framed_vertex_of_dimension_zero(capsys, tmp_path):
    doc = {
        "vertices": ["a", "b", "c"],
        "arrows": [{"from": "a", "to": "b"}, {"from": "b", "to": "c"}],
        "dimension": {"a": 0, "b": 1, "c": 1},
        "stability": {"a": 0, "b": 1, "c": -1},
    }
    spec = tmp_path / "zero_at_i.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    code, report, _ = run_json(capsys, "reduce", spec, "a", "c")
    assert code == 1
    assert report["error"] == {
        "assumption": "nonzero dimension at both framed vertices",
        "message": "assumption violated: nonzero dimension at both framed vertices (d_a = 0, d_c = 1)",
    }
    jsonschema.validate(report, REPORT_SCHEMA)
