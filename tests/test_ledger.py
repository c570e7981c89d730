"""The verified/failed/assumed hypotheses ledger, pinned on every fixture and
on data that fail each standing hypothesis.

The expected hypothesis names are spelled out here, independently of the
program's own table, so that a change to the vocabulary shows.
"""

import json
from pathlib import Path

import pytest

from quivercalc.cli import main
from quivercalc.core import DimensionVector, Quiver, canonical_stability
from quivercalc.specfile import load_spec
from quivercalc.stability import MAX_WITNESSES, assumptions_report

from oracles import naive_strong_violations

FIXTURES = Path(__file__).parent / "fixtures"

# (assumptions field, hypothesis name), in gate order.
LEDGER = (
    ("acyclic", "acyclicity"),
    ("indivisible", "indivisibility"),
    ("coprime", "semistable = stable (theta-coprimality)"),
    ("strongly_amply_stable", "strong ample stability"),
)
ASSUMED = [
    "vanishing of higher cohomology of the endomorphism summands (consumed as a hypothesis, never computed)",
    "exact ample stability is not decided in general; the strong criterion is used as sufficient evidence",
]
# The hypotheses reduce gates on, in the order it checks them.
REDUCE_GATES = ("acyclic", "indivisible", "coprime")


def _doc(vertices, arrows, d, theta):
    return {
        "vertices": list(vertices),
        "arrows": [{"from": s, "to": t} for s, t in arrows],
        "dimension": dict(zip(vertices, d)),
        "stability": dict(zip(vertices, theta)),
        "framing": {"i": vertices[0], "j": vertices[-1]},
    }


# The cyclic datum fails every hypothesis, the divisible one every
# hypothesis but acyclicity, the last one coprimality and what follows;
# the fixture threevertex_alt fails strong ample stability alone.
FAILING = {
    "cyclic": _doc(("1", "2"), (("1", "2"), ("2", "1")), (2, 2), (1, -1)),
    "divisible": _doc(("1", "2"), (("1", "2"),) * 3, (2, 2), (1, -1)),
    "not_coprime": _doc(("1", "2", "3"), (("1", "2"), ("2", "3")), (1, 1, 1), (1, 0, -1)),
}


@pytest.fixture
def spec_paths(tmp_path):
    """Every fixture, then the data above."""
    paths = sorted(FIXTURES.glob("*.json"))
    for name, doc in FAILING.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(path)
    return paths


def _run_json(capsys, *argv):
    code = main([str(a) for a in argv] + ["--json"])
    return code, json.loads(capsys.readouterr().out)


def test_failing_data_cover_every_hypothesis(spec_paths):
    failed = set()
    for path in spec_paths:
        spec = load_spec(path)
        report = assumptions_report(spec.quiver, spec.dimension, spec.stability)
        failed |= {name for name, _ in LEDGER if not getattr(report, name)}
    assert failed == {name for name, _ in LEDGER}


def test_analyze_ledger_matches_assumption_flags(capsys, spec_paths):
    for path in spec_paths:
        _, report = _run_json(capsys, "analyze", path)
        flags = report["assumptions"]
        hypotheses = report["hypotheses"]
        assert hypotheses["verified"] == [label for name, label in LEDGER if flags[name]], path
        assert hypotheses["failed"] == [label for name, label in LEDGER if not flags[name]], path
        assert hypotheses["assumed"] == ASSUMED, path
        vector_fields = report["dimensions"].get("vector_fields")
        if flags["acyclic"] and hypotheses["failed"]:
            assert vector_fields == {"refused": ", ".join(hypotheses["failed"])}, path
        elif flags["acyclic"]:
            assert "value" in vector_fields, path
        else:
            assert vector_fields is None, path


def test_reduce_refuses_on_first_failing_gate(capsys, spec_paths):
    for path in spec_paths:
        spec = load_spec(path)
        q = spec.quiver
        report = assumptions_report(q, spec.dimension, spec.stability)
        i, j = (spec.framing.i, spec.framing.j) if spec.framing else (q.vertices[0], q.vertices[-1])
        code, out = _run_json(capsys, "reduce", path, i, j)
        failing = [label for name, label in LEDGER if name in REDUCE_GATES and not getattr(report, name)]
        if failing:
            assert code == 1, path
            assert out["error"]["assumption"] == failing[0], path
            assert out["hypotheses"] == {"verified": [], "failed": [failing[0]], "assumed": []}, path
        else:
            assert "error" not in out, path
            assert out["hypotheses"]["assumed"] == ASSUMED, path


@pytest.mark.parametrize("datum, name", [("not_coprime", LEDGER[2][1]), ("cyclic", LEDGER[0][1])])
def test_commands_give_a_failed_hypothesis_one_name(capsys, tmp_path, datum, name):
    """analyze, reduce and verify on one datum spell its first failed
    hypothesis alike: in analyze's hypotheses.failed and refused vector
    fields (a cyclic quiver gets no vector-fields entry), and in each
    refusal's hypotheses.failed and error.assumption (a cyclic quiver
    stops verify before any hypothesis gate, with a message only)."""
    path = tmp_path / f"{datum}.json"
    path.write_text(json.dumps(FAILING[datum]), encoding="utf-8")
    _, analyzed = _run_json(capsys, "analyze", path)
    assert analyzed["hypotheses"]["failed"][0] == name
    vector_fields = analyzed["dimensions"].get("vector_fields")
    if datum == "cyclic":
        assert vector_fields is None
    else:
        assert vector_fields["refused"].split(", ")[0] == name
    for command in ("reduce", "verify"):
        code, refused = _run_json(capsys, command, path)
        assert code == 1, command
        assert refused["hypotheses"]["failed"] == [name], command
        if (datum, command) != ("cyclic", "verify"):
            assert refused["error"]["assumption"] == name, command


def test_witness_lists_stop_at_the_cap(capsys, tmp_path):
    """analyze on the A6 chain with every d_i = 4 and canonical theta keeps
    the first MAX_WITNESSES strong-ample violations of a per-point sweep and
    counts them all."""
    vertices = [str(k) for k in range(1, 7)]
    arrows = list(zip(vertices, vertices[1:]))
    q = Quiver(vertices, arrows)
    d = DimensionVector(dict.fromkeys(vertices, 4))
    theta = canonical_stability(q, d)
    path = tmp_path / "a6.json"
    path.write_text(json.dumps(_doc(vertices, arrows, [4] * 6, [theta[v] for v in vertices])), encoding="utf-8")
    violations = naive_strong_violations(q, d, theta)
    total = len(violations)
    assert total > MAX_WITNESSES

    _, report = _run_json(capsys, "analyze", path)
    assumptions = report["assumptions"]
    assert assumptions["failing_witness_counts"] == {"strongly_amply_stable": total}
    kept = violations[:MAX_WITNESSES]
    assert assumptions["failing_witnesses"]["strongly_amply_stable"] == [e.as_dict() for e in kept]

    main(["analyze", str(path)])
    lines = capsys.readouterr().out.splitlines()
    (line,) = [x for x in lines if x.startswith("  witnesses against strongly_amply_stable: ")]
    assert line.endswith(f"), ... and {total - MAX_WITNESSES} more")
    assert line.count("), (") == MAX_WITNESSES - 1
