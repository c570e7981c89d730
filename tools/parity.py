"""Compare the output of every command invocation with that of another revision.

    python tools/parity.py --against REV

REV is checked out with ``git worktree add`` into a temporary directory,
which is removed afterwards.  The invocations are every op and probe of the
four perfbench workloads at seeds 3 and 7, and ``SPEC_ARGVS`` on each spec
in ``tests/fixtures`` and in ``EXTRA_SPECS``, human and ``--json``: each
command on the spec's framing block, with explicit vertices and ``--scale
1``, with ``--prime 3 --seed 5``, with ``--out FILE`` and, for vertices too
large for containment masks, with ``--prime 1000003``.  All of them read
one shared set of spec files, written once into the temporary directory, so
paths in messages are the same on both sides.  Each tree gets one child
process, which runs ``quivercalc.cli.main`` in-process on every invocation.
The exit code, stdout, stderr and the bytes written to ``--out`` of each
pair are compared; the script prints the counts and the first difference,
and exits 1 on any difference.

    python tools/parity.py --against REV --allow schema_version --allow stats

Each ``--allow KEYPATH`` names a key of a JSON report, dotted for a nested
one (``stats.lattice_points``), whose difference is expected.  Where stdout
or the ``--out`` text of both sides is a JSON object, it is compared with
every allowed key removed, in key order (its layout is then not compared);
a pair that differs nowhere else is counted apart, and any other
difference, in the exit code, stderr or another key, still fails.  A pair
of human outputs is compared as the report dicts each side rendered (where
the command wrote exactly the renderer's text of its dict), without the
allowed keys, and passes only when this tree's renderer turns
the other side's dict into the other side's text byte for byte: a change
to the renderer itself still fails.
"""

from __future__ import annotations

import argparse
import collections
import difflib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (3, 7)
WORKLOADS = ("desk", "lattice", "paths", "oracle")

# The argv of each spec invocation after the command's spec path, "{first}"
# and "{last}" standing for the spec's first and last vertex and "{out}" for
# a report file; each runs human and with --json.
SPEC_ARGVS = (
    ("analyze",),
    ("analyze", "--override-assumptions"),
    ("analyze", "--out", "{out}"),
    ("frame",),
    ("frame", "{last}", "{first}", "--scale", "1"),
    ("frame", "--out", "{out}"),
    ("reduce",),
    ("reduce", "{last}", "{first}"),
    ("reduce", "--out", "{out}"),
    ("verify", "--budget", "320"),
    ("verify", "--prime", "3", "--seed", "5", "--budget", "320"),
    ("verify", "--budget", "320", "--out", "{out}"),
    ("verify", "--prime", "1000003", "--budget", "200"),
)


def _three_vertex() -> dict:
    return json.loads((ROOT / "tests" / "fixtures" / "threevertex.json").read_text(encoding="utf-8"))


def _three_vertex_with_z(arrows: list[dict]) -> dict:
    """The three-vertex fixture plus a vertex z of dimension 0, joined by
    ``arrows``: it keeps every hypothesis of the datum."""
    doc = _three_vertex()
    doc["vertices"].append("z")
    doc["arrows"] += arrows
    doc["dimension"]["z"] = doc["stability"]["z"] = 0
    return doc


# Specs of paths that no workload reaches: a two-cycle with a framing block
# reaches every command's acyclicity gate; analyze refuses the vector fields
# of an isolated z for connectivity and of an attached one for full support,
# with and without --override-assumptions; and the Kronecker datum framed at
# (2, 1), scale 1, fails verify at 4 of 16 points over F_2, 36 of 81 over
# F_3 and all 200 points sampled over F_1000003.  An 8-vertex thin chain with
# theta alternating +1/-1, framed at its ends at scale 1, puts a long
# discrepancy list through frame: 112 of its 1,024 framed points, 56 plus ->
# zero then 56 minus -> zero, where no fixture or workload has more than 4;
# frame lists the first 32 and counts them all.
# The lattice sweep packs its values into fields of one integer, as wide as
# the datum needs: the three-vertex datum with theta entries near 10^20 takes
# 9-byte fields, and 10 parallel arrows with d = (3, 4) take their width from
# the Euler form, not from theta.  A dense DAG, an arrow s -> t for every pair
# s < t but 2 -> 3 and two for 1 -> 5, has d = 0 on vertex 4: the sweep skips
# it while the rows of the form's cross terms of 1, 2 and 3 are pending.
# Path counts pack into fields of one integer per column too: a 26-vertex
# chain of six parallel arrows with one more arrow 1 -> 26 has p(1, 26) =
# 6^25 + 1, above 2^64, so its fields are wider than a machine word.
# Three specs pin the order of the name refusals: a repeated name wins over
# an undeclared arrow end after it, and an undeclared `to` of a first arrow
# over an undeclared `from` of a second; and a framed Kronecker datum with
# dimension 2.0 takes the schema walker and is read as d = (2, 3).
EXTRA_SPECS = {
    "two_cycle.json": {
        "vertices": ["a", "b"],
        "arrows": [{"from": "a", "to": "b"}, {"from": "b", "to": "a"}],
        "dimension": {"a": 1, "b": 1},
        "stability": {"a": 1, "b": -1},
        "framing": {"i": "a", "j": "b"},
    },
    "disconnected.json": _three_vertex_with_z([]),
    "zero_dimension.json": _three_vertex_with_z([{"from": "3", "to": "z"}]),
    "kronecker_failing.json": {
        "vertices": ["1", "2"],
        "arrows": [{"from": "1", "to": "2"}, {"from": "1", "to": "2"}],
        "dimension": {"1": 1, "2": 1},
        "stability": {"1": 1, "2": -1},
        "framing": {"i": "2", "j": "1", "scale": 1},
    },
    "alternating_chain.json": {
        "vertices": [str(k) for k in range(1, 9)],
        "arrows": [{"from": str(k), "to": str(k + 1)} for k in range(1, 8)],
        "dimension": {str(k): 1 for k in range(1, 9)},
        "stability": {str(k): 1 if k % 2 else -1 for k in range(1, 9)},
        "framing": {"i": "1", "j": "8", "scale": 1},
    },
    "wide_theta.json": {**_three_vertex(), "stability": {"1": 2 * 10**20 + 1, "2": 10**20 + 2, "3": -3 * 10**20 - 3}},
    "ten_arrows.json": {
        "vertices": ["1", "2"],
        "arrows": [{"from": "1", "to": "2"}] * 10,
        "dimension": {"1": 3, "2": 4},
        "stability": {"1": 4, "2": -3},
        "framing": {"i": "1", "j": "2"},
    },
    "dense_through_zero.json": {
        "vertices": ["1", "2", "3", "4", "5"],
        "arrows": [{"from": s, "to": t} for s in "12345" for t in "12345" if s < t and s + t != "23"] + [{"from": "1", "to": "5"}],
        "dimension": {"1": 2, "2": 1, "3": 1, "4": 0, "5": 1},
        "stability": {"1": 3, "2": -1, "3": -1, "4": 0, "5": -4},
        "framing": {"i": "1", "j": "5"},
    },
    "wide_paths.json": {
        "vertices": [str(k) for k in range(1, 27)],
        "arrows": [{"from": str(k), "to": str(k + 1)} for k in range(1, 26) for _ in range(6)] + [{"from": "1", "to": "26"}],
        "dimension": {str(k): int(k in (1, 26)) for k in range(1, 27)},
        "stability": {str(k): {1: 1, 26: -1}.get(k, 0) for k in range(1, 27)},
        "framing": {"i": "1", "j": "26"},
    },
    "repeat_then_undeclared.json": {
        "vertices": ["1", "2", "1"],
        "arrows": [{"from": "1", "to": "x"}],
        "dimension": {"1": 1, "2": 1},
        "stability": {"1": 1, "2": -1},
    },
    "undeclared_to_then_from.json": {
        "vertices": ["1", "2"],
        "arrows": [{"from": "1", "to": "x"}, {"from": "y", "to": "2"}],
        "dimension": {"1": 1, "2": 1},
        "stability": {"1": 1, "2": -1},
    },
    "float_dimension.json": {
        "vertices": ["1", "2"],
        "arrows": [{"from": "1", "to": "2"}, {"from": "1", "to": "2"}],
        "dimension": {"1": 2.0, "2": 3},
        "stability": {"1": 3, "2": -2},
        "framing": {"i": "1", "j": "2"},
    },
}

# Runs in a child whose first argument is the ``src`` directory of a tree;
# reads a JSON list of argv lists on stdin and writes one [exit code,
# stdout, stderr, --out text, rendered report] per argv, the --out text
# null without --out and the report null unless the command wrote exactly
# the text render_human made of it; the report file is removed once read.
# An exception escaping main is an outcome too.
_CHILD = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
from quivercalc import cli
rendered, render_human = [], cli.render_human
def recording(report):
    text = render_human(report)
    rendered.append([report, text])
    return text
cli.render_human = recording
outcomes = []
for argv in json.load(sys.stdin):
    rendered.clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    path, written = argv[argv.index("--out") + 1] if "--out" in argv else None, None
    if path and os.path.exists(path):
        with open(path, "rb") as handle:
            written = handle.read().decode("utf-8")
        os.remove(path)
    shown = out.getvalue() if written is None else written
    report = rendered[0][0] if rendered and rendered[0][1] == shown else None
    outcomes.append([code, out.getvalue(), err.getvalue(), written, report])
json.dump(outcomes, sys.stdout)
"""

# Runs in a child whose first argument is the ``src`` directory of a tree;
# reads a JSON list of report dicts (or nulls) on stdin and writes the
# tree's human rendering of each (or null).
_RENDER = """
import json, sys
sys.path.insert(0, sys.argv[1])
from quivercalc.report import render_human
json.dump([None if report is None else render_human(report) for report in json.load(sys.stdin)], sys.stdout)
"""


def invocations(specs: Path) -> list[list[str]]:
    """Write the spec files under ``specs`` and return every argv."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    argvs = []
    for name in WORKLOADS:
        for seed in SEEDS:
            generated = workloads.build(name, seed)
            folder = specs / f"{name}-{seed}"
            folder.mkdir(parents=True)
            for fname, text in generated.files.items():
                (folder / fname).write_text(text, encoding="utf-8")
            for op in generated.ops + generated.probes:
                command, spec, *flags = op["argv"]
                argvs.append([command, str(folder / spec), *flags])
    folder = specs / "fixtures"
    folder.mkdir(parents=True)
    for fixture in sorted((ROOT / "tests" / "fixtures").glob("*.json")):
        (folder / fixture.name).write_bytes(fixture.read_bytes())
    for name, doc in EXTRA_SPECS.items():
        (folder / name).write_text(json.dumps(doc), encoding="utf-8")
    out = str(specs / "report.out")
    for spec in sorted(folder.glob("*.json")):
        vertices = json.loads(spec.read_text(encoding="utf-8"))["vertices"]
        names = {"first": vertices[0], "last": vertices[-1], "out": out}
        for command, *flags in SPEC_ARGVS:
            for fmt in ([], ["--json"]):
                argvs.append([command, str(spec), *(f.format(**names) for f in flags), *fmt])
    # A report file that cannot be written is an input error.
    argvs.append(["analyze", str(folder / "kronecker.json"), "--out", str(specs / "missing" / "report.out")])
    return argvs


def run_tree(src: Path, argvs: list[list[str]], cwd: Path) -> list[list]:
    """The [exit code, stdout, stderr, --out text, rendered report] of each
    argv under the tree at ``src``."""
    return _child(_CHILD, src, argvs, cwd)


def render_tree(src: Path, reports: list, cwd: Path) -> list:
    """The human text the tree at ``src`` renders of each report dict, None
    for None."""
    return _child(_RENDER, src, reports, cwd)


def _child(script: str, src: Path, items: list, cwd: Path) -> list:
    done = subprocess.run(
        [sys.executable, "-c", script, str(src)],
        input=json.dumps(items), stdout=subprocess.PIPE, text=True, cwd=cwd, check=True,
    )
    return json.loads(done.stdout)


def _without(document: dict, allow: tuple[str, ...]) -> str:
    """``document`` without the ``allow`` key paths, as JSON in key order."""
    document = json.loads(json.dumps(document))
    for path in allow:
        *parents, last = path.split(".")
        node = document
        for key in parents:
            node = node.get(key) if isinstance(node, dict) else None
        if isinstance(node, dict):
            node.pop(last, None)
    return json.dumps(document)


def _masked(text, allow: tuple[str, ...]):
    """``text`` as a JSON object without the ``allow`` key paths, in key
    order; ``text`` itself when nothing is allowed or it is no JSON object."""
    try:
        document = json.loads(text) if allow and text else None
    except ValueError:  # human output
        return text
    return _without(document, allow) if isinstance(document, dict) else text


def _outside(outcome: list, allow: tuple[str, ...], renders: bool = True) -> list:
    """An outcome with its stdout and ``--out`` reports masked by ``allow``.
    A human report's text stands as the dict it renders, masked, where
    ``renders`` says this tree's renderer gives that text from that dict."""
    code, stdout, stderr, written, report = outcome
    if report is None or not renders:
        return [code, _masked(stdout, allow), stderr, _masked(written, allow)]
    shown = "rendered " + _without(report, allow)
    return [code, stdout, stderr, shown] if written is not None else [code, shown, stderr, written]


def compare(
    argvs: list[list[str]], ours: list[list], theirs: list[list], out=sys.stdout, allow: tuple[str, ...] = (),
    rerendered: list | None = None,
) -> int:
    """Print the counts and the first difference; return the number of
    invocations whose outcomes differ outside the ``allow`` key paths.
    ``rerendered`` holds this tree's human text of each report dict of
    ``theirs``; without it, any difference in human output fails."""
    rerendered = rerendered or [None] * len(theirs)

    def renders(k: int) -> bool:
        text = theirs[k][1] if theirs[k][3] is None else theirs[k][3]
        return rerendered[k] == text

    unequal = [k for k, pair in enumerate(zip(ours, theirs)) if pair[0][:4] != pair[1][:4]]
    differing = [k for k in unequal if _outside(ours[k], allow) != _outside(theirs[k], allow, renders(k))]
    human = sum(ours[k][4] is not None for k in unequal if k not in differing)
    codes = collections.Counter(str(outcome[0]) for outcome in ours)
    print(f"{len(argvs)} invocations, {len(differing)} differences", file=out)
    if allow:
        print(
            f"{len(unequal) - len(differing)} more differ only at the allowed key paths {', '.join(allow)}"
            f" ({len(unequal) - len(differing) - human} JSON, {human} human)",
            file=out,
        )
    print("exit codes here: " + ", ".join(f"{c}: {n}" for c, n in sorted(codes.items())), file=out)
    if differing:
        k = differing[0]
        print("first difference: quivercalc " + " ".join(argvs[k]), file=out)
        for label, mine, other in zip(("exit code", "stdout", "stderr", "--out file"), ours[k], theirs[k]):
            if mine != other:
                lines = difflib.unified_diff(
                    str(other).splitlines(keepends=True), str(mine).splitlines(keepends=True),
                    f"{label} (against)", f"{label} (here)",
                )
                out.writelines(line if line.endswith("\n") else line + "\n" for line in lines)
    return len(differing)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV", help="git revision to compare with")
    parser.add_argument(
        "--allow", action="append", default=[], metavar="KEYPATH",
        help="a JSON report key path, dotted when nested, whose difference is expected (repeatable)",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="quivercalc-parity-") as tmp:
        tmp = Path(tmp)
        tree = tmp / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(tree), args.against], check=True)
        try:
            argvs = invocations(tmp / "specs")
            theirs = run_tree(tree / "src", argvs, tmp)
            ours = run_tree(ROOT / "src", argvs, tmp)
            rerendered = render_tree(ROOT / "src", [outcome[4] for outcome in theirs], tmp)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)], check=True)
    return 1 if compare(argvs, ours, theirs, allow=tuple(args.allow), rerendered=rerendered) else 0


if __name__ == "__main__":
    sys.exit(main())
