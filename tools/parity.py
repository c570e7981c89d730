"""Compare the output of every command invocation with that of another revision.

    python tools/parity.py --against REV

REV is checked out with ``git worktree add`` into a temporary directory,
which is removed afterwards.  The invocations are every op and probe of the
four perfbench workloads at seeds 3 and 7, and analyze, frame, reduce and
verify (at ``--budget 320``) on each spec in ``tests/fixtures``, human and
``--json``.  All of them read one shared set of spec files, written once
into the temporary directory, so paths in messages are the same on both
sides.  Each tree gets one child process, which runs ``quivercalc.cli.main``
in-process on every invocation.  The exit code, stdout and stderr of each
pair are compared; the script prints the counts and the first difference,
and exits 1 on any difference.
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
FIXTURE_COMMANDS = ("analyze", "frame", "reduce", "verify")

# Runs in a child whose first argument is the ``src`` directory of a tree;
# reads a JSON list of argv lists on stdin and writes one [exit code,
# stdout, stderr] per argv.  An exception escaping main is an outcome too.
_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from quivercalc.cli import main
outcomes = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    outcomes.append([code, out.getvalue(), err.getvalue()])
json.dump(outcomes, sys.stdout)
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
        spec = folder / fixture.name
        spec.write_bytes(fixture.read_bytes())
        for command in FIXTURE_COMMANDS:
            budget = ["--budget", "320"] if command == "verify" else []
            for fmt in ([], ["--json"]):
                argvs.append([command, str(spec), *fmt, *budget])
    return argvs


def run_tree(src: Path, argvs: list[list[str]], cwd: Path) -> list[list]:
    """The [exit code, stdout, stderr] of each argv under the tree at ``src``."""
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src)],
        input=json.dumps(argvs), stdout=subprocess.PIPE, text=True, cwd=cwd, check=True,
    )
    return json.loads(done.stdout)


def compare(argvs: list[list[str]], ours: list[list], theirs: list[list], out=sys.stdout) -> int:
    """Print the counts and the first difference; return the number of
    invocations whose outcomes differ."""
    differing = [k for k, pair in enumerate(zip(ours, theirs)) if pair[0] != pair[1]]
    codes = collections.Counter(str(outcome[0]) for outcome in ours)
    print(f"{len(argvs)} invocations, {len(differing)} differences", file=out)
    print("exit codes here: " + ", ".join(f"{c}: {n}" for c, n in sorted(codes.items())), file=out)
    if differing:
        k = differing[0]
        print("first difference: quivercalc " + " ".join(argvs[k]), file=out)
        for label, mine, other in zip(("exit code", "stdout", "stderr"), ours[k], theirs[k]):
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
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="quivercalc-parity-") as tmp:
        tmp = Path(tmp)
        tree = tmp / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(tree), args.against], check=True)
        try:
            argvs = invocations(tmp / "specs")
            theirs = run_tree(tree / "src", argvs, tmp)
            ours = run_tree(ROOT / "src", argvs, tmp)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)], check=True)
    return 1 if compare(argvs, ours, theirs) else 0


if __name__ == "__main__":
    sys.exit(main())
