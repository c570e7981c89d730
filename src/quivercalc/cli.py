"""Command-line front end.

Subcommands: ``analyze``, ``frame``, ``reduce``, ``verify``.  Each reads a
quiver spec file, runs the corresponding analysis, and emits a report, either
human-readable (default) or machine-readable (``--json``), to standard output
or to ``--out FILE``.

Exit codes: 0 when every check passes, 1 when a hypothesis or verification
fails or an enumeration is over its budget (a report is still emitted), 2 on
input errors and when ``--out`` cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Any

from .core import _is_prime
from .errors import (
    AssumptionViolatedError,
    BudgetExceededError,
    QuiverCalcError,
    SpecFileError,
    UnknownVertexError,
)
from .report import (
    build_analyze_report,
    build_frame_report,
    build_reduce_report,
    build_refusal_report,
    build_verify_report,
    render_human,
)
from .specfile import OracleSpec, _indented_json, load_spec

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT_ERROR = 2


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it never changes."""
    parser = argparse.ArgumentParser(
        prog="quivercalc",
        description="stability, framing, and cohomology dimension analysis for quiver data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit the machine-readable report")
        p.add_argument("--out", metavar="FILE", help="write the report to FILE instead of stdout")

    p_analyze = sub.add_parser("analyze", help="hypotheses report and dimension bookkeeping")
    p_analyze.add_argument("spec", help="path to a quiver spec file")
    p_analyze.add_argument(
        "--override-assumptions",
        action="store_true",
        help="compute the vector-fields formula even when hypotheses fail (flagged as unreliable)",
    )
    add_output_flags(p_analyze)

    p_frame = sub.add_parser("frame", help="double framing at two vertices")
    p_frame.add_argument("spec")
    p_frame.add_argument("i", nargs="?", help="framed vertex i (default: spec framing block)")
    p_frame.add_argument("j", nargs="?", help="framed vertex j (default: spec framing block)")
    p_frame.add_argument("--scale", type=int, metavar="N", help="framing scale (default: the framing block's without i j, else minimal)")
    add_output_flags(p_frame)

    p_reduce = sub.add_parser("reduce", help="thin-framing reduction of the framed datum")
    p_reduce.add_argument("spec")
    p_reduce.add_argument("i", nargs="?")
    p_reduce.add_argument("j", nargs="?")
    p_reduce.add_argument("--scale", type=int, metavar="N")
    add_output_flags(p_reduce)

    p_verify = sub.add_parser("verify", help="finite-field verification of the framed stability description")
    p_verify.add_argument("spec")
    p_verify.add_argument("--prime", type=int, metavar="P", help="field size (default: oracle block or 2)")
    p_verify.add_argument("--budget", type=int, metavar="B", help="enumeration budget (default: 10^6)")
    p_verify.add_argument("--seed", type=int, metavar="S", help="sampling seed (default: 0)")
    p_verify.add_argument("--scale", type=int, metavar="N")
    add_output_flags(p_verify)
    return parser


def _emit(report: dict[str, Any], args) -> None:
    text = _indented_json(report) + "\n" if args.json else render_human(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = load_spec(args.spec)
        # Checked first, so that a datum refused with exit 1 cannot mask it.
        if getattr(args, "scale", None) is not None and args.scale < 1:
            raise ValueError("framing scale must be a positive integer")
        if args.command == "analyze":
            report = build_analyze_report(spec, override_assumptions=args.override_assumptions)
        elif args.command == "frame":
            report = build_frame_report(spec, args.i, args.j, args.scale)
        elif args.command == "reduce":
            report = build_reduce_report(spec, args.i, args.j, args.scale)
        else:
            oracle = spec.oracle or OracleSpec()
            prime = args.prime if args.prime is not None else oracle.prime
            budget = args.budget if args.budget is not None else oracle.budget
            if budget < 1:
                raise ValueError(f"--budget must be at least 1, got {budget}")
            if not _is_prime(prime):
                raise ValueError(f"{prime} is not prime")
            seed = args.seed if args.seed is not None else oracle.seed
            report = build_verify_report(spec, prime, budget, seed, args.scale)
    except (SpecFileError, UnknownVertexError, ValueError) as exc:
        print(f"quivercalc: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (AssumptionViolatedError, BudgetExceededError) as exc:
        report = build_refusal_report(args.command, exc)
    except QuiverCalcError as exc:
        print(f"quivercalc: error: {exc}", file=sys.stderr)
        return EXIT_FAILED

    try:
        _emit(report, args)
    except OSError as exc:
        print(f"quivercalc: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return int(report["exit_code"])


if __name__ == "__main__":
    sys.exit(main())
