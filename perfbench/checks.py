"""Output checks: compare one CLI invocation's exit code and report against
the expectations a workload generator attached to the op.

``check`` returns None when the outcome is right and a short reason when it
is wrong.  JSON reports are decoded; human reports are matched line by line
with patterns loose enough to survive added lines such as a stats block.
"""

from __future__ import annotations

import json
import re


def _json(out):
    try:
        report = json.loads(out)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def _int(pattern, text, group=1):
    m = re.search(pattern, text, re.MULTILINE)
    return int(m.group(group)) if m else None


def _first_check(report):
    checks = report.get("verifications") or [{}]
    return checks[0]


def _analyze(exp, fmt, out):
    if fmt == "json":
        report = _json(out)
        if report is None:
            return "no JSON report"
        dims = report.get("dimensions", {})
        moduli, hh1 = dims.get("moduli_dim"), dims.get("hh1")
    else:
        moduli = _int(r"expected moduli dimension: (-?\d+)", out)
        hh1 = _int(r"first Hochschild cohomology: (\d+)", out)
    if exp.get("may_refuse") and moduli is None and hh1 is None:
        return None  # an over-budget refusal report carries no dimensions
    if moduli != exp["moduli_dim"]:
        return f"moduli_dim {moduli} != {exp['moduli_dim']}"
    if hh1 != exp["hh1"]:
        return f"hh1 {hh1} != {exp['hh1']}"
    return None


def _frame(exp, fmt, out):
    if fmt == "json":
        report = _json(out)
        if report is None:
            return "no JSON report"
        check = _first_check(report)
        passed, checked = check.get("passed"), check.get("checked")
    else:
        m = re.search(r"framed sign partition .*: (pass|FAIL) \(checked=(\d+)", out)
        passed, checked = (m.group(1) == "pass", int(m.group(2))) if m else (None, None)
    if passed is not True:
        return "framed sign partition check did not pass at the minimal scale"
    if checked != exp["checked"]:
        return f"checked {checked} != {exp['checked']}"
    return None


def _reduce(exp, fmt, out):
    if fmt == "json":
        report = _json(out)
        if report is None:
            return "no JSON report"
        reduction = report.get("reduction", {})
        case = reduction.get("case")
        dims = (reduction.get("reduced_path_space_dim"), reduction.get("base_path_space_dim"))
    else:
        m = re.search(r"reduction case: (\w+)", out)
        case = m.group(1) if m else None
        m = re.search(r"path space at marks: (\d+) \(base: (\d+)\)", out)
        dims = (int(m.group(1)), int(m.group(2))) if m else (None, None)
    if case != exp["case"]:
        return f"case {case} != {exp['case']}"
    if dims != (exp["path_dim"], exp["path_dim"]):
        return f"path space dims {dims} != {exp['path_dim']}"
    return None


def _verify(exp, fmt, out):
    if fmt == "json":
        report = _json(out)
        if report is None:
            return "no JSON report"
        check = _first_check(report)
        points, failures = check.get("points_checked"), check.get("failures")
    else:
        m = re.search(r"description over F_\d+: \w+ \(points_checked=(\d+), failures=(\d+)", out)
        points, failures = (int(m.group(1)), int(m.group(2))) if m else (None, None)
    if failures != 0:
        return f"failures {failures} != 0"
    if points != exp["points_checked"]:
        return f"points_checked {points} != {exp['points_checked']}"
    return None


_VALUES = {"analyze": _analyze, "frame": _frame, "reduce": _reduce, "verify": _verify}


def _report_exit(fmt, out):
    """The exit code a report states, or None when there is no report."""
    if not out:
        return None
    if fmt == "json":
        report = _json(out)
        return report.get("exit_code") if report else None
    return _int(r"^exit code: (\d+)$", out)


def check(op, rc, out, err):
    """None when the outcome matches the op's expectations, else a reason."""
    exp = op["expect"]
    if op["kind"] == "refusal":
        # Input errors exit 2 with nothing on stdout.  A refusal that is not
        # an input error (frame on a cyclic quiver) exits 1, today with only
        # a stderr line; a report stating exit code 1 is accepted as well.
        if rc != exp["exit"]:
            return f"exit {rc} != {exp['exit']}"
        if rc == 2 and out:
            return "exit 2 with output on stdout"
        if not out and not err.startswith("quivercalc:"):
            return "refusal without a message"
        if out and _report_exit(op["fmt"], out) != rc:
            return "refusal report does not state its exit code"
        return None
    if rc != exp["exit"]:
        return f"exit {rc} != {exp['exit']}: {err.strip()[:120]}"
    if _report_exit(op["fmt"], out) != rc:
        return "report missing or states another exit code"
    if exp.get("values", True):
        return _VALUES[op["kind"]](exp, op["fmt"], out)
    return None
