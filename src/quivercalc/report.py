"""Analysis reports: schema-versioned dictionaries plus a text renderer.

Every report a command emits, full or refusal, is built here in the shape of
``REPORT_SCHEMA``.  ``_framed`` alone resolves the framing of ``frame``,
``reduce`` and ``verify`` and is their one acyclicity gate; each command then
calls its one public entry on the framing (``verify_framed_sign_partition``,
``reduce``, ``verify_double_framing_equivalence``) and reads the base
hypotheses from the framing's cached ``base_assumptions``.  The tests
validate reports against the schema; ``cli`` emits them without validating
(validation at emit time is ROADMAP item 1).
The human-readable rendering is derived from the dict alone, so every number
a user sees in the text output is present in the machine-readable output.
Every full report opens with the same header, and it always restates which
hypotheses were verified, which failed, and which are assumed without
computation (higher cohomology vanishing of the endomorphism summands is
always in the last group: it is consumed as a hypothesis, never computed).
The hypothesis names and their order come from ``stability.HYPOTHESES``.
``framing`` is imported by the builders that frame, so ``analyze`` never
loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .core import DimensionVector, Quiver, _acyclic_order, path_count, path_count_matrix
from .errors import AssumptionViolatedError, BudgetExceededError, QuiverCalcError, SpecFileError
from .specfile import QuiverSpec, datum_dict
from .stability import HYPOTHESES, LATTICE_BUDGET, MAX_WITNESSES, AssumptionsReport, ThreeValued, assumptions_report

if TYPE_CHECKING:
    from .framing import FramingResult, ReductionResult

SCHEMA_VERSION = 4

# Most vertices of an endomorphism table: each vertex of supp(d) at least
# doubles the lattice, and analyze refuses a lattice over budget before it
# builds the table.
_MAX_SUPPORT = LATTICE_BUDGET.bit_length() - 1

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "command", "exit_code", "hypotheses"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"enum": ["analyze", "frame", "reduce", "verify"]},
        "exit_code": {"enum": [0, 1]},
        "assumptions": {
            "type": "object",
            "required": [*HYPOTHESES, "amply_stable"],
            "properties": {
                **{name: {"type": "boolean"} for name in HYPOTHESES},
                "amply_stable": {"enum": [v.value for v in ThreeValued]},
                "failing_witnesses": {
                    "type": "object",
                    "additionalProperties": {
                        "type": "array",
                        "items": {"type": "object", "additionalProperties": {"type": "integer"}},
                    },
                },
                "failing_witness_counts": {"type": "object", "additionalProperties": {"type": "integer"}},
            },
        },
        "hypotheses": {
            "type": "object",
            "required": ["verified", "failed", "assumed"],
            "properties": {
                "verified": {"type": "array", "items": {"type": "string"}},
                "failed": {"type": "array", "items": {"type": "string"}},
                "assumed": {"type": "array", "items": {"type": "string"}},
            },
        },
        "dimensions": {
            "type": "object",
            "properties": {
                "endomorphism_table": {
                    "type": "object",
                    "required": ["vertices", "path_counts"],
                    "properties": {
                        "vertices": {"type": "array", "items": {"type": "string"}, "maxItems": _MAX_SUPPORT},
                        "path_counts": {
                            "type": "array",
                            "items": {"type": "array", "items": {"type": "integer"}, "maxItems": _MAX_SUPPORT},
                            "maxItems": _MAX_SUPPORT,
                        },
                    },
                },
            },
        },
        "framing": {"type": "object"},
        "reduction": {"type": "object"},
        "verifications": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "passed"],
                "properties": {
                    "name": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "discrepancies": {"type": "array", "maxItems": MAX_WITNESSES},
                    "discrepancy_count": {"type": "integer"},
                },
            },
        },
        "error": {"type": "object"},
    },
}


def assumptions_dict(report: AssumptionsReport) -> dict[str, Any]:
    witnesses = {
        name: [w.as_dict() for w in ws]
        for name, ws in report.failing_witnesses.items()
    }
    out = {
        **{name: getattr(report, name) for name in HYPOTHESES},
        "amply_stable": report.amply_stable.value,
        "failing_witnesses": witnesses,
    }
    if report.failing_witness_counts:
        out["failing_witness_counts"] = dict(report.failing_witness_counts)
    return out


def _header(command: str, spec: QuiverSpec, report: AssumptionsReport) -> dict[str, Any]:
    """The blocks every full report opens with: the datum and its ledger."""
    q = spec.quiver
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "datum": datum_dict(q, spec.dimension, spec.stability),
        "datum_counts": {"vertices": len(q.vertices), "arrows": len(q.arrows)},
        "assumptions": assumptions_dict(report),
        "hypotheses": report.ledger(),
    }


def build_refusal_report(command: str, exc: QuiverCalcError) -> dict[str, Any]:
    """The exit-1 report of a command stopped by a failed hypothesis or an
    enumeration over its budget."""
    failed, error = [], {"message": str(exc)}
    if isinstance(exc, AssumptionViolatedError):
        failed, error = [exc.assumption], {"assumption": exc.assumption, **error}
    elif isinstance(exc, BudgetExceededError):
        error = {"counted": exc.counted, "size": exc.size, "budget": exc.budget, **error}
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "hypotheses": {"verified": [], "failed": failed, "assumed": []},
        "error": error,
        "exit_code": 1,
    }


def _framed(spec: QuiverSpec, i: str | None, j: str | None, scale: int | None) -> FramingResult:
    """The double framing of the spec's datum.  Explicit i and j are framed
    at ``scale`` or ``MINIMAL_FRAMING_SCALE``; otherwise the spec's framing
    block gives the vertices and, unless ``scale`` overrides it, the scale.
    A cyclic base quiver is refused here, after any unknown vertex, by the
    path layer's one refusal, which names its cycle."""
    from .framing import MINIMAL_FRAMING_SCALE, double_frame

    if i is None and j is None:
        if spec.framing is None:
            raise SpecFileError("no framing vertices: pass i and j or add a framing block to the spec")
        i, j = spec.framing.i, spec.framing.j
        if scale is None:
            scale = spec.framing.scale
    elif i is None or j is None:
        raise SpecFileError("either give both vertices i and j or neither")
    q, d, theta = spec.quiver, spec.dimension, spec.stability
    scale = MINIMAL_FRAMING_SCALE if scale is None else scale
    framing = double_frame(q, d, theta, i, j, scale)
    _acyclic_order(q)
    return framing


def _support_quiver(q: Quiver, d: DimensionVector) -> Quiver:
    """The full subquiver of q on supp(d), the vertices with d_k > 0 in q's
    order and every arrow between them; q itself on full support."""
    kept = tuple(v for v in q.vertices if d[v] > 0)
    if len(kept) == len(q.vertices):
        return q
    support = set(kept)
    return Quiver._checked(kept, tuple((s, t) for s, t in q.arrows if s in support and t in support))


def build_analyze_report(spec: QuiverSpec, override_assumptions: bool = False) -> dict[str, Any]:
    from .cohomology import _require_vector_fields, hochschild1_dim, moduli_dimension  # only analyze pays its import

    q, d, theta = spec.quiver, spec.dimension, spec.stability
    report = assumptions_report(q, d, theta)
    out = _header("analyze", spec, report)

    dimensions: dict[str, Any] = {}
    if report.acyclic:
        # U_k = 0 where d_k = 0, so a path through such a vertex acts as zero
        # on U: the endomorphism table is the path count table of the full
        # subquiver on supp(d); the ledger states the hypotheses under which
        # they agree.
        table = path_count_matrix(_support_quiver(q, d))
        dimensions["moduli_dim"] = moduli_dimension(q, d)
        dimensions["endomorphism_table"] = {
            "vertices": list(table.vertices),
            "path_counts": [list(row) for row in table.entries],
        }
        dimensions["endomorphism_total"] = table.total()
        hh1 = dimensions["hh1"] = hochschild1_dim(q)
        # Where the presentation applies, its cokernel is HH^1, behind
        # cohomology.vector_fields_dim's gate.
        failed = report.refusals()
        try:
            _require_vector_fields(q, d, [] if override_assumptions else failed)
        except AssumptionViolatedError as exc:
            dimensions["vector_fields"] = {"refused": exc.assumption}
        else:
            entry: dict[str, Any] = {"value": hh1}
            if failed:
                entry["override"] = True
                entry["caveat"] = (
                    "hypotheses were overridden; this is the presentation formula, "
                    "not a verified count of vector fields"
                )
            dimensions["vector_fields"] = entry
    out["dimensions"] = dimensions
    out["verifications"] = []
    out["exit_code"] = 0 if report.all_verified() else 1
    return out


def _framing_dict(framing: FramingResult) -> dict[str, Any]:
    return {
        "framed_at": {"i": framing.framed_at[0], "j": framing.framed_at[1]},
        "scale": framing.framing_scale,
        "source_vertex": framing.source_vertex,
        "sink_vertex": framing.sink_vertex,
        "framed_datum": datum_dict(
            framing.framed_quiver, framing.framed_dimension, framing.framed_stability
        ),
    }


def build_frame_report(spec: QuiverSpec, i: str | None, j: str | None, scale: int | None) -> dict[str, Any]:
    from .framing import framed_ample_stability, verify_framed_sign_partition

    q, d = spec.quiver, spec.dimension
    framing = _framed(spec, i, j, scale)
    i, j = framing.framed_at
    check = verify_framed_sign_partition(framing)

    verifications = [
        {
            "name": "framed sign partition matches its predicted description",
            "passed": check.passed,
            "checked": check.checked,
            "discrepancies": [
                {
                    "vector": {v: vec[v] for v in framing.framed_quiver.vertices},
                    "expected": expected,
                    "actual": actual,
                }
                for vec, expected, actual in check.discrepancies
            ],
        }
    ]
    if check.discrepancy_count > len(check.discrepancies):
        verifications[0]["discrepancy_count"] = check.discrepancy_count
    framing_block = _framing_dict(framing)
    framing_block["framed_ample_stability"] = framed_ample_stability(d, i, j)
    # The framing source's one arrow enters i and the sink's one arrow leaves
    # j, so the framed paths from source to sink are the base paths i -> j.
    framing_block["framed_path_space_dim"] = framing_block["base_path_space_dim"] = path_count(q, i, j)
    return {
        **_header("frame", spec, framing.base_assumptions),
        "framing": framing_block,
        "verifications": verifications,
        "exit_code": 0 if check.passed else 1,
    }


def _reduction_dict(result: ReductionResult) -> dict[str, Any]:
    q0, qinf = result.connecting_paths
    return {
        "case": result.case_tag.value,
        "marked_vertices": {"i": result.marked_vertices[0], "j": result.marked_vertices[1]},
        "connecting_paths": {
            "q0": {"source": q0.source, "arrows": list(q0.arrows)},
            "qinf": {"source": qinf.source, "arrows": list(qinf.arrows)},
        },
        "reduced_datum": datum_dict(
            result.reduced_quiver, result.reduced_dimension, result.reduced_stability
        ),
    }


def build_reduce_report(spec: QuiverSpec, i: str | None, j: str | None, scale: int | None) -> dict[str, Any]:
    from .framing import reduce

    framing = _framed(spec, i, j, scale)
    reduction = _reduction_dict(reduce(framing))
    # The reduced paths between the marks are the base paths i -> j, as the
    # framed paths from source to sink are in build_frame_report.
    reduction["reduced_path_space_dim"] = reduction["base_path_space_dim"] = path_count(
        framing.base_quiver, *framing.framed_at
    )
    return {
        **_header("reduce", spec, framing.base_assumptions),
        "framing": _framing_dict(framing),
        "reduction": reduction,
        "verifications": [],
        "exit_code": 0,
    }


def build_verify_report(
    spec: QuiverSpec, prime: int, budget: int, seed: int, scale: int | None
) -> dict[str, Any]:
    from .ff_oracle import verify_double_framing_equivalence  # only verify pays its import

    if spec.framing is None:
        raise AssumptionViolatedError("a framing block is required for verification")
    framing = _framed(spec, None, None, scale)
    equivalence = verify_double_framing_equivalence(framing, prime, budget, seed)
    return {
        **_header("verify", spec, framing.base_assumptions),
        "framing": _framing_dict(framing),
        "verifications": [
            {
                "name": f"framed stability description over F_{prime}",
                "passed": equivalence.passed,
                "points_checked": equivalence.instances_checked,
                "failures": equivalence.failure_count,
                "sampled": equivalence.sampled,
                "sample_size": equivalence.instances_checked if equivalence.sampled else None,
                "notes": list(equivalence.notes),
            }
        ],
        "exit_code": 0 if equivalence.passed else 1,
    }


# --- human-readable rendering ------------------------------------------------


def _render_vector(values: dict[str, int]) -> str:
    return "(" + ", ".join(f"{v}: {c}" for v, c in values.items()) + ")"


def render_human(report: dict[str, Any]) -> str:
    """Plain-text rendering, derived exclusively from the report dict."""
    lines: list[str] = []
    lines.append(f"command: {report['command']}")
    datum = report.get("datum")
    counts = report.get("datum_counts")
    if datum and counts:
        lines.append(
            "datum: %d vertices, %d arrows, dimension %s, stability %s"
            % (
                counts["vertices"],
                counts["arrows"],
                _render_vector(datum["dimension"]),
                _render_vector(datum["stability"]),
            )
        )
    assumptions = report.get("assumptions")
    if assumptions:
        lines.append("hypotheses on the datum:")
        for key in HYPOTHESES:
            lines.append(f"  {key}: {'yes' if assumptions[key] else 'NO'}")
        lines.append(f"  amply_stable: {assumptions['amply_stable']}")
        counts = assumptions.get("failing_witness_counts", {})
        for name, witnesses in assumptions.get("failing_witnesses", {}).items():
            rendered = ", ".join(_render_vector(w) for w in witnesses)
            if name in counts:
                rendered += f", ... and {counts[name] - len(witnesses)} more"
            lines.append(f"  witnesses against {name}: {rendered}")
    hypotheses = report.get("hypotheses")
    if hypotheses:
        for label in hypotheses["assumed"]:
            lines.append(f"assumed (not computed): {label}")
    dimensions = report.get("dimensions")
    if dimensions:
        lines.append("dimensions:")
        if "moduli_dim" in dimensions:
            lines.append(f"  expected moduli dimension: {dimensions['moduli_dim']}")
        if "endomorphism_total" in dimensions:
            lines.append(f"  endomorphism algebra total: {dimensions['endomorphism_total']}")
        table = dimensions.get("endomorphism_table")
        if table:
            lines.append("  path count table (rows = from, columns = to):")
            lines.append("    " + " ".join(table["vertices"]))
            for v, row in zip(table["vertices"], table["path_counts"]):
                lines.append("    " + v + ": " + " ".join(str(x) for x in row))
        if "hh1" in dimensions:
            lines.append(f"  first Hochschild cohomology: {dimensions['hh1']}")
        vf = dimensions.get("vector_fields")
        if vf is not None:
            if "value" in vf:
                suffix = "  [override: formula value only]" if vf.get("override") else ""
                lines.append(f"  vector fields: {vf['value']}{suffix}")
            else:
                lines.append(f"  vector fields: refused ({vf['refused']})")
    framing = report.get("framing")
    if framing:
        lines.append(
            "framing at (i = %s, j = %s), scale %d, fresh vertices %s and %s"
            % (
                framing["framed_at"]["i"],
                framing["framed_at"]["j"],
                framing["scale"],
                framing["source_vertex"],
                framing["sink_vertex"],
            )
        )
        fd = framing["framed_datum"]
        lines.append(
            "  framed dimension %s, framed stability %s"
            % (_render_vector(fd["dimension"]), _render_vector(fd["stability"]))
        )
        if "framed_ample_stability" in framing:
            lines.append(
                f"  framed datum amply stable: {'yes' if framing['framed_ample_stability'] else 'NO'}"
            )
        if "framed_path_space_dim" in framing:
            lines.append(
                "  path space source to sink: %d (base path space i to j: %d)"
                % (framing["framed_path_space_dim"], framing["base_path_space_dim"])
            )
    reduction = report.get("reduction")
    if reduction:
        lines.append(f"reduction case: {reduction['case']}")
        lines.append(
            "  marked vertices i' = %s, j' = %s"
            % (reduction["marked_vertices"]["i"], reduction["marked_vertices"]["j"])
        )
        rd = reduction["reduced_datum"]
        lines.append(
            "  reduced dimension %s, reduced stability %s"
            % (_render_vector(rd["dimension"]), _render_vector(rd["stability"]))
        )
        lines.append(
            "  path space at marks: %d (base: %d)"
            % (reduction["reduced_path_space_dim"], reduction["base_path_space_dim"])
        )
    for check in report.get("verifications", ()):
        status = "pass" if check["passed"] else "FAIL"
        extras = []
        for key in ("checked", "points_checked", "failures"):
            if key in check and not isinstance(check[key], list):
                extras.append(f"{key}={check[key]}")
        if check.get("sampled"):
            extras.append(f"sampled={check['sample_size']}")
        for note in check.get("notes", ()):
            extras.append(note)
        suffix = f" ({', '.join(extras)})" if extras else ""
        lines.append(f"verification: {check['name']}: {status}{suffix}")
    error = report.get("error")
    if error:
        lines.append(f"refused: {error['message']}")
    lines.append(f"exit code: {report['exit_code']}")
    return "\n".join(lines) + "\n"
