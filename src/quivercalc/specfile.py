"""The quiver spec file: a diff-able JSON document describing one datum.

Example::

    {
      "vertices": ["1", "2", "3"],
      "arrows": [{"from": "1", "to": "2"}, {"from": "2", "to": "3"}],
      "dimension": {"1": 1, "2": 1, "3": 1},
      "stability": {"1": 1, "2": 0, "3": -1},
      "framing": {"i": "2", "j": "3", "scale": 2},
      "oracle": {"prime": 2, "budget": 1000000, "seed": 0}
    }

``framing`` and ``oracle`` are optional, and the framing scale may be spelled
``scale`` or ``N``.  Structural validation runs against ``SPEC_SCHEMA``;
semantic validation then checks vertex references and the zero-pairing
convention for the stability parameter, suggesting the canonical stability
parameter as a repair when the pairing is nonzero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path as FsPath

import jsonschema
from jsonschema.exceptions import best_match

from .core import DimensionVector, Quiver, StabilityParameter, canonical_stability, is_acyclic
from .errors import SpecFileError

__all__ = [
    "FramingSpec",
    "OracleSpec",
    "QuiverSpec",
    "SPEC_SCHEMA",
    "parse_spec",
    "load_spec",
    "datum_dict",
    "spec_to_dict",
    "dump_spec",
]

SPEC_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["vertices", "arrows", "dimension", "stability"],
    "additionalProperties": False,
    "properties": {
        "vertices": {
            "type": "array",
            "items": {"type": "string"},
            "minItems": 1,
            "uniqueItems": True,
        },
        "arrows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["from", "to"],
                "additionalProperties": False,
                "properties": {
                    "from": {"type": "string"},
                    "to": {"type": "string"},
                },
            },
        },
        "dimension": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 0},
        },
        "stability": {
            "type": "object",
            "additionalProperties": {"type": "integer"},
        },
        "framing": {
            "type": "object",
            "required": ["i", "j"],
            "additionalProperties": False,
            "properties": {
                "i": {"type": "string"},
                "j": {"type": "string"},
                "scale": {"type": "integer", "minimum": 1},
                "N": {"type": "integer", "minimum": 1},
            },
        },
        "oracle": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "prime": {"type": "integer", "minimum": 2},
                "budget": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
            },
        },
    },
}

# Built once: jsonschema.validate would check SPEC_SCHEMA against the
# metaschema on every parse (the test suite checks it once).
_SPEC_VALIDATOR = jsonschema.Draft202012Validator(SPEC_SCHEMA)


@dataclass(frozen=True)
class FramingSpec:
    i: str
    j: str
    scale: int | None = None


@dataclass(frozen=True)
class OracleSpec:
    prime: int = 2
    budget: int = 10**6
    seed: int = 0


@dataclass(frozen=True)
class QuiverSpec:
    quiver: Quiver
    dimension: DimensionVector
    stability: StabilityParameter
    framing: FramingSpec | None = None
    oracle: OracleSpec | None = None


def _json_path(error: jsonschema.ValidationError) -> str:
    parts = ["$"] + [str(p) for p in error.absolute_path]
    return ".".join(parts)


def parse_spec(document: dict) -> QuiverSpec:
    """Validate a decoded JSON document and build the datum it describes."""
    error = best_match(_SPEC_VALIDATOR.iter_errors(document))
    if error is not None:
        raise SpecFileError(error.message, location=_json_path(error))

    vertices = document["vertices"]
    declared = set(vertices)
    for k, arrow in enumerate(document["arrows"]):
        for key in ("from", "to"):
            if arrow[key] not in declared:
                raise SpecFileError(
                    f"undeclared vertex {arrow[key]!r}", location=f"$.arrows.{k}.{key}"
                )
    for section in ("dimension", "stability"):
        keys = set(document[section])
        if keys != declared:
            missing = sorted(declared - keys)
            extra = sorted(keys - declared)
            detail = []
            if missing:
                detail.append(f"missing {missing}")
            if extra:
                detail.append(f"undeclared {extra}")
            raise SpecFileError(
                f"must cover exactly the vertex set: {', '.join(detail)}",
                location=f"$.{section}",
            )

    quiver = Quiver(vertices, [(a["from"], a["to"]) for a in document["arrows"]])
    dimension = DimensionVector(document["dimension"])
    stability = StabilityParameter(document["stability"])

    pairing = stability(dimension)
    if pairing != 0:
        hint = ""
        if is_acyclic(quiver):
            suggestion = canonical_stability(quiver, dimension)
            hint = f"; the canonical stability parameter here is {suggestion.as_dict()}"
        raise SpecFileError(
            f"stability must pair to zero with the dimension vector, got {pairing}{hint}",
            location="$.stability",
        )

    framing = None
    if "framing" in document:
        f = document["framing"]
        for key in ("i", "j"):
            if f[key] not in declared:
                raise SpecFileError(
                    f"undeclared vertex {f[key]!r}", location=f"$.framing.{key}"
                )
        if "scale" in f and "N" in f:
            raise SpecFileError("give the framing scale once, as 'scale' or 'N'", location="$.framing")
        framing = FramingSpec(i=f["i"], j=f["j"], scale=f.get("scale", f.get("N")))

    oracle = OracleSpec(**document["oracle"]) if "oracle" in document else None
    return QuiverSpec(quiver, dimension, stability, framing, oracle)


def load_spec(path: str | FsPath) -> QuiverSpec:
    """Read and parse a spec file; all failures surface as SpecFileError."""
    try:
        text = FsPath(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecFileError(str(exc), location=str(path)) from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"invalid JSON: {exc.msg}", location=f"{path}:{exc.lineno}:{exc.colno}"
        ) from None
    if not isinstance(document, dict):
        raise SpecFileError("top-level value must be an object", location=str(path))
    return parse_spec(document)


def datum_dict(q: Quiver, d: DimensionVector, theta: StabilityParameter) -> dict:
    """A datum as a spec document in vertex order, so report data re-parse."""
    return {
        "vertices": list(q.vertices),
        "arrows": [{"from": s, "to": t} for s, t in q.arrows],
        "dimension": {v: d[v] for v in q.vertices},
        "stability": {v: theta[v] for v in q.vertices},
    }


def spec_to_dict(spec: QuiverSpec) -> dict:
    """Serialize back to the document form; parse(spec_to_dict(s)) == s."""
    document = datum_dict(spec.quiver, spec.dimension, spec.stability)
    if spec.framing is not None:
        framing: dict = {"i": spec.framing.i, "j": spec.framing.j}
        if spec.framing.scale is not None:
            framing["scale"] = spec.framing.scale
        document["framing"] = framing
    if spec.oracle is not None:
        document["oracle"] = {
            "prime": spec.oracle.prime,
            "budget": spec.oracle.budget,
            "seed": spec.oracle.seed,
        }
    return document


def dump_spec(spec: QuiverSpec, path: str | FsPath) -> None:
    FsPath(path).write_text(json.dumps(spec_to_dict(spec), indent=2) + "\n", encoding="utf-8")
