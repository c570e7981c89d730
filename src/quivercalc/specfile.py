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
``scale`` or ``N``.  Structural validation runs against ``SPEC_SCHEMA``.  A
valid spec is accepted by one type-exact pass over the schema's shape;
anything that pass does not certify goes to a private walker that gives
jsonschema's (Draft 2020-12) decision, location and ``best_match`` message
for this schema's keywords without importing it, so every refusal reads as
jsonschema words it.  The schema states shapes only; semantic validation
then checks the vertex names (distinct, and every reference declared) and
the zero-pairing convention for the stability parameter, suggesting the
canonical stability parameter as a repair when the pairing is nonzero.
The arrows are read once, into the (from, to) pairs that the endpoint rule
checks and the quiver is built from without a second check.
Integral floats such as ``2.0`` pass as integers, as in JSON Schema, and
are read as ``int``.
"""

from __future__ import annotations

import json
import numbers
from json.encoder import encode_basestring_ascii
from pathlib import Path as FsPath
from typing import NamedTuple

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

_TYPES = {"object": dict, "array": list, "string": str}


def _is_number(value) -> bool:
    return isinstance(value, numbers.Number) and not isinstance(value, bool)


def _is_type(value, name: str) -> bool:
    if name == "integer":
        return _is_number(value) and (isinstance(value, int) or isinstance(value, float) and value.is_integer())
    return isinstance(value, _TYPES[name])


def _schema_errors(value, schema: dict, path: tuple):
    """Yield ``(path, message)`` for each violation, in the order jsonschema
    reports them: keywords in schema order, children where they appear."""
    for keyword, rule in schema.items():
        if keyword == "type":
            if not _is_type(value, rule):
                yield path, f"{value!r} is not of type {rule!r}"
        elif keyword == "minimum":
            if _is_number(value) and value < rule:
                yield path, f"{value!r} is less than the minimum of {rule!r}"
        elif isinstance(value, list):
            if keyword == "items":
                for k, item in enumerate(value):
                    yield from _schema_errors(item, rule, path + (k,))
            elif keyword == "minItems" and len(value) < rule:
                yield path, f"{value!r} {'should be non-empty' if rule == 1 else 'is too short'}"
        elif isinstance(value, dict):
            if keyword == "required":
                for key in rule:
                    if key not in value:
                        yield path, f"{key!r} is a required property"
            elif keyword == "properties":
                for key, sub in rule.items():
                    if key in value:
                        yield from _schema_errors(value[key], sub, path + (key,))
            elif keyword == "additionalProperties":
                extras = [key for key in value if key not in schema.get("properties", {})]
                if isinstance(rule, dict):
                    for key in extras:
                        yield from _schema_errors(value[key], rule, path + (key,))
                elif rule is False and extras:
                    names = ", ".join(repr(key) for key in sorted(extras, key=str))
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"


def _best_schema_error(document) -> tuple[tuple, str] | None:
    """jsonschema's ``best_match`` over these keywords: the shallowest error,
    the largest path among siblings, the first reported at one location."""
    return max(_schema_errors(document, SPEC_SCHEMA, ()), key=lambda e: (-len(e[0]), e[0]), default=None)


def _certainly_valid(document) -> bool:
    """True only where ``_schema_errors`` finds no error: one type-exact pass
    over ``SPEC_SCHEMA``'s shape.  A bool, a float, a ``str`` subclass or any
    other unusual value answers False, and the walker decides."""
    top = document.keys() if type(document) is dict else set()
    if not {"vertices", "arrows", "dimension", "stability"} <= top <= SPEC_SCHEMA["properties"].keys():
        return False
    vertices, arrows, dimension, stability = (document[key] for key in ("vertices", "arrows", "dimension", "stability"))
    framing = document.get("framing", {"i": "", "j": ""})
    oracle = document.get("oracle", {})
    return (
        type(vertices) is list and set(map(type, vertices)) == {str}
        and type(arrows) is list
        and all(type(a) is dict and len(a) == 2 and type(a.get("from")) is type(a.get("to")) is str for a in arrows)
        and type(dimension) is dict and set(map(type, dimension.values())) <= {int} and min(dimension.values(), default=0) >= 0
        and type(stability) is dict and set(map(type, stability.values())) <= {int}
        and type(framing) is dict and {"i", "j"} <= framing.keys() <= {"i", "j", "scale", "N"}
        and type(framing["i"]) is type(framing["j"]) is str
        and all(type(framing[k]) is int and framing[k] >= 1 for k in framing.keys() & {"scale", "N"})
        and type(oracle) is dict and oracle.keys() <= {"prime", "budget", "seed"}
        and set(map(type, oracle.values())) <= {int}
        and oracle.get("prime", 2) >= 2 and oracle.get("budget", 1) >= 1
    )


class FramingSpec(NamedTuple):
    i: str
    j: str
    scale: int | None = None


class OracleSpec(NamedTuple):
    prime: int = 2
    budget: int = 10**6
    seed: int = 0


class QuiverSpec(NamedTuple):
    quiver: Quiver
    dimension: DimensionVector
    stability: StabilityParameter
    framing: FramingSpec | None = None
    oracle: OracleSpec | None = None


def parse_spec(document: dict) -> QuiverSpec:
    """Validate a decoded JSON document and build the datum it describes."""
    error = None if _certainly_valid(document) else _best_schema_error(document)
    if error is not None:
        path, message = error
        raise SpecFileError(message, location=".".join(["$", *map(str, path)]))

    vertices = document["vertices"]
    declared = set()
    for k, name in enumerate(vertices):
        if name in declared:
            raise SpecFileError(f"duplicate vertex {name!r}", location=f"$.vertices.{k}")
        declared.add(name)
    arrows = tuple((a["from"], a["to"]) for a in document["arrows"])
    for k, (s, t) in enumerate(arrows):
        if s not in declared or t not in declared:
            key, name = ("from", s) if s not in declared else ("to", t)
            raise SpecFileError(f"undeclared vertex {name!r}", location=f"$.arrows.{k}.{key}")
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

    quiver = Quiver._checked(tuple(vertices), arrows)
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
        scale = f.get("scale", f.get("N"))
        framing = FramingSpec(i=f["i"], j=f["j"], scale=None if scale is None else int(scale))

    oracle = OracleSpec(**{k: int(v) for k, v in document["oracle"].items()}) if "oracle" in document else None
    return QuiverSpec(quiver, dimension, stability, framing, oracle)


def load_spec(path: str | FsPath) -> QuiverSpec:
    """Read and parse a spec file; all failures surface as SpecFileError."""
    try:
        text = FsPath(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecFileError(str(exc), location=str(path)) from None
    try:
        document = json.loads(text)
        if not isinstance(document, dict):
            raise SpecFileError("top-level value must be an object", location=str(path))
        return parse_spec(document)
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"invalid JSON: {exc.msg}", location=f"{path}:{exc.lineno}:{exc.colno}"
        ) from None
    except RecursionError:  # decoding recurses on nesting
        raise SpecFileError("values nested too deeply", location=str(path)) from None


def datum_dict(q: Quiver, d: DimensionVector, theta: StabilityParameter) -> dict:
    """A datum as a spec document in vertex order, so report data re-parse."""
    return {
        "vertices": list(q.vertices),
        "arrows": [{"from": s, "to": t} for s, t in q.arrows],
        "dimension": {v: d[v] for v in q.vertices},
        "stability": {v: theta[v] for v in q.vertices},
    }


def _indented_json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte; ``indent`` is the line
    break and indentation that precede the value's closing bracket.

    ``json.dumps`` takes its pure-Python encoder whenever ``indent`` is set;
    this writes each dict and list in one ``str.join`` instead, and a list of
    plain ints (a path count row) without a call per entry.  Floats,
    subclasses and dicts with non-str keys go to ``json.dumps`` itself,
    re-indented: a JSON text has no raw newline but its line breaks.  The
    recursion is as deep as the value's nesting, as in ``json``.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = indent + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:
            body = map(int.__repr__, value)
        else:
            body = [_indented_json(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(body) + indent + "]"
    if kind is dict and set(map(type, value)) <= {str}:
        if not value:
            return "{}"
        body = [encode_basestring_ascii(k) + ": " + _indented_json(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(body) + indent + "}"
    return json.dumps(value, indent=2).replace("\n", indent)
