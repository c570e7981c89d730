import copy
import enum
import json
import random
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match

from quivercalc import DimensionVector, SpecFileError, load_spec, parse_spec
from quivercalc.specfile import (
    SPEC_SCHEMA,
    FramingSpec,
    _best_schema_error,
    _certainly_valid,
    _indented_json,
    datum_dict,
)

from conftest import acyclic_quivers, random_acyclic_quiver, random_zero_pairing_parameter, spec_documents
from oracles import reference_spec_refusal

FIXTURES = Path(__file__).parent / "fixtures"


def test_fixtures_parse():
    paths = sorted(FIXTURES.glob("*.json"))
    assert len(paths) == 8
    for path in paths:
        spec = load_spec(path)
        assert spec.stability(spec.dimension) == 0
        # real specs take the fast path, not the walker
        assert _certainly_valid(json.loads(path.read_text(encoding="utf-8")))


def test_parse_three_vertex_fixture():
    spec = load_spec(FIXTURES / "threevertex.json")
    assert spec.quiver.vertices == ("1", "2", "3")
    assert len(spec.quiver.arrows) == 4
    assert spec.framing.i == "2" and spec.framing.j == "3" and spec.framing.scale == 2
    assert spec.oracle.prime == 2


def _datum(spec):
    """The spec's datum as ``datum_dict`` writes it into every report."""
    return datum_dict(spec.quiver, spec.dimension, spec.stability)


def test_round_trip_fixtures(tmp_path):
    for path in sorted(FIXTURES.glob("*.json")):
        spec = load_spec(path)
        assert _certainly_valid(_datum(spec))
        out = tmp_path / path.name
        out.write_text(_indented_json(_datum(spec)) + "\n", encoding="utf-8")
        assert load_spec(out) == spec._replace(framing=None, oracle=None)
        assert out.read_text(encoding="utf-8") == json.dumps(_datum(spec), indent=2) + "\n"


@settings(max_examples=30)
@given(acyclic_quivers(max_vertices=4), st.data())
def test_round_trip_random_specs(q, data):
    dimension = {v: data.draw(st.integers(0, 3)) for v in q.vertices}
    document = {
        "vertices": list(q.vertices),
        "arrows": [{"from": s, "to": t} for s, t in q.arrows],
        "dimension": dimension,
        "stability": {v: 0 for v in q.vertices},
    }
    spec = parse_spec(document)
    assert _certainly_valid(_datum(spec))
    assert parse_spec(_datum(spec)) == spec


def test_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(SpecFileError) as info:
        load_spec(bad)
    assert "invalid JSON" in str(info.value)


def test_missing_file():
    with pytest.raises(SpecFileError):
        load_spec("/nonexistent/spec.json")


def test_schema_violation_reports_location():
    with pytest.raises(SpecFileError) as info:
        parse_spec({"vertices": ["a"], "arrows": [{"from": "a"}], "dimension": {"a": 1}, "stability": {"a": 0}})
    assert "arrows" in str(info.value)


def test_spec_schema_is_valid():
    jsonschema.Draft202012Validator.check_schema(SPEC_SCHEMA)


@pytest.mark.parametrize(
    "document",
    [
        {"vertices": []},
        {"vertices": ["a"], "arrows": [{"from": "a"}], "dimension": {"a": 1}, "stability": {"a": 0}},
        {"vertices": ["a"], "arrows": [], "dimension": {"a": "1"}, "stability": {"a": 0}, "extra": 1},
        {"vertices": ["a"], "arrows": [], "dimension": {"a": 1}, "stability": {"a": 0}, "oracle": {"budget": 0}},
        {"vertices": ["a"], "arrows": [], "dimension": {"a": 1}, "stability": {"a": 0}, "framing": {"i": "a"}},
    ],
)
def test_schema_errors_match_jsonschema_validate(document):
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(document, SPEC_SCHEMA)
    with pytest.raises(SpecFileError) as info:
        parse_spec(document)
    location = ".".join(["$"] + [str(p) for p in expected.value.absolute_path])
    assert str(info.value) == f"{location}: {expected.value.message}"


def test_a_repeated_vertex_name_is_refused_at_its_first_repeat():
    document = {"vertices": ["a", "b", "a", "b"], "arrows": [], "dimension": {"a": 1}, "stability": {"a": 0}}
    with pytest.raises(SpecFileError) as info:
        parse_spec(document)
    assert str(info.value) == "$.vertices.2: duplicate vertex 'a'"
    # A schema error anywhere in the document comes first.
    document = {"vertices": ["a", "a"], "arrows": [], "dimension": {"a": "x"}, "stability": {"a": 0}}
    with pytest.raises(SpecFileError) as info:
        parse_spec(document)
    assert str(info.value) == "$.dimension.a: 'x' is not of type 'integer'"


@pytest.mark.parametrize("argv", [["frame"], ["reduce"], ["verify", "--budget", "320"]], ids=["frame", "reduce", "verify"])
def test_a_loaded_quiver_has_its_names_checked_once(monkeypatch, capsys, argv):
    """parse_spec checks the vertex names and arrow endpoints itself, so it
    builds the quiver without ``Quiver.__init__``'s second check, and the
    quiver is the one ``__init__`` builds; the framed and reduced quivers
    add only parts checked by construction, so no command reaches it."""
    from quivercalc.cli import main
    from quivercalc.core import Quiver

    expected = Quiver(("1", "2", "3"), (("1", "2"), ("2", "3"), ("2", "3"), ("1", "3")))

    def refuse(*args):
        raise AssertionError("names checked again")

    monkeypatch.setattr(Quiver, "__init__", refuse)
    spec = load_spec(FIXTURES / "threevertex.json")
    assert spec.quiver == expected and hash(spec.quiver) == hash(expected)
    assert spec.quiver.arrow_indices == ((0, 1), (1, 2), (1, 2), (0, 2))
    command, *flags = argv
    codes = [main([command, str(path), *flags, "--json"]) for path in sorted(FIXTURES.glob("*.json"))]
    capsys.readouterr()
    assert 0 in codes


def _with_faults(rng, document):
    """``document`` with one to three faults: a repeated name, an undeclared
    arrow end, a missing or extra key in ``dimension`` or ``stability``, an
    undeclared framing vertex, a nonzero pairing or a scale given twice;
    names starting with x are undeclared."""
    document = copy.deepcopy(document)
    for n in range(rng.randint(1, 3)):
        fault = rng.choice(["repeat", "arrow", "missing", "extra", "framing", "pairing", "scale"])
        vertices, arrows = document["vertices"], document["arrows"]
        if fault == "repeat":
            vertices.insert(rng.randint(1, len(vertices)), rng.choice(vertices))
        elif fault == "arrow":
            if not arrows or rng.random() < 0.3:
                arrows.insert(rng.randint(0, len(arrows)), {"from": rng.choice(vertices), "to": rng.choice(vertices)})
            rng.choice(arrows)[rng.choice(["from", "to"])] = f"x{n}"
        elif fault in ("missing", "extra"):
            section = document[rng.choice(["dimension", "stability"])]
            if fault == "missing":
                section.pop(rng.choice(vertices), None)
            else:
                section[f"x{n}"] = rng.randint(0, 2)
        elif fault == "pairing":
            dimension, stability = document["dimension"], document["stability"]
            for v in [v for v in sorted(stability) if dimension.get(v)][:1]:
                stability[v] += 1
        else:
            framing = document.setdefault("framing", {"i": rng.choice(vertices), "j": rng.choice(vertices)})
            if fault == "framing":
                framing[rng.choice(["i", "j"])] = f"x{n}"
            else:
                framing.update(scale=1, N=1)
    return document


def test_refusals_come_in_the_reference_order():
    """parse_spec's message and location equal a plain reference's, which
    checks one rule at a time in the order of the rules, on random data with
    one to three injected faults; where the faults leave the spec valid
    (a pairing fault on d = 0), both accept it."""
    rng = random.Random(35)
    for _ in range(400):
        q = random_acyclic_quiver(rng, max_vertices=5)
        d = DimensionVector({v: rng.randint(0, 3) for v in q.vertices})
        document = datum_dict(q, d, random_zero_pairing_parameter(rng, q, d))
        if rng.random() < 0.5:
            document["framing"] = {"i": rng.choice(q.vertices), "j": rng.choice(q.vertices), "scale": 2}
        faulty = _with_faults(rng, document)
        expected = reference_spec_refusal(faulty)
        if expected is None:
            parse_spec(faulty)
            continue
        message, location = expected
        with pytest.raises(SpecFileError) as info:
            parse_spec(faulty)
        assert (str(info.value), info.value.location) == (f"{location}: {message}", location)


def test_undeclared_vertex_in_arrow():
    with pytest.raises(SpecFileError) as info:
        parse_spec(
            {
                "vertices": ["a"],
                "arrows": [{"from": "a", "to": "b"}],
                "dimension": {"a": 1},
                "stability": {"a": 0},
            }
        )
    assert "'b'" in str(info.value)


def test_dimension_must_cover_vertex_set():
    with pytest.raises(SpecFileError) as info:
        parse_spec(
            {
                "vertices": ["a", "b"],
                "arrows": [],
                "dimension": {"a": 1},
                "stability": {"a": 0, "b": 0},
            }
        )
    assert "dimension" in str(info.value)
    for section in ("dimension", "stability"):
        document = {"vertices": ["a", "b"], "arrows": [], "dimension": {"a": 1, "b": 1}, "stability": {"a": 0, "b": 0}}
        document[section] = {"a": 0, "c": 0}
        with pytest.raises(SpecFileError) as info:
            parse_spec(document)
        assert str(info.value) == f"$.{section}: must cover exactly the vertex set: missing ['b'], undeclared ['c']"


def test_nonzero_pairing_suggests_canonical_parameter():
    document = {
        "vertices": ["1", "2", "3"],
        "arrows": [
            {"from": "1", "to": "2"},
            {"from": "2", "to": "3"},
            {"from": "2", "to": "3"},
            {"from": "1", "to": "3"},
        ],
        "dimension": {"1": 1, "2": 1, "3": 1},
        "stability": {"1": 1, "2": 1, "3": 1},
    }
    with pytest.raises(SpecFileError) as info:
        parse_spec(document)
    message = str(info.value)
    assert "pair to zero" in message
    assert "'1': 2" in message and "'3': -3" in message  # the canonical repair hint


def test_framing_scale_accepts_both_spellings():
    base = {
        "vertices": ["1", "2"],
        "arrows": [{"from": "1", "to": "2"}],
        "dimension": {"1": 1, "2": 1},
        "stability": {"1": 1, "2": -1},
    }
    short = parse_spec({**base, "framing": {"i": "1", "j": "2", "N": 3}})
    long = parse_spec({**base, "framing": {"i": "1", "j": "2", "scale": 3}})
    assert short.framing == long.framing
    with pytest.raises(SpecFileError):
        parse_spec({**base, "framing": {"i": "1", "j": "2", "N": 3, "scale": 3}})


def test_negative_dimension_rejected():
    with pytest.raises(SpecFileError):
        parse_spec(
            {
                "vertices": ["a"],
                "arrows": [],
                "dimension": {"a": -1},
                "stability": {"a": 0},
            }
        )


def test_integral_floats_are_read_as_integers():
    document = json.loads((FIXTURES / "kronecker.json").read_text())
    document["framing"]["N"] = 2.0
    del document["framing"]["scale"]
    document["oracle"] = {"prime": 3.0, "budget": 1e3, "seed": -1.0}
    document["dimension"] = {vertex: float(n) for vertex, n in document["dimension"].items()}
    assert not _certainly_valid(document)  # left to the walker, which accepts it
    spec = parse_spec(document)
    assert spec.dimension.as_dict() == document["dimension"]
    assert all(type(n) is int for n in spec.dimension.as_dict().values())
    fields = (spec.framing.scale, spec.oracle.prime, spec.oracle.budget, spec.oracle.seed)
    assert fields == (2, 3, 1000, -1)
    assert all(type(x) is int for x in fields)
    assert spec.framing == FramingSpec("1", "2", 2)


def test_deeply_nested_values_are_a_spec_error(tmp_path):
    nested = "[" * 400 + "]" * 400
    for value in (nested, "[" * 100_000 + "]" * 100_000):
        path = tmp_path / "deep.json"
        path.write_text(f'{{"vertices": [{value}, {value}]}}', encoding="utf-8")
        with pytest.raises(SpecFileError):
            load_spec(path)


# --- the spec validator against jsonschema -----------------------------------

_REFERENCE = jsonschema.Draft202012Validator(SPEC_SCHEMA)
_FIXTURE_DOCUMENTS = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(FIXTURES.glob("*.json"))]
_JUNK = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 3),
        st.integers(min_value=2**63),
        st.integers(max_value=-(2**63)),
        st.sampled_from([0.0, 1.0, 2.0, -1.0, 0.5, 1e300, float("inf"), float("-inf")]),
        st.text(max_size=3),
    ),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=2), kids, max_size=3),
    max_leaves=6,
)
_KEYS = st.sampled_from(["extra", "N", "scale", "from", "i", "vertices", "1", "", "∞"]) | st.text(max_size=3)


def _nodes(value, path=()):
    yield path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _nodes(child, (*path, key))


@st.composite
def mutated_documents(draw):
    """A fixture spec with one to four mutations: wrong types, integral
    floats, bools, huge integers, missing, extra and repeated entries, and
    whole containers of wrong entries (sibling errors at one depth)."""
    document = copy.deepcopy(draw(st.sampled_from(_FIXTURE_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 4))):
        path = draw(st.sampled_from(list(_nodes(document))))
        *parent_path, key = path or (None,)
        parent = document
        for step in parent_path:
            parent = parent[step]
        target = parent[key] if path else document
        kind = draw(st.sampled_from(["replace", "float", "delete", "extra", "repeat", "siblings"]))
        if kind == "replace" and path:
            parent[key] = draw(_JUNK)
        elif kind == "float" and path and isinstance(target, int) and not isinstance(target, bool):
            parent[key] = float(target) if draw(st.booleans()) else draw(st.sampled_from([True, False, -(10**30)]))
        elif kind == "delete" and path:
            del parent[key]
        elif kind == "extra" and isinstance(target, dict):
            target[draw(_KEYS)] = draw(_JUNK)
        elif kind == "repeat" and isinstance(target, list) and target:
            target.append(copy.deepcopy(draw(st.sampled_from(target))))
        elif kind == "siblings" and isinstance(target, (dict, list)):
            for k in list(target.keys() if isinstance(target, dict) else range(len(target))):
                target[k] = draw(_JUNK)
    return document


class _Name(str):
    pass


_BASE = {"vertices": ["a"], "arrows": [], "dimension": {"a": 1}, "stability": {"a": 0}}


@settings(max_examples=400, deadline=None)
@given(mutated_documents())
@example({**_BASE, "dimension": {"a": "x", "b": 1.5}})  # siblings at one depth: the larger path wins
@example({**_BASE, "arrows": [{"from": 1}, {"to": 2}]})
@example({**_BASE, "vertices": [1, 1]})  # repeated non-strings: one item-type error each
@example({**_BASE, "vertices": [[1], [True], [1]]})
@example({**_BASE, "vertices": [True, 1, 1.0]})
@example({**_BASE, "vertices": [{"a": 1}, {"a": 1.0}]})
@example({**_BASE, "vertices": []})
@example({**_BASE, "oracle": {"prime": 1.0, "budget": True, "seed": 2.5}})
@example({**_BASE, "framing": {"i": 1, "j": "a", "k": 3, "N": 0.0}})
@example({**_BASE, "dimension": {"a": float("-inf")}, "y": 1, "x": 2})  # extras are named in sorted order
@example({"arrows": {}, "extra": 1})
@example([])
@example([_BASE])
# bools for integers, and the integral float and str subclass the fast check leaves to the walker
@example({**_BASE, "dimension": {"a": True}})
@example({**_BASE, "dimension": {"a": 2.0}})
@example({**_BASE, "stability": {"a": False}})
@example({**_BASE, "framing": {"i": "a", "j": "a", "scale": True}})
@example({**_BASE, "oracle": {"prime": True}})
@example({**_BASE, "vertices": [_Name("a")]})
# an extra key at each level
@example({**_BASE, "extra": 1})
@example({**_BASE, "arrows": [{"from": "a", "to": "a", "via": "a"}]})
@example({**_BASE, "arrows": [{"from": "a", "via": "a"}]})  # an arrow's key count, one key wrong
@example({**_BASE, "framing": {"i": "a", "j": 1}})
@example({**_BASE, "framing": {"i": "a", "j": "a", "k": 1}})
@example({**_BASE, "oracle": {"seed": 0, "salt": 1}})
# each minimum, one below
@example({**_BASE, "framing": {"i": "a", "j": "a", "scale": 0}})
@example({**_BASE, "oracle": {"prime": 1}})
@example({**_BASE, "oracle": {"budget": 0}})
def test_spec_validator_matches_jsonschema(document):
    expected = best_match(_REFERENCE.iter_errors(document))
    found = _best_schema_error(document)
    assert not _certainly_valid(document) or expected is None
    if expected is None:
        assert found is None
        try:
            parse_spec(document)
        except SpecFileError:
            pass  # a semantic check after the schema
        return
    assert found == (tuple(expected.absolute_path), expected.message)
    location = ".".join(["$", *map(str, expected.absolute_path)])
    with pytest.raises(SpecFileError) as info:
        parse_spec(document)
    assert str(info.value) == f"{location}: {expected.message}"


def _keywords(schema: dict):
    """Every keyword in a schema and its subschemas; property names are not keywords."""
    for keyword, rule in schema.items():
        yield keyword
        for sub in rule.values() if keyword == "properties" else [rule] if isinstance(rule, dict) else []:
            yield from _keywords(sub)


def test_spec_schema_uses_only_the_keywords_both_checks_handle():
    # _schema_errors and _certainly_valid skip any other keyword silently
    handled = {"$schema", "type", "required", "properties", "additionalProperties", "items", "minItems", "minimum"}
    assert set(_keywords(SPEC_SCHEMA)) == handled


@settings(max_examples=200, deadline=None)
@given(spec_documents())
def test_parse_spec_gives_a_spec_or_a_spec_error(document):
    try:
        spec = parse_spec(document)
    except SpecFileError:
        return
    assert parse_spec(_datum(spec)) == spec._replace(framing=None, oracle=None)
    if spec.framing is not None:
        assert spec.framing.scale is None or type(spec.framing.scale) is int
    if spec.oracle is not None:
        assert all(type(value) is int for value in spec.oracle._asdict().values())


class _Colour(enum.IntEnum):
    RED = 1


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1, 10**30, -(10**40)]),
    st.integers(),
    st.floats(),
    st.just(_Colour.RED),
    st.text().map(_Name),
    st.sampled_from(["∞", '"', "\\", "\n\t\x00\x1f", "\u2028", "é", "\U0001f600"]),
    st.text(),
)
_json_keys = st.one_of(st.text(), st.sampled_from(["∞", '"q"', "1"]), st.integers(-3, 3), st.booleans(), st.none())
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.integers(), max_size=5),  # a path count row
        st.lists(st.one_of(st.booleans(), st.sampled_from([0, 1])), max_size=5),
        st.dictionaries(_json_keys, children, max_size=5),
        st.dictionaries(st.text(), children, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_json_values)
@example({"rows": [[1, 0], [], [True, 1]], "empty": {}, 1: (0.5, float("nan"))})
@example({_Colour.RED: "∞", _Name("k"): [_Colour.RED, _Name("v")], None: float("-inf")})
def test_indented_json_equals_json_dumps(value):
    assert _indented_json(value) == json.dumps(value, indent=2)
