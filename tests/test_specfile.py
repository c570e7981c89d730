import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivercalc import SpecFileError, load_spec, parse_spec, spec_to_dict
from quivercalc.specfile import SPEC_SCHEMA, dump_spec

from conftest import acyclic_quivers

FIXTURES = Path(__file__).parent / "fixtures"


def test_fixtures_parse():
    for path in sorted(FIXTURES.glob("*.json")):
        spec = load_spec(path)
        assert spec.stability(spec.dimension) == 0


def test_parse_three_vertex_fixture():
    spec = load_spec(FIXTURES / "threevertex.json")
    assert spec.quiver.vertices == ("1", "2", "3")
    assert len(spec.quiver.arrows) == 4
    assert spec.framing.i == "2" and spec.framing.j == "3" and spec.framing.scale == 2
    assert spec.oracle.prime == 2


def test_round_trip_fixtures(tmp_path):
    for path in sorted(FIXTURES.glob("*.json")):
        spec = load_spec(path)
        out = tmp_path / path.name
        dump_spec(spec, out)
        assert load_spec(out) == spec


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
    assert parse_spec(spec_to_dict(spec)) == spec


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
        {"vertices": ["a", "a"], "arrows": [], "dimension": {}, "stability": {}},
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
