"""Diagram parsing, validation, faces, and components, against the oracle."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from auglink.diagram import (
    Crossing,
    Diagram,
    _orbits,
    parse_document,
    serialize_diagram,
)
from auglink.errors import DiagramSyntaxError, InvalidDiagramError

from corpus import FIGURE8, GOLDEN, HOPF, KINK, TREFOIL, UNKNOT0
from oracle import (
    oracle_euler,
    oracle_face_degrees,
    oracle_link_components,
)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_faces_match_oracle(name):
    pd = GOLDEN[name]
    diagram = Diagram.from_pd(pd)
    faces, count = _orbits(diagram.face_next)
    assert sorted(Counter(faces).values()) == sorted(oracle_face_degrees(pd))
    v, e, f = oracle_euler(pd)
    assert diagram.crossing_count == v
    assert 2 * diagram.crossing_count == e
    assert count == f
    assert v - e + f == 2


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_link_components_match_oracle(name):
    pd = GOLDEN[name]
    assert Diagram.from_pd(pd).link_component_count == oracle_link_components(pd)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_faces_partition_corners(name):
    # face_next is a permutation of the darts, so its orbits partition them.
    diagram = Diagram.from_pd(GOLDEN[name])
    assert sorted(diagram.face_next) == list(range(4 * diagram.crossing_count))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_mate_map_is_a_fixed_point_free_involution(name):
    diagram = Diagram.from_pd(GOLDEN[name])
    mates = diagram.dart_mates
    assert len(mates) == 4 * diagram.crossing_count
    for dart, mate in enumerate(mates):
        assert mate != dart
        assert mates[mate] == dart


def test_cached_topology_is_shared_and_read_only():
    diagram = Diagram.from_pd(FIGURE8)
    assert diagram.dart_mates is diagram.dart_mates
    assert diagram.index is diagram.index
    with pytest.raises(TypeError):
        diagram.dart_mates[0] = 1
    with pytest.raises(TypeError):
        diagram.index[0] = 1
    fresh = Diagram.from_pd(FIGURE8)
    assert fresh == diagram and hash(fresh) == hash(diagram)
    with pytest.raises(KeyError):
        diagram.crossing(99)
    # Equality and hashing see the crossings and the name, never the cache.
    bare = Diagram(diagram.crossings)
    assert "face_next" in vars(diagram) and "face_next" not in vars(bare)
    assert bare == diagram == Diagram(crossings=diagram.crossings, name=None)
    assert hash(bare) == hash(diagram)
    assert Diagram(diagram.crossings, "figure-8") != diagram
    assert Diagram(diagram.crossings[::-1]) != diagram
    assert diagram != (diagram.crossings, None)
    for attribute in ("crossings", "name", "dart_mates", "face_next", "other"):
        with pytest.raises(AttributeError):
            setattr(diagram, attribute, None)
    for attribute in ("crossings", "dart_mates"):
        with pytest.raises(AttributeError):
            delattr(diagram, attribute)
    assert diagram.dart_mates == fresh.dart_mates


def test_zero_crossing_unknot():
    diagram = Diagram.from_pd(UNKNOT0)
    assert diagram.crossing_count == 0
    assert diagram.is_connected
    assert diagram.link_component_count == 1


def test_inferred_signs_are_orientation_consistent():
    for pd in GOLDEN.values():
        diagram = Diagram.from_pd(pd)
        flow: dict[int, set[str]] = {}
        for crossing in diagram.crossings:
            for slot, arc in enumerate(crossing.arcs):
                # Slot 0 flows in, and the over-strand enters at slot 3 when
                # the crossing is positive, at slot 1 when it is negative.
                flows_in = slot == 0 or slot == (3 if crossing.sign > 0 else 1)
                direction = "in" if flows_in else "out"
                flow.setdefault(arc, set()).add(direction)
        assert all(dirs == {"in", "out"} for dirs in flow.values())


def test_kink_sign_inference():
    # The lone positive kink: consecutive-numbering heuristics that ignore
    # orientation propagation call this one wrong.
    diagram = Diagram.from_pd(KINK)
    assert [c.sign for c in diagram.crossings] == [1]


def test_explicit_signs_override_inference():
    diagram = Diagram.from_pd(KINK, signs=[-1])
    assert [c.sign for c in diagram.crossings] == [-1]


def test_split_diagram_parses_but_reports_disconnected():
    diagram = Diagram.from_pd([[1, 1, 2, 2], [3, 3, 4, 4]])
    assert not diagram.is_connected
    assert diagram.link_component_count == 2


def test_bare_array_equals_object_form():
    bare = parse_document(json.dumps(TREFOIL))
    wrapped = parse_document(json.dumps({"pd": TREFOIL}))
    assert bare.diagram == wrapped.diagram
    assert bare.annotations == wrapped.annotations == ()


def test_serialize_parse_round_trip():
    for name, pd in GOLDEN.items():
        diagram = Diagram.from_pd(pd, name=name)
        again = parse_document(serialize_diagram(diagram)).diagram
        assert again == diagram
        data = json.loads(serialize_diagram(diagram))
        assert data["name"] == name
        assert data["signs"] == [c.sign for c in diagram.crossings]


def test_document_with_region_annotation():
    doc = parse_document(
        json.dumps(
            {
                "pd": TREFOIL,
                "regions": [{"crossings": [0, 1, 2], "strands": 2, "half_twists": 3}],
            }
        )
    )
    (annotation,) = doc.annotations
    assert annotation.crossing_ids == frozenset({0, 1, 2})
    assert (annotation.strand_count, annotation.half_twists) == (2, 3)


def test_syntax_error_reports_position():
    with pytest.raises(DiagramSyntaxError) as excinfo:
        parse_document("[[1, 1, 2, 2],")
    assert excinfo.value.position is not None


_SPLIT_NONPLANAR = (  # a kink, then a non-planar code on other labels
    '{"pd": [[1, 1, 2, 2], [11, 15, 12, 14], [13, 11, 14, 16], [15, 13, 12, 16]], '
    '"signs": [1, 1, 1, 1]}'
)

# Input text -> the exact message of the InvalidDiagramError it raises.
MALFORMED = {
    '"just a string"': "top level must be an object or a PD array, got str",
    "{}": 'missing required key "pd"',
    '{"pd": 5}': '"pd" must be an array of quadruples',
    '{"pd": [[1, 2, 3]]}': "crossing 0: expected 4 arc labels, got 3",
    '{"pd": [[1, 1, 1, 2]]}': (
        "each arc label must appear exactly twice; offenders: 1 (x3), 2 (x1)"
    ),
    '{"pd": [[1, 2, 3, 4]]}': (
        "each arc label must appear exactly twice; offenders: 1 (x1), 2 (x1), 3 (x1), 4 (x1)"
    ),
    '{"pd": [[1, 1, 2, 2]], "signs": [1, 1]}': "signs list has 2 entries for 1 crossings",
    '{"pd": [[1, 1, 2, 2]], "signs": [2]}': "crossing 0: sign must be +1 or -1, got 2",
    '{"pd": [[1, 1, 2, 2]], "name": 7}': '"name" must be a string',
    '{"pd": [[1, 1, 2, 2]], "regions": [{"strands": 2, "half_twists": 1}]}': (
        "region 0: missing key 'crossings'"
    ),
    '{"pd": [[1, 1, 2, 2]], "regions": [{"crossings": [0, 0], "strands": 2, "half_twists": 1}]}': (
        "region 0: duplicate crossing ids"
    ),
    # Non-planar, but sign inference fails first.
    '{"pd": [[1, 5, 2, 4], [3, 1, 4, 6], [5, 3, 2, 6]]}': (
        'cannot infer consistent signs (arc 2 has no coherent direction); supply explicit "signs"'
    ),
    '{"pd": [[1, 1, 2, 2]], "signs": [true]}': "crossing 0: sign must be +1 or -1, got True",
    '{"pd": [[1, 1, 2, 2]], "signs": [1.0]}': "crossing 0: sign must be +1 or -1, got 1.0",
    '{"pd": [[1, 1, 2, 2]], "signs": [0]}': "crossing 0: sign must be +1 or -1, got 0",
    '{"pd": [[1, 1, 2, 2]], "signs": ["1"]}': "crossing 0: sign must be +1 or -1, got '1'",
    # A label used four times, in one crossing or across two.
    '{"pd": [[1, 1, 1, 1]]}': "each arc label must appear exactly twice; offenders: 1 (x4)",
    '{"pd": [[1, 1, 2, 2], [1, 1, 2, 2]]}': (
        "each arc label must appear exactly twice; offenders: 1 (x4), 2 (x4)"
    ),
    '{"pd": [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]}': (
        "each arc label must appear exactly twice; offenders: 1 (x1), 2 (x1), 3 (x1), "
        "4 (x1), 5 (x1), 6 (x1), 7 (x1), 8 (x1)"
    ),
    # Arc labels that are not positive integers.
    '{"pd": [[true, true, 2, 2]]}': "arc labels must be positive integers, got True",
    '{"pd": [[0, 0, 1, 1]]}': "arc labels must be positive integers, got 0",
    '{"pd": [[-1, -1, 2, 2]]}': "arc labels must be positive integers, got -1",
    '{"pd": [[1.0, 1.0, 2, 2]]}': "arc labels must be positive integers, got 1.0",
    '{"pd": [[[1], 1, 2, 2]]}': "arc labels must be positive integers, got [1]",
    '{"pd": [["1", "1", 2, 2]]}': "arc labels must be positive integers, got '1'",
    # A quadruple that is not a list.
    '{"pd": [5]}': "crossing 0: expected 4 arc labels, got int",
    '{"pd": ["abcd"]}': "crossing 0: expected 4 arc labels, got str",
    '{"pd": [{"a": 1}]}': "crossing 0: expected 4 arc labels, got dict",
    '{"pd": [null]}': "crossing 0: expected 4 arc labels, got NoneType",
    # The Euler check runs per component of a split code.
    _SPLIT_NONPLANAR: (
        "Euler formula violated (non-planar or corrupted code): "
        "component with crossings [1, 2, 3] has V=3 E=6 F=3"
    ),
    # Several faults at once: every shape before any label, the first bad
    # label in code order before multiplicity, multiplicity before the
    # signs list, its length before a sign value, a sign value before Euler.
    '{"pd": [[0, 0, 1, 1], [1, 2]]}': "crossing 1: expected 4 arc labels, got 2",
    '{"pd": [[1, 1, 3, 2], [0, 5, 5, -6]]}': "arc labels must be positive integers, got 0",
    '{"pd": [[1, 1, 2, 2], [3, 3, 4]], "signs": [1]}': "crossing 1: expected 4 arc labels, got 3",
    '{"pd": [[1, 1, 1, 2]], "signs": [1, 1]}': (
        "each arc label must appear exactly twice; offenders: 1 (x3), 2 (x1)"
    ),
    '{"pd": [[1, 5, 2, 4], [3, 1, 4, 6], [5, 3, 2, 6]], "signs": [1, 1]}': (
        "signs list has 2 entries for 3 crossings"
    ),
    '{"pd": [[1, 5, 2, 4], [3, 1, 4, 6], [5, 3, 2, 6]], "signs": [1, 2, 0]}': (
        "crossing 1: sign must be +1 or -1, got 2"
    ),
}


@pytest.mark.parametrize("text", list(MALFORMED))
def test_parse_rejects_malformed_input(text):
    with pytest.raises(InvalidDiagramError) as excinfo:
        parse_document(text)
    assert str(excinfo.value) == MALFORMED[text]


@pytest.mark.parametrize(
    "arcs, sign, message",
    [
        ((1, 2, 3), 1, "expected 4 arc labels, got 3"),
        ((1, 2, 3, 4, 5), 1, "expected 4 arc labels, got 5"),
        ((0, 1, 2, 3), 1, "arc labels must be positive integers, got (0, 1, 2, 3)"),
        ((True, 1, 2, 3), 1, "arc labels must be positive integers, got (True, 1, 2, 3)"),
        ((1.0, 1, 2, 3), 1, "arc labels must be positive integers, got (1.0, 1, 2, 3)"),
        ((1, 2, 3, "4"), 1, "arc labels must be positive integers, got (1, 2, 3, '4')"),
        ((0, 2, 3, 4), 5, "arc labels must be positive integers, got (0, 2, 3, 4)"),
        ((1, 2, 3, 4), 0, "sign must be +1 or -1, got 0"),
        ((1, 2, 3, 4), True, "sign must be +1 or -1, got True"),
        ((1, 2, 3, 4), -1.0, "sign must be +1 or -1, got -1.0"),
        ((1, 2, 3, 4), "+1", "sign must be +1 or -1, got '+1'"),
    ],
)
def test_crossing_rejects_malformed_fields(arcs, sign, message):
    with pytest.raises(InvalidDiagramError) as excinfo:
        Crossing(id=7, arcs=arcs, sign=sign)
    assert str(excinfo.value) == f"crossing 7: {message}"


def test_euler_violation_message_names_the_component():
    with pytest.raises(InvalidDiagramError, match="Euler"):
        Diagram.from_pd([[1, 5, 2, 4], [3, 1, 4, 6], [5, 3, 2, 6]], signs=[1, 1, 1])


def test_unknown_keys_strict_versus_lenient():
    text = json.dumps({"pd": KINK, "comment": "hi"})
    with pytest.raises(InvalidDiagramError, match="unknown"):
        parse_document(text)
    doc = parse_document(text, allow_unknown_keys=True)
    assert any("comment" in w for w in doc.warnings)

    region_text = json.dumps(
        {
            "pd": TREFOIL,
            "regions": [
                {"crossings": [0, 1, 2], "strands": 2, "half_twists": 3, "color": "red"}
            ],
        }
    )
    with pytest.raises(InvalidDiagramError, match="unknown"):
        parse_document(region_text)
    doc = parse_document(region_text, allow_unknown_keys=True)
    assert len(doc.annotations) == 1
    assert any("color" in w for w in doc.warnings)


def test_mirror_kink_resolved_by_propagation():
    # The under-strand's out-slot forces the direction of the arc that also
    # sits in an over slot of the same crossing.
    diagram = Diagram.from_pd([[2, 1, 1, 2]])
    assert [c.sign for c in diagram.crossings] == [-1]


def test_ambiguous_code_asks_for_explicit_signs():
    # Two circles crossing four times with one circle entirely on top: its
    # arcs touch only over slots, so orientation propagation cannot reach
    # them, and the labels run 2,6,3,7 along the circle, defeating the
    # consecutive-numbering fallback.  With explicit signs it parses fine.
    pd = [[1, 6, 4, 2], [4, 6, 5, 3], [5, 7, 8, 3], [8, 7, 1, 2]]
    assert Diagram.from_pd(pd, signs=[1, -1, 1, -1]).crossing_count == 4
    with pytest.raises(InvalidDiagramError, match="signs"):
        Diagram.from_pd(pd)


def test_hopf_requires_consistent_component_count():
    diagram = Diagram.from_pd(HOPF)
    assert diagram.link_component_count == 2


def test_figure8_arc_count():
    diagram = Diagram.from_pd(FIGURE8)
    assert len({a for x in diagram.crossings for a in x.arcs}) == 8
    assert diagram.crossing_ids == (0, 1, 2, 3)
