"""Diagram parsing, validation, faces, and components, against the oracle."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from auglink.augment import augment, export_augmented_diagram
from auglink.diagram import (
    Diagram,
    _mate_darts,
    _orbits,
    _splice,
    parse_document,
    serialize_diagram,
)
from auglink.errors import DiagramSyntaxError, InvalidDiagramError
from auglink.twist import resolve_selection

from braid import braid_closure
from corpus import FIGURE8, GOLDEN, HOPF, KINK, TREFOIL, UNKNOT0
from oracle import (
    oracle_euler,
    oracle_face_degrees,
    oracle_incoherent_arcs,
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
        diagram.index[99]
    # Equality and hashing see the ids, signs, labels and name, never the cache.
    assert diagram.link_component_count == 1
    fields = (diagram.crossing_ids, diagram.signs, diagram.dart_mates)
    bare = Diagram(*fields, labels=diagram.labels)
    assert "link_component_count" in vars(diagram) and "link_component_count" not in vars(bare)
    assert bare == diagram == Diagram(crossing_ids=diagram.crossing_ids, signs=diagram.signs,
                                      mates=diagram.dart_mates, labels=diagram.labels)
    assert hash(bare) == hash(diagram)
    assert Diagram(*fields, "figure-8", diagram.labels) != diagram
    reversed_code = [x.arcs for x in reversed(diagram.crossings)]
    assert Diagram.from_pd(reversed_code, diagram.signs[::-1]) != diagram
    assert diagram != (diagram.crossings, None)
    for attribute in ("crossings", "crossing_ids", "signs", "labels", "name", "dart_mates",
                      "face_next", "is_connected", "other"):
        with pytest.raises(AttributeError):
            setattr(diagram, attribute, None)
    for attribute in ("crossings", "crossing_ids", "signs", "labels", "dart_mates"):
        with pytest.raises(AttributeError):
            delattr(diagram, attribute)
    assert diagram.dart_mates == fresh.dart_mates


def _in_first_dart_order(labels) -> bool:
    """Whether each label is new exactly when it is one more than every label before it."""
    order: list[int] = []
    for label in labels:
        if label not in order:
            order.append(label)
    return order == list(range(1, len(order) + 1))


def test_equality_sees_ids_signs_labels_and_name():
    # Relabelling a code keeps its darts' pairing but makes another code.
    diagram = Diagram.from_pd(FIGURE8, name="figure-8")
    relabelled = Diagram.from_pd([[9 - a for a in quad] for quad in FIGURE8],
                                 diagram.signs, "figure-8")
    assert relabelled.dart_mates == diagram.dart_mates
    assert relabelled != diagram and diagram != relabelled

    # A reduced diagram and its export each equal their serialization,
    # parsed.  Parsing numbers crossings from 0, and the closure of
    # s1 s1 s2 s2 s1 s2 s2^-1 cancels its last two crossings, so the reduced
    # diagram's ids are 0, 1, ... too.
    pd, signs = braid_closure([1, 1, 2, 2, 1, 2, -2], 3)
    reduced, selection = resolve_selection(Diagram.from_pd(pd, signs, "mixed"))
    assert reduced.crossing_ids == (0, 1, 2, 3, 4)
    exported = export_augmented_diagram(augment(reduced, selection))
    for derived in (reduced, exported):
        again = parse_document(serialize_diagram(derived)).diagram
        assert again == derived and derived == again and hash(again) == hash(derived)

    # A diagram built without labels labels its arcs by first dart, so it
    # equals a parsed one exactly when the parsed labels are in that order.
    seen = set()
    for name, pd in GOLDEN.items():
        parsed = Diagram.from_pd(pd, name=name)
        bare = Diagram(parsed.crossing_ids, parsed.signs, parsed.dart_mates, name)
        assert _in_first_dart_order(bare.labels)
        seen.add(_in_first_dart_order(parsed.labels))
        assert (bare == parsed) is (parsed == bare) is _in_first_dart_order(parsed.labels)
        assert (hash(bare) == hash(parsed)) is (bare == parsed)
    assert seen == {True, False}


def test_zero_crossing_unknot():
    diagram = Diagram.from_pd(UNKNOT0)
    assert diagram.crossing_count == 0
    assert diagram.is_connected
    assert diagram.link_component_count == 1


def test_inferred_signs_are_orientation_consistent():
    for pd in GOLDEN.values():
        diagram = Diagram.from_pd(pd)
        assert oracle_incoherent_arcs(pd, [x.sign for x in diagram.crossings]) == []


def test_kink_sign_inference():
    # The lone positive kink: consecutive-numbering heuristics that ignore
    # orientation propagation call this one wrong.
    diagram = Diagram.from_pd(KINK)
    assert [c.sign for c in diagram.crossings] == [1]


def test_explicit_signs_override_inference():
    # A circle lying over another at four crossings, its labels 11-14
    # consecutive along it.  It never passes under, so it may run either
    # way: inference picks one direction and explicit signs the other.
    pd = [[1, 12, 4, 11], [4, 12, 5, 13], [5, 14, 8, 13], [8, 14, 1, 11]]
    assert [c.sign for c in Diagram.from_pd(pd).crossings] == [1, -1, 1, -1]
    diagram = Diagram.from_pd(pd, signs=[-1, 1, -1, 1])
    assert [c.sign for c in diagram.crossings] == [-1, 1, -1, 1]


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


# Names that json escapes: quotes, backslashes, control characters, non-ASCII
# (one outside the BMP, one lone surrogate), and no name at all.
_NAMES = [None, "", "b0001", 'say "knot"', "back\\slash\\", "tab\tline\nnul\x00\x1f\x7f",
          "nœud", "結び目", "\U0001f517", "\ud800", "</script>"]


def _json_dumps_serialization(diagram: Diagram) -> str:
    doc: dict = {"pd": [list(x.arcs) for x in diagram.crossings],
                 "signs": [x.sign for x in diagram.crossings]}
    if diagram.name is not None:
        doc["name"] = diagram.name
    return json.dumps(doc, sort_keys=True)


def test_serialize_matches_json_dumps():
    # The fixed-shape writer against json.dumps on 2,000 seeded closures and
    # the export of each, under every name above, and on no crossings.
    rng = random.Random(20)
    diagrams = [Diagram.from_pd(UNKNOT0, name=name) for name in _NAMES]
    for i in range(2000):
        strands = rng.randrange(2, 6)
        word = list(range(1, strands))
        word += [rng.randrange(1, strands) for _ in range(rng.randrange(12))]
        word = [g * rng.choice((1, -1)) for g in word]
        pd, signs = braid_closure(word, strands)
        diagram = Diagram.from_pd(pd, signs, _NAMES[i % len(_NAMES)])
        diagrams.append(diagram)
        reduced, selection = resolve_selection(diagram)
        if reduced.crossings and reduced.is_connected:
            diagrams.append(export_augmented_diagram(augment(reduced, selection)))
    assert len(diagrams) > 3000
    for diagram in diagrams:
        assert serialize_diagram(diagram) == _json_dumps_serialization(diagram)


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


_SPLIT_NONPLANAR = (  # a kink, then a non-planar code on other labels, oriented
    '{"pd": [[1, 1, 2, 2], [11, 15, 12, 14], [13, 11, 14, 16], [15, 12, 13, 16]], '
    '"signs": [1, 1, 1, -1]}'
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
    '{"pd": [[1, 2, 3, 4, 5]]}': "crossing 0: expected 4 arc labels, got 5",
    '{"pd": [[1, 2, 3, 4]]}': (
        "each arc label must appear exactly twice; offenders: 1 (x1), 2 (x1), 3 (x1), 4 (x1)"
    ),
    '{"pd": [[1, 1, 2, 2]], "signs": [1, 1]}': "signs list has 2 entries for 1 crossings",
    # The figure-8 is +1 +1 -1 -1; flipping one sign leaves arcs 7 and 8
    # with two heads or two tails, and arc 8 comes first in dart order.
    '{"pd": [[4, 2, 5, 1], [8, 6, 1, 5], [6, 3, 7, 4], [2, 7, 3, 8]], "signs": [1, 1, -1, 1]}': (
        "signs orient no link (arc 8 has no coherent direction)"
    ),
    '{"pd": [[1, 1, 2, 2]], "signs": [2]}': "crossing 0: sign must be +1 or -1, got 2",
    '{"pd": [[1, 1, 2, 2]], "name": 7}': '"name" must be a string',
    '{"pd": [[1, 1, 2, 2]], "regions": [{"strands": 2, "half_twists": 1}]}': (
        "region 0: missing key 'crossings'"
    ),
    '{"pd": [[1, 1, 2, 2]], "regions": [{"crossings": [0, 0], "strands": 2, "half_twists": 1}]}': (
        "region 0: duplicate crossing ids"
    ),
    # Non-planar, but sign inference fails first.  Arc 2 joins two slot-2
    # darts, but arc 5 (darts 1 and 8) is the first incoherent one in dart order.
    '{"pd": [[1, 5, 2, 4], [3, 1, 4, 6], [5, 3, 2, 6]]}': (
        'cannot infer consistent signs (arc 5 has no coherent direction); supply explicit "signs"'
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
    # The Euler check covers a split code: the kink's F - V = 2 cannot make
    # up for the other component's 0.
    _SPLIT_NONPLANAR: (
        "Euler formula violated (non-planar or corrupted code): "
        "V=4 E=8 F=6 over 2 components"
    ),
    # Several faults at once: every shape before any label, the first bad
    # label in code order before multiplicity, multiplicity before the
    # signs list, its length before a sign value, a sign value before their
    # coherence, coherence before Euler.
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
    '{"pd": [[1, 5, 2, 4], [3, 1, 4, 6], [5, 3, 2, 6]], "signs": [1, 1, 1]}': (
        "signs orient no link (arc 2 has no coherent direction)"
    ),
}


@pytest.mark.parametrize("text", list(MALFORMED))
def test_parse_rejects_malformed_input(text):
    with pytest.raises(InvalidDiagramError) as excinfo:
        parse_document(text)
    assert str(excinfo.value) == MALFORMED[text]


def test_splice_leaves_an_unwired_end_unwired():
    # Dart 4 of the figure-8's crossing 1 is left unwired, as a miswired
    # drawing may leave it.  Splicing crossing 1 out must not read -1 as a
    # dart: the strand that runs into dart 4 ends unwired, and no key -1
    # would write mates[-1].  The walks enter crossing 1 at three of its
    # four darts: none starts at dart 4, whose end is unwired.
    mates = list(Diagram.from_pd(FIGURE8).dart_mates)
    assert mates[4:8] == [15, 8, 3, 2]
    mates[4] = mates[15] = -1
    assert _splice(mates, {1}) == ({8: 2, 3: -1, 2: 8}, 3)


def test_euler_violation_message_gives_the_totals():
    # Coherent signs on a non-planar code: crossing 0 alone fails Euler.
    with pytest.raises(InvalidDiagramError) as excinfo:
        Diagram.from_pd([[2, 3, 2, 3], [1, 4, 4, 1]], signs=[1, -1])
    assert str(excinfo.value) == (
        "Euler formula violated (non-planar or corrupted code): "
        "V=2 E=4 F=4 over 2 components"
    )
    # The constructor checks the mates it is given: two figure-8 arcs cross-wired.
    diagram = Diagram.from_pd(FIGURE8)
    mates = list(diagram.dart_mates)
    assert mates[0] == 11 and mates[1] == 12
    mates[0], mates[1], mates[11], mates[12] = 12, 11, 1, 0
    with pytest.raises(InvalidDiagramError) as excinfo:
        Diagram(diagram.crossing_ids, diagram.signs, tuple(mates))
    assert str(excinfo.value) == (
        "Euler formula violated (non-planar or corrupted code): "
        "V=4 E=8 F=4 over 1 component"
    )


def _graph_components(pd):
    """Crossing positions of each graph component, by union-find over shared labels."""
    parent = list(range(len(pd)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first = {}
    for i, quad in enumerate(pd):
        for arc in quad:
            parent[find(first.setdefault(arc, i))] = find(i)
    groups = {}
    for i in range(len(pd)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def test_whole_diagram_euler_matches_every_component():
    # Disjoint unions of 2-3 braid closures, some with one part corrupted by
    # swapping two arc labels between its crossings: refused exactly when
    # some graph component has V - E + F != 2.  Built from the mates, so
    # only Euler can refuse them.
    rng = random.Random(2404)
    outcomes = Counter()
    for _ in range(2400):
        pd, signs = [], []
        corrupt = rng.random() < 0.5
        for part in range(rng.randint(2, 3)):
            strands = rng.randint(2, 4)
            while True:
                word = [rng.choice([-1, 1]) * rng.randint(1, strands - 1)
                        for _ in range(rng.randint(1, 7))]
                try:
                    quads, part_signs = braid_closure(word, strands)
                    break
                except ValueError:  # a strand never crossed
                    continue
            offset = max((a for quad in pd for a in quad), default=0)
            quads = [[a + offset for a in quad] for quad in quads]
            if corrupt and part == 0 and len(quads) > 1:
                i, j = rng.sample(range(len(quads)), 2)
                s, t = rng.randrange(4), rng.randrange(4)
                quads[i][s], quads[j][t] = quads[j][t], quads[i][s]
            pd += quads
            signs += part_signs
        planar = all(
            v - e + f == 2
            for v, e, f in (oracle_euler([pd[i] for i in group])
                            for group in _graph_components(pd))
        )
        try:
            diagram = Diagram(tuple(range(len(pd))), tuple(signs), _mate_darts(pd))
        except InvalidDiagramError as e:
            assert str(e).startswith("Euler formula violated (non-planar or corrupted code): ")
            refused = True
        else:
            refused = False
            assert not diagram.is_connected
            assert diagram.link_component_count == oracle_link_components(pd)
        assert refused == (not planar), pd
        outcomes[refused] += 1
    assert min(outcomes[True], outcomes[False]) >= 200, outcomes


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
