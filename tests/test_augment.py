"""Augmentation structure, filling slopes, and PD export."""

from __future__ import annotations

import pytest

from auglink.augment import (
    AugmentedLink,
    augment,
    export_augmented_diagram,
    filling_slope,
)
from auglink.diagram import Diagram, parse_document, serialize_diagram
from auglink.errors import AugmentError, ExportError, RegionError
from auglink.twist import (
    RegionAnnotation,
    TwistSelection,
    build_selection,
    detect_bigon_chains,
    resolve_selection,
)

from braid import braid_closure, full_twist_word
from corpus import FIGURE8, GOLDEN, GOLDEN_TWIST, HOPF, KINK, TREFOIL


def _augmented(pd, annotations=()):
    diagram = Diagram.from_pd(pd)
    reduced, selection = resolve_selection(diagram, annotations)
    return diagram, augment(reduced, selection)


# ----------------------------------------------------------------------------
# Filling slopes
# ----------------------------------------------------------------------------


@pytest.mark.parametrize(
    "c,expected",
    [(0, (0, 0)), (1, (1, 1)), (2, (1, 0)), (3, (2, 1)), (7, (4, 1)), (8, (4, 0))],
)
def test_filling_slope_table(c, expected):
    assert filling_slope(c) == expected


def test_filling_slope_round_trip_small():
    for c in range(0, 200):
        n, eps = filling_slope(c)
        assert eps == c % 2
        assert 2 * n - eps == c


def test_filling_slope_rejects_negative():
    with pytest.raises(AugmentError):
        filling_slope(-1)


# ----------------------------------------------------------------------------
# Structural augmentation
# ----------------------------------------------------------------------------


def test_trefoil_augmentation_structure():
    diagram, augmented = _augmented(TREFOIL)
    assert augmented.circle_count == 1
    (circle,) = augmented.circles
    assert (circle.strand_count, circle.half_twists) == (2, 3)
    assert (circle.filling_n, circle.epsilon) == (2, 1)


def test_figure8_augmentation_structure():
    diagram, augmented = _augmented(FIGURE8)
    assert augmented.circle_count == 2
    assert augmented.half_twist_counts == (2, 2)
    assert {c.epsilon for c in augmented.circles} == {0}
    assert {c.filling_n for c in augmented.circles} == {1}


def test_hopf_augmentation_structure():
    diagram, augmented = _augmented(HOPF)
    assert augmented.circle_count == 1
    assert augmented.half_twist_counts == (2,)


def test_kink_augmentation_structure():
    diagram, augmented = _augmented(KINK)
    (circle,) = augmented.circles
    assert (circle.half_twists, circle.epsilon, circle.filling_n) == (1, 1, 1)


def test_generalized_block_augmentation():
    pd, signs = braid_closure(full_twist_word(5) + [1, 2, 3, 4], 5)
    diagram = Diagram.from_pd(pd, signs)
    annotation = RegionAnnotation(
        crossing_ids=frozenset(range(20)), strand_count=5, half_twists=2
    )
    reduced, selection = resolve_selection(diagram, (annotation,))
    augmented = augment(reduced, selection)
    assert augmented.circle_count == 5
    block_circle = augmented.circles[0]
    assert (block_circle.strand_count, block_circle.half_twists) == (5, 2)
    assert (block_circle.epsilon, block_circle.filling_n) == (0, 1)
    for circle in augmented.circles[1:]:
        assert (circle.strand_count, circle.half_twists, circle.epsilon) == (2, 1, 1)


def test_odd_generalized_block_keeps_lowest_ids_as_residual():
    # 3 strands, 3 half-twists = 9 crossings; epsilon = 1 leaves one
    # half-twist = 3 crossings flat, chosen as the lowest ids.
    word = full_twist_word(3) + [1, 2, 1] + [1, 2]
    pd, signs = braid_closure(word, 3)
    diagram = Diagram.from_pd(pd, signs)
    annotation = RegionAnnotation(
        crossing_ids=frozenset(range(9)), strand_count=3, half_twists=3
    )
    reduced, selection = resolve_selection(diagram, (annotation,))
    augmented = augment(reduced, selection)
    block = augmented.circles[0]
    assert (block.strand_count, block.half_twists, block.epsilon) == (3, 3, 1)


def test_augment_rejects_foreign_selection():
    trefoil = Diagram.from_pd(TREFOIL)
    figure8 = Diagram.from_pd(FIGURE8)
    selection = build_selection(figure8)
    with pytest.raises(AugmentError):
        augment(trefoil, selection)


def test_augment_rejects_empty_selection():
    diagram = Diagram.from_pd([])
    selection = TwistSelection(regions=(), diagram=diagram)
    with pytest.raises(AugmentError):
        augment(diagram, selection)


def test_augment_rejects_mixed_sign_regions():
    pd, signs = braid_closure([1, -1], 2)
    diagram = Diagram.from_pd(pd, signs)
    (region,) = detect_bigon_chains(diagram)
    assert region.sign == 0
    selection = TwistSelection(regions=(region,), diagram=diagram)
    with pytest.raises(AugmentError):
        augment(diagram, selection)


# ----------------------------------------------------------------------------
# PD export
# ----------------------------------------------------------------------------

EXPECTED_EXPORT = {
    # name -> (crossings in export, components in export)
    "trefoil": (5, 2),
    "figure8": (8, 3),
    "hopf": (4, 3),
    "kink": (5, 2),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_export_golden_corpus(name):
    pd = GOLDEN[name]
    diagram, augmented = _augmented(pd)
    exported = export_augmented_diagram(augmented)
    expected_v, expected_comps = EXPECTED_EXPORT[name]
    assert exported.crossing_count == expected_v
    assert exported.link_component_count == expected_comps
    original_comps, tw, _ = GOLDEN_TWIST[name]
    assert expected_comps == original_comps + tw


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_export_round_trips_through_serialization(name):
    _, augmented = _augmented(GOLDEN[name])
    exported = export_augmented_diagram(augmented)
    again = parse_document(serialize_diagram(exported)).diagram
    assert again == exported


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_export_is_orientation_consistent(name):
    _, augmented = _augmented(GOLDEN[name])
    exported = export_augmented_diagram(augmented)
    flow: dict[int, set[bool]] = {}
    for crossing in exported.crossings:
        for slot, arc in enumerate(crossing.arcs):
            # Slot 0 flows in, and so does slot 3 of a positive crossing and
            # slot 1 of a negative one (docs/diagram-format.md).
            flows_in = slot == 0 or slot == (3 if crossing.sign > 0 else 1)
            flow.setdefault(arc, set()).add(flows_in)
    assert all(dirs == {True, False} for dirs in flow.values())


def test_export_is_deterministic():
    _, augmented = _augmented(FIGURE8)
    first = serialize_diagram(export_augmented_diagram(augmented))
    second = serialize_diagram(export_augmented_diagram(augmented))
    assert first == second


def test_export_generalized_block():
    pd, signs = braid_closure(full_twist_word(5) + [1, 2, 3, 4], 5)
    diagram = Diagram.from_pd(pd, signs)
    annotation = RegionAnnotation(
        crossing_ids=frozenset(range(20)), strand_count=5, half_twists=2
    )
    reduced, selection = resolve_selection(diagram, (annotation,))
    augmented = augment(reduced, selection)
    exported = export_augmented_diagram(augmented)
    # Block circle crosses 5 strands twice (10 crossings, no residual);
    # each singleton keeps its crossing and adds 4 circle crossings.
    assert exported.crossing_count == 10 + 4 * 5
    assert exported.link_component_count == 1 + 5


def test_export_odd_generalized_block():
    word = full_twist_word(3) + [1, 2, 1] + [1, 2]
    pd, signs = braid_closure(word, 3)
    diagram = Diagram.from_pd(pd, signs)
    annotation = RegionAnnotation(
        crossing_ids=frozenset(range(9)), strand_count=3, half_twists=3
    )
    reduced, selection = resolve_selection(diagram, (annotation,))
    augmented = augment(reduced, selection)
    exported = export_augmented_diagram(augmented)
    parse_document(serialize_diagram(exported))
    original_comps = diagram.link_component_count
    assert exported.link_component_count == original_comps + augmented.circle_count


def test_export_rejects_orientation_inconsistent_input():
    # Parses under the lenient sign policy, but no oriented diagram has
    # these signs, so the exporter must refuse rather than emit nonsense.
    diagram = Diagram.from_pd(KINK, signs=[-1])
    selection = build_selection(diagram)
    augmented = augment(diagram, selection)
    with pytest.raises(ExportError):
        export_augmented_diagram(augmented)


def test_export_rejects_annotated_pair_without_a_bigon():
    # Crossings 0 and 2 of sigma1 sigma1 sigma2 leave four strand-endpoints
    # and share a sign, but no bigon joins them into a chain, so the
    # annotation is an input error before anything is augmented.
    pd, signs = braid_closure([1, 1, 2], 3)
    annotation = RegionAnnotation(crossing_ids=frozenset({0, 2}), strand_count=2, half_twists=2)
    with pytest.raises(RegionError, match="region 1: crossings do not form one twist chain"):
        resolve_selection(Diagram.from_pd(pd, signs), (annotation,))


def test_annotated_two_strand_region_keeps_chain_order():
    # Crossing 5 closes up onto 0, so the chain runs 5, 0, 1: an annotation
    # of those crossings lists them in chain order, and the export reads
    # that order to draw the same diagram as the detected chain.
    pd, signs = braid_closure([1, 1, 2, 1, 2, 1], 3)
    diagram = Diagram.from_pd(pd, signs)
    annotation = RegionAnnotation(crossing_ids=frozenset({0, 1, 5}), strand_count=2, half_twists=3)
    reduced, selection = resolve_selection(diagram, (annotation,))
    assert selection.regions[0].crossing_ids == (5, 0, 1)
    annotated = serialize_diagram(export_augmented_diagram(augment(reduced, selection)))
    reduced, selection = resolve_selection(diagram)
    assert selection.regions[0].crossing_ids == (5, 0, 1)
    assert annotated == serialize_diagram(export_augmented_diagram(augment(reduced, selection)))


def test_name_suffix_on_export():
    named = Diagram.from_pd(TREFOIL, name="trefoil")
    reduced, selection = resolve_selection(named)
    augmented = augment(reduced, selection)
    assert export_augmented_diagram(augmented).name == "trefoil-augmented"
    anonymous = Diagram.from_pd(TREFOIL)
    reduced, selection = resolve_selection(anonymous)
    assert (
        export_augmented_diagram(augment(reduced, selection)).name == "augmented"
    )


def test_augmented_link_exposes_source():
    diagram, augmented = _augmented(HOPF)
    assert isinstance(augmented, AugmentedLink)
    assert augmented.source.diagram.crossing_count == diagram.crossing_count
    assert augmented.half_twist_counts == tuple(
        c.half_twists for c in augmented.circles
    )
