"""Twist-region detection, validation, and selection building."""

from __future__ import annotations

import time

import pytest

from auglink.diagram import Diagram
from auglink.errors import NonAlternatingRegionError, RegionError
from auglink.twist import (
    RegionAnnotation,
    TwistRegion,
    TwistSelection,
    boundary_arc_count,
    build_selection,
    detect_bigon_chains,
    resolve_selection,
    validate_generalized_region,
)

from braid import braid_closure, full_twist_word
from corpus import FIGURE8, GOLDEN, GOLDEN_TWIST, HOPF, KINK, TREFOIL
from oracle import oracle_twist_regions


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_detection_matches_oracle(name):
    diagram = Diagram.from_pd(GOLDEN[name])
    regions = detect_bigon_chains(diagram)
    tw, sizes = oracle_twist_regions(GOLDEN[name])
    assert len(regions) == tw
    assert sorted(r.crossing_count for r in regions) == sorted(sizes)
    _, expected_tw, expected_sizes = GOLDEN_TWIST[name]
    assert (tw, sorted(sizes)) == (expected_tw, expected_sizes)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_detection_partitions_crossings(name):
    diagram = Diagram.from_pd(GOLDEN[name])
    regions = detect_bigon_chains(diagram)
    covered = [i for r in regions for i in r.crossing_ids]
    assert sorted(covered) == sorted(diagram.crossing_ids)
    assert [r.id for r in regions] == list(range(1, len(regions) + 1))


def test_detected_regions_carry_the_common_sign():
    diagram = Diagram.from_pd(FIGURE8)
    regions = detect_bigon_chains(diagram)
    for region in regions:
        signs = {diagram.crossing(i).sign for i in region.crossing_ids}
        assert signs == {region.sign}
    assert sorted(r.sign for r in regions) == [-1, 1]


def test_mixed_sign_chain_detected_with_sign_zero():
    pd, signs = braid_closure([1, -1, 1], 2)
    diagram = Diagram.from_pd(pd, signs)
    (region,) = detect_bigon_chains(diagram)
    assert region.crossing_count == 3
    assert region.sign == 0


def test_kink_self_bigon_does_not_bond():
    diagram = Diagram.from_pd(KINK)
    (region,) = detect_bigon_chains(diagram)
    assert region.crossing_count == 1
    assert region.strand_count == 2
    assert region.sign == 1


def test_twist_region_count_formula_enforced():
    with pytest.raises(RegionError):
        TwistRegion(id=1, crossing_ids=(0, 1), strand_count=3, half_twists=1, sign=1)
    region = TwistRegion(
        id=1, crossing_ids=(0, 1, 2), strand_count=3, half_twists=1, sign=1
    )
    assert region.crossing_count == 3


# ----------------------------------------------------------------------------
# Generalized-region validation
# ----------------------------------------------------------------------------


def test_boundary_arc_counts():
    trefoil = Diagram.from_pd(TREFOIL)
    assert boundary_arc_count(trefoil, frozenset({0, 1, 2})) == 0  # cyclic chain
    assert boundary_arc_count(trefoil, frozenset({0})) == 4
    figure8 = Diagram.from_pd(FIGURE8)
    for region in detect_bigon_chains(figure8):
        assert boundary_arc_count(figure8, frozenset(region.crossing_ids)) == 4


def test_validate_two_strand_region_on_figure8():
    diagram = Diagram.from_pd(FIGURE8)
    detected = detect_bigon_chains(diagram)
    for found in detected:
        annotation = RegionAnnotation(
            crossing_ids=frozenset(found.crossing_ids), strand_count=2, half_twists=2
        )
        region = validate_generalized_region(diagram, annotation, region_id=7)
        assert region.id == 7
        assert region.sign == found.sign


def test_validate_rejects_wrong_count():
    diagram = Diagram.from_pd(FIGURE8)
    annotation = RegionAnnotation(
        crossing_ids=frozenset({0, 1, 2}), strand_count=2, half_twists=2
    )
    with pytest.raises(RegionError):
        validate_generalized_region(diagram, annotation)


def test_validate_rejects_mixed_signs():
    diagram = Diagram.from_pd(FIGURE8)
    by_sign = {r.sign: r.crossing_ids for r in detect_bigon_chains(diagram)}
    mixed = frozenset({by_sign[1][0], by_sign[-1][0]})
    annotation = RegionAnnotation(crossing_ids=mixed, strand_count=2, half_twists=2)
    with pytest.raises(NonAlternatingRegionError):
        validate_generalized_region(diagram, annotation)


def test_validate_rejects_closed_chains():
    # The whole trefoil is a 2-strand region combinatorially, but it has no
    # boundary arcs at all, so it cannot be an m-strand block on a surface.
    diagram = Diagram.from_pd(TREFOIL)
    annotation = RegionAnnotation(
        crossing_ids=frozenset({0, 1, 2}), strand_count=2, half_twists=3
    )
    with pytest.raises(RegionError):
        validate_generalized_region(diagram, annotation)


def test_validate_rejects_unknown_ids_and_bad_parameters():
    diagram = Diagram.from_pd(KINK)
    with pytest.raises(RegionError):
        validate_generalized_region(
            diagram,
            RegionAnnotation(crossing_ids=frozenset({5}), strand_count=2, half_twists=1),
        )
    with pytest.raises(RegionError):
        validate_generalized_region(
            diagram,
            RegionAnnotation(crossing_ids=frozenset({0}), strand_count=1, half_twists=1),
        )
    with pytest.raises(RegionError):
        validate_generalized_region(
            diagram,
            RegionAnnotation(crossing_ids=frozenset({0}), strand_count=2, half_twists=0),
        )


def test_validate_five_strand_block():
    pd, signs = braid_closure(full_twist_word(5) + [1, 2, 3, 4], 5)
    diagram = Diagram.from_pd(pd, signs)
    block = frozenset(range(20))
    assert boundary_arc_count(diagram, block) == 10
    region = validate_generalized_region(
        diagram,
        RegionAnnotation(crossing_ids=block, strand_count=5, half_twists=2),
    )
    assert (region.strand_count, region.half_twists, region.sign) == (5, 2, 1)


# ----------------------------------------------------------------------------
# Selection building
# ----------------------------------------------------------------------------


def test_build_selection_covers_all_crossings():
    diagram = Diagram.from_pd(FIGURE8)
    selection = build_selection(diagram)
    assert selection.region_count == 2
    covered = sorted(i for r in selection.regions for i in r.crossing_ids)
    assert covered == sorted(diagram.crossing_ids)
    assert selection.regions[0].id == 1


def test_build_selection_respects_annotations():
    pd, signs = braid_closure(full_twist_word(5) + [1, 2, 3, 4], 5)
    diagram = Diagram.from_pd(pd, signs)
    annotation = RegionAnnotation(
        crossing_ids=frozenset(range(20)), strand_count=5, half_twists=2
    )
    selection = build_selection(diagram, (annotation,))
    assert selection.region_count == 5
    assert selection.regions[0].strand_count == 5
    assert all(selection.regions[i - 1].crossing_count == 1 for i in range(2, 6))


def test_build_selection_rejects_overlapping_annotations():
    diagram = Diagram.from_pd(FIGURE8)
    regions = detect_bigon_chains(diagram)
    ids = set(regions[0].crossing_ids) | {regions[1].crossing_ids[0]}
    first = RegionAnnotation(
        crossing_ids=frozenset(regions[0].crossing_ids), strand_count=2, half_twists=2
    )
    second = RegionAnnotation(crossing_ids=frozenset(ids), strand_count=2, half_twists=3)
    with pytest.raises(RegionError):
        build_selection(diagram, (first, second))


def test_build_selection_refuses_mixed_chains():
    pd, signs = braid_closure([1, -1, 1], 2)
    diagram = Diagram.from_pd(pd, signs)
    with pytest.raises(NonAlternatingRegionError):
        build_selection(diagram)


def test_resolve_selection_reduces_mixed_chains():
    pd, signs = braid_closure([1, -1, 1], 2)
    diagram = Diagram.from_pd(pd, signs)
    reduced, selection = resolve_selection(diagram)
    assert reduced.crossing_count == 1
    assert selection.region_count == 1
    assert selection.regions[0].sign in (-1, 1)


def test_resolve_selection_can_empty_the_diagram():
    pd, signs = braid_closure([1, -1], 2)
    diagram = Diagram.from_pd(pd, signs)
    reduced, selection = resolve_selection(diagram)
    assert reduced.crossing_count == 0
    assert selection.region_count == 0


def test_resolve_selection_keeps_annotations_intact():
    # A mixed column sigma2 sigma2^-1 sigma2 outside the annotated block
    # reduces to one crossing; the block's ids and boundary are untouched.
    word = full_twist_word(5) + [1, 2, -2, 2, 3, 4]
    pd, signs = braid_closure(word, 5)
    diagram = Diagram.from_pd(pd, signs)
    annotation = RegionAnnotation(
        crossing_ids=frozenset(range(20)), strand_count=5, half_twists=2
    )
    reduced, selection = resolve_selection(diagram, (annotation,))
    assert reduced.crossing_count == diagram.crossing_count - 2
    assert selection.region_count == 5
    assert selection.regions[0].strand_count == 5
    assert selection.regions[0].crossing_ids == tuple(range(20))


def test_resolve_selection_revalidates_annotations_after_reduction():
    # Reducing sigma1 sigma1^-1 right under the block closes the block's
    # first strand straight around to itself, merging two of its boundary
    # arcs: the annotation no longer describes a valid region of the
    # reduced diagram and resolution must say so rather than augment it.
    word = full_twist_word(5) + [1, -1, 2, 3, 4]
    pd, signs = braid_closure(word, 5)
    diagram = Diagram.from_pd(pd, signs)
    annotation = RegionAnnotation(
        crossing_ids=frozenset(range(20)), strand_count=5, half_twists=2
    )
    with pytest.raises(RegionError):
        resolve_selection(diagram, (annotation,))


def test_selection_is_a_twist_selection_over_its_diagram():
    diagram = Diagram.from_pd(HOPF)
    selection = build_selection(diagram)
    assert isinstance(selection, TwistSelection)
    assert selection.diagram == diagram
    assert selection.region_count == 1
    assert selection.regions[0].crossing_count == 2


def test_many_annotated_regions_validate_quickly():
    # Each region is validated from its own darts, so the cost is linear in
    # the annotated crossings; a scan of the whole diagram per region takes
    # seconds here.
    pd, signs = braid_closure([1] * 8000, 2)
    diagram = Diagram.from_pd(pd, signs)
    annotations = [RegionAnnotation(frozenset({2 * k, 2 * k + 1}), 2, 2) for k in range(3999)]
    start = time.perf_counter()
    reduced, selection = resolve_selection(diagram, annotations)
    assert time.perf_counter() - start < 1.5
    assert reduced is diagram
    assert selection.region_count == 4000
    assert all(r.crossing_count == 2 and r.sign == 1 for r in selection.regions)
