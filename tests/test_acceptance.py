"""Acceptance gate: nine numbered criteria, one visible pass/fail line each.

Each criterion prints ``ACCEPTANCE <n>: PASS/FAIL`` directly to the real
stdout (bypassing capture) so the gate is visible in any pytest run, and
fails the suite through an ordinary assertion when violated.  Tolerances
are pinned here and nowhere else.
"""

from __future__ import annotations

import math
import sys
import time

from auglink.augment import augment, export_augmented_diagram
from auglink.diagram import Diagram, parse_document, serialize_diagram
from auglink.errors import RegionError
from auglink.geometry import (
    CONSTANTS,
    augmentation_volume_lower_bound,
    filled_volume_lower_bound,
    geodesic_certificate,
    six_theorem_certificate,
    slope_length_lower_bound,
)
from auglink.twist import (
    RegionAnnotation,
    detect_bigon_chains,
    resolve_selection,
    validate_generalized_region,
)

import props
from braid import braid_closure, full_twist_word
from corpus import FIGURE8, GOLDEN, GOLDEN_TWIST, TREFOIL
from oracle import oracle_twist_regions


def _gate(number: int, description: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL — {description}", file=sys.__stdout__)
        raise
    print(f"ACCEPTANCE {number}: PASS — {description}", file=sys.__stdout__)


def test_criterion_1_slope_length_constant():
    def check():
        value = slope_length_lower_bound(7)
        assert abs(value - math.sqrt(49.25)) <= 1e-6
        assert abs(value - 7.017834) <= 1e-6
        assert value > 2 * math.pi

    _gate(1, "slope_length_lower_bound(7) = sqrt(49.25) = 7.017834 > 2*pi", check)


def test_criterion_2_filled_volume_coefficient():
    def check():
        value = filled_volume_lower_bound(2, 7)
        assert value is not None
        assert 0.64756 < value < 0.64800

    _gate(2, "filled_volume_lower_bound(2, 7) in (0.64756, 0.64800)", check)


def test_criterion_3_volume_sharpness_anchor():
    def check():
        assert abs(augmentation_volume_lower_bound(2) - 7.32772) <= 1e-5
        assert abs(augmentation_volume_lower_bound(2) - 2 * CONSTANTS.v8) <= 1e-12

    _gate(3, "augmentation_volume_lower_bound(2) = 2*v8 = 7.32772 +/- 1e-5", check)


def test_criterion_4_geodesic_threshold():
    def check():
        assert geodesic_certificate([58], True).certified
        assert not geodesic_certificate([57], True).certified
        assert geodesic_certificate([116, 116], True).certified
        assert not geodesic_certificate([115, 115], True).certified

    _gate(4, "geodesic certificate: (58) yes, (57) no; (116,116) yes, (115,115) no", check)


def test_criterion_5_six_theorem_boundary():
    def check():
        assert six_theorem_certificate([6, 6, 6], True).certified
        assert not six_theorem_certificate([6, 5, 6], True).certified
        assert not six_theorem_certificate([5], True).certified
        # Backed by an exact integer comparison: perturbing the float
        # constants cannot flip the decision.
        assert six_theorem_certificate([6], True).certified

    _gate(5, "6-theorem certificate: all c=6 certified, any c=5 rejected", check)


def test_criterion_6_combinatorial_oracles():
    def check():
        for name, expected_tw, expected_sizes in (
            ("trefoil", 1, [3]),
            ("figure8", 2, [2, 2]),
        ):
            pd = GOLDEN[name]
            oracle_tw, oracle_sizes = oracle_twist_regions(pd)
            assert (oracle_tw, sorted(oracle_sizes)) == (expected_tw, expected_sizes)
            regions = detect_bigon_chains(Diagram.from_pd(pd))
            assert len(regions) == oracle_tw
            assert sorted(r.crossing_count for r in regions) == sorted(oracle_sizes)

    _gate(6, "detect_bigon_chains matches brute-force oracle on trefoil and figure-8", check)


def test_criterion_7_generalized_region_validation():
    def check():
        pd, signs = braid_closure(full_twist_word(5) + [1, 2, 3, 4], 5)
        diagram = Diagram.from_pd(pd, signs)
        block = frozenset(range(20))
        region = validate_generalized_region(
            diagram,
            RegionAnnotation(crossing_ids=block, strand_count=5, half_twists=2),
        )
        assert (region.strand_count, region.half_twists) == (5, 2)
        for strands, half_twists in [(5, 1), (4, 1), (4, 2), (4, 3), (4, 5)]:
            annotation = RegionAnnotation(
                crossing_ids=block, strand_count=strands, half_twists=half_twists
            )
            try:
                validate_generalized_region(diagram, annotation)
            except RegionError:
                continue
            raise AssertionError(f"(m={strands}, c={half_twists}) wrongly validated")

    _gate(7, "20-crossing full-twist-of-5 block validates as (m=5,c=2) only", check)


def test_criterion_8_property_suites():
    def check():
        start = time.perf_counter()
        cases = {suite.__name__: suite(10_000) for suite in props.ALL_SUITES}
        elapsed = time.perf_counter() - start
        assert all(count >= 10_000 for count in cases.values()), cases
        assert elapsed < 30.0, f"property suites took {elapsed:.1f}s"

    _gate(8, "six property suites, 10^4 cases each, under 30 s total", check)


def test_criterion_9_round_trips():
    def check():
        for name, pd in GOLDEN.items():
            diagram = Diagram.from_pd(pd, name=name)
            assert parse_document(serialize_diagram(diagram)).diagram == diagram
            reduced, selection = resolve_selection(diagram)
            augmented = augment(reduced, selection)
            exported = export_augmented_diagram(augmented)
            reparsed = parse_document(serialize_diagram(exported)).diagram
            assert reparsed == exported
            original_components, tw, _ = GOLDEN_TWIST[name]
            assert reparsed.link_component_count == original_components + tw

    _gate(9, "serialize/parse identity and export re-parse with components + tw", check)
