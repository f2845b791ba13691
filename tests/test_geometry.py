"""Length and volume bounds, exact-arithmetic certificates, and reports."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from auglink.augment import augment
from auglink.diagram import Diagram
from auglink.errors import GeometryError
from auglink.geometry import (
    CONSTANTS,
    GEODESIC_THRESHOLD,
    HYPOTHESIS_HYPERBOLIC,
    augmentation_volume_lower_bound,
    build_report,
    euler_char_cut,
    filled_volume_lower_bound,
    geodesic_certificate,
    normalized_length,
    normalized_length_lower_bound,
    six_theorem_certificate,
    slope_length_lower_bound,
    trivial_report,
)
from auglink.twist import resolve_selection

from corpus import FIGURE8, TREFOIL


def test_constants():
    assert CONSTANTS.v8 == pytest.approx(3.66386, abs=1e-9)
    assert CONSTANTS.two_pi == pytest.approx(2 * math.pi)
    assert CONSTANTS.hk == pytest.approx(7.5832, abs=1e-9)
    assert CONSTANTS.six == 6.0
    assert set(CONSTANTS._fields) == {"v8", "two_pi", "hk", "six"}


# ----------------------------------------------------------------------------
# Length bounds
# ----------------------------------------------------------------------------


def test_slope_length_lower_bound_values():
    assert slope_length_lower_bound(0) == 0.5
    assert slope_length_lower_bound(7) == pytest.approx(math.sqrt(49.25), abs=1e-12)
    assert slope_length_lower_bound(7) > CONSTANTS.two_pi
    assert slope_length_lower_bound(6) < CONSTANTS.two_pi
    with pytest.raises(GeometryError):
        slope_length_lower_bound(-1)


def test_normalized_length_minimum_at_slope_ratio():
    assert normalized_length(2.0, 0.5, 4) == pytest.approx(2.0, abs=1e-12)
    assert normalized_length_lower_bound(4) == 2.0
    assert normalized_length(1.0, 1.0, 4) > 2.0
    assert normalized_length(8.0, 2.0, 4) == pytest.approx(2.0, abs=1e-12)  # scale invariant
    with pytest.raises(GeometryError):
        normalized_length(0.0, 1.0, 4)
    with pytest.raises(GeometryError):
        normalized_length(1.0, -2.0, 4)
    with pytest.raises(GeometryError):
        normalized_length_lower_bound(-3)


# ----------------------------------------------------------------------------
# Volume bounds
# ----------------------------------------------------------------------------


def test_augmentation_volume_lower_bound():
    assert augmentation_volume_lower_bound(1) == 0.0
    assert augmentation_volume_lower_bound(2) == pytest.approx(7.32772, abs=1e-5)
    assert augmentation_volume_lower_bound(3) == pytest.approx(2 * 7.32772, abs=1e-4)
    with pytest.raises(GeometryError):
        augmentation_volume_lower_bound(0)


def test_euler_char_cut_never_raises():
    assert euler_char_cut(0) == 2
    assert euler_char_cut(1) == 0
    assert euler_char_cut(2) == -2
    assert euler_char_cut(5) == -8
    # The two volume expressions agree: -v8 * chi == 2 v8 (tw - 1).
    for tw in range(1, 10):
        assert -CONSTANTS.v8 * euler_char_cut(tw) == pytest.approx(
            augmentation_volume_lower_bound(tw)
        )


def test_filled_volume_lower_bound_window():
    value = filled_volume_lower_bound(2, 7)
    assert value is not None
    assert 0.64756 < value < 0.64800
    assert filled_volume_lower_bound(2, 6) is None
    assert filled_volume_lower_bound(5, 6) is None
    bigger = filled_volume_lower_bound(2, 8)
    assert bigger is not None and bigger > value
    # As c grows the coefficient approaches the unfilled bound.
    nearly = filled_volume_lower_bound(2, 10**6)
    assert nearly is not None
    assert nearly == pytest.approx(augmentation_volume_lower_bound(2), rel=1e-10)


# ----------------------------------------------------------------------------
# Certificates
# ----------------------------------------------------------------------------


def test_six_theorem_certificate_boundary():
    assert six_theorem_certificate([6, 6, 6], True).certified
    rejected = six_theorem_certificate([6, 5, 6], True)
    assert not rejected.certified
    assert any("circle 2" in reason for reason in rejected.reasons)
    assert six_theorem_certificate([100], True).certified
    with pytest.raises(GeometryError):
        six_theorem_certificate([], True)


def test_six_theorem_requires_attestation():
    unattested = six_theorem_certificate([10, 10], False)
    assert not unattested.certified
    assert any("attestation" in reason for reason in unattested.reasons)
    assert six_theorem_certificate([10, 10], True).certified


def test_geodesic_certificate_thresholds():
    assert geodesic_certificate([58], True).certified
    assert not geodesic_certificate([57], True).certified
    assert geodesic_certificate([116, 116], True).certified
    assert not geodesic_certificate([115, 115], True).certified


def test_geodesic_certificate_is_exact():
    cert = geodesic_certificate([58], True)
    assert cert.sum_of_inverses == Fraction(1, 58)
    assert cert.threshold == GEODESIC_THRESHOLD
    assert GEODESIC_THRESHOLD == Fraction(10**8, 75832**2)
    # 1/58 < 10^8/75832^2 < 1/57, exactly the wedge the examples probe.
    assert Fraction(1, 58) < GEODESIC_THRESHOLD < Fraction(1, 57)


def test_geodesic_certificate_rejects_zero_twists():
    with pytest.raises(GeometryError):
        geodesic_certificate([58, 0], True)
    with pytest.raises(GeometryError):
        geodesic_certificate([], True)


def test_geodesic_certificate_requires_attestation():
    cert = geodesic_certificate([200, 200], False)
    assert not cert.certified
    assert any("attestation" in reason for reason in cert.reasons)


def test_certificates_never_flip_when_twisting_increases():
    base = [6, 6, 58, 120]
    assert six_theorem_certificate(base, True).certified
    assert not geodesic_certificate(base, True).certified
    more = [c + 100 for c in base]
    assert six_theorem_certificate(more, True).certified
    richer = [600, 600, 580, 1200]
    assert geodesic_certificate(richer, True).certified


# ----------------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------------


def _augmented_figure8():
    diagram = Diagram.from_pd(FIGURE8)
    reduced, selection = resolve_selection(diagram)
    return augment(reduced, selection)


def test_build_report_figure8():
    report = build_report(_augmented_figure8(), attested_hyperbolic=False)
    assert report.tw == 2
    assert [est.c for est in report.estimates] == [2, 2]
    assert not report.hyperbolic.certified
    assert any("attestation" in r for r in report.hyperbolic.reasons)
    assert any("circle 1" in r for r in report.hyperbolic.reasons)
    assert not report.geodesic_circles.certified
    assert report.geodesic_circles.sum_of_inverses == Fraction(1, 1)
    assert report.vol_augmentation_lb == pytest.approx(7.32772, abs=1e-5)
    assert report.vol_filled_lb is None  # c = 2 < 7
    assert report.euler_char_cut == -2
    assert HYPOTHESIS_HYPERBOLIC in report.hypotheses


def test_build_report_trefoil_attested():
    diagram = Diagram.from_pd(TREFOIL)
    reduced, selection = resolve_selection(diagram)
    report = build_report(augment(reduced, selection), attested_hyperbolic=True)
    assert report.tw == 1
    assert report.vol_augmentation_lb == 0.0
    assert report.euler_char_cut == 0
    assert not report.hyperbolic.certified  # c = 3 < 6
    reasons = " ".join(report.hyperbolic.reasons)
    assert "attestation" not in reasons


def test_trivial_report_shape():
    report = trivial_report()
    assert report.tw == 0
    assert report.circles == ()
    assert report.estimates == ()
    assert not report.hyperbolic.certified
    assert not report.geodesic_circles.certified
    assert report.vol_augmentation_lb is None
    assert report.vol_filled_lb is None
    assert report.euler_char_cut is None
