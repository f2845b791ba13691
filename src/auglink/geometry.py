"""Quantitative bounds and certificates for augmented link complements.

Everything here consumes only the combinatorial summary of an augmentation
(tw regions with half-twist counts c_i, strand counts, residual flags) plus
one user attestation — that the augmented complement is hyperbolic, which no
amount of diagram combinatorics can decide.  All outputs are one-directional
sufficient conditions: "not-certified" means the hypothesis of the relevant
theorem was not met, never that the conclusion is false.

Certificate comparisons are exact.  The 6-half-twist gate and the 2*pi slope
gate reduce to integer comparisons on c, and the geodesic criterion
sum(1/c_i) < 1/7.5832^2 is evaluated in rational arithmetic, so no
certificate can flip on floating-point rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .augment import AugmentedLink
from .errors import GeometryError


class Constants(NamedTuple):
    """Numeric constants echoed into every report."""

    v8: float = 3.66386  # volume of the regular ideal hyperbolic octahedron
    two_pi: float = 2.0 * math.pi
    hk: float = 7.5832  # normalized-length constant of the geodesic criterion
    six: float = 6.0


CONSTANTS = Constants()

#: Exact form of 1/hk^2 (hk = 75832/10^4), used for the geodesic certificate.
GEODESIC_THRESHOLD = Fraction(10**8, 75832**2)

#: Hypothesis strings echoed verbatim into every report.
HYPOTHESIS_HYPERBOLIC = "augmentation S3-L is hyperbolic (user attestation)"
HYPOTHESIS_CUSPS = "calibrated maximal cusps: o_len >= 1 and p_len >= 1/2"

_MISSING_ATTESTATION = "missing hyperbolicity attestation"


# ============================================================================
# Length and volume bounds
# ============================================================================


def slope_length_lower_bound(c: int) -> float:
    """Minimum length of the filling slope on a circle with c half-twists.

    Returns sqrt(1/4 + c^2); the exact relation length^2 - c^2 = 1/4 holds
    to rounding.  Already exceeds 2*pi at c = 7 (sqrt(49.25) = 7.0178...).
    """
    if c < 0:
        raise GeometryError(f"half-twist count must be >= 0, got {c}")
    return math.sqrt(0.25 + float(c) * float(c))


def normalized_length(p_len: float, o_len: float, c: int) -> float:
    """Slope length divided by the square root of the cusp torus area.

    Computes sqrt(p^2 + c^2 o^2) / sqrt(2 p o).  Scale-invariant, and over
    all positive (p, o) it is minimized when p/o = c, where it equals
    sqrt(c).
    """
    if not (p_len > 0 and o_len > 0):
        raise GeometryError("lattice step lengths must be positive")
    return math.sqrt((p_len * p_len + (c * o_len) * (c * o_len)) / (2.0 * p_len * o_len))


def normalized_length_lower_bound(c: int) -> float:
    """sqrt(c): the minimum of normalized_length over all lattice shapes."""
    if c < 0:
        raise GeometryError(f"half-twist count must be >= 0, got {c}")
    return math.sqrt(c)


def augmentation_volume_lower_bound(tw: int) -> float:
    """Volume of the augmented complement is at least 2 v8 (tw - 1)."""
    if tw < 1:
        raise GeometryError(f"region count must be >= 1, got {tw}")
    return 2.0 * CONSTANTS.v8 * (tw - 1)


def euler_char_cut(tw: int) -> int:
    """Euler characteristic 2 - 2 tw of the complement cut along the
    reflection surface; satisfies -v8 * (2 - 2 tw) = 2 v8 (tw - 1)."""
    return 2 - 2 * tw


def filled_volume_lower_bound(tw: int, c_min: int) -> float | None:
    """Lower volume bound surviving Dehn filling, when slopes exceed 2*pi.

    Applicable exactly when slope_length_lower_bound(c_min) > 2*pi, i.e.
    for integer counts when c_min >= 7 (sqrt(36.25) < 2*pi < sqrt(49.25));
    the comparison is made on integers so it cannot flip on rounding.
    Returns (1 - (2*pi/length)^2)^(3/2) * 2 v8 (tw - 1), or None when the
    bound does not apply.
    """
    if c_min < 7:
        return None
    length = slope_length_lower_bound(c_min)
    factor = (1.0 - (CONSTANTS.two_pi / length) ** 2) ** 1.5
    return factor * augmentation_volume_lower_bound(tw)


# ============================================================================
# Certificates
# ============================================================================


class Certificate(NamedTuple):
    certified: bool
    reasons: tuple[str, ...] = ()

    @property
    def status(self) -> str:
        return "certified" if self.certified else "not-certified"


class GeodesicCertificate(NamedTuple):
    certified: bool
    sum_of_inverses: Fraction
    threshold: Fraction
    reasons: tuple[str, ...] = ()

    @property
    def status(self) -> str:
        return "certified" if self.certified else "not-certified"


def six_theorem_certificate(cs, attested_hyperbolic: bool) -> Certificate:
    """Certify hyperbolicity of the filled link: every c_i >= 6, plus the
    attestation that the augmentation itself is hyperbolic.

    The length gate is the exact integer test c >= 6, equivalent to the
    slope length bound sqrt(1/4 + c^2) exceeding 6.
    """
    cs = tuple(cs)
    if not cs:
        raise GeometryError("no twist regions: certificate needs at least one circle")
    reasons = []
    if not attested_hyperbolic:
        reasons.append(_MISSING_ATTESTATION)
    for i, c in enumerate(cs, start=1):
        if c < 6:
            reasons.append(
                f"circle {i}: slope length lower bound {slope_length_lower_bound(c):.6g}"
                f" <= 6 (c = {c} < 6)"
            )
    return Certificate(certified=not reasons, reasons=tuple(reasons))


def geodesic_certificate(cs, attested_hyperbolic: bool) -> GeodesicCertificate:
    """Certify that every crossing circle's core is isotopic to a geodesic.

    Requires sum(1/c_i) < 1/7.5832^2, compared in exact rational arithmetic,
    plus the hyperbolicity attestation.  A circle with c = 0 admits no such
    certificate at all and is an error, not a failure.
    """
    cs = tuple(cs)
    if not cs:
        raise GeometryError("no twist regions: certificate needs at least one circle")
    zero = [i for i, c in enumerate(cs, start=1) if c == 0]
    if zero:
        raise GeometryError(
            f"certificate inapplicable: circle(s) {zero} have no half-twists (c = 0)"
        )
    lcm = math.lcm(*cs)
    total = Fraction(sum(lcm // c for c in cs), lcm)  # one normalization, not one per term
    reasons = []
    if not attested_hyperbolic:
        reasons.append(_MISSING_ATTESTATION)
    if total >= GEODESIC_THRESHOLD:
        reasons.append(
            f"sum of 1/c_i = {float(total):.6g} >= threshold {float(GEODESIC_THRESHOLD):.6g}"
        )
    return GeodesicCertificate(
        certified=not reasons,
        sum_of_inverses=total,
        threshold=GEODESIC_THRESHOLD,
        reasons=tuple(reasons),
    )


# ============================================================================
# Reports
# ============================================================================


class SlopeEstimate(NamedTuple):
    """Per-circle length data: length_lb^2 = 1/4 + c^2, normalized_lb^2 = c."""

    c: int
    length_lb: float
    normalized_lb: float

    @classmethod
    def for_half_twists(cls, c: int) -> "SlopeEstimate":
        return cls(
            c=c,
            length_lb=slope_length_lower_bound(c),
            normalized_lb=normalized_length_lower_bound(c),
        )


class CertificateReport(NamedTuple):
    """Everything the analysis pipeline has to say about one diagram."""

    hypotheses: tuple[str, ...]
    tw: int
    circles: tuple  # of auglink.augment.CrossingCircle
    estimates: tuple[SlopeEstimate, ...]
    hyperbolic: Certificate
    geodesic_circles: GeodesicCertificate
    vol_augmentation_lb: float | None
    vol_filled_lb: float | None
    euler_char_cut: int | None
    constants: Constants = CONSTANTS


def build_report(augmented: AugmentedLink, attested_hyperbolic: bool) -> CertificateReport:
    """Evaluate every bound and certificate for an augmented link."""
    cs = augmented.half_twist_counts
    tw = augmented.circle_count
    return CertificateReport(
        hypotheses=(HYPOTHESIS_HYPERBOLIC, HYPOTHESIS_CUSPS),
        tw=tw,
        circles=augmented.circles,
        estimates=tuple(SlopeEstimate.for_half_twists(c) for c in cs),
        hyperbolic=six_theorem_certificate(cs, attested_hyperbolic),
        geodesic_circles=geodesic_certificate(cs, attested_hyperbolic),
        vol_augmentation_lb=augmentation_volume_lower_bound(tw),
        vol_filled_lb=filled_volume_lower_bound(tw, min(cs)),
        euler_char_cut=euler_char_cut(tw),
    )


def trivial_report() -> CertificateReport:
    """Report for a diagram with no twist regions (nothing to augment)."""
    none = ("no twist regions",)
    return CertificateReport(
        hypotheses=(HYPOTHESIS_HYPERBOLIC, HYPOTHESIS_CUSPS),
        tw=0,
        circles=(),
        estimates=(),
        hyperbolic=Certificate(certified=False, reasons=none),
        geodesic_circles=GeodesicCertificate(
            certified=False,
            sum_of_inverses=Fraction(0),
            threshold=GEODESIC_THRESHOLD,
            reasons=none,
        ),
        vol_augmentation_lb=None,
        vol_filled_lb=None,
        euler_char_cut=None,
    )
