"""Twist regions, augmented links, and certified geometric bounds.

The pipeline runs in four stages, one module each:

- :mod:`auglink.diagram` — parse and validate planar-diagram (PD) codes,
  enumerate faces, check the Euler formula, infer crossing signs.
- :mod:`auglink.twist` — detect maximal twist regions via bigon chains,
  validate annotated generalized regions, reduce mixed-sign regions.
- :mod:`auglink.augment` — replace each region with an encircling circle
  plus residual half-twist data, and export the augmented diagram as a
  PD code again.
- :mod:`auglink.geometry` — slope-length and volume lower bounds, with
  exact-arithmetic hyperbolicity and geodesic certificates.

:mod:`auglink.cli` wires the stages into the ``auglink analyze`` command.
"""

from __future__ import annotations

from .augment import (
    AugmentedLink,
    CrossingCircle,
    augment,
    export_augmented_diagram,
    filling_slope,
)
from .diagram import (
    ComponentMap,
    Crossing,
    Diagram,
    DiagramDocument,
    Face,
    compute_faces,
    link_components,
    parse_diagram,
    parse_document,
    serialize_diagram,
)
from .errors import (
    AugmentError,
    AuglinkError,
    DiagramSyntaxError,
    ExportError,
    GeometryError,
    InvalidDiagramError,
    NonAlternatingRegionError,
    RegionError,
)
from .geometry import (
    CONSTANTS,
    GEODESIC_THRESHOLD,
    Certificate,
    CertificateReport,
    Constants,
    GeodesicCertificate,
    SlopeEstimate,
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
from .report_schema import REPORT_SCHEMA
from .twist import (
    RegionAnnotation,
    TwistRegion,
    TwistSelection,
    boundary_arc_count,
    build_selection,
    detect_bigon_chains,
    resolve_selection,
    validate_generalized_region,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentError",
    "AugmentedLink",
    "AuglinkError",
    "CONSTANTS",
    "Certificate",
    "CertificateReport",
    "ComponentMap",
    "Constants",
    "Crossing",
    "CrossingCircle",
    "Diagram",
    "DiagramDocument",
    "DiagramSyntaxError",
    "ExportError",
    "Face",
    "GEODESIC_THRESHOLD",
    "GeodesicCertificate",
    "GeometryError",
    "InvalidDiagramError",
    "NonAlternatingRegionError",
    "REPORT_SCHEMA",
    "RegionAnnotation",
    "RegionError",
    "SlopeEstimate",
    "TwistRegion",
    "TwistSelection",
    "augment",
    "augmentation_volume_lower_bound",
    "boundary_arc_count",
    "build_report",
    "build_selection",
    "compute_faces",
    "detect_bigon_chains",
    "euler_char_cut",
    "export_augmented_diagram",
    "filled_volume_lower_bound",
    "filling_slope",
    "geodesic_certificate",
    "link_components",
    "normalized_length",
    "normalized_length_lower_bound",
    "parse_diagram",
    "parse_document",
    "resolve_selection",
    "serialize_diagram",
    "six_theorem_certificate",
    "slope_length_lower_bound",
    "trivial_report",
    "validate_generalized_region",
]
