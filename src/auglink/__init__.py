"""Twist regions, augmented links, and certified geometric bounds.

The pipeline runs in four stages, one module each:

- :mod:`auglink.diagram` — parse and validate PD codes, find faces and
  strands as dart orbits, check the Euler formula, infer crossing signs.
- :mod:`auglink.twist` — detect maximal twist regions via bigon chains,
  validate annotated generalized regions, reduce mixed-sign regions.
- :mod:`auglink.augment` — replace each region with an encircling circle
  plus residual half-twist data, and export the augmented diagram as a
  PD code again.
- :mod:`auglink.geometry` — slope-length and volume lower bounds, with
  exact-arithmetic hyperbolicity and geodesic certificates.

:mod:`auglink.cli` wires the stages into the ``auglink analyze`` command.
The package exports the pipeline's functions and its errors; every other
name is imported from its module.
"""

from __future__ import annotations

from .augment import augment, export_augmented_diagram
from .diagram import parse_document
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
from .geometry import build_report
from .twist import resolve_selection

__version__ = "0.1.0"

__all__ = [
    "AugmentError",
    "AuglinkError",
    "DiagramSyntaxError",
    "ExportError",
    "GeometryError",
    "InvalidDiagramError",
    "NonAlternatingRegionError",
    "RegionError",
    "augment",
    "build_report",
    "export_augmented_diagram",
    "parse_document",
    "resolve_selection",
]
