"""The pipeline's records: immutable values, built by keyword or by position.

:class:`~auglink.diagram.Diagram` is a plain class; its contract is in
``test_diagram.py::test_cached_topology_is_shared_and_read_only``.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from auglink.augment import AugmentedLink, CrossingCircle
from auglink.cli import FileResult, RunConfig
from auglink.diagram import Crossing, Diagram, DiagramDocument
from auglink.geometry import (
    CONSTANTS,
    Certificate,
    CertificateReport,
    Constants,
    GeodesicCertificate,
    SlopeEstimate,
    trivial_report,
)
from auglink.twist import RegionAnnotation, TwistRegion, TwistSelection

from corpus import TREFOIL

_TREFOIL = Diagram.from_pd(TREFOIL)
_REGION = TwistRegion(id=1, crossing_ids=(0, 1, 2), strand_count=2, half_twists=3, sign=1)
_SELECTION = TwistSelection(regions=(_REGION,), diagram=_TREFOIL)
_CIRCLE = CrossingCircle(id=1, epsilon=1, strand_count=2, filling_n=2)

# (record type, keyword arguments, its defaults, one field and another value for it)
RECORDS = [
    (Crossing, dict(id=3, arcs=(1, 2, 3, 4), sign=1), {}, ("sign", -1)),
    (DiagramDocument, dict(diagram=_TREFOIL, annotations=()), {"warnings": ()},
     ("warnings", ("w",))),
    (RegionAnnotation, dict(crossing_ids=frozenset({0, 1}), strand_count=2, half_twists=2), {},
     ("half_twists", 3)),
    (TwistRegion, _REGION._asdict(), {}, ("sign", -1)),
    (TwistSelection, dict(regions=(_REGION,), diagram=_TREFOIL), {},
     ("diagram", Diagram(_TREFOIL.crossing_ids, _TREFOIL.signs, _TREFOIL.dart_mates, "trefoil"))),
    (CrossingCircle, _CIRCLE._asdict(), {}, ("epsilon", 0)),
    (AugmentedLink, dict(circles=(_CIRCLE,), source=_SELECTION), {}, ("circles", ())),
    (Constants, {}, {"v8": 3.66386, "two_pi": CONSTANTS.two_pi, "hk": 7.5832, "six": 6.0},
     ("six", 7.0)),
    (Certificate, dict(certified=True), {"reasons": ()}, ("certified", False)),
    (GeodesicCertificate,
     dict(certified=False, sum_of_inverses=Fraction(1, 3)),
     {"reasons": ()}, ("sum_of_inverses", Fraction(1, 2))),
    (SlopeEstimate, SlopeEstimate.for_half_twists(3)._asdict(), {}, ("c", 4)),
    (CertificateReport, trivial_report()._asdict(), {}, ("tw", 1)),
    (RunConfig, dict(inputs=("a.json",)),
     {"json_output": False, "attest_hyperbolic": False, "export_dir": None, "strict": False},
     ("strict", True)),
    (FileResult, dict(file="a.json", ok=False, error="boom"),
     {"name": None, "report": None, "warnings": (), "export_path": None, "error": None},
     ("ok", True)),
]


@pytest.mark.parametrize("cls, kwargs, defaults, change", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_values(cls, kwargs, defaults, change):
    record = cls(**kwargs)
    assert cls._field_defaults == defaults
    assert {**defaults, **kwargs} == record._asdict()
    positional = cls(*(kwargs.get(f, defaults.get(f)) for f in cls._fields))
    assert type(positional) is cls
    assert positional == record and hash(positional) == hash(record)

    field, value = change
    other = cls(**{**kwargs, field: value})
    assert other != record and getattr(other, field) == value
    assert record._replace(**{field: value}) == other

    for name in (*cls._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, cls._fields[0])
    assert record == cls(**kwargs)

