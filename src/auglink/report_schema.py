"""JSON Schema for the analysis reports emitted by the command-line tool.

The CLI's ``--json`` output is a single JSON array with one entry per input
file, in input order.  Successful entries carry a ``report`` object; failed
entries carry an ``error`` string instead, and the process exits with
status 2.  ``REPORT_SCHEMA`` below validates the whole document (draft-07).

Exact rationals (the geodesic certificate's sum and threshold) are encoded
as strings like ``"1/58"`` so no precision is lost in transit; every other
number is a plain JSON number at full double precision.
"""

_CIRCLE = {
    "type": "object",
    "properties": {
        "id": {"type": "integer", "minimum": 1},
        "m": {"type": "integer", "minimum": 2},
        "c": {"type": "integer", "minimum": 1},
        "epsilon": {"type": "integer", "enum": [0, 1]},
        "n": {"type": "integer", "minimum": 1},
        "slope_length_lb": {"type": "number"},
        "normalized_length_lb": {"type": "number"},
    },
    "required": [
        "id",
        "m",
        "c",
        "epsilon",
        "n",
        "slope_length_lb",
        "normalized_length_lb",
    ],
    "additionalProperties": False,
}

_RATIONAL = {"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$"}

_CERTIFICATES = {
    "type": "object",
    "properties": {
        "hyperbolic_6thm": {
            "type": "object",
            "properties": {
                "certified": {"type": "boolean"},
                "reasons": {"type": "array", "items": {"type": "string"}},
            },
            "required": ["certified", "reasons"],
            "additionalProperties": False,
        },
        "geodesic_hk": {
            "type": "object",
            "properties": {
                "certified": {"type": "boolean"},
                "sum_of_inverses": _RATIONAL,
                "threshold": _RATIONAL,
                "reasons": {"type": "array", "items": {"type": "string"}},
            },
            "required": ["certified", "sum_of_inverses", "threshold", "reasons"],
            "additionalProperties": False,
        },
    },
    "required": ["hyperbolic_6thm", "geodesic_hk"],
    "additionalProperties": False,
}

_VOLUME = {
    "oneOf": [
        {"type": "null"},
        {
            "type": "object",
            "properties": {
                "augmentation_lb": {"type": "number"},
                "filled_lb": {"type": "number"},
                "euler_char_cut": {"type": "integer"},
            },
            "required": ["augmentation_lb", "euler_char_cut"],
            "additionalProperties": False,
        },
    ]
}

_CONSTANTS = {
    "type": "object",
    "properties": {
        "v8": {"type": "number"},
        "two_pi": {"type": "number"},
        "hk": {"type": "number"},
        "six": {"type": "number"},
    },
    "required": ["v8", "two_pi", "hk", "six"],
    "additionalProperties": False,
}

_REPORT = {
    "type": "object",
    "properties": {
        "hypotheses": {"type": "array", "items": {"type": "string"}},
        "tw": {"type": "integer", "minimum": 0},
        "circles": {"type": "array", "items": _CIRCLE},
        "certificates": _CERTIFICATES,
        "volume": _VOLUME,
        "constants": _CONSTANTS,
    },
    "required": ["hypotheses", "tw", "circles", "certificates", "volume", "constants"],
    "additionalProperties": False,
}

_ENTRY = {
    "type": "object",
    "properties": {
        "file": {"type": "string"},
        "ok": {"type": "boolean"},
        "name": {"type": ["string", "null"]},
        "report": _REPORT,
        "error": {"type": "string"},
        "warnings": {"type": "array", "items": {"type": "string"}},
        "export": {"type": "string"},
    },
    "required": ["file", "ok"],
    "additionalProperties": False,
    "allOf": [
        {
            "if": {"properties": {"ok": {"const": True}}},
            "then": {"required": ["name", "report"]},
            "else": {"required": ["error"]},
        }
    ],
}

#: Validates the full ``--json`` document: an array of per-file entries.
REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "auglink analysis report",
    "type": "array",
    "items": _ENTRY,
}
