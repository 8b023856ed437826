"""Published JSON schemas: the CLI's `--format json` output and, in
`BUCKET_REPORT_SCHEMA`, `BucketReport.to_json`, which no command writes.

Every object is a closed record (`_record`), with exactly its fields, each
required, save the maps keyed by pattern: an element's basis indices and a
bucket entry's parameters, which admit no key outside their pattern.
"""

RATIONAL_PATTERN = r"^-?\d+(/\d+)?$"


def _record(**fields) -> dict:
    """A closed record: an object with exactly these fields, each required."""
    return {
        "type": "object",
        "properties": fields,
        "required": list(fields),
        "additionalProperties": False,
    }


ELEMENT_SCHEMA = {
    "type": "object",
    "patternProperties": {r"^\d+$": {"type": "string", "pattern": RATIONAL_PATTERN}},
    "additionalProperties": False,
}

ENDPOINT_SCHEMA = {
    "oneOf": [
        {"type": "string", "enum": ["-inf", "+inf"]},
        ELEMENT_SCHEMA,
    ]
}

PIECE_SCHEMA = _record(
    a=ENDPOINT_SCHEMA,
    b=ENDPOINT_SCHEMA,
    polarity={"type": "string", "enum": ["finite", "cofinite"]},
    cosets={"type": "array", "items": ELEMENT_SCHEMA},
)

DECOMPOSITION_SCHEMA = _record(
    points={"type": "array", "items": ELEMENT_SCHEMA},
    pieces={"type": "array", "items": PIECE_SCHEMA},
)

UNARY_SET_CODE_SCHEMA = _record(
    frontier={"type": "array", "items": ELEMENT_SCHEMA},
    pieces={"type": "array", "items": PIECE_SCHEMA},
)

FUNCTION_CODE_SCHEMA = _record(
    exceptional={
        "type": "array",
        "items": {
            "type": "array",
            "items": ELEMENT_SCHEMA,
            "minItems": 2,
            "maxItems": 2,
        },
    },
    pieces={
        "type": "array",
        "items": _record(
            slope={"type": "string", "pattern": RATIONAL_PATTERN},
            intercept=ELEMENT_SCHEMA,
            domain=UNARY_SET_CODE_SCHEMA,
        ),
    },
)

MEASURE_SCHEMA = _record(
    exact=ELEMENT_SCHEMA,
    text={"type": "string"},
    decimal={"type": "string"},
)

BUCKET_REPORT_SCHEMA = _record(
    k={"type": "integer", "minimum": 1},
    assignments={
        "type": "array",
        "items": _record(
            params={
                "type": "object",
                "patternProperties": {r"^[xu]\d+$": ELEMENT_SCHEMA},
                "additionalProperties": False,
            },
            bucket={"type": "integer", "minimum": 1},
            measure=ELEMENT_SCHEMA,
        ),
    },
)

BOOL_RESULT_SCHEMA = _record(result={"type": "boolean"})

FORMULA_RESULT_SCHEMA = _record(formula={"type": "string"})

SPLIT_SCHEMA = _record(
    home={"type": ["string", "null"]},
    quotient={"type": ["string", "null"]},
)

ORACLE_CHECK_SCHEMA = _record(
    seed={"type": "integer"},
    count={"type": "integer", "minimum": 0},
    checks={"type": "integer", "minimum": 0},
    agreements={"type": "integer", "minimum": 0},
    disagreements={"type": "integer", "minimum": 0},
)
