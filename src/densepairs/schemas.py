"""Published JSON schemas for machine-readable CLI output."""

RATIONAL_PATTERN = r"^-?\d+(/\d+)?$"

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

PIECE_SCHEMA = {
    "type": "object",
    "properties": {
        "a": ENDPOINT_SCHEMA,
        "b": ENDPOINT_SCHEMA,
        "polarity": {"type": "string", "enum": ["finite", "cofinite"]},
        "cosets": {"type": "array", "items": ELEMENT_SCHEMA},
    },
    "required": ["a", "b", "polarity", "cosets"],
    "additionalProperties": False,
}

DECOMPOSITION_SCHEMA = {
    "type": "object",
    "properties": {
        "points": {"type": "array", "items": ELEMENT_SCHEMA},
        "pieces": {"type": "array", "items": PIECE_SCHEMA},
    },
    "required": ["points", "pieces"],
    "additionalProperties": False,
}

UNARY_SET_CODE_SCHEMA = {
    "type": "object",
    "properties": {
        "frontier": {"type": "array", "items": ELEMENT_SCHEMA},
        "pieces": {"type": "array", "items": PIECE_SCHEMA},
    },
    "required": ["frontier", "pieces"],
    "additionalProperties": False,
}

FUNCTION_CODE_SCHEMA = {
    "type": "object",
    "properties": {
        "exceptional": {
            "type": "array",
            "items": {
                "type": "array",
                "items": ELEMENT_SCHEMA,
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "pieces": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "slope": {"type": "string", "pattern": RATIONAL_PATTERN},
                    "intercept": ELEMENT_SCHEMA,
                    "domain": UNARY_SET_CODE_SCHEMA,
                },
                "required": ["slope", "intercept", "domain"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["exceptional", "pieces"],
    "additionalProperties": False,
}

MEASURE_SCHEMA = {
    "type": "object",
    "properties": {
        "exact": ELEMENT_SCHEMA,
        "text": {"type": "string"},
        "decimal": {"type": "string"},
    },
    "required": ["exact", "text", "decimal"],
    "additionalProperties": False,
}

BUCKET_REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "k": {"type": "integer", "minimum": 1},
        "assignments": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "params": {
                        "type": "object",
                        "patternProperties": {r"^[xu]\d+$": ELEMENT_SCHEMA},
                        "additionalProperties": False,
                    },
                    "bucket": {"type": "integer", "minimum": 1},
                    "measure": ELEMENT_SCHEMA,
                },
                "required": ["params", "bucket", "measure"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["k", "assignments"],
    "additionalProperties": False,
}

BOOL_RESULT_SCHEMA = {
    "type": "object",
    "properties": {"result": {"type": "boolean"}},
    "required": ["result"],
    "additionalProperties": False,
}

FORMULA_RESULT_SCHEMA = {
    "type": "object",
    "properties": {"formula": {"type": "string"}},
    "required": ["formula"],
    "additionalProperties": False,
}

SPLIT_SCHEMA = {
    "type": "object",
    "properties": {
        "home": {"type": ["string", "null"]},
        "quotient": {"type": ["string", "null"]},
    },
    "required": ["home", "quotient"],
    "additionalProperties": False,
}

ORACLE_CHECK_SCHEMA = {
    "type": "object",
    "properties": {
        "seed": {"type": "integer"},
        "count": {"type": "integer", "minimum": 0},
        "checks": {"type": "integer", "minimum": 0},
        "agreements": {"type": "integer", "minimum": 0},
        "disagreements": {"type": "integer", "minimum": 0},
    },
    "required": ["seed", "count", "checks", "agreements", "disagreements"],
    "additionalProperties": False,
}
