"""JSON Schemas for the machine-readable outputs.

Three document kinds leave the package as JSON: estimation reports
(``FitReport.to_dict``), simulation reports (``SimReport.to_dict``),
and serialized covariate-mixture fits (``save_fit``).  The schemas
below are the published contract for those files; the test suite
validates every emitted document against them.  ``check_structure``
checks a document read back in (``load_fit``) without jsonschema, which
is a test-only dependency.
"""

from .exceptions import DataError

_NUMBER_OR_NULL = {"type": ["number", "null"]}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["equations"],
    "properties": {
        "equations": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["estimates", "std_errors", "z_values", "p_values",
                             "loglik", "warnings"],
                "properties": {
                    "estimates": {"type": "array", "items": {"type": "number"}},
                    "std_errors": {"type": "array", "items": _NUMBER_OR_NULL},
                    "z_values": {"type": "array", "items": _NUMBER_OR_NULL},
                    "p_values": {"type": "array", "items": _NUMBER_OR_NULL},
                    "loglik": {"type": "number"},
                    "warnings": {"type": "array", "items": {"type": "string"}},
                },
            },
        }
    },
}

SIM_REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["scenario", "states", "n_obs", "n_reps", "seed", "alpha",
                 "hypotheses", "rejection_rates", "dimension", "power",
                 "n_failed", "generator"],
    "properties": {
        "scenario": {"enum": ["part1", "part2"]},
        "states": {"type": "integer", "minimum": 2},
        "n_obs": {"type": "integer", "minimum": 20},
        "n_reps": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "hypotheses": {"type": "array", "items": {"type": "string"}},
        "rejection_rates": {
            "type": "array",
            "items": {"type": "number", "minimum": 0, "maximum": 1},
        },
        "dimension": {"type": "number", "minimum": 0, "maximum": 1},
        "power": {"type": "number", "minimum": 0, "maximum": 1},
        "n_failed": {"type": "integer", "minimum": 0},
        "generator": {"type": "object"},
        "lambda_true": {"type": "array", "items": {"type": "number"}},
        "lambda_mean": {"type": "array", "items": {"type": "number"}},
        "lambda_mean_abs_error": {"type": "number", "minimum": 0},
        "lambda_abs_errors": {
            "type": "array",
            "items": {"type": "number", "minimum": 0},
        },
    },
}

FIT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["format", "version", "n_chains", "alphabet_sizes", "labels",
                 "x_lag", "covariate_names", "converged", "weights", "logliks",
                 "hessians", "report", "submodels"],
    "properties": {
        "format": {"const": "markovmix-gmmc-fit"},
        "version": {"const": 1},
        "n_chains": {"type": "integer", "minimum": 2},
        "alphabet_sizes": {"type": "array", "items": {"type": "integer", "minimum": 2}},
        "labels": {"type": "array", "items": {"type": "array"}},
        "x_lag": {"type": "integer", "minimum": 0},
        "covariate_names": {"type": "array", "items": {"type": "string"}},
        "converged": {"type": "array", "items": {"type": "boolean"}},
        "weights": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}},
        },
        "logliks": {"type": "array", "items": {"type": "number"}},
        "hessians": {"type": "array"},
        "report": REPORT_SCHEMA,
        "submodels": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["coefficients", "n_states", "n_source_states",
                                 "n_covariates", "column_names", "loglik",
                                 "converged", "separation"],
                    "properties": {
                        "coefficients": {
                            "type": "array",
                            "items": {"type": "array", "items": {"type": "number"}},
                        },
                        "n_states": {"type": "integer"},
                        "n_source_states": {"type": "integer"},
                        "n_covariates": {"type": "integer"},
                        "column_names": {"type": "array", "items": {"type": "string"}},
                        "loglik": {"type": "number"},
                        "converged": {"type": "boolean"},
                        "separation": {"type": "boolean"},
                    },
                },
            },
        },
    },
}

_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
               "integer": int, "number": (int, float), "null": type(None)}


def check_structure(doc, schema: dict, source: str, field: str = "document") -> None:
    """Raise DataError naming the first missing or ill-typed field of doc.

    Checks the structural keywords type, required, properties and items,
    and minimum.
    """
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and (not isinstance(doc, tuple(_JSON_TYPES[t] for t in types))
                  or isinstance(doc, bool) and "boolean" not in types):
        raise DataError(f"{source}: field {field} must be {' or '.join(types)}")
    if "minimum" in schema and doc < schema["minimum"]:
        raise DataError(f"{source}: field {field} must be >= {schema['minimum']}")
    for name in schema.get("required", []):
        if name not in doc:
            raise DataError(f"{source}: field {field}.{name} is missing")
    for name, sub in schema.get("properties", {}).items():
        if name in doc:
            check_structure(doc[name], sub, source, f"{field}.{name}")
    for i, item in enumerate(doc if "items" in schema else []):
        check_structure(item, schema["items"], source, f"{field}[{i}]")
