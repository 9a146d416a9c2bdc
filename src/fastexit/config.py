"""Experiment configuration: schema, validation, resolution, and system building.

Configs are single JSON documents.  Validation is schema-based: CONFIG_SCHEMA
is a JSON Schema (draft 2020-12), and `schema_errors` interprets the keyword
subset it uses with JSON Schema's semantics: type, enum, const, anyOf,
minimum, exclusiveMinimum, items, minItems, required, properties and
additionalProperties: false ($schema is read as a comment).  Any other
keyword, anywhere in a schema, is an error, so a schema edit cannot drop a
rule silently.  Resolution materializes the section defaults into the
returned copy, so the config written next to the results re-validates and
re-runs to the same outputs; a catalog spec's optional keys are filled when
the system is built and are not written back ({"kind": "linear", "slope":
-1.0} resolves unchanged).  `build_system` turns a resolved config into
everything a run reads, and is the one place that refuses a config that
cannot run, so a run only solves.  rho_bar = inf is encoded as the string
"inf" (JSON has no infinity literal).
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .coefficients import AveragedModel, catalog_params, make_coefficient_set
from .errors import ConfigError
from .exit_times import DomainSpec, build_domain
from .ldp import QP_HORIZONS, QP_N_NODES
from .noise import make_b_spectrum, make_q_spectrum
from .operator import SpectralOperator, build_neumann_laplacian_1d, invariant_average
from .solver import MultiscaleParams, ScalarPath, solve_limit_ode

_COEFF_SCHEMA = {"type": "object", "required": ["kind"], "properties": {"kind": {"type": "string"}}}
_SPECTRUM_SCHEMA = {"type": "object", "required": ["kind"], "properties": {"kind": {"type": "string"}}}
_LAW_SCHEMA = {
    "type": "object",
    "required": ["coeff", "exponent"],
    "properties": {"coeff": {"type": "number"}, "exponent": {"type": "number"}},
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["coefficients", "experiment"],
    "additionalProperties": False,
    "properties": {
        "operator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "builder": {"enum": ["neumann_laplacian_1d"]},
                "n_modes": {"type": "integer", "minimum": 2},
                "grid_factor": {"type": "integer", "minimum": 2},
            },
        },
        "coefficients": {
            "type": "object",
            "required": ["f", "g", "sigma"],
            "additionalProperties": False,
            "properties": {"f": _COEFF_SCHEMA, "g": _COEFF_SCHEMA, "sigma": _COEFF_SCHEMA},
        },
        "noise": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "q_spectrum": _SPECTRUM_SCHEMA,
                "b_spectrum": _SPECTRUM_SCHEMA,
            },
        },
        "multiscale": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "eps": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}, "minItems": 1},
                "alpha_law": _LAW_SCHEMA,
                "beta_law": _LAW_SCHEMA,
                "rho_bar": {"anyOf": [{"type": "number", "minimum": 0}, {"const": "inf"}]},
                "delta0": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "t_final": {"type": "number", "exclusiveMinimum": 0},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "delta": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "experiment": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["check", "simulate", "average", "action", "quasipotential", "exit"]},
                "x0": {
                    "type": "object",
                    "required": ["kind"],
                    "properties": {"kind": {"enum": ["constant", "cosine_plus_constant"]}},
                },
                "domain": {
                    "type": "object",
                    "required": ["level"],
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": ["quadratic"]},
                        "scale": {"type": "number", "exclusiveMinimum": 0},
                        "center": {"type": "number"},
                        "level": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
                "t_max": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "y_values": {"type": "array", "items": {"type": "number"}},
                "horizons": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}},
                "n_nodes": {"type": "integer", "minimum": 3},
                "path_file": {"type": ["string", "null"]},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "n_paths": {"type": "integer", "minimum": 1},
        "threads": {"type": "integer", "minimum": 1},
        "output_dir": {"type": "string"},
    },
}

DEFAULTS = {
    "operator": {"builder": "neumann_laplacian_1d", "n_modes": 16, "grid_factor": 4},
    "noise": {
        "q_spectrum": {"kind": "flat", "value": 1.0},
        "b_spectrum": {"kind": "flat", "value": 1.0},
    },
    "multiscale": {
        "eps": [0.01],
        "alpha_law": {"coeff": 1.0, "exponent": 0.5},
        "beta_law": {"coeff": 1.0, "exponent": 0.5},
        "rho_bar": 1.0,
        "delta0": 1.0,
    },
    "solver": {"t_final": 1.0, "dt": 1e-3, "delta": 0.5},
    "seed": 12345,
    "n_paths": 100,
    "threads": 1,
    "output_dir": "results",
}

_EXPERIMENT_DEFAULTS = {
    "x0": {"kind": "constant", "value": 0.0},
    "t_max": None,
    "y_values": [0.25, 0.5, 1.0],
    "horizons": list(QP_HORIZONS),
    "n_nodes": QP_N_NODES,
    "path_file": None,
}


def load_config(path) -> dict:
    """Read a config file.  Python's json reads NaN, Infinity and -Infinity; `resolve_config` refuses them."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("<root>", f"not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError("<root>", f"not UTF-8: {exc}") from exc


_KEYWORDS = {"$schema", "type", "enum", "const", "anyOf", "minimum", "exclusiveMinimum", "items", "minItems",
             "required", "properties", "additionalProperties"}
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "null": lambda x: x is None,
    "boolean": lambda x: isinstance(x, bool),
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)) or (isinstance(x, float) and x.is_integer()),
}


def _subschemas(schema: dict):
    """schema and every schema nested in it."""
    yield schema
    nested = [*schema.get("properties", {}).values(), *schema.get("anyOf", ())]
    for sub in nested + ([schema["items"]] if "items" in schema else []):
        yield from _subschemas(sub)


def _equal(a, b) -> bool:
    """JSON equality of scalars: a bool equals only a bool, though True == 1 in Python."""
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _errors(schema: dict, x, path: tuple):
    """Yield (path, message) for each rule of schema that x breaks, in the order JSON Schema validators do.

    A rule on numbers, arrays or objects passes any other kind of value.
    """
    is_number = _TYPES["number"](x)
    for key, rule in schema.items():
        if key == "type":
            types = [rule] if isinstance(rule, str) else rule
            if not any(_TYPES[t](x) for t in types):
                yield path, f"{x!r} is not of type {', '.join(map(repr, types))}"
        elif key == "enum":
            if not any(_equal(x, v) for v in rule):
                yield path, f"{x!r} is not one of {rule!r}"
        elif key == "const":
            if not _equal(x, rule):
                yield path, f"{rule!r} was expected"
        elif key == "anyOf":
            if all(next(_errors(sub, x, path), None) for sub in rule):
                yield path, f"{x!r} is not valid under any of the given schemas"
        elif key == "minimum":
            if is_number and x < rule:
                yield path, f"{x!r} is less than the minimum of {rule!r}"
        elif key == "exclusiveMinimum":
            if is_number and x <= rule:
                yield path, f"{x!r} is less than or equal to the minimum of {rule!r}"
        elif key == "minItems":
            if isinstance(x, list) and len(x) < rule:
                yield path, f"{x!r} has fewer than {rule} items"
        elif key == "items":
            if isinstance(x, list):
                for i, item in enumerate(x):
                    yield from _errors(rule, item, path + (i,))
        elif key == "required":
            if isinstance(x, dict):
                yield from ((path, f"{name!r} is a required property") for name in rule if name not in x)
        elif key == "properties":
            if isinstance(x, dict):
                for name, sub in rule.items():
                    if name in x:
                        yield from _errors(sub, x[name], path + (name,))
        elif key == "additionalProperties":
            extra = [name for name in x if name not in schema.get("properties", {})] if isinstance(x, dict) else []
            if extra:
                verb = "was" if len(extra) == 1 else "were"
                yield path, f"Additional properties are not allowed ({', '.join(map(repr, extra))} {verb} unexpected)"


def schema_errors(schema: dict, instance) -> list[tuple[tuple, str]]:
    """Every (path, message) error of instance against schema, sorted by path, ties in schema order.

    Raises NotImplementedError if schema uses a keyword outside the subset
    named in the module docstring, a type JSON Schema does not define, or
    additionalProperties other than false.
    """
    for sub in _subschemas(schema):
        types = sub.get("type", [])
        unknown = (set(sub) - _KEYWORDS) | (({types} if isinstance(types, str) else set(types)) - set(_TYPES))
        if sub.get("additionalProperties", False) is not False:
            unknown.add(f"additionalProperties: {sub['additionalProperties']!r}")
        if unknown:
            raise NotImplementedError(f"schema uses keywords or types that are not implemented: {sorted(unknown)}")
    return sorted(_errors(schema, instance, ()), key=lambda e: e[0])


def validate_config(raw: dict) -> None:
    """Raise ConfigError for the first error of raw against CONFIG_SCHEMA, errors sorted by path."""
    errors = schema_errors(CONFIG_SCHEMA, raw)
    if errors:
        path, message = errors[0]
        raise ConfigError(".".join(map(str, path)) or "<root>", message)


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in override.items():
        old = out.get(k)
        # a catalog spec of another kind replaces the default spec, keys and all
        if isinstance(v, dict) and isinstance(old, dict) and v.get("kind", old.get("kind")) == old.get("kind"):
            out[k] = _merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def _integers_as_int(schema: dict, x):
    """x with each float at an integer-typed property of schema made an int.

    JSON Schema counts 8.0 as an integer, but numpy and range do not take it.
    """
    if isinstance(x, dict):
        props = schema.get("properties", {})
        return {k: _integers_as_int(props[k], v) if k in props else v for k, v in x.items()}
    return int(x) if schema.get("type") == "integer" and isinstance(x, float) else x


def _non_finite(x, path: tuple = ()):
    """Yield (path, value) for each NaN or infinite float in x: they pass minimum and exclusiveMinimum."""
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _non_finite(v, path + (k,))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _non_finite(v, path + (i,))
    elif isinstance(x, float) and not math.isfinite(x):
        yield path, x


def resolve_config(raw: dict) -> dict:
    """Refuse non-finite numbers, validate, and materialize all defaults into a self-describing copy."""
    bad = min(_non_finite(raw), key=lambda e: e[0], default=None)
    if bad is not None:
        raise ConfigError(".".join(map(str, bad[0])) or "<root>", f"{bad[1]!r} is not a number")
    validate_config(raw)
    resolved = _integers_as_int(CONFIG_SCHEMA, _merge(DEFAULTS, raw))
    if "domain" in resolved.get("experiment", {}):
        resolved["experiment"]["domain"] = _merge(
            {"kind": "quadratic", "scale": 1.0, "center": 0.0}, resolved["experiment"]["domain"]
        )
    resolved["experiment"] = _merge(_EXPERIMENT_DEFAULTS, resolved["experiment"])
    validate_config(resolved)
    return resolved


def config_hash(resolved: dict) -> str:
    return hashlib.sha256(json.dumps(resolved, sort_keys=True).encode()).hexdigest()


def rho_bar_limit(alpha_law: dict, beta_law: dict) -> float:
    """Limit of beta(eps)/alpha(eps) as eps -> 0 from the power laws."""
    pa, pb = alpha_law["exponent"], beta_law["exponent"]
    ca, cb = alpha_law["coeff"], beta_law["coeff"]
    if cb == 0:
        return 0.0
    if ca == 0:
        return math.inf
    if pb > pa:
        return 0.0
    if pb < pa:
        return math.inf
    return cb / ca


@dataclass
class BuiltSystem:
    """Everything a run reads of one config: the system, its scaling levels, the initial state,
    the exit domain (None without `experiment.domain`) and an action config's path: its path
    file, or else the limit ODE from x0's invariant average (None for any other kind)."""

    model: AveragedModel
    params_list: list[MultiscaleParams]
    x0: np.ndarray      # (N,) mode coefficients of the initial state
    domain: DomainSpec | None
    path: ScalarPath | None
    config: dict


# x0 kind -> (required keys, {optional key: default})
_X0_KINDS = {
    "constant": (("value",), {}),
    "cosine_plus_constant": ((), {"amp": 1.0, "freq": 1, "offset": 0.0}),
}


def _build_x0(spec: dict, op: SpectralOperator) -> np.ndarray:
    try:
        p = catalog_params(_X0_KINDS, "x0", spec)
        if spec["kind"] == "constant":
            return op.constant_field(float(p["value"]))
        return op.project(lambda xi: p["amp"] * np.cos(p["freq"] * np.pi * xi) + p["offset"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("experiment.x0", str(exc)) from exc


def _load_scalar_path(path: str) -> ScalarPath:
    """The path in columns t, value of a CSV file with one header line."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy only warns on a file without data rows
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return ScalarPath(times=data[:, 0], values=data[:, 1])
    except (OSError, IndexError, ValueError, UserWarning) as exc:
        raise ConfigError("experiment.path_file", f"{path}: {exc}") from exc


def build_system(resolved: dict) -> BuiltSystem:
    """Build what a run of a resolved config reads, or raise ConfigError for a config that cannot run."""
    op_cfg = resolved["operator"]
    op = build_neumann_laplacian_1d(op_cfg["n_modes"], op_cfg["grid_factor"])
    c = resolved["coefficients"]
    try:
        cs = make_coefficient_set(c["f"], c["g"], c["sigma"])
    except (ValueError, KeyError) as exc:
        raise ConfigError("coefficients", str(exc)) from exc
    ms = resolved["multiscale"]
    try:
        model = AveragedModel(
            op=op, coeffs=cs,
            q_lambdas=make_q_spectrum(resolved["noise"]["q_spectrum"], op.n_modes),
            b_thetas=make_b_spectrum(resolved["noise"]["b_spectrum"]),
            rho_bar=math.inf if ms["rho_bar"] == "inf" else float(ms["rho_bar"]), delta0=ms["delta0"],
        )
    except (ValueError, KeyError) as exc:
        raise ConfigError("noise", str(exc)) from exc
    params_list = [MultiscaleParams.from_schedule(e, ms["alpha_law"], ms["beta_law"]) for e in ms["eps"]]
    exp, sol = resolved["experiment"], resolved["solver"]
    kind = exp["kind"]
    # an exit level's default horizon 50 exp(V_bar / gamma) does not exist at gamma = 0
    if kind == "exit" and exp["t_max"] is None and any(p.gamma == 0 for p in params_list):
        raise ConfigError("multiscale", "a level with alpha = beta = 0 (gamma = 0) needs an explicit t_max")
    path = _load_scalar_path(exp["path_file"]) if kind == "action" and exp["path_file"] else None
    # simulate, average and the limit ODE of a path-less action step from 0 to t_final
    if (kind in ("simulate", "average") or (kind == "action" and path is None)) and sol["dt"] > sol["t_final"]:
        raise ConfigError("solver.dt", f"dt = {sol['dt']!r} must not exceed t_final = {sol['t_final']!r}")
    if kind == "average" and not 0 < sol["delta"] < sol["t_final"]:
        raise ConfigError("solver.delta", f"delta = {sol['delta']!r} must lie in (0, t_final = {sol['t_final']!r})")
    try:
        domain = build_domain(exp["domain"], exp["domain"]["level"]) if "domain" in exp else None
    except ValueError as exc:
        raise ConfigError("experiment.domain", str(exc)) from exc
    x0 = _build_x0(exp["x0"], op)
    if kind == "action" and path is None:
        path = solve_limit_ode(model, invariant_average(op, x0), sol["t_final"], sol["dt"])
    return BuiltSystem(model=model, params_list=params_list, x0=x0, domain=domain, path=path, config=resolved)
